"""The forecast and score tables sum each group left to right, as
`stats.left_sum` adds a list: every mean the rules and the summaries take
equals the left-to-right mean over the records, bit for bit. A seeded law,
without Hypothesis: a dataset with one finding, a finding without responses,
groups of -0.0 beliefs, groups whose respondents all weigh 0, and groups of
over eight values of many magnitudes, where a pairwise sum (`np.sum`,
`np.add.reduceat`) rounds differently. The late-trade forecasts' weight and
weighted-move sums are left to right too, for every market and cutoff."""

import random

import numpy as np
import pytest

from repmarket import aggregate, dynamics, evaluate, stats
from repmarket.aggregate import METHOD_MEAN, METHOD_VAR_WEIGHTED, METHOD_VOTING
from repmarket.dataset import PROJECTS, trades_for

from helpers import (BASE_MS, DAY_MS, HOUR_MS, make_dataset, make_finding, make_trade,
                     priced_market, survey)

SEEDS = range(40)


def _belief(rng):
    kind = rng.random()
    if kind < 0.1:
        return -0.0
    if kind < 0.2:
        return 0.5
    return rng.random() * 10.0 ** rng.randint(-8, 0)


def _dataset(seed):
    """Findings with many responses each, of few forecasters; seed 0 has one
    finding. A finding may have no responses, only -0.0 beliefs, or only
    respondents who answered once (weight 0)."""
    rng = random.Random(seed)
    n_findings = 1 if seed == 0 else rng.randint(2, 8)
    findings, surveys, trades = [], [], []
    for k in range(n_findings):
        fid = f"F{k}"
        finding, market = priced_market(fid, [rng.random() for _ in range(rng.randint(1, 4))],
                                        outcome=rng.randint(0, 1),
                                        project=rng.choice(PROJECTS))
        findings.append(finding)
        trades += market
        kind = rng.choice(["many", "many", "many", "none", "negative zero", "single"])
        if kind == "single":  # each respondent answers once: each weighs 0
            surveys += [survey(fid, f"{fid}-once-{i}", _belief(rng)) for i in range(5)]
        elif kind != "none":
            surveys += [survey(fid, f"f{rng.randint(0, 5)}",
                               -0.0 if kind == "negative zero" else _belief(rng))
                        for _ in range(rng.randint(1, 40))]
    rng.shuffle(surveys)
    return make_dataset(findings, surveys, trades)


def _hex(x):
    return float(x).hex()


@pytest.mark.parametrize("seed", SEEDS)
def test_the_rules_group_sums_are_left_to_right(seed):
    ds = _dataset(seed)
    forecasts = {(f.finding_id, f.method): f.value
                 for f in aggregate.aggregate_all(ds, threshold=0.25)}
    beliefs = {}
    for s in ds.surveys:  # load order
        beliefs.setdefault(s.forecaster_id, []).append(s.belief)
    weights = {f: stats.mean_var(b)[1] for f, b in beliefs.items()}
    assert {f: _hex(w) for f, w in aggregate._weights(ds).items()} == {
        f: _hex(w) for f, w in weights.items()}

    expected = {}
    for fid in ds.finding_ids():
        rows = [s for s in ds.surveys if s.finding_id == fid]
        if not rows:
            continue
        values = [s.belief for s in rows]
        votes = [s.belief >= 0.25 for s in rows]
        w = [weights[s.forecaster_id] for s in rows]
        expected[fid, METHOD_MEAN] = stats.left_sum(values) / len(values)
        expected[fid, METHOD_VOTING] = stats.left_sum(votes) / len(votes)
        if stats.left_sum(w) > 0:
            expected[fid, METHOD_VAR_WEIGHTED] = (
                stats.left_sum(a * b for a, b in zip(w, values)) / stats.left_sum(w))
    got = {key: _hex(v) for key, v in forecasts.items() if key[1] in
           (METHOD_MEAN, METHOD_VOTING, METHOD_VAR_WEIGHTED)}
    assert got == {key: _hex(v) for key, v in expected.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_the_summaries_group_sums_are_left_to_right(seed):
    ds = _dataset(seed)
    scores = evaluate.score(aggregate.aggregate_all(ds), ds)
    index = evaluate.rows_by_method(list(scores))
    for group_by in ("project", "pooled"):
        for summary in evaluate.summarize(scores, ds, group_by=group_by):
            members = {f.finding_id for f in ds.markets()
                       if group_by == "pooled" or f.project == summary.project}
            for method in evaluate.COMPARED:
                rows = [r for fid, r in index[method].items() if fid in members]
                if not rows:
                    assert method not in summary.mean_belief
                    continue
                assert _hex(summary.mean_belief[method]) == _hex(
                    stats.left_sum(r.forecast for r in rows) / len(rows))
                assert _hex(summary.mae[method]) == _hex(
                    stats.left_sum(r.abs_error for r in rows) / len(rows))


def test_group_sums_add_each_group_left_to_right():
    rng = np.random.default_rng(7)
    for n_groups in (1, 2, 5):
        values = rng.random(600) * 10.0 ** rng.integers(-8, 3, 600)
        values[rng.random(600) < 0.1] = -0.0
        groups = rng.integers(0, n_groups, 600)
        sums = stats.group_sums(values, groups, n_groups + 1)  # the last group is empty
        assert [_hex(s) for s in sums] == [
            _hex(stats.left_sum(values[groups == g].tolist())) for g in range(n_groups + 1)]
    assert _hex(stats.group_sums(np.array([-0.0, -0.0]), np.array([0, 0]), 1)[0]) == _hex(0.0)


def _late_dataset(seed):
    """Markets of up to 60 trades from a day before open to a day after close,
    prices of many magnitudes, repeated prices, and markets without trades."""
    rng = random.Random(seed)
    findings, trades = [], []
    for k in range(rng.randint(1, 8)):
        fid = f"F{k}"
        days = rng.choice([1, 3, 14])
        findings.append(make_finding(fid, close_ms=BASE_MS + days * DAY_MS))
        prices = [rng.random() * 10.0 ** rng.randint(-6, 0) for _ in range(3)]
        for _ in range(rng.choice([0, 1, 5, 60])):
            trades.append(make_trade(fid, ts=BASE_MS + rng.randint(-24, 24 * (days + 1)) * HOUR_MS
                                     + rng.randint(0, HOUR_MS), price=rng.choice(prices),
                                     seq=len(trades)))
    rng.shuffle(trades)
    return make_dataset(findings, trades=trades)


def _late_walk(ds, cutoff_hours):
    """(final price, late forecast) of each traded market, market by market,
    each sum left to right over the records."""
    out = {}
    for f in ds.markets():
        closed = [t for t in trades_for(ds, f.finding_id) if t.timestamp <= f.market_close]
        if not closed:
            continue
        final = closed[-1].post_trade_price
        cutoff = f.market_open + cutoff_hours * HOUR_MS
        span = f.market_close - cutoff
        late = [t for t in closed if t.timestamp > cutoff]
        alt = final
        if late and span > 0:
            weights = [(t.timestamp - cutoff) / span for t in late]
            total = stats.left_sum(weights)
            if total > 0:
                alt = final + stats.left_sum(
                    w * (t.post_trade_price - final) for w, t in zip(weights, late)) / total
        out[f.finding_id] = (final, alt)
    return out


@pytest.mark.parametrize("cutoff_hours", [0.0, 5.5, 30.0, 168.0, 400.0])
@pytest.mark.parametrize("seed", SEEDS)
def test_the_late_forecasts_group_sums_are_left_to_right(seed, cutoff_hours):
    ds = _late_dataset(seed)
    got = dynamics.late_trade_forecasts(ds, cutoff_hours)
    assert {fid: tuple(map(_hex, pair)) for fid, pair in got.items()} == {
        fid: tuple(map(_hex, pair)) for fid, pair in _late_walk(ds, cutoff_hours).items()}
