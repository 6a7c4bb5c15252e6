"""Property tests of the per-finding grouping built with a Dataset, of the
vectorized error-curve alignment, of the error series and late-trade
forecasts, of the grouped aggregators and of the survey rule, each against a
plain reference over the records kept here."""

import dataclasses
import math
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repmarket import aggregate, dynamics, evaluate, lmsr, stats  # noqa: E402
from repmarket.dataset import (Dataset, SurveyResponse, closed_rows, load_dataset,  # noqa: E402
                               surveys_for, trades_for, validate, write_dataset)
from repmarket.errors import EmptyMarket, ReplayUnavailable, UnknownFinding, or_null  # noqa: E402
from repmarket.synth import synthetic_dataset  # noqa: E402

from helpers import BASE_MS, HOUR_MS, make_dataset, make_finding, make_trade, survey  # noqa: E402
from test_load_laws import valid_datasets, valid_tables  # noqa: E402

# ten markets: numpy sums eight or more terms pairwise, so a change of
# summation order in the curve shows in the last bits
IDS = tuple(f"F{i}" for i in range(1, 11))
UNKNOWN = "X9"  # never a finding: its records dangle
HALF_HOUR_MS = HOUR_MS // 2


@st.composite
def tables(draw):
    """The findings, survey responses and trades of up to ten markets with
    coarse timestamps (so ties are common), a shuffled load sequence, trades
    before open and after close, and records of unknown findings."""
    findings = []
    for fid in IDS[:draw(st.integers(0, len(IDS)))]:
        open_ms = BASE_MS + draw(st.integers(0, 4)) * HALF_HOUR_MS
        findings.append(make_finding(
            fid, outcome=draw(st.integers(0, 1)), open_ms=open_ms,
            close_ms=open_ms + draw(st.integers(1, 12)) * HOUR_MS))
    any_id = st.sampled_from(IDS + (UNKNOWN,))
    rows = draw(st.lists(st.tuples(any_id, st.integers(-2, 30),
                                   st.floats(0.01, 0.99)), max_size=60))
    seqs = draw(st.permutations(range(len(rows))))
    trades = [make_trade(fid, trader=f"t{seq % 3}", ts=BASE_MS + step * HALF_HOUR_MS,
                         price=price, seq=seq)
              for (fid, step, price), seq in zip(rows, seqs)]
    surveys = [survey(fid, forecaster, belief) for fid, forecaster, belief in draw(
        st.lists(st.tuples(any_id, st.sampled_from("abc"), st.floats(0.0, 1.0)),
                 max_size=20))]
    return findings, surveys, trades


def datasets():
    return tables().map(lambda tables: make_dataset(*tables))


def scan_trades(ds, fid):
    """Filter every trade, then sort by (timestamp, load sequence)."""
    if fid not in ds.finding_ids():
        raise UnknownFinding(fid)
    rows = [t for t in ds.trades if t.finding_id == fid]
    rows.sort(key=lambda t: (t.timestamp, t.seq))
    return rows


def scan_surveys(ds, fid):
    if fid not in ds.finding_ids():
        raise UnknownFinding(fid)
    return [s for s in ds.surveys if s.finding_id == fid]


def cursor_curve(ds, axis, grid=None):
    """Walk a cursor through each market's error series at every grid point."""
    per_market = []
    for fid in ds.finding_ids():
        try:
            per_market.append(dynamics.error_series(ds, fid, axis))
        except EmptyMarket:
            per_market.append([])
    if grid is None:
        if axis == dynamics.AXIS_TRADES:
            last = [s[-1][0] for s in per_market if s]
            grid = np.arange(0.0, math.floor(max(last) if last else 0.0) + 1.0)
        else:
            durations = [(f.market_close - f.market_open) / HOUR_MS for f in ds.findings]
            grid = np.arange(0.0, math.ceil(max(durations) if durations else 0.0) + 1.0)
    grid = np.asarray(sorted(grid), dtype=float)
    rows = []
    mean_err = np.empty(len(grid))
    n_contrib = np.zeros(len(grid), dtype=int)
    values = np.full(len(per_market), dynamics.PRE_MARKET_ERROR)
    cursors = [0] * len(per_market)
    for gi, g in enumerate(grid):
        for mi, series in enumerate(per_market):
            c = cursors[mi]
            while c < len(series) and series[c][0] <= g:
                values[mi] = series[c][1]
                c += 1
            cursors[mi] = c
            n_contrib[gi] += c > 0
        mean_err[gi] = values.mean() if len(values) else 0.0
        rows.append(values.tolist())
    return grid, mean_err, n_contrib, rows


@pytest.mark.parametrize("axis", [dynamics.AXIS_TRADES, dynamics.AXIS_HOURS])
def test_curve_sums_each_grid_point_in_market_order(axis):
    ds = synthetic_dataset(seed=5, n_markets=40, n_traders=10)
    curve = dynamics.mean_error_curve(ds, axis)
    grid, mean_err, n_contrib, rows = cursor_curve(ds, axis)
    assert np.array_equal(curve.mean_abs_error, mean_err)
    assert np.array_equal(curve.n_contributing, n_contrib)
    # the data tell summation orders apart: a left-to-right sum over markets
    # misses the curve in the last bits somewhere
    assert any(sum(row) / len(row) != m for row, m in zip(rows, mean_err))


def _keyed(records):
    # Trade equality ignores seq, so compare the load sequence as well
    return [(getattr(r, "seq", None), r) for r in records]


@settings(deadline=None, max_examples=80)
@given(tables() | valid_tables(), st.data())
def test_records_are_the_records_the_dataset_was_built_from(given_tables, data):
    # a dataset keeps columns only: the records it builds from them carry
    # every field of the given ones, seq and source_row too
    findings, surveys, trades = ([dataclasses.replace(r, source_row=data.draw(
        st.none() | st.integers(1, 10**6))) for r in records] for records in given_tables)
    ds = Dataset(findings, surveys, trades)
    assert _keyed(ds.trades) == _keyed(trades)
    assert ds.surveys == surveys
    assert ([r.source_row for r in ds.trades + ds.surveys]
            == [r.source_row for r in trades + surveys])


@settings(deadline=None, max_examples=80)
@given(datasets())
def test_lookups_equal_the_scan_definition(ds):
    for fid in IDS + (UNKNOWN,):
        if fid in ds.finding_ids():
            assert _keyed(trades_for(ds, fid)) == _keyed(scan_trades(ds, fid))
            assert surveys_for(ds, fid) == scan_surveys(ds, fid)
        else:
            with pytest.raises(UnknownFinding):
                trades_for(ds, fid)
            with pytest.raises(UnknownFinding):
                surveys_for(ds, fid)


@settings(deadline=None, max_examples=80)
@given(datasets(), st.sampled_from([dynamics.AXIS_TRADES, dynamics.AXIS_HOURS]))
def test_curve_equals_the_cursor_walk_exactly(ds, axis):
    curve = dynamics.mean_error_curve(ds, axis)
    grid, mean_err, n_contrib, _ = cursor_curve(ds, axis)
    assert np.array_equal(curve.x, grid)
    assert np.array_equal(curve.mean_abs_error, mean_err)
    assert np.array_equal(curve.n_contributing, n_contrib)


@settings(deadline=None, max_examples=60)
@given(datasets(), st.sampled_from([dynamics.AXIS_TRADES, dynamics.AXIS_HOURS]),
       st.lists(st.floats(-3.0, 20.0), unique=True, max_size=30))
def test_curve_on_a_given_grid_equals_the_cursor_walk_exactly(ds, axis, grid):
    curve = dynamics.mean_error_curve(ds, axis, grid=grid)
    x, mean_err, n_contrib, _ = cursor_curve(ds, axis, grid)
    assert np.array_equal(curve.x, x)
    assert np.array_equal(curve.mean_abs_error, mean_err)
    assert np.array_equal(curve.n_contributing, n_contrib)


@settings(deadline=None, max_examples=50)
@given(datasets())
def test_returned_lists_are_copies(ds):
    for fid in ds.finding_ids():
        trades, surveys = trades_for(ds, fid), surveys_for(ds, fid)
        before = _keyed(trades), list(surveys)
        trades_for(ds, fid).append(make_trade(fid))
        surveys_for(ds, fid).append(survey(fid, "z", 0.5))
        trades.clear()
        surveys.reverse()
        assert (_keyed(trades_for(ds, fid)), surveys_for(ds, fid)) == before


@settings(deadline=None, max_examples=50)
@given(datasets())
def test_replace_regroups(ds):
    kept = ds.trades[::2]
    smaller = dataclasses.replace(ds, trades=kept, surveys=[])
    for fid in smaller.finding_ids():
        assert _keyed(trades_for(smaller, fid)) == _keyed(scan_trades(smaller, fid))
        assert surveys_for(smaller, fid) == []


def walk_series(ds, fid, axis):
    """(x, |outcome - price|) of each trade at or before the market's close."""
    f = ds.finding(fid)
    closed = [t for t in scan_trades(ds, fid) if t.timestamp <= f.market_close]
    if not closed:
        raise EmptyMarket(fid)
    return [(float(k) if axis == dynamics.AXIS_TRADES
             else (t.timestamp - f.market_open) / HOUR_MS,
             abs(f.outcome - t.post_trade_price))
            for k, t in enumerate(closed, start=1)]


def series_or_empty(series, ds, fid, axis):
    try:
        return series(ds, fid, axis)
    except EmptyMarket:
        return []


def walk_late_forecasts(ds, cutoff_hours, add=stats.left_sum):
    """The time-weighted mean of the prices after the cutoff, trade by trade;
    `add` sums the weights and the weighted price moves."""
    out = {}
    for f in ds.findings:
        closed = [t for t in scan_trades(ds, f.finding_id) if t.timestamp <= f.market_close]
        if not closed:
            continue
        final = closed[-1].post_trade_price
        cutoff_ms = f.market_open + cutoff_hours * HOUR_MS
        post = [t for t in closed if t.timestamp > cutoff_ms]
        span = f.market_close - cutoff_ms
        alt = final
        if post and span > 0:
            weights = [(t.timestamp - cutoff_ms) / span for t in post]
            total = add(weights)
            if total > 0:
                alt = final + add([w * (t.post_trade_price - final)
                                   for w, t in zip(weights, post)]) / total
        out[f.finding_id] = (final, alt)
    return out


@settings(deadline=None, max_examples=80)
@given(datasets(), st.sampled_from([dynamics.AXIS_TRADES, dynamics.AXIS_HOURS]))
def test_error_series_equals_the_record_walk(ds, axis):
    for fid in ds.finding_ids():
        try:
            expected = walk_series(ds, fid, axis)
        except EmptyMarket:
            with pytest.raises(EmptyMarket):
                dynamics.error_series(ds, fid, axis)
        else:
            assert dynamics.error_series(ds, fid, axis) == expected


def _market_at_the_edges():
    """One market with a trade before open, at the cutoff (2h), after it and
    after close (4h), and one without trades."""
    f = make_finding("F1", outcome=0, open_ms=BASE_MS, close_ms=BASE_MS + 4 * HOUR_MS)
    steps = (-1, 2, 4, 5, 7, 9)  # half hours from open
    trades = [make_trade("F1", ts=BASE_MS + step * HALF_HOUR_MS, price=0.1 * (k + 2), seq=k)
              for k, step in enumerate(steps)]
    return make_dataset([f, make_finding("F2")], trades=trades)


# ties at the cutoff, a cutoff before open and one past close
CUTOFFS = st.integers(-2, 30).map(lambda k: k / 2) | st.floats(-2.0, 16.0)


@settings(deadline=None, max_examples=100)
@given(datasets(), CUTOFFS)
@example(_market_at_the_edges(), 2.0)
@example(_market_at_the_edges(), 5.0)
def test_late_trade_forecasts_equal_the_record_walk(ds, cutoff_hours):
    assert dynamics.late_trade_forecasts(ds, cutoff_hours) == walk_late_forecasts(
        ds, cutoff_hours)


def test_late_trade_forecasts_add_left_to_right():
    ds = synthetic_dataset(seed=5, n_markets=40, n_traders=10)
    forecasts = dynamics.late_trade_forecasts(ds, 100.0)
    assert forecasts == walk_late_forecasts(ds, 100.0)
    # the data tell summation orders apart: numpy's pairwise sum misses somewhere
    pairwise = walk_late_forecasts(ds, 100.0, add=lambda v: float(np.sum(v)))
    assert pairwise != forecasts


@settings(deadline=None, max_examples=50)
@given(datasets(), CUTOFFS)
def test_replace_gives_the_curves_of_the_new_trades(ds, cutoff_hours):
    axes = (dynamics.AXIS_TRADES, dynamics.AXIS_HOURS)
    for axis in axes:  # ds is read before it is replaced
        dynamics.mean_error_curve(ds, axis)
    dynamics.late_trade_forecasts(ds, cutoff_hours)
    kept = ds.trades[1::2]
    smaller = dataclasses.replace(ds, trades=kept)
    fresh = Dataset(ds.findings, ds.surveys, kept)
    for axis in axes:
        curve, expected = (dynamics.mean_error_curve(d, axis) for d in (smaller, fresh))
        assert np.array_equal(curve.x, expected.x)
        assert np.array_equal(curve.mean_abs_error, expected.mean_abs_error)
        assert np.array_equal(curve.n_contributing, expected.n_contributing)
        for fid in smaller.finding_ids():  # a copy kept by finding id fails here
            assert (series_or_empty(dynamics.error_series, smaller, fid, axis)
                    == series_or_empty(walk_series, smaller, fid, axis))
    assert dynamics.late_trade_forecasts(smaller, cutoff_hours) == walk_late_forecasts(
        fresh, cutoff_hours)


def test_timestamps_beyond_int64_give_the_floats_of_the_records():
    # only loaded rows are bounded to the years 0001-9999; an in-memory trade
    # may lie past 2**63 ms, where an int64 column would overflow
    big = 10**19
    f = make_finding("F1", open_ms=big - HOUR_MS, close_ms=big + HOUR_MS)
    ds = make_dataset([f], trades=[make_trade("F1", ts=big + k, price=0.15 * k, seq=k)
                                   for k in (1, 5)])
    for axis in (dynamics.AXIS_TRADES, dynamics.AXIS_HOURS):
        assert dynamics.error_series(ds, "F1", axis) == walk_series(ds, "F1", axis)
    curve = dynamics.mean_error_curve(ds, dynamics.AXIS_HOURS)
    assert curve.x.tolist() == [0.0, 1.0, 2.0]
    assert curve.mean_abs_error.tolist() == [0.5, 0.5, 0.25]
    assert curve.n_contributing.tolist() == [0, 0, 1]
    assert dynamics.late_trade_forecasts(ds, 0.5) == walk_late_forecasts(ds, 0.5)


def _write_and_load(ds, directory):
    paths = [directory / name for name in ("o.csv", "s.csv", "t.csv")]
    write_dataset(ds, *paths)
    return load_dataset(*paths)


def _replayed(ds, fid, mode):
    try:
        return lmsr.replay(ds, fid, mode=mode, liquidity_b=50.0)
    except (EmptyMarket, ReplayUnavailable) as exc:
        return type(exc)


@settings(deadline=None, max_examples=60)
@given(valid_datasets())
def test_a_loaded_dataset_reads_as_the_records_it_was_written_from(ds):
    with tempfile.TemporaryDirectory() as tmp:
        loaded = _write_and_load(ds, Path(tmp))
    assert loaded.load_report.errors == []
    for f in ds.findings:
        fid = f.finding_id
        assert trades_for(loaded, fid) == trades_for(ds, fid)
        assert (loaded.trade_columns.records(closed_rows(loaded, f))
                == ds.trade_columns.records(closed_rows(ds, f))
                == [t for t in scan_trades(ds, fid) if t.timestamp <= f.market_close])
        for mode in (lmsr.PRICE_TAKING, lmsr.SIMULATED):
            assert _replayed(loaded, fid, mode) == _replayed(ds, fid, mode)


@settings(deadline=None, max_examples=80)
@given(datasets())
def test_validate_reads_dangling_and_known_trades_as_the_records_say(ds):
    # each record carries its place in the table; unknown findings' trades
    # group before every market's, and validate reports them in record order
    trades = [dataclasses.replace(t, source_row=row) for row, t in enumerate(ds.trades, 1)]
    ds = dataclasses.replace(ds, trades=trades)
    by_id = {}
    for f in ds.findings:
        by_id.setdefault(f.finding_id, f)
    expected = []
    for t in trades:
        f = by_id.get(t.finding_id)
        if f is None:
            expected.append((t.source_row, "dangling_reference"))
        elif not f.market_open <= t.timestamp <= f.market_close:
            expected.append((t.source_row, "outside_window"))
    report = validate(ds)
    assert [(v.row, v.kind) for v in report.errors if v.table == "trades"] == expected
    assert report.counts["trades"] == {"records": len(trades), "yes_side": len(trades),
                                       "no_side": 0}
    for fid in ds.finding_ids():
        assert _keyed(trades_for(ds, fid)) == _keyed(scan_trades(ds, fid))


def test_dangling_trades_between_known_ones_are_reported_and_join_no_market():
    f = make_finding("F1")
    trades = [make_trade(fid, trader=f"t{k}", ts=BASE_MS + (5 - k) * HOUR_MS, seq=k)
              for k, fid in enumerate(("F1", UNKNOWN, "F1", UNKNOWN, "F1"))]
    trades = [dataclasses.replace(t, source_row=k + 1) for k, t in enumerate(trades)]
    ds = make_dataset([f], trades=trades)
    assert [(v.row, v.kind, v.message) for v in validate(ds).errors] == [
        (2, "dangling_reference", f"unknown finding_id {UNKNOWN!r}"),
        (4, "dangling_reference", f"unknown finding_id {UNKNOWN!r}")]
    assert trades_for(ds, "F1") == trades[::-2]
    assert lmsr.replay(ds, "F1") == [0.6] * 3
    assert len(ds.trade_columns) == 5


def scan_weights(ds):
    """The variance of each forecaster's beliefs, the records taken in order."""
    beliefs = {}
    for s in ds.surveys:
        beliefs.setdefault(s.forecaster_id, []).append(s.belief)
    return [aggregate.ForecasterWeight(forecaster, stats.mean_var(beliefs[forecaster])[1])
            for forecaster in sorted(beliefs)]


@settings(deadline=None, max_examples=60)
@given(valid_datasets())
# grouped by finding, a's beliefs would read 0.5, 0.2, 0.4: a variance one ulp off
@example(make_dataset([make_finding(fid) for fid in ("F1", "F2", "F3")], [
    survey("F2", "a", 0.2), survey("F3", "a", 0.4), survey("F1", "a", 0.5)]))
def test_a_loaded_dataset_aggregates_the_surveys_it_was_written_from(ds):
    with tempfile.TemporaryDirectory() as tmp:
        loaded = _write_and_load(ds, Path(tmp))
    assert loaded.load_report.errors == []
    for fid in ds.finding_ids():
        assert surveys_for(loaded, fid) == surveys_for(ds, fid) == scan_surveys(ds, fid)
    assert (aggregate.aggregate_all(loaded, methods=aggregate.SURVEY_METHODS)
            == aggregate.aggregate_all(ds, methods=aggregate.SURVEY_METHODS))
    assert aggregate.forecaster_weights(loaded) == aggregate.forecaster_weights(ds) == (
        scan_weights(ds))


def walk_per_finding(ds, threshold):
    """Every (finding id, method) pair through or_null and the per-finding
    functions, the findings in order and the methods in ALL_METHODS order."""
    weights = {w.forecaster_id: w.weight for w in aggregate.forecaster_weights(ds)}
    rules = {
        aggregate.METHOD_MARKET: aggregate.market_final_price,
        aggregate.METHOD_MEAN: aggregate.survey_mean,
        aggregate.METHOD_MEDIAN: aggregate.survey_median,
        aggregate.METHOD_VOTING: partial(aggregate.survey_voting, threshold=threshold),
        aggregate.METHOD_VAR_WEIGHTED: partial(aggregate.survey_var_weighted, weights=weights),
    }
    forecasts = (or_null(rules[method], ds, f.finding_id)
                 for f in ds.findings for method in aggregate.ALL_METHODS)
    return [f for f in forecasts if f is not None]


def walk_records(ds, threshold):
    """Each method's forecast of each finding computed from its records: the
    last price at or before close and the survey rules over the responses in
    record order, a finding skipped where the method is undefined."""
    weights = {w.forecaster_id: w.weight for w in scan_weights(ds)}
    out = []
    for f in ds.findings:
        closed = [t for t in scan_trades(ds, f.finding_id) if t.timestamp <= f.market_close]
        responses = scan_surveys(ds, f.finding_id)
        beliefs = [s.belief for s in responses]
        w = [weights[s.forecaster_id] for s in responses]
        n, ordered = len(beliefs), sorted(beliefs)
        values = {aggregate.METHOD_MARKET: (closed[-1].post_trade_price, len(closed))
                  if closed else None}
        if n:
            values[aggregate.METHOD_MEAN] = stats.left_sum(beliefs) / n, n
            values[aggregate.METHOD_MEDIAN] = (
                ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0), n
            values[aggregate.METHOD_VOTING] = sum(b >= threshold for b in beliefs) / n, n
            if stats.left_sum(w) > 0:
                values[aggregate.METHOD_VAR_WEIGHTED] = stats.left_sum(
                    wi * b for wi, b in zip(w, beliefs)) / stats.left_sum(w), n
        out += [aggregate.AggregateForecast(f.finding_id, method, *values[method])
                for method in aggregate.ALL_METHODS if values.get(method)]
    return out


def _bits(forecasts):
    # equal floats may differ in sign (0.0 and -0.0): compare the bits and the types
    return [(f.finding_id, f.method, f.value.hex(), type(f.value), f.n_inputs, type(f.n_inputs))
            for f in forecasts]


def _every_case():
    """A market traded before, at and after close, an empty market, a finding
    without responses, one whose respondents all weigh 0, and records of an
    unknown finding."""
    findings = [make_finding(fid, close_ms=BASE_MS + 4 * HOUR_MS) for fid in ("F1", "F2", "F3")]
    trades = [make_trade(fid, ts=BASE_MS + step * HOUR_MS, price=price, seq=k)
              for k, (fid, step, price) in enumerate(
                  [("F1", 1, 0.3), ("F1", 4, 0.45), ("F1", 6, 0.9), (UNKNOWN, 1, 0.2)])]
    # F2 has no trades and no responses; F3's one respondent answered once
    surveys = [survey("F1", "a", 0.2), survey("F1", "b", 0.5), survey("F3", "c", 0.9),
               survey(UNKNOWN, "a", 0.4), survey(UNKNOWN, "b", 0.1)]
    return findings, surveys, trades


@settings(deadline=None, max_examples=80)
@given(tables() | valid_tables(), st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
@example(_every_case(), 0.5)
def test_aggregate_all_equals_the_walk_over_every_pair(given_tables, threshold):
    ds = make_dataset(*given_tables)
    forecasts = aggregate.aggregate_all(ds, threshold=threshold)
    assert _bits(forecasts) == _bits(walk_per_finding(ds, threshold))
    assert _bits(forecasts) == _bits(walk_records(ds, threshold))


def walk_scores(forecasts, ds, threshold):
    """Each forecast's score row, one record at a time."""
    outcome = {f.finding_id: f.outcome for f in ds.markets()}
    rows = []
    for fc in forecasts:
        predicted = 1 if fc.value >= threshold else 0
        o = outcome[fc.finding_id]
        rows.append(evaluate.ScoreRow(fc.finding_id, fc.method, fc.value, o, predicted,
                                      predicted == o, abs(o - fc.value), abs(fc.value - 0.5)))
    return rows


def _record_bits(records):
    # each field's value with its type, a float by its bits
    return [tuple((v.hex() if isinstance(v, float) else v, type(v))
                  for v in dataclasses.astuple(r)) for r in records]


@settings(deadline=None, max_examples=80)
@given(tables() | valid_tables(), st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
@example(_every_case(), 0.5)
def test_the_forecast_and_score_tables_equal_the_walk_over_their_records(given_tables,
                                                                         threshold):
    ds = make_dataset(*given_tables)
    walk = walk_per_finding(ds, threshold)
    table = aggregate.aggregate_all(ds, threshold=threshold).columns
    assert (table.finding_ids, table.methods) == (ds.finding_ids(), aggregate.ALL_METHODS)
    # the mask: a cell of the (finding x method) table is defined where the walk
    # has the pair, and the rows run by finding, then by method, as the walk does
    defined = np.zeros((len(table.finding_ids), len(table.methods)), dtype=bool)
    defined[table.finding, table.method] = True
    group = {fid: k for k, fid in enumerate(ds.finding_ids())}
    walked = np.zeros_like(defined)
    for f in walk:
        walked[group[f.finding_id], table.methods.index(f.method)] = True
    assert np.array_equal(defined, walked)
    assert _record_bits(map(aggregate.AggregateForecast, *table.values())) == _record_bits(walk)

    scores = evaluate.score(aggregate.aggregate_all(ds, threshold=threshold), ds, threshold)
    assert _record_bits(map(evaluate.ScoreRow, *scores.columns.values())) == _record_bits(
        walk_scores(walk, ds, threshold))


@st.composite
def surveyed(draw):
    """Up to three findings and responses by few forecasters, so that pairs
    repeat: some of unknown findings, some by an empty forecaster id (which
    only the loader faults), some with beliefs outside [0, 1]."""
    findings = [make_finding(fid) for fid in IDS[:draw(st.integers(0, 3))]]
    rows = draw(st.lists(st.tuples(st.sampled_from(IDS[:3] + (UNKNOWN,)),
                                   st.sampled_from(["a", "b", ""]),
                                   st.sampled_from([0.0, 1.0, -0.5, 1.5]) | st.floats(-0.5, 1.5)),
                         max_size=25))
    return make_dataset(findings, [SurveyResponse(fid, who, belief, source_row=row)
                                   for row, (fid, who, belief) in enumerate(rows, start=1)])


def scan_responses(ds, loaded):
    """(row, column, kind, message) of each survey fault, the records scanned
    in order. `validate` counts every earlier record as seen and reports every
    fault; the loader counts a pair as seen once a row with it is accepted and
    reports a rejected row's first fault alone."""
    known = set(ds.finding_ids())
    seen, expected = set(), []
    for row, s in enumerate(ds.surveys, start=1):
        key = (s.finding_id, s.forecaster_id)
        if loaded and not s.forecaster_id:
            faults = [("finding_id/forecaster_id", "invalid_value", "empty identifier")]
        elif s.finding_id not in known:
            faults = [("finding_id", "dangling_reference", f"unknown finding_id {s.finding_id!r}")]
        else:
            faults = ([("forecaster_id", "duplicate_key", f"duplicate response {key!r}")]
                      if key in seen else [])
            if not 0.0 <= s.belief <= 1.0:
                faults.append(("belief", "invalid_value", f"belief {s.belief} outside [0, 1]"))
        expected += [(row, *fault) for fault in (faults[:1] if loaded else faults)]
        if not (loaded and faults):
            seen.add(key)
    return expected


def _survey_errors(report):
    return [(v.row, v.column, v.kind, v.message) for v in report.errors if v.table == "surveys"]


@settings(deadline=None, max_examples=80)
@given(surveyed())
@example(make_dataset([make_finding("F1")], [  # a duplicate after a rejected row
    SurveyResponse("F1", "a", 1.5, source_row=1), SurveyResponse("F1", "a", 0.5, source_row=2),
    SurveyResponse("F1", "a", 0.2, source_row=3)]))
def test_validate_and_the_loader_report_responses_as_the_record_scan_says(ds):
    assert _survey_errors(validate(ds)) == scan_responses(ds, loaded=False)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = _write_and_load(ds, Path(tmp))
    assert _survey_errors(loaded.load_report) == scan_responses(ds, loaded=True)
    rejected = {row for row, *_ in scan_responses(ds, loaded=True)}
    assert loaded.surveys == [s for s in ds.surveys if s.source_row not in rejected]
