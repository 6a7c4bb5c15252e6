"""Property tests of the per-finding grouping built with a Dataset and of the
vectorized error-curve alignment, each against a plain reference kept here."""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repmarket import dynamics  # noqa: E402
from repmarket.dataset import surveys_for, trades_for  # noqa: E402
from repmarket.errors import EmptyMarket, UnknownFinding  # noqa: E402
from repmarket.synth import synthetic_dataset  # noqa: E402

from helpers import BASE_MS, HOUR_MS, make_dataset, make_finding, make_trade, survey  # noqa: E402

# ten markets: numpy sums eight or more terms pairwise, so a change of
# summation order in the curve shows in the last bits
IDS = tuple(f"F{i}" for i in range(1, 11))
UNKNOWN = "X9"  # never a finding: its records dangle
HALF_HOUR_MS = HOUR_MS // 2


@st.composite
def datasets(draw):
    """Up to ten markets with coarse timestamps (so ties are common), a
    shuffled load sequence, trades before open and after close, and records
    of unknown findings."""
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
    return make_dataset(findings, surveys, trades)


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
