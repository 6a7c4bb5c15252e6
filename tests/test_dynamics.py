import math
import random

import numpy as np
import pytest

from repmarket import dynamics, evaluate
from repmarket.aggregate import METHOD_MARKET, aggregate_all
from repmarket.errors import EmptyMarket, InsufficientPoints, NoReduction

from helpers import BASE_MS, HOUR_MS, make_dataset, make_finding, make_trade, priced_market


def test_error_series_toward_outcome():
    finding, trades = priced_market("F1", [0.5, 0.7, 0.9], outcome=1)
    ds = make_dataset([finding], trades=trades)
    series = dynamics.error_series(ds, "F1", dynamics.AXIS_TRADES)
    assert series == [(1.0, 0.5), (2.0, pytest.approx(0.3)), (3.0, pytest.approx(0.1))]


def test_error_series_constant_price():
    finding, trades = priced_market("F1", [0.5, 0.5, 0.5], outcome=0)
    ds = make_dataset([finding], trades=trades)
    series = dynamics.error_series(ds, "F1", dynamics.AXIS_HOURS)
    assert [e for _, e in series] == [0.5, 0.5, 0.5]
    assert [x for x, _ in series] == [1.0, 2.0, 3.0]


def test_error_series_monotone_for_monotone_prices():
    prices = [0.5, 0.55, 0.62, 0.7, 0.85]
    finding, trades = priced_market("F1", prices, outcome=1)
    ds = make_dataset([finding], trades=trades)
    errors = [e for _, e in dynamics.error_series(ds, "F1")]
    assert errors == sorted(errors, reverse=True)


def test_error_series_empty_market():
    ds = make_dataset([make_finding("F1")])
    with pytest.raises(EmptyMarket):
        dynamics.error_series(ds, "F1")


def test_mean_error_curve_single_market_step():
    finding, trades = priced_market("F1", [0.7, 0.9], outcome=1)
    ds = make_dataset([finding], trades=trades)
    curve = dynamics.mean_error_curve(ds, dynamics.AXIS_TRADES)
    assert list(curve.x) == [0.0, 1.0, 2.0]
    assert list(curve.mean_abs_error) == [0.5, pytest.approx(0.3), pytest.approx(0.1)]
    assert list(curve.n_contributing) == [0, 1, 1]


def test_mean_error_curve_two_markets_average():
    f1, t1 = priced_market("F1", [0.8], outcome=1)   # error 0.2
    f2, t2 = priced_market("F2", [0.4], outcome=0)   # error 0.4
    ds = make_dataset([f1, f2], trades=t1 + t2)
    curve = dynamics.mean_error_curve(ds, dynamics.AXIS_TRADES)
    assert curve.mean_abs_error[0] == 0.5  # exact pre-market value
    assert curve.mean_abs_error[-1] == pytest.approx(0.3)


def test_mean_error_curve_carries_final_error():
    f1, t1 = priced_market("F1", [0.9], outcome=1)            # 1 trade
    f2, t2 = priced_market("F2", [0.6, 0.6, 0.8], outcome=1)  # 3 trades
    ds = make_dataset([f1, f2], trades=t1 + t2)
    curve = dynamics.mean_error_curve(ds, dynamics.AXIS_TRADES)
    # at grid 3 the one-trade market still contributes its final error 0.1
    assert curve.mean_abs_error[-1] == pytest.approx((0.1 + 0.2) / 2)


def test_mean_error_curve_handles_empty_market():
    f1, t1 = priced_market("F1", [0.9], outcome=1)
    f2 = make_finding("F2", outcome=0)  # never traded
    ds = make_dataset([f1, f2], trades=t1)
    curve = dynamics.mean_error_curve(ds, dynamics.AXIS_TRADES)
    # the empty market contributes its pre-market error 0.5 throughout
    assert curve.mean_abs_error[-1] == pytest.approx((0.1 + 0.5) / 2)
    assert list(curve.n_contributing) == [0, 1]


def test_mean_error_curve_final_matches_market_mae(synth_ds):
    forecasts = aggregate_all(synth_ds, methods=(METHOD_MARKET,))
    scores = evaluate.score(forecasts, synth_ds)
    mae = sum(s.abs_error for s in scores) / len(scores)
    curve = dynamics.mean_error_curve(synth_ds, dynamics.AXIS_TRADES)
    assert abs(curve.mean_abs_error[-1] - mae) <= 1e-12


def test_mean_error_curve_ignores_trades_after_close():
    f1, t1 = priced_market("F1", [0.7, 0.9], outcome=1)
    late = make_trade("F1", ts=f1.market_close + HOUR_MS, price=0.2, seq=2)
    f2, t2 = priced_market("F2", [0.4], outcome=0)
    ds = make_dataset([f1, f2], trades=t1 + [late] + t2)
    scores = evaluate.score(aggregate_all(ds, methods=(METHOD_MARKET,)), ds)
    mae = sum(s.abs_error for s in scores) / len(scores)
    for axis in (dynamics.AXIS_TRADES, dynamics.AXIS_HOURS):
        curve = dynamics.mean_error_curve(ds, axis)
        assert curve.mean_abs_error[-1] == pytest.approx(mae)


def _oracle_loess(x, y, span, degree):
    """Independent check: normal equations solved point by point."""
    n = len(x)
    k = min(max(math.ceil(span * n), degree + 2), n)
    out = []
    for i in range(n):
        idx = sorted(range(n), key=lambda j: abs(x[j] - x[i]))[:k]
        radius = abs(x[idx[-1]] - x[i])
        rows = []
        for j in idx:
            u = abs(x[j] - x[i]) / radius if radius > 0 else 0.0
            w = (1.0 - min(u, 1.0) ** 3) ** 3
            rows.append((x[j] - x[i], y[j], w))
        size = degree + 1
        a = [[sum(w * dx ** (r + c) for dx, _, w in rows) for c in range(size)]
             for r in range(size)]
        rhs = [sum(w * yy * dx ** r for dx, yy, w in rows) for r in range(size)]
        coef = np.linalg.solve(np.array(a), np.array(rhs))
        out.append(float(coef[0]))
    return out


def _curve(x, y):
    return dynamics.ErrorCurve(dynamics.AXIS_TRADES, np.array(x), np.array(y),
                               np.zeros(len(x), dtype=int))


def test_loess_reproduces_constants():
    x = list(range(12))
    curve = _curve(x, [0.37] * 12)
    for degree in (1, 2):
        smoothed = dynamics.loess_fit(curve, dynamics.LoessConfig(0.5, degree))
        assert np.allclose(smoothed.mean_abs_error, 0.37, atol=1e-12)


def test_loess_reproduces_lines():
    x = np.linspace(0.0, 10.0, 25)
    y = 0.8 - 0.05 * x
    curve = _curve(x, y)
    for span in (0.3, 0.75, 1.0):
        for degree in (1, 2):
            smoothed = dynamics.loess_fit(curve, dynamics.LoessConfig(span, degree))
            assert np.allclose(smoothed.mean_abs_error, y, atol=1e-9)


def test_loess_matches_independent_oracle():
    rng = random.Random(66)
    for _ in range(10):
        n = rng.randint(8, 40)
        x = sorted(rng.uniform(0, 50) for _ in range(n))
        while len(set(x)) != n:  # pragma: no cover
            x = sorted(rng.uniform(0, 50) for _ in range(n))
        y = [0.5 * math.exp(-xi / 20.0) + rng.gauss(0, 0.05) for xi in x]
        span = rng.choice((0.4, 0.6, 0.75, 1.0))
        degree = rng.choice((1, 2))
        mine = dynamics.loess_fit(_curve(x, y), dynamics.LoessConfig(span, degree))
        oracle = _oracle_loess(x, y, span, degree)
        assert np.allclose(mine.mean_abs_error, oracle, atol=1e-9)


def test_loess_commutes_with_y_affine_transform():
    rng = random.Random(67)
    x = sorted(rng.uniform(0, 10) for _ in range(20))
    y = [rng.random() for _ in range(20)]
    cfg = dynamics.LoessConfig(0.6, 2)
    base = dynamics.loess_fit(_curve(x, y), cfg).mean_abs_error
    shifted = dynamics.loess_fit(_curve(x, [3.0 * v - 1.0 for v in y]), cfg)
    assert np.allclose(shifted.mean_abs_error, 3.0 * base - 1.0, atol=1e-9)


def test_loess_insufficient_points():
    with pytest.raises(InsufficientPoints):
        dynamics.loess_fit(_curve([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
                           dynamics.LoessConfig(1.0, 2))


def test_milestone_linear_interpolation():
    curve = _curve([0.0, 10.0], [0.5, 0.1])
    milestone = dynamics.reduction_milestone(curve, 0.5)
    assert milestone.x_at_fraction == pytest.approx(5.0, abs=1e-12)


def test_milestone_monotone_in_fraction():
    rng = random.Random(68)
    x = list(range(30))
    y = sorted((0.1 + 0.4 * rng.random() for _ in range(30)), reverse=True)
    curve = _curve(x, y)
    xs = [dynamics.reduction_milestone(curve, f).x_at_fraction
          for f in (0.1, 0.3, 0.5, 0.65, 0.9, 1.0)]
    assert xs == sorted(xs)
    assert curve.x[0] <= xs[0] and xs[-1] <= curve.x[-1]


def test_milestone_no_reduction():
    with pytest.raises(NoReduction):
        dynamics.reduction_milestone(_curve([0.0, 1.0], [0.3, 0.3]), 0.9)
    with pytest.raises(NoReduction):
        dynamics.reduction_milestone(_curve([0.0, 1.0], [0.3, 0.5]), 0.9)


def test_milestone_total_is_taken_from_the_minimum():
    # dips to 0.1 then rises to 0.2: the whole reduction is reached at the dip
    curve = _curve([0.0, 1.0, 2.0], [0.5, 0.1, 0.2])
    assert dynamics.reduction_milestone(curve, 1.0).x_at_fraction == pytest.approx(1.0)


def test_late_trade_forecasts_single_post_cutoff_trade():
    open_ms = BASE_MS
    finding = make_finding("F1", open_ms=open_ms)
    trades = [
        make_trade("F1", ts=open_ms + 2 * HOUR_MS, price=0.6, seq=0),
        make_trade("F1", ts=open_ms + 200 * HOUR_MS, price=0.72, seq=1),
    ]
    ds = make_dataset([finding], trades=trades)
    final, alt = dynamics.late_trade_forecasts(ds, cutoff_hours=168.0)["F1"]
    assert final == 0.72
    assert alt == pytest.approx(0.72)


def test_late_trade_forecasts_weighted_mean():
    open_ms = BASE_MS
    finding = make_finding("F1", open_ms=open_ms)  # closes at 336h
    trades = [
        make_trade("F1", ts=open_ms + 1 * HOUR_MS, price=0.5, seq=0),
        make_trade("F1", ts=open_ms + 210 * HOUR_MS, price=0.6, seq=1),
        make_trade("F1", ts=open_ms + 294 * HOUR_MS, price=0.8, seq=2),
    ]
    ds = make_dataset([finding], trades=trades)
    final, alt = dynamics.late_trade_forecasts(ds, cutoff_hours=168.0)["F1"]
    # weights grow linearly on (168h, 336h]: 42/168 and 126/168
    expected = (42.0 * 0.6 + 126.0 * 0.8) / (42.0 + 126.0)
    assert final == 0.8
    assert alt == pytest.approx(expected, abs=1e-12)


def test_late_trade_forecasts_no_post_cutoff_keeps_final():
    finding = make_finding("F1")
    trades = [make_trade("F1", ts=BASE_MS + 5 * HOUR_MS, price=0.65)]
    ds = make_dataset([finding], trades=trades)
    final, alt = dynamics.late_trade_forecasts(ds, cutoff_hours=168.0)["F1"]
    assert final == alt == 0.65


def test_late_trade_smoothing_all_equal_is_zero():
    f1, t1 = priced_market("F1", [0.7] * 4, outcome=1)
    f2, t2 = priced_market("F2", [0.4] * 4, outcome=0)
    ds = make_dataset([f1, f2], trades=t1 + t2)
    result = dynamics.late_trade_smoothing(ds, cutoff_hours=1.5)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_write_curves(tmp_path, synth_ds):
    raw = dynamics.mean_error_curve(synth_ds, dynamics.AXIS_HOURS)
    smoothed = dynamics.loess_fit(raw, dynamics.LoessConfig())
    path = tmp_path / "curve.csv"
    dynamics.write_curves(raw, smoothed, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,mean_abs_error,smoothed,n_contributing"
    assert len(lines) == len(raw.x) + 1


def test_mean_error_curve_rejects_an_unknown_axis_without_trades():
    untraded = make_dataset([make_finding("F1"), make_finding("F2")])
    with pytest.raises(ValueError, match="unknown axis 'bogus'"):
        dynamics.mean_error_curve(untraded, "bogus")
