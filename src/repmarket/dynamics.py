"""Market convergence analysis: error curves over trades and time.

Per-market absolute-error series are aligned on a common grid (ordinal trade
number or hours since market open), averaged across markets, smoothed with
locally weighted regression (tricube kernel), and reduced to error-reduction
milestones. Also checks whether time-weighted smoothing of late trades
improves on the final price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, MS_PER_HOUR, closed_trades, write_csv
from .errors import EmptyMarket, InsufficientPoints, NoReduction
from . import stats

AXIS_TRADES = "trade_index"
AXIS_HOURS = "hours_since_open"

# error of a market before any trade: distance of the 0.5 starting price
# from a binary outcome
PRE_MARKET_ERROR = 0.5


@dataclass
class ErrorCurve:
    axis: str
    x: np.ndarray
    mean_abs_error: np.ndarray
    n_contributing: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.mean_abs_error = np.asarray(self.mean_abs_error, dtype=float)
        self.n_contributing = np.asarray(self.n_contributing, dtype=int)
        if len(self.x) != len(self.mean_abs_error) or len(self.x) != len(self.n_contributing):
            raise ValueError("curve arrays must have equal length")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("curve x values must be strictly increasing")


@dataclass(frozen=True)
class LoessConfig:
    span: float = 0.75
    degree: int = 2

    def __post_init__(self):
        if not 0.0 < self.span <= 1.0:
            raise ValueError(f"span must be in (0, 1], got {self.span}")
        if self.degree not in (1, 2):
            raise ValueError(f"degree must be 1 or 2, got {self.degree}")


@dataclass(frozen=True)
class Milestone:
    fraction_of_total_reduction: float
    x_at_fraction: float


def _check_axis(axis: str) -> None:
    if axis not in (AXIS_TRADES, AXIS_HOURS):
        raise ValueError(f"unknown axis {axis!r}")


def error_series(ds: Dataset, finding_id: str, axis: str = AXIS_TRADES,
                 ) -> list[tuple[float, float]]:
    """(x, |outcome - price|) after each trade of one market up to its close,
    the window `aggregate.market_final_price` takes the final price from."""
    _check_axis(axis)
    finding = ds.finding(finding_id)
    trades = closed_trades(ds, finding)
    if not trades:
        raise EmptyMarket(finding_id)
    series = []
    for k, t in enumerate(trades, start=1):
        if axis == AXIS_TRADES:
            x = float(k)
        else:
            x = (t.timestamp - finding.market_open) / MS_PER_HOUR
        series.append((x, abs(finding.outcome - t.post_trade_price)))
    return series


def mean_error_curve(ds: Dataset, axis: str = AXIS_TRADES,
                     grid=None) -> ErrorCurve:
    """Mean absolute error across all markets at each grid point.

    At grid point x a market contributes the error of its latest trade at or
    before x, or the pre-market error 0.5 if it has not traded yet; markets
    exhausted before x carry their final error. n_contributing counts the
    markets whose value comes from an actual trade.
    """
    _check_axis(axis)
    per_market = []
    for fid in ds.finding_ids():
        try:
            per_market.append(error_series(ds, fid, axis))
        except EmptyMarket:
            per_market.append([])
    if grid is None:
        if axis == AXIS_TRADES:
            last = [s[-1][0] for s in per_market if s]
            top = max(last) if last else 0.0
            grid = np.arange(0.0, math.floor(top) + 1.0)
        else:
            # hour grid spans the union of market durations
            durations = [(f.market_close - f.market_open) / MS_PER_HOUR
                         for f in ds.findings]
            top = max(durations) if durations else 0.0
            grid = np.arange(0.0, math.ceil(top) + 1.0)
    grid = np.asarray(sorted(grid), dtype=float)

    # one column per market; each grid row is summed in market order
    values = np.full((len(grid), len(per_market)), PRE_MARKET_ERROR)
    n_contrib = np.zeros(len(grid), dtype=int)
    for mi, series in enumerate(per_market):
        if not series:
            continue
        xs, errs = np.array(series).T
        n_traded = np.searchsorted(xs, grid, side="right")
        traded = n_traded > 0
        values[traded, mi] = errs[n_traded[traded] - 1]
        n_contrib += traded
    mean_err = values.mean(axis=1) if per_market else np.zeros(len(grid))
    return ErrorCurve(axis, grid, mean_err, n_contrib)


def _wls_poly_at(dx: np.ndarray, y: np.ndarray, w: np.ndarray, degree: int) -> float:
    """Weighted least-squares polynomial in dx, evaluated at dx = 0."""
    sw = np.sqrt(w)
    design = np.vander(dx, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    return float(coef[0])


def loess_fit(curve: ErrorCurve, cfg: LoessConfig = LoessConfig()) -> ErrorCurve:
    """Locally weighted regression of the curve onto itself.

    Each point is re-estimated from its nearest span-fraction of points with
    tricube weights on distance scaled by the window radius. Deterministic.
    """
    x, y = curve.x, curve.mean_abs_error
    n = len(x)
    if n < cfg.degree + 2:
        raise InsufficientPoints(
            f"need at least {cfg.degree + 2} points, got {n}")
    # the farthest neighbour gets tricube weight zero, so keep one extra
    k = max(int(math.ceil(cfg.span * n)), cfg.degree + 2)
    k = min(k, n)
    smoothed = np.empty(n)
    for i in range(n):
        d = np.abs(x - x[i])
        idx = np.argsort(d, kind="stable")[:k]
        radius = d[idx[-1]]
        scaled = d[idx] / radius if radius > 0 else np.zeros(k)
        w = (1.0 - np.clip(scaled, 0.0, 1.0) ** 3) ** 3
        smoothed[i] = _wls_poly_at(x[idx] - x[i], y[idx], w, cfg.degree)
    return ErrorCurve(curve.axis, x.copy(), smoothed, curve.n_contributing.copy())


def reduction_milestone(curve: ErrorCurve, fraction: float,
                        total_rule: str = "min") -> Milestone:
    """Smallest x at which `fraction` of the total error reduction is reached.

    Total reduction is first value minus curve minimum ("min", default,
    robust to end-of-market fluctuation) or minus final value ("final").
    Crossings are located by linear interpolation between grid points.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    y = curve.mean_abs_error
    if len(y) == 0:
        raise NoReduction("empty curve")
    first = y[0]
    if total_rule == "min":
        floor = float(np.min(y))
    elif total_rule == "final":
        floor = float(y[-1])
    else:
        raise ValueError(f"total_rule must be 'min' or 'final', got {total_rule!r}")
    total = first - floor
    if total <= 0.0:
        raise NoReduction("curve does not decrease")
    # clamp: rounding must not push the target below the reachable floor
    target = max(first - fraction * total, floor)
    for i, yi in enumerate(y):
        if yi <= target:
            if i == 0:
                return Milestone(fraction, float(curve.x[0]))
            x0, x1 = curve.x[i - 1], curve.x[i]
            y0, y1 = y[i - 1], y[i]
            x_at = x0 + (y0 - target) / (y0 - y1) * (x1 - x0)
            return Milestone(fraction, float(x_at))
    raise NoReduction(f"target level {target} never reached")  # pragma: no cover


def late_trade_forecasts(ds: Dataset, cutoff_hours: float = 168.0,
                         ) -> dict[str, tuple[float, float]]:
    """(final price, time-weighted late forecast) per nonempty market.

    The alternative forecast is the weighted mean of trade prices after the
    cutoff, with weights growing linearly from the cutoff to market close;
    markets without post-cutoff trades keep their final price.
    """
    out = {}
    for f in ds.findings:
        trades = closed_trades(ds, f)
        if not trades:
            continue
        final_price = trades[-1].post_trade_price
        cutoff_ms = f.market_open + cutoff_hours * MS_PER_HOUR
        post = [t for t in trades if t.timestamp > cutoff_ms]
        span = f.market_close - cutoff_ms
        if post and span > 0:
            weights = [(t.timestamp - cutoff_ms) / span for t in post]
            total = sum(weights)
            # anchored at the final price so identical prices stay exact
            alt = (final_price
                   + sum(w * (t.post_trade_price - final_price)
                         for w, t in zip(weights, post)) / total
                   if total > 0 else final_price)
        else:
            alt = final_price
        out[f.finding_id] = (final_price, alt)
    return out


def late_trade_smoothing(ds: Dataset, cutoff_hours: float = 168.0,
                         ) -> stats.TestResult:
    """Does time-weighted smoothing of post-cutoff trades beat the final price?

    Paired t-test of final-price absolute errors minus smoothed absolute
    errors, so positive t means smoothing helps.
    """
    forecasts = late_trade_forecasts(ds, cutoff_hours)
    final_errors = []
    smoothed_errors = []
    for fid, (final_price, alt) in forecasts.items():
        outcome = ds.finding(fid).outcome
        final_errors.append(abs(outcome - final_price))
        smoothed_errors.append(abs(outcome - alt))
    return stats.paired_t(final_errors, smoothed_errors)


def write_curves(raw: ErrorCurve, smoothed: ErrorCurve, path: str | Path) -> None:
    """Emit (x, raw mean error, smoothed, contributing markets) rows."""
    if raw.axis != smoothed.axis or len(raw.x) != len(smoothed.x):
        raise ValueError("raw and smoothed curves must share a grid")
    write_csv(path, ["x", "mean_abs_error", "smoothed", "n_contributing"],
              zip(raw.x.tolist(), raw.mean_abs_error.tolist(),
                  smoothed.mean_abs_error.tolist(), raw.n_contributing.tolist()))
