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

from .aggregate import _final_prices
from .dataset import Dataset, MS_PER_HOUR, _by_trade, at_or_before, write_columns
from .errors import EmptyMarket, GridTooLarge, InsufficientPoints, NoReduction, OutOfRange
from . import stats

AXIS_TRADES = "trade_index"
AXIS_HOURS = "hours_since_open"

# error of a market before any trade: distance of the 0.5 starting price
# from a binary outcome
PRE_MARKET_ERROR = 0.5

# the most grid points a curve is computed on: its (grid x markets) matrices
# grow with the grid, and LOESS with its square, while the hours grid spans
# the longest market window at one point an hour
MAX_GRID_POINTS = 10_000


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
            raise OutOfRange(f"span must be in (0, 1], got {self.span}")
        if self.degree not in (1, 2):
            raise OutOfRange(f"degree must be 1 or 2, got {self.degree}")


@dataclass(frozen=True)
class Milestone:
    fraction_of_total_reduction: float
    x_at_fraction: float


def _check_axis(axis: str) -> None:
    if axis not in (AXIS_TRADES, AXIS_HOURS):
        raise ValueError(f"unknown axis {axis!r}")


def _closed_errors(ds: Dataset, axis: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, |outcome - price|, market) of each trade in the markets' closed
    windows, in trade order; `market` is the index into ``ds.finding_ids()``."""
    trades, markets = ds.trade_columns, ds.market_columns
    rows = np.flatnonzero(ds.closed)
    market = trades.finding[rows]
    rank = rows - np.array(trades.bounds, dtype=np.int64)[market]  # 0 at a market's first trade
    if axis == AXIS_TRADES:
        x = rank + 1.0
    else:
        # exact as the Python ints' quotient: an int64 column's differences
        # stay below 2**53, and a column past that holds Python ints
        x = ((trades.timestamp[rows] - markets["market_open"][market]) / MS_PER_HOUR).astype(float)
    return x, np.abs(markets["outcome"][market] - trades.price[rows]), market


def error_series(ds: Dataset, finding_id: str, axis: str = AXIS_TRADES,
                 ) -> list[tuple[float, float]]:
    """(x, |outcome - price|) after each trade of one market up to its close,
    the window `aggregate.market_final_price` takes the final price from."""
    _check_axis(axis)
    x, errors, market = _closed_errors(ds, axis)
    mine = market == ds.group(finding_id)
    if not mine.any():
        raise EmptyMarket(finding_id)
    return list(zip(x[mine].tolist(), errors[mine].tolist()))


def mean_error_curve(ds: Dataset, axis: str = AXIS_TRADES,
                     grid=None) -> ErrorCurve:
    """Mean absolute error across all markets at each grid point.

    At grid point x a market contributes the error of its latest trade at or
    before x, or the pre-market error 0.5 if it has not traded yet; markets
    exhausted before x carry their final error. n_contributing counts the
    markets whose value comes from an actual trade. A grid of more than
    MAX_GRID_POINTS points leaves the curve undefined (GridTooLarge).
    """
    _check_axis(axis)
    n_markets = len(ds.finding_ids())
    x, errors, market = _closed_errors(ds, axis)
    if grid is None:
        if axis == AXIS_TRADES:
            # x is the trade number: the longest closed window's is the largest
            top = x.max() if len(x) else 0.0
        else:
            # hour grid spans the union of market durations
            markets = ds.market_columns
            durations = (markets["market_close"] - markets["market_open"]) / MS_PER_HOUR
            top = math.ceil(durations.max()) if len(durations) else 0.0
        grid = range(int(top) + 1)  # 0, 1, ..., top: bounded before it is built
    if len(grid) > MAX_GRID_POINTS:
        raise GridTooLarge(f"the {axis} grid has {len(grid)} points, "
                           f"more than {MAX_GRID_POINTS}")
    grid = np.asarray(sorted(grid), dtype=float)

    # one column per market; each grid row is summed in market order. A trade
    # counts from the first grid point at or past its x, so it is placed
    # there, the last of a market's trades placed at one point winning, and a
    # running maximum carries each market's latest trade down the grid (a
    # market's trades come in the order of their x)
    at = np.searchsorted(grid, x, side="left")
    last = np.ones(len(x), dtype=bool)
    last[:-1] = (at[1:] != at[:-1]) | (market[1:] != market[:-1])
    placed = last & (at < len(grid))
    latest = np.full((len(grid), n_markets), -1)
    latest[at[placed], market[placed]] = np.flatnonzero(placed)
    np.maximum.accumulate(latest, axis=0, out=latest)
    # a market without a trade yet reads -1: the pre-market error
    values = np.append(errors, PRE_MARKET_ERROR)[latest]
    mean_err = values.mean(axis=1) if n_markets else np.zeros(len(grid))
    return ErrorCurve(axis, grid, mean_err, np.count_nonzero(latest >= 0, axis=1))


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
    # the weighted design matrix of one window: columns sw, dx*sw, dx*dx*sw
    design = np.empty((k, cfg.degree + 1))
    for i in range(n):
        d = np.abs(x - x[i])
        # the window's rows go to lstsq nearest first: their order moves the last bits
        idx = np.argsort(d, kind="stable")[:k]
        near = d[idx]
        radius = near[-1]
        scaled = near / radius if radius > 0 else np.zeros(k)  # in [0, 1]
        sw = np.sqrt((1.0 - scaled ** 3) ** 3)
        dx = x[idx] - x[i]
        design[:, 0] = sw
        np.multiply(dx, sw, out=design[:, 1])
        if cfg.degree == 2:
            np.multiply(dx * dx, sw, out=design[:, 2])
        # weighted least squares of a polynomial in dx, evaluated at dx = 0
        coef, *_ = np.linalg.lstsq(design, y[idx] * sw, rcond=None)
        smoothed[i] = coef[0]
    return ErrorCurve(curve.axis, x.copy(), smoothed, curve.n_contributing.copy())


def _total_reduction(y: np.ndarray) -> tuple[float, float]:
    """(floor, total reduction) of an error curve's values: the total is the
    first value minus the curve's minimum, the floor, which is robust to
    end-of-market fluctuation. A curve without a positive, finite total has
    no reduction."""
    if len(y) == 0:
        raise NoReduction("empty curve")
    floor = float(np.min(y))
    total = y[0] - floor
    if not 0.0 < total < math.inf:
        raise NoReduction("curve does not decrease")
    return floor, total


def reduction_milestone(curve: ErrorCurve, fraction: float) -> Milestone:
    """Smallest x at which `fraction` of the total error reduction is reached.

    Crossings are located by linear interpolation between grid points.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    x, y = curve.x, curve.mean_abs_error
    floor, total = _total_reduction(y)
    # clamp: rounding must not push the target below the reachable floor
    target = max(y[0] - fraction * total, floor)
    # the floor is on the curve, so some point is at or below the target
    i = int(np.argmax(y <= target))
    if i == 0:  # a fraction so small that y[0] - fraction * total rounds to y[0]
        return Milestone(fraction, float(x[0]))
    x_at = x[i - 1] + (y[i - 1] - target) / (y[i - 1] - y[i]) * (x[i] - x[i - 1])
    return Milestone(fraction, float(x_at))


def reduction_share(curve: ErrorCurve, x: float) -> float:
    """The share of the total error reduction reached at x, the curve read
    between grid points by linear interpolation."""
    y = curve.mean_abs_error
    _, total = _total_reduction(y)
    return float(y[0] - np.interp(x, curve.x, y)) / float(total)


def late_trade_forecasts(ds: Dataset, cutoff_hours: float = 168.0,
                         ) -> dict[str, tuple[float, float]]:
    """(final price, time-weighted late forecast) per nonempty market.

    The alternative forecast is the weighted mean of trade prices after the
    cutoff, with weights growing linearly from the cutoff to market close;
    markets without post-cutoff trades keep their final price.
    """
    trades = ds.trade_columns
    markets = ds.market_columns
    cutoffs = markets["market_open"] + cutoff_hours * MS_PER_HOUR
    spans = markets["market_close"] - cutoffs
    # the closed-window trades after the cutoff of the markets with a positive
    # span; an untraded market has none, so its NaN final price is not read
    rows = np.flatnonzero(ds.closed & ~at_or_before(ds, cutoffs) & (_by_trade(ds, spans) > 0))
    market = trades.finding[rows]
    final, _, traded = _final_prices(ds)
    # a timestamp column beyond int64 holds Python ints: its weights are objects
    weights = ((trades.timestamp[rows] - cutoffs[market]) / spans[market]).astype(float)
    total = stats.group_sums(weights, market, len(final))
    # anchored at the final price so identical prices stay exact
    moved = stats.group_sums(weights * (trades.price[rows] - final[market]), market, len(final))
    alt = final.copy()
    weighed = total > 0
    alt[weighed] += moved[weighed] / total[weighed]
    ids = ds.finding_ids()
    traded = np.flatnonzero(traded)
    return {ids[k]: (f, a) for k, f, a in zip(traded.tolist(), final[traded].tolist(),
                                              alt[traded].tolist())}


def late_trade_smoothing(ds: Dataset, cutoff_hours: float = 168.0,
                         ) -> stats.TestResult:
    """Does time-weighted smoothing of post-cutoff trades beat the final price?

    Paired t-test of final-price absolute errors minus smoothed absolute
    errors, so positive t means smoothing helps. The cutoff is a number of
    hours, finite and at least 0.
    """
    if not 0.0 <= cutoff_hours < math.inf:
        raise OutOfRange(f"cutoff must be finite and at least 0 hours, got {cutoff_hours}")
    forecasts = late_trade_forecasts(ds, cutoff_hours)
    outcome = dict(zip(ds.finding_ids(), ds.market_columns["outcome"].tolist()))
    return stats.paired_t([abs(outcome[fid] - final) for fid, (final, _) in forecasts.items()],
                          [abs(outcome[fid] - alt) for fid, (_, alt) in forecasts.items()])


def write_curves(raw: ErrorCurve | None, smoothed: ErrorCurve | None,
                 path: str | Path) -> None:
    """Emit (x, raw mean error, smoothed, contributing markets) rows. When the
    curve is undefined (None), remove any file at `path`, so that no earlier
    run's curve stands for this run's."""
    if raw is None:
        Path(path).unlink(missing_ok=True)
        return
    if raw.axis != smoothed.axis or len(raw.x) != len(smoothed.x):
        raise ValueError("raw and smoothed curves must share a grid")
    write_columns(path, ["x", "mean_abs_error", "smoothed", "n_contributing"],
                  [raw.x, raw.mean_abs_error, smoothed.mean_abs_error, raw.n_contributing])
