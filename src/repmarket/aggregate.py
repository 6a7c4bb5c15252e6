"""Per-finding forecast aggregation: final market price and survey rules.

Survey rules: simple mean, median, simple voting (share of responses at or
above the binarization threshold), and a variance-weighted mean where each
forecaster's weight is the sample variance of their own responses across
all findings they forecast.

Each rule reads the groups of a run of findings at once: a market's closed
window in the trades table (see ``Dataset.closed_ends``) and a finding's
responses in the surveys table. `aggregate_all` reads every group in one
pass a method, and each per-finding function reads one group through the
same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

# trades_for stays bound here: code that reads or patches aggregate.trades_for relies on it
from .dataset import Dataset, closed_windows, trades_for, write_csv  # noqa: F401
from .errors import AllWeightsZero, EmptyMarket, NoSurveyResponses, OutOfRange
from .stats import left_sum

METHOD_MARKET = "market_final_price"
METHOD_MEAN = "survey_mean"
METHOD_MEDIAN = "survey_median"
METHOD_VOTING = "survey_voting"
METHOD_VAR_WEIGHTED = "survey_var_weighted"

SURVEY_METHODS = (METHOD_MEAN, METHOD_MEDIAN, METHOD_VOTING, METHOD_VAR_WEIGHTED)
ALL_METHODS = (METHOD_MARKET,) + SURVEY_METHODS


@dataclass(frozen=True)
class AggregateForecast:
    finding_id: str
    method: str
    value: float
    n_inputs: int


@dataclass(frozen=True)
class ForecasterWeight:
    forecaster_id: str
    weight: float


def _left_sums(values: list, bounds: list[int]) -> np.ndarray:
    """The sum of each group values[bounds[i]:bounds[i + 1]], added left to
    right as `stats.left_sum` adds."""
    return np.array([left_sum(values[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=float)


def _quotient(numerator: np.ndarray, denominator: np.ndarray, defined: np.ndarray) -> np.ndarray:
    """numerator / denominator where defined, NaN elsewhere."""
    return np.divide(numerator, denominator, out=np.full(len(defined), np.nan), where=defined)


# The rules. Each reads a run of groups (a slice of finding indexes, see
# Dataset.group) and gives the value, the number of inputs and the mask of the
# groups it is defined for, one entry a group.

def _final_prices(ds: Dataset, groups: slice) -> tuple:
    """The last post-trade price of each market's closed window."""
    start, end = closed_windows(ds, groups)
    n = end - start
    traded = n > 0
    price = np.full(len(n), np.nan)
    price[traded] = ds.trade_columns.price[end[traded] - 1]
    return price, n, traded


def _responses(ds: Dataset, groups: slice) -> tuple[slice, list[int]]:
    """The rows of the groups' survey responses in ``ds.survey_columns``, and
    the bounds of each group's rows among them."""
    bounds = ds.survey_columns.bounds[groups.start:groups.stop + 1]
    return slice(bounds[0], bounds[-1]), [b - bounds[0] for b in bounds]


def _mean(ds: Dataset, groups: slice) -> tuple:
    rows, bounds = _responses(ds, groups)
    n = np.diff(bounds)
    answered = n > 0
    return _quotient(_left_sums(ds.survey_columns.belief[rows].tolist(), bounds), n,
                     answered), n, answered


def _median(ds: Dataset, groups: slice) -> tuple:
    rows, bounds = _responses(ds, groups)
    surveys = ds.survey_columns
    # each group's beliefs in a stable sort, the groups in place
    beliefs = surveys.belief[rows]
    ordered = beliefs[np.lexsort((beliefs, surveys.finding[rows]))]
    n = np.diff(bounds)
    answered = n > 0
    mid = (np.array(bounds[:-1], dtype=np.int64) + n // 2)[answered]
    median = np.full(len(n), np.nan)
    median[answered] = np.where(n[answered] % 2 == 1, ordered[mid],
                                (ordered[mid - 1] + ordered[mid]) / 2.0)
    return median, n, answered


def _voting(ds: Dataset, groups: slice, threshold: float) -> tuple:
    """The share of each group's responses at or above the threshold."""
    rows, bounds = _responses(ds, groups)
    votes = np.concatenate(([0], np.cumsum(ds.survey_columns.belief[rows] >= threshold)))
    n = np.diff(bounds)
    answered = n > 0
    return _quotient(np.diff(votes[bounds]), n, answered), n, answered


def _var_weighted(ds: Dataset, groups: slice, weight_of) -> tuple:
    """The weighted mean of each group's beliefs, with `weight_of` giving the
    weights of a slice of survey rows."""
    rows, bounds = _responses(ds, groups)
    w = weight_of(rows)
    total = _left_sums(w.tolist(), bounds)
    weighted = ~(total <= 0.0)  # a group without responses weighs 0 too
    return (_quotient(_left_sums((w * ds.survey_columns.belief[rows]).tolist(), bounds), total,
                      weighted), np.diff(bounds), weighted)


def _one(method: str, rule, ds: Dataset, finding_id: str) -> AggregateForecast:
    """The rule's forecast of one finding: its group read alone."""
    k = ds.group(finding_id)
    value, n, defined = rule(ds, slice(k, k + 1))
    if not defined[0]:
        if n[0]:
            raise AllWeightsZero(f"every respondent of {finding_id!r} has zero weight")
        if method == METHOD_MARKET:
            raise EmptyMarket(f"no trades at or before close for {finding_id!r}")
        raise NoSurveyResponses(finding_id)
    return AggregateForecast(finding_id, method, float(value[0]), int(n[0]))


def market_final_price(ds: Dataset, finding_id: str) -> AggregateForecast:
    """Last post-trade price at or before market close."""
    return _one(METHOD_MARKET, _final_prices, ds, finding_id)


def survey_mean(ds: Dataset, finding_id: str) -> AggregateForecast:
    return _one(METHOD_MEAN, _mean, ds, finding_id)


def survey_median(ds: Dataset, finding_id: str) -> AggregateForecast:
    return _one(METHOD_MEDIAN, _median, ds, finding_id)


def survey_voting(ds: Dataset, finding_id: str,
                  threshold: float = 0.5) -> AggregateForecast:
    """Share of responses voting for replication (belief >= threshold)."""
    return _one(METHOD_VOTING, partial(_voting, threshold=threshold), ds, finding_id)


def _variances(ds: Dataset) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """The forecasters, numbered in the order they first occur in
    ``ds.survey_columns``, the number of each row's forecaster, and the sample
    variance (n-1 divisor) of each forecaster's beliefs, summed in load order:
    0 for fewer than two."""
    surveys = ds.survey_columns
    forecasters = surveys.forecaster.tolist()
    codes = {f: k for k, f in enumerate(dict.fromkeys(forecasters))}
    who = np.fromiter(map(codes.__getitem__, forecasters), dtype=np.int64, count=len(forecasters))
    # one group a forecaster, each forecaster's beliefs in load order
    order = np.lexsort((surveys.load_index, who))
    beliefs = surveys.belief[order]
    bounds = np.searchsorted(who[order], np.arange(len(codes) + 1)).tolist()
    n = np.diff(bounds)
    mean = _left_sums(beliefs.tolist(), bounds) / n
    # Python's float power, as stats.mean_var squares: numpy squares by
    # multiplying, which rounds some squares differently
    squares = [d ** 2 for d in (beliefs - np.repeat(mean, n)).tolist()]
    return codes, who, np.where(n > 1, _left_sums(squares, bounds) / np.maximum(n - 1, 1), 0.0)


def forecaster_weights(ds: Dataset) -> list[ForecasterWeight]:
    """Sample variance (n-1 divisor) of each forecaster's beliefs, summed in
    load order.

    Forecasters with fewer than two responses get weight 0.
    """
    codes, _, variances = _variances(ds)
    weight = dict(zip(codes, variances.tolist()))
    return [ForecasterWeight(forecaster, weight[forecaster]) for forecaster in sorted(weight)]


def survey_var_weighted(ds: Dataset, finding_id: str,
                        weights: dict[str, float]) -> AggregateForecast:
    """Variance-weighted mean of the finding's survey responses, with
    `weights` mapping forecaster id to weight (absent ids weigh 0)."""
    forecaster = ds.survey_columns.forecaster

    def weight_of(rows: slice) -> np.ndarray:
        return np.array([weights.get(f, 0.0) for f in forecaster[rows].tolist()], dtype=float)

    return _one(METHOD_VAR_WEIGHTED, partial(_var_weighted, weight_of=weight_of), ds, finding_id)


def check_threshold(threshold: float) -> None:
    """Refuse a binarization threshold that is not a number in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRange(f"threshold must be in [0, 1], got {threshold}")


def aggregate_all(ds: Dataset, methods=ALL_METHODS,
                  threshold: float = 0.5) -> list[AggregateForecast]:
    """One forecast per (finding id, method), skipping findings a method cannot
    aggregate (empty market / no responses / all-zero weights): exactly the
    findings whose per-finding function raises."""
    check_threshold(threshold)
    rules = {
        METHOD_MARKET: _final_prices,
        METHOD_MEAN: _mean,
        METHOD_MEDIAN: _median,
        METHOD_VOTING: partial(_voting, threshold=threshold),
    }
    if METHOD_VAR_WEIGHTED in methods:
        # each row weighs what forecaster_weights gives its forecaster
        _, who, variances = _variances(ds)
        rules[METHOD_VAR_WEIGHTED] = partial(_var_weighted, weight_of=variances[who].__getitem__)
    if not set(methods) <= rules.keys():
        raise ValueError(f"unknown methods {sorted(set(methods) - rules.keys())}")
    fids = ds.finding_ids()
    # each method read over every group at once
    columns = [(method, *(a.tolist() for a in rules[method](ds, slice(0, len(fids)))))
               for method in methods]
    return [AggregateForecast(fid, method, value[k], n[k])
            for k, fid in enumerate(fids)
            for method, value, n, defined in columns if defined[k]]


def write_aggregates(forecasts: list[AggregateForecast], path: str | Path) -> None:
    write_csv(path, ["finding_id", "method", "value", "n_inputs"],
              ([f.finding_id, f.method, f.value, f.n_inputs] for f in forecasts))
