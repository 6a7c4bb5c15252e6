"""Per-finding forecast aggregation: final market price and survey rules.

Survey rules: simple mean, median, simple voting (share of responses at or
above the binarization threshold), and a variance-weighted mean where each
forecaster's weight is the sample variance of their own responses across
all findings they forecast. The mean, the vote share (a mean of 0/1 votes)
and the variance-weighted mean are one rule, `_weighted`, each group's values
summed left to right. Unweighted, it divides by the group's count: a
left-to-right sum of n ones is exactly n and a sum of 0/1 votes is the exact
count, so no value changes.

Each rule reads every finding's group at once: a market's closed window in
the trades table (see ``Dataset.closed_ends``) and a finding's responses in
the surveys table, one entry a finding in the order of
``Dataset.finding_ids``. `aggregate_all` runs each method's rule once, and
each per-finding function reads its finding's entry of the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# trades_for stays bound here: code that reads or patches aggregate.trades_for relies on it
from .dataset import Dataset, closed_windows, trades_for, write_csv  # noqa: F401
from .errors import AllWeightsZero, EmptyMarket, NoSurveyResponses, OutOfRange
from .stats import left_sum, mean_var

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


# The rules. Each reads every group (see Dataset.group) and gives the value,
# the number of inputs and the mask of the groups it is defined for, one entry
# a group. In ``ds.survey_columns`` the rows of unknown findings come before
# the first group.

def _final_prices(ds: Dataset) -> tuple:
    """The last post-trade price of each market's closed window."""
    start, end = closed_windows(ds)
    n = end - start
    traded = n > 0
    price = np.full(len(n), np.nan)
    price[traded] = ds.trade_columns.price[end[traded] - 1]
    return price, n, traded


def _median(ds: Dataset) -> tuple:
    bounds = ds.survey_columns.bounds
    n = np.diff(bounds)
    beliefs = ds.survey_columns.belief
    # each group's beliefs in a stable sort, the groups in place
    ordered = beliefs[np.lexsort((beliefs, ds.survey_columns.finding))]
    answered = n > 0
    mid = (np.array(bounds[:-1], dtype=np.int64) + n // 2)[answered]
    median = np.full(len(n), np.nan)
    median[answered] = np.where(n[answered] % 2 == 1, ordered[mid],
                                (ordered[mid - 1] + ordered[mid]) / 2.0)
    return median, n, answered


def _weighted(ds: Dataset, values: np.ndarray, weights: dict[str, float] | None = None) -> tuple:
    """Each group's mean of `values` (one a survey row), weighted by `weights`
    (forecaster id to weight, absent ids weigh 0) or else each weighing 1."""
    bounds = ds.survey_columns.bounds
    n = np.diff(bounds)
    total = n
    if weights is not None:
        w = np.array([weights.get(f, 0.0) for f in ds.survey_columns.forecaster.tolist()], float)
        values = w * values
        total = _left_sums(w.tolist(), bounds)
    defined = ~(total <= 0)  # a group without responses weighs 0 too
    return np.divide(_left_sums(values.tolist(), bounds), total, out=np.full(len(n), np.nan),
                     where=defined), n, defined


def _one(method: str, result: tuple, ds: Dataset, finding_id: str) -> AggregateForecast:
    """The finding's entry of a rule's (value, n, defined)."""
    k = ds.group(finding_id)
    value, n, defined = result
    if not defined[k]:
        if n[k]:
            raise AllWeightsZero(f"every respondent of {finding_id!r} has zero weight")
        if method == METHOD_MARKET:
            raise EmptyMarket(f"no trades at or before close for {finding_id!r}")
        raise NoSurveyResponses(finding_id)
    return AggregateForecast(finding_id, method, float(value[k]), int(n[k]))


def market_final_price(ds: Dataset, finding_id: str) -> AggregateForecast:
    """Last post-trade price at or before market close."""
    return _one(METHOD_MARKET, _final_prices(ds), ds, finding_id)


def survey_mean(ds: Dataset, finding_id: str) -> AggregateForecast:
    return _one(METHOD_MEAN, _weighted(ds, ds.survey_columns.belief), ds, finding_id)


def survey_median(ds: Dataset, finding_id: str) -> AggregateForecast:
    return _one(METHOD_MEDIAN, _median(ds), ds, finding_id)


def survey_voting(ds: Dataset, finding_id: str,
                  threshold: float = 0.5) -> AggregateForecast:
    """Share of responses voting for replication (belief >= threshold)."""
    check_threshold(threshold)
    return _one(METHOD_VOTING, _weighted(ds, ds.survey_columns.belief >= threshold), ds,
                finding_id)


def _weights(ds: Dataset) -> dict[str, float]:
    """Each forecaster's weight: the sample variance of their beliefs in load
    order (`stats.mean_var`)."""
    surveys = ds.survey_columns.in_load_order()
    beliefs: dict[str, list[float]] = {}
    for forecaster, belief in zip(surveys.forecaster.tolist(), surveys.belief.tolist()):
        beliefs.setdefault(forecaster, []).append(belief)
    return {f: mean_var(b)[1] for f, b in beliefs.items()}


def forecaster_weights(ds: Dataset) -> list[ForecasterWeight]:
    """Sample variance (n-1 divisor) of each forecaster's beliefs, summed in
    load order.

    Forecasters with fewer than two responses get weight 0.
    """
    return [ForecasterWeight(f, w) for f, w in sorted(_weights(ds).items())]


def survey_var_weighted(ds: Dataset, finding_id: str,
                        weights: dict[str, float]) -> AggregateForecast:
    """Variance-weighted mean of the finding's survey responses, with
    `weights` mapping forecaster id to weight (absent ids weigh 0)."""
    return _one(METHOD_VAR_WEIGHTED, _weighted(ds, ds.survey_columns.belief, weights), ds,
                finding_id)


def check_threshold(threshold: float) -> None:
    """Refuse a binarization threshold that is not a number in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRange(f"threshold must be in [0, 1], got {threshold}")


def aggregate_all(ds: Dataset, methods=ALL_METHODS,
                  threshold: float = 0.5) -> list[AggregateForecast]:
    """One forecast per (finding id, method), each method once, where it first occurs,
    skipping findings a method cannot aggregate (empty market / no responses / all-zero
    weights): exactly the findings whose per-finding function raises."""
    check_threshold(threshold)
    methods = tuple(dict.fromkeys(methods))
    rules = {
        METHOD_MARKET: _final_prices,
        METHOD_MEAN: lambda ds: _weighted(ds, ds.survey_columns.belief),
        METHOD_MEDIAN: _median,
        METHOD_VOTING: lambda ds: _weighted(ds, ds.survey_columns.belief >= threshold),
        METHOD_VAR_WEIGHTED: lambda ds: _weighted(ds, ds.survey_columns.belief, _weights(ds)),
    }
    if not set(methods) <= rules.keys():
        raise ValueError(f"unknown methods {sorted(set(methods) - rules.keys())}")
    columns = [(method, *(a.tolist() for a in rules[method](ds))) for method in methods]
    return [AggregateForecast(fid, method, value[k], n[k])
            for k, fid in enumerate(ds.finding_ids())
            for method, value, n, defined in columns if defined[k]]


def write_aggregates(forecasts: list[AggregateForecast], path: str | Path) -> None:
    write_csv(path, ["finding_id", "method", "value", "n_inputs"],
              ([f.finding_id, f.method, f.value, f.n_inputs] for f in forecasts))
