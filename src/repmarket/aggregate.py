"""Per-finding forecast aggregation: final market price and survey rules.

Survey rules: simple mean, median, simple voting (share of responses at or
above the binarization threshold), and a variance-weighted mean where each
forecaster's weight is the sample variance of their own responses across
all findings they forecast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

# trades_for stays bound here: code that reads or patches aggregate.trades_for relies on it
from .dataset import Dataset, closed_rows, survey_rows, trades_for, write_csv  # noqa: F401
from .errors import AllWeightsZero, EmptyMarket, NoSurveyResponses, OutOfRange, or_null
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


def market_final_price(ds: Dataset, finding_id: str) -> AggregateForecast:
    """Last post-trade price at or before market close."""
    rows = closed_rows(ds, ds.finding(finding_id))
    if rows.start == rows.stop:
        raise EmptyMarket(f"no trades at or before close for {finding_id!r}")
    return AggregateForecast(finding_id, METHOD_MARKET,
                             float(ds.trade_columns.price[rows.stop - 1]),
                             rows.stop - rows.start)


def _responses(ds: Dataset, finding_id: str) -> slice:
    """The rows of the finding's survey responses in ``ds.survey_columns``."""
    rows = survey_rows(ds, finding_id)
    if rows.start == rows.stop:
        raise NoSurveyResponses(finding_id)
    return rows


def _beliefs(ds: Dataset, finding_id: str) -> list[float]:
    return ds.survey_columns.belief[_responses(ds, finding_id)].tolist()


def survey_mean(ds: Dataset, finding_id: str) -> AggregateForecast:
    beliefs = _beliefs(ds, finding_id)
    return AggregateForecast(finding_id, METHOD_MEAN,
                             left_sum(beliefs) / len(beliefs), len(beliefs))


def survey_median(ds: Dataset, finding_id: str) -> AggregateForecast:
    beliefs = sorted(_beliefs(ds, finding_id))
    n = len(beliefs)
    mid = n // 2
    value = beliefs[mid] if n % 2 else (beliefs[mid - 1] + beliefs[mid]) / 2.0
    return AggregateForecast(finding_id, METHOD_MEDIAN, value, n)


def survey_voting(ds: Dataset, finding_id: str,
                  threshold: float = 0.5) -> AggregateForecast:
    """Share of responses voting for replication (belief >= threshold)."""
    beliefs = _beliefs(ds, finding_id)
    votes = sum(1 for b in beliefs if b >= threshold)
    return AggregateForecast(finding_id, METHOD_VOTING,
                             votes / len(beliefs), len(beliefs))


def forecaster_weights(ds: Dataset) -> list[ForecasterWeight]:
    """Sample variance (n-1 divisor) of each forecaster's beliefs, summed in
    load order.

    Forecasters with fewer than two responses get weight 0.
    """
    surveys = ds.survey_columns.in_load_order()
    beliefs: dict[str, list[float]] = {}
    for forecaster, belief in zip(surveys.forecaster.tolist(), surveys.belief.tolist()):
        beliefs.setdefault(forecaster, []).append(belief)
    return [ForecasterWeight(forecaster, mean_var(beliefs[forecaster])[1])
            for forecaster in sorted(beliefs)]


def survey_var_weighted(ds: Dataset, finding_id: str,
                        weights: dict[str, float]) -> AggregateForecast:
    """Variance-weighted mean of the finding's survey responses, with
    `weights` mapping forecaster id to weight (absent ids weigh 0)."""
    rows = _responses(ds, finding_id)
    surveys = ds.survey_columns
    w = [weights.get(forecaster, 0.0) for forecaster in surveys.forecaster[rows].tolist()]
    total_w = left_sum(w)
    if total_w <= 0.0:
        raise AllWeightsZero(
            f"every respondent of {finding_id!r} has zero weight")
    value = left_sum(wi * b for wi, b in zip(w, surveys.belief[rows].tolist())) / total_w
    return AggregateForecast(finding_id, METHOD_VAR_WEIGHTED, value, len(w))


def check_threshold(threshold: float) -> None:
    """Refuse a binarization threshold that is not a number in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise OutOfRange(f"threshold must be in [0, 1], got {threshold}")


def aggregate_all(ds: Dataset, methods=ALL_METHODS,
                  threshold: float = 0.5) -> list[AggregateForecast]:
    """One forecast per (finding, method), skipping findings a method cannot
    aggregate (empty market / no responses / all-zero weights)."""
    check_threshold(threshold)
    rules = {
        METHOD_MARKET: market_final_price,
        METHOD_MEAN: survey_mean,
        METHOD_MEDIAN: survey_median,
        METHOD_VOTING: partial(survey_voting, threshold=threshold),
    }
    if METHOD_VAR_WEIGHTED in methods:
        weights = {w.forecaster_id: w.weight for w in forecaster_weights(ds)}
        rules[METHOD_VAR_WEIGHTED] = partial(survey_var_weighted, weights=weights)
    if not set(methods) <= rules.keys():
        raise ValueError(f"unknown methods {sorted(set(methods) - rules.keys())}")
    forecasts = (or_null(rules[method], ds, finding.finding_id)
                 for finding in ds.findings for method in methods)
    return [f for f in forecasts if f is not None]


def write_aggregates(forecasts: list[AggregateForecast], path: str | Path) -> None:
    write_csv(path, ["finding_id", "method", "value", "n_inputs"],
              ([f.finding_id, f.method, f.value, f.n_inputs] for f in forecasts))
