"""Per-finding forecast aggregation: final market price and survey rules.

Survey rules: simple mean, median, simple voting (share of responses at or
above the binarization threshold), and a variance-weighted mean where each
forecaster's weight is the sample variance of their own responses across
all findings they forecast. The mean, the vote share (a mean of 0/1 votes)
and the variance-weighted mean are one rule, `_weighted`, each group's values
summed left to right (`stats.group_sums`). Unweighted, it divides by the
group's count: a left-to-right sum of n ones is exactly n and a sum of 0/1
votes is the exact count, so no value changes.

Each rule reads every finding's group at once: a market's closed window in
the trades table (see ``Dataset.closed_ends``) and a finding's responses in
the surveys table, one entry a finding in the order of
``Dataset.finding_ids``. `aggregate_all` runs each method's rule once and
keeps the rules' value, count and defined columns as one `ForecastTable`,
one row a defined (finding, method) pair; the `AggregateForecast` records it
returns are a view of that table, built on first use. Each per-finding
function reads its finding's entry of the same rule.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

# trades_for stays bound here: code that reads or patches aggregate.trades_for relies on it
from .dataset import (Dataset, _distinct, _Records, closed_windows, trades_for,  # noqa: F401
                      write_csv)
from .errors import AllWeightsZero, EmptyMarket, NoSurveyResponses, OutOfRange
from .stats import group_sums

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


class PairTable:
    """What the forecast and score tables share. A table holds records of
    RECORD as columns, one row a record in the records' order: row r is
    keyed by the finding id finding_ids[finding[r]] and the method
    methods[method[r]], and each further field of RECORD is the column of
    the same name. A pair (finding, method) is read as its first row, as
    `evaluate.rows_by_method` reads records. `dataset._Records` is the view
    that builds the records on first use."""

    def __len__(self) -> int:
        return len(self.finding)

    def in_load_order(self):
        """The rows in the records' order: as they are."""
        return self

    def values(self) -> list[list]:
        """Each row's value of each field of its record, one list a field."""
        return [np.array(self.finding_ids, dtype=object)[self.finding].tolist(),
                np.array(self.methods, dtype=object)[self.method].tolist(),
                *(getattr(self, f.name).tolist() for f in fields(self.RECORD)[2:])]

    def records(self) -> list:
        return list(map(self.RECORD, *self.values()))

    @cached_property
    def _rows(self) -> dict[str, np.ndarray]:
        pair = self.finding * len(self.methods) + self.method
        first = np.zeros(len(self), dtype=bool)
        first[np.unique(pair, return_index=True)[1]] = True
        return {m: np.flatnonzero(first & (self.method == j)) for j, m in enumerate(self.methods)}

    def rows(self, method: str) -> np.ndarray:
        """The row of each of the method's pairs, its first, in row order."""
        return self._rows.get(method, np.zeros(0, dtype=np.int64))

    @classmethod
    def of(cls, records):
        """The table of records: the one a view of a table holds, else a
        row a record in the given order."""
        if isinstance(records, _Records) and isinstance(records.columns, cls):
            return records.columns
        records = list(records)
        finding_ids, finding = _distinct([r.finding_id for r in records])
        methods, method = _distinct([r.method for r in records])
        return cls(finding_ids, tuple(methods), finding, method, **{
            f.name: np.array([getattr(r, f.name) for r in records])
            for f in fields(cls.RECORD)[2:]})


@dataclass(frozen=True, eq=False)
class ForecastTable(PairTable):
    """Forecasts as columns (see PairTable). `aggregate_all` gives each
    (finding, method) pair a method defines one row, by finding in the order
    of `Dataset.finding_ids`, then by method."""
    finding_ids: list[str]
    methods: tuple[str, ...]
    finding: np.ndarray    # int64 index into finding_ids
    method: np.ndarray     # int64 index into methods
    value: np.ndarray      # float64
    n_inputs: np.ndarray   # int64

    RECORD = AggregateForecast


def _left_sums(values: np.ndarray, bounds: list[int]) -> np.ndarray:
    """The sum of each group values[bounds[i]:bounds[i + 1]], added left to
    right as `stats.left_sum` adds."""
    n = np.diff(bounds)
    return group_sums(values[bounds[0]:bounds[-1]], np.repeat(np.arange(len(n)), n), len(n))


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
        forecasters, forecaster = _distinct(ds.survey_columns.forecaster)
        w = np.array([weights.get(f, 0.0) for f in forecasters], dtype=float)[forecaster]
        values = w * values
        total = _left_sums(w, bounds)
    defined = ~(total <= 0)  # a group without responses weighs 0 too
    return np.divide(_left_sums(values, bounds), total, out=np.full(len(n), np.nan),
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
    forecasters, forecaster = _distinct(surveys.forecaster)
    k = len(forecasters)
    n = np.bincount(forecaster, minlength=k)
    mean = group_sums(surveys.belief, forecaster, k) / n
    # each square is Python's **, which numpy's square differs from in the last bit
    squares = np.array([d ** 2 for d in (surveys.belief - mean[forecaster]).tolist()])
    var = np.divide(group_sums(squares, forecaster, k), n - 1, out=np.zeros(k), where=n > 1)
    return dict(zip(forecasters, var.tolist()))


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
                  threshold: float = 0.5) -> Sequence[AggregateForecast]:
    """One forecast per (finding id, method), each method once, where it first occurs,
    skipping findings a method cannot aggregate (empty market / no responses / all-zero
    weights): exactly the findings whose per-finding function raises. The forecasts
    are a read-only view of their `ForecastTable` (its `columns`), built on first use."""
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
    finding_ids = ds.finding_ids()
    columns = [rules[method](ds) for method in methods]
    # each of the rules' value, count and defined columns as one (finding x method) array
    value, n, defined = (np.array([c[i] for c in columns]).reshape(len(methods), len(finding_ids)).T
                         for i in range(3))
    finding, method = np.nonzero(defined)  # by finding, then by method
    return _Records(ForecastTable(finding_ids, methods, finding, method, value[finding, method],
                                  n[finding, method]))


def write_aggregates(forecasts: list[AggregateForecast], path: str | Path) -> None:
    write_csv(path, ["finding_id", "method", "value", "n_inputs"],
              zip(*ForecastTable.of(forecasts).values()))
