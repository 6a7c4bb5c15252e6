"""Scoring of aggregated forecasts against replication outcomes.

Produces per-forecast score rows, per-project and pooled summary tables,
the overestimation / error / extremeness tests, prediction-asymmetry
quadrants, and the p-value-category regression.

`score` adds the outcome, predicted class, correctness, absolute error and
extremeness to the forecast table as columns (`ScoreTable`); the `ScoreRow`
records it returns are a view of that table, built on first use. Every
statistic reads the table's columns, each method's pairs (their first rows,
see `aggregate.PairTable`) selected by index, so a record list and the view
of a table read alike.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregate import (
    AggregateForecast,
    ForecastTable,
    METHOD_MARKET,
    METHOD_MEAN,
    PairTable,
    check_threshold,
)
from .dataset import (CATEGORY_ABOVE, CATEGORY_AT_OR_BELOW, DEFAULT_P_THRESHOLD, Dataset,
                      Finding, PROJECTS, _Records, first_by_id, write_csv)
from .errors import MissingOutcome, or_null
from . import stats

POOLED = "Pooled"

# the two forecasters the paper compares, each with its name in the report;
# report rows and columns follow this order
COMPARED = {METHOD_MARKET: "market", METHOD_MEAN: "survey"}


@dataclass(frozen=True)
class ScoreRow:
    finding_id: str
    method: str
    forecast: float
    outcome: int
    predicted: int
    correct: bool
    abs_error: float
    extremeness: float


@dataclass(frozen=True, eq=False)
class ScoreTable(PairTable):
    """Score rows as columns (see `aggregate.PairTable`), in the rows' order."""
    finding_ids: list[str]
    methods: tuple[str, ...]
    finding: np.ndarray      # int64 index into finding_ids
    method: np.ndarray       # int64 index into methods
    forecast: np.ndarray     # float64
    outcome: np.ndarray      # int64
    predicted: np.ndarray    # int64: 1 where the forecast is at or above the threshold
    correct: np.ndarray      # bool
    abs_error: np.ndarray    # float64
    extremeness: np.ndarray  # float64

    RECORD = ScoreRow


@dataclass
class ProjectSummary:
    project: str
    n_findings: int
    n_replicated: int
    replication_rate: float | None
    mean_belief: dict[str, float] = field(default_factory=dict)
    n_correct: dict[str, int] = field(default_factory=dict)
    mae: dict[str, float] = field(default_factory=dict)
    spearman_market_survey: float | None = None
    spearman_outcome: dict[str, float | None] = field(default_factory=dict)


@dataclass(frozen=True)
class ConfusionQuadrants:
    method: str
    predicted_fail_replicated: int
    predicted_fail_not_replicated: int
    predicted_replicate_replicated: int
    predicted_replicate_not_replicated: int

    @property
    def n(self) -> int:
        return (self.predicted_fail_replicated + self.predicted_fail_not_replicated
                + self.predicted_replicate_replicated
                + self.predicted_replicate_not_replicated)

    def to_dict(self) -> dict:
        """Each predicted class with the count it got wrong: the report shape."""
        return {
            "predicted_fail": self.predicted_fail_replicated
            + self.predicted_fail_not_replicated,
            "fail_but_replicated": self.predicted_fail_replicated,
            "predicted_replicate": self.predicted_replicate_replicated
            + self.predicted_replicate_not_replicated,
            "replicate_but_failed": self.predicted_replicate_not_replicated,
        }


def _findings_by_id(findings) -> dict[str, Finding]:
    """The finding each id names, as a Dataset reads its findings: the first
    with the id, in the order of `finding_ids`."""
    return first_by_id(findings.findings if isinstance(findings, Dataset) else findings)


def _outcomes(table: PairTable, by_id: dict[str, Finding]) -> tuple[np.ndarray, np.ndarray]:
    """The outcome of each finding of the table's finding axis (0 where
    by_id lacks it), and the mask of those by_id has."""
    found = [by_id.get(fid) for fid in table.finding_ids]
    return (np.array([0 if f is None else f.outcome for f in found], dtype=np.int64),
            np.array([f is not None for f in found], dtype=bool))


def score(forecasts: list[AggregateForecast], findings,
          threshold: float = 0.5) -> Sequence[ScoreRow]:
    """One score row per forecast, in the forecasts' order: a read-only view
    of their `ScoreTable` (its `columns`), built on first use.

    A forecast at exactly the threshold binarizes to "replicates".
    """
    check_threshold(threshold)
    table = ForecastTable.of(forecasts)
    outcome, known = _outcomes(table, _findings_by_id(findings))
    unknown = np.flatnonzero(~known[table.finding])
    if len(unknown):
        fid = table.finding_ids[table.finding[unknown[0]]]
        raise MissingOutcome(f"no outcome recorded for {fid!r}")
    outcome = outcome[table.finding]
    predicted = (table.value >= threshold).astype(np.int64)
    return _Records(ScoreTable(
        table.finding_ids, table.methods, table.finding, table.method, table.value, outcome,
        predicted, predicted == outcome, np.abs(outcome - table.value),
        np.abs(table.value - 0.5)))


def rows_by_method(scores) -> dict[str, dict[str, ScoreRow]]:
    """{method: {finding_id: row}} of score rows or forecasts in row order, each pair
    once, as its first row (`dataset.first_by_id`'s rule); a method without rows is {}."""
    index: dict[str, dict[str, ScoreRow]] = defaultdict(dict)
    for s in scores:
        index[s.method].setdefault(s.finding_id, s)
    return index


def _paired(table: PairTable) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the market's and the survey mean's pairs on the findings
    both scored, in the order of the market's rows."""
    market, survey = (table.rows(method) for method in COMPARED)
    row_of = np.full(len(table.finding_ids), -1)
    row_of[table.finding[survey]] = survey
    partner = row_of[table.finding[market]]
    both = partner >= 0
    return market[both], partner[both]


def paired_scores(scores) -> tuple[list[ScoreRow], list[ScoreRow]]:
    """The market's and the survey mean's score rows (each pair's first) on
    the findings both scored, in the order of the market's score rows (in the
    pipeline, the order of `Dataset.finding_ids`)."""
    scores = scores if isinstance(scores, _Records) else list(scores)
    return tuple([scores[r] for r in rows.tolist()] for rows in _paired(ScoreTable.of(scores)))


def summarize(scores: list[ScoreRow], findings,
              group_by: str = "project") -> list[ProjectSummary]:
    """Per-project summaries (`group_by="project"`) or one pooled row of the
    two compared methods, each group a mask of the findings: the pairs of
    its findings, each group's sums taken left to right in row order."""
    by_id = _findings_by_id(findings)
    if group_by == "pooled":
        names, group_of = [POOLED], {fid: 0 for fid in by_id}
    elif group_by == "project":
        names = [p for p in PROJECTS if any(f.project == p for f in by_id.values())]
        group_of = {fid: names.index(f.project) for fid, f in by_id.items() if f.project in names}
    else:
        raise ValueError(f"group_by must be 'project' or 'pooled', got {group_by!r}")

    n, n_rep = [0] * len(names), [0] * len(names)
    for fid, k in group_of.items():
        n[k] += 1
        n_rep[k] += by_id[fid].outcome
    summaries = [ProjectSummary(project=name, n_findings=n[k], n_replicated=n_rep[k],
                                replication_rate=n_rep[k] / n[k] if n[k] else None)
                 for k, name in enumerate(names)]
    table = ScoreTable.of(scores)
    group = np.array([group_of.get(fid, -1) for fid in table.finding_ids], dtype=np.int64)
    for method in COMPARED:
        rows = table.rows(method)
        g = group[table.finding[rows]]
        rows, g = rows[g >= 0], g[g >= 0]
        count = np.bincount(g, minlength=len(names)).tolist()
        n_correct = np.bincount(g[table.correct[rows]], minlength=len(names)).tolist()
        belief, error = (stats.group_sums(column[rows], g, len(names)).tolist()
                         for column in (table.forecast, table.abs_error))
        for k, summary in enumerate(summaries):
            if not count[k]:
                continue
            summary.mean_belief[method] = belief[k] / count[k]
            summary.n_correct[method] = n_correct[k]
            summary.mae[method] = error[k] / count[k]
            member = rows[g == k]
            summary.spearman_outcome[method] = or_null(
                stats.spearman, table.outcome[member].tolist(), table.forecast[member].tolist())
    market, survey = _paired(table)
    g = group[table.finding[market]]
    for k, summary in enumerate(summaries):
        summary.spearman_market_survey = or_null(
            stats.spearman, *(table.forecast[rows[g == k]].tolist() for rows in (market, survey)))
    return summaries


def asymmetry_tests(scores: list[ScoreRow], methods: tuple[str, ...] = tuple(COMPARED),
                    yates: bool = False
                    ) -> dict[str, tuple[ConfusionQuadrants, stats.TestResult | None]]:
    """Is each method more accurate on predicted failures than on predicted
    replications? Chi-square on the (predicted class x correctness) table,
    keyed by method with the method's quadrants; the test is None where a
    method's own table leaves it undefined."""
    table = ScoreTable.of(scores)
    out = {}
    for method in methods:
        rows = table.rows(method)
        predicted, outcome = table.predicted[rows], table.outcome[rows]
        cells = {(p, o): int(np.count_nonzero((predicted == p) & (outcome == o)))
                 for p in (0, 1) for o in (0, 1)}
        quad = ConfusionQuadrants(
            method=method,
            predicted_fail_replicated=cells[0, 1],
            predicted_fail_not_replicated=cells[0, 0],
            predicted_replicate_replicated=cells[1, 1],
            predicted_replicate_not_replicated=cells[1, 0],
        )
        counts = [[cells[0, 0], cells[0, 1]], [cells[1, 1], cells[1, 0]]]
        out[method] = (quad, or_null(stats.chi_square_1df, counts, yates=yates))
    return out


def accuracy_comparison_test(scores: list[ScoreRow], yates: bool = False) -> stats.TestResult:
    """Chi-square comparing the correct/incorrect counts of the market's
    final price (first row) and the survey mean (second row)."""
    table = ScoreTable.of(scores)
    counts = []
    for method in COMPARED:
        rows = table.rows(method)
        correct = int(np.count_nonzero(table.correct[rows]))
        counts.append([correct, len(rows) - correct])
    return stats.chi_square_1df(counts, yates=yates)


def overestimation_tests(forecasts: list[AggregateForecast],
                         findings) -> dict[str, stats.TestResult | None]:
    """Paired t-tests of outcomes against the market's final price and the survey
    mean, keyed by method, each over the method's first forecast of every finding
    with an outcome; None where a method's own pairs leave its test undefined.

    Negative t means the forecasts overestimate the replication rate.
    """
    table = ForecastTable.of(forecasts)
    outcome, known = _outcomes(table, _findings_by_id(findings))
    out = {}
    for method in COMPARED:
        rows = table.rows(method)
        rows = rows[known[table.finding[rows]]]
        out[method] = or_null(stats.paired_t, outcome[table.finding[rows]].tolist(),
                              table.value[rows].tolist())
    return out


def error_difference_test(scores: list[ScoreRow]) -> stats.TestResult:
    """Paired t-test of per-finding absolute errors, the survey mean's minus
    the market's final price's.

    Positive t means the market's errors are smaller than the survey's.
    """
    table = ScoreTable.of(scores)
    market, survey = _paired(table)
    return stats.paired_t(table.abs_error[survey].tolist(), table.abs_error[market].tolist())


def extremeness_test(scores: list[ScoreRow]) -> stats.TestResult:
    """Paired t-test of per-finding extremeness, the market's final price's
    minus the survey mean's."""
    table = ScoreTable.of(scores)
    market, survey = _paired(table)
    return stats.paired_t(table.extremeness[market].tolist(), table.extremeness[survey].tolist())


def forecast_correlations(scores: list[ScoreRow]) -> dict[str, float | None]:
    """Each compared method's outcome/forecast correlation over the findings
    it scored, and the market/survey correlations on the findings both scored."""
    table = ScoreTable.of(scores)
    out: dict[str, float | None] = {}
    for method, name in COMPARED.items():
        rows = table.rows(method)
        out[f"pearson_outcome_{name}"] = or_null(
            stats.pearson, table.outcome[rows].tolist(), table.forecast[rows].tolist())
    pairs = [table.forecast[rows].tolist() for rows in _paired(table)]
    out["pearson_market_survey"] = or_null(stats.pearson, *pairs)
    out["spearman_market_survey"] = or_null(stats.spearman, *pairs)
    return out


def aggregator_summaries(scores: list[ScoreRow], methods) -> dict[str, dict]:
    """The mean, standard deviation, count and mean absolute error of each
    method's forecasts (each pair's first), for each method that has any."""
    table = ScoreTable.of(scores)
    out = {}
    for method in methods:
        rows = table.rows(method)
        if len(rows):
            mean, var = stats.mean_var(table.forecast[rows].tolist())
            out[method] = {"mean": mean, "sd": var ** 0.5, "n": len(rows),
                           "mae": stats.left_sum(table.abs_error[rows].tolist()) / len(rows)}
    return out


def pvalue_regression(findings: list[Finding], p_threshold: float = DEFAULT_P_THRESHOLD,
                      ) -> tuple[stats.OLSFit, dict[str, dict]]:
    """OLS of outcome on the significant-evidence indicator, plus rates.

    The indicator is 1 for the at-or-below-threshold category; the
    intercept is then the above-threshold replication rate and
    intercept + slope the at-or-below rate.
    """
    x = [1.0 if f.p_value_category == CATEGORY_AT_OR_BELOW else 0.0
         for f in findings]
    y = [float(f.outcome) for f in findings]
    fit = stats.ols_simple(x, y)
    rates = {}
    for category, indicator in ((CATEGORY_ABOVE, 0.0), (CATEGORY_AT_OR_BELOW, 1.0)):
        members = [f for f, xv in zip(findings, x) if xv == indicator]
        n = len(members)
        n_rep = sum(f.outcome for f in members)
        rates[category] = {
            "n": n,
            "n_replicated": n_rep,
            "rate": n_rep / n if n else None,
            "threshold": p_threshold,
        }
    return fit, rates


# ----------------------------------------------------------------------
# report tables
# ----------------------------------------------------------------------

def build_table1(ds: Dataset, scores: list[ScoreRow]) -> dict:
    """Per-project and pooled summary in a structured, JSON-friendly form."""
    groups = summarize(scores, ds, group_by="project")
    groups += summarize(scores, ds, group_by="pooled")
    rows = []
    for g in groups:
        row = {"project": g.project, "n_findings": g.n_findings,
               "n_replicated": g.n_replicated, "replication_rate": g.replication_rate}
        for method, name in COMPARED.items():
            row[f"{name}_mean_belief"] = g.mean_belief.get(method)
            row[f"{name}_n_correct"] = g.n_correct.get(method)
            row[f"{name}_mae"] = g.mae.get(method)
        row["spearman_market_survey"] = g.spearman_market_survey
        for method, name in COMPARED.items():
            row[f"spearman_outcome_{name}"] = g.spearman_outcome.get(method)
        rows.append(row)
    return {"rows": rows}


def build_table2(findings, p_threshold: float = DEFAULT_P_THRESHOLD) -> dict:
    """P-value-category regression in a structured, JSON-friendly form."""
    fit, rates = pvalue_regression(findings, p_threshold)
    slope_test = stats.ols_coef_test(fit.slope, fit.se_slope, fit.n)
    intercept_test = stats.ols_coef_test(fit.intercept, fit.se_intercept, fit.n)
    return {
        "dependent": "replication outcome (binary)",
        "intercept": fit.intercept,
        "se_intercept": fit.se_intercept,
        "p_intercept": intercept_test.p_value,
        "slope": fit.slope,
        "se_slope": fit.se_slope,
        "p_slope": slope_test.p_value,
        "r_squared": fit.r_squared,
        "n": fit.n,
        "category_rates": rates,
    }


def write_scores(scores: list[ScoreRow], path: str | Path) -> None:
    *keys, correct, abs_error, extremeness = ScoreTable.of(scores).values()
    write_csv(path, ["finding_id", "method", "forecast", "outcome", "predicted",
                     "correct", "abs_error", "extremeness"],
              zip(*keys, map(int, correct), abs_error, extremeness))


def write_table1_csv(table1: dict, path: str | Path) -> None:
    rows = table1["rows"]
    if rows:
        write_csv(path, list(rows[0]), ([row[c] for c in rows[0]] for row in rows))


def write_table2_csv(table2: dict | None, path: str | Path) -> None:
    """Write the regression terms. When Table 2 is undefined (None), remove
    any file at `path`, so that no earlier run's terms stand for this run's."""
    if table2 is None:
        Path(path).unlink(missing_ok=True)
        return
    write_csv(path, ["term", "estimate", "se", "p_value"], [
        ["intercept", table2["intercept"], table2["se_intercept"], table2["p_intercept"]],
        ["significant_category", table2["slope"], table2["se_slope"], table2["p_slope"]],
        ["r_squared", table2["r_squared"], "", ""],
        ["n", table2["n"], "", ""],
    ])
