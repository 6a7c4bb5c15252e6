"""Scoring of aggregated forecasts against replication outcomes.

Produces per-forecast score rows, per-project and pooled summary tables,
the overestimation / error / extremeness tests, prediction-asymmetry
quadrants, and the p-value-category regression.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .aggregate import (
    AggregateForecast,
    METHOD_MARKET,
    METHOD_MEAN,
    check_threshold,
)
from .dataset import (CATEGORY_ABOVE, CATEGORY_AT_OR_BELOW, DEFAULT_P_THRESHOLD, Dataset,
                      Finding, PROJECTS, first_by_id, write_csv)
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


def score(forecasts: list[AggregateForecast], findings,
          threshold: float = 0.5) -> list[ScoreRow]:
    """One score row per (finding, method).

    A forecast at exactly the threshold binarizes to "replicates".
    """
    check_threshold(threshold)
    by_id = _findings_by_id(findings)
    rows = []
    for fc in forecasts:
        finding = by_id.get(fc.finding_id)
        if finding is None:
            raise MissingOutcome(f"no outcome recorded for {fc.finding_id!r}")
        predicted = 1 if fc.value >= threshold else 0
        rows.append(ScoreRow(
            finding_id=fc.finding_id,
            method=fc.method,
            forecast=fc.value,
            outcome=finding.outcome,
            predicted=predicted,
            correct=predicted == finding.outcome,
            abs_error=abs(finding.outcome - fc.value),
            extremeness=abs(fc.value - 0.5),
        ))
    return rows


def rows_by_method(scores) -> dict[str, dict[str, ScoreRow]]:
    """{method: {finding_id: row}} of score rows or forecasts in row order, each pair
    once, as its first row (`dataset.first_by_id`'s rule); a method without rows is {}."""
    index: dict[str, dict[str, ScoreRow]] = defaultdict(dict)
    for s in scores:
        index[s.method].setdefault(s.finding_id, s)
    return index


def paired_scores(scores) -> tuple[list[ScoreRow], list[ScoreRow]]:
    """The market's and the survey mean's score rows (each pair's first) on
    the findings both scored, in the order of the market's score rows (in the
    pipeline, the order of `Dataset.finding_ids`)."""
    index = rows_by_method(scores)
    market, survey = (index[method] for method in COMPARED)
    both = [i for i in market if i in survey]
    return [market[i] for i in both], [survey[i] for i in both]


def summarize(scores: list[ScoreRow], findings,
              group_by: str = "project") -> list[ProjectSummary]:
    """Per-project summaries (`group_by="project"`) or one pooled row of the
    two compared methods, each group a selection of `rows_by_method`."""
    by_id = _findings_by_id(findings)
    if group_by == "pooled":
        groups = [(POOLED, list(by_id.values()))]
    elif group_by == "project":
        groups = [(p, [f for f in by_id.values() if f.project == p])
                  for p in PROJECTS]
        groups = [(p, fs) for p, fs in groups if fs]
    else:
        raise ValueError(f"group_by must be 'project' or 'pooled', got {group_by!r}")

    index = rows_by_method(scores)
    market, survey = (index[method] for method in COMPARED)
    summaries = []
    for name, members in groups:
        ids = {f.finding_id for f in members}
        n = len(members)
        n_rep = sum(f.outcome for f in members)
        summary = ProjectSummary(
            project=name, n_findings=n, n_replicated=n_rep,
            replication_rate=n_rep / n if n else None)
        for method in COMPARED:
            rows = [r for i, r in index[method].items() if i in ids]
            if not rows:
                continue
            summary.mean_belief[method] = stats.left_sum(r.forecast for r in rows) / len(rows)
            summary.n_correct[method] = sum(r.correct for r in rows)
            summary.mae[method] = stats.left_sum(r.abs_error for r in rows) / len(rows)
            summary.spearman_outcome[method] = or_null(
                stats.spearman, [r.outcome for r in rows], [r.forecast for r in rows])
        both = [i for i in market if i in ids and i in survey]
        summary.spearman_market_survey = or_null(
            stats.spearman, [market[i].forecast for i in both], [survey[i].forecast for i in both])
        summaries.append(summary)
    return summaries


def asymmetry_tests(scores: list[ScoreRow], methods: tuple[str, ...] = tuple(COMPARED),
                    yates: bool = False
                    ) -> dict[str, tuple[ConfusionQuadrants, stats.TestResult | None]]:
    """Is each method more accurate on predicted failures than on predicted
    replications? Chi-square on the (predicted class x correctness) table,
    keyed by method with the method's quadrants; the test is None where a
    method's own table leaves it undefined."""
    index = rows_by_method(scores)
    out = {}
    for method in methods:
        cells = Counter((s.predicted, s.outcome) for s in index[method].values())
        quad = ConfusionQuadrants(
            method=method,
            predicted_fail_replicated=cells[0, 1],
            predicted_fail_not_replicated=cells[0, 0],
            predicted_replicate_replicated=cells[1, 1],
            predicted_replicate_not_replicated=cells[1, 0],
        )
        table = [[cells[0, 0], cells[0, 1]], [cells[1, 1], cells[1, 0]]]
        out[method] = (quad, or_null(stats.chi_square_1df, table, yates=yates))
    return out


def accuracy_comparison_test(scores: list[ScoreRow], yates: bool = False) -> stats.TestResult:
    """Chi-square comparing the correct/incorrect counts of the market's
    final price (first row) and the survey mean (second row)."""
    index = rows_by_method(scores)
    correct = {method: sum(s.correct for s in index[method].values()) for method in COMPARED}
    return stats.chi_square_1df([[correct[m], len(index[m]) - correct[m]] for m in COMPARED],
                                yates=yates)


def overestimation_tests(forecasts: list[AggregateForecast],
                         findings) -> dict[str, stats.TestResult | None]:
    """Paired t-tests of outcomes against the market's final price and the survey
    mean, keyed by method, each over the method's first forecast of every finding
    with an outcome; None where a method's own pairs leave its test undefined.

    Negative t means the forecasts overestimate the replication rate.
    """
    by_id = _findings_by_id(findings)
    index = rows_by_method(f for f in forecasts if f.finding_id in by_id)
    return {method: or_null(stats.paired_t, [by_id[i].outcome for i in index[method]],
                            [f.value for f in index[method].values()])
            for method in COMPARED}


def error_difference_test(scores: list[ScoreRow]) -> stats.TestResult:
    """Paired t-test of per-finding absolute errors, the survey mean's minus
    the market's final price's.

    Positive t means the market's errors are smaller than the survey's.
    """
    market, survey = paired_scores(scores)
    return stats.paired_t([s.abs_error for s in survey], [m.abs_error for m in market])


def extremeness_test(scores: list[ScoreRow]) -> stats.TestResult:
    """Paired t-test of per-finding extremeness, the market's final price's
    minus the survey mean's."""
    market, survey = paired_scores(scores)
    return stats.paired_t([m.extremeness for m in market], [s.extremeness for s in survey])


def forecast_correlations(scores: list[ScoreRow]) -> dict[str, float | None]:
    """Each compared method's outcome/forecast correlation over the findings
    it scored, and the market/survey correlations on the findings both scored."""
    index = rows_by_method(scores)
    out: dict[str, float | None] = {}
    for method, name in COMPARED.items():
        rows = index[method].values()
        out[f"pearson_outcome_{name}"] = or_null(
            stats.pearson, [r.outcome for r in rows], [r.forecast for r in rows])
    market, survey = paired_scores(scores)
    pairs = ([m.forecast for m in market], [s.forecast for s in survey])
    out["pearson_market_survey"] = or_null(stats.pearson, *pairs)
    out["spearman_market_survey"] = or_null(stats.spearman, *pairs)
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
    write_csv(path, ["finding_id", "method", "forecast", "outcome", "predicted",
                     "correct", "abs_error", "extremeness"],
              ([s.finding_id, s.method, s.forecast, s.outcome, s.predicted,
                int(s.correct), s.abs_error, s.extremeness] for s in scores))


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
