"""Published reference values for the pooled replication-forecasting dataset.

The originating study reports summary statistics for the four pooled
forecasting projects. The `report` pipeline compares what it computes
against these values and emits one discrepancy row per metric, so rounding
drift or internal inconsistencies in the published tables (e.g. the market
correct-count appears as both 75 and 76) are surfaced instead of silently
adopted.
"""

from __future__ import annotations

COUNTS = {"findings": 103, "trades": 7850, "surveys": 7380}

# Per-project and pooled summary table. Survey MAEs per project come from
# the running text of the accuracy analysis.
TABLE1 = {
    "RPP": {
        "n_findings": 40, "n_replicated": 15,
        "market_mean_belief": 0.556, "market_n_correct": 28, "market_mae": 0.431,
        "survey_mean_belief": 0.546, "survey_n_correct": 23, "survey_mae": 0.485,
        "spearman_market_survey": 0.736,
        "spearman_outcome_market": 0.418, "spearman_outcome_survey": 0.243,
    },
    "EERP": {
        "n_findings": 18, "n_replicated": 11,
        "market_mean_belief": 0.751, "market_n_correct": 11, "market_mae": 0.414,
        "survey_mean_belief": 0.711, "survey_n_correct": 11, "survey_mae": 0.409,
        "spearman_market_survey": 0.792,
        "spearman_outcome_market": 0.297, "spearman_outcome_survey": 0.516,
    },
    "ML2": {
        "n_findings": 24, "n_replicated": 11,
        "market_mean_belief": 0.644, "market_n_correct": 18, "market_mae": 0.354,
        "survey_mean_belief": 0.647, "survey_n_correct": 16, "survey_mae": 0.394,
        "spearman_market_survey": 0.947,
        "spearman_outcome_market": 0.755, "spearman_outcome_survey": 0.731,
    },
    "SSRP": {
        "n_findings": 21, "n_replicated": 13,
        "market_mean_belief": 0.634, "market_n_correct": 18, "market_mae": 0.303,
        "survey_mean_belief": 0.605, "survey_n_correct": 18, "survey_mae": 0.348,
        "spearman_market_survey": 0.845,
        "spearman_outcome_market": 0.842, "spearman_outcome_survey": 0.760,
    },
    "Pooled": {
        "n_findings": 103, "n_replicated": 51,
        "market_mean_belief": 0.627, "market_n_correct": 76, "market_mae": 0.384,
        "survey_mean_belief": 0.610, "survey_n_correct": 68, "survey_mae": 0.423,
        "spearman_market_survey": 0.837,
        "spearman_outcome_market": 0.568, "spearman_outcome_survey": 0.557,
    },
}

TESTS = {
    "overestimation_survey": {"t": -2.89, "p": 0.0046},
    "overestimation_market": {"t": -3.43, "p": 0.00088},
    "error_difference": {"t": 3.68, "p": 0.0003},
    "extremeness": {"t": 7.87},
    "accuracy_chi_square": {"statistic": 1.12, "p": 0.29},
    "asymmetry_market": {"statistic": 6.68, "p": 0.01},
    "asymmetry_survey": {"statistic": 4.45, "p": 0.035},
}

CORRELATIONS = {
    "pearson_outcome_market": 0.581,
    "pearson_outcome_survey": 0.564,
    "pearson_market_survey": 0.853,
    "spearman_market_survey": 0.837,
}

# predicted-fail / predicted-replicate quadrant counts
QUADRANTS = {
    "market": {"predicted_fail": 31, "fail_but_replicated": 3,
               "predicted_replicate": 73, "replicate_but_failed": 25},
    "survey": {"predicted_fail": 22, "fail_but_replicated": 2,
               "predicted_replicate": 81, "replicate_but_failed": 33},
}

AGGREGATORS = {
    "survey_mean": {"mean": 0.610, "sd": 0.14, "mae": 0.422},
    "survey_median": {"mean": 0.63, "sd": 0.17, "mae": 0.412},
    "survey_voting": {"mean": 0.66, "sd": 0.21, "mae": 0.39},
    "survey_var_weighted": {"mean": 0.58, "sd": 0.17, "mae": 0.407},
}

TABLE2 = {
    "intercept": 0.2807, "se_intercept": 0.0595,
    "slope": 0.458, "se_slope": 0.0890,
    "r_squared": 0.2079, "n": 103,
}

CATEGORY_RATES = {"at_or_below": 0.74, "above": 0.28}

DYNAMICS = {
    "trades_per_market_min": 26, "trades_per_market_max": 193,
    "trades_per_market_mean": 76,
    "milestone_trades_90": 69.0,
    "milestone_hours_90": 161.0,
    "first_hour_reduction_fraction": 0.65,
}


# Every published section, in the order of the discrepancy rows
PUBLISHED = {
    "counts": COUNTS,
    "table1": TABLE1,
    "tests": TESTS,
    "correlations": CORRELATIONS,
    "quadrants": QUADRANTS,
    "aggregators": AGGREGATORS,
    "table2": {**TABLE2, "category_rates": CATEGORY_RATES},
    "dynamics": DYNAMICS,
}

# Published values that contradict themselves, keyed by metric; a note on a
# section covers every metric in it
NOTES = {
    # printed as 76 in the summary table but as 75 in the running text
    "table1.Pooled.market_n_correct": "also published as 75 in the running text",
    "quadrants.market": "published market quadrants sum to 104 of 103 findings",
}


def _row(metric: str, computed, published, note: str) -> dict:
    delta = (float(computed) - float(published)
             if computed is not None and published is not None else None)
    return {"metric": metric, "computed": computed, "published": published,
            "delta": delta, "note": note}


def _published_view(report: dict) -> dict:
    """The report under the published names: Table 1 rows keyed by project,
    a test's statistic and p-value as its published `t`/`statistic` and `p`,
    and each p-value category as its rate."""
    tests = {name: {"t": test.get("statistic"), "statistic": test.get("statistic"),
                    "p": test.get("p_value")}
             for name, test in (report.get("tests") or {}).items() if test}
    table2 = report.get("table2") or {}
    rates = {category: (counts or {}).get("rate")
             for category, counts in (table2.get("category_rates") or {}).items()}
    return {**report,
            "table1": {r.get("project"): r
                       for r in (report.get("table1") or {}).get("rows", [])},
            "tests": tests,
            "table2": {**table2, "category_rates": rates}}


def _walk(published: dict, computed, path: str, note: str):
    for key, value in published.items():
        metric = f"{path}.{key}" if path else key
        here = computed.get(key) if isinstance(computed, dict) else None
        metric_note = NOTES.get(metric, note)
        if isinstance(value, dict):
            yield from _walk(value, here, metric, metric_note)
        else:
            yield _row(metric, here, value, metric_note)


def build_discrepancies(report: dict) -> list[dict]:
    """One row per published metric: computed value, published value, delta.

    `report` is the structured report document assembled by the pipeline;
    metrics it does not contain are reported with computed=None.
    """
    return list(_walk(PUBLISHED, _published_view(report), "", ""))
