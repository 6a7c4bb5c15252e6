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

# The pooled market correct count is printed as 76 in the summary table but
# as 75 in the running text; both are kept.
MARKET_N_CORRECT_ALTERNATE = 75

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

# predicted-fail / predicted-replicate quadrant counts; note the published
# market counts sum to 104 rather than 103
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


def _row(metric: str, computed, published, note: str = "") -> dict:
    delta = None
    if computed is not None and published is not None:
        try:
            delta = float(computed) - float(published)
        except (TypeError, ValueError):
            delta = None
    return {"metric": metric, "computed": computed, "published": published,
            "delta": delta, "note": note}


def build_discrepancies(report: dict) -> list[dict]:
    """One row per published metric: computed value, published value, delta.

    `report` is the structured report document assembled by the pipeline;
    metrics it does not contain are reported with computed=None.
    """
    rows: list[dict] = []

    counts = report.get("counts", {})
    for key, published in COUNTS.items():
        rows.append(_row(f"counts.{key}", counts.get(key), published))

    table1_rows = {r.get("project"): r for r in report.get("table1", {}).get("rows", [])}
    for project, published in TABLE1.items():
        computed = table1_rows.get(project, {})
        for key, pub_val in published.items():
            note = ""
            if project == "Pooled" and key == "market_n_correct":
                note = (f"also published as {MARKET_N_CORRECT_ALTERNATE} in the "
                        "running text")
            rows.append(_row(f"table1.{project}.{key}", computed.get(key),
                             pub_val, note))

    tests = report.get("tests", {})
    for name, published in TESTS.items():
        computed = tests.get(name) or {}
        for key, pub_val in published.items():
            comp_key = "statistic" if key in ("t", "statistic") else "p_value"
            rows.append(_row(f"tests.{name}.{key}", computed.get(comp_key), pub_val))

    correlations = report.get("correlations", {})
    for key, pub_val in CORRELATIONS.items():
        rows.append(_row(f"correlations.{key}", correlations.get(key), pub_val))

    quadrants = report.get("quadrants", {})
    for method, published in QUADRANTS.items():
        computed = quadrants.get(method, {})
        note = ("published market quadrants sum to 104 of 103 findings"
                if method == "market" else "")
        for key, pub_val in published.items():
            rows.append(_row(f"quadrants.{method}.{key}", computed.get(key),
                             pub_val, note))

    agg = report.get("aggregators", {})
    for method, published in AGGREGATORS.items():
        computed = agg.get(method, {})
        for key, pub_val in published.items():
            rows.append(_row(f"aggregators.{method}.{key}", computed.get(key), pub_val))

    table2 = report.get("table2") or {}
    for key, pub_val in TABLE2.items():
        rows.append(_row(f"table2.{key}", table2.get(key), pub_val))
    cat_rates = table2.get("category_rates", {})
    for key, pub_val in CATEGORY_RATES.items():
        rows.append(_row(f"table2.category_rates.{key}",
                         (cat_rates.get(key) or {}).get("rate"), pub_val))

    dyn = report.get("dynamics", {})
    for key, pub_val in DYNAMICS.items():
        rows.append(_row(f"dynamics.{key}", dyn.get(key), pub_val))

    return rows
