"""One market rule: an id names the first finding with it, and every stage
reads the markets in the order of `Dataset.finding_ids`."""

import dataclasses

from repmarket import aggregate, evaluate, stats
from repmarket.cli import run_pipeline
from repmarket.aggregate import METHOD_MARKET
from repmarket.dataset import CATEGORY_ABOVE, CATEGORY_AT_OR_BELOW, Dataset
from repmarket.synth import synthetic_dataset

from helpers import make_finding, priced_market, survey


def _markets(repeat=None):
    """Four priced markets with two survey responses each, and `repeat`, a
    second finding under the first market's id, appended to the findings."""
    findings, surveys, trades = [], [], []
    for k, (project, outcome, category) in enumerate([
            ("RPP", 1, CATEGORY_ABOVE), ("RPP", 1, CATEGORY_AT_OR_BELOW),
            ("EERP", 0, CATEGORY_ABOVE), ("SSRP", 0, CATEGORY_AT_OR_BELOW)]):
        fid = f"F{k + 1}"
        finding, market = priced_market(fid, [0.55, 0.6 + k / 20, 0.4 + k / 10],
                                        outcome=outcome, project=project)
        findings.append(make_finding(fid, project=project, outcome=outcome, category=category))
        trades += market
        surveys += [survey(fid, "t1", 0.3 + k / 10), survey(fid, "t2", 0.7 - k / 20)]
    return Dataset(findings + ([repeat] if repeat else []), surveys, trades)


def test_a_repeated_id_is_read_as_its_first_finding_by_every_stage():
    # the repeat disagrees with the first F1 on outcome, project and category
    repeat = make_finding("F1", project="ML2", outcome=0, category=CATEGORY_AT_OR_BELOW)
    result = run_pipeline(_markets(repeat))
    report = result["report"]
    assert {s.outcome for s in result["scores"] if s.finding_id == "F1"} == {1}
    projects = [row["project"] for row in report["table1"]["rows"]]
    assert projects == ["RPP", "EERP", "SSRP", "Pooled"]
    assert report["table1"]["rows"][-1]["n_findings"] == 4
    assert report["table2"]["n"] == 4
    assert report["counts"]["findings"] == 4
    # so the report is that of the dataset without the repeat
    assert report == run_pipeline(_markets())["report"]


def test_paired_scores_keep_the_order_of_the_score_rows():
    def row(fid, method):
        return evaluate.ScoreRow(fid, method, 0.6, 1, 1, True, 0.4, 0.1)

    scores = [row(fid, method) for method in evaluate.COMPARED for fid in ("F2", "F10", "F1")]
    market, survey_rows = evaluate.paired_scores(scores)
    assert [r.finding_id for r in market] == ["F2", "F10", "F1"]
    assert [r.finding_id for r in survey_rows] == ["F2", "F10", "F1"]


def test_a_repeated_score_pair_is_read_once_as_its_first_row(monkeypatch):
    ds = synthetic_dataset(seed=1)
    forecasts = aggregate.aggregate_all(ds)
    # a second row of each of F001's (finding, method) pairs, after every
    # first row and unlike it: each first row is right, each repeat wrong
    repeats = [dataclasses.replace(f, value=1 - f.value) for f in forecasts
               if f.finding_id == "F001"]
    once, twice = evaluate.score(forecasts, ds), evaluate.score(forecasts + repeats, ds)
    assert [s.correct for s in twice if s.finding_id == "F001"] == [True] * 5 + [False] * 5
    n = len(ds.finding_ids())
    correct = [sum(s.correct for s in once if s.method == m) for m in evaluate.COMPARED]

    pooled = evaluate.build_table1(ds, twice)["rows"][-1]
    market = [s for s in once if s.method == METHOD_MARKET]
    assert (pooled["market_n_correct"], pooled["market_mean_belief"], pooled["market_mae"]) == (
        correct[0], stats.left_sum(s.forecast for s in market) / n,
        stats.left_sum(s.abs_error for s in market) / n)
    assert evaluate.build_table1(ds, twice) == evaluate.build_table1(ds, once)
    assert {m: q.n for m, (q, _) in evaluate.asymmetry_tests(twice).items()} == {
        m: n for m in evaluate.COMPARED}
    assert evaluate.asymmetry_tests(twice) == evaluate.asymmetry_tests(once)

    tables = []
    chi_square = stats.chi_square_1df
    monkeypatch.setattr(stats, "chi_square_1df",
                        lambda table, yates=False: tables.append(table) or chi_square(table))
    evaluate.accuracy_comparison_test(twice)
    assert tables == [[[c, n - c] for c in correct]]
    monkeypatch.undo()

    over = evaluate.overestimation_tests(forecasts + repeats, ds)
    assert {m: t.df for m, t in over.items()} == {m: n - 1.0 for m in evaluate.COMPARED}
    assert over == evaluate.overestimation_tests(forecasts, ds)
    assert evaluate.paired_scores(twice) == evaluate.paired_scores(once)
    assert evaluate.forecast_correlations(twice) == evaluate.forecast_correlations(once)

    # the pipeline reads its score rows the same way, the aggregator summary too
    report = run_pipeline(ds)["report"]
    monkeypatch.setattr(aggregate, "aggregate_all",
                        lambda ds, threshold=0.5: forecasts + repeats)
    repeated = run_pipeline(ds)["report"]
    assert {m: a["n"] for m, a in repeated["aggregators"].items()} == {
        m: n for m in aggregate.SURVEY_METHODS}
    assert repeated == report
