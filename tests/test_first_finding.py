"""One market rule: an id names the first finding with it, and every stage
reads the markets in the order of `Dataset.finding_ids`."""

from repmarket import evaluate
from repmarket.cli import run_pipeline
from repmarket.dataset import CATEGORY_ABOVE, CATEGORY_AT_OR_BELOW, Dataset

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
