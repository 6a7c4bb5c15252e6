"""Guard for the record rules: the load report of a malformed fixture and the
validation reports of it and of an in-memory dataset must match the reports
recorded in `data/malformed/reports.json`.

The fixture has one row per rule in each table, each with a single fault, and
rows the loader must accept: a blank line, short rows, a repeated column name
(the last one is read), a lower-case project and side, a derived, an aliased,
a recategorized and a not recategorized category, an unparsed p-value and a
trade after close."""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from repmarket.cli import main
from repmarket.dataset import Finding, SurveyResponse, Trade, load_dataset, validate

from helpers import BASE_MS, DAY_MS, HOUR_MS, make_dataset

DATA = Path(__file__).parent / "data" / "malformed"
RECORDED = json.loads((DATA / "reports.json").read_text(encoding="utf-8"))


def _load(p_threshold):
    return load_dataset(DATA / "outcomes.csv", DATA / "surveys.csv",
                        DATA / "trades.csv", p_threshold=p_threshold)


def in_memory_dataset():
    """Typed records with every fault `validate` reports, some several at once,
    with and without row provenance."""
    close = BASE_MS + 14 * DAY_MS
    inside = BASE_MS + HOUR_MS

    def finding(fid, project="RPP", outcome=1, category="above", p=None,
                open_ms=BASE_MS, close_ms=close, row=None):
        return Finding(fid, project, outcome, category, p, open_ms, close_ms,
                       source_row=row)

    def trade(fid, side="YES", quantity=1.0, price=0.6, ts=inside, row=None):
        return Trade(fid, "t1", ts, side, quantity, price, source_row=row)

    findings = [
        finding("F1", row=1),
        finding("F1", project="XXX", row=2),
        finding("F2", project="rpp"),
        finding("F3", outcome=2),
        finding("F4", category="maybe", p=0.2),
        finding("F5", category="at_or_below", p=0.2, row=6),
        finding("F6", close_ms=BASE_MS),
        finding("F7", project="XXX", outcome="1", category="above", p=0.001,
                close_ms=BASE_MS - 1),
    ]
    surveys = [
        SurveyResponse("F1", "t1", 0.4, source_row=1),
        SurveyResponse("F9", "t1", 0.4),
        SurveyResponse("F1", "t1", 0.5, source_row=3),
        SurveyResponse("F2", "t1", 1.5),
        SurveyResponse("F2", "t1", -0.1),
        SurveyResponse("F3", "ghost", 0.5),
    ]
    trades = [
        trade("F1", row=1),
        trade("F9"),
        trade("F1", side="BUY", row=3),
        trade("F1", quantity=0.0),
        trade("F1", price=1.0),
        trade("F1", ts=close + 1),
        trade("F6", side="yes", quantity=-2.0, price=0.0, ts=BASE_MS - 1, row=7),
        trade("F2", quantity=None),
    ]
    return make_dataset(findings, surveys, trades)


@pytest.mark.parametrize("p_threshold", [0.005, 0.01])
def test_load_and_validate_reports_of_the_malformed_fixture(p_threshold):
    ds = _load(p_threshold)
    recorded = RECORDED[str(p_threshold)]
    assert ds.load_report.to_dict() == recorded["load"]
    assert validate(ds).to_dict() == recorded["validate"]


def test_validate_prints_load_and_validation_warnings_apart(tmp_path):
    # the load report holds the derived category and the unparsed p-value;
    # validation alone warns of the forecaster who never traded
    args = ["validate", "--outcomes", str(DATA / "outcomes.csv"), "--surveys",
            str(DATA / "surveys.csv"), "--trades", str(DATA / "trades.csv"),
            "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(args) == 1
    recorded = RECORDED["0.005"]
    assert (len(recorded["load"]["warnings"]), len(recorded["validate"]["warnings"])) == (2, 1)
    assert (f"load errors: {len(recorded['load']['errors'])}; load warnings: 2; "
            f"validation errors: {len(recorded['validate']['errors'])}; "
            "validation warnings: 1") in out.getvalue().splitlines()


def test_validate_report_of_an_in_memory_dataset():
    assert validate(in_memory_dataset()).to_dict() == RECORDED["in_memory"]


def test_validate_flags_a_negative_p_value():
    finding = Finding("F1", "RPP", 1, "at_or_below", -0.3, BASE_MS, BASE_MS + DAY_MS)
    [error] = validate(make_dataset([finding])).errors
    assert (error.column, error.kind, error.message) == (
        "original_p_value", "invalid_value", "negative p-value -0.3")


def test_validate_flags_a_p_value_outside_the_unit_interval():
    findings = [Finding(f"F{i}", "RPP", 0, "above", p, BASE_MS, BASE_MS + DAY_MS)
                for i, p in enumerate((1.5, math.inf, math.nan))]
    errors = validate(make_dataset(findings)).errors
    assert [(e.column, e.kind, e.message) for e in errors] == [
        ("original_p_value", "invalid_value", f"p-value {p} outside [0, 1]")
        for p in ("1.5", "inf", "nan")]


def test_a_rejected_row_gets_its_first_text_fault_and_no_warnings(tmp_path):
    head = ("finding_id,project,outcome,p_value_category,original_p_value,"
            "market_open,market_close\n")
    times = "2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z"
    (tmp_path / "o.csv").write_text(
        head + f"F1,RPP,1,above,0.2,{times}\n"
        # duplicate id, unknown project, and a timestamp that does not parse
        "F1,XXX,1,above,0.2,noon,2020-01-20T00:00:00.000Z\n"
        # derived category (a warning) and a market that closes as it opens
        "F2,RPP,1,,0.2,2020-01-06T00:00:00.000Z,2020-01-06T00:00:00.000Z\n"
        # unparsed p-value (a warning), then an unknown project and outcome
        f"F3,XXX,7,above,n/a,{times}\n", encoding="utf-8")
    (tmp_path / "s.csv").write_text("finding_id,forecaster_id,belief\n", encoding="utf-8")
    (tmp_path / "t.csv").write_text(
        "finding_id,trader_id,timestamp,side,quantity,post_trade_price\n"
        # unknown finding, bad side, and a price that does not parse
        "F9,a,2020-01-07T00:00:00.000Z,BUY,1,cheap\n", encoding="utf-8")
    report = load_dataset(tmp_path / "o.csv", tmp_path / "s.csv",
                          tmp_path / "t.csv").load_report
    assert [(v.table, v.row, v.column, v.message) for v in report.errors] == [
        ("outcomes", 2, "market_open/market_close", "Invalid isoformat string: 'noon'"),
        ("outcomes", 3, "market_open", "market_open must precede market_close"),
        ("outcomes", 4, "project", "unknown project 'XXX'"),
        ("trades", 1, "post_trade_price", "cannot parse price 'cheap'"),
    ]
    assert report.warnings == []


def test_validate_lists_each_forecaster_who_never_traded_once(tmp_path):
    args = ["validate", "--outcomes", str(DATA / "outcomes.csv"), "--surveys",
            str(DATA / "surveys.csv"), "--trades", str(DATA / "trades.csv"),
            "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 1
    written = json.loads((tmp_path / "validation.json").read_text(encoding="utf-8"))
    assert [w["message"] for part in written.values() for w in part["warnings"]
            if w["kind"] == "forecaster_never_traded"] == [
        "forecaster 'ghost' has survey responses but no trades"]
