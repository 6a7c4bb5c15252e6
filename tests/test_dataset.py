import dataclasses

import pytest

from repmarket.dataset import (
    CATEGORY_ABOVE,
    CATEGORY_AT_OR_BELOW,
    DEFAULT_P_THRESHOLD,
    format_timestamp,
    load_dataset,
    parse_timestamp,
    surveys_for,
    trades_for,
    validate,
    write_dataset,
)
from repmarket.errors import InvalidMapping, MissingColumn, MissingInput, UnknownFinding

from conftest import OUTCOMES_CSV, SURVEYS_CSV, TRADES_CSV, write_fixture_files
from helpers import BASE_MS, HOUR_MS, make_dataset, make_finding, make_trade, survey


def test_fixture_round_trip_counts(fixture_ds):
    assert len(fixture_ds.findings) == 2
    assert len(fixture_ds.surveys) == 4
    assert len(fixture_ds.trades) == 6
    assert fixture_ds.load_report.ok()


def test_loaded_values(fixture_ds):
    f = fixture_ds.finding("F001")
    assert f.project == "RPP"
    assert f.outcome == 1
    assert f.p_value_category == CATEGORY_AT_OR_BELOW
    assert f.original_p_value == 0.001
    assert f.market_close - f.market_open == 14 * 24 * HOUR_MS


def test_belief_out_of_bounds_rejected(tmp_path):
    surveys = SURVEYS_CSV + "F002,bob,1.3\n"
    paths = write_fixture_files(tmp_path, surveys=surveys)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert len(ds.surveys) == 4
    [err] = [v for v in ds.load_report.errors if v.kind == "invalid_value"]
    assert err.table == "surveys"
    assert err.column == "belief"
    assert err.row == 5
    assert "1.3" in err.message


@pytest.mark.parametrize("text", ["inf", "1e400"])
def test_infinite_quantity_rejected_and_flagged(tmp_path, text):
    trades = TRADES_CSV + f"F002,dave,2020-01-08T00:00:00.000Z,YES,{text},0.5\n"
    paths = write_fixture_files(tmp_path, trades=trades)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert len(ds.trades) == 6
    fault = ("quantity", "invalid_value", "quantity must be finite, got inf")
    assert [(v.table, v.row, v.column, v.kind, v.message)
            for v in ds.load_report.errors] == [("trades", 7, *fault)]
    held = make_dataset(ds.findings, ds.surveys,
                        [*ds.trades, make_trade("F002", ts=ds.trades[-1].timestamp,
                                                   quantity=float(text))])
    assert [(v.table, v.row, v.column, v.kind, v.message)
            for v in validate(held).errors] == [("trades", None, *fault)]


def test_unknown_project_rejected(tmp_path):
    outcomes = OUTCOMES_CSV + ("F003,XXX,1,above,,2020-01-06T00:00:00.000Z,"
                               "2020-01-20T00:00:00.000Z\n")
    paths = write_fixture_files(tmp_path, outcomes=outcomes)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert len(ds.findings) == 2
    assert any(v.column == "project" for v in ds.load_report.errors)


def test_dangling_references_rejected(tmp_path):
    surveys = SURVEYS_CSV + "F999,alice,0.5\n"
    trades = TRADES_CSV + ("F999,alice,2020-01-08T00:00:00.000Z,YES,1,0.5\n")
    paths = write_fixture_files(tmp_path, surveys=surveys, trades=trades)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    kinds = [v.kind for v in ds.load_report.errors]
    assert kinds.count("dangling_reference") == 2
    assert len(ds.surveys) == 4
    assert len(ds.trades) == 6


def test_duplicate_survey_rejected(tmp_path):
    surveys = SURVEYS_CSV + "F001,alice,0.25\n"
    paths = write_fixture_files(tmp_path, surveys=surveys)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert len(ds.surveys) == 4
    assert any(v.kind == "duplicate_key" for v in ds.load_report.errors)


def test_missing_required_column_raises(tmp_path):
    surveys = "finding_id,belief\nF001,0.5\n"
    paths = write_fixture_files(tmp_path, surveys=surveys)
    with pytest.raises(MissingColumn) as exc:
        load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert exc.value.column == "forecaster_id"


def test_optional_trade_columns_may_be_absent(tmp_path):
    trades = "finding_id,trader_id,timestamp,post_trade_price\n" + "\n".join(
        ",".join((line.split(",")[0], line.split(",")[1], line.split(",")[2],
                  line.split(",")[5]))
        for line in TRADES_CSV.strip().splitlines()[1:]) + "\n"
    paths = write_fixture_files(tmp_path, trades=trades)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert len(ds.trades) == 6
    assert all(t.quantity is None for t in ds.trades)
    assert all(t.side == "YES" for t in ds.trades)


def test_column_mapping_renames(tmp_path):
    surveys = SURVEYS_CSV.replace("belief", "prob_estimate")
    paths = write_fixture_files(tmp_path, surveys=surveys)
    mapping = {"surveys": {"belief": "prob_estimate"}}
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"],
                      mapping=mapping)
    assert len(ds.surveys) == 4


@pytest.mark.parametrize("mapping", [
    {"trades": {"sied": "direction"}},
    {"trade": {}},
    {"surveys": {"belief": "prob"}, "trades": {"side": "direction", "qty": "size"}},
    {"trades": ["side"]},
], ids=["unknown_field", "unknown_table", "one_of_two", "not_an_object"])
def test_mapping_of_an_unknown_table_or_field_is_refused(tmp_path, mapping):
    paths = write_fixture_files(tmp_path)
    with pytest.raises(InvalidMapping) as raised:
        load_dataset(paths["outcomes"], paths["surveys"], paths["trades"], mapping=mapping)
    assert isinstance(raised.value, ValueError)


def test_category_derived_from_p_value_with_warning(tmp_path):
    outcomes = OUTCOMES_CSV + ("F003,ML2,1,,0.2,2020-01-06T00:00:00.000Z,"
                               "2020-01-20T00:00:00.000Z\n")
    paths = write_fixture_files(tmp_path, outcomes=outcomes)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert ds.finding("F003").p_value_category == CATEGORY_ABOVE
    assert any(w.kind == "derived_value" for w in ds.load_report.warnings)


def test_category_p_value_mismatch_rejected(tmp_path):
    outcomes = OUTCOMES_CSV + ("F003,ML2,1,at_or_below,0.2,"
                               "2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z\n")
    paths = write_fixture_files(tmp_path, outcomes=outcomes)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert len(ds.findings) == 2
    assert any(v.column == "p_value_category" and v.kind == "invalid_value"
               for v in ds.load_report.errors)


def test_pvalue_threshold_recategorizes_and_drops_nothing(tmp_path):
    outcomes = OUTCOMES_CSV + ("F003,ML2,1,above,0.008,"
                               "2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z\n"
                               "F004,ML2,0,above,,"
                               "2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z\n")
    paths = write_fixture_files(tmp_path, outcomes=outcomes)
    default = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    moved = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"],
                         p_threshold=0.01)
    assert len(moved.findings) == len(default.findings) == 4
    assert default.finding("F003").p_value_category == CATEGORY_ABOVE
    assert moved.finding("F003").p_value_category == CATEGORY_AT_OR_BELOW
    # no p-value to re-derive F004's label from: kept, and flagged as such
    assert moved.finding("F004").p_value_category == CATEGORY_ABOVE
    assert [(v.row, v.kind) for v in moved.load_report.warnings
            if v.table == "outcomes"] == [(3, "recategorized"), (4, "not_recategorized")]
    assert not default.load_report.warnings


def test_counts_match_lines_minus_rejected(tmp_path):
    surveys = SURVEYS_CSV + "F001,dave,2.0\nF999,erin,0.5\n"
    paths = write_fixture_files(tmp_path, surveys=surveys)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    counts = ds.load_report.counts["surveys"]
    assert counts["lines"] == 6
    assert counts["accepted"] == 4
    assert counts["rejected"] == 2
    assert counts["lines"] == counts["accepted"] + counts["rejected"]


def test_trades_for_ordering(fixture_ds):
    trades = trades_for(fixture_ds, "F001")
    assert [t.post_trade_price for t in trades] == [0.55, 0.7, 0.8]
    timestamps = [t.timestamp for t in trades]
    assert timestamps == sorted(timestamps)


def test_trades_for_tie_preserves_load_order():
    f = make_finding("F1")
    ts = BASE_MS + HOUR_MS
    trades = [make_trade("F1", trader="a", ts=ts, price=0.6, seq=0),
              make_trade("F1", trader="b", ts=ts, price=0.7, seq=1)]
    ds = make_dataset([f], trades=trades)
    assert [t.trader_id for t in trades_for(ds, "F1")] == ["a", "b"]


def test_trades_for_empty_market_and_unknown():
    ds = make_dataset([make_finding("F1")])
    assert trades_for(ds, "F1") == []
    with pytest.raises(UnknownFinding):
        trades_for(ds, "nope")


def test_validate_clean_fixture_empty(fixture_ds):
    report = validate(fixture_ds)
    assert report.ok()
    assert report.warnings == []


def test_validate_trade_after_close_flagged():
    f = make_finding("F1")
    late = make_trade("F1", ts=f.market_close + HOUR_MS)
    ds = make_dataset([f], trades=[late])
    report = validate(ds)
    assert len(report.errors) == 1
    assert report.errors[0].kind == "outside_window"


def test_validate_is_pure(fixture_ds):
    first = validate(fixture_ds)
    second = validate(fixture_ds)
    assert first.to_dict() == second.to_dict()


def test_validate_no_per_market_count_rule():
    # markets ranged from 26 to 193 trades; any count is valid
    f = make_finding("F1")
    trades = [make_trade("F1", ts=BASE_MS + (k + 1) * HOUR_MS, seq=k)
              for k in range(26)]
    ds = make_dataset([f], trades=trades)
    assert validate(ds).ok()


def test_validate_warns_forecaster_never_traded():
    f = make_finding("F1")
    ds = make_dataset([f], surveys=[survey("F1", "ghost", 0.5)],
                      trades=[make_trade("F1", trader="t1")])
    report = validate(ds)
    assert report.ok()
    assert [w.kind for w in report.warnings] == ["forecaster_never_traded"]


def test_write_load_round_trip(fixture_ds, tmp_path):
    write_dataset(fixture_ds, tmp_path / "o.csv", tmp_path / "s.csv",
                  tmp_path / "t.csv")
    again = load_dataset(tmp_path / "o.csv", tmp_path / "s.csv", tmp_path / "t.csv")
    assert again.findings == fixture_ds.findings
    assert again.surveys == fixture_ds.surveys
    assert again.trades == fixture_ds.trades


def test_timestamp_round_trip():
    for ms in (0, 1, 999, BASE_MS, BASE_MS + 123, 1_600_000_000_123):
        assert parse_timestamp(format_timestamp(ms)) == ms
    assert parse_timestamp("2020-01-06T00:00:00Z") == BASE_MS
    assert parse_timestamp(str(BASE_MS)) == BASE_MS


@pytest.mark.parametrize("first, last, past", [
    ("-62135596800000", "253402300799999", ("-62135596800001", "253402300800000")),
    ("0001-01-01T00:00:00.000Z", "9999-12-31T23:59:59.999Z",
     ("0001-01-01T00:00:00+05:00", "9999-12-31T23:00:00-05:00",
      "9999-12-31T23:59:59.999600Z")),
])
def test_timestamps_outside_years_1_to_9999_are_refused(first, last, past):
    # the bounds are the instants format_timestamp can write
    assert format_timestamp(parse_timestamp(first)) == "0001-01-01T00:00:00.000Z"
    assert format_timestamp(parse_timestamp(last)) == "9999-12-31T23:59:59.999Z"
    for text in past:
        with pytest.raises(ValueError, match="outside the years 0001-9999 UTC"):
            parse_timestamp(text)


def test_market_window_outside_years_1_to_9999_rejects_the_finding(tmp_path):
    # F001 closes in the year 318857
    paths = write_fixture_files(tmp_path, outcomes=OUTCOMES_CSV.replace(
        "2020-01-20T00:00:00.000Z", "10000000000000000"))
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    [error, *_] = ds.load_report.errors
    assert (error.table, error.row, error.column, error.kind) == (
        "outcomes", 1, "market_open/market_close", "invalid_value")
    assert "outside the years 0001-9999 UTC" in error.message


def test_years_before_1000_round_trip(tmp_path):
    # format_timestamp pads the year to four digits, the only shape parse_timestamp reads
    opens = [parse_timestamp(f"{year:04d}-05-01T00:00:00.000Z") for year in (1, 50, 999)]
    assert format_timestamp(opens[2]) == "0999-05-01T00:00:00.000Z"
    findings = [make_finding(f"F{i}", open_ms=ms) for i, ms in enumerate(opens)]
    trades = [make_trade(f.finding_id, ts=f.market_open + HOUR_MS + 7, seq=i)
              for i, f in enumerate(findings)]
    ds = make_dataset(findings, trades=trades)
    write_dataset(ds, tmp_path / "o.csv", tmp_path / "s.csv", tmp_path / "t.csv")
    again = load_dataset(tmp_path / "o.csv", tmp_path / "s.csv", tmp_path / "t.csv")
    assert again.load_report.errors == []
    assert again.findings == ds.findings
    assert again.trades == ds.trades


def test_missing_table_names_table_and_path(tmp_path):
    paths = write_fixture_files(tmp_path)
    paths["trades"].unlink()
    with pytest.raises(MissingInput, match="trades table file .*trades.csv") as raised:
        load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert isinstance(raised.value, FileNotFoundError)


def test_synth_dataset_is_valid(synth_ds):
    report = validate(synth_ds)
    assert report.ok()
    assert report.warnings == []


def test_validate_checks_categories_at_the_load_threshold(tmp_path):
    outcomes = OUTCOMES_CSV + ("F003,ML2,1,above,0.008,"
                               "2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z\n")
    paths = write_fixture_files(tmp_path, outcomes=outcomes)
    moved = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"],
                         p_threshold=0.01)
    assert moved.finding("F003").p_value_category == CATEGORY_AT_OR_BELOW
    assert validate(moved).errors == []
    assert moved.p_threshold == 0.01
    # the same records, said to be cut at the default, are inconsistent
    stale = dataclasses.replace(moved, p_threshold=DEFAULT_P_THRESHOLD)
    [err] = validate(stale).errors
    assert (err.row, err.column, err.kind) == (3, "p_value_category", "invalid_value")
    default = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert default.p_threshold == DEFAULT_P_THRESHOLD
    assert validate(default).errors == []


def test_in_memory_dangling_records_build_and_are_reported():
    known = make_trade("F1", trader="a", seq=0)
    response = survey("F1", "a", 0.4)
    ds = make_dataset([make_finding("F1")],
                      surveys=[survey("F9", "a", 0.6), response],
                      trades=[make_trade("F9", trader="a", seq=1), known])
    report = validate(ds)
    assert [(v.table, v.kind) for v in report.errors] == [
        ("surveys", "dangling_reference"), ("trades", "dangling_reference")]
    assert trades_for(ds, "F1") == [known]
    assert surveys_for(ds, "F1") == [response]
    with pytest.raises(UnknownFinding):
        trades_for(ds, "F9")
    with pytest.raises(UnknownFinding):
        surveys_for(ds, "F9")


def test_an_id_with_two_findings_names_the_first_one_everywhere():
    from repmarket import aggregate, dynamics
    from repmarket.errors import EmptyMarket

    from helpers import DAY_MS

    first = make_finding("F1", close_ms=BASE_MS + 2 * DAY_MS)
    second = make_finding("F1", close_ms=BASE_MS + 10 * DAY_MS)
    early = make_trade("F1", ts=BASE_MS + DAY_MS, price=0.3, seq=0)
    late = make_trade("F1", ts=BASE_MS + 5 * DAY_MS, price=0.9, seq=1)
    ds = make_dataset([first, second], trades=[early, late])
    assert ds.finding("F1") is first
    # the late trade is outside the first finding's window, so no step takes it
    assert [v.kind for v in validate(ds).errors] == ["duplicate_key", "outside_window"]
    final = aggregate.market_final_price(ds, "F1")
    assert (final.value, final.n_inputs) == (0.3, 1)
    assert len(dynamics.error_series(ds, "F1")) == 1
    only_late = make_dataset([first, second], trades=[late])
    with pytest.raises(EmptyMarket):
        aggregate.market_final_price(only_late, "F1")


def test_an_id_with_two_findings_is_read_once(tmp_path, monkeypatch):
    # the first finding with the id names its market: one forecast, one curve
    # column, one trade count, one late forecast and one replay each
    from repmarket import aggregate, cli, dynamics
    from repmarket.dataset import trade_counts

    first = make_finding("F1", outcome=1)
    second = make_finding("F1", outcome=0, open_ms=BASE_MS + 2 * HOUR_MS)
    trades = [make_trade("F1", ts=BASE_MS + HOUR_MS, price=0.3, seq=0),
              make_trade("F1", ts=BASE_MS + 3 * HOUR_MS, price=0.5, seq=1)]
    ds = make_dataset([first, second], trades=trades)
    assert ds.finding_ids() == ["F1"]
    assert aggregate.aggregate_all(ds, methods=(aggregate.METHOD_MARKET,)) == [
        aggregate.AggregateForecast("F1", aggregate.METHOD_MARKET, 0.5, 2)]
    curve = dynamics.mean_error_curve(ds)
    assert curve.n_contributing.tolist() == [0, 1, 1]
    assert curve.mean_abs_error.tolist() == [0.5, 0.7, 0.5]
    assert trade_counts(ds) == [2]
    # from the first finding's open both trades are late, from the second's one
    span = first.market_close - (BASE_MS + 0.5 * HOUR_MS)
    weights = [(0.5 * HOUR_MS) / span, (2.5 * HOUR_MS) / span]
    assert dynamics.late_trade_forecasts(ds, 0.5) == {
        "F1": (0.5, 0.5 + weights[0] * (0.3 - 0.5) / (weights[0] + weights[1]))}

    monkeypatch.setattr(cli, "_load", lambda args: ds)
    assert cli.main(["replay", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "replay.csv").read_text().splitlines() == [
        "finding_id,trade_index,price", "F1,1,0.3", "F1,2,0.5"]
