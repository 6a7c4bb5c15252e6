"""The one null path: results the data leave undefined are `null`, and
every other error still ends the run."""

import csv
import dataclasses
import json

import pytest

from repmarket import dynamics, errors, evaluate, stats
from repmarket.aggregate import METHOD_MEAN
from repmarket.cli import main, run_pipeline
from repmarket.synth import synthetic_dataset, write_fixture

from helpers import DAY_MS, load_strict_json

UNDEFINED = (errors.EmptyMarket, errors.NoSurveyResponses, errors.AllWeightsZero,
             errors.DegenerateInput, errors.DegenerateTable,
             errors.InsufficientPoints, errors.NoReduction, errors.GridTooLarge)
DEFINED = (errors.DomainError, errors.UnknownFinding, errors.ReplayUnavailable,
           errors.MissingOutcome)


@pytest.mark.parametrize("cls", UNDEFINED)
def test_degenerate_data_errors_are_undefined(cls):
    assert issubclass(cls, errors.Undefined)
    assert issubclass(cls, errors.RepmarketError)


@pytest.mark.parametrize("cls", DEFINED)
def test_other_errors_are_not_undefined(cls):
    assert not issubclass(cls, errors.Undefined)


def test_or_null_returns_the_value_or_none_and_lets_other_errors_through():
    assert errors.or_null(divmod, 7, 2) == (3, 1)
    assert errors.or_null(stats.pearson, [1, 1, 1], [1, 2, 3]) is None
    with pytest.raises(ValueError):
        errors.or_null(stats.pearson, [1, 2], [1])


def _seed3():
    return synthetic_dataset(seed=3, n_markets=12, n_traders=10)


def _all_prices_half():
    ds = _seed3()
    return dataclasses.replace(ds, trades=[dataclasses.replace(t, post_trade_price=0.5)
                                           for t in ds.trades])


def _all_outcomes_one():
    ds = _seed3()
    return dataclasses.replace(ds, findings=[dataclasses.replace(f, outcome=1)
                                             for f in ds.findings])


def _two_markets():
    return synthetic_dataset(seed=5, n_markets=2, n_traders=10)


# the null keys of each report section, recorded before or_null existed; the
# asymmetry tests and quadrants since each test is null on its own table
NULLS = {
    "all_prices_half": (_all_prices_half, {
        "tests": {"asymmetry_market"},
        "correlations": {"pearson_market_survey", "pearson_outcome_market",
                         "spearman_market_survey"},
        "dynamics": set(), "table2": False, "quadrants": {"market", "survey"}}),
    "all_outcomes_one": (_all_outcomes_one, {
        "tests": set(),
        "correlations": {"pearson_outcome_market", "pearson_outcome_survey"},
        "dynamics": {"milestone_trades_90"}, "table2": True,
        "quadrants": {"market", "survey"}}),
    "two_markets": (_two_markets, {
        "tests": {"accuracy_chi_square", "asymmetry_market", "asymmetry_survey"},
        "correlations": {"pearson_market_survey", "pearson_outcome_market",
                         "pearson_outcome_survey", "spearman_market_survey"},
        "dynamics": set(), "table2": True, "quadrants": {"market", "survey"}}),
}


@pytest.mark.parametrize("name", sorted(NULLS))
def test_run_pipeline_reports_exactly_the_undefined_results_as_null(name):
    build, expected = NULLS[name]
    report = run_pipeline(build())["report"]
    for section in ("tests", "correlations", "dynamics"):
        assert {k for k, v in report[section].items() if v is None} == expected[section]
    assert (report["table2"] is None) == expected["table2"]
    assert set(report["quadrants"]) == expected["quadrants"]
    assert len(report["tests"]) == 7


def test_each_asymmetry_test_is_null_on_its_own_table_alone():
    # every market price is 0.5, so every market forecast predicts
    # replication and the market's table is undefined; the survey's is not
    out = run_pipeline(_all_prices_half())
    quad, survey = evaluate.asymmetry_tests(out["scores"], methods=(METHOD_MEAN,))[METHOD_MEAN]
    assert survey is not None
    assert out["report"]["tests"]["asymmetry_survey"] == dataclasses.asdict(survey)
    assert out["report"]["quadrants"]["survey"] == quad.to_dict()


def _data_args(directory):
    return ["--outcomes", str(directory / "outcomes.csv"),
            "--surveys", str(directory / "surveys.csv"),
            "--trades", str(directory / "trades.csv")]


def test_report_with_null_published_tests_writes_empty_computed_values(tmp_path):
    write_fixture(_seed3(), tmp_path / "data")
    out = tmp_path / "out"
    assert main(["report", "--threshold", "0.01", *_data_args(tmp_path / "data"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["tests"]["asymmetry_market"] is None
    assert report["tests"]["asymmetry_survey"] is None
    with open(out / "discrepancies.csv", newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["metric"].startswith("tests.asymmetry_")]
    assert [r["metric"] for r in rows] == [
        "tests.asymmetry_market.statistic", "tests.asymmetry_market.p",
        "tests.asymmetry_survey.statistic", "tests.asymmetry_survey.p"]
    assert all(r["computed"] == "" and r["delta"] == "" for r in rows)


def test_report_still_fails_on_an_error_that_is_not_undefined(tmp_path, monkeypatch, capsys):
    write_fixture(_seed3(), tmp_path / "data")

    def broken(a, b, x):
        raise errors.DomainError("broken kernel")

    monkeypatch.setattr(stats, "regularized_incomplete_beta", broken)
    assert main(["report", *_data_args(tmp_path / "data"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "error: DomainError: broken kernel" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(NULLS))
def test_every_json_file_of_a_fixture_with_nulls_is_strict_json(tmp_path, name):
    write_fixture(NULLS[name][0](), tmp_path / "data")
    runs = [[command] for command in ("report", "evaluate", "dynamics", "validate")]
    runs.append(["report", "--threshold", "0.01"])
    for k, argv in enumerate(runs):
        out = tmp_path / f"out{k}"
        assert main([*argv, *_data_args(tmp_path / "data"), "--out", str(out)]) == 0
        for path in out.glob("*.json"):
            load_strict_json(path)


def test_report_on_years_long_windows_nulls_the_hours_curve(tmp_path):
    # a two-year window's hours grid has 17,521 points, and one from 1970 to
    # 2020 about 438,000: the curve is undefined before a matrix or LOESS is
    # built, so report and dynamics finish in seconds
    ds = _seed3()
    first, second, *rest = ds.findings
    two_years = dataclasses.replace(second, market_close=second.market_open + 730 * DAY_MS)
    with pytest.raises(errors.GridTooLarge, match="17521 points"):
        dynamics.mean_error_curve(dataclasses.replace(ds, findings=[first, two_years, *rest]),
                                  dynamics.AXIS_HOURS)
    since_1970 = dataclasses.replace(first, market_open=2)  # its close stays in 2020
    write_fixture(dataclasses.replace(ds, findings=[since_1970, two_years, *rest]),
                  tmp_path / "data")
    for command, nulls in (
            ("report", {"milestone_hours_90", "first_hour_reduction_fraction"}),
            ("dynamics", {"milestone_hours_65", "milestone_hours_90"})):
        out = tmp_path / command
        out.mkdir()
        (out / "curve_hours.csv").write_text("stale\n")
        assert main([command, *_data_args(tmp_path / "data"), "--out", str(out)]) == 0
        assert not (out / "curve_hours.csv").exists(), "an earlier curve_hours.csv is left"
        assert (out / "curve_trades.csv").exists()
        dyn = load_strict_json(out / f"{command}.json")
        dyn = dyn["dynamics"] if command == "report" else dyn
        assert {k: dyn[k] for k in nulls} == dict.fromkeys(nulls)
        assert dyn["milestone_trades_90"] is not None
