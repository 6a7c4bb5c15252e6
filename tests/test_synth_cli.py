import csv
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repmarket import aggregate, lmsr
from repmarket.cli import build_parser, main
from repmarket.dataset import Dataset, load_dataset, validate
from repmarket.dynamics import (
    AXIS_HOURS,
    AXIS_TRADES,
    LoessConfig,
    late_trade_smoothing,
    loess_fit,
    mean_error_curve,
)
from repmarket.stats import chi_square_1df
from repmarket.synth import synthetic_dataset, write_fixture

from conftest import OUTCOMES_CSV, SURVEYS_CSV, TRADES_CSV, write_fixture_files

# the trades table of a price-only export: no side or quantity columns
PRICE_ONLY_TRADES = "".join(
    ",".join(c for i, c in enumerate(line.split(",")) if i not in (3, 4)) + "\n"
    for line in TRADES_CSV.splitlines())


def _read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_synth_byte_identical_across_runs(tmp_path):
    for sub in ("a", "b"):
        assert main(["synth", "--seed", "7", "--markets", "5",
                     "--out", str(tmp_path / sub)]) == 0
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")


def test_synth_different_seeds_differ(tmp_path):
    write_fixture(synthetic_dataset(seed=1, n_markets=4), tmp_path / "a")
    write_fixture(synthetic_dataset(seed=2, n_markets=4), tmp_path / "b")
    assert _read_all(tmp_path / "a") != _read_all(tmp_path / "b")


@pytest.mark.parametrize("min_trades, max_trades", [(5, 4), (-1, 3), (-3, -1)])
def test_synth_refuses_trade_counts_outside_their_domain(min_trades, max_trades):
    from repmarket.errors import OutOfRange

    with pytest.raises(OutOfRange, match="0 <= min_trades <= max_trades"):
        synthetic_dataset(seed=1, min_trades=min_trades, max_trades=max_trades)


def test_synth_allows_untraded_markets_when_asked():
    ds = synthetic_dataset(seed=1, min_trades=0, max_trades=0)
    assert len(ds.trade_columns) == 0 and len(ds.findings) == 12


def test_synth_trades_a_fixed_quantity_when_the_move_is_tiny():
    # one trader pulls each price to their own belief, so later moves round below
    # 1e-9; synth then trades 0.01 on a random side, as execute_trade refuses zero
    b = 100.0
    ds = synthetic_dataset(seed=1, n_markets=12, n_traders=1, min_trades=40, max_trades=60,
                           liquidity_b=b)
    trades = ds.trades
    assert any(t.quantity == 0.01 for t in trades)
    assert all(t.quantity > 0 for t in trades)
    for fid in ds.finding_ids():
        ms = lmsr.new_market(b, 1e9, ["trader01"])
        for t in (t for t in trades if t.finding_id == fid):
            ms, engine = lmsr.execute_trade(ms, t.trader_id, t.side, t.quantity, t.timestamp)
            assert t.post_trade_price == engine.post_trade_price


def test_synth_fixture_loads_clean(tmp_path):
    paths = write_fixture(synthetic_dataset(seed=3, n_markets=6), tmp_path)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    assert ds.load_report.ok()
    assert validate(ds).ok()
    assert len(ds.findings) == 6


def _data_args(paths):
    return ["--outcomes", str(paths["outcomes"]),
            "--surveys", str(paths["surveys"]),
            "--trades", str(paths["trades"])]


@pytest.fixture(scope="module")
def synth_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synthdata")
    return write_fixture(synthetic_dataset(seed=12, n_markets=10), directory)


def test_cli_validate(synth_paths, tmp_path):
    rc = main(["validate", *_data_args(synth_paths), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "validation.json").read_text())
    assert payload["validation"]["ok"] is True


def test_cli_validate_flags_bad_data(tmp_path):
    paths = write_fixture_files(tmp_path / "data",
                                surveys=SURVEYS_CSV + "F001,evil,1.7\n")
    rc = main(["validate", *_data_args(paths), "--out", str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize("timestamp", ["1000000000000000", "9999-12-31T23:00:00-05:00"])
def test_cli_validate_rejects_a_timestamp_past_year_9999(synth_paths, tmp_path, capsys,
                                                         timestamp):
    paths = {name: Path(shutil.copy(path, tmp_path)) for name, path in synth_paths.items()}
    rows = paths["trades"].read_text().count("\n")  # the appended row's number
    with open(paths["trades"], "a", encoding="utf-8") as fh:
        fh.write(f"F001,trader01,{timestamp},YES,1,0.6\n")
    rc = main(["validate", *_data_args(paths), "--out", str(tmp_path / "out")])
    assert rc == 1
    errors = json.loads((tmp_path / "out" / "validation.json").read_text())["load"]["errors"]
    assert [(e["table"], e["row"], e["column"], e["kind"]) for e in errors] == [
        ("trades", rows, "timestamp", "invalid_value")]
    assert "outside the years 0001-9999 UTC" in errors[0]["message"]
    assert "Traceback" not in capsys.readouterr().err


def test_cli_replay_modes(synth_paths, tmp_path):
    assert main(["replay", *_data_args(synth_paths), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "replay.csv").read_text().strip().splitlines()
    assert lines[0] == "finding_id,trade_index,price"
    assert main(["replay", *_data_args(synth_paths), "--mode", "simulated",
                 "--liquidity-b", "100", "--out", str(tmp_path)]) == 0


def test_cli_aggregate_and_evaluate(synth_paths, tmp_path):
    assert main(["aggregate", *_data_args(synth_paths), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "aggregates.csv").exists()
    assert main(["evaluate", *_data_args(synth_paths), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "scores.csv").exists()
    payload = json.loads((tmp_path / "evaluation.json").read_text())
    assert "tests" in payload and "correlations" in payload


def test_cli_dynamics(synth_paths, tmp_path):
    assert main(["dynamics", *_data_args(synth_paths), "--out", str(tmp_path)]) == 0
    for name in ("curve_trades.csv", "curve_hours.csv", "dynamics.json"):
        assert (tmp_path / name).exists()


def test_cli_pvalue(synth_paths, tmp_path):
    assert main(["pvalue", *_data_args(synth_paths), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "table2.json").read_text())
    assert payload["n"] == 10


def test_cli_report_outputs(synth_paths, tmp_path):
    assert main(["report", *_data_args(synth_paths), "--out", str(tmp_path)]) == 0
    for name in ("aggregates.csv", "scores.csv", "table1.csv", "table1.json",
                 "table2.csv", "table2.json", "curve_trades.csv",
                 "curve_hours.csv", "report.json", "discrepancies.csv"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"]["findings"] == 10


def test_cli_report_deterministic(synth_paths, tmp_path):
    for sub in ("r1", "r2"):
        assert main(["report", *_data_args(synth_paths),
                     "--out", str(tmp_path / sub)]) == 0
    assert _read_all(tmp_path / "r1") == _read_all(tmp_path / "r2")


def test_cli_env_data_dir(synth_paths, tmp_path, monkeypatch):
    monkeypatch.setenv("REPMARKET_DATA_DIR", str(synth_paths["outcomes"].parent))
    assert main(["aggregate", "--out", str(tmp_path)]) == 0


def test_cli_mapping_flag(tmp_path):
    paths = write_fixture_files(tmp_path / "data")
    renamed = (tmp_path / "data" / "surveys.csv").read_text().replace(
        "belief", "prob")
    (tmp_path / "data" / "surveys.csv").write_text(renamed)
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text(json.dumps({"surveys": {"belief": "prob"}}))
    rc = main(["validate", *_data_args(paths), "--mapping", str(mapping_path),
               "--out", str(tmp_path / "out")])
    assert rc == 0


@pytest.mark.parametrize("mapping", [
    '{"trade": {}}', '{"trades": {"sied": "direction"}}', '{"trades": '],
    ids=["unknown_table", "unknown_field", "not_json"])
def test_cli_bad_mapping_exits_cleanly(tmp_path, capsys, mapping):
    paths = write_fixture_files(tmp_path / "data")
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text(mapping)
    rc = main(["validate", *_data_args(paths), "--mapping", str(mapping_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidMapping: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "validation.json").exists()


@pytest.mark.parametrize("missing", ["outcomes", "surveys", "trades", "mapping"])
def test_cli_missing_input_exits_cleanly(tmp_path, capsys, missing):
    paths = {**write_fixture_files(tmp_path / "data"), "mapping": tmp_path / "mapping.json"}
    paths["mapping"].write_text("{}")
    nope = tmp_path / "data" / "nope.csv"
    paths[missing] = nope
    rc = main(["validate", *_data_args(paths), "--mapping", str(paths["mapping"]),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: MissingInput: ") and err.count("\n") == 1
    assert missing in err and repr(str(nope)) in err
    assert not (tmp_path / "out" / "validation.json").exists()


@pytest.mark.parametrize("mapping, error", [
    ({"trades": {"side": "direction"}}, "MissingColumn"),
    ({"trades": {"quantity": "qty"}}, "MissingColumn"),
    ({"outcomes": {"original_p_value": "pval"}}, "MissingColumn"),
    ({"trades": {"side": 3}}, "InvalidMapping"),
    ([], "InvalidMapping"), (None, "InvalidMapping"), (0, "InvalidMapping"),
    ("", "InvalidMapping"), (False, "InvalidMapping")])
def test_cli_a_mapping_that_would_drop_data_exits_cleanly(tmp_path, capsys, mapping, error):
    paths = write_fixture_files(tmp_path / "data")
    mapping_path = tmp_path / "mapping.json"
    mapping_path.write_text(json.dumps(mapping))
    rc = main(["validate", *_data_args(paths), "--mapping", str(mapping_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "validation.json").exists()


@pytest.mark.parametrize("table", ["outcomes", "surveys", "trades", "mapping"])
@pytest.mark.parametrize("unreadable", ["directory", "not_utf8"])
def test_cli_unreadable_input_exits_cleanly(tmp_path, capsys, table, unreadable):
    paths = {**write_fixture_files(tmp_path / "data"), "mapping": tmp_path / "mapping.json"}
    paths["mapping"].write_text("{}")
    paths[table] = tmp_path / "unreadable"
    if unreadable == "directory":
        paths[table].mkdir()
    else:
        paths[table].write_bytes(b"finding_id\n\xff\xfe\n")
    rc = main(["validate", *_data_args(paths), "--mapping", str(paths["mapping"]),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnreadableInput: ") and err.count("\n") == 1
    assert table in err and repr(str(paths[table])) in err
    assert not (tmp_path / "out" / "validation.json").exists()


def test_pipeline_tolerates_empty_market(tmp_path):
    from repmarket.cli import run_pipeline
    from repmarket.dataset import Dataset, Finding

    ds = synthetic_dataset(seed=9, n_markets=8)
    silent = Finding("SILENT", "RPP", 0, "above", 0.04,
                     ds.findings[0].market_open, ds.findings[0].market_close)
    extended = Dataset(ds.findings + [silent], ds.surveys, ds.trades)
    result = run_pipeline(extended)
    assert result["report"]["counts"]["findings"] == 9
    # the untraded market has no market forecast but still counts as a finding
    market_rows = [s for s in result["scores"]
                   if s.method == "market_final_price"]
    assert len(market_rows) == 8


def test_cli_error_reports_structured(tmp_path, capsys):
    paths = write_fixture_files(tmp_path / "data")
    rc = main(["replay", *_data_args(paths), "--finding", "NOPE",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "UnknownFinding" in capsys.readouterr().err


@pytest.mark.parametrize("trades, extra", [
    (TRADES_CSV, []),
    (PRICE_ONLY_TRADES, ["--liquidity-b", "100"]),
], ids=["no_liquidity", "price_only"])
def test_cli_simulated_replay_errors_exit_cleanly(tmp_path, capsys, trades, extra):
    paths = write_fixture_files(tmp_path / "data", trades=trades)
    rc = main(["replay", *_data_args(paths), "--mode", "simulated", *extra,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ReplayUnavailable: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "replay.csv").exists()


def test_cli_simulated_replay_refuses_zero_liquidity(tmp_path, capsys):
    paths = write_fixture_files(tmp_path / "data")
    rc = main(["replay", *_data_args(paths), "--mode", "simulated", "--liquidity-b", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NonPositiveLiquidity: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "replay.csv").exists()


def test_report_nulls_table2_when_category_separates_outcomes(tmp_path, capsys):
    ds = synthetic_dataset(seed=12, n_markets=10)
    assert {f.outcome for f in ds.findings} == {0, 1}
    findings = [dataclasses.replace(
        f, original_p_value=None,
        p_value_category="at_or_below" if f.outcome else "above") for f in ds.findings]
    paths = write_fixture(Dataset(findings, ds.surveys, ds.trades), tmp_path / "data")
    out = tmp_path / "out"
    assert main(["report", *_data_args(paths), "--out", str(out)]) == 0
    assert json.loads((out / "table2.json").read_text()) is None
    assert json.loads((out / "report.json").read_text())["table2"] is None
    assert not (out / "table2.csv").exists()
    table2_rows = [line.split(",") for line in
                   (out / "discrepancies.csv").read_text().splitlines()
                   if line.startswith("table2.")]
    assert table2_rows and all(row[1] == "" for row in table2_rows)
    # the pvalue command has nothing else to report, so it still fails
    assert main(["pvalue", *_data_args(paths), "--out", str(tmp_path / "pv")]) == 2
    assert "DegenerateInput" in capsys.readouterr().err


def test_report_removes_an_earlier_table2_csv_when_table2_is_null(synth_paths, tmp_path):
    out = tmp_path / "out"
    assert main(["report", *_data_args(synth_paths), "--out", str(out)]) == 0
    assert (out / "table2.csv").is_file()
    ds = synthetic_dataset(seed=12, n_markets=10)
    findings = [dataclasses.replace(
        f, original_p_value=None,
        p_value_category="at_or_below" if f.outcome else "above") for f in ds.findings]
    paths = write_fixture(Dataset(findings, ds.surveys, ds.trades), tmp_path / "data")
    assert main(["report", *_data_args(paths), "--out", str(out)]) == 0
    assert json.loads((out / "table2.json").read_text()) is None
    assert not (out / "table2.csv").exists()


def _chi_square_tables(out, payload):
    """Each chi-square test's own 2x2 table, from the scores and quadrants a
    run wrote: the accuracy test's (correct, incorrect) rows of the market's
    final price and the survey mean, and each method's (predicted class x
    correctness) table."""
    with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    correct = {m: [int(r["correct"]) for r in rows if r["method"] == m]
               for m in ("market_final_price", "survey_mean")}
    tables = {"accuracy_chi_square": [[sum(c), len(c) - sum(c)] for c in correct.values()]}
    for name, q in payload["quadrants"].items():
        fail, replicate = q["predicted_fail"], q["predicted_replicate"]
        tables[f"asymmetry_{name}"] = [
            [fail - q["fail_but_replicated"], q["fail_but_replicated"]],
            [replicate - q["replicate_but_failed"], q["replicate_but_failed"]]]
    return tables


@pytest.mark.parametrize("command, written", [("report", "report.json"),
                                              ("evaluate", "evaluation.json")])
def test_yates_corrects_every_chi_square_test_of_a_run(tmp_path, command, written):
    # seed 1 with 103 markets: the correction moves all three statistics
    # (seed 3's corrected statistics clamp to 0)
    paths = write_fixture(synthetic_dataset(seed=1, n_markets=103, n_traders=10),
                          tmp_path / "data")
    out = tmp_path / "out"
    assert main([command, *_data_args(paths), "--yates", "--out", str(out)]) == 0
    payload = json.loads((out / written).read_text())
    tables = _chi_square_tables(out, payload)
    if command == "report":
        assert payload["config"]["yates"] is True
    assert len(tables) == 3
    for name, table in tables.items():
        corrected = dataclasses.asdict(chi_square_1df(table, yates=True))
        assert payload["tests"][name] == corrected, name
        assert 0.0 < corrected["statistic"] < chi_square_1df(table).statistic, name


def test_dynamics_and_report_take_valid_loess_and_cutoff_options(tmp_path):
    ds = synthetic_dataset(seed=3)
    paths = write_fixture(ds, tmp_path / "data")
    loess = ["--loess-span", "0.5", "--loess-degree", "1"]
    assert main(["dynamics", *_data_args(paths), *loess, "--cutoff-hours", "48",
                 "--out", str(tmp_path / "dyn")]) == 0
    cfg = LoessConfig(0.5, 1)
    for label, axis in (("trades", AXIS_TRADES), ("hours", AXIS_HOURS)):
        raw = mean_error_curve(ds, axis)
        with open(tmp_path / "dyn" / f"curve_{label}.csv", newline="", encoding="utf-8") as fh:
            smoothed = [float(row["smoothed"]) for row in csv.DictReader(fh)]
        assert smoothed == loess_fit(raw, cfg).mean_abs_error.tolist(), label
        assert smoothed != loess_fit(raw).mean_abs_error.tolist(), label
    late = json.loads((tmp_path / "dyn" / "dynamics.json").read_text())["late_smoothing"]
    assert late == dataclasses.asdict(late_trade_smoothing(ds, 48.0))
    assert late != dataclasses.asdict(late_trade_smoothing(ds))
    assert main(["report", *_data_args(paths), *loess, "--out", str(tmp_path / "report")]) == 0
    config = json.loads((tmp_path / "report" / "report.json").read_text())["config"]
    assert (config["loess_span"], config["loess_degree"]) == (0.5, 1)


def test_pvalue_threshold_only_on_commands_that_read_categories():
    parser = build_parser()
    for cmd in ("report", "pvalue"):
        assert parser.parse_args([cmd, "--pvalue-threshold", "0.01"]).pvalue_threshold == 0.01
    with pytest.raises(SystemExit):
        parser.parse_args(["evaluate", "--pvalue-threshold", "0.01"])


@pytest.mark.parametrize("argv", [
    ["dynamics", "--loess-span", "0"],
    ["report", "--loess-span", "1.5"],
    ["synth", "--seed", "1", "--markets", "1"],
    ["synth", "--seed", "1", "--traders", "0"],
], ids=["dynamics_span_0", "report_span_1.5", "synth_1_market", "synth_0_traders"])
def test_cli_out_of_range_option_exits_cleanly(synth_paths, tmp_path, capsys, argv):
    data = [] if argv[0] == "synth" else _data_args(synth_paths)
    rc = main([*argv, *data, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OutOfRange: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, error", [
    (["report", "--threshold", "nan"], "OutOfRange"),
    (["aggregate", "--threshold", "inf"], "OutOfRange"),
    (["evaluate", "--threshold", "-0.1"], "OutOfRange"),
    (["pvalue", "--pvalue-threshold", "2"], "OutOfRange"),
    (["report", "--pvalue-threshold", "0"], "OutOfRange"),
    (["dynamics", "--cutoff-hours", "nan"], "OutOfRange"),
    (["dynamics", "--cutoff-hours", "-5"], "OutOfRange"),
    (["dynamics", "--cutoff-hours", "inf"], "OutOfRange"),
    (["replay", "--mode", "simulated", "--liquidity-b", "inf"], "NonPositiveLiquidity"),
    (["synth", "--seed", "1", "--liquidity-b", "nan"], "NonPositiveLiquidity"),
], ids=["report_threshold_nan", "aggregate_threshold_inf", "evaluate_threshold_negative",
        "pvalue_threshold_2", "report_pvalue_threshold_0", "dynamics_cutoff_nan",
        "dynamics_cutoff_negative", "dynamics_cutoff_inf", "replay_liquidity_inf",
        "synth_liquidity_nan"])
def test_cli_option_outside_its_domain_exits_cleanly(synth_paths, tmp_path, capsys, argv,
                                                     error):
    data = [] if argv[0] == "synth" else _data_args(synth_paths)
    rc = main([*argv, *data, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_liquidity_that_is_not_positive_is_out_of_range():
    from repmarket.errors import NonPositiveLiquidity, OutOfRange

    assert issubclass(NonPositiveLiquidity, OutOfRange)


def test_run_pipeline_reports_the_dataset_p_threshold(synth_paths):
    from repmarket.cli import run_pipeline

    ds = load_dataset(synth_paths["outcomes"], synth_paths["surveys"],
                      synth_paths["trades"], p_threshold=0.01)
    report = run_pipeline(ds)["report"]
    assert report["config"]["p_threshold"] == 0.01
    rates = report["table2"]["category_rates"]
    assert len(rates) == 2
    assert all(rate["threshold"] == 0.01 for rate in rates.values())


def test_discrepancies_of_an_empty_report_name_every_metric_without_a_value(synth_paths):
    from repmarket.cli import run_pipeline
    from repmarket.reference import build_discrepancies

    ds = load_dataset(synth_paths["outcomes"], synth_paths["surveys"], synth_paths["trades"])
    full = build_discrepancies(run_pipeline(ds)["report"])
    empty = build_discrepancies({})
    assert [r["metric"] for r in empty] == [r["metric"] for r in full]
    assert all(r["computed"] is None and r["delta"] is None for r in empty)
    assert [r["published"] for r in empty] == [r["published"] for r in full]
    assert [r["note"] for r in empty] == [r["note"] for r in full]


def test_cli_without_an_input_path_exits_2_naming_the_option_and_variable(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPMARKET_DATA_DIR", raising=False)
    paths = write_fixture_files(tmp_path / "data")
    rc = main(["validate", "--surveys", str(paths["surveys"]), "--trades", str(paths["trades"]),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NoInputPath: ") and err.count("\n") == 1
    assert "--outcomes" in err and "REPMARKET_DATA_DIR" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", [[], ["--mode", "simulated", "--liquidity-b", "100"]],
                         ids=["price_taking", "simulated"])
def test_cli_replay_skips_a_market_without_trades(tmp_path, capsys, mode):
    data = tmp_path / "data"
    assert main(["synth", "--seed", "3", "--out", str(data)]) == 0
    with open(data / "outcomes.csv", "a", encoding="utf-8") as fh:
        fh.write("F099,RPP,1,above,,2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z\n")
    capsys.readouterr()
    rc = main(["replay", "--outcomes", str(data / "outcomes.csv"),
               "--surveys", str(data / "surveys.csv"), "--trades", str(data / "trades.csv"),
               *mode, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("replayed 12 markets ")
    rows = (tmp_path / "out" / "replay.csv").read_text().splitlines()[1:]
    assert len(rows) == 351 and not any(row.startswith("F099,") for row in rows)


@pytest.fixture(scope="module")
def seed3(tmp_path_factory):
    """The tables `repmarket synth --seed 3` writes, and the dataset they load to."""
    paths = write_fixture(synthetic_dataset(seed=3), tmp_path_factory.mktemp("seed3"))
    return paths, load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])


@pytest.mark.parametrize("mode, replay_args", [
    ([], {}),
    (["--mode", "simulated", "--liquidity-b", "100"], {"mode": "simulated", "liquidity_b": 100.0}),
], ids=["price_taking", "simulated"])
def test_cli_replay_of_one_finding_writes_its_rows_alone(seed3, tmp_path, capsys, mode,
                                                          replay_args):
    paths, ds = seed3
    rc = main(["replay", *_data_args(paths), "--finding", "F003", *mode, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("replayed 1 markets ")
    prices = lmsr.replay(ds, "F003", **replay_args)
    rows = (tmp_path / "replay.csv").read_text().splitlines()
    assert rows[0] == "finding_id,trade_index,price" and len(rows) == 1 + 21
    assert rows[1:] == [f"F003,{i},{price!r}" for i, price in enumerate(prices, start=1)]


@pytest.mark.parametrize("mode", [[], ["--mode", "simulated", "--liquidity-b", "100"]],
                         ids=["price_taking", "simulated"])
def test_cli_replay_of_an_untraded_finding_writes_the_header_alone(tmp_path, capsys, mode):
    data = tmp_path / "data"
    write_fixture(synthetic_dataset(seed=3), data)
    with open(data / "outcomes.csv", "a", encoding="utf-8") as fh:
        fh.write("F099,RPP,1,above,,2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z\n")
    rc = main(["replay", "--outcomes", str(data / "outcomes.csv"),
               "--surveys", str(data / "surveys.csv"), "--trades", str(data / "trades.csv"),
               "--finding", "F099", *mode, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("replayed 0 markets ")
    assert (tmp_path / "out" / "replay.csv").read_text() == "finding_id,trade_index,price\n"


def test_cli_replay_of_an_empty_finding_id_exits_2(seed3, tmp_path, capsys):
    # the loader refuses an empty finding id, so no market has one
    rc = main(["replay", *_data_args(seed3[0]), "--finding", "", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnknownFinding: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "replay.csv").exists()


def test_cli_aggregate_threshold_cuts_the_vote_share(seed3, tmp_path):
    paths, ds = seed3
    assert main(["aggregate", *_data_args(paths), "--method", "survey_voting",
                 "--threshold", "0.7", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "aggregates.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["finding_id"] for row in rows] == ds.finding_ids()
    for row in rows:
        expected = aggregate.survey_voting(ds, row["finding_id"], threshold=0.7)
        assert row["value"] == repr(expected.value), row
    # the option is seen: F001's vote share moves off its value at the default 0.5
    assert aggregate.survey_voting(ds, "F001").value == 0.125
    assert rows[0]["finding_id"] == "F001" and rows[0]["value"] == "0.0"


@pytest.mark.parametrize("extra, error", [
    ([], "ReplayUnavailable"),
    (["--liquidity-b", "-1"], "NonPositiveLiquidity"),
], ids=["no_liquidity", "negative_liquidity"])
def test_cli_simulated_replay_refuses_the_liquidity_when_no_market_traded(
        tmp_path, capsys, extra, error):
    paths = write_fixture_files(tmp_path / "data", trades=TRADES_CSV.splitlines()[0] + "\n")
    rc = main(["replay", *_data_args(paths), "--mode", "simulated", *extra,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert not (tmp_path / "out" / "replay.csv").exists()


@pytest.mark.parametrize("command, out", [
    (["validate"], "a_file"),
    (["report"], "a_file/sub"),
    (["synth", "--seed", "3"], "a_file"),
], ids=["validate_file", "report_under_file", "synth_file"])
def test_cli_out_that_is_not_a_directory_exits_2(synth_paths, tmp_path, capsys, command, out):
    (tmp_path / "a_file").write_text("kept\n", encoding="utf-8")
    data = [] if command[0] == "synth" else _data_args(synth_paths)
    rc = main([*command, *data, "--out", str(tmp_path / out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: OutputNotADirectory: ") and err.count("\n") == 1
    assert (tmp_path / "a_file").read_text(encoding="utf-8") == "kept\n"


def test_an_empty_dataset_has_a_null_pooled_replication_rate():
    from repmarket.cli import run_pipeline

    [pooled] = run_pipeline(Dataset([], [], []))["report"]["table1"]["rows"]
    assert pooled["n_findings"] == 0 and pooled["replication_rate"] is None


def test_every_command_on_header_only_tables(tmp_path, capsys):
    headers = {table: text.splitlines()[0] + "\n" for table, text in
               (("outcomes", OUTCOMES_CSV), ("surveys", SURVEYS_CSV), ("trades", TRADES_CSV))}
    args = _data_args(write_fixture_files(tmp_path / "data", **headers))
    written = {"report": "report.json", "evaluate": "evaluation.json",
               "dynamics": "dynamics.json", "aggregate": "aggregates.csv",
               "validate": "validation.json", "replay": "replay.csv"}
    for command, name in written.items():
        assert main([command, *args, "--out", str(tmp_path / command)]) == 0, command
        assert (tmp_path / command / name).is_file(), command
    capsys.readouterr()
    assert main(["pvalue", *args, "--out", str(tmp_path / "pvalue")]) == 2
    assert capsys.readouterr().err.startswith("error: DegenerateInput: ")
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert report["counts"] == {"findings": 0, "surveys": 0, "trades": 0}
    assert all(value is None for value in report["dynamics"].values())
    [pooled] = report["table1"]["rows"]
    assert pooled["project"] == "Pooled" and pooled["replication_rate"] is None
