"""End-to-end checks of the `repmarket` console script, for the package
installed by itself (numpy and nothing else: no pytest, no test extras).

    python tests/installed_cli.py                          # the installed script
    PYTHONPATH=src python tests/installed_cli.py python -m repmarket.cli

Arguments, when given, are the command to run in place of `repmarket`. Each
check is one function below, listed in CHECKS, and runs in a fresh
temporary directory; a new check is one more function. The script runs them
all, prints one line a check and exits 1 when any fails. pytest does not
collect it: its name does not start with `test_`.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from datetime import datetime
from pathlib import Path

MALFORMED = Path(__file__).parent / "data" / "malformed"
TABLES = ("outcomes", "surveys", "trades")
COMMAND = ["repmarket"]


def repmarket(*args, status: int = 0, env: dict | None = None) -> str:
    """Run the console script with the arguments, check its exit status and
    return what it wrote to stderr."""
    done = subprocess.run([*COMMAND, *map(str, args)], capture_output=True, text=True, env=env)
    assert done.returncode == status, (
        f"{' '.join(map(str, args))} exited {done.returncode}, not {status}\n"
        f"{done.stdout}{done.stderr}")
    return done.stderr


def synth(out: Path) -> dict[str, Path]:
    """The tables `repmarket synth --seed 3` writes, by name."""
    repmarket("synth", "--seed", 3, "--out", out)
    return {table: out / f"{table}.csv" for table in TABLES}


def data_args(paths: dict[str, Path]) -> list:
    return [arg for table in TABLES for arg in (f"--{table}", paths[table])]


def read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def lines_of(path: Path) -> list[str]:
    """The file's lines, each with its own line end, as awk and head keep them."""
    return path.read_bytes().decode("utf-8").splitlines(keepends=True)


def write_lines(path: Path, lines) -> None:
    path.write_bytes("".join(lines).encode("utf-8"))


def assert_nonempty(path: Path) -> None:
    assert path.is_file() and path.stat().st_size > 0, f"{path} is missing or empty"


def assert_error(stderr: str, name: str) -> None:
    assert any(line.startswith(f"error: {name}: ") for line in stderr.splitlines()), stderr


def every_command_runs(tmp: Path) -> None:
    """Every command runs end to end on the data directory the environment names."""
    env = {**os.environ, "REPMARKET_DATA_DIR": str(tmp / "data")}
    repmarket("synth", "--seed", 3, "--out", tmp / "data", env=env)
    repmarket("validate", "--out", tmp / "validate", env=env)
    for args, written in (
            (["report"], "report.json"),
            (["replay"], "replay.csv"),
            (["replay", "--mode", "simulated", "--liquidity-b", 100], "replay.csv"),
            (["aggregate"], "aggregates.csv"),
            (["evaluate"], "evaluation.json"),
            (["dynamics"], "dynamics.json"),
            (["pvalue"], "table2.json")):
        out = tmp / "_".join(map(str, args))
        repmarket(*args, "--out", out, env=env)
        assert_nonempty(out / written)


def synth_bytes_repeat_and_round_trip(tmp: Path) -> None:
    """Synth writes the same bytes twice, and a loaded fixture is written back
    byte for byte."""
    from repmarket.dataset import load_dataset, write_dataset

    a, b = synth(tmp / "synth_a"), synth(tmp / "synth_b")
    again = {table: tmp / "synth_again" / f"{table}.csv" for table in TABLES}
    (tmp / "synth_again").mkdir()
    write_dataset(load_dataset(*(a[t] for t in TABLES)), *(again[t] for t in TABLES))
    for table in TABLES:
        assert a[table].read_bytes() == b[table].read_bytes(), table
        assert a[table].read_bytes() == again[table].read_bytes(), table


def replay_writes_the_per_market_rows(tmp: Path) -> None:
    """replay.csv holds, in both modes, the bytes csv.writer writes for the
    rows of `lmsr.replay` of each market in turn."""
    from repmarket import lmsr
    from repmarket.dataset import load_dataset

    paths = synth(tmp / "data")
    ds = load_dataset(*(paths[t] for t in TABLES))
    for mode, options in ((lmsr.PRICE_TAKING, {}), (lmsr.SIMULATED, {"liquidity_b": 100.0})):
        out = tmp / mode
        repmarket("replay", *data_args(paths), "--mode", mode,
                  *(["--liquidity-b", 100.0] if options else []), "--out", out)
        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["finding_id", "trade_index", "price"])
        for fid in ds.finding_ids():
            w.writerows([fid, i, price] for i, price in
                        enumerate(lmsr.replay(ds, fid, mode=mode, **options), start=1))
        assert (out / "replay.csv").read_bytes() == expected.getvalue().encode("utf-8"), mode


def malformed_fixture_fails_validation(tmp: Path) -> None:
    """Validating the malformed fixture exits 1, and each
    forecaster_never_traded warning is listed once."""
    paths = {table: MALFORMED / f"{table}.csv" for table in TABLES}
    repmarket("validate", *data_args(paths), "--out", tmp / "malformed", status=1)
    report = read_json(tmp / "malformed" / "validation.json")
    kinds = [w["kind"] for part in report.values() for w in part["warnings"]]
    assert kinds.count("forecaster_never_traded") == 1, kinds


def overestimation_null_on_its_own_pairs(tmp: Path) -> None:
    """Each overestimation test is null on its own pairs alone; a repeated
    method is aggregated once."""
    paths = synth(tmp / "first_market")
    all_trades = paths["trades"].with_name("all_trades.csv")
    paths["trades"].rename(all_trades)
    header, *rows = lines_of(all_trades)
    write_lines(paths["trades"], [header] + [r for r in rows if r.split(",")[0] == "F001"])
    repmarket("report", *data_args(paths), "--out", tmp / "first_market_report")
    tests = read_json(tmp / "first_market_report" / "report.json")["tests"]
    assert tests["overestimation_market"] is None, tests
    assert tests["overestimation_survey"] is not None, tests
    repmarket("aggregate", *data_args({**paths, "trades": all_trades}),
              "--method", "survey_mean", "--method", "survey_mean",
              "--out", tmp / "repeated_method")
    rows = (tmp / "repeated_method" / "aggregates.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows[1:]) == 12, len(rows[1:])


def asymmetry_null_on_its_own_table(tmp: Path) -> None:
    """Each asymmetry test is null on its own table alone; both quadrants are
    written."""
    paths = synth(tmp / "prices_half")
    synth_trades = paths["trades"].with_name("synth_trades.csv")
    paths["trades"].rename(synth_trades)
    header, *rows = lines_of(synth_trades)
    # every price 0.5; as with awk, the carriage return goes with the price it ended
    write_lines(paths["trades"],
                [header] + [",".join(row.split(",")[:5] + ["0.5"]) + "\n" for row in rows])
    repmarket("report", *data_args(paths), "--out", tmp / "prices_half_report")
    report = read_json(tmp / "prices_half_report" / "report.json")
    tests = report["tests"]
    assert tests["asymmetry_market"] is None, tests
    assert tests["asymmetry_survey"] is not None, tests
    assert set(report["quadrants"]) == {"market", "survey"}, report["quadrants"]


def timestamp_forms_report_alike(tmp: Path) -> None:
    """Market times and trade timestamps with a +00:00 offset or as epoch
    milliseconds report as canonical ones (both parse paths)."""
    canonical = synth(tmp / "canonical")
    forms = {"offset": lambda text: text[:-1] + "+00:00",
             "epoch_ms": lambda text: str(round(
                 datetime.fromisoformat(text[:-1] + "+00:00").timestamp() * 1000))}
    times = {"outcomes": ("market_open", "market_close"), "trades": ("timestamp",)}
    data = {"canonical": canonical}
    for name, form in forms.items():
        paths = data[name] = {t: tmp / name / f"{t}.csv" for t in TABLES}
        (tmp / name).mkdir()
        paths["surveys"].write_bytes(canonical["surveys"].read_bytes())
        for table, columns in times.items():
            with open(canonical[table], newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            for row in rows:
                for at in map(header.index, columns):
                    row[at] = form(row[at])
            with open(paths[table], "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header] + rows)
    for name, paths in data.items():
        repmarket("report", *data_args(paths), "--out", tmp / f"{name}_report")
    assert "+00:00," in data["offset"]["outcomes"].read_text(encoding="utf-8")
    assert "+00:00," in data["offset"]["trades"].read_text(encoding="utf-8")
    epoch_ms = data["epoch_ms"]["trades"].read_text(encoding="utf-8")
    assert re.search(r"^[^,]*,[^,]*,[0-9]+,", epoch_ms, re.MULTILINE)
    expected = (tmp / "canonical_report" / "report.json").read_bytes()
    for name in forms:
        assert (tmp / f"{name}_report" / "report.json").read_bytes() == expected, name


def byte_order_mark_reports_alike(tmp: Path) -> None:
    """Tables written with a UTF-8 byte-order mark report as they do without one."""
    plain = synth(tmp / "plain")
    marked = {table: tmp / "marked" / f"{table}.csv" for table in TABLES}
    (tmp / "marked").mkdir()
    for table in TABLES:
        marked[table].write_bytes(b"\xef\xbb\xbf" + plain[table].read_bytes())
    for name, paths in (("plain", plain), ("marked", marked)):
        repmarket("report", *data_args(paths), "--out", tmp / f"{name}_report")
    assert ((tmp / "plain_report" / "report.json").read_bytes()
            == (tmp / "marked_report" / "report.json").read_bytes())


def null_table2_removes_an_earlier_csv(tmp: Path) -> None:
    """A report whose Table 2 is null removes the table2.csv an earlier
    report left in the same --out."""
    paths = synth(tmp / "separated")
    out = tmp / "separated_report"
    repmarket("report", *data_args(paths), "--out", out)
    assert_nonempty(out / "table2.csv")
    with open(paths["outcomes"], newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    outcome, category, p_value = (header.index(c) for c in (
        "outcome", "p_value_category", "original_p_value"))
    for row in rows:  # the category separates the outcomes: no standard error
        row[category] = "at_or_below" if row[outcome] == "1" else "above"
        row[p_value] = ""
    with open(paths["outcomes"], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    repmarket("report", *data_args(paths), "--out", out)
    assert read_json(out / "table2.json") is None
    assert not (out / "table2.csv").exists(), "an earlier table2.csv is left in place"


def untraded_replay_and_file_out_exit_2(tmp: Path) -> None:
    """A simulated replay refuses a missing or bad liquidity when no market
    traded; an --out that is a file exits 2."""
    paths = synth(tmp / "untraded")
    all_trades = paths["trades"].with_name("all_trades.csv")
    paths["trades"].rename(all_trades)
    write_lines(paths["trades"], lines_of(all_trades)[:1])
    for name, extra in (("ReplayUnavailable", []), ("NonPositiveLiquidity", ["--liquidity-b", -1])):
        stderr = repmarket("replay", "--mode", "simulated", *extra, *data_args(paths),
                           "--out", tmp / "untraded_replay", status=2)
        assert_error(stderr, name)
    repmarket("validate", *data_args(paths), "--out", paths["outcomes"], status=2)


def header_only_tables(tmp: Path) -> None:
    """Header-only tables report a null Pooled replication rate; pvalue exits 2."""
    paths = synth(tmp / "header_only")
    for table in TABLES:
        write_lines(paths[table], lines_of(paths[table])[:1])
    repmarket("report", *data_args(paths), "--out", tmp / "header_only_report")
    [pooled] = read_json(tmp / "header_only_report" / "report.json")["table1"]["rows"]
    assert pooled["project"] == "Pooled" and pooled["replication_rate"] is None, pooled
    stderr = repmarket("pvalue", *data_args(paths), "--out", tmp / "header_only_pvalue", status=2)
    assert_error(stderr, "DegenerateInput")


def bad_mapping_and_directory_exit_2(tmp: Path) -> None:
    """A mapping column missing from its header, a mapping that is not an
    object and a directory as a table each exit 2."""
    paths = synth(tmp / "mapped")
    (tmp / "direction.json").write_text('{"trades": {"side": "direction"}}\n', encoding="utf-8")
    (tmp / "list.json").write_text("[]\n", encoding="utf-8")
    for name, mapping in (("MissingColumn", "direction"), ("InvalidMapping", "list")):
        stderr = repmarket("validate", *data_args(paths), "--mapping", tmp / f"{mapping}.json",
                           "--out", tmp / "mapped_validate", status=2)
        assert_error(stderr, name)
    stderr = repmarket("validate", *data_args({**paths, "trades": tmp / "mapped"}),
                       "--out", tmp / "mapped_validate", status=2)
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: "), stderr


def report_writes_discrepancies(tmp: Path) -> None:
    """A report writes a non-empty discrepancies.csv next to report.json."""
    paths = synth(tmp / "data")
    repmarket("report", *data_args(paths), "--out", tmp / "report")
    assert_nonempty(tmp / "report" / "discrepancies.csv")


def one_table_feeds_report_evaluate_and_aggregate(tmp: Path) -> None:
    """evaluate's scores.csv and aggregate's aggregates.csv are byte for byte
    the files report writes: one forecast table feeds all three commands."""
    paths = synth(tmp / "data")
    for command in ("report", "evaluate", "aggregate"):
        repmarket(command, *data_args(paths), "--out", tmp / command)
    for command, name in (("evaluate", "scores.csv"), ("aggregate", "aggregates.csv")):
        assert_nonempty(tmp / command / name)
        assert (tmp / command / name).read_bytes() == (tmp / "report" / name).read_bytes(), name


def out_of_range_option_exits_2(tmp: Path) -> None:
    """A LOESS span of 0 exits 2 as an OutOfRange and leaves no --out directory."""
    paths = synth(tmp / "data")
    stderr = repmarket("dynamics", "--loess-span", 0, *data_args(paths),
                       "--out", tmp / "dynamics", status=2)
    assert len(stderr.splitlines()) == 1, stderr
    assert_error(stderr, "OutOfRange")
    assert not (tmp / "dynamics").exists(), "an --out directory is left"


def field_over_the_limit_exits_2(tmp: Path) -> None:
    """A field longer than csv's field limit (131,072 characters) in any table
    exits 2 as an UnreadableInput that names its line."""
    for table in TABLES:
        paths = synth(tmp / table)
        lines = lines_of(paths[table])
        lines[2] = "x" * 200_000 + lines[2][lines[2].index(","):]
        write_lines(paths[table], lines)
        stderr = repmarket("validate", *data_args(paths), "--out", tmp / f"{table}_out", status=2)
        assert len(stderr.splitlines()) == 1, stderr
        assert_error(stderr, "UnreadableInput")
        assert f"{table} table file" in stderr and "line 3: field larger than field limit" in stderr


def window_from_1970_nulls_the_hours_curve(tmp: Path) -> None:
    """A market open from 1970 (about 438,000 hours) leaves the hours curve
    undefined: report and dynamics exit 0 with null hours milestones and
    remove the curve_hours.csv an earlier run left in the same --out."""
    paths = synth(tmp / "since_1970")
    with open(paths["outcomes"], newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    for row in rows:
        if row[header.index("finding_id")] == "F001":
            row[header.index("market_open")] = "1970-01-01T00:00:00.002Z"
    with open(paths["outcomes"], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    for command in ("report", "dynamics"):
        out = tmp / f"since_1970_{command}"
        out.mkdir()
        (out / "curve_hours.csv").write_text("stale\n", encoding="utf-8")
        repmarket(command, *data_args(paths), "--out", out)
        assert not (out / "curve_hours.csv").exists(), "an earlier curve_hours.csv is left"
        dyn = read_json(out / f"{command}.json")
        hours = {k: v for k, v in dyn.get("dynamics", dyn).items()
                 if k.startswith("milestone_hours_")}
        assert hours and set(hours.values()) == {None}, hours


CHECKS = (
    every_command_runs,
    synth_bytes_repeat_and_round_trip,
    replay_writes_the_per_market_rows,
    malformed_fixture_fails_validation,
    overestimation_null_on_its_own_pairs,
    asymmetry_null_on_its_own_table,
    timestamp_forms_report_alike,
    byte_order_mark_reports_alike,
    null_table2_removes_an_earlier_csv,
    untraded_replay_and_file_out_exit_2,
    header_only_tables,
    bad_mapping_and_directory_exit_2,
    field_over_the_limit_exits_2,
    report_writes_discrepancies,
    one_table_feeds_report_evaluate_and_aggregate,
    out_of_range_option_exits_2,
    window_from_1970_nulls_the_hours_curve,
)


def main(argv: list[str]) -> int:
    if argv:
        COMMAND[:] = argv
    failed = []
    for check in CHECKS:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                check(Path(tmp))
            except Exception:  # noqa: BLE001  (report every check, then fail)
                failed.append(check.__name__)
                print(f"FAIL {check.__name__}\n{traceback.format_exc()}", flush=True)
            else:
                print(f"ok   {check.__name__}", flush=True)
    print(f"{len(CHECKS) - len(failed)} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
