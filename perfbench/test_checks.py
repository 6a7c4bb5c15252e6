"""Self-tests of the benchmark: each output check passes on the program's
output and fails on a deliberately corrupted copy of it; the tracer counts
calls through every binding and restores them.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from repmarket import aggregate, cli, dataset, synth  # noqa: E402

SMALL = dict(n_markets=24, n_traders=12, min_trades=15, max_trades=40)
TINY = dict(n_markets=12, n_traders=8, min_trades=15, max_trades=30)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One round of the benchmark on SMALL: its outputs are under bench.out."""
    bench = run.Bench(cli, synth, SMALL, 5, tmp_path_factory.mktemp("bench"))
    bench.round()
    assert (bench.attempted, bench.failed, bench.correct) == (6, 0, True)
    return bench


def _check(bench, name: str, out: Path, first_digest=None) -> None:
    if name == "report":
        checks.check_report(bench.oracle, out, first_digest)
    else:
        check = next(c for _, argv, c in bench.commands if argv[0] == name)
        check(bench.oracle, out)


def test_checks_pass_on_program_output(bench):
    ds, paths = bench._setup()[1]
    first = checks.check_fixture(bench.oracle, ds, paths, None)
    assert checks.check_fixture(bench.oracle, ds, paths, first) == first
    for name in ("validate", "replay", "evaluate", "dynamics"):
        _check(bench, name, bench.out / name)
    digest = checks.check_report(bench.oracle, bench.out / "report", None)
    checks.check_report(bench.oracle, bench.out / "report", digest)


# -- corruptions -------------------------------------------------------

def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _bump(text: str, delta: float = 1e-6) -> str:
    return repr(float(text) + delta)


def _set(doc, keys, fn):
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = fn(doc[keys[-1]])


def _row_of(method):
    def edit(rows):
        row = next(r for r in rows[1:] if r[1] == method)
        row[2] = _bump(row[2])
    return edit


def _cell(row: int, col: int, fn=_bump):
    def edit(rows):
        rows[row][col] = fn(rows[row][col])
    return edit


def _swap_rows(i: int, j: int):
    def edit(rows):
        rows[i], rows[j] = rows[j], rows[i]
    return edit


def _keep_header(rows):
    del rows[1:]


def _json(*keys, fn=lambda v: v + 1e-6):
    return lambda doc: _set(doc, keys, fn)


CORRUPTIONS = {
    "validation_not_ok": ("validate", "validation.json",
                          _json("validation", "ok", fn=lambda v: False)),
    "validation_count": ("validate", "validation.json",
                         _json("validation", "counts", "trades", "records",
                               fn=lambda v: v + 1)),
    "replay_price": ("replay", "replay.csv", _cell(5, 2, lambda v: _bump(v, 1e-7))),
    "replay_order": ("replay", "replay.csv", _swap_rows(3, 4)),
    "scores_forecast": ("evaluate", "scores.csv", _row_of(checks.MARKET)),
    "scores_outcome": ("evaluate", "scores.csv", _cell(1, 3, lambda v: str(1 - int(v)))),
    "evaluation_pearson": ("evaluate", "evaluation.json",
                           _json("correlations", "pearson_outcome_market")),
    "evaluation_spearman": ("evaluate", "evaluation.json",
                            _json("correlations", "spearman_market_survey")),
    "evaluation_pvalue": ("evaluate", "evaluation.json",
                          _json("tests", "error_difference", "p_value",
                                fn=lambda v: v * 1.01)),
    "evaluation_quadrant": ("evaluate", "evaluation.json",
                            _json("quadrants", "market", "predicted_fail",
                                  fn=lambda v: v + 1)),
    "curve_origin_value": ("dynamics", "curve_trades.csv",
                           _cell(1, 1, lambda v: "0.49")),
    "curve_origin_contributing": ("dynamics", "curve_trades.csv",
                                  _cell(1, 3, lambda v: "1")),
    "curve_endpoint": ("dynamics", "curve_trades.csv", _cell(-1, 1)),
    "curve_alignment": ("dynamics", "curve_hours.csv", _cell(100, 1)),
    "curve_contributing_decreases": ("dynamics", "curve_hours.csv",
                                     _cell(-1, 3, lambda v: str(int(v) - 1))),
    "curve_loess": ("dynamics", "curve_trades.csv", _cell(1, 2)),
    "late_smoothing_pvalue": ("dynamics", "dynamics.json",
                              _json("late_smoothing", "p_value", fn=lambda v: v * 0.9)),
    "report_counts": ("report", "report.json",
                      _json("counts", "trades", fn=lambda v: v + 1)),
    "report_table2_slope": ("report", "report.json", _json("table2", "slope")),
    "report_table2_intercept": ("report", "report.json", _json("table2", "intercept")),
    "report_table2_pvalue": ("report", "report.json",
                             _json("table2", "p_slope", fn=lambda v: v * 1.01)),
    "report_pearson": ("report", "report.json",
                       _json("correlations", "pearson_market_survey")),
    "report_test_pvalue": ("report", "report.json",
                           _json("tests", "asymmetry_market", "p_value",
                                 fn=lambda v: v * 1.01)),
    "report_test_statistic": ("report", "report.json",
                              _json("tests", "overestimation_survey", "statistic")),
    # row 211 is grid point 210, one of the points the LOESS check samples
    "report_curve_loess": ("report", "curve_hours.csv", _cell(211, 2)),
    "report_discrepancies_empty": ("report", "discrepancies.csv", _keep_header),
    **{f"aggregate_{m}": ("report", "aggregates.csv", _row_of(m)) for m in checks.METHODS},
    "aggregate_n_inputs": ("report", "aggregates.csv", _cell(1, 3, lambda v: str(int(v) + 1))),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_check_fails_on_corrupted_output(bench, tmp_path, case):
    name, filename, edit = CORRUPTIONS[case]
    out = tmp_path / name
    shutil.copytree(bench.out / name, out)
    path = out / filename
    (_edit_json if filename.endswith(".json") else _edit_csv)(path, edit)
    with pytest.raises(checks.CheckFailed):
        _check(bench, name, out)


def test_tiny_pvalue_is_checked_to_a_relative_tolerance(tmp_path):
    """On 400 findings Table 2's slope p-value is far below 1e-7; ten times it
    must fail, which an absolute tolerance would let pass."""
    if checks.scipy_stats is None:
        pytest.skip("p-values are checked against scipy")
    many = run.Bench(cli, synth, dict(n_markets=400, n_traders=4, min_trades=2,
                                      max_trades=4), 2, tmp_path)
    many.round()
    assert (many.failed, many.correct) == (0, True)
    path = many.out / "report" / "report.json"
    assert json.loads(path.read_text())["table2"]["p_slope"] < 1e-9
    _edit_json(path, _json("table2", "p_slope", fn=lambda v: v * 10))
    with pytest.raises(checks.CheckFailed):
        checks.check_report(many.oracle, path.parent, None)


def test_report_must_repeat_byte_for_byte(bench, tmp_path):
    first = checks.check_report(bench.oracle, bench.out / "report", None)
    out = tmp_path / "report"
    shutil.copytree(bench.out / "report", out)
    path = out / "report.json"
    path.write_text(path.read_text() + " ")  # same JSON, other bytes
    with pytest.raises(checks.CheckFailed):
        checks.check_report(bench.oracle, out, first)


def test_fixture_must_repeat_byte_for_byte(bench, tmp_path):
    ds, paths = bench._setup()[1]
    first = checks.check_fixture(bench.oracle, ds, paths, None)
    copies = {k: tmp_path / Path(p).name for k, p in paths.items()}
    for k, p in paths.items():
        shutil.copy(p, copies[k])
    copies["trades"].write_text(copies["trades"].read_text().replace("YES", "NO", 1))
    with pytest.raises(checks.CheckFailed):
        checks.check_fixture(bench.oracle, ds, copies, first)


def test_tracer_counts_every_binding_and_restores_it(tmp_path):
    original = dataset.trades_for
    traced = run.Bench(cli, synth, SMALL, 5, tmp_path, Tracer())
    traced._setup()
    first = len(traced.tracer.spans)
    traced._command(["report"])
    assert aggregate.trades_for is original and cli.trades_for is original
    layers = traced.tracer.layer_metrics(first)
    spans = traced.tracer.spans[first:]
    names = [s[0] for s in spans]
    # market_final_price, error_series on both axes, late smoothing, counts:
    # only reached if the copies in aggregate, dynamics and cli are patched
    assert layers["dataset.trades_for_calls"] == 5 * 24
    assert layers["dataset.surveys_for_calls"] == 4 * 24
    assert "aggregate.aggregate_all" in names and "dynamics.loess_fit" in names
    root = spans[0]
    assert root[0] == "cmd.report"
    self_total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert 0.0 < self_total <= root[2] - root[1]
    shares = traced.tracer.command_shares()["cmd.report"]
    assert 0.0 < sum(shares.values()) <= 1.0


def test_counts_that_do_not_repeat_make_the_run_incorrect(tmp_path):
    traced = run.Bench(cli, synth, TINY, 3, tmp_path, Tracer())
    traced.round()
    assert traced.correct
    traced.layer_rounds[0]["dataset.trades_for_calls"] += 1
    traced.round()
    assert not traced.correct


@pytest.mark.parametrize("trace", [0, 1])
def test_one_round_reports_every_metric_of_the_benchmark(tmp_path, trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    one = run.Bench(cli, synth, TINY, 3, tmp_path, Tracer() if trace else None)
    one.round()
    if trace:
        metrics, expected = run.layer_summary(one), spec["per_layer"]
        assert sorted(metrics) == sorted(LAYER_METRICS)
    else:
        one.peak_rss()
        metrics, expected = run.e2e_summary(one), spec["end_to_end"]
    assert (one.attempted, one.failed, one.correct) == (7, 0, True)
    assert ({name: m["unit"] for name, m in metrics.items()}
            == {m["name"]: m["unit"] for m in expected})
