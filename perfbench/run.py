"""Benchmark of the repmarket CLI on one synthetic workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 36 --trace 0

Builds the workload's three tables with `repmarket.synth` from `--seed`, then
runs set-up and the `validate`, `replay --mode simulated`, `evaluate`,
`dynamics` and `report` subcommands in-process through `repmarket.cli.main`,
one at a time (a closed loop with one client), round-robin until `--seconds`
have passed. Every repetition's outputs are checked against computations
made apart from the program (see checks.py). The last line of standard
output is one JSON object: with `--trace 0` the end-to-end metrics, each the
median of its samples in the run, scaled to the reference host speed (see
`calibrate`); with `--trace 1` the per-layer metrics of a traced run (see
tracer.py).

The program is imported from `src/` next to this directory; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# Set before the interpreter starts, so also before numpy loads BLAS, by
# re-executing this script; none of them changes what the program computes.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def pin_environment(argv: list[str]) -> None:
    """Re-execute this script under PINNED_ENV unless it is already set."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
              {**os.environ, **PINNED_ENV})


if __name__ == "__main__":
    pin_environment(sys.argv[1:])

import numpy as np  # noqa: E402  (loaded after the environment is pinned)

import checks  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

# Arguments of repmarket.synth.synthetic_dataset; every finding is surveyed
# by the first trader and by each other trader with probability 0.8.
WORKLOADS = {
    # 1x twin of the pooled data in reference.py: 103 findings, a mean of 76
    # trades per market (about 7,800 trades against the published 7,850) and
    # about 72 survey responses per finding (7,400 against 7,380). synth draws
    # trade counts uniformly, so a mean of 76 caps markets at 126 trades, not
    # the published maximum of 193.
    "paper": dict(n_markets=103, n_traders=89, min_trades=26, max_trades=126),
    # 6x the findings with short markets and few forecasters: row counts
    # close to `paper`, per-finding work (scans, curve alignment) dominates
    "wide": dict(n_markets=600, n_traders=17, min_trades=10, max_trades=30),
    # few long markets: per-trade and per-grid-point work (LOESS on a
    # ~2,500-point trades grid, replay of ~40k trades) dominates
    "deep": dict(n_markets=20, n_traders=40, min_trades=1500, max_trades=2500),
}
LIQUIDITY_B = 100.0
MIN_ROUNDS = 3
MAX_LOOP_S = 120.0   # the whole run must end within 180 s
RSS_TIMEOUT_S = 45.0

# The host is shared: its speed moved by up to 30% within minutes, in phases
# longer than a run, and a fixed loop slowed down with the program (r = 0.8).
# So each sample is timed between two runs of `calibrate` and scaled to the
# reference host speed: seconds x CALIBRATION_REF_S / calibrate's mean time.
# A change to repmarket cannot move `calibrate`.
CALIBRATION_REF_S = 0.014  # about calibrate()'s median on the reference VM
_CAL_X = np.random.default_rng(0).random((400, 3))
_CAL_Y = np.random.default_rng(1).random(400)
_CAL_SORT = np.random.default_rng(2).random(100_000)


def calibrate() -> float:
    """Seconds for a fixed mix of pure-Python and numpy work that shares no code
    with repmarket, like the program's own mix of the two."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(40_000):
        acc += i * i % 7
        table[i & 1023] = acc
    ",".join(str(v) for v in range(5_000)).split(",")
    for _ in range(150):
        np.linalg.lstsq(_CAL_X, _CAL_Y, rcond=None)
    np.sort(_CAL_SORT)
    return time.perf_counter() - t0


E2E_UNITS = {"setup_s": "s", "validate_s": "s", "replay_sim_s": "s", "evaluate_s": "s",
             "dynamics_s": "s", "report_s": "s", "report_peak_rss_mb": "MB"}


class UnexpectedExit(Exception):
    """A command returned an exit code other than 0."""


def import_program():
    if not (SRC / "repmarket" / "__init__.py").is_file():
        sys.exit(f"run.py: no repmarket sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from repmarket import cli, synth
    return cli, synth


class Bench:
    """One workload and seed: operations, their checks and their samples."""

    def __init__(self, cli, synth, params: dict, seed: int, workdir: Path, tracer=None):
        self.cli, self.synth = cli, synth
        self.params = params
        self.seed = seed
        self.fixture = workdir / "fixture"
        self.out = workdir / "out"
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.host_speed: list[float] = []  # CALIBRATION_REF_S / calibrate time
        self.layer_rounds: list[dict[str, float]] = []
        self.attempted = self.failed = 0
        self.correct = True
        self.oracle = None
        self.fixture_digest = self.report_digest = None
        self.commands = [
            ("validate_s", ["validate"], checks.check_validate),
            ("replay_sim_s", ["replay", "--mode", "simulated",
                              "--liquidity-b", repr(LIQUIDITY_B)], checks.check_replay),
            ("evaluate_s", ["evaluate"], checks.check_evaluate),
            ("dynamics_s", ["dynamics"], checks.check_dynamics),
        ]

    # -- operations ---------------------------------------------------

    def _op(self, metric: str, action, check) -> None:
        """Attempt one timed operation and check its output."""
        self.attempted += 1
        try:
            elapsed, result = action()
        except Exception:
            self.failed += 1
            print(f"run.py: {metric}: operation failed", file=sys.stderr)
            traceback.print_exc()
            return
        try:
            check(result)
        except Exception as exc:  # a malformed output fails its check too
            self.failed += 1
            self.correct = False
            print(f"run.py: {metric}: check failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return
        self.samples[metric].append(elapsed)

    def _timed(self, name: str, fn, traced: bool = True):
        """Run fn once: its time scaled to the reference host speed, and its result."""
        gc.collect()
        before = calibrate()
        if self.tracer is None or not traced:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        else:
            with self.tracer.installed():
                t0 = time.perf_counter()
                with self.tracer.span(f"cmd.{name}"):
                    result = fn()
                elapsed = time.perf_counter() - t0
        speed = CALIBRATION_REF_S / ((before + calibrate()) / 2)
        self.host_speed.append(speed)
        return elapsed * speed, result

    def _setup(self):
        def build():
            ds = self.synth.synthetic_dataset(seed=self.seed, liquidity_b=LIQUIDITY_B,
                                              **self.params)
            return ds, self.synth.write_fixture(ds, self.fixture)
        return self._timed("setup", build)

    def _check_setup(self, result) -> None:
        ds, paths = result
        if self.oracle is None:
            self.oracle = checks.Oracle(ds, LIQUIDITY_B)
        self.fixture_digest = checks.check_fixture(self.oracle, ds, paths,
                                                   self.fixture_digest)

    def data_args(self, out: Path) -> list[str]:
        return ["--outcomes", str(self.fixture / "outcomes.csv"),
                "--surveys", str(self.fixture / "surveys.csv"),
                "--trades", str(self.fixture / "trades.csv"), "--out", str(out)]

    def _command(self, argv: list[str], traced: bool = True):
        out = self.out / argv[0]
        shutil.rmtree(out, ignore_errors=True)
        full = [*argv, *self.data_args(out)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return self.cli.main(full)
        elapsed, rc = self._timed(argv[0], call, traced)
        if rc != 0:
            raise UnexpectedExit(f"repmarket {argv[0]} exited with {rc}")
        return elapsed, out

    def _check_report(self, out):
        self.report_digest = checks.check_report(self.oracle, out, self.report_digest)

    def round(self) -> None:
        """Set-up, then each command once; under a tracer, also an untraced report."""
        first_span = len(self.tracer.spans) if self.tracer else 0
        self._op("setup_s", self._setup, self._check_setup)
        if self.oracle is None:
            return
        for metric, argv, check in self.commands:
            self._op(metric, lambda: self._command(argv),
                     lambda out: check(self.oracle, out))
        self._op("report_s", lambda: self._command(["report"]), self._check_report)
        if self.tracer is None:
            return
        layers = self.tracer.layer_metrics(first_span)
        layers.update(self.tracer.take_counts())
        layers["cli.bytes_written"] = sum(
            f.stat().st_size for f in self.out.rglob("*") if f.is_file())
        self.layer_rounds.append(layers)
        self.check_counts_repeat()
        self._op("report_untraced_s", lambda: self._command(["report"], traced=False),
                 self._check_report)

    def check_counts_repeat(self) -> None:
        """Call and volume counts are fixed by the inputs: every round must repeat
        the first round's counts exactly, or the run is not correct."""
        def counts(layers):
            return {k: v for k, v in layers.items() if not k.endswith("_s")}
        first, last = counts(self.layer_rounds[0]), counts(self.layer_rounds[-1])
        if last != first:
            self.correct = False
            changed = sorted(k for k in first.keys() | last.keys()
                             if first.get(k) != last.get(k))
            print("run.py: counts differ from the first round: "
                  + ", ".join(f"{k} {first.get(k)} -> {last.get(k)}" for k in changed),
                  file=sys.stderr)

    def peak_rss(self) -> None:
        """Run `report` once in a fresh interpreter and read its peak RSS."""
        out = self.out / "report_rss"
        shutil.rmtree(out, ignore_errors=True)
        code = ("import json, resource, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "from repmarket.cli import main\n"
                "rc = main(sys.argv[2:])\n"
                "kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "print(json.dumps({'rc': rc, 'maxrss_kib': kib}))\n")

        def action():
            proc = subprocess.run(
                [sys.executable, "-c", code, str(SRC), "report", *self.data_args(out)],
                capture_output=True, text=True, timeout=RSS_TIMEOUT_S,
                env={**os.environ, **PINNED_ENV})
            if proc.returncode != 0:
                raise UnexpectedExit(f"fresh-interpreter report exited with "
                                     f"{proc.returncode}: {proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["rc"] != 0:
                raise UnexpectedExit(f"repmarket report exited with {result['rc']}")
            return result["maxrss_kib"] / 1024.0, out

        self._op("report_peak_rss_mb", action, self._check_report)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(args) -> dict:
    cli, synth = import_program()
    tracer = Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(cli, synth, WORKLOADS[args.workload], args.seed, workdir, tracer)
    try:
        start = time.perf_counter()
        rounds = 0
        while True:
            bench.round()
            rounds += 1
            elapsed = time.perf_counter() - start
            # whole rounds only; stop before a round would end past --seconds
            if (rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > args.seconds
                    or elapsed > MAX_LOOP_S or bench.oracle is None):
                break
        if tracer is None:
            bench.peak_rss()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"run.py: host speed {statistics.median(bench.host_speed):.3f} of the "
          f"reference (median of {len(bench.host_speed)})", file=sys.stderr)
    for metric, values in sorted(bench.samples.items()):
        print(f"run.py: {metric}: median {statistics.median(values):.4f} of "
              f"{len(values)} samples: {' '.join(f'{v:.3f}' for v in values)}",
              file=sys.stderr)
    if tracer is None:
        metrics = e2e_summary(bench)
    else:
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path)
        print(f"run.py: {len(tracer.spans)} spans -> {trace_path}", file=sys.stderr)
        for command, shares in tracer.command_shares().items():
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
            print(f"run.py: {command} self-time shares: "
                  + ", ".join(f"{m} {v:.1%}" for m, v in top), file=sys.stderr)
        metrics = layer_summary(bench)
    return {"correct": bench.correct, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def e2e_summary(bench: Bench) -> dict:
    """End-to-end metrics: the median of each metric's samples in the run."""
    return {m: {"value": statistics.median(bench.samples[m]), "unit": unit}
            for m, unit in E2E_UNITS.items() if bench.samples[m]}


def layer_summary(bench: Bench) -> dict:
    """Per-layer metrics: medians over the traced rounds of each round's totals."""
    names = sorted({k for r in bench.layer_rounds for k in r})
    out = {}
    for name in names:
        values = [r.get(name, 0) for r in bench.layer_rounds]
        is_time = name.endswith("_s")  # counts repeat exactly (check_counts_repeat)
        out[name] = {"value": statistics.median(values) if is_time else values[0],
                     "unit": "s" if is_time else ("bytes" if name.endswith("bytes_written")
                                                  else "count")}
    traced, untraced = bench.samples["report_s"], bench.samples["report_untraced_s"]
    if traced and untraced:
        out["trace.report_overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    return out


if __name__ == "__main__":
    args = parse_args(sys.argv[1:])
    result = run(args)
    expected = LAYER_METRICS if args.trace else tuple(E2E_UNITS)
    missing = sorted(set(expected) - set(result["metrics"]))
    if missing:
        sys.exit(f"run.py: no figure for {', '.join(missing)}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)
