"""Span tracer for the benchmark's traced run.

`Tracer.installed()` replaces every binding of the traced public functions
in the already-imported `repmarket` modules (for example `dataset.trades_for`
and also the copies imported into `aggregate`, `dynamics`, `lmsr` and `cli`)
with a wrapper that records a span, and restores the originals on exit. A
span is (name, start, end, parent); the benchmark opens the root span around
each command. Spans stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# span name -> per-layer metric its self time adds to
SPANNED = {
    "dataset.trades_for": "dataset.trades_for_s",
    "dataset.surveys_for": "dataset.surveys_for_s",
    "dataset.load_dataset": "dataset.load_dataset_s",
    "dataset.validate": "dataset.validate_s",
    "dataset.write_dataset": "dataset.write_dataset_s",
    "aggregate.aggregate_all": "aggregate.aggregate_all_s",
    "dynamics.mean_error_curve": "dynamics.mean_error_curve_s",
    "dynamics.late_trade_smoothing": "dynamics.late_trade_smoothing_s",
    "dynamics.loess_fit": "dynamics.loess_fit_s",
    "lmsr.replay": "lmsr.replay_s",
    "evaluate.score": "evaluate.score_s",
    "evaluate.build_table1": "evaluate.tables_s",
    "evaluate.build_table2": "evaluate.tables_s",
    "evaluate.overestimation_tests": "evaluate.tests_s",
    "evaluate.error_difference_test": "evaluate.tests_s",
    "evaluate.extremeness_test": "evaluate.tests_s",
    "evaluate.accuracy_comparison_test": "evaluate.tests_s",
    "evaluate.asymmetry_tests": "evaluate.tests_s",
    "evaluate.forecast_correlations": "evaluate.tests_s",
    "stats.regularized_incomplete_beta": "stats.kernel_s",
    "stats.regularized_upper_gamma": "stats.kernel_s",
    "stats.student_t_two_tailed": "stats.kernel_s",
    "stats.pearson": "stats.kernel_s",
    "stats.average_ranks": "stats.kernel_s",
    "stats.spearman": "stats.kernel_s",
    "stats.paired_t": "stats.kernel_s",
    "stats.chi_square_1df": "stats.kernel_s",
    "stats.ols_simple": "stats.kernel_s",
    "stats.ols_coef_test": "stats.kernel_s",
    "reference.build_discrepancies": "reference.build_discrepancies_s",
    "cli.run_pipeline": "cli.run_pipeline_s",
    "cli._write_json": "cli.write_s",
    "aggregate.write_aggregates": "cli.write_s",
    "evaluate.write_scores": "cli.write_s",
    "evaluate.write_table1_csv": "cli.write_s",
    "evaluate.write_table2_csv": "cli.write_s",
    "dynamics.write_curves": "cli.write_s",
    "synth.synthetic_dataset": "synth.synthetic_dataset_s",
}

# call counts taken from the spans: metric -> span names counted
SPAN_COUNTS = {
    "dataset.trades_for_calls": ("dataset.trades_for",),
    "dataset.surveys_for_calls": ("dataset.surveys_for",),
    "stats.calls": tuple(n for n in SPANNED if n.startswith("stats.")),
}

# called too often for a span each (once per trade): counted only
COUNTED = {"lmsr.execute_trade": "lmsr.execute_trade_calls"}

VOLUMES = ("dataset.rows_read", "dynamics.grid_points", "dynamics.loess_points",
           "cli.bytes_written")

# every per-layer metric a traced run reports
LAYER_METRICS = tuple(sorted({*SPANNED.values(), *SPAN_COUNTS, *COUNTED.values(),
                              *VOLUMES, "trace.report_overhead_s"}))


def _volume(name: str, args, result) -> tuple[str, int] | None:
    """Work volume of one call, fixed by the inputs."""
    if name == "dataset.load_dataset":
        counts = result.load_report.counts
        return "dataset.rows_read", sum(c["lines"] for c in counts.values())
    if name == "dynamics.mean_error_curve":
        return "dynamics.grid_points", len(result.x)
    if name == "dynamics.loess_fit":
        return "dynamics.loess_points", len(args[0].x)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (name, self.spans[index][1], time.perf_counter(), parent)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            volume = _volume(name, args, result)
            if volume:
                self.counts[volume[0]] += volume[1]
            return result
        return wrapper

    def _counted(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every module's binding of each traced function; undo on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "repmarket" or n.startswith("repmarket."))]
        patched = []
        targets = [(n, self._spanned) for n in SPANNED]
        targets += [(n, lambda n, fn: self._counted(COUNTED[n], fn)) for n in COUNTED]
        for qualname, make in targets:
            module_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"repmarket.{module_name}"], attr)
            wrapper = make(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patched.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def self_times(self, first: int = 0) -> list[float]:
        """Each span's time minus the part its child spans cover, for the spans
        recorded since index `first`."""
        spans = self.spans[first:]
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent is not None and parent >= first:
                own[parent - first] -= end - start
        return own

    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Self times and counts of the spans recorded since index `first`."""
        spans = self.spans[first:]
        out: dict[str, float] = {metric: 0.0 for metric in set(SPANNED.values())}
        for (name, *_), own in zip(spans, self.self_times(first)):
            if name in SPANNED:
                out[SPANNED[name]] += own
        names = Counter(name for name, *_ in spans)
        for metric, counted in SPAN_COUNTS.items():
            out[metric] = sum(names[n] for n in counted)
        return out

    def command_shares(self) -> dict[str, dict[str, float]]:
        """Per root span name, each layer's self time as a share of the root's time."""
        roots: list[int] = []
        totals: Counter = Counter()
        layers: dict[str, Counter] = defaultdict(Counter)
        for i, ((name, start, end, parent), own) in enumerate(
                zip(self.spans, self.self_times())):
            root = i if parent is None else roots[parent]
            roots.append(root)
            command = self.spans[root][0]
            if parent is None:
                totals[command] += end - start
            elif name in SPANNED:
                layers[command][SPANNED[name]] += own
        return {c: {m: t / totals[c] for m, t in layers[c].items()} for c in totals}

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
