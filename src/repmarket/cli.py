"""Command-line pipeline: validate, replay, aggregate, evaluate, dynamics,
p-value regression, full report, and synthetic fixture generation.

Outputs are deterministic for a given input and configuration; the
structured report (JSON) is the stable machine-readable form, the CSV files
are for humans and plotting.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import aggregate, dynamics, evaluate, lmsr, reference, synth
# trades_for stays bound here: code that reads or patches cli.trades_for relies on it
from .dataset import (DEFAULT_P_THRESHOLD, load_dataset, load_mapping, trade_counts,  # noqa: F401
                      trades_for, validate, write_csv)
from .errors import NoInputPath, OutputNotADirectory, RepmarketError, or_null

DATA_DIR_ENV = "REPMARKET_DATA_DIR"


def _resolve_path(explicit: str | None, default_name: str) -> Path:
    if explicit:
        return Path(explicit)
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        return Path(data_dir) / default_name
    raise NoInputPath(f"no path for {default_name}: pass --{default_name.split('.')[0]} "
                      f"or set {DATA_DIR_ENV}")


def _load(args):
    mapping = load_mapping(args.mapping) if args.mapping else None
    return load_dataset(
        _resolve_path(args.outcomes, "outcomes.csv"),
        _resolve_path(args.surveys, "surveys.csv"),
        _resolve_path(args.trades, "trades.csv"),
        mapping=mapping,
        p_threshold=getattr(args, "pvalue_threshold", DEFAULT_P_THRESHOLD),
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputNotADirectory(f"--out {str(out)!r} cannot be made a directory: "
                                  f"{exc.strerror}") from exc
    return out


def _write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _test_dict(result) -> dict | None:
    return None if result is None else dataclasses.asdict(result)


# ----------------------------------------------------------------------
# pipeline assembly: two stages that each subcommand slices
# ----------------------------------------------------------------------

def forecast_stage(ds, threshold: float = 0.5, yates: bool = False) -> tuple:
    """(forecasts, score rows, evaluation); the evaluation holds the tests
    (null where the data leave them undefined), quadrants and correlations."""
    forecasts = aggregate.aggregate_all(ds, threshold=threshold)
    scores = evaluate.score(forecasts, ds, threshold=threshold)

    over = evaluate.overestimation_tests(forecasts, ds)
    tests = {
        "error_difference": _test_dict(or_null(evaluate.error_difference_test, scores)),
        "extremeness": _test_dict(or_null(evaluate.extremeness_test, scores)),
        "accuracy_chi_square": _test_dict(
            or_null(evaluate.accuracy_comparison_test, scores, yates=yates)),
    }
    asymmetry = evaluate.asymmetry_tests(scores, yates=yates)
    quadrants = {}
    for method, name in evaluate.COMPARED.items():
        tests[f"overestimation_{name}"] = _test_dict(over[method])
        quad, result = asymmetry[method]
        tests[f"asymmetry_{name}"] = _test_dict(result)
        quadrants[name] = quad.to_dict()

    return forecasts, scores, {"tests": tests, "quadrants": quadrants,
                               "correlations": evaluate.forecast_correlations(scores)}


def dynamics_stage(ds, loess_cfg: dynamics.LoessConfig, fractions,
                   cutoff_hours: float) -> tuple[dict, dict]:
    """({axis label: (raw, smoothed) curve}, dynamics): the dynamics hold the
    milestone of each fraction on each axis and late-trade smoothing."""
    curves = {}
    dyn: dict[str, object] = {}
    for axis, label in ((dynamics.AXIS_TRADES, "trades"),
                        (dynamics.AXIS_HOURS, "hours")):
        raw = dynamics.mean_error_curve(ds, axis)
        # a grid too small to smooth is kept raw
        smoothed = or_null(dynamics.loess_fit, raw, loess_cfg) or raw
        curves[label] = (raw, smoothed)
        for fraction in fractions:
            milestone = or_null(dynamics.reduction_milestone, smoothed, fraction)
            dyn[f"milestone_{label}_{int(fraction * 100)}"] = (
                milestone and milestone.x_at_fraction)
    dyn["late_smoothing"] = _test_dict(
        or_null(dynamics.late_trade_smoothing, ds, cutoff_hours))
    return curves, dyn


def run_pipeline(ds, threshold: float = 0.5, yates: bool = False,
                 loess_cfg: dynamics.LoessConfig | None = None) -> dict:
    """Both stages plus the report-only parts: Tables 1 and 2, aggregator
    summaries, market sizes and the first-hour reduction. Table 2 cuts the
    p-value categories at the dataset's `p_threshold`.

    Returns {"report": ..., "scores": ..., "forecasts": ..., "curves": ...}.
    Pieces that are undefined on the given data (degenerate fixtures) are
    reported as null rather than failing the whole run.
    """
    loess_cfg = loess_cfg or dynamics.LoessConfig()
    forecasts, scores, evaluation = forecast_stage(ds, threshold=threshold, yates=yates)
    table2 = or_null(evaluate.build_table2, ds.markets(), ds.p_threshold)

    counts = trade_counts(ds)
    curves, convergence = dynamics_stage(ds, loess_cfg, (0.9,), cutoff_hours=168.0)
    dyn = {
        "trades_per_market_min": min(counts) if counts else None,
        "trades_per_market_max": max(counts) if counts else None,
        "trades_per_market_mean": sum(counts) / len(counts) if counts else None,
        **convergence,
        "first_hour_reduction_fraction": or_null(dynamics.reduction_share,
                                                 curves["hours"][1], 1.0),
    }

    report = {
        # the rows the analysis reads: those of the findings' groups
        "counts": {"findings": len(ds.finding_ids()), "trades": sum(counts),
                   "surveys": ds.survey_columns.bounds[-1] - ds.survey_columns.bounds[0]},
        "config": {"threshold": threshold, "p_threshold": ds.p_threshold,
                   "yates": yates, "loess_span": loess_cfg.span,
                   "loess_degree": loess_cfg.degree},
        "table1": evaluate.build_table1(ds, scores),
        "table2": table2,
        **evaluation,
        "aggregators": evaluate.aggregator_summaries(scores, aggregate.SURVEY_METHODS),
        "dynamics": dyn,
    }
    return {"report": report, "forecasts": forecasts, "scores": scores,
            "curves": curves}


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_validate(args) -> int:
    ds = _load(args)
    load, report = ds.load_report, validate(ds)
    out = _out_dir(args)
    _write_json({"load": load.to_dict(), "validation": report.to_dict()},
                out / "validation.json")
    print(f"records: {len(ds.findings)} findings, {len(ds.survey_columns)} surveys, "
          f"{len(ds.trade_columns)} trades")
    print(f"load errors: {len(load.errors)}; load warnings: {len(load.warnings)}; "
          f"validation errors: {len(report.errors)}; "
          f"validation warnings: {len(report.warnings)}")
    print(f"wrote {out / 'validation.json'}")
    return 0 if report.ok() and load.ok() else 1


def cmd_replay(args) -> int:
    ds = _load(args)
    fids = ds.finding_ids() if args.finding is None else [args.finding]
    # every market is replayed first so that a failure leaves no partial file
    rows, replayed = [], 0
    for fid in fids:
        prices = or_null(lmsr.replay, ds, fid, mode=args.mode, liquidity_b=args.liquidity_b)
        if prices is not None:  # an untraded market has no prices and gets no rows
            replayed += 1
            rows += ([fid, i, p] for i, p in enumerate(prices, start=1))
    path = _out_dir(args) / "replay.csv"
    write_csv(path, ["finding_id", "trade_index", "price"], rows)
    print(f"replayed {replayed} markets ({args.mode}) -> {path}")
    return 0


def cmd_aggregate(args) -> int:
    ds = _load(args)
    methods = tuple(args.method) if args.method else aggregate.ALL_METHODS
    forecasts = aggregate.aggregate_all(ds, methods=methods, threshold=args.threshold)
    out = _out_dir(args)
    aggregate.write_aggregates(forecasts, out / "aggregates.csv")
    print(f"{len(forecasts)} forecasts ({len(set(methods))} methods) -> "
          f"{out / 'aggregates.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    ds = _load(args)
    _, scores, evaluation = forecast_stage(ds, threshold=args.threshold, yates=args.yates)
    out = _out_dir(args)
    evaluate.write_scores(scores, out / "scores.csv")
    _write_json(evaluation, out / "evaluation.json")
    print(f"{len(scores)} score rows -> {out / 'scores.csv'}")
    print(f"tests -> {out / 'evaluation.json'}")
    return 0


def cmd_dynamics(args) -> int:
    ds = _load(args)
    cfg = dynamics.LoessConfig(span=args.loess_span, degree=args.loess_degree)
    curves, dyn = dynamics_stage(ds, cfg, (0.65, 0.9), args.cutoff_hours)
    out = _out_dir(args)
    for label, curve in curves.items():
        dynamics.write_curves(*curve, out / f"curve_{label}.csv")
    _write_json(dyn, out / "dynamics.json")
    print(f"curves -> {out / 'curve_trades.csv'}, {out / 'curve_hours.csv'}")
    print(f"milestones -> {out / 'dynamics.json'}")
    return 0


def cmd_pvalue(args) -> int:
    ds = _load(args)
    table2 = evaluate.build_table2(ds.markets(), ds.p_threshold)
    out = _out_dir(args)
    evaluate.write_table2_csv(table2, out / "table2.csv")
    _write_json(table2, out / "table2.json")
    print(f"slope {table2['slope']:.4f} (se {table2['se_slope']:.4f}), "
          f"r_squared {table2['r_squared']:.4f} -> {out / 'table2.csv'}")
    return 0


def cmd_report(args) -> int:
    ds = _load(args)
    cfg = dynamics.LoessConfig(span=args.loess_span, degree=args.loess_degree)
    result = run_pipeline(ds, threshold=args.threshold, yates=args.yates, loess_cfg=cfg)
    report = result["report"]
    out = _out_dir(args)
    aggregate.write_aggregates(result["forecasts"], out / "aggregates.csv")
    evaluate.write_scores(result["scores"], out / "scores.csv")
    evaluate.write_table1_csv(report["table1"], out / "table1.csv")
    _write_json(report["table1"], out / "table1.json")
    evaluate.write_table2_csv(report["table2"], out / "table2.csv")
    _write_json(report["table2"], out / "table2.json")
    for label, curve in result["curves"].items():
        dynamics.write_curves(*curve, out / f"curve_{label}.csv")
    _write_json(report, out / "report.json")
    header = ["metric", "computed", "published", "delta", "note"]
    write_csv(out / "discrepancies.csv", header,
              ([r[k] for k in header] for r in reference.build_discrepancies(report)))
    pooled = report["table1"]["rows"][-1]  # build_table1 always ends with the Pooled row
    print(f"pooled: {pooled['n_findings']} findings, {pooled['n_replicated']} replicated")
    print(f"report -> {out / 'report.json'}; discrepancies -> "
          f"{out / 'discrepancies.csv'}")
    return 0


def cmd_synth(args) -> int:
    ds = synth.synthetic_dataset(seed=args.seed, n_markets=args.markets,
                                 n_traders=args.traders, liquidity_b=args.liquidity_b)
    paths = synth.write_fixture(ds, _out_dir(args))
    print(f"seed {args.seed}: {len(ds.findings)} markets, {len(ds.trade_columns)} trades, "
          f"{len(ds.survey_columns)} survey responses")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # one parent parser per option group that several subcommands share
    data, threshold, yates, pvalue, loess = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    data.add_argument("--outcomes", help="outcomes (findings) CSV path")
    data.add_argument("--surveys", help="survey responses CSV path")
    data.add_argument("--trades", help="trades CSV path")
    data.add_argument("--mapping", help="column mapping JSON path")
    data.add_argument("--out", default="out", help="output directory (default: out)")
    threshold.add_argument("--threshold", type=float, default=0.5,
                           help="binarization threshold (default 0.5)")
    yates.add_argument("--yates", action="store_true",
                       help="apply continuity correction to chi-square tests")
    pvalue.add_argument("--pvalue-threshold", type=float, default=DEFAULT_P_THRESHOLD,
                        help="recategorize findings with a numeric p-value at this cut")
    loess.add_argument("--loess-span", type=float, default=0.75)
    loess.add_argument("--loess-degree", type=int, choices=(1, 2), default=2)

    parser = argparse.ArgumentParser(
        prog="repmarket",
        description="Replication prediction-market replay, aggregation, and "
                    "evaluation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load the three tables and audit invariants",
                       parents=[data])
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay", help="price time series per market", parents=[data])
    p.add_argument("--finding", help="replay a single market")
    p.add_argument("--mode", choices=[lmsr.PRICE_TAKING, lmsr.SIMULATED],
                   default=lmsr.PRICE_TAKING)
    p.add_argument("--liquidity-b", type=float, default=None,
                   help="liquidity for simulated replay")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("aggregate", help="per-finding aggregated forecasts",
                       parents=[data, threshold])
    p.add_argument("--method", action="append", choices=aggregate.ALL_METHODS,
                   help="repeatable; default: all methods")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("evaluate", help="score forecasts and run the tests",
                       parents=[data, threshold, yates])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("dynamics", help="error-reduction curves and milestones",
                       parents=[data, loess])
    p.add_argument("--cutoff-hours", type=float, default=168.0,
                   help="late-trade smoothing cutoff (default one week)")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("pvalue", help="p-value-category regression", parents=[data, pvalue])
    p.set_defaults(func=cmd_pvalue)

    p = sub.add_parser("report", help="full pipeline with discrepancy notes",
                       parents=[data, threshold, yates, pvalue, loess])
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic fixture dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--markets", type=int, default=12)
    p.add_argument("--traders", type=int, default=8)
    p.add_argument("--liquidity-b", type=float, default=lmsr.DEFAULT_LIQUIDITY)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RepmarketError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
