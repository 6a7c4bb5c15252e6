"""The options of every subcommand, pinned as literals: a lost, renamed or
re-defaulted option fails here before any run reads it."""

import argparse

import pytest

from repmarket.cli import build_parser

# vars(parse_args(argv)) without `func`, for the command alone (synth needs --seed)
DEFAULTS = {
    "validate": {"command": "validate", "outcomes": None, "surveys": None, "trades": None,
                 "mapping": None, "out": "out"},
    "replay": {"command": "replay", "outcomes": None, "surveys": None, "trades": None,
               "mapping": None, "out": "out", "finding": None, "mode": "price_taking",
               "liquidity_b": None},
    "aggregate": {"command": "aggregate", "outcomes": None, "surveys": None, "trades": None,
                  "mapping": None, "out": "out", "method": None, "threshold": 0.5},
    "evaluate": {"command": "evaluate", "outcomes": None, "surveys": None, "trades": None,
                 "mapping": None, "out": "out", "threshold": 0.5, "yates": False},
    "dynamics": {"command": "dynamics", "outcomes": None, "surveys": None, "trades": None,
                 "mapping": None, "out": "out", "loess_span": 0.75, "loess_degree": 2,
                 "cutoff_hours": 168.0},
    "pvalue": {"command": "pvalue", "outcomes": None, "surveys": None, "trades": None,
               "mapping": None, "out": "out", "pvalue_threshold": 0.005},
    "report": {"command": "report", "outcomes": None, "surveys": None, "trades": None,
               "mapping": None, "out": "out", "threshold": 0.5, "yates": False,
               "pvalue_threshold": 0.005, "loess_span": 0.75, "loess_degree": 2},
    "synth": {"command": "synth", "seed": 1, "markets": 12, "traders": 8, "liquidity_b": 100.0,
              "out": "out"},
}

OPTIONS = {
    "validate": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out"},
    "replay": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out",
               "--finding", "--mode", "--liquidity-b"},
    "aggregate": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out",
                  "--method", "--threshold"},
    "evaluate": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out",
                 "--threshold", "--yates"},
    "dynamics": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out",
                 "--loess-span", "--loess-degree", "--cutoff-hours"},
    "pvalue": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out",
               "--pvalue-threshold"},
    "report": {"-h", "--help", "--outcomes", "--surveys", "--trades", "--mapping", "--out",
               "--threshold", "--yates", "--pvalue-threshold", "--loess-span",
               "--loess-degree"},
    "synth": {"-h", "--help", "--seed", "--markets", "--traders", "--liquidity-b", "--out"},
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    [commands] = (a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def test_every_command_is_pinned():
    assert set(_subparsers()) == set(DEFAULTS) == set(OPTIONS)


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_command_parses_to_its_pinned_defaults(command):
    argv = ["synth", "--seed", "1"] if command == "synth" else [command]
    parsed = vars(build_parser().parse_args(argv))
    parsed.pop("func")
    assert parsed == DEFAULTS[command]
    # equal floats must also be floats, not ints that compare equal
    assert {k: type(v) for k, v in parsed.items()} == {
        k: type(v) for k, v in DEFAULTS[command].items()}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_takes_its_pinned_options(command):
    parser = _subparsers()[command]
    assert {s for a in parser._actions for s in a.option_strings} == OPTIONS[command]
