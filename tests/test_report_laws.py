"""Metamorphic laws of the whole pipeline: a change of the input tables that
should move no output leaves every file `report` writes byte-identical.
Moving every market time and trade time by one offset keeps every window and
every hour since the open; giving every forecaster and trader id one prefix
keeps who is who and how the ids sort."""

import dataclasses
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

from repmarket.cli import main  # noqa: E402
from repmarket.dataset import write_dataset  # noqa: E402

from helpers import DAY_MS, make_dataset  # noqa: E402
from test_load_laws import valid_tables  # noqa: E402

SHIFT_MS = 3 * DAY_MS + 1
PREFIX = "pre:"  # none of its characters is in the drawn ids' alphabet


def _report(findings, surveys, trades) -> dict[str, bytes]:
    """The bytes of each file `report` writes for the written tables."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {table: tmp / f"{table}.csv" for table in ("outcomes", "surveys", "trades")}
        write_dataset(make_dataset(findings, surveys, trades), *paths.values())
        out = tmp / "report"
        args = [arg for table, path in paths.items() for arg in (f"--{table}", str(path))]
        assert main(["report", *args, "--out", str(out)]) == 0
        return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@settings(max_examples=25, deadline=None)
@given(valid_tables())
def test_shifting_every_time_moves_no_output(tables):
    findings, surveys, trades = tables
    shifted = ([dataclasses.replace(f, market_open=f.market_open + SHIFT_MS,
                                    market_close=f.market_close + SHIFT_MS) for f in findings],
               surveys,
               [dataclasses.replace(t, timestamp=t.timestamp + SHIFT_MS) for t in trades])
    assert _report(*shifted) == _report(*tables)


@settings(max_examples=25, deadline=None)
@given(valid_tables())
def test_prefixing_every_forecaster_and_trader_id_moves_no_output(tables):
    findings, surveys, trades = tables
    prefixed = (findings,
                [dataclasses.replace(s, forecaster_id=PREFIX + s.forecaster_id) for s in surveys],
                [dataclasses.replace(t, trader_id=PREFIX + t.trader_id) for t in trades])
    assert _report(*prefixed) == _report(*tables)
