"""`lmsr.replay_markets` replays every market as `lmsr.replay` replays each
in the order of `finding_ids`, bit for bit, in both modes: untraded markets
give no rows, trades after a close are replayed, and the first market with a
trade a simulated replay refuses (no quantity, a sell, no side) raises what
`replay` raises for it. `replay` writes the same bytes as csv.writer writes
for the per-market rows, or exits 2 with the same error and writes nothing."""

import csv
import io
import random

import numpy as np
import pytest

from repmarket import cli, lmsr
from repmarket.errors import RepmarketError, or_null
from repmarket.synth import synthetic_dataset

from helpers import BASE_MS, HOUR_MS, make_dataset, make_finding, make_trade

MODES = [(lmsr.PRICE_TAKING, None), (lmsr.SIMULATED, 50.0), (lmsr.SIMULATED, 0.7),
         (lmsr.SIMULATED, None), (lmsr.SIMULATED, 0.0)]


def _per_market(ds, mode, b):
    """The rows of `replay` of each market in turn, as three columns."""
    fids, index, prices = [], [], []
    for fid in ds.finding_ids():
        got = or_null(lmsr.replay, ds, fid, mode=mode, liquidity_b=b)
        if got is not None:  # an untraded market gets no rows
            fids += [fid] * len(got)
            index += range(1, len(got) + 1)
            prices += got
    return fids, index, prices


def _outcome(fn, *args):
    """The three columns as lists, the prices by float.hex; or the exception's
    type and message."""
    try:
        fids, index, prices = fn(*args)
    except (RepmarketError, ValueError) as exc:
        return type(exc), str(exc)
    fids, index, prices = (c.tolist() if isinstance(c, np.ndarray) else list(c)
                           for c in (fids, index, prices))
    return fids, index, [p.hex() for p in prices]


def _dataset(seed):
    """Markets with and without trades, trades after a close, trades of an
    unknown finding and a repeated finding id; every eighth seed has a trade
    a simulated replay refuses."""
    rng = random.Random(seed)
    findings, trades = [], []
    for k in range(rng.randint(0, 6)):
        fid = f"F{k}"
        findings.append(make_finding(fid, close_ms=BASE_MS + 10 * HOUR_MS))
        for _ in range(rng.choice([0, 1, 3, 9])):
            trades.append(make_trade(fid, ts=BASE_MS + rng.randint(-2, 14) * HOUR_MS,
                                     side=rng.choice(["YES", "NO"]),
                                     quantity=rng.random() * 10.0 ** rng.randint(-3, 3),
                                     price=rng.random(), seq=len(trades)))
    if findings and rng.random() < 0.3:
        findings.append(make_finding(findings[0].finding_id, outcome=0))
    trades += [make_trade("X9", side="BUY", quantity=None, seq=len(trades) + i)
               for i in range(rng.randint(0, 2))]
    if trades and seed % 8 == 7:
        bad = {"quantity": None} if seed % 3 == 0 else (
            {"quantity": -1.0} if seed % 3 == 1 else {"side": "BUY"})
        at = rng.randrange(len(trades))
        t = trades[at]
        trades[at] = make_trade(t.finding_id, ts=t.timestamp, seq=t.seq, price=t.post_trade_price,
                                **{"side": t.side, "quantity": t.quantity, **bad})
    rng.shuffle(trades)
    return make_dataset(findings, trades=trades)


DATASETS = [pytest.param(lambda s=s: _dataset(s), id=f"memory{s}") for s in range(48)] + [
    pytest.param(lambda s=s: synthetic_dataset(seed=s, n_markets=5), id=f"synth{s}")
    for s in (1, 2)]


@pytest.mark.parametrize("mode, b", MODES)
@pytest.mark.parametrize("build", DATASETS)
def test_the_table_replay_is_the_per_market_replay(build, mode, b):
    ds = build()
    assert (_outcome(lmsr.replay_markets, ds, mode, b)
            == _outcome(_per_market, ds, mode, b))


def test_the_data_hold_each_case():
    """The seeds give untraded markets, unknown findings, late trades and each
    refused trade."""
    sets = [_dataset(s) for s in range(48)]
    outcomes = [_outcome(lmsr.replay_markets, ds, lmsr.SIMULATED, 50.0) for ds in sets]
    errors = [message for kind, message, *_ in outcomes if isinstance(kind, type)]
    assert any("without one" in e for e in errors)
    assert any("a trade of -1.0" in e for e in errors)
    assert any("'BUY'" in e for e in errors)
    assert any(0 in np.diff(ds.trade_columns.bounds) for ds in sets)
    assert any(len(ds.finding_ids()) == 0 for ds in sets)
    assert any(ds.trade_columns.bounds[0] > 0 for ds in sets)
    assert any(t.timestamp > ds.finding(t.finding_id).market_close
               for ds in sets for t in ds.trades if t.finding_id != "X9")


def _csv_bytes(columns) -> bytes:
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["finding_id", "trade_index", "price"])
    w.writerows(zip(*columns))
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("mode, b", MODES)
@pytest.mark.parametrize("seed", [0, 3, 7, 15, 23, 31, 39])
def test_the_command_writes_the_per_market_rows_or_the_same_error(tmp_path, monkeypatch, capsys,
                                                                   seed, mode, b):
    ds = _dataset(seed)
    monkeypatch.setattr(cli, "_load", lambda args: ds)
    out = tmp_path / "out"
    argv = ["replay", "--mode", mode, "--out", str(out)]
    rc = cli.main(argv + ([] if b is None else ["--liquidity-b", repr(b)]))
    try:
        columns = _per_market(ds, mode, b)
    except RepmarketError as exc:
        assert rc == 2
        assert capsys.readouterr().err == f"error: {type(exc).__name__}: {exc}\n"
        assert not out.exists()
        return
    assert rc == 0
    assert (out / "replay.csv").read_bytes() == _csv_bytes(columns)
    replayed = len(dict.fromkeys(columns[0]))
    assert capsys.readouterr().out == (
        f"replayed {replayed} markets ({mode}) -> {out / 'replay.csv'}\n")
