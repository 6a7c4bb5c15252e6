"""Synthetic fixture generation.

Produces a full three-table dataset by running informed traders through the
market engine, so fixtures carry internally consistent prices, quantities,
and timestamps. Deterministic for a given seed: two runs write byte-identical
files. The survey responses and trades are built as columns: no record is
made but the engine's own `Trade` per trade.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from . import lmsr
from .errors import OutOfRange
from .dataset import (
    CATEGORY_ABOVE,
    CATEGORY_AT_OR_BELOW,
    Dataset,
    Finding,
    PROJECTS,
    SurveyColumns,
    TradeColumns,
    write_dataset,
)

MS_PER_DAY = 86_400_000
BASE_OPEN_MS = 1_578_268_800_000  # 2020-01-06T00:00:00Z


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def synthetic_dataset(seed: int, n_markets: int = 12, n_traders: int = 8,
                      liquidity_b: float = lmsr.DEFAULT_LIQUIDITY,
                      min_trades: int = 15, max_trades: int = 45) -> Dataset:
    """Generate an in-memory dataset of LMSR-driven markets and surveys."""
    if n_markets < 2:
        raise OutOfRange("need at least 2 markets (one per p-value category)")
    if n_traders < 1:
        raise OutOfRange(f"need at least 1 trader, got {n_traders}")
    if not 0 <= min_trades <= max_trades:
        raise OutOfRange(f"need 0 <= min_trades <= max_trades, got {min_trades} and {max_trades}")
    rng = random.Random(seed)
    trader_ids = [f"trader{j + 1:02d}" for j in range(n_traders)]

    findings: list[Finding] = []
    # each field of the trades and of the survey responses, one list a field
    trade_fids, traders, timestamps, sides, quantities, prices = [], [], [], [], [], []
    true_probs: dict[str, float] = {}
    for i in range(n_markets):
        fid = f"F{i + 1:03d}"
        project = PROJECTS[i % len(PROJECTS)]
        duration_days = 10 if project == "EERP" else 14
        market_open = BASE_OPEN_MS + i * MS_PER_DAY
        market_close = market_open + duration_days * MS_PER_DAY

        true_p = rng.betavariate(2.0, 2.0)
        true_probs[fid] = true_p
        outcome = 1 if rng.random() < true_p else 0
        if i == 0:
            category = CATEGORY_AT_OR_BELOW
        elif i == 1:
            category = CATEGORY_ABOVE
        else:
            category = (CATEGORY_AT_OR_BELOW
                        if rng.random() < 0.3 + 0.4 * outcome else CATEGORY_ABOVE)
        if rng.random() < 0.8:
            p_value = (rng.uniform(1e-4, 0.005) if category == CATEGORY_AT_OR_BELOW
                       else rng.uniform(0.0051, 0.05))
        else:
            p_value = None
        findings.append(Finding(fid, project, outcome, category, p_value,
                                market_open, market_close))

        beliefs = {t: min(max(true_p + rng.gauss(0.0, 0.12), 0.02), 0.98)
                   for t in trader_ids}
        # an endowment no synth trade can exhaust, so the ledger never refuses one
        market = lmsr.new_market(liquidity_b, 1e9, trader_ids)
        n_trades = rng.randint(min_trades, max_trades)
        # front-loaded trading times, matching how real markets behave
        times = sorted(int(market_open + (market_close - market_open) * rng.random() ** 2)
                       for _ in range(n_trades))
        current = 0.5  # the YES price of a market without trades
        for ts in times:
            trader = rng.choice(trader_ids)
            target = current + (beliefs[trader] - current) * rng.uniform(0.2, 0.6)
            target = min(max(target, 0.02), 0.98)
            move = liquidity_b * (_logit(target) - _logit(current))
            if move >= 0:
                side, quantity = "YES", move
            else:
                side, quantity = "NO", -move
            if quantity < 1e-9:
                side, quantity = ("YES" if rng.random() < 0.5 else "NO"), 0.01
            market, trade = lmsr.execute_trade(market, trader, side, quantity, ts)
            # the post-trade price is the quote lmsr.price gives the new state
            current = trade.post_trade_price
            trade_fids.append(fid)
            traders.append(trader)
            timestamps.append(ts)
            sides.append(trade.side)
            quantities.append(trade.quantity)
            prices.append(current)

    traded = sorted(set(traders))
    survey_fids, forecasters, survey_beliefs = [], [], []
    for f in findings:
        for j, trader in enumerate(traded):
            if j > 0 and rng.random() >= 0.8:
                continue
            survey_fids.append(f.finding_id)
            forecasters.append(trader)
            survey_beliefs.append(
                min(max(true_probs[f.finding_id] + rng.gauss(0.0, 0.15), 0.0), 1.0))

    surveys = SurveyColumns.from_fields(
        [survey_fids, forecasters, survey_beliefs, [None] * len(survey_fids)], findings)
    # a trade's load sequence is its place in generation order; no row has a source row
    trades = TradeColumns.from_fields(
        [trade_fids, traders, timestamps, sides, quantities, prices,
         list(range(len(trade_fids))), [None] * len(trade_fids)], findings)
    return Dataset(findings, surveys, trades)


def write_fixture(ds: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write the dataset as canonical outcomes/surveys/trades CSV files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "outcomes": out_dir / "outcomes.csv",
        "surveys": out_dir / "surveys.csv",
        "trades": out_dir / "trades.csv",
    }
    write_dataset(ds, paths["outcomes"], paths["surveys"], paths["trades"])
    return paths
