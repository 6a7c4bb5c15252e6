"""Binary prediction-market state machine with a log-scoring-rule market maker.

The maker quotes prices from a cost function C(q) = b*ln(exp(q_yes/b) +
exp(q_no/b)); a trade changing outstanding quantities from q to q' costs
C(q') - C(q). The instantaneous YES price is the softmax weight of q_yes,
which callers interpret as the market's replication probability. All
arithmetic uses the log-sum-exp form so quantities up to |q|/b ~ 700 stay
finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset, Trade, TradeColumns, market_rows
from .errors import (
    EmptyMarket,
    InsufficientHoldings,
    InsufficientTokens,
    MarketSettled,
    NonPositiveLiquidity,
    ReplayUnavailable,
    UnknownTrader,
)

OPEN = "open"
SETTLED = "settled"

PRICE_TAKING = "price_taking"
SIMULATED = "simulated"

# Strict (0, 1) bounds for quoted prices; the upper bound is the largest
# double below 1.
_PRICE_FLOOR = sys.float_info.min
_PRICE_CEIL = 1.0 - 2.0 ** -53

DEFAULT_LIQUIDITY = 100.0
DEFAULT_ENDOWMENT = 100.0


@dataclass(frozen=True)
class Quote:
    price_yes: float
    price_no: float
    cost: float = 0.0


@dataclass(frozen=True)
class TraderAccount:
    tokens: float
    yes_held: float = 0.0
    no_held: float = 0.0


@dataclass(frozen=True)
class MarketState:
    liquidity_b: float
    q_yes: float
    q_no: float
    ledgers: dict[str, TraderAccount]
    status: str = OPEN
    outcome: int | None = None
    maker_intake: float = field(default=0.0)  # cumulative tokens paid to the maker


def cost_function(q_yes: float, q_no: float, b: float) -> float:
    """C(q) = b*ln(exp(q_yes/b) + exp(q_no/b)), evaluated without overflow."""
    a1, a2 = q_yes / b, q_no / b
    m = max(a1, a2)
    return b * (m + math.log1p(math.exp(min(a1, a2) - m)))


def price_yes_from_quantities(q_yes: float, q_no: float, b: float) -> float:
    """Instantaneous YES price, clamped to the open interval (0, 1)."""
    d = (q_yes - q_no) / b  # logit of the YES price
    if d >= 0:
        p = 1.0 / (1.0 + math.exp(-d))
    else:
        e = math.exp(d)
        p = e / (1.0 + e)
    return min(max(p, _PRICE_FLOOR), _PRICE_CEIL)


def _step(q_yes: float, q_no: float, side: str, quantity: float) -> tuple[float, float]:
    """A market's outstanding (YES, NO) quantities, or a trader's holdings, after a trade."""
    if side == "YES":
        return q_yes + quantity, q_no
    if side == "NO":
        return q_yes, q_no + quantity
    raise ValueError(f"side must be YES or NO, got {side!r}")


def new_market(liquidity_b: float, endowment: float = DEFAULT_ENDOWMENT,
               traders: tuple[str, ...] | list[str] | set[str] = ()) -> MarketState:
    """Open a market with zero outstanding contracts and endowed traders."""
    if not 0.0 < liquidity_b < math.inf:
        raise NonPositiveLiquidity(f"liquidity_b must be finite and > 0, got {liquidity_b}")
    if endowment < 0:
        raise ValueError(f"endowment must be nonnegative, got {endowment}")
    ledgers = {tid: TraderAccount(tokens=endowment) for tid in sorted(traders)}
    return MarketState(liquidity_b, 0.0, 0.0, ledgers)


def price(ms: MarketState) -> Quote:
    """Current quote, that of trading nothing; price_yes + price_no == 1 to 1e-12."""
    if ms.status != OPEN:
        raise MarketSettled("cannot quote a settled market")
    return quote_trade(ms, "YES", 0.0)


def quote_trade(ms: MarketState, side: str, quantity: float) -> Quote:
    """Post-trade prices and signed token cost of a prospective trade."""
    cost = cost_to_trade(ms, side, quantity)
    p_yes = price_yes_from_quantities(*_step(ms.q_yes, ms.q_no, side, quantity),
                                      ms.liquidity_b)
    p_no = min(max(1.0 - p_yes, _PRICE_FLOOR), _PRICE_CEIL)
    return Quote(price_yes=p_yes, price_no=p_no, cost=cost)


def cost_to_trade(ms: MarketState, side: str, quantity: float) -> float:
    """Tokens required to trade `quantity` contracts on `side`.

    Positive quantity buys, negative sells; buys cost positive tokens,
    sells return tokens (negative cost).
    """
    if ms.status != OPEN:
        raise MarketSettled("cannot trade a settled market")
    b = ms.liquidity_b
    return (cost_function(*_step(ms.q_yes, ms.q_no, side, quantity), b)
            - cost_function(ms.q_yes, ms.q_no, b))


def execute_trade(ms: MarketState, trader_id: str, side: str, quantity: float,
                  timestamp: int) -> tuple[MarketState, Trade]:
    """Execute a trade and return (new state, trade record).

    The input state is never mutated; on error it remains the valid state.
    A zero quantity, or one that is not finite (NaN or infinite), is refused
    with ValueError. The trade record always carries a positive quantity: a sell is recorded
    as the price-equivalent buy of the opposite side (the cost function is
    translation-invariant, so the recorded sequence replays to the same
    price path). post_trade_price is the YES price after the trade,
    regardless of side.
    """
    if ms.status != OPEN:
        raise MarketSettled("cannot trade a settled market")
    account = ms.ledgers.get(trader_id)
    if account is None:
        raise UnknownTrader(trader_id)
    if quantity == 0:
        raise ValueError("quantity must be nonzero")
    if not math.isfinite(quantity):
        raise ValueError(f"quantity must be finite, got {quantity}")

    cost = cost_to_trade(ms, side, quantity)
    tokens_after = account.tokens - cost
    if tokens_after < 0:
        raise InsufficientTokens(
            f"trade costs {cost:.6f} but {trader_id!r} holds {account.tokens:.6f} tokens")
    yes_after, no_after = _step(account.yes_held, account.no_held, side, quantity)
    if yes_after < 0 or no_after < 0:
        raise InsufficientHoldings(
            f"sell of {-quantity} {side} exceeds holdings of {trader_id!r}")

    ledgers = dict(ms.ledgers)
    ledgers[trader_id] = TraderAccount(tokens_after, yes_after, no_after)
    q_yes, q_no = _step(ms.q_yes, ms.q_no, side, quantity)
    new_state = MarketState(ms.liquidity_b, q_yes, q_no, ledgers,
                            maker_intake=ms.maker_intake + cost)
    post_price = price_yes_from_quantities(q_yes, q_no, ms.liquidity_b)
    if quantity > 0:
        rec_side, rec_quantity = side, quantity
    else:
        rec_side = "NO" if side == "YES" else "YES"
        rec_quantity = -quantity
    trade = Trade(finding_id="", trader_id=trader_id, timestamp=timestamp,
                  side=rec_side, quantity=rec_quantity, post_trade_price=post_price)
    return new_state, trade


def settle(ms: MarketState, outcome: int) -> tuple[MarketState, dict[str, float]]:
    """Redeem contracts at one token per winning contract.

    Returns the settled state and each trader's final token balance.
    """
    if ms.status != OPEN:
        raise MarketSettled("market already settled")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    final_tokens = {tid: acct.tokens + (acct.yes_held if outcome == 1 else acct.no_held)
                    for tid, acct in ms.ledgers.items()}
    ledgers = {tid: TraderAccount(tokens=tokens) for tid, tokens in final_tokens.items()}
    settled = MarketState(ms.liquidity_b, ms.q_yes, ms.q_no, ledgers,
                          status=SETTLED, outcome=outcome,
                          maker_intake=ms.maker_intake)
    return settled, final_tokens


def _check_replay(mode: str, liquidity_b: float | None) -> None:
    """Refuse an unknown mode, and for a simulated replay a liquidity that is
    missing, not finite or not > 0: whatever the markets' trades."""
    if mode not in (PRICE_TAKING, SIMULATED):
        raise ValueError(f"unknown replay mode {mode!r}")
    if mode == SIMULATED:
        if liquidity_b is None:
            raise ReplayUnavailable("simulated replay requires liquidity_b")
        new_market(liquidity_b)  # refuses a liquidity that is not finite and > 0


def _prices(trades: TradeColumns, bounds: list[int], mode: str,
            liquidity_b: float | None) -> np.ndarray:
    """The replayed price of each trade of the markets whose rows in `trades`
    are bounds[k]:bounds[k + 1], one after another (see `replay`)."""
    rows = slice(bounds[0], bounds[-1])
    if mode == PRICE_TAKING:
        return trades.price[rows]
    yes, quantity = trades.yes[rows], trades.quantity[rows]
    # every trade is checked before any is priced; the first that is not a
    # recorded buy is named
    missing = ~trades.has_quantity[rows]
    unfit = np.flatnonzero(missing | ~(yes | trades.no[rows])
                           | ~((0.0 < quantity) & (quantity < np.inf)))
    if len(unfit):
        t = trades.records([rows.start + int(unfit[0])])[0]
        if missing[unfit[0]]:
            raise ReplayUnavailable(f"simulated replay needs recorded quantities; market "
                                    f"{t.finding_id!r} has a trade without one")
        raise ReplayUnavailable(f"simulated replay needs buys; market {t.finding_id!r} "
                                f"has a trade of {t.quantity} {t.side!r}")
    # every trade is a buy, so ~yes marks the NO buys; each market's running
    # sums start from 0, one cumsum a market
    q_yes, q_no = np.where(yes, quantity, 0.0), np.where(~yes, quantity, 0.0)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        market = slice(start - rows.start, stop - rows.start)
        np.cumsum(q_yes[market], out=q_yes[market])
        np.cumsum(q_no[market], out=q_no[market])
    # price_yes_from_quantities on the columns, exp taken by math.exp
    d = (q_yes - q_no) / liquidity_b
    e = np.fromiter(map(math.exp, (-np.abs(d)).tolist()), float, len(d))
    p = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.minimum(np.maximum(p, _PRICE_FLOOR), _PRICE_CEIL)


def replay(ds: Dataset, finding_id: str, mode: str = PRICE_TAKING,
           liquidity_b: float | None = None) -> list[float]:
    """Price time series of one market: one price after each of its trades as
    recorded, those after its close included (`validate` reports them as
    ``outside_window``). So the series ends with the market's final price
    only when no trade follows its close.

    price_taking returns the recorded post-trade prices verbatim. simulated
    returns the maker's YES price, at the given liquidity, after each running
    sum of the recorded YES and NO buys: with unbounded endowments no ledger
    can refuse a buy, so none is kept. It needs recorded, finite quantities
    and buys.
    """
    _check_replay(mode, liquidity_b)
    rows = market_rows(ds, finding_id)
    if rows.start == rows.stop:
        raise EmptyMarket(finding_id)
    return _prices(ds.trade_columns, [rows.start, rows.stop], mode, liquidity_b).tolist()


def replay_markets(ds: Dataset, mode: str = PRICE_TAKING, liquidity_b: float | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`replay` of every market in the order of `ds.finding_ids()`, as three
    columns with one entry a trade: the finding id, the trade's index in its
    market from 1, and the price. An untraded market has no rows. The
    liquidity is checked when there is a market, before any is read, and the
    first market with a trade a simulated replay refuses raises as `replay`
    raises for it."""
    trades = ds.trade_columns
    bounds = trades.bounds
    if len(bounds) == 1:  # no market: nothing to check or read
        return trades.finding_id[:0], np.zeros(0, dtype=np.int64), np.zeros(0)
    _check_replay(mode, liquidity_b)
    rows = np.arange(bounds[0], bounds[-1])
    index = rows - np.array(bounds, dtype=np.int64)[trades.finding[rows]] + 1
    return (trades.finding_id[bounds[0]:bounds[-1]], index,
            _prices(trades, bounds, mode, liquidity_b))
