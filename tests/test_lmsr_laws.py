"""Laws of the market maker for arbitrary states and trade sequences: prices
and trade costs are invariant under a common shift of both quantities, and a
market driven through `execute_trade` replays under `replay(SIMULATED)` to the
engine's own post-trade prices (bit for bit for buys; sells, which the engine
records as opposite-side buys, to within rounding)."""

import dataclasses
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repmarket import lmsr  # noqa: E402
from repmarket.dataset import SIDES  # noqa: E402

from helpers import BASE_MS, make_dataset, make_finding  # noqa: E402

LIQUIDITY = st.floats(0.5, 500.0)
QUANTITY = st.floats(1e-3, 200.0)
SIDE = st.sampled_from(SIDES)

# Shifting both quantities by k leaves q_yes - q_no and C(q') - C(q) unchanged
# in exact arithmetic. In doubles each sum rounds once, so the logit moves by
# about eps * (|q| + |k|) / b and a cost by about eps * (|C| + |k|): over 1e5
# random draws from these ranges the worst moves were 2.9e-15 and 3.4e-13.
SHIFT_PRICE_TOL = 1e-12
SHIFT_COST_TOL = 1e-11
# A sell replays as the opposite-side buy, from quantities that differ by the
# sold amount, so the logit rounds differently: the worst of 3,000 random
# sequences from these ranges was 9.6e-15.
SELL_REPLAY_TOL = 1e-12


@settings(max_examples=300, deadline=None)
@given(LIQUIDITY, st.floats(-300.0, 300.0), st.floats(-300.0, 300.0),
       st.floats(-300.0, 300.0), SIDE, QUANTITY)
def test_price_and_cost_are_translation_invariant(b, q_yes, q_no, k, side, quantity):
    here = lmsr.MarketState(b, q_yes, q_no, {})
    there = lmsr.MarketState(b, q_yes + k, q_no + k, {})
    assert lmsr.price(there).price_yes == pytest.approx(
        lmsr.price(here).price_yes, rel=0, abs=SHIFT_PRICE_TOL)
    for signed in (quantity, -quantity):
        moved, moved_there = (lmsr.quote_trade(ms, side, signed) for ms in (here, there))
        assert moved_there.price_yes == pytest.approx(moved.price_yes, rel=0,
                                                      abs=SHIFT_PRICE_TOL)
        assert moved_there.cost == pytest.approx(moved.cost, rel=0, abs=SHIFT_COST_TOL)


def _replayed(b, recorded):
    """The engine's recorded trades as one market of a dataset, and its replay."""
    trades = [dataclasses.replace(t, finding_id="F1", seq=i)
              for i, t in enumerate(recorded)]
    ds = make_dataset([make_finding("F1")], trades=trades)
    return lmsr.replay(ds, "F1", mode=lmsr.SIMULATED, liquidity_b=b)


@settings(max_examples=200, deadline=None)
@given(LIQUIDITY, st.lists(st.tuples(st.sampled_from(("a", "b", "c")), SIDE, QUANTITY),
                           min_size=1, max_size=40))
def test_recorded_buys_replay_to_the_engine_prices_bit_for_bit(b, buys):
    ms = lmsr.new_market(b, endowment=math.inf, traders=("a", "b", "c"))
    recorded = []
    for i, (trader, side, quantity) in enumerate(buys):
        ms, trade = lmsr.execute_trade(ms, trader, side, quantity, BASE_MS + i)
        recorded.append(trade)
    assert _replayed(b, recorded) == [t.post_trade_price for t in recorded]


@settings(max_examples=200, deadline=None)
@given(LIQUIDITY, st.lists(st.tuples(st.sampled_from(("a", "b")), SIDE, QUANTITY,
                                     st.floats(0.0, 1.0)),
                           min_size=1, max_size=40))
def test_recorded_sells_replay_to_the_engine_prices(b, moves):
    """Each move buys, or, when its fraction is below one half and the trader
    holds the side, sells up to all of that holding."""
    ms = lmsr.new_market(b, endowment=math.inf, traders=("a", "b"))
    recorded = []
    for i, (trader, side, quantity, fraction) in enumerate(moves):
        account = ms.ledgers[trader]
        held = account.yes_held if side == "YES" else account.no_held
        if fraction < 0.5 and held * fraction * 2 > 0:
            quantity = -held * fraction * 2
        ms, trade = lmsr.execute_trade(ms, trader, side, quantity, BASE_MS + i)
        recorded.append(trade)
    assert all(t.quantity > 0 for t in recorded)
    engine = [t.post_trade_price for t in recorded]
    assert _replayed(b, recorded) == pytest.approx(engine, rel=0, abs=SELL_REPLAY_TOL)
