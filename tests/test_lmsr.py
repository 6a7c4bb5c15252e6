import dataclasses
import math
import random

import pytest

from repmarket import lmsr
from repmarket.aggregate import market_final_price
from repmarket.dataset import validate
from repmarket.errors import (
    EmptyMarket,
    InsufficientHoldings,
    InsufficientTokens,
    MarketSettled,
    NonPositiveLiquidity,
    ReplayUnavailable,
    UnknownFinding,
    UnknownTrader,
)
from repmarket.synth import synthetic_dataset

from helpers import BASE_MS, make_dataset, make_finding, make_trade

TS = BASE_MS + 3_600_000

# frozen from a 40-digit evaluation of the closed forms:
#   price(10, 0; b=100) = e^0.1 / (e^0.1 + 1)
#   cost of 10 YES from (0, 0; b=100) = 100*ln((e^0.1 + 1) / 2)
PRICE_10_0_B100 = 0.52497918747893999
COST_BUY10_B100 = 5.1249479513625585


def test_new_market_symmetric_price():
    for b in (100.0, 1.0, 0.07):
        ms = lmsr.new_market(b, endowment=100.0, traders=("a", "b"))
        quote = lmsr.price(ms)
        assert quote.price_yes == 0.5
        assert quote.price_no == 0.5
        assert ms.ledgers["a"].tokens == 100.0


def test_nonpositive_liquidity_rejected():
    with pytest.raises(NonPositiveLiquidity):
        lmsr.new_market(0.0)
    with pytest.raises(NonPositiveLiquidity):
        lmsr.new_market(-3.0)


def test_price_matches_oracle():
    ms = lmsr.new_market(100.0, traders=("a",))
    ms = ms.__class__(100.0, 10.0, 0.0, ms.ledgers)
    assert lmsr.price(ms).price_yes == pytest.approx(PRICE_10_0_B100, abs=1e-12)


def test_price_shift_invariance():
    for k in (-5.0, 0.0, 3.7, 250.0):
        ms = lmsr.MarketState(100.0, k, k, {})
        quote = lmsr.price(ms)
        assert quote.price_yes == 0.5
        assert quote.price_no == 0.5


def test_price_stable_at_extreme_quantities():
    b = 1.0
    for q_yes, q_no in ((700.0, -700.0), (-700.0, 700.0), (700.0, 700.0)):
        ms = lmsr.MarketState(b, q_yes, q_no, {})
        quote = lmsr.price(ms)
        assert 0.0 < quote.price_yes < 1.0
        assert 0.0 < quote.price_no < 1.0
        assert quote.price_yes + quote.price_no == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(lmsr.cost_function(q_yes, q_no, b))


def test_cost_to_trade_oracle():
    ms = lmsr.new_market(100.0, traders=("a",))
    assert lmsr.cost_to_trade(ms, "YES", 10.0) == pytest.approx(
        COST_BUY10_B100, abs=1e-12)
    assert lmsr.cost_to_trade(ms, "YES", 0.0) == 0.0


def test_quote_trade_bundles_cost_and_post_price():
    ms = lmsr.new_market(100.0, traders=("a",))
    quote = lmsr.quote_trade(ms, "YES", 10.0)
    assert quote.cost == pytest.approx(COST_BUY10_B100, abs=1e-12)
    assert quote.price_yes == pytest.approx(PRICE_10_0_B100, abs=1e-12)
    assert quote.price_yes + quote.price_no == pytest.approx(1.0, abs=1e-12)
    no_quote = lmsr.quote_trade(ms, "NO", 10.0)
    assert no_quote.price_yes == pytest.approx(1.0 - PRICE_10_0_B100, abs=1e-12)


def test_buy_then_sell_nets_zero():
    ms = lmsr.new_market(100.0, endowment=1000.0, traders=("a",))
    buy_cost = lmsr.cost_to_trade(ms, "YES", 25.0)
    ms, _ = lmsr.execute_trade(ms, "a", "YES", 25.0, TS)
    sell_cost = lmsr.cost_to_trade(ms, "YES", -25.0)
    assert buy_cost + sell_cost == pytest.approx(0.0, abs=1e-9)


def test_execute_trade_updates_ledger_and_price():
    ms = lmsr.new_market(100.0, endowment=100.0, traders=("a",))
    ms, trade = lmsr.execute_trade(ms, "a", "YES", 10.0, TS)
    assert ms.ledgers["a"].tokens == pytest.approx(100.0 - COST_BUY10_B100, abs=1e-12)
    assert ms.ledgers["a"].yes_held == 10.0
    assert trade.post_trade_price == pytest.approx(PRICE_10_0_B100, abs=1e-12)
    assert trade.side == "YES"
    assert trade.quantity == 10.0


def test_partial_sell_path_independence():
    ms0 = lmsr.new_market(100.0, endowment=1000.0, traders=("a",))
    ms, t1 = lmsr.execute_trade(ms0, "a", "YES", 10.0, TS)
    ms, t2 = lmsr.execute_trade(ms, "a", "YES", -5.0, TS + 1)
    assert ms.ledgers["a"].yes_held == 5.0
    paid = 1000.0 - ms.ledgers["a"].tokens
    direct = lmsr.cost_to_trade(ms0, "YES", 5.0)
    assert paid == pytest.approx(direct, abs=1e-9)
    # a sell is recorded as the price-equivalent opposite-side buy
    assert t2.side == "NO"
    assert t2.quantity == 5.0


def test_insufficient_tokens_leaves_state_unchanged():
    ms = lmsr.new_market(10.0, endowment=1.0, traders=("a",))
    with pytest.raises(InsufficientTokens):
        lmsr.execute_trade(ms, "a", "YES", 1000.0, TS)
    assert ms.q_yes == 0.0
    assert ms.ledgers["a"].tokens == 1.0


@pytest.mark.parametrize("endowment", [100.0, math.inf])
@pytest.mark.parametrize("quantity", [math.nan, math.inf, -math.inf])
def test_a_quantity_that_is_not_finite_is_refused_and_leaves_the_state_unchanged(
        endowment, quantity):
    ms = lmsr.new_market(100.0, endowment=endowment, traders=("a",))
    ms, _ = lmsr.execute_trade(ms, "a", "YES", 1.0, TS)
    before = dataclasses.replace(ms, ledgers=dict(ms.ledgers))
    with pytest.raises(ValueError, match="quantity must be finite"):
        lmsr.execute_trade(ms, "a", "YES", quantity, TS + 1)
    assert ms == before
    with pytest.raises(ValueError, match="^quantity must be nonzero$"):
        lmsr.execute_trade(ms, "a", "YES", 0.0, TS + 1)


def test_no_short_positions():
    ms = lmsr.new_market(100.0, endowment=100.0, traders=("a",))
    with pytest.raises(InsufficientHoldings):
        lmsr.execute_trade(ms, "a", "YES", -1.0, TS)


def test_unknown_trader():
    ms = lmsr.new_market(100.0, traders=("a",))
    with pytest.raises(UnknownTrader):
        lmsr.execute_trade(ms, "zzz", "YES", 1.0, TS)


def test_settlement_payouts():
    ms = lmsr.new_market(100.0, endowment=100.0, traders=("a", "b"))
    ms, _ = lmsr.execute_trade(ms, "a", "YES", 10.0, TS)
    tokens_after_trade = ms.ledgers["a"].tokens

    settled, payouts = lmsr.settle(ms, 1)
    assert payouts["a"] == pytest.approx(tokens_after_trade + 10.0)
    assert payouts["b"] == 100.0
    assert settled.status == lmsr.SETTLED
    with pytest.raises(MarketSettled):
        lmsr.settle(settled, 1)
    with pytest.raises(MarketSettled):
        lmsr.execute_trade(settled, "a", "YES", 1.0, TS)
    with pytest.raises(MarketSettled):
        lmsr.price(settled)

    _, payouts0 = lmsr.settle(ms, 0)
    assert payouts0["a"] == pytest.approx(tokens_after_trade)


def test_settle_empty_market_keeps_balances():
    ms = lmsr.new_market(100.0, endowment=42.0, traders=("a", "b"))
    _, payouts = lmsr.settle(ms, 1)
    assert payouts == {"a": 42.0, "b": 42.0}


def test_price_monotonicity():
    rng = random.Random(5)
    ms = lmsr.new_market(50.0, endowment=1e9, traders=("a",))
    for _ in range(50):
        before = lmsr.price(ms).price_yes
        qty = rng.uniform(0.1, 20.0)
        ms, _ = lmsr.execute_trade(ms, "a", "YES", qty, TS)
        assert lmsr.price(ms).price_yes > before
    for _ in range(50):
        before = lmsr.price(ms).price_yes
        qty = rng.uniform(0.1, 5.0)
        ms, _ = lmsr.execute_trade(ms, "a", "NO", qty, TS)
        assert lmsr.price(ms).price_yes < before


# endowment small enough that ledger subtraction keeps ~1e-12 precision
_ENDOWMENT = 1e4


def _random_walk(rng, b, n_trades):
    ms = lmsr.new_market(b, endowment=_ENDOWMENT, traders=("a", "b", "c"))
    for _ in range(n_trades):
        trader = rng.choice(("a", "b", "c"))
        side = rng.choice(("YES", "NO"))
        held = (ms.ledgers[trader].yes_held if side == "YES"
                else ms.ledgers[trader].no_held)
        qty = rng.uniform(0.01, 30.0)
        if rng.random() < 0.4 and held > 0:
            qty = -rng.uniform(0.0, held)
            if qty == 0.0:
                continue
        ms, _ = lmsr.execute_trade(ms, trader, side, qty, TS)
    return ms


def test_path_independence_randomized():
    rng = random.Random(99)
    for _ in range(300):
        b = rng.uniform(5.0, 200.0)
        ms = _random_walk(rng, b, rng.randint(1, 12))
        paid = sum(_ENDOWMENT - acct.tokens for acct in ms.ledgers.values())
        direct = lmsr.cost_function(ms.q_yes, ms.q_no, b) - lmsr.cost_function(0.0, 0.0, b)
        assert paid == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))
        assert ms.maker_intake == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))


def test_bounded_maker_loss():
    rng = random.Random(17)
    for _ in range(200):
        b = rng.uniform(5.0, 150.0)
        ms = _random_walk(rng, b, rng.randint(1, 15))
        for outcome in (0, 1):
            _, payouts = lmsr.settle(ms, outcome)
            paid_out = sum(payouts.values()) - sum(
                acct.tokens for acct in ms.ledgers.values())
            # maker subsidy: settlement liability minus trading intake
            liability = ms.q_yes if outcome == 1 else ms.q_no
            assert liability - ms.maker_intake <= b * math.log(2.0) + 1e-9
            assert paid_out == pytest.approx(liability, abs=1e-6)


def test_settlement_conservation_exact_accounting():
    rng = random.Random(23)
    ms = lmsr.new_market(80.0, endowment=1e6, traders=("a", "b"))
    bookings = []
    for _ in range(40):
        trader = rng.choice(("a", "b"))
        qty = rng.uniform(0.1, 10.0)
        cost = lmsr.cost_to_trade(ms, "YES", qty)
        ms, _ = lmsr.execute_trade(ms, trader, "YES", qty, TS)
        bookings.append((trader, cost))
    # replaying the booked costs reproduces every ledger exactly
    balance = {"a": 1e6, "b": 1e6}
    intake = 0.0
    for trader, cost in bookings:
        balance[trader] -= cost
        intake += cost
    assert balance["a"] == ms.ledgers["a"].tokens
    assert balance["b"] == ms.ledgers["b"].tokens
    assert intake == ms.maker_intake


def test_replay_price_taking_identity(fixture_ds):
    prices = lmsr.replay(fixture_ds, "F001")
    assert prices == [0.55, 0.7, 0.8]


def test_replay_errors(fixture_ds):
    with pytest.raises(UnknownFinding):
        lmsr.replay(fixture_ds, "nope")
    ds = make_dataset([make_finding("F9")])
    with pytest.raises(EmptyMarket):
        lmsr.replay(ds, "F9")
    with pytest.raises(ValueError):
        lmsr.replay(fixture_ds, "F001", mode=lmsr.SIMULATED)  # needs liquidity_b


def test_simulated_replay_reproduces_engine_fixture():
    b = 100.0
    ds = synthetic_dataset(seed=11, n_markets=6, n_traders=5, liquidity_b=b)
    for fid in ds.finding_ids():
        recorded = lmsr.replay(ds, fid, mode=lmsr.PRICE_TAKING)
        simulated = lmsr.replay(ds, fid, mode=lmsr.SIMULATED, liquidity_b=b)
        assert len(recorded) == len(simulated)
        for r, s in zip(recorded, simulated):
            assert abs(r - s) <= 1e-9


def test_simulated_replay_runs_no_ledger_engine(monkeypatch):
    """synth records buys through execute_trade; replay reprices them from the
    running quantities alone, to the recorded prices bit for bit."""
    ds = synthetic_dataset(seed=11, n_markets=4, n_traders=5, liquidity_b=50.0)

    def engine(*args, **kwargs):
        raise AssertionError("simulated replay ran the ledger engine")

    monkeypatch.setattr(lmsr, "execute_trade", engine)
    monkeypatch.setattr(lmsr, "cost_to_trade", engine)
    for fid in ds.finding_ids():
        assert (lmsr.replay(ds, fid, mode=lmsr.SIMULATED, liquidity_b=50.0)
                == lmsr.replay(ds, fid, mode=lmsr.PRICE_TAKING))


@pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
def test_simulated_replay_refuses_a_liquidity_that_is_not_positive(b):
    ds = synthetic_dataset(seed=11, n_markets=2)
    with pytest.raises(NonPositiveLiquidity):
        lmsr.replay(ds, ds.finding_ids()[0], mode=lmsr.SIMULATED, liquidity_b=b)


@pytest.mark.parametrize("side, quantity", [
    ("BUY", 1.0), ("YES", 0.0), ("NO", -2.0), ("YES", math.nan), ("YES", math.inf)])
def test_simulated_replay_refuses_a_trade_that_is_not_a_buy(side, quantity):
    trades = [make_trade("F1", side="NO", quantity=2.0, seq=0),
              make_trade("F1", side=side, quantity=quantity, seq=1)]
    ds = make_dataset([make_finding("F1")], trades=trades)
    with pytest.raises(ReplayUnavailable):
        lmsr.replay(ds, "F1", mode=lmsr.SIMULATED, liquidity_b=100.0)


@pytest.mark.parametrize("b, error", [(None, ReplayUnavailable), (0.0, NonPositiveLiquidity),
                                      (100.0, EmptyMarket)],
                         ids=["no_liquidity", "zero_liquidity", "good_liquidity"])
def test_simulated_replay_checks_the_liquidity_before_the_market(b, error):
    ds = make_dataset([make_finding("F9")])
    with pytest.raises(error):
        lmsr.replay(ds, "F9", mode=lmsr.SIMULATED, liquidity_b=b)


def test_replay_gives_every_trade_of_the_market_those_after_its_close_included():
    """The series ends with the final price only when no trade follows the
    close: replay reads every trade as recorded, and validate flags the late
    ones as outside_window."""
    ds = synthetic_dataset(seed=3)
    f001 = ds.findings[0]
    times = [t.timestamp for t in ds.trades if t.finding_id == f001.finding_id]
    ds = dataclasses.replace(ds, findings=[dataclasses.replace(f001, market_close=times[9])]
                             + ds.findings[1:])
    prices = lmsr.replay(ds, f001.finding_id)
    assert prices == [t.post_trade_price for t in ds.trades if t.finding_id == f001.finding_id]
    final = market_final_price(ds, f001.finding_id)
    assert (len(prices), final.n_inputs) == (19, 10)
    assert final.value == prices[9] != prices[-1]
    late = [v.row for v in validate(ds).errors
            if v.kind == "outside_window" and v.table == "trades"]
    assert len(late) == 9
