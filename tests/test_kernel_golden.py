"""A golden digest of the numeric kernels, bit for bit.

The mpmath and scipy tests compare the special functions within a
tolerance, and the file digests of `test_golden.py` cover only the p-values
their fixtures reach. This test joins the `float.hex` of every value below
and pins the SHA-256 of the result, so a change meant to keep behaviour
must give the same bits:

- `stats.regularized_incomplete_beta` on a grid whose x fall on both sides
  of its symmetry test `x < (a + 1) / (a + b + 2)`;
- `stats.student_t_two_tailed` and `stats.regularized_upper_gamma(0.5, x)`
  (the 1-df chi-square p-value), the latter by its series and by its
  continued fraction;
- `lmsr.price` at signed-zero quantities and at |q|/b near 700;
- `lmsr.settle`'s final tokens and settled ledger for a three-trader
  market, under both outcomes.
"""

import hashlib
import itertools
import math

from repmarket import lmsr, stats

SHAPES = (1e-3, 0.5, 1.0, 2.5, 50.0, 500.0)
XS = (1e-300, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-9)

T_POINTS = ((0.0, 1.0), (0.5, 2.0), (1.5, 3.0), (-2.2, 10.0), (2.0, 49.0),
            (40.0, 2.0), (0.01, 1000.0), (-7.5, 101.0), (math.inf, 5.0))
CHI_HALF_STATS = (1e-8, 0.05, 0.5, 1.0, 1.4, 1.5, 1.92, 3.0, 10.0, 100.0)

# (liquidity b, q_yes, q_no)
PRICE_STATES = ((100.0, -0.0, 0.0), (100.0, 0.0, -0.0), (100.0, -0.0, -0.0),
                (100.0, 10.0, 0.0), (1.0, 699.0, 0.0), (1.0, -699.0, 0.0),
                (2.5, 1749.9, 0.1), (50.0, -0.0, 35000.0), (50.0, 34990.0, -10.0))

# (trader, side, signed quantity) on a market of b = 100, each trader endowed 100
TRADES = (("A", "YES", 30.0), ("B", "NO", 50.0), ("C", "YES", 10.0),
          ("A", "YES", -5.0), ("B", "YES", 12.5), ("C", "NO", 7.25),
          ("B", "NO", -20.0))

KERNEL_SHA256 = "a8cfefc6b37895595e5eb72efe75bf30ee95915267e10db1b11167cc9c63c8bb"


def _kernel_values():
    for a, b, x in itertools.product(SHAPES, SHAPES, XS):
        yield stats.regularized_incomplete_beta(a, b, x)
    for t, df in T_POINTS:
        yield stats.student_t_two_tailed(t, df)
    for s in CHI_HALF_STATS:
        yield stats.regularized_upper_gamma(0.5, s)
    for b, q_yes, q_no in PRICE_STATES:
        quote = lmsr.price(lmsr.MarketState(b, q_yes, q_no, {}))
        yield from (quote.price_yes, quote.price_no, quote.cost)
    ms = lmsr.new_market(100.0, 100.0, ("A", "B", "C"))
    for ts, (trader, side, quantity) in enumerate(TRADES):
        ms, _ = lmsr.execute_trade(ms, trader, side, quantity, ts)
    for outcome in (0, 1):
        settled, final_tokens = lmsr.settle(ms, outcome)
        for tid, tokens in final_tokens.items():
            account = settled.ledgers[tid]
            yield from (tokens, account.tokens, account.yes_held, account.no_held)


def test_kernel_values_are_pinned_bit_for_bit():
    text = "\n".join(v.hex() for v in _kernel_values())
    assert hashlib.sha256(text.encode()).hexdigest() == KERNEL_SHA256
