"""The record views of two datasets compare their columns, building no
record, and the result is the comparison of the records they would build:
NaN is unequal to itself, -0.0 equals 0.0, a missing quantity equals only a
missing one, and an int64 timestamp column compares with an object one by
the values it holds."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repmarket.dataset import Dataset  # noqa: E402

from helpers import BASE_MS, make_finding, make_trade, survey  # noqa: E402

FINDINGS = [make_finding("F1"), make_finding("F2")]
# a market closing past 2**52 ms: the trade timestamps are then held as objects
FAR = make_finding("F3", close_ms=2**60)

FLOATS = st.floats(allow_nan=False) | st.sampled_from([0.5, -0.0, 0.0, math.nan])
TRADE_FIELDS = (
    st.sampled_from(["F1", "F2", "X9"]),                               # finding id
    st.sampled_from(["a", "b"]),                                       # trader
    # timestamp: mostly int64-sized, at times one that makes the column objects
    st.sampled_from([BASE_MS + k for k in range(6)] + [2**53 + 1, float(BASE_MS)]),
    st.sampled_from(["YES", "NO", "BUY"]),                             # side
    st.none() | FLOATS,                                                # quantity
    FLOATS,                                                            # price
    st.integers(0, 5),                                                 # seq, not compared
)
SURVEY_FIELDS = (
    st.sampled_from(["F1", "F2", "X9"]),  # finding id
    st.sampled_from(["a", "b"]),          # forecaster
    FLOATS,                               # belief
)


def _trade(values):
    fid, trader, ts, side, quantity, price, seq = values
    return make_trade(fid, trader=trader, ts=ts, side=side, quantity=quantity, price=price,
                      seq=seq)


@st.composite
def record_pairs(draw, strategies, build):
    """Two record lists: the second is the first, or the first with one value
    drawn again, its last row dropped or a row added."""
    first = draw(st.lists(st.tuples(*strategies), max_size=5))
    second = list(first)
    change = draw(st.sampled_from(["none", "value", "drop", "add"]))
    if change == "value" and first:
        i, j = draw(st.integers(0, len(first) - 1)), draw(st.integers(0, len(strategies) - 1))
        second[i] = first[i][:j] + (draw(strategies[j]),) + first[i][j + 1:]
    elif change == "drop":
        second = second[:-1]
    elif change == "add":
        second.append(draw(st.tuples(*strategies)))
    return [build(row) for row in first], [build(row) for row in second]


def _dataset(draw, surveys, trades):
    return Dataset(FINDINGS + ([FAR] if draw(st.booleans()) else []), surveys, trades)


@settings(max_examples=300, deadline=None)
@given(record_pairs(TRADE_FIELDS, _trade),
       record_pairs(SURVEY_FIELDS, lambda row: survey(*row)), st.data())
def test_views_compare_as_their_records_do(trades, surveys, data):
    first = _dataset(data.draw, surveys[0], trades[0])
    second = _dataset(data.draw, surveys[1], trades[1])
    trades_equal = first.trades == second.trades
    surveys_equal = first.surveys == second.surveys
    datasets_equal = first == second
    assert trades_equal == (list(first.trades) == list(second.trades))
    assert surveys_equal == (list(first.surveys) == list(second.surveys))
    assert datasets_equal == (first.findings == second.findings
                              and trades_equal and surveys_equal)
    assert first.trades == first.trades and first.surveys == first.surveys


def test_int64_and_object_timestamps_of_equal_values_compare_equal():
    trades = [make_trade("F1", ts=BASE_MS + k, seq=k) for k in range(3)]
    held, far = Dataset(FINDINGS, [], trades), Dataset(FINDINGS + [FAR], [], trades)
    assert held.trade_columns.timestamp.dtype != far.trade_columns.timestamp.dtype
    assert held.trades == far.trades
    assert list(held.trades) == list(far.trades)
