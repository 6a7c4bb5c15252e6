"""Laws of the column parse, of the timestamp text and of LOESS: a column of
timestamps or numbers parses and rejects as each of its texts does, numpy
reads a text of the canonical shape as `parse_timestamp` does, a sub-
millisecond instant rounds half to even exactly, a row gets its first text
fault, `format_timestamp` writes the text of the `datetime` formatter it
replaced, and `loess_fit` gives the bits of the per-point fit it replaced."""

import math
from datetime import date, datetime, timezone
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repmarket import dynamics  # noqa: E402
from repmarket.dataset import (  # noqa: E402
    MAX_TIMESTAMP_MS,
    MIN_TIMESTAMP_MS,
    _canonical_instants,
    _parse_column,
    _parse_instants,
    _parse_trades,
    format_timestamp,
    parse_timestamp,
)


def _one_by_one(texts):
    """parse_timestamp of each text, and the fault of each row it refuses."""
    values, faults = [], {}
    for row, text in enumerate(texts, start=1):
        try:
            values.append(parse_timestamp(text))
        except ValueError as exc:
            values.append(None)
            faults[row] = ("timestamp", "invalid_value", str(exc))
    return values, faults


def _canonical(dt):
    return f"{dt.year:04d}-{dt:%m-%dT%H:%M:%S}.{dt.microsecond // 1000:03d}Z"


# the canonical shape, for real instants of years 0001-9999 and for invalid
# dates and times of years 0000-9999
VALID = st.datetimes(datetime(1, 1, 1),
                     datetime(9999, 12, 31, 23, 59, 59, 999000)).map(_canonical)
INVALID = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}.{:03d}Z".format,
    st.integers(0, 9999) | st.just(0),
    st.integers(1, 12) | st.sampled_from([0, 13]),
    st.integers(1, 28) | st.sampled_from([0, 29, 30, 31, 32]),
    st.integers(0, 23) | st.just(24),
    st.integers(0, 59) | st.just(60),
    st.integers(0, 59) | st.just(60),
    st.integers(0, 999))
OTHER = st.one_of(
    VALID.map(lambda t: t[:-1] + "+00:00"),                  # zone as an offset
    VALID.map(lambda t: t[:-1]),                              # naive
    VALID.map(lambda t: t[:-1] + "4Z"),                       # sub-millisecond
    st.integers(-10**13, 10**13).map(str),                    # epoch milliseconds
    st.sampled_from(["", "soon", "2020-01-06", "2020-01-06T00:00:00.000Zulu"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(VALID, min_size=1, max_size=8)
       | st.lists(VALID | INVALID | OTHER, min_size=1, max_size=8))
def test_timestamp_column_parses_and_rejects_as_each_text(texts):
    values, expected = _one_by_one(texts)
    faults = {}
    assert (_parse_column(parse_timestamp, texts, "timestamp", None, faults),
            faults) == (values, expected)
    # the loader's block parser: numpy on canonical texts, a refused one read as 0
    faults = {}
    ms = _parse_instants(texts, faults)
    assert ms.dtype == np.int64
    assert (ms.tolist(), faults) == ([0 if v is None else v for v in values], expected)


@settings(max_examples=300, deadline=None)
@given(st.lists(VALID, min_size=1, max_size=8))
def test_a_block_of_canonical_instants_is_parsed_by_numpy(texts):
    assert _canonical_instants(texts).tolist() == [parse_timestamp(t) for t in texts]


def _parsed(text):
    try:
        return parse_timestamp(text)
    except ValueError:
        return None


@settings(max_examples=500, deadline=None)
@given(VALID | INVALID)
def test_numpy_reads_a_canonical_text_as_parse_timestamp_or_both_refuse(text):
    ms = _canonical_instants([text])
    assert (None if ms is None else int(ms[0])) == _parsed(text)


def _exact_ms(dt):
    """The instant of a naive UTC datetime in ms, rounded half to even from
    its exact microseconds since the epoch."""
    days = dt.toordinal() - date(1970, 1, 1).toordinal()
    us = (((days * 24 + dt.hour) * 60 + dt.minute) * 60 + dt.second) * 10**6 + dt.microsecond
    return round(Fraction(us, 1000))


@settings(max_examples=500, deadline=None)
@given(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999499))
       | st.datetimes(datetime(1969, 12, 31, 23), datetime(1970, 1, 1, 1)))
def test_a_sub_millisecond_instant_rounds_half_to_even_exactly(dt):
    for text in (dt.isoformat(timespec="microseconds") + "Z",
                 dt.isoformat(timespec="microseconds")):
        assert parse_timestamp(text) == _exact_ms(dt)


def _datetime_text(ms):
    """The formatter format_timestamp replaced: the oracle of its text."""
    seconds, millis = divmod(int(ms), 1000)
    return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat()[:19] + f".{millis:03d}Z"


@settings(max_examples=500, deadline=None)
@given(st.integers(MIN_TIMESTAMP_MS, MAX_TIMESTAMP_MS)
       | st.sampled_from([MIN_TIMESTAMP_MS, MAX_TIMESTAMP_MS, -1, 0, 999, -1000])
       | st.integers(-10**3, 10**3).map(lambda d: d * 86_400_000))
def test_format_timestamp_writes_the_datetime_text(ms):
    assert format_timestamp(ms) == _datetime_text(ms)
    assert parse_timestamp(format_timestamp(ms)) == ms


NUMBERS = st.floats(allow_nan=False).map(repr) | st.integers(-10**6, 10**6).map(str)
NOT_NUMBERS = st.sampled_from(["", "price", "0.5.1", "1e", "--1", "0x10", "½"])


@settings(max_examples=100, deadline=None)
@given(st.lists(NUMBERS, min_size=1, max_size=12), st.data())
def test_one_unparsed_number_rejects_its_row_alone(texts, data):
    bad_row = data.draw(st.integers(1, len(texts)))
    bad = data.draw(NOT_NUMBERS)
    texts[bad_row - 1] = bad
    n = len(texts)
    columns = [["F1"] * n, ["t1"] * n, ["2020-01-06T00:00:00.000Z"] * n, ["YES"] * n,
               ["1"] * n, texts]
    values, faults = _parse_trades(columns)
    assert faults == {bad_row: ("post_trade_price", "invalid_value",
                                f"cannot parse price {bad!r}")}
    prices = values[-1]
    assert prices == [None if row == bad_row else float(text)
                      for row, text in enumerate(texts, start=1)]


# a broken field of a trades row and its fault, in the order the loader looks
TEXT_FAULTS = (
    (1, "", ("finding_id/trader_id", "invalid_value", "empty identifier")),
    (2, "noon", _one_by_one(["noon"])[1][1]),
    (4, "few", ("quantity", "invalid_value", "cannot parse quantity 'few'")),
    (5, "cheap", ("post_trade_price", "invalid_value", "cannot parse price 'cheap'")),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_a_row_gets_its_first_text_fault(n, data):
    bad_row = data.draw(st.integers(1, n))
    broken = data.draw(st.lists(st.integers(0, len(TEXT_FAULTS) - 1), min_size=1, unique=True))
    columns = [["F1"] * n, ["t1"] * n, ["2020-01-06T00:00:00.000Z"] * n, ["YES"] * n,
               ["1"] * n, ["0.5"] * n]
    for k in broken:
        column, text, _ = TEXT_FAULTS[k]
        columns[column][bad_row - 1] = text
    _, faults = _parse_trades(columns)
    assert faults == {bad_row: TEXT_FAULTS[min(broken)][2]}


def _per_point_loess(x, y, span, degree):
    """The per-point fit `loess_fit` replaced, as it was: np.vander times the
    square roots of clipped tricube weights, one lstsq per point."""
    n = len(x)
    k = min(max(int(math.ceil(span * n)), degree + 2), n)
    smoothed = np.empty(n)
    for i in range(n):
        d = np.abs(x - x[i])
        idx = np.argsort(d, kind="stable")[:k]
        radius = d[idx[-1]]
        scaled = d[idx] / radius if radius > 0 else np.zeros(k)
        w = (1.0 - np.clip(scaled, 0.0, 1.0) ** 3) ** 3
        sw = np.sqrt(w)
        design = np.vander(x[idx] - x[i], degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(design * sw[:, None], y[idx] * sw, rcond=None)
        smoothed[i] = float(coef[0])
    return smoothed


@st.composite
def curves(draw):
    n = draw(st.integers(4, 60))
    if draw(st.booleans()):
        x = np.arange(float(n))
    else:
        x = np.cumsum(draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return dynamics.ErrorCurve(dynamics.AXIS_TRADES, x, y, np.zeros(n, dtype=int))


@settings(max_examples=150, deadline=None)
@given(curves(), st.floats(0.05, 1.0), st.sampled_from([1, 2]))
def test_loess_fit_is_the_per_point_fit_bit_for_bit(curve, span, degree):
    smoothed = dynamics.loess_fit(curve, dynamics.LoessConfig(span, degree))
    assert np.array_equal(smoothed.mean_abs_error,
                          _per_point_loess(curve.x, curve.mean_abs_error, span, degree))
