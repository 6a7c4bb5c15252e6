"""`validate` and `write_dataset` on in-memory instants outside the years
0001-9999 UTC, which the loader refuses and `format_timestamp` cannot write."""

import pytest

from repmarket.dataset import (MAX_TIMESTAMP_MS, MIN_TIMESTAMP_MS, format_timestamp, validate,
                               write_dataset)

from helpers import BASE_MS, DAY_MS, make_dataset, make_finding, make_trade


def _faults(ds):
    report = validate(ds)
    assert not report.ok()
    return [(e.column, e.kind, e.message) for e in report.errors]


def test_a_trade_past_year_9999_is_an_invalid_timestamp():
    ds = make_dataset([make_finding("F1")], trades=[make_trade("F1", ts=10**15)])
    assert _faults(ds) == [
        ("timestamp", "invalid_value",
         "timestamp 1000000000000000 outside the years 0001-9999 UTC"),
        ("timestamp", "outside_window",
         "trade at 1000000000000000 outside "
         "[2020-01-06T00:00:00.000Z, 2020-01-20T00:00:00.000Z]"),
    ]


def test_a_trade_after_a_window_opening_before_year_1():
    finding = make_finding("F1", open_ms=-10**15, close_ms=BASE_MS)
    ds = make_dataset([finding], trades=[make_trade("F1", ts=BASE_MS + DAY_MS)])
    assert _faults(ds) == [
        ("market_open", "invalid_value",
         "market_open -1000000000000000 outside the years 0001-9999 UTC"),
        ("timestamp", "outside_window",
         "trade at 2020-01-07T00:00:00.000Z outside "
         "[-1000000000000000, 2020-01-06T00:00:00.000Z]"),
    ]


def test_a_window_closing_past_year_9999_is_an_invalid_close():
    ds = make_dataset([make_finding("F1", close_ms=10**15)], trades=[make_trade("F1")])
    assert _faults(ds) == [
        ("market_close", "invalid_value",
         "market_close 1000000000000000 outside the years 0001-9999 UTC"),
    ]


@pytest.mark.parametrize("ms", [MIN_TIMESTAMP_MS - 1, MAX_TIMESTAMP_MS + 1, -2**70, 2**70])
def test_format_timestamp_refuses_every_instant_outside_the_years(ms):
    with pytest.raises(ValueError) as refused:
        format_timestamp(ms)
    assert str(refused.value) == f"timestamp {ms} outside the years 0001-9999 UTC"


def test_writing_a_trade_far_before_year_1_is_refused(tmp_path):
    ds = make_dataset([make_finding("F1")], trades=[make_trade("F1", ts=-2**70)])
    paths = [tmp_path / name for name in ("o.csv", "s.csv", "t.csv")]
    with pytest.raises(ValueError) as refused:
        write_dataset(ds, *paths)
    assert str(refused.value) == f"timestamp {-2**70} outside the years 0001-9999 UTC"
