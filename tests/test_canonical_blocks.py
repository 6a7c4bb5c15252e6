"""The loader's two timestamp paths and its blocks: numpy parses a block whose
texts all have `format_timestamp`'s shape, any other block goes through
`parse_timestamp` row by row with the same values and faults, a sub-
millisecond instant rounds half to even exactly, a table read in blocks of
any size loads as it does in one, and a table without an accepted row loads
as empty columns."""

import csv
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repmarket import dataset
from repmarket.dataset import (SurveyColumns, TradeColumns, _canonical_instants, _parse_instants,
                               load_dataset, parse_timestamp)
from repmarket.synth import synthetic_dataset, write_fixture

MALFORMED = Path(__file__).parent / "data" / "malformed"
CANONICAL = "2020-01-06T00:00:00.000Z"


def _one_by_one(texts):
    """parse_timestamp of each text (0 where it refuses), and each refusal's fault."""
    values, faults = [], {}
    for row, text in enumerate(texts, start=1):
        try:
            values.append(parse_timestamp(text))
        except ValueError as exc:
            values.append(0)
            faults[row] = ("timestamp", "invalid_value", str(exc))
    return values, faults


@pytest.mark.parametrize("text, ms", [
    ("0001-01-01T00:00:00.000Z", dataset.MIN_TIMESTAMP_MS),
    ("9999-12-31T23:59:59.999Z", dataset.MAX_TIMESTAMP_MS),
    ("2020-02-29T12:00:00.000Z", 1_582_977_600_000),
])
def test_a_canonical_instant_takes_the_numpy_path(text, ms):
    texts = [CANONICAL, text]
    assert _canonical_instants(texts).tolist() == [parse_timestamp(CANONICAL), ms]
    faults = {}
    assert _parse_instants(texts, faults).tolist() == [parse_timestamp(CANONICAL), ms]
    assert faults == {}


@pytest.mark.parametrize("text, message", [
    ("2021-02-29T00:00:00.000Z", "day is out of range for month"),
    ("2020-13-01T00:00:00.000Z", "month must be in 1..12"),
    # numpy reads the year 0000 as an instant before the year 0001
    ("0000-01-01T00:00:00.000Z", "year 0 is out of range"),
])
def test_a_canonical_shape_that_is_no_instant_goes_row_by_row(text, message):
    texts = [CANONICAL, text, CANONICAL]
    assert _canonical_instants(texts) is None
    faults = {}
    ms = _parse_instants(texts, faults)
    assert (ms.tolist(), faults) == _one_by_one(texts)
    assert message in faults[2][2]


@pytest.mark.parametrize("last", [
    "2020-01-06T00:00:00.000+00:00", "2020-01-06T00:00:00.000", "1578268800000",
    "2020-01-06T00:00:00.000z", "2020-01-06T00:00:00.0001Z", "２020-01-06T00:00:00.000Z", "soon",
])
def test_a_block_whose_last_text_alone_is_off_shape_goes_row_by_row(last):
    texts = [CANONICAL] * 4 + [last]
    assert _canonical_instants(texts) is None
    faults = {}
    ms = _parse_instants(texts, faults)
    assert ms.dtype == np.int64
    assert (ms.tolist(), faults) == _one_by_one(texts)


@pytest.mark.parametrize("text, ms", [
    # the float route gave ...399000, -62135596800000 and -511
    ("9999-12-30T23:59:59.000501Z", 253_402_214_399_001),
    ("0001-01-01T00:00:00.000501Z", -62_135_596_799_999),
    ("1969-12-31T23:59:59.488500Z", -512),
    ("2020-01-06T00:00:00.000500Z", 1_578_268_800_000),
    ("2020-01-06T00:00:00.001500Z", 1_578_268_800_002),
    ("2020-01-06T00:00:00.000500+01:00", 1_578_265_200_000),
])
def test_a_sub_millisecond_instant_rounds_half_to_even_exactly(text, ms):
    assert parse_timestamp(text) == ms


@pytest.fixture(scope="module")
def seed3(tmp_path_factory):
    return write_fixture(synthetic_dataset(seed=3, n_markets=12, n_traders=10),
                         tmp_path_factory.mktemp("seed3"))


def _loaded(paths):
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    columns = {table: {f.name: getattr(getattr(ds, table), f.name) for f in fields(table_type)}
               for table, table_type in (("trade_columns", TradeColumns),
                                         ("survey_columns", SurveyColumns))}
    return ds, columns


@pytest.mark.parametrize("block_rows", [1, 3, 7])
@pytest.mark.parametrize("fixture", ["seed3", "malformed"])
def test_a_table_read_in_blocks_loads_as_in_one(fixture, block_rows, monkeypatch, request):
    paths = (request.getfixturevalue("seed3") if fixture == "seed3" else
             {table: MALFORMED / f"{table}.csv" for table in ("outcomes", "surveys", "trades")})
    whole, whole_columns = _loaded(paths)
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    blocked, blocked_columns = _loaded(paths)
    assert blocked.findings == whole.findings
    assert blocked.load_report.to_dict() == whole.load_report.to_dict()
    for table, columns in whole_columns.items():
        for name, column in columns.items():
            mine, theirs = np.asarray(blocked_columns[table][name]), np.asarray(column)
            assert mine.dtype == theirs.dtype, (table, name)
            assert np.array_equal(mine, theirs, equal_nan=mine.dtype.kind == "f"), (table, name)


@pytest.mark.parametrize("block_rows", [dataset._BLOCK_ROWS, 1])
def test_a_table_without_an_accepted_row_loads_as_empty_columns(block_rows, monkeypatch,
                                                                 tmp_path):
    # the fixture `repmarket synth --seed 3` writes, with every trade priced
    # outside (0, 1) and a surveys file that is a header only
    paths = write_fixture(synthetic_dataset(seed=3), tmp_path)
    with open(paths["trades"], newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    at = header.index("post_trade_price")
    dataset.write_csv(paths["trades"], header, [row[:at] + ["2"] + row[at + 1:] for row in rows])
    dataset.write_csv(paths["surveys"], dataset.SURVEY_FIELDS, [])
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    ds, columns = _loaded(paths)
    report = ds.load_report
    assert report.counts["trades"] == {"lines": 351, "accepted": 0, "rejected": 351}
    assert report.counts["surveys"] == {"lines": 0, "accepted": 0, "rejected": 0}
    for column in (columns["trade_columns"]["seq"], columns["trade_columns"]["load_index"],
                   columns["survey_columns"]["load_index"]):
        assert column.dtype == np.int64 and len(column) == 0
    assert [(e.table, e.row, e.column, e.kind) for e in report.errors] == [
        ("trades", row, "post_trade_price", "invalid_value") for row in range(1, 352)]


def _row_by_row(paths, monkeypatch):
    """The dataset loaded with every timestamp parsed by parse_timestamp."""
    with monkeypatch.context() as m:
        m.setattr(dataset, "_canonical_instants", lambda texts: None)
        return load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])


@pytest.mark.parametrize("form", [
    lambda text: text[:-1] + "+00:00",
    lambda text: str(parse_timestamp(text)),
], ids=["offset", "epoch_ms"])
@pytest.mark.parametrize("faulty", [False, True])
def test_an_outcomes_block_with_one_time_off_shape_loads_as_row_by_row(
        form, faulty, seed3, tmp_path, monkeypatch):
    # one market time off format_timestamp's shape sends its column's block
    # row by row, while the other column's block is parsed at once; rows that
    # fault on an empty id, a category or a time keep their first fault
    with open(seed3["outcomes"], newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    at = {name: header.index(name) for name in header}
    opened = rows[3][at["market_open"]]
    rows[3][at["market_open"]] = form(opened)
    if faulty:
        rows[4][at["finding_id"]], rows[4][at["market_close"]] = "", "soon"
        # a stated category that disagrees with the p-value is a text fault too
        rows[5][at["p_value_category"]], rows[5][at["original_p_value"]] = "above", "0.001"
        rows[5][at["market_open"]] = "soon"
        rows[6][at["market_close"]] = "soon"
        # of two market times that do not parse, market_open's is the fault
        rows[7][at["market_open"]], rows[7][at["market_close"]] = "soon", "later"
    paths = {**seed3, "outcomes": tmp_path / "outcomes.csv"}
    dataset.write_csv(paths["outcomes"], header, rows)
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    expected = _row_by_row(paths, monkeypatch)
    assert ds.findings == expected.findings
    assert ds.load_report.to_dict() == expected.load_report.to_dict()
    assert [(e.row, e.column) for e in ds.load_report.errors if e.table == "outcomes"] == [
        (5, "finding_id"), (6, "p_value_category"), (7, "market_open/market_close"),
        (8, "market_open/market_close")
    ] * faulty
    assert [e.message for e in ds.load_report.errors if e.table == "outcomes" and e.row == 8] == [
        _one_by_one(["soon"])[1][1][2]] * faulty
    assert ds.findings[3].market_open == parse_timestamp(opened)


def test_canonical_market_times_are_parsed_by_block(seed3, monkeypatch):
    calls = []
    parse = dataset.parse_timestamp
    monkeypatch.setattr(dataset, "parse_timestamp", lambda text: calls.append(text) or parse(text))
    ds = load_dataset(seed3["outcomes"], seed3["surveys"], seed3["trades"])
    assert calls == []
    assert ds.findings == _row_by_row(seed3, monkeypatch).findings
    assert calls
