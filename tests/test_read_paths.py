"""The loader's two readers. numpy's reader takes a clean block of lines
(ASCII, no quote, no whitespace but the line ends, no empty field after a
comma, a line that is not blank, none over csv's field limit, every field's
column in the header) and any other block, or one numpy refuses, goes
through csv.reader. The columns, faults and load report must then be what
csv.reader + strip + the number rules give, bit for bit: the oracle here
loads each table as one block with numpy's reader switched off. These are
fixed examples, run without Hypothesis; `test_load_laws.py` states the same
laws over generated tables. A field over csv's field limit exits 2 from
every table."""

from contextlib import contextmanager
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from repmarket import cli, dataset
from repmarket.dataset import SurveyColumns, TradeColumns, load_dataset
from repmarket.errors import UnreadableInput

OUTCOMES = [
    "finding_id,project,outcome,p_value_category,original_p_value,market_open,market_close",
    "F1,RPP,1,above,0.03,2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z",
    "F2,SSRP,0,at_or_below,0.001,2020-01-07T00:00:00.000Z,2020-01-21T00:00:00.000Z",
]
SURVEYS = [
    "finding_id,forecaster_id,belief",
    "F1,alice,0.2",
    "F1,bob,0.4",
    "F2,alice,0.3",
    "F2,alice,0.35",   # a repeated response
    "F3,carol,0.5",    # an unknown finding
    "F1,carol,1.5",    # a belief outside [0, 1]
]
TRADES = [
    "finding_id,trader_id,timestamp,side,quantity,post_trade_price",
    "F1,alice,2020-01-06T01:00:00.000Z,YES,10,0.55",
    "F1,bob,2020-01-07T00:00:00.000Z,no,5,0.7",
    "F2,carol,2020-01-08T00:00:00.000Z,NO,3,0.45",
    "F2,alice,2020-01-09T00:00:00.000+00:00,,2,0.5",
    "F3,dave,2020-01-09T00:00:00.000Z,YES,2,0.5",
    "F1,,2020-01-09T00:00:00.000Z,YES,2,0.5",
    "F1,erin,soon,YES,1,0.6",
    "F1,erin,2020-01-10T00:00:00.000Z,BUY,1,0.6",
]
# the trades without an empty field, which numpy's reader takes as one block
FILLED_TRADES = [line for line in TRADES if ",," not in line]
TABLES = ("outcomes", "surveys", "trades")


def write_tables(directory, ending="\r\n", **lines):
    """The three tables' files, each given as its lines (the header first)."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for table, default in zip(TABLES, (OUTCOMES, SURVEYS, TRADES)):
        paths[table] = directory / f"{table}.csv"
        text = "".join(line + ending for line in lines.get(table, default))
        paths[table].write_bytes(text.encode("utf-8"))
    return paths


@contextmanager
def reading(csv_only=False):
    """The lines of each block numpy's reader takes while loading, in a list;
    with csv_only, numpy's reader takes no block."""
    taken = []
    numpy_block = dataset._numpy_block

    def spy(lines, dtype, usecols):
        columns = None if csv_only else numpy_block(lines, dtype, usecols)
        if columns is not None:
            taken.append(lines)
        return columns

    with mock.patch.object(dataset, "_numpy_block", spy):
        yield taken


def load(paths, mapping=None, block_rows=None, csv_only=False):
    """The dataset loaded, and the blocks numpy's reader took."""
    with reading(csv_only) as taken, mock.patch.object(
            dataset, "_BLOCK_ROWS", block_rows or dataset._BLOCK_ROWS):
        ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"], mapping=mapping)
    return ds, taken


def oracle(paths, mapping=None):
    """The dataset csv.reader + strip + the number rules give: each table read
    as one block, by csv.reader."""
    return load(paths, mapping, block_rows=10**9, csv_only=True)[0]


def _columns(ds):
    return {(kind.__name__, f.name): getattr(columns, f.name)
            for kind, columns in ((SurveyColumns, ds.survey_columns),
                                  (TradeColumns, ds.trade_columns))
            for f in fields(kind)}


def assert_same_load(ds, expected):
    """The same records, load report and columns, bit for bit."""
    assert ds.findings == expected.findings
    assert ds.load_report.to_dict() == expected.load_report.to_dict()
    mine = _columns(ds)
    for key, column in _columns(expected).items():
        if isinstance(column, list):  # finding_ids
            assert mine[key] == column, key
        elif column.dtype == object:
            assert [(type(v), v) for v in mine[key].tolist()] == \
                   [(type(v), v) for v in column.tolist()], key
        else:
            assert mine[key].dtype == column.dtype, key
            assert mine[key].tobytes() == column.tobytes(), key


def _with(lines, row, text):
    return lines[:row] + [text] + lines[row + 1:]


def _trade(quantity="1", price="0.5", trader="zoe"):
    return f"F1,{trader},2020-01-11T00:00:00.000Z,YES,{quantity},{price}"


# (name, the tables changed, the text whose block csv.reader must read, or
# None when numpy's reader takes every block)
CASES = [
    ("clean", {}, None),
    ("quoted id", {"trades": _with(TRADES, 2, 'F1,"bob",2020-01-07T00:00:00.000Z,NO,5,0.7')},
     '"bob"'),
    ("quoted comma", {"surveys": _with(SURVEYS, 2, 'F1,"b,ob",0.4')}, '"b,ob"'),
    ("spaces around ids",
     {"trades": _with(TRADES, 3, " F2 , carol ,2020-01-08T00:00:00.000Z,NO,3,0.45")}, " carol "),
    ("tab", {"surveys": _with(SURVEYS, 1, "F1,alice\t,0.2")}, "\t"),
    ("space in a number", {"trades": _with(TRADES, 1, _trade(price=" 0.55"))}, " 0.55"),
    ("form feed", {"trades": _with(TRADES, 1, _trade(trader="zoe\x0c"))}, "\x0c"),
    ("nul", {"trades": _with(TRADES, 1, _trade(trader="z\x00e"))}, "\x00"),
    ("no-break space", {"surveys": _with(SURVEYS, 1, "F1,alice\xa0,0.2")}, "\xa0"),
    ("byte-order mark in a field", {"surveys": _with(SURVEYS, 1, "F1,﻿alice,0.2")}, "﻿"),
    ("long id", {"trades": TRADES + [_trade(trader="x" * 5000)]}, None),
    ("underscore in a number", {"trades": TRADES + [_trade(quantity="1_0")]}, "1_0"),
    ("fullwidth digit", {"trades": TRADES + [_trade(price="０.５")]}, "０.５"),
    ("arabic-indic digits", {"surveys": SURVEYS + ["F2,dora,٠.٢"]}, "٠.٢"),
    ("nan, inf and -0", {"trades": TRADES + [_trade(quantity="nan"), _trade(price="inf"),
                                             _trade(quantity="-0"), _trade(price="-nan"),
                                             _trade(quantity="-inf"), _trade(price="NaN")],
                         "surveys": SURVEYS + ["F2,dora,nan", "F2,erin,-0", "F2,fay,Infinity"]},
     None),
    ("subnormal and huge", {"trades": TRADES + [_trade(quantity="5e-324"), _trade(quantity="1e500"),
                                                _trade(quantity="2.2250738585072014e-308"),
                                                _trade(price="1e-400")]},
     None),
    ("odd but plain numbers", {"trades": TRADES + [_trade(quantity=q)
                                                   for q in (".5", "5.", "+.5e+3", "0001")]}, None),
    ("empty quantity", {"trades": TRADES + [_trade(quantity="")]}, "YES,,0.5"),
    ("empty price", {"trades": TRADES + [_trade(price="")]}, "YES,1,\r"),
    ("number that is no number", {"trades": TRADES + [_trade(price="cheap")]}, "cheap"),
    ("hex number", {"trades": TRADES + [_trade(price="0x1p-1")]}, "0x1p-1"),
    ("short row", {"trades": TRADES + ["F1,zoe"]}, "F1,zoe\r"),
    ("long row", {"trades": TRADES + [_trade() + ",extra,fields"]}, None),
    ("blank lines", {"trades": TRADES[:2] + ["", ""] + TRADES[2:] + [""]}, None),
    ("a line of spaces", {"trades": TRADES[:3] + ["   "] + TRADES[3:]}, "   "),
    ("only blank lines", {"trades": TRADES[:1] + ["", "", ""]}, None),
    ("header only", {"surveys": SURVEYS[:1], "trades": TRADES[:1]}, None),
    ("outcomes with spaces", {"outcomes": _with(OUTCOMES, 1, OUTCOMES[1].replace("RPP", " rpp "))},
     " rpp "),
    ("outcomes without the optional p-value", {"outcomes": [
        "finding_id,project,outcome,p_value_category,market_open,market_close",
        "F1,RPP,1,above,2020-01-06T00:00:00.000Z,2020-01-20T00:00:00.000Z",
        "F2,SSRP,0,at_or_below,2020-01-07T00:00:00.000Z,2020-01-21T00:00:00.000Z"]},
     "F1,RPP,1,above,2020"),
]


def _holds(block, text):
    return any(text in line for line in block)


def _has_empty_field(lines):
    """Whether a line has an empty field after a comma."""
    return any(",," in line or line.endswith(",") for line in lines)


@pytest.mark.parametrize("ending", ["\r\n", "\n", "\r"])
@pytest.mark.parametrize("block_rows", [None, 1, 2])
@pytest.mark.parametrize("name, tables, csv_text", CASES, ids=[c[0] for c in CASES])
def test_each_block_loads_as_csv_reader_reads_it(name, tables, csv_text, block_rows, ending,
                                                 tmp_path):
    paths = write_tables(tmp_path, ending, **tables)
    try:
        expected = oracle(paths)
    except UnreadableInput:  # csv refuses NUL before Python 3.11
        with pytest.raises(UnreadableInput):
            load(paths, block_rows=block_rows)
        return
    ds, taken = load(paths, block_rows=block_rows)
    assert_same_load(ds, expected)
    if csv_text:
        assert not any(_holds(block, csv_text.replace("\r", ending)) for block in taken)
    if block_rows is None:
        # one block a table: numpy's reader takes each one with a data line
        # that is not blank, no empty field and without the text csv.reader
        # must read
        data = [tables.get(t, lines)[1:] for t, lines in zip(TABLES, (OUTCOMES, SURVEYS, TRADES))]
        assert len(taken) == sum(any(lines) and not _has_empty_field(lines)
                                 and not (csv_text and _holds(lines, csv_text.strip("\r")))
                                 for lines in data)


def test_a_block_of_csv_lines_reads_numbers_through_float(tmp_path):
    paths = write_tables(tmp_path,
                         trades=TRADES + [_trade(quantity="1_0"), _trade(price="０.５")])
    ds, taken = load(paths)
    assert len(taken) == 2  # outcomes and surveys
    assert ds.trade_columns.quantity[ds.trade_columns.source_row == 9].tolist() == [10.0]
    assert ds.trade_columns.price[ds.trade_columns.source_row == 10].tolist() == [0.5]


def test_a_crlf_table_is_read_by_numpy(tmp_path):
    paths = write_tables(tmp_path, "\r\n", trades=TRADES[:4], surveys=SURVEYS[:4])
    _, taken = load(paths)
    assert [len(block) for block in taken] == [2, 3, 3]
    assert all(line.endswith("\r\n") for block in taken for line in block)


def test_a_byte_order_mark_before_the_header_keeps_numpy_reading(tmp_path):
    paths = write_tables(tmp_path, trades=FILLED_TRADES)
    for table in TABLES:
        paths[table].write_bytes(b"\xef\xbb\xbf" + paths[table].read_bytes())
    ds, taken = load(paths)
    assert len(taken) == 3
    assert_same_load(ds, oracle(write_tables(tmp_path / "plain", trades=FILLED_TRADES)))


def test_a_mapping_that_reorders_columns_reads_each_field_from_its_column(tmp_path):
    order = [3, 5, 0, 4, 2, 1]  # side, price, finding_id, quantity, timestamp, trader_id
    rows = [line.split(",") for line in FILLED_TRADES]
    renamed = [f"col_{name}" for name in rows[0]]
    trades = [",".join([renamed[k] for k in order])] + [",".join(r[k] for k in order)
                                                         for r in rows[1:]]
    mapping = {"trades": dict(zip(rows[0], renamed))}
    paths = write_tables(tmp_path, trades=trades)
    ds, taken = load(paths, mapping=mapping)
    assert len(taken) == 3
    assert_same_load(ds, oracle(paths, mapping))
    assert_same_load(ds, oracle(write_tables(tmp_path / "canonical", trades=FILLED_TRADES)))


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_a_quote_that_runs_past_a_block_reads_on_to_the_end_of_its_record(block_rows, tmp_path):
    trades = TRADES[:2] + ['F1,"bo', 'b",2020-01-07T00:00:00.000Z,NO,5,0.7'] + TRADES[3:]
    paths = write_tables(tmp_path, trades=trades)
    ds, taken = load(paths, block_rows=block_rows)
    assert_same_load(ds, oracle(paths))
    assert ds.trade_columns.trader[ds.trade_columns.source_row == 2].tolist() == ["bo\r\nb"]
    assert not any(_holds(block, '"') for block in taken)
    # the lines after the record are read by numpy again
    assert any(_holds(block, "carol") for block in taken)


@pytest.mark.parametrize("row", [_trade(quantity=""), _trade(price=""), _trade(trader="")])
def test_a_block_with_an_empty_field_goes_to_csv_reader_unparsed_by_numpy(row, tmp_path):
    """numpy's reader would parse every line before an empty number and
    then refuse it: such a block goes straight to csv.reader."""
    paths = write_tables(tmp_path, trades=FILLED_TRADES + [row])
    parsed = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        parsed.append(lines)
        return loadtxt(lines, *args, **kwargs)

    with mock.patch.object(dataset.np, "loadtxt", spy):
        ds, taken = load(paths)
    assert len(parsed) == len(taken) == 2  # outcomes and surveys
    assert_same_load(ds, oracle(paths))


def test_a_line_over_the_field_limit_whose_fields_are_within_it_loads(tmp_path):
    limit = dataset.csv.field_size_limit()
    row = f"F9,{'f' * (limit // 2 + 1)},{'0' * (limit // 2 + 1)}.5"
    paths = write_tables(tmp_path, surveys=SURVEYS + [row], trades=FILLED_TRADES)
    ds, taken = load(paths)
    assert len(taken) == 2  # the surveys table goes through csv.reader
    assert_same_load(ds, oracle(paths))
    assert ds.load_report.counts["surveys"]["rejected"] == 4


@pytest.mark.parametrize("table", TABLES)
def test_a_field_over_the_field_limit_is_an_unreadable_input_that_exits_2(table, tmp_path,
                                                                        capsys):
    lines = dict(zip(TABLES, (OUTCOMES, SURVEYS, TRADES)))[table]
    big = "x" * 200_000 + lines[2][lines[2].index(","):]
    paths = write_tables(tmp_path, **{table: _with(lines, 2, big)})
    for block_rows in (None, 1):
        with pytest.raises(UnreadableInput, match=rf"^{table} table file .* cannot be read: "
                                                  r"line 3: field larger than field limit"):
            load(paths, block_rows=block_rows)
    args = [f"--{t}={paths[t]}" for t in TABLES]
    assert cli.main(["validate", *args, f"--out={tmp_path / 'out'}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: UnreadableInput: {table} table file ")


@pytest.mark.parametrize("block_rows", [None, 1, 2, 3])
def test_an_unreadable_line_is_counted_past_a_record_that_spans_lines(block_rows, tmp_path):
    trades = (TRADES[:2] + ['F1,"bo', 'b",2020-01-07T00:00:00.000Z,NO,5,0.7'] + TRADES[3:5]
              + [_trade(trader="x" * 200_000)])
    paths = write_tables(tmp_path, trades=trades)
    with pytest.raises(UnreadableInput, match="line 7: field larger than field limit"):
        load(paths, block_rows=block_rows)


def test_a_field_over_the_limit_in_a_header_is_unreadable_too(tmp_path):
    paths = write_tables(tmp_path, trades=[TRADES[0] + "," + "h" * 200_000] + TRADES[1:])
    with pytest.raises(UnreadableInput, match="line 1: field larger than field limit"):
        load(paths)


def test_numpy_reads_each_number_as_float_does():
    """numpy's reader takes a number only where float() gives the same bits."""
    dtype = [("finding_id", "O"), ("belief", "f8")]
    for text in ["0.1", "-0", "5e-324", "1e500", "-1e-400", "nan", "-nan", "inf", "-Infinity",
                 "1e5", "1E+05", ".5", "5.", "007"]:
        [_, belief] = dataset._numpy_block([f"F1,{text}\r\n"], dtype, [0, 1])
        assert np.array(float(text)).tobytes() == belief.tobytes(), text
    for text in ["1_0", "１", "٠.٥", "0x10", "1e", "", "nan(1)", "1.5j", "+-1"]:
        assert dataset._numpy_block([f"F1,{text}\r\n"], dtype, [0, 1]) is None, text
