"""Laws of the loader against the writer and against `validate`, for
arbitrary datasets: written valid records load back unchanged, and of
written records with faults the loader rejects exactly those `validate`
flags (trades outside their window aside: the loader keeps them)."""

import dataclasses
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repmarket.dataset import (  # noqa: E402
    CATEGORIES,
    CATEGORY_ABOVE,
    CATEGORY_AT_OR_BELOW,
    DEFAULT_P_THRESHOLD,
    PROJECTS,
    SIDES,
    Dataset,
    Finding,
    SurveyResponse,
    Trade,
    load_dataset,
    validate,
    write_dataset,
)

from helpers import BASE_MS, DAY_MS  # noqa: E402

# ids need quoting in CSV (comma, quote) but have no outer whitespace, which
# the loader strips; injected records use ids from letters outside this set
IDS = st.text(alphabet="aF7_,\"'-", min_size=1, max_size=4)
TIMES = st.integers(BASE_MS - 5 * DAY_MS, BASE_MS + 40 * DAY_MS)
UNIT = st.floats(0.0, 1.0)
PRICES = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
QUANTITIES = st.none() | st.floats(0.0, 1e6, exclude_min=True)


@st.composite
def valid_finding(draw, fid):
    p_value = draw(st.none() | UNIT)
    if p_value is None:
        category = draw(st.sampled_from(CATEGORIES))
    else:
        category = (CATEGORY_AT_OR_BELOW if p_value <= DEFAULT_P_THRESHOLD
                    else CATEGORY_ABOVE)
    market_open = draw(TIMES)
    return Finding(fid, draw(st.sampled_from(PROJECTS)), draw(st.integers(0, 1)),
                   category, p_value, market_open,
                   market_open + draw(st.integers(1, 30 * DAY_MS)))


@st.composite
def valid_tables(draw):
    """The findings, survey responses and trades of a dataset without faults."""
    fids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    known = st.sampled_from(fids)
    pairs = draw(st.lists(st.tuples(known, IDS), max_size=10, unique=True))
    trades = draw(st.lists(st.builds(Trade, known, IDS, TIMES, st.sampled_from(SIDES),
                                     QUANTITIES, PRICES), max_size=12))
    return ([draw(valid_finding(fid)) for fid in fids],
            [SurveyResponse(fid, who, draw(UNIT)) for fid, who in pairs], trades)


def valid_datasets():
    return valid_tables().map(lambda tables: Dataset(*tables))


def _replace(**changes):
    return lambda record: dataclasses.replace(record, **changes)


FINDING_FAULTS = (
    _replace(project="XXX"),
    _replace(outcome=2),
    _replace(p_value_category="maybe"),
    _replace(p_value_category=CATEGORY_ABOVE, original_p_value=0.001),
    _replace(p_value_category=CATEGORY_AT_OR_BELOW, original_p_value=-0.3),
    lambda f: dataclasses.replace(f, market_close=f.market_open),
)
SURVEY_FAULTS = (_replace(belief=1.5), _replace(belief=-0.25), _replace(belief=float("nan")),
                 _replace(finding_id="gone"))
TRADE_FAULTS = (_replace(side="BUY"), _replace(quantity=0.0), _replace(quantity=-1.0),
                _replace(quantity=float("inf")), _replace(post_trade_price=0.0),
                _replace(post_trade_price=1.0), _replace(post_trade_price=1.5),
                _replace(finding_id="gone"))


@st.composite
def faulty_datasets(draw):
    """A valid dataset with records that break one or more rules inserted
    anywhere: findings under new ids, responses by new forecasters, any
    trade, and copies of a valid finding or response. A record that breaks
    a rule is never one another record depends on."""
    ds = draw(valid_datasets())
    tables = {"findings": list(ds.findings), "surveys": list(ds.surveys),
              "trades": list(ds.trades)}

    def insert(table, record):
        records = tables[table]
        records.insert(draw(st.integers(0, len(records))), record)

    def broken(record, faults):
        for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=3)):
            record = fault(record)
        return record

    for k in range(draw(st.integers(0, 4))):
        insert("findings", broken(draw(valid_finding(f"bad{k}")), FINDING_FAULTS))
    for k in range(draw(st.integers(0, 4))):
        response = SurveyResponse(draw(st.sampled_from(ds.findings)).finding_id,
                                  f"bad{k}", draw(UNIT))
        insert("surveys", broken(response, SURVEY_FAULTS))
    for _ in range(draw(st.integers(0, 4)) if ds.trades else 0):
        insert("trades", broken(draw(st.sampled_from(ds.trades)), TRADE_FAULTS))
    if draw(st.booleans()):
        insert("findings", draw(st.sampled_from(ds.findings)))
    if ds.surveys and draw(st.booleans()):
        insert("surveys", draw(st.sampled_from(ds.surveys)))
    # each record carries the row it is written to
    return Dataset(*([dataclasses.replace(r, source_row=row)
                      for row, r in enumerate(tables[t], start=1)]
                     for t in ("findings", "surveys", "trades")))


def _write_and_load(ds):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("o.csv", "s.csv", "t.csv")]
        write_dataset(ds, *paths)
        return load_dataset(*paths)


@settings(max_examples=40, deadline=None)
@given(valid_datasets())
def test_load_reproduces_the_written_records(ds):
    again = _write_and_load(ds)
    assert again.load_report.errors == []
    assert again.findings == ds.findings
    assert again.surveys == ds.surveys
    assert again.trades == ds.trades


@settings(max_examples=60, deadline=None)
@given(faulty_datasets())
def test_load_rejects_the_rows_validate_flags(ds):
    loaded = _write_and_load(ds)
    rejected = [(v.table, v.row) for v in loaded.load_report.errors]
    flagged = {(v.table, v.row) for v in validate(ds).errors if v.kind != "outside_window"}
    assert len(rejected) == len(set(rejected))  # one error per rejected row
    assert set(rejected) == flagged
    assert loaded.findings == [f for f in ds.findings
                               if ("outcomes", f.source_row) not in flagged]
    assert loaded.surveys == [s for s in ds.surveys
                              if ("surveys", s.source_row) not in flagged]
    assert loaded.trades == [t for t in ds.trades if ("trades", t.source_row) not in flagged]


# The loader's two readers (see test_read_paths.py, which holds the same
# cases as fixed examples): whatever block numpy's reader takes loads as
# csv.reader + strip + the number rules read it, bit for bit, and a number
# that float() reads but numpy's reader refuses sends its block to csv.reader.

from test_read_paths import (  # noqa: E402
    OUTCOMES,
    assert_same_load,
    load,
    oracle,
    write_tables,
)
import csv  # noqa: E402

import numpy as np  # noqa: E402

from repmarket import dataset  # noqa: E402
from repmarket.errors import UnreadableInput  # noqa: E402

NUMBER_TEXTS = st.one_of(
    st.floats().map(repr), st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0", "5e-324", "1e500",
                     "1e-400", ".5", "5.", "+.5e+3", "0001", "1_0", "１", "٠.٥", "", " 0.5",
                     "0.5\t", "0x1p-1", "1e", "cheap"]),
    st.text(st.sampled_from(list("0123456789.e-+_ ni")), max_size=6))
ID_TEXTS = st.one_of(
    st.sampled_from(["F1", "F2", "F3", "", " F1 ", "alice", "bob"]),
    st.text(st.sampled_from(list('aF1_," \t.-０é\xa0\x0c\x1f﻿')), max_size=4))
TIME_TEXTS = st.sampled_from(["2020-01-06T01:00:00.000Z", "2020-01-07T00:00:00.000+00:00",
                              "1578272400000", "2020-01-08T00:00:00.000Z", "soon", ""])
SIDE_TEXTS = st.sampled_from(["YES", "NO", "no", "", "BUY", " YES"])
ENDINGS = st.sampled_from(["\r\n", "\n", "\r"])


def _cell(draw, texts):
    """A field's text, quoted as csv writes it now and then."""
    text = draw(texts)
    return '"' + text.replace('"', '""') + '"' if draw(st.integers(0, 9)) == 0 else text


@st.composite
def table_lines(draw, columns):
    """The lines of a table: rows of the columns' texts, now and then short,
    long, blank or spaces alone, each with its own line end."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            row = ""
        elif kind == 1:
            row = "  "
        else:
            cells = [_cell(draw, texts) for texts in columns]
            if kind == 2:
                cells = cells[:draw(st.integers(1, len(cells) - 1))]
            elif kind == 3:
                cells.append("extra")
            row = ",".join(cells)
        lines.append(row + draw(ENDINGS))
    return lines


def _write_lines(path, header, lines):
    path.write_bytes((header + "\r\n" + "".join(lines)).encode("utf-8"))


@settings(max_examples=150, deadline=None)
@given(table_lines([ID_TEXTS, ID_TEXTS, NUMBER_TEXTS]),
       table_lines([ID_TEXTS, ID_TEXTS, TIME_TEXTS, SIDE_TEXTS, NUMBER_TEXTS, NUMBER_TEXTS]),
       st.sampled_from([None, 1, 2, 3]))
def test_every_block_loads_as_csv_reader_reads_it(surveys, trades, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_tables(Path(tmp), outcomes=OUTCOMES)
        _write_lines(paths["surveys"], ",".join(dataset.SURVEY_FIELDS), surveys)
        _write_lines(paths["trades"], ",".join(dataset.TRADE_FIELDS), trades)
        try:
            expected = oracle(paths)
        except UnreadableInput:  # csv refuses NUL before Python 3.11
            with pytest.raises(UnreadableInput):
                load(paths, block_rows=block_rows)
            return
        ds, _ = load(paths, block_rows=block_rows)
    assert_same_load(ds, expected)


@settings(max_examples=400, deadline=None)
@given(ID_TEXTS, NUMBER_TEXTS)
def test_numpy_takes_a_line_only_as_csv_reader_and_float_read_it(fid, number):
    line = f"{fid},{number}\r\n"
    dtype = [("finding_id", "O"), ("belief", "f8")]
    columns = dataset._numpy_block([line], dtype, [0, 1])
    fields_read = next(csv.reader([line]))
    try:
        value = float(fields_read[1].strip()) if len(fields_read) > 1 else None
    except ValueError:
        value = None
    if columns is not None:
        assert value is not None
        assert columns[0].tolist() == [fields_read[0].strip()]
        assert columns[1].tobytes() == np.array([value]).tobytes()
    try:
        np.loadtxt([line], dtype=dtype, delimiter=",", comments=None, usecols=[0, 1], ndmin=1)
    except ValueError:
        # a number float() reads and numpy's reader refuses goes to csv.reader
        assert columns is None
