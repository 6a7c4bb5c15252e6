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
