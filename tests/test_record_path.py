"""A Dataset holds its survey responses and trades as columns only. Every
record it gives is built from them and carries every field of the record it
was built from, seq and source_row too, whatever the record's values."""

import dataclasses

import pytest

from repmarket.dataset import Dataset, SurveyResponse, trades_for, validate

from helpers import make_finding, make_trade, survey

FINDINGS = [make_finding("F1")]
PAST_INT64 = 2**63 + 7  # ms: no int64 column holds it


def _every_field(records):
    # records compare without seq and source_row: compare every field
    return [dataclasses.astuple(r) for r in records]


@pytest.mark.parametrize("trade, message", [
    (make_trade("F1", side="BUY", seq=7), "side must be YES or NO, got 'BUY'"),
    (make_trade("F1", quantity=None, seq=7), None),
    (make_trade("X9", seq=7), "unknown finding_id 'X9'"),
    (make_trade("F1", ts=PAST_INT64, seq=7),
     f"timestamp {PAST_INT64} outside the years 0001-9999 UTC"),
], ids=["invalid_side", "no_quantity", "unknown_finding", "past_int64"])
def test_a_trade_is_built_back_as_given(trade, message):
    trades = [make_trade("F1", seq=9), dataclasses.replace(trade, source_row=2),
              make_trade("X8", seq=1)]
    ds = Dataset(FINDINGS, [], trades)
    assert _every_field(ds.trades) == _every_field(trades)
    # validate words its messages from the records built back
    errors = [(v.row, v.message) for v in validate(ds).errors if v.kind != "outside_window"]
    assert errors == [(2, message)] * (message is not None) + [
        (None, "unknown finding_id 'X8'")]


def test_responses_of_unknown_findings_are_built_back_as_given():
    surveys = [SurveyResponse("X9", "a", 0.5, source_row=4), survey("F1", "a", 1.5),
               SurveyResponse("X8", "b", 0.25, source_row=1), survey("X9", "c", 0.0)]
    ds = Dataset(FINDINGS, surveys, [])
    assert _every_field(ds.surveys) == _every_field(surveys)
    assert [(v.row, v.message) for v in validate(ds).errors] == [
        (4, "unknown finding_id 'X9'"), (None, "belief 1.5 outside [0, 1]"),
        (1, "unknown finding_id 'X8'"), (None, "unknown finding_id 'X9'")]


def test_a_dataset_keeps_no_reference_to_the_lists_it_was_built_from():
    surveys, trades = [survey("F1", "a", 0.5)], [make_trade("F1")]
    read = Dataset(FINDINGS, surveys, trades)
    before = _every_field(read.surveys), _every_field(read.trades)
    unread = Dataset(FINDINGS, surveys, trades)
    surveys.append(survey("F1", "b", 0.7))
    trades.append(make_trade("F1", seq=1))
    for ds in (read, unread):
        assert (_every_field(ds.surveys), _every_field(ds.trades)) == before
        assert len(trades_for(ds, "F1")) == len(ds.trade_columns) == 1
