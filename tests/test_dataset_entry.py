"""A Dataset takes each table one way: record lists, another dataset's record
views and bare columns all become columns grouped for its findings, and no
record is built for that. Its record views are read-only. Tables and mappings
written with a UTF-8 byte-order mark load as they do without one."""

import dataclasses
import json

import numpy as np
import pytest

from repmarket import dynamics
from repmarket.cli import run_pipeline
from repmarket.dataset import (Dataset, SurveyResponse, Trade, load_dataset, load_mapping,
                               surveys_for, trades_for, validate)
from repmarket.errors import NoReduction
from repmarket.synth import synthetic_dataset, write_fixture

from test_trade_columns import built  # noqa: F401  (the record-counting fixture)

BOM = "\ufeff"


@pytest.fixture(scope="module")
def seed3():
    return synthetic_dataset(seed=3)


@pytest.fixture()
def paper():
    # the shape of the benchmark's `paper` workload, built afresh: no record
    # of it has been read yet
    return synthetic_dataset(seed=1, n_markets=103, n_traders=89, min_trades=26,
                             max_trades=126)


def _assert_same_dataset(ds, expected):
    assert ds.findings == expected.findings
    assert ds.p_threshold == expected.p_threshold
    for name in ("survey_columns", "trade_columns"):
        columns, want = getattr(ds, name), getattr(expected, name)
        for f in dataclasses.fields(columns):
            value, wanted = getattr(columns, f.name), getattr(want, f.name)
            if f.name == "finding_ids":
                assert value == wanted
            else:
                assert value.dtype == wanted.dtype, (name, f.name)
                np.testing.assert_array_equal(value, wanted, err_msg=f"{name}.{f.name}")
    assert [dataclasses.astuple(t) for t in ds.trades] == [
        dataclasses.astuple(t) for t in expected.trades]
    assert [dataclasses.astuple(s) for s in ds.surveys] == [
        dataclasses.astuple(s) for s in expected.surveys]


def _report(ds) -> str:
    return json.dumps(run_pipeline(ds)["report"], sort_keys=True)


def test_bare_columns_grouped_for_other_findings_are_grouped_again(seed3):
    findings = seed3.findings[1:]
    sub = Dataset(findings, seed3.surveys, seed3.trade_columns)
    expected = Dataset(findings, list(seed3.surveys), list(seed3.trades))
    _assert_same_dataset(sub, expected)
    assert {t.finding_id for t in trades_for(sub, "F002")} == {"F002"}
    assert _report(sub) == _report(expected)


def test_a_project_given_bare_columns_runs_as_its_records_do(paper):
    rpp = [f for f in paper.findings if f.project == "RPP"]
    sub = Dataset(rpp, paper.survey_columns, paper.trade_columns)
    expected = Dataset(rpp, list(paper.surveys), list(paper.trades))
    _assert_same_dataset(sub, expected)
    assert _report(sub) == _report(expected)


@pytest.mark.parametrize("change", [
    lambda ds, t: ds.trades.append(t),
    lambda ds, t: ds.trades.__setitem__(0, t),
    lambda ds, t: ds.surveys.clear(),
], ids=["append", "setitem", "clear"])
def test_record_views_are_read_only(change):
    ds = synthetic_dataset(seed=3)
    counts = len(ds.trades), len(ds.surveys)
    with pytest.raises((AttributeError, TypeError)):
        change(ds, ds.trades[-1])
    assert (len(ds.trades), len(ds.surveys)) == counts
    assert run_pipeline(ds)["report"]["counts"]["trades"] == counts[0]


def test_a_read_view_still_gives_its_columns_back(seed3):
    list(seed3.trades), list(seed3.surveys)
    flipped = [dataclasses.replace(f, outcome=1 - f.outcome) for f in seed3.findings]
    new = dataclasses.replace(seed3, findings=flipped)
    assert new.trade_columns is seed3.trade_columns
    assert new.survey_columns is seed3.survey_columns


def test_record_views_read_as_lists(seed3):
    trades = list(seed3.trades)
    assert seed3.trades == trades and trades == seed3.trades
    assert seed3.trades[1:3] == trades[1:3]
    assert seed3.trades + seed3.surveys == trades + list(seed3.surveys)
    assert trades[:1] + seed3.trades == trades[:1] + trades


def test_a_project_subset_builds_no_record(paper, built):  # noqa: F811
    rpp = [f for f in paper.findings if f.project == "RPP"]
    built.update({Trade: 0, SurveyResponse: 0})
    sub = dataclasses.replace(paper, findings=rpp)
    assert built == {Trade: 0, SurveyResponse: 0}
    assert sub.finding_ids() == [f.finding_id for f in rpp]


def test_report_counts_the_rows_of_its_findings_alone(seed3):
    rpp = [f for f in seed3.findings if f.project == "RPP"]
    sub = dataclasses.replace(seed3, findings=rpp)
    trades = sum(len(trades_for(sub, fid)) for fid in sub.finding_ids())
    surveys = sum(len(surveys_for(sub, fid)) for fid in sub.finding_ids())
    assert 0 < trades < len(seed3.trade_columns)
    assert run_pipeline(sub)["report"]["counts"] == {
        "findings": len(rpp), "trades": trades, "surveys": surveys}
    # validate counts every row, those of unknown findings too
    counts = validate(sub).counts
    assert counts["trades"]["records"] == len(seed3.trade_columns)
    assert counts["surveys"]["records"] == len(seed3.survey_columns)


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plain")
    paths = write_fixture(synthetic_dataset(seed=3), directory)
    mapping = {"trades": {"post_trade_price": "price"}}
    trades = paths["trades"].read_text(encoding="utf-8")
    header, rest = trades.split("\n", 1)
    paths["trades"].write_text(header.replace("post_trade_price", "price") + "\n" + rest,
                               encoding="utf-8")
    paths["mapping"] = directory / "mapping.json"
    paths["mapping"].write_text(json.dumps(mapping), encoding="utf-8")
    return paths


def _load(paths):
    return load_dataset(paths["outcomes"], paths["surveys"], paths["trades"],
                        mapping=load_mapping(paths["mapping"]))


@pytest.mark.parametrize("table", ["outcomes", "surveys", "trades", "mapping"])
def test_a_byte_order_mark_changes_nothing(fixture, tmp_path, table):
    marked = dict(fixture)
    marked[table] = tmp_path / fixture[table].name
    marked[table].write_text(BOM + fixture[table].read_text(encoding="utf-8"),
                             encoding="utf-8")
    assert marked[table].read_bytes().startswith(b"\xef\xbb\xbf")
    plain, with_bom = _load(fixture), _load(marked)
    _assert_same_dataset(with_bom, plain)
    assert with_bom.load_report == plain.load_report


def test_the_reduction_share_of_a_flat_curve_is_undefined():
    flat = dynamics.ErrorCurve(dynamics.AXIS_HOURS, np.array([0.0, 1.0, 2.0]),
                               np.array([0.3, 0.3, 0.3]), np.array([2, 2, 2]))
    with pytest.raises(NoReduction):
        dynamics.reduction_share(flat, 1.0)


def test_the_reduction_share_reads_the_curve_between_grid_points():
    curve = dynamics.ErrorCurve(dynamics.AXIS_HOURS, np.array([0.0, 2.0, 4.0]),
                                np.array([0.5, 0.3, 0.1]), np.array([2, 2, 2]))
    assert dynamics.reduction_share(curve, 1.0) == pytest.approx(0.25)
    assert dynamics.reduction_share(curve, 4.0) == 1.0


def test_a_fraction_too_small_to_move_the_target_reaches_it_at_the_first_point():
    curve = dynamics.ErrorCurve(dynamics.AXIS_HOURS, np.array([3.0, 4.0]),
                                np.array([1.0, 0.5]), np.array([2, 2]))
    assert dynamics.reduction_milestone(curve, 1e-17).x_at_fraction == 3.0
