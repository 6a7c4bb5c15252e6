"""The trades and survey responses of a loaded dataset are columns: the
analysis commands read them as per-finding slices and build no `Trade` or
`SurveyResponse` record, and what they return from the columns are Python
numbers, not numpy scalars."""

import contextlib
import dataclasses
import io

import numpy as np
import pytest

from repmarket import aggregate, dynamics, lmsr
from repmarket.cli import main
from repmarket.dataset import (Dataset, SurveyColumns, SurveyResponse, Trade, TradeColumns,
                               load_dataset)
from repmarket.synth import synthetic_dataset, write_fixture

COMMANDS = {
    "report": ["report"],
    "evaluate": ["evaluate"],
    "dynamics": ["dynamics"],
    "replay": ["replay"],
    "replay_simulated": ["replay", "--mode", "simulated", "--liquidity-b", "50"],
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_fixture(synthetic_dataset(seed=3, n_markets=12, n_traders=10),
                         tmp_path_factory.mktemp("data"))


@pytest.fixture()
def built(monkeypatch):
    """The number of Trade and of SurveyResponse records built while the test runs."""
    count = {Trade: 0, SurveyResponse: 0}

    def counting(record_type):
        init = record_type.__init__

        def init_counted(self, *args, **kwargs):
            count[record_type] += 1
            init(self, *args, **kwargs)
        return init_counted

    for record_type in count:
        monkeypatch.setattr(record_type, "__init__", counting(record_type))
    return count


def _data_args(paths):
    return ["--outcomes", str(paths["outcomes"]), "--surveys", str(paths["surveys"]),
            "--trades", str(paths["trades"])]


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_on_a_loaded_dataset_build_no_trade(paths, tmp_path, built, command):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*COMMANDS[command], *_data_args(paths), "--out", str(tmp_path)]) == 0
    assert built[Trade] == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_on_a_loaded_dataset_build_no_survey_response(paths, tmp_path, built,
                                                               command):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*COMMANDS[command], *_data_args(paths), "--out", str(tmp_path)]) == 0
    assert built[SurveyResponse] == 0


def test_the_count_builds_no_record(paths, built):
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    counts = len(ds.trades), len(ds.surveys)
    assert built == {Trade: 0, SurveyResponse: 0}
    assert counts == (ds.load_report.counts["trades"]["accepted"],
                      ds.load_report.counts["surveys"]["accepted"])


def test_values_read_from_the_columns_are_python_floats(paths):
    ds = load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
    fid = ds.finding_ids()[0]
    for axis in (dynamics.AXIS_TRADES, dynamics.AXIS_HOURS):
        series = dynamics.error_series(ds, fid, axis)
        assert {type(v) for point in series for v in point} == {float}
    prices = (lmsr.replay(ds, fid, mode=lmsr.PRICE_TAKING)
              + lmsr.replay(ds, fid, mode=lmsr.SIMULATED, liquidity_b=50.0))
    assert {type(p) for p in prices} == {float}
    forecast = aggregate.market_final_price(ds, fid)
    assert type(forecast.value) is float and type(forecast.n_inputs) is int
    assert {type(v) for pair in dynamics.late_trade_forecasts(ds).values()
            for v in pair} == {float}
    forecasts = aggregate.aggregate_all(ds, methods=aggregate.SURVEY_METHODS)
    assert {(type(f.value), type(f.n_inputs)) for f in forecasts} == {(float, int)}
    assert {type(w.weight) for w in aggregate.forecaster_weights(ds)} == {float}


def test_replacing_the_trades_builds_no_survey_response(built):
    # the `paper` workload's shape: 103 findings, about 7,400 survey responses
    ds = synthetic_dataset(seed=1, n_markets=103, n_traders=89, min_trades=26, max_trades=126)
    built[SurveyResponse] = 0
    smaller = dataclasses.replace(ds, trades=[])
    assert built[SurveyResponse] == 0
    assert len(smaller.trade_columns) == 0
    assert smaller == Dataset(ds.findings, ds.surveys, [])


def _assert_same_columns(columns, expected):
    for f in dataclasses.fields(columns):
        value, want = getattr(columns, f.name), getattr(expected, f.name)
        if f.name == "finding_ids":
            assert value == want
        else:
            assert value.dtype == want.dtype, f.name
            np.testing.assert_array_equal(value, want, err_msg=f.name)


@pytest.mark.parametrize("source", ["built", "loaded"])
def test_an_outcome_flip_takes_both_tables_back_and_builds_no_record(paths, built, source):
    ds = (synthetic_dataset(seed=1, n_markets=12, n_traders=10) if source == "built"
          else load_dataset(paths["outcomes"], paths["surveys"], paths["trades"]))
    flipped = [dataclasses.replace(f, outcome=1 - f.outcome) for f in ds.findings]
    built.update({Trade: 0, SurveyResponse: 0})
    new = dataclasses.replace(ds, findings=flipped)
    assert built == {Trade: 0, SurveyResponse: 0}
    assert new.trade_columns is ds.trade_columns
    assert new.survey_columns is ds.survey_columns
    rebuilt = Dataset(flipped, list(ds.surveys), list(ds.trades))
    _assert_same_columns(new.trade_columns, rebuilt.trade_columns)
    _assert_same_columns(new.survey_columns, rebuilt.survey_columns)


def test_a_close_moved_past_2_to_the_52_keeps_the_timestamps_exact(built):
    ds = synthetic_dataset(seed=1, n_markets=12, n_traders=10)
    assert ds.trade_columns.timestamp.dtype == np.int64
    last = 2**52 + 1  # ms: an int64 column of instants holds none this large
    moved = ds.findings[:-1] + [dataclasses.replace(ds.findings[-1], market_close=last)]
    new = dataclasses.replace(ds, findings=moved)
    assert new.trade_columns.timestamp.dtype == object
    assert new.trade_columns.timestamp.tolist() == ds.trade_columns.timestamp.tolist()
    assert new.market_columns["market_close"][-1] == last
    assert {type(ms) for ms in new.market_columns["market_close"]} == {int}
    _assert_same_columns(new.trade_columns,
                         Dataset(moved, list(ds.surveys), list(ds.trades)).trade_columns)
    # and back: bounds inside the limit give int64 columns again
    back = dataclasses.replace(new, findings=ds.findings)
    assert back.trade_columns.timestamp.dtype == np.int64
    # the survey responses were taken back each time
    assert new.survey_columns is back.survey_columns is ds.survey_columns


def test_synth_builds_only_the_engines_trades(built, monkeypatch):
    calls = []
    execute = lmsr.execute_trade

    def counted(*args):
        calls.append(args)
        return execute(*args)

    monkeypatch.setattr(lmsr, "execute_trade", counted)
    ds = synthetic_dataset(seed=1, n_markets=12, n_traders=10)
    # one engine call a trade, and the engine's Trade the only record built
    assert len(calls) == len(ds.trade_columns) > 0
    assert built == {Trade: len(calls), SurveyResponse: 0}


def test_synth_columns_are_the_columns_of_its_records():
    ds = synthetic_dataset(seed=3, n_markets=12, n_traders=10)
    _assert_same_columns(ds.trade_columns, TradeColumns.from_records(list(ds.trades), ds.findings))
    _assert_same_columns(ds.survey_columns,
                         SurveyColumns.from_records(list(ds.surveys), ds.findings))


def test_two_loads_compare_equal_building_no_record(paths, built):
    first, second = (load_dataset(paths["outcomes"], paths["surveys"], paths["trades"])
                     for _ in range(2))
    assert first == second
    assert first.trades == second.trades and first.surveys == second.surveys
    assert built == {Trade: 0, SurveyResponse: 0}
