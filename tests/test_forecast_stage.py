"""The forecast stage states each rule once: each overestimation test is null
on its own pairs alone, the compared forecasts are scored once (as columns,
their rows built only on request), and each aggregation method is read once
however often it is asked for."""

import dataclasses

from repmarket import aggregate, evaluate, stats
from repmarket.aggregate import METHOD_MARKET, METHOD_MEAN, METHOD_MEDIAN
from repmarket.cli import forecast_stage, main, run_pipeline
from repmarket.synth import synthetic_dataset, write_fixture


def _only_the_first_market_traded():
    ds = synthetic_dataset(seed=3, n_markets=12, n_traders=10)
    return dataclasses.replace(ds, trades=[t for t in ds.trades if t.finding_id == "F001"])


def test_each_overestimation_test_is_null_only_when_its_own_pairs_leave_it_undefined():
    ds = _only_the_first_market_traded()
    forecasts = aggregate.aggregate_all(ds)
    over = evaluate.overestimation_tests(forecasts, ds)
    assert over[METHOD_MARKET] is None  # one market price: one pair
    outcome = {f.finding_id: f.outcome for f in ds.findings}
    survey = [f for f in forecasts if f.method == METHOD_MEAN]
    assert over[METHOD_MEAN] == stats.paired_t([outcome[f.finding_id] for f in survey],
                                               [f.value for f in survey])

    tests = run_pipeline(ds)["report"]["tests"]
    assert tests["overestimation_market"] is None
    assert tests["overestimation_survey"]["df"] == 11.0


def test_the_forecast_stage_builds_one_score_row_per_score(monkeypatch, synth_ds):
    built = []
    init = evaluate.ScoreRow.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(evaluate.ScoreRow, "__init__", counting)
    _, scores, _ = forecast_stage(synth_ds)
    # the stage reads the score table's columns: a row is built only on request
    assert built == []
    assert len(list(scores)) == len(built) == len(scores)
    list(scores)  # a second read builds none
    assert len(built) == len(scores)


def test_a_repeated_method_is_aggregated_once(synth_ds):
    methods = (METHOD_MEDIAN, METHOD_MARKET)
    assert (aggregate.aggregate_all(synth_ds, methods=methods + methods + (METHOD_MEDIAN,))
            == aggregate.aggregate_all(synth_ds, methods=methods))


def test_aggregate_writes_a_repeated_method_once(tmp_path, capsys):
    paths = write_fixture(synthetic_dataset(seed=3), tmp_path / "data")
    data = [f"--{name}={path}" for name, path in paths.items()]
    assert main(["aggregate", *data, "--method", METHOD_MEAN, "--method", METHOD_MEAN,
                 "--out", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "aggregates.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 12
    assert "12 forecasts (1 methods)" in capsys.readouterr().out
