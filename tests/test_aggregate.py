import random

import pytest

from repmarket import aggregate
from repmarket.errors import AllWeightsZero, EmptyMarket, NoSurveyResponses, OutOfRange

from helpers import (
    BASE_MS,
    DAY_MS,
    HOUR_MS,
    make_dataset,
    make_finding,
    make_trade,
    survey,
)


def test_market_final_price_fixture(fixture_ds):
    fc = aggregate.market_final_price(fixture_ds, "F001")
    assert fc.value == 0.8
    assert fc.n_inputs == 3
    assert fc.method == aggregate.METHOD_MARKET


def test_market_final_price_ignores_post_close_trades():
    f = make_finding("F1")
    trades = [
        make_trade("F1", ts=BASE_MS + HOUR_MS, price=0.7, seq=0),
        make_trade("F1", ts=f.market_close + DAY_MS, price=0.99, seq=1),
    ]
    ds = make_dataset([f], trades=trades)
    assert aggregate.market_final_price(ds, "F1").value == 0.7


def test_market_final_price_counts_only_trades_before_close():
    f = make_finding("F1")
    trades = [
        make_trade("F1", ts=BASE_MS + HOUR_MS, price=0.6, seq=0),
        make_trade("F1", ts=BASE_MS + 2 * HOUR_MS, price=0.7, seq=1),
        make_trade("F1", ts=f.market_close + DAY_MS, price=0.99, seq=2),
    ]
    fc = aggregate.market_final_price(make_dataset([f], trades=trades), "F1")
    assert (fc.value, fc.n_inputs) == (0.7, 2)


def test_market_final_price_empty_market():
    ds = make_dataset([make_finding("F1")])
    with pytest.raises(EmptyMarket):
        aggregate.market_final_price(ds, "F1")


def test_survey_mean_median_fixture(fixture_ds):
    assert aggregate.survey_mean(fixture_ds, "F001").value == pytest.approx(0.5)
    assert aggregate.survey_median(fixture_ds, "F001").value == 0.4


def test_survey_median_even_count():
    f = make_finding("F1")
    ds = make_dataset([f], surveys=[survey("F1", "a", 0.2), survey("F1", "b", 0.3),
                                    survey("F1", "c", 0.6), survey("F1", "d", 0.9)])
    assert aggregate.survey_median(ds, "F1").value == pytest.approx(0.45)


def test_survey_voting(fixture_ds):
    fc = aggregate.survey_voting(fixture_ds, "F001")
    assert fc.value == pytest.approx(1.0 / 3.0)
    assert fc.n_inputs == 3


def test_survey_voting_boundary_counts_as_success():
    f = make_finding("F1")
    ds = make_dataset([f], surveys=[survey("F1", "a", 0.5)])
    assert aggregate.survey_voting(ds, "F1").value == 1.0


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, 2.0, float("inf")])
def test_survey_voting_refuses_a_threshold_outside_the_unit_interval(fixture_ds, threshold):
    # as aggregate_all does, whether or not the finding has responses
    for ds in (fixture_ds, make_dataset([make_finding("F1")])):
        with pytest.raises(OutOfRange, match="threshold must be in"):
            aggregate.survey_voting(ds, ds.finding_ids()[0], threshold=threshold)
        with pytest.raises(OutOfRange, match="threshold must be in"):
            aggregate.aggregate_all(ds, threshold=threshold)


def test_no_survey_responses():
    ds = make_dataset([make_finding("F1")])
    for fn in (aggregate.survey_mean, aggregate.survey_median,
               aggregate.survey_voting):
        with pytest.raises(NoSurveyResponses):
            fn(ds, "F1")


def test_forecaster_weights():
    f1, f2, f3 = (make_finding(fid) for fid in ("F1", "F2", "F3"))
    ds = make_dataset(
        [f1, f2, f3],
        surveys=[
            survey("F1", "spread", 0.9), survey("F2", "spread", 0.1),
            survey("F1", "single", 0.7),
            survey("F1", "flat", 0.6), survey("F2", "flat", 0.6),
            survey("F3", "flat", 0.6),
        ])
    weights = {w.forecaster_id: w.weight for w in aggregate.forecaster_weights(ds)}
    assert weights["spread"] == pytest.approx(0.32, abs=1e-12)
    assert weights["single"] == 0.0
    assert weights["flat"] == 0.0


def test_aggregate_all_weighs_forecasters_only_for_the_var_weighted_method(
        fixture_ds, monkeypatch):
    def weights(ds):
        raise AssertionError("forecaster weights computed")

    monkeypatch.setattr(aggregate, "_weights", weights)
    others = [m for m in aggregate.ALL_METHODS if m != aggregate.METHOD_VAR_WEIGHTED]
    assert {f.method for f in aggregate.aggregate_all(fixture_ds, methods=others)} == set(others)
    with pytest.raises(AssertionError, match="forecaster weights computed"):
        aggregate.aggregate_all(fixture_ds)


def test_survey_var_weighted_hand_value():
    f = make_finding("F1")
    ds = make_dataset([f], surveys=[survey("F1", "a", 0.8), survey("F1", "b", 0.2)])
    fc = aggregate.survey_var_weighted(ds, "F1", {"a": 3.0, "b": 1.0})
    assert fc.value == pytest.approx(0.65, abs=1e-12)


def test_survey_var_weighted_uniform_equals_mean(fixture_ds):
    weights = {"alice": 0.7, "bob": 0.7, "carol": 0.7}
    vw = aggregate.survey_var_weighted(fixture_ds, "F001", weights)
    mean = aggregate.survey_mean(fixture_ds, "F001")
    assert vw.value == pytest.approx(mean.value, abs=1e-12)


def test_survey_var_weighted_all_zero():
    f = make_finding("F1")
    ds = make_dataset([f], surveys=[survey("F1", "a", 0.8)])
    with pytest.raises(AllWeightsZero):
        aggregate.survey_var_weighted(ds, "F1", {"a": 0.0})


def _random_survey_ds(rng, n_beliefs):
    f = make_finding("F1")
    surveys = [survey("F1", f"p{i}", rng.random()) for i in range(n_beliefs)]
    return make_dataset([f], surveys=surveys), surveys


@pytest.mark.parametrize("method", [aggregate.survey_mean, aggregate.survey_median,
                                    aggregate.survey_voting])
def test_permutation_invariance(method):
    rng = random.Random(31)
    for _ in range(100):
        ds, surveys = _random_survey_ds(rng, rng.randint(1, 12))
        baseline = method(ds, "F1").value
        shuffled = surveys[:]
        rng.shuffle(shuffled)
        ds2 = make_dataset(list(ds.findings), surveys=shuffled)
        assert method(ds2, "F1").value == pytest.approx(baseline, abs=1e-12)


def test_range_containment_randomized():
    rng = random.Random(32)
    for _ in range(100):
        ds, _ = _random_survey_ds(rng, rng.randint(1, 12))
        weights = {s.forecaster_id: rng.random() + 0.01 for s in ds.surveys}
        for value in (aggregate.survey_mean(ds, "F1").value,
                      aggregate.survey_median(ds, "F1").value,
                      aggregate.survey_voting(ds, "F1").value,
                      aggregate.survey_var_weighted(ds, "F1", weights).value):
            assert 0.0 <= value <= 1.0


def test_voting_equals_mean_on_binary_beliefs():
    rng = random.Random(33)
    f = make_finding("F1")
    for _ in range(50):
        surveys = [survey("F1", f"p{i}", float(rng.random() < 0.5))
                   for i in range(rng.randint(1, 10))]
        ds = make_dataset([f], surveys=surveys)
        assert (aggregate.survey_voting(ds, "F1").value
                == pytest.approx(aggregate.survey_mean(ds, "F1").value, abs=1e-12))


def test_monotonicity_under_single_belief_increase():
    rng = random.Random(34)
    for _ in range(100):
        ds, surveys = _random_survey_ds(rng, rng.randint(2, 10))
        weights = {s.forecaster_id: rng.random() + 0.01 for s in ds.surveys}
        idx = rng.randrange(len(surveys))
        bumped = surveys[:]
        s = bumped[idx]
        bumped[idx] = survey(s.finding_id, s.forecaster_id,
                             min(1.0, s.belief + rng.random() * (1.0 - s.belief)))
        ds2 = make_dataset(list(ds.findings), surveys=bumped)
        for method in (aggregate.survey_mean, aggregate.survey_voting):
            assert method(ds2, "F1").value >= method(ds, "F1").value - 1e-12
        assert (aggregate.survey_var_weighted(ds2, "F1", weights).value
                >= aggregate.survey_var_weighted(ds, "F1", weights).value - 1e-12)


def test_aggregate_all_skips_unaggregatable(fixture_ds):
    forecasts = aggregate.aggregate_all(fixture_ds)
    by_key = {(f.finding_id, f.method) for f in forecasts}
    # both findings have trades and surveys: 5 methods x 2 findings
    assert len(by_key) == 10


def test_write_aggregates_round_trips(tmp_path, fixture_ds):
    forecasts = aggregate.aggregate_all(fixture_ds)
    path = tmp_path / "aggregates.csv"
    aggregate.write_aggregates(forecasts, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "finding_id,method,value,n_inputs"
    assert len(lines) == len(forecasts) + 1


def test_vote_share_and_unit_weights_give_the_mean_bit_for_bit():
    # The identities the one weighted-mean rule rests on, compared by float.hex
    # so that -0.0 and 0.0 differ: the vote share is the mean of the 0/1 votes,
    # and the variance-weighted mean with every weight 1.0 is the mean. F3 has
    # no responses, and the responses of FX name no finding.
    rng = random.Random(35)
    findings = [make_finding(f"F{i}") for i in range(4)]
    for _ in range(200):
        threshold = rng.choice([0.0, 0.3, 0.5, 1.0, rng.random()])
        surveys = [survey(rng.choice(["F0", "F1", "F2", "FX"]), f"p{rng.randrange(8)}",
                          rng.choice([-0.0, 0.0, 1.0, threshold, rng.random()]))
                   for _ in range(rng.randint(0, 40))]
        ds = make_dataset(findings, surveys=surveys)
        votes = make_dataset(findings, surveys=[
            survey(s.finding_id, s.forecaster_id, float(s.belief >= threshold)) for s in surveys])
        ones = {s.forecaster_id: 1.0 for s in surveys}
        for fid in ds.finding_ids():
            answered = any(s.finding_id == fid for s in surveys)
            pairs = ((lambda d, f: aggregate.survey_voting(d, f, threshold), ds,
                      aggregate.survey_mean, votes),
                     (lambda d, f: aggregate.survey_var_weighted(d, f, ones), ds,
                      aggregate.survey_mean, ds))
            for rule, data, mean, mean_data in pairs:
                if not answered:
                    for fn, d in ((rule, data), (mean, mean_data)):
                        with pytest.raises(NoSurveyResponses):
                            fn(d, fid)
                    continue
                got, want = rule(data, fid), mean(mean_data, fid)
                assert (got.value.hex(), got.n_inputs) == (want.value.hex(), want.n_inputs)
        shares = {f.finding_id: f.value.hex() for f in aggregate.aggregate_all(
            ds, methods=[aggregate.METHOD_VOTING], threshold=threshold)}
        means = {f.finding_id: f.value.hex() for f in aggregate.aggregate_all(
            votes, methods=[aggregate.METHOD_MEAN])}
        assert shares == means
