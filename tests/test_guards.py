"""Argument and state guards of the public API, each reached once: every
call below is refused with the named error (or, for an infinite t, gives
the limit)."""

import math

import pytest

from repmarket import aggregate, dynamics, evaluate, lmsr, stats
from repmarket.errors import DomainError, MarketSettled, NoReduction, OutOfRange, UnknownFinding


def _curve(axis="trades", x=(1.0, 2.0), y=(0.5, 0.4), n=(3, 3)):
    return dynamics.ErrorCurve(axis, list(x), list(y), list(n))


def _settled():
    return lmsr.settle(lmsr.new_market(100.0), 1)[0]


GUARDS = {
    "aggregate_unknown_method":
        (ValueError, lambda ds, tmp: aggregate.aggregate_all(ds, methods=("nope",))),
    "dataset_unknown_finding": (UnknownFinding, lambda ds, tmp: ds.finding("nope")),
    "summarize_unknown_grouping":
        (ValueError, lambda ds, tmp: evaluate.summarize([], ds, group_by="finding")),
    "curve_unequal_lengths": (ValueError, lambda ds, tmp: _curve(n=(3,))),
    "curve_x_not_increasing": (ValueError, lambda ds, tmp: _curve(x=(2.0, 2.0))),
    "loess_degree_3": (OutOfRange, lambda ds, tmp: dynamics.LoessConfig(degree=3)),
    "milestone_empty_curve": (NoReduction, lambda ds, tmp: dynamics.reduction_milestone(
        _curve(x=(), y=(), n=()), 0.5)),
    "milestone_fraction_0":
        (ValueError, lambda ds, tmp: dynamics.reduction_milestone(_curve(), 0)),
    "write_curves_other_axis": (ValueError, lambda ds, tmp: dynamics.write_curves(
        _curve(), _curve("hours"), tmp / "c.csv")),
    "cost_unknown_side":
        (ValueError, lambda ds, tmp: lmsr.cost_to_trade(lmsr.new_market(100.0), "BUY", 1.0)),
    "cost_settled_market":
        (MarketSettled, lambda ds, tmp: lmsr.cost_to_trade(_settled(), "YES", 1.0)),
    "negative_endowment": (ValueError, lambda ds, tmp: lmsr.new_market(100.0, endowment=-1)),
    "zero_quantity": (ValueError, lambda ds, tmp: lmsr.execute_trade(
        lmsr.new_market(100.0, traders=("t",)), "t", "YES", 0, 0)),
    "settle_outcome_2": (ValueError, lambda ds, tmp: lmsr.settle(lmsr.new_market(100.0), 2)),
    "replay_unknown_mode": (ValueError, lambda ds, tmp: lmsr.replay(ds, "F001", mode="other")),
    "t_zero_df": (DomainError, lambda ds, tmp: stats.student_t_two_tailed(1.0, 0)),
    "chi_square_2x3": (ValueError, lambda ds, tmp: stats.chi_square_1df([[1, 2, 3], [4, 5, 6]])),
    "chi_square_negative_count":
        (ValueError, lambda ds, tmp: stats.chi_square_1df([[1, -1], [2, 3]])),
}


@pytest.mark.parametrize("error, call", GUARDS.values(), ids=GUARDS.keys())
def test_guard_refuses(fixture_ds, tmp_path, error, call):
    with pytest.raises(error):
        call(fixture_ds, tmp_path)


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_infinite_t_has_p_value_0(t):
    assert stats.student_t_two_tailed(t, 5) == 0.0


@pytest.mark.parametrize("fn, args", [
    (stats.regularized_incomplete_beta, (5, 7, 0.3)),
    (stats.regularized_upper_gamma, (5, 2)),    # the series
    (stats.regularized_upper_gamma, (0.5, 9)),  # the continued fraction
], ids=["beta_fraction", "gamma_series", "gamma_fraction"])
def test_special_function_that_does_not_converge_raises(monkeypatch, fn, args):
    fn(*args)  # converges in the default number of iterations
    monkeypatch.setattr(stats, "_MAX_ITER", 1)
    with pytest.raises(DomainError, match="did not converge"):
        fn(*args)


def test_lentz_term_clamps_both_vanishing_denominators():
    c, d, factor = stats._lentz(-1.0, 1.0, 1.0, 1.0)
    assert c == stats._FPMIN and d == 1.0 / stats._FPMIN
    assert factor == d * c
