import math
import random

import mpmath as mp
import pytest

from repmarket import stats
from repmarket.errors import DegenerateInput, DegenerateTable, DomainError

mp.mp.dps = 40


def _beta_oracle(a, b, x):
    return float(mp.betainc(a, b, 0, x, regularized=True))


def _gamma_oracle(s, x):
    return float(mp.gammainc(s, x, mp.inf, regularized=True))


# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------

def test_incomplete_beta_identities():
    for x in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
        assert stats.regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(
            x, abs=1e-12)
    for a in (0.5, 1.0, 3.0, 25.0, 100.0):
        assert stats.regularized_incomplete_beta(a, a, 0.5) == pytest.approx(
            0.5, abs=1e-12)


def test_upper_gamma_is_erfc_at_half():
    for x in (0.01, 0.3, 1.0, 4.2, 30.0):
        assert stats.regularized_upper_gamma(0.5, x) == pytest.approx(
            math.erfc(math.sqrt(x)), abs=1e-12)


def test_special_functions_vs_high_precision_oracle():
    rng = random.Random(7)
    for _ in range(250):
        a = rng.uniform(0.25, 100.0)  # covers t-test df up to 200
        b = rng.uniform(0.25, 100.0)
        x = rng.random()
        assert abs(stats.regularized_incomplete_beta(a, b, x)
                   - _beta_oracle(a, b, x)) <= 1e-10
    for _ in range(250):
        s = rng.uniform(0.25, 100.0)
        x = rng.uniform(0.0, 300.0)
        assert abs(stats.regularized_upper_gamma(s, x)
                   - _gamma_oracle(s, x)) <= 1e-10


def test_special_function_domains():
    with pytest.raises(DomainError):
        stats.regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        stats.regularized_incomplete_beta(1.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        stats.regularized_upper_gamma(-1.0, 2.0)
    with pytest.raises(DomainError):
        stats.regularized_upper_gamma(1.0, -0.1)


def test_cdfs_monotone():
    grid = [i / 20 for i in range(21)]
    beta_vals = [stats.regularized_incomplete_beta(2.5, 4.0, x) for x in grid]
    assert beta_vals == sorted(beta_vals)
    gamma_vals = [stats.regularized_upper_gamma(1.7, x) for x in
                  [i * 0.5 for i in range(30)]]
    assert gamma_vals == sorted(gamma_vals, reverse=True)


# ----------------------------------------------------------------------
# correlations
# ----------------------------------------------------------------------

def test_pearson_self_and_affine_invariance():
    x = [1.0, 2.0, 4.0, 8.0, 9.5]
    assert stats.pearson(x, x) == 1.0
    y = [3.0 * v + 7.0 for v in x]
    assert stats.pearson(x, y) == pytest.approx(1.0, abs=1e-12)
    assert stats.pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_symmetry():
    rng = random.Random(3)
    x = [rng.random() for _ in range(20)]
    y = [rng.random() for _ in range(20)]
    assert stats.pearson(x, y) == pytest.approx(stats.pearson(y, x), abs=1e-15)


def test_pearson_degenerate():
    with pytest.raises(DegenerateInput):
        stats.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        stats.pearson([1.0, 2.0], [1.0, 2.0])


def test_average_ranks_ties():
    assert stats.average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]
    assert stats.average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]


def test_spearman_monotone_transform():
    rng = random.Random(4)
    x = [rng.random() for _ in range(30)]
    y = [math.exp(3.0 * v) for v in x]
    assert stats.spearman(x, y) == pytest.approx(1.0, abs=1e-12)
    assert stats.spearman(x, [-v for v in y]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_with_binary_ties():
    x = [0, 0, 1, 1, 0, 1]
    y = [0.1, 0.2, 0.9, 0.7, 0.4, 0.6]
    # hand-checked: ranks of x are (2,2,5,5,2,5); pearson of ranks
    expected = stats.pearson([2.0, 2.0, 5.0, 5.0, 2.0, 5.0],
                             stats.average_ranks(y))
    assert stats.spearman(x, y) == pytest.approx(expected, abs=1e-15)


# ----------------------------------------------------------------------
# paired t
# ----------------------------------------------------------------------

def test_paired_t_identical_inputs():
    x = [0.1, 0.5, 0.9, 0.3]
    result = stats.paired_t(x, x)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.df == 3.0


def test_paired_t_antisymmetric():
    x = [1.0, 2.0, 3.5, 0.5]
    y = [0.7, 2.2, 3.0, 1.5]
    fwd = stats.paired_t(x, y)
    rev = stats.paired_t(y, x)
    assert fwd.statistic == pytest.approx(-rev.statistic, abs=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)


def test_paired_t_matches_closed_form():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [0.0, 0.5, 2.0, 1.0]
    result = stats.paired_t(x, y)
    d = [a - b for a, b in zip(x, y)]
    mean = sum(d) / 4
    sd = math.sqrt(sum((v - mean) ** 2 for v in d) / 3)
    t = mean / (sd / 2)
    assert result.statistic == pytest.approx(t, abs=1e-12)
    p = _beta_oracle(1.5, 0.5, 3 / (3 + t * t))
    assert result.p_value == pytest.approx(p, abs=1e-12)


def test_paired_t_constant_nonzero_differences():
    with pytest.raises(DegenerateInput):
        stats.paired_t([1.0, 2.0, 3.0], [0.5, 1.5, 2.5])


# ----------------------------------------------------------------------
# chi-square
# ----------------------------------------------------------------------

def test_chi_square_null_table():
    result = stats.chi_square_1df([[10, 10], [10, 10]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_chi_square_accuracy_comparison_counts():
    # correct/incorrect counts 75/28 vs 68/35 give the published 1.12
    result = stats.chi_square_1df([[75, 28], [68, 35]])
    assert result.statistic == pytest.approx(1.12, abs=0.005)
    assert result.p_value == pytest.approx(0.29, abs=0.005)


def test_chi_square_known_critical_value():
    # the p-value mapping at the classic 5% critical value
    p = stats.regularized_upper_gamma(0.5, 3.841 / 2.0)
    assert p == pytest.approx(0.050013683763956705, abs=1e-12)


def test_chi_square_permutation_invariance():
    base = stats.chi_square_1df([[12, 5], [7, 20]]).statistic
    assert stats.chi_square_1df([[5, 12], [20, 7]]).statistic == pytest.approx(
        base, abs=1e-12)
    assert stats.chi_square_1df([[7, 20], [12, 5]]).statistic == pytest.approx(
        base, abs=1e-12)


def test_chi_square_yates_shrinks_statistic():
    plain = stats.chi_square_1df([[12, 5], [7, 20]])
    corrected = stats.chi_square_1df([[12, 5], [7, 20]], yates=True)
    assert corrected.statistic < plain.statistic


def test_chi_square_zero_marginal():
    with pytest.raises(DegenerateTable):
        stats.chi_square_1df([[0, 0], [5, 10]])
    with pytest.raises(DegenerateTable):
        stats.chi_square_1df([[5, 0], [10, 0]])


# ----------------------------------------------------------------------
# OLS
# ----------------------------------------------------------------------

def test_ols_perfect_fit():
    x = [0.0, 1.0, 0.0, 1.0, 1.0]
    fit = stats.ols_simple(x, x)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_ols_group_mean_identity():
    rng = random.Random(8)
    x = [float(rng.random() < 0.4) for _ in range(50)]
    if all(v == x[0] for v in x):  # pragma: no cover
        x[0] = 1.0 - x[0]
    y = [rng.random() for _ in range(50)]
    fit = stats.ols_simple(x, y)
    mean0 = sum(b for a, b in zip(x, y) if a == 0.0) / x.count(0.0)
    mean1 = sum(b for a, b in zip(x, y) if a == 1.0) / x.count(1.0)
    assert fit.intercept == pytest.approx(mean0, abs=1e-12)
    assert fit.intercept + fit.slope == pytest.approx(mean1, abs=1e-12)


def test_ols_residuals_orthogonal_to_regressor():
    rng = random.Random(12)
    x = [rng.uniform(-3, 3) for _ in range(40)]
    y = [2.0 * v + rng.gauss(0, 1) for v in x]
    fit = stats.ols_simple(x, y)
    residuals = [b - fit.intercept - fit.slope * a for a, b in zip(x, y)]
    dot = sum(r * a for r, a in zip(residuals, x))
    scale = sum(abs(a * b) for a, b in zip(x, y))
    assert abs(dot) <= 1e-9 * max(scale, 1.0)


def test_ols_constant_response_r_squared_zero():
    fit = stats.ols_simple([0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    assert fit.r_squared == 0.0


def test_ols_degenerate_regressor():
    with pytest.raises(DegenerateInput):
        stats.ols_simple([1.0, 1.0, 1.0], [0.0, 0.5, 1.0])


def test_ols_reproduces_reference_regression():
    # the reference intercept 16/57 and rate 34/46 pin the two-group split;
    # fitting that reconstruction must reproduce every reference cell
    from repmarket import reference

    x = [0.0] * 57 + [1.0] * 46
    y = [1.0] * 16 + [0.0] * 41 + [1.0] * 34 + [0.0] * 12
    fit = stats.ols_simple(x, y)
    ref = reference.TABLE2
    assert fit.n == ref["n"]
    assert fit.intercept == pytest.approx(ref["intercept"], abs=5e-5)
    assert fit.se_intercept == pytest.approx(ref["se_intercept"], abs=5e-5)
    assert fit.slope == pytest.approx(ref["slope"], abs=5e-4)
    assert fit.se_slope == pytest.approx(ref["se_slope"], abs=5e-5)
    assert fit.r_squared == pytest.approx(ref["r_squared"], abs=5e-5)
    assert abs(stats.pearson(x, y)) == pytest.approx(0.456, abs=5e-4)


def test_left_sum_adds_left_to_right():
    # compensated summation, as `sum` does from Python 3.12, gives 1.0 and 1.0
    assert stats.left_sum([0.1] * 10) == 0.9999999999999999
    assert stats.left_sum([1e16, 1.0, -1e16]) == 0.0
    assert stats.left_sum(iter([1, 2, 3])) == 6
    assert stats.left_sum([]) == 0
