"""scipy as a second oracle, beside mpmath, for the p-values of the t,
chi-square and OLS coefficient tests, over random inputs whose p-values run
from about 1 down to below 1e-20."""

import numpy as np
import pytest

scipy_stats = pytest.importorskip("scipy.stats")

from repmarket import stats  # noqa: E402

REL = 1e-8


def _agree(ours, reference):
    assert 1e-300 < reference <= 1.0
    assert ours == pytest.approx(reference, rel=REL, abs=0)


def test_student_t_two_tailed_matches_scipy():
    rng = np.random.default_rng(2)
    dfs = np.concatenate([rng.integers(1, 300, 150), rng.uniform(0.5, 300.0, 150)])
    ts = 10 ** rng.uniform(-3.0, 2.5, dfs.size) * rng.choice([-1, 1], dfs.size)
    tails = 0
    for t, df in zip(ts, dfs):
        reference = 2 * scipy_stats.t.sf(abs(t), df)
        if not reference > 1e-300:
            continue
        tails += reference < 1e-20
        _agree(stats.student_t_two_tailed(float(t), float(df)), reference)
    assert tails >= 20


@pytest.mark.parametrize("yates", [False, True])
def test_chi_square_1df_matches_scipy(yates):
    rng = np.random.default_rng(3)
    tails = 0
    for _ in range(300):
        n = int(rng.integers(4, 2000))
        # a strong association in some tables drives p below 1e-20
        probs = rng.dirichlet(np.full(4, rng.choice([0.3, 3.0])))
        table = rng.multinomial(n, probs).reshape(2, 2)
        if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
            continue
        _, reference, _, _ = scipy_stats.chi2_contingency(table, correction=yates)
        if not reference > 1e-300:
            continue
        tails += reference < 1e-20
        ours = stats.chi_square_1df(table.tolist(), yates=yates)
        _agree(ours.p_value, reference)
    assert tails >= 20


def test_ols_coef_test_matches_scipy():
    """The slope's p-value through `ols_simple` against `linregress`. The noise
    is kept above 0.03: in a closer fit the p-value turns on the last digits of
    t, which the two fits round differently (a noise of 1e-3 moved one p-value
    near 1e-295 by 1.2e-8, relative)."""
    rng = np.random.default_rng(4)
    tails = 0
    for _ in range(300):
        n = int(rng.integers(3, 120))
        x = rng.normal(size=n)
        y = rng.uniform(-2.0, 2.0) * x + 10 ** rng.uniform(-1.5, 1.0) * rng.normal(size=n)
        reference = scipy_stats.linregress(x, y).pvalue
        if not reference > 1e-300:
            continue
        tails += reference < 1e-20
        fit = stats.ols_simple(x.tolist(), y.tolist())
        _agree(stats.ols_coef_test(fit.slope, fit.se_slope, fit.n).p_value, reference)
    assert tails >= 20


def test_average_ranks_match_rankdata():
    """Average ranks against `rankdata(method="average")` on samples where
    most values tie: ranks are halves, so the two agree exactly."""
    rng = np.random.default_rng(6)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(0, 80))
        # a few distinct values each, some samples with continuous values mixed in
        values = rng.integers(0, int(rng.integers(1, 8)), n) / 4.0
        if rng.random() < 0.3:
            values = np.where(rng.random(n) < 0.5, values, rng.random(n))
        tied += len(np.unique(values)) < n
        assert stats.average_ranks(values.tolist()) == scipy_stats.rankdata(
            values, method="average").tolist()
    assert tied >= 200
