"""Self-contained statistics kernel.

Correlations, the paired t-test, the 1-df chi-square test, and simple OLS,
with p-values computed from the regularized incomplete beta and gamma
functions (continued-fraction / series evaluation, no table lookups).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateTable, DomainError

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500

KIND_PAIRED_T = "paired_t"
KIND_CHI_SQUARE = "chi_square_1df"
KIND_OLS_COEF = "ols_coef"


def left_sum(values):
    """The values added left to right, as `sum` adds them up to Python 3.11.

    From 3.12, `sum` compensates float rounding, so the same means and
    variances would differ in their last bits from one Python to the next.
    """
    return functools.reduce(operator.add, values, 0)


def mean_var(values) -> tuple[float, float]:
    """Mean and n-1 sample variance of one or more values, each summed left
    to right; the variance of a single value is 0.0."""
    values = list(values)
    n = len(values)
    mean = left_sum(values) / n
    var = left_sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    return mean, var


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: float
    p_value: float
    kind: str


@dataclass(frozen=True)
class OLSFit:
    intercept: float
    slope: float
    se_intercept: float
    se_slope: float
    r_squared: float
    n: int


# ----------------------------------------------------------------------
# special functions
# ----------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise DomainError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0 or b <= 0:
        raise DomainError(f"a and b must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _gamma_series(s: float, x: float) -> float:
    """Series for the regularized lower incomplete gamma P(s, x), x < s+1."""
    ap = s
    total = 1.0 / s
    delta = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise DomainError(f"incomplete gamma series did not converge for s={s}, x={x}")


def _gamma_cf(s: float, x: float) -> float:
    """Continued fraction for the regularized upper gamma Q(s, x), x >= s+1."""
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise DomainError(f"incomplete gamma fraction did not converge for s={s}, x={x}")


def regularized_upper_gamma(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s), the regularized upper incomplete gamma."""
    if s <= 0:
        raise DomainError(f"s must be positive, got {s}")
    if x < 0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_series(s, x)
    return _gamma_cf(s, x)


def student_t_two_tailed(t: float, df: float) -> float:
    """Two-tailed p-value of a Student t statistic."""
    if df <= 0:
        raise DomainError(f"df must be positive, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


# ----------------------------------------------------------------------
# correlations
# ----------------------------------------------------------------------

def pearson(x, y) -> float:
    """Pearson product-moment correlation."""
    x, y = list(map(float, x)), list(map(float, y))
    n = len(x)
    if n != len(y):
        raise ValueError("sequences must have equal length")
    if n < 3:
        raise DegenerateInput(f"need at least 3 pairs, got {n}")
    mx = left_sum(x) / n
    my = left_sum(y) / n
    sxx = left_sum((v - mx) ** 2 for v in x)
    syy = left_sum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInput("constant input vector")
    sxy = left_sum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return min(max(r, -1.0), 1.0)


def average_ranks(values) -> list[float]:
    """Ranks 1..n, giving tied values the mean of their rank positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # the sorted positions i..j of each run of tied values rank (i + j) / 2 + 1;
    # the runs start where the sorted value changes, and the last ends at n
    edge = np.ones(len(values) + 1, dtype=bool)
    edge[1:-1] = ordered[1:] != ordered[:-1]
    edges = np.flatnonzero(edge)
    first, stop = edges[:-1], edges[1:]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((first + stop - 1) / 2.0 + 1.0, stop - first)
    return ranks.tolist()


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    return pearson(average_ranks(list(x)), average_ranks(list(y)))


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------

def paired_t(x, y) -> TestResult:
    """Two-tailed paired t-test of x against y (differences x - y).

    All-zero differences return (t=0, p=1); constant nonzero differences
    have zero variance but nonzero mean and raise DegenerateInput.
    """
    x, y = list(map(float, x)), list(map(float, y))
    n = len(x)
    if n != len(y):
        raise ValueError("sequences must have equal length")
    if n < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {n}")
    mean, var = mean_var(a - b for a, b in zip(x, y))
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return TestResult(0.0, float(df), 1.0, KIND_PAIRED_T)
        raise DegenerateInput("differences are constant and nonzero")
    t = mean / math.sqrt(var / n)
    return TestResult(t, float(df), student_t_two_tailed(t, df), KIND_PAIRED_T)


def chi_square_1df(table, yates: bool = False) -> TestResult:
    """Pearson chi-square test of independence on a 2x2 count table.

    Uncorrected by default; `yates` applies the continuity correction.
    """
    rows = [list(map(float, row)) for row in table]
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("table must be 2x2")
    if any(v < 0 for r in rows for v in r):
        raise ValueError("counts must be nonnegative")
    row_sums = [left_sum(r) for r in rows]
    col_sums = [rows[0][j] + rows[1][j] for j in range(2)]
    total = left_sum(row_sums)
    if any(s == 0 for s in row_sums) or any(s == 0 for s in col_sums):
        raise DegenerateTable("table has a zero marginal")
    stat = 0.0
    for i in range(2):
        for j in range(2):
            expected = row_sums[i] * col_sums[j] / total
            dev = abs(rows[i][j] - expected)
            if yates:
                dev = max(dev - 0.5, 0.0)
            stat += dev * dev / expected
    p = regularized_upper_gamma(0.5, stat / 2.0)
    return TestResult(stat, 1.0, p, KIND_CHI_SQUARE)


def ols_simple(x, y) -> OLSFit:
    """Least-squares fit y = intercept + slope*x with homoskedastic SEs.

    With a zero-variance response, R-squared is defined as 0.
    """
    x, y = list(map(float, x)), list(map(float, y))
    n = len(x)
    if n != len(y):
        raise ValueError("sequences must have equal length")
    if n < 3:
        raise DegenerateInput(f"need at least 3 observations, got {n}")
    mx = left_sum(x) / n
    my = left_sum(y) / n
    sxx = left_sum((v - mx) ** 2 for v in x)
    if sxx == 0.0:
        raise DegenerateInput("constant regressor")
    sxy = left_sum((a - mx) * (b - my) for a, b in zip(x, y))
    slope = sxy / sxx
    intercept = my - slope * mx
    ssr = left_sum((b - intercept - slope * a) ** 2 for a, b in zip(x, y))
    sst = left_sum((b - my) ** 2 for b in y)
    r_squared = 1.0 - ssr / sst if sst > 0.0 else 0.0
    s2 = ssr / (n - 2)
    se_slope = math.sqrt(s2 / sxx)
    se_intercept = math.sqrt(s2 * (1.0 / n + mx * mx / sxx))
    return OLSFit(intercept, slope, se_intercept, se_slope, r_squared, n)


def ols_coef_test(estimate: float, se: float, n: int) -> TestResult:
    """Two-tailed t-test of an OLS coefficient against zero (df = n - 2)."""
    if se <= 0:
        raise DegenerateInput("standard error must be positive")
    t = estimate / se
    df = n - 2
    return TestResult(t, float(df), student_t_two_tailed(t, df), KIND_OLS_COEF)
