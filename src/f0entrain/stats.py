"""Inferential statistics kernel.

Self-contained: t and F tail probabilities are computed from an internal
regularized incomplete beta function (continued-fraction evaluation), so
the toolkit carries no statistics dependency. Provides the paired t-test,
Pearson correlation with significance, the two-way mixed-effects
intraclass correlation for rater agreement, and the feature x criterion
correlation grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from f0entrain.errors import ComputeError

DEFAULT_ALPHA = 0.05
DEFAULT_TREND = 0.1

_CF_MAX_ITER = 300
_CF_EPS = 3e-16
_CF_TINY = 1e-300


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest class, despite the name

    statistic: float
    df: float
    p_value: float
    significant: bool
    trend: bool


@dataclass(frozen=True)
class IccResult:
    icc: float
    p_value: float
    ci_low: float
    ci_high: float


def _flags(p: float, alpha: float, trend: float) -> tuple[bool, bool]:
    significant = p < alpha
    return significant, significant or p < trend


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ComputeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    Continued-fraction evaluation with the symmetry switch at
    x > (a + 1) / (a + b + 2); absolute error below 1e-10.
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _betainc_inv(a: float, b: float, p: float) -> float:
    """Inverse of I_x(a, b) in x, by bisection (monotone in x)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    lo, hi = 0.0, 1.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if reg_inc_beta(a, b, mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_sf(t: float, df: float) -> float:
    """Two-sided tail probability P(|T| >= |t|) for Student t with ``df``."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if t == 0.0:
        return 1.0
    return reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """Right tail P(F >= f) of the F distribution."""
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def f_ppf(q: float, df1: float, df2: float) -> float:
    """Quantile of the F distribution (used for ICC confidence bounds)."""
    x = _betainc_inv(df1 / 2.0, df2 / 2.0, q)
    if x >= 1.0:
        return math.inf
    return df2 * x / (df1 * (1.0 - x))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises ComputeError instead
def paired_t_test(
    x: Sequence[float],
    y: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
    trend: float = DEFAULT_TREND,
) -> TestResult:
    """Paired t-test of x against y (two-sided p)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ComputeError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 2:
        raise ComputeError("paired t-test needs at least 2 pairs")
    d = x - y
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ComputeError("zero variance: all paired differences are equal")
    if not math.isfinite(sd):
        raise ComputeError("paired differences overflow float64")
    t = float(d.mean()) / (sd / math.sqrt(n))
    p = t_sf(t, n - 1)
    sig, trd = _flags(p, alpha, trend)
    return TestResult(statistic=t, df=float(n - 1), p_value=p, significant=sig, trend=trd)


def one_sided_p(result: TestResult) -> float:
    """Lower-tail p (alternative: mean difference < 0) from a paired test."""
    half = result.p_value / 2.0
    return half if result.statistic <= 0 else 1.0 - half


@np.errstate(over="ignore", invalid="ignore")  # a value out of range raises ComputeError instead
def pearson(
    x: Sequence[float],
    y: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
    trend: float = DEFAULT_TREND,
) -> TestResult:
    """Pearson correlation with a two-sided t-test of r = 0."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ComputeError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 3:
        raise ComputeError(f"pearson needs at least 3 points, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ComputeError("zero variance in correlation input")
    scale = math.sqrt(sxx * syy)
    if not 0.0 < scale < math.inf:
        raise ComputeError("correlation input overflows or underflows float64")
    r = float(np.dot(dx, dy)) / scale
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = t_sf(t, n - 2)
    sig, trd = _flags(p, alpha, trend)
    return TestResult(statistic=r, df=float(n - 2), p_value=p, significant=sig, trend=trd)


def icc_3k(
    ratings: Sequence[Sequence[float]] | np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    absolute: bool = False,
) -> IccResult:
    """Two-way mixed-effects intraclass correlation, reliability of the
    mean of k raters.

    Default is the consistency form (MS_rows - MS_err) / MS_rows; with
    ``absolute=True`` the absolute-agreement variant is returned instead.
    The p-value is the F-test of ICC = 0 with df (n-1, (n-1)(k-1)); the
    (1 - alpha) confidence interval uses the standard F-bound construction
    (exact for the consistency form, approximate for absolute agreement).
    """
    x = np.asarray(ratings, dtype=np.float64)
    if x.ndim != 2:
        raise ComputeError("ratings must be a 2-D subjects x raters matrix")
    n, k = x.shape
    if n < 3 or k < 2:
        raise ComputeError(f"need at least 3 subjects and 2 raters, got {n} x {k}")
    if not np.all(np.isfinite(x)):
        raise ComputeError("ratings matrix is incomplete (non-finite entries)")

    grand = x.mean()
    ss_rows = k * float(((x.mean(axis=1) - grand) ** 2).sum())
    ss_cols = n * float(((x.mean(axis=0) - grand) ** 2).sum())
    ss_total = float(((x - grand) ** 2).sum())
    ss_err = max(0.0, ss_total - ss_rows - ss_cols)

    df1 = n - 1
    df2 = (n - 1) * (k - 1)
    ms_rows = ss_rows / df1
    ms_err = ss_err / df2
    ms_cols = ss_cols / (k - 1)
    if ms_rows == 0.0:
        raise ComputeError("degenerate ratings: no between-subject variance")

    if absolute:
        icc = (ms_rows - ms_err) / (ms_rows + (ms_cols - ms_err) / n)
    else:
        icc = (ms_rows - ms_err) / ms_rows

    f_obs = math.inf if ms_err == 0.0 else ms_rows / ms_err
    p = f_sf(f_obs, df1, df2)
    if math.isinf(f_obs):
        ci_low, ci_high = 1.0, 1.0
    else:
        f_low = f_obs / f_ppf(1.0 - alpha / 2.0, df1, df2)
        f_up = f_obs * f_ppf(1.0 - alpha / 2.0, df2, df1)
        ci_low = 1.0 - 1.0 / f_low
        ci_high = 1.0 - 1.0 / f_up
    return IccResult(icc=float(icc), p_value=p, ci_low=float(ci_low), ci_high=float(ci_high))


@dataclass(frozen=True)
class GridCell:
    feature: str
    criterion: str
    r: float | None
    p: float | None
    n: int
    significant: bool
    trend: bool


def correlate_grid(
    entrainment: Mapping[str, Mapping[str, float]],
    scores: Mapping[str, Mapping[str, float]],
    alpha: float = DEFAULT_ALPHA,
    trend: float = DEFAULT_TREND,
) -> list[GridCell]:
    """Pearson r and p for every (feature, criterion) cell.

    ``entrainment`` maps speaker -> feature -> value and ``scores`` maps
    speaker -> criterion -> value; the speaker sets must share at least 3
    members. A feature's cells use the shared speakers that have a value
    for it, and ``n`` counts them. Cells whose inputs have zero variance or
    fewer than 3 speakers are reported with undefined r/p rather than
    failing the whole grid. Rows come back in lexicographic (feature,
    criterion) order.
    """
    speakers = sorted(set(entrainment) & set(scores))
    if len(speakers) < 3:
        raise ComputeError(
            f"insufficient overlap: only {len(speakers)} speakers in both tables"
        )
    features = sorted({f for spk in speakers for f in entrainment[spk]})
    criteria = sorted({c for spk in speakers for c in scores[spk]})
    cells = []
    for feature in features:
        measured = [spk for spk in speakers if feature in entrainment[spk]]
        x = [entrainment[spk][feature] for spk in measured]
        for criterion in criteria:
            y = [scores[spk][criterion] for spk in measured]
            try:
                res = pearson(x, y, alpha=alpha, trend=trend)
                cells.append(
                    GridCell(
                        feature, criterion, res.statistic, res.p_value,
                        len(measured), res.significant, res.trend,
                    )
                )
            except ComputeError:
                cells.append(GridCell(feature, criterion, None, None, len(measured), False, False))
    return cells
