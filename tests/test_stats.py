import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from f0entrain.errors import ComputeError
from f0entrain.pipeline import DEFAULT_TREND, significance
from f0entrain.stats import (
    DEFAULT_ALPHA,
    correlate_grid,
    f_ppf,
    f_sf,
    icc_3k,
    one_sided_p,
    paired_t_test,
    pearson,
    reg_inc_beta,
    t_sf,
)

from oracles import anova_two_way


# ---------------------------------------------------------------------------
# incomplete beta


def test_uniform_cdf_case():
    assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)


def test_symmetric_midpoint():
    assert reg_inc_beta(3.0, 3.0, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_closed_form_polynomial():
    # I_x(2,2) = 3x^2 - 2x^3
    assert reg_inc_beta(2.0, 2.0, 0.25) == pytest.approx(0.15625, abs=1e-12)


def test_domain_validation():
    with pytest.raises(ValueError):
        reg_inc_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        reg_inc_beta(1.0, 1.0, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=80),
    st.floats(min_value=0.05, max_value=80),
    st.integers(min_value=0, max_value=1 << 20),
)
def test_symmetry_identity(a, b, k):
    # dyadic x, so that 1 - x is exact and both sides see consistent points
    x = k / float(1 << 20)
    lhs = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
    assert lhs == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=60),
    st.floats(min_value=0.1, max_value=60),
    st.floats(min_value=0.001, max_value=0.999),
)
def test_matches_scipy(a, b, x):
    assert reg_inc_beta(a, b, x) == pytest.approx(
        float(scipy.stats.beta.cdf(x, a, b)), abs=1e-10
    )


# ---------------------------------------------------------------------------
# t distribution


def test_t_zero_gives_one():
    assert t_sf(0.0, 5.0) == 1.0


def test_df2_closed_form_sweep():
    for t in np.linspace(0.0, 10.0, 101):
        expected = 1.0 - t / math.sqrt(t * t + 2.0)
        assert t_sf(float(t), 2.0) == pytest.approx(expected, abs=1e-6)


def test_t_monotone_in_magnitude():
    ps = [t_sf(t, 7.0) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(ps, ps[1:]))
    assert t_sf(-3.0, 7.0) == t_sf(3.0, 7.0)


def test_reported_table_value():
    # one-sided tail of |t|=4.44 at 57 df is about 2.1e-5
    p_two = t_sf(4.44, 57.0)
    assert p_two / 2.0 == pytest.approx(2.1e-5, rel=0.1)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-30, max_value=30), st.floats(min_value=1, max_value=200))
def test_t_sf_matches_scipy(t, df):
    # for tiny |t| the x = df/(df + t^2) formulation saturates toward x = 1
    # and resolution is limited by the sqrt singularity there
    if abs(t) < 1e-4:
        t = 1e-4 if t >= 0 else -1e-4
    assert t_sf(t, df) == pytest.approx(2.0 * float(scipy.stats.t.sf(abs(t), df)), abs=1e-10)


def test_f_helpers_match_scipy():
    for f, d1, d2 in ((2.3, 5, 12), (11.0, 57, 285), (0.7, 3, 3)):
        assert f_sf(f, d1, d2) == pytest.approx(float(scipy.stats.f.sf(f, d1, d2)), abs=1e-10)
    for q, d1, d2 in ((0.975, 5, 12), (0.975, 57, 285), (0.5, 9, 4)):
        assert f_ppf(q, d1, d2) == pytest.approx(float(scipy.stats.f.ppf(q, d1, d2)), rel=1e-8)


# ---------------------------------------------------------------------------
# paired t-test


def test_paired_t_worked_example():
    res = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert res.statistic == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    assert res.df == 2.0
    assert res.p_value == pytest.approx(0.0742, abs=1e-4)
    assert significance(res.p_value, DEFAULT_ALPHA, DEFAULT_TREND) == (False, True)


def test_significant_implies_trend_even_with_odd_thresholds():
    # alpha above the trend threshold must not break the implication
    res = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
    assert significance(res.p_value, alpha=0.2, trend=0.01) == (True, True)


def test_paired_t_zero_variance():
    with pytest.raises(ComputeError, match="zero variance"):
        paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


def test_paired_t_antisymmetric():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 12)
    y = rng.normal(0.4, 1, 12)
    ab = paired_t_test(x, y)
    ba = paired_t_test(y, x)
    assert ab.statistic == -ba.statistic
    assert ab.p_value == ba.p_value


def test_paired_t_matches_scipy(rng):
    for _ in range(25):
        n = int(rng.integers(3, 40))
        x = rng.normal(0, 1, n)
        y = rng.normal(0.2, 1.3, n)
        res = paired_t_test(x, y)
        ref = scipy.stats.ttest_rel(x, y)
        assert res.statistic == pytest.approx(float(ref.statistic), rel=1e-10)
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-8)


def test_one_sided_p_direction():
    res = paired_t_test([1.0, 2.0, 2.5], [2.0, 3.0, 4.0])  # negative t
    assert one_sided_p(res) == pytest.approx(res.p_value / 2.0)
    flipped = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 2.5])
    assert one_sided_p(flipped) == pytest.approx(1.0 - flipped.p_value / 2.0)


# ---------------------------------------------------------------------------
# Pearson


def test_pearson_perfect():
    res = pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    assert res.statistic == 1.0
    assert res.p_value == 0.0
    assert significance(res.p_value, DEFAULT_ALPHA, DEFAULT_TREND) == (True, True)


def test_pearson_four_point_exact():
    res = pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0])
    assert res.statistic == 0.8
    assert res.df == 2.0


def test_pearson_zero_variance():
    with pytest.raises(ComputeError, match="zero variance"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_too_few():
    with pytest.raises(ComputeError):
        pearson([1.0, 2.0], [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100).map(lambda v: round(v, 4)),
        min_size=3,
        max_size=30,
    ),
    st.floats(min_value=0.01, max_value=50),
    st.floats(min_value=-100, max_value=100),
)
def test_pearson_affine_invariance(xs, scale, offset):
    if max(xs) - min(xs) < 1e-3:
        return  # degenerate spread; the zero-variance path is tested separately
    rng = np.random.default_rng(len(xs))
    ys = rng.normal(0, 1, len(xs)).tolist()
    base = pearson(xs, ys)
    shifted = pearson([scale * v + offset for v in xs], ys)
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9, abs=1e-9)
    assert shifted.p_value == pytest.approx(base.p_value, rel=1e-7, abs=1e-12)
    negated = pearson([-v for v in xs], ys)
    assert negated.statistic == pytest.approx(-base.statistic, rel=1e-9, abs=1e-9)
    assert negated.p_value == pytest.approx(base.p_value, rel=1e-7, abs=1e-12)


def test_pearson_matches_scipy(rng):
    for _ in range(25):
        n = int(rng.integers(3, 50))
        x = rng.normal(0, 2, n)
        y = 0.3 * x + rng.normal(0, 1, n)
        res = pearson(x, y)
        ref = scipy.stats.pearsonr(x, y)
        assert res.statistic == pytest.approx(float(ref.statistic), rel=1e-9)
        assert res.p_value == pytest.approx(float(ref.pvalue), rel=1e-6, abs=1e-12)


# ---------------------------------------------------------------------------
# ICC


def test_icc_perfect_agreement():
    res = icc_3k([[1, 1], [2, 2], [3, 3]])
    assert res.icc == 1.0
    assert res.p_value == 0.0
    assert res.ci_low == 1.0 and res.ci_high == 1.0


def test_icc_rater_offset_absorbed():
    res = icc_3k([[1, 2], [2, 3], [3, 4]])
    assert res.icc == 1.0


def test_icc_matches_direct_anova(rng):
    for _ in range(20):
        n, k = int(rng.integers(4, 20)), int(rng.integers(2, 7))
        x = rng.normal(3, 1, (n, k)) + rng.normal(0, 0.8, (n, 1))
        res = icc_3k(x)
        ms = anova_two_way(x)
        expected_icc = (ms["ms_rows"] - ms["ms_err"]) / ms["ms_rows"]
        assert res.icc == pytest.approx(expected_icc, rel=1e-9)
        f_obs = ms["ms_rows"] / ms["ms_err"]
        assert res.p_value == pytest.approx(
            float(scipy.stats.f.sf(f_obs, ms["df_rows"], ms["df_err"])), abs=1e-10
        )
        fl = f_obs / scipy.stats.f.ppf(0.975, ms["df_rows"], ms["df_err"])
        fu = f_obs * scipy.stats.f.ppf(0.975, ms["df_err"], ms["df_rows"])
        assert res.ci_low == pytest.approx(1 - 1 / fl, rel=1e-6)
        assert res.ci_high == pytest.approx(1 - 1 / fu, rel=1e-6)
        assert res.ci_low <= res.icc <= res.ci_high


def test_icc_shrout_fleiss_case():
    # classic 6 targets x 4 judges example
    x = [[9, 2, 5, 8], [6, 1, 3, 2], [8, 4, 6, 8], [7, 1, 2, 6], [10, 5, 6, 9], [6, 2, 4, 7]]
    res = icc_3k(x)
    assert res.icc == pytest.approx(0.9093, abs=1e-4)
    assert res.ci_low == pytest.approx(0.6757, abs=1e-4)
    assert res.ci_high == pytest.approx(0.9859, abs=1e-4)
    res_abs = icc_3k(x, absolute=True)
    assert res_abs.icc == pytest.approx(0.6201, abs=1e-4)


def test_icc_invariances(rng):
    x = rng.normal(3, 1, (10, 4)) + rng.normal(0, 1, (10, 1))
    base = icc_3k(x).icc
    assert icc_3k(x + 5.0).icc == pytest.approx(base, rel=1e-9)
    assert icc_3k(x * 3.0).icc == pytest.approx(base, rel=1e-9)
    rater_offsets = rng.normal(0, 2, (1, 4))
    assert icc_3k(x + rater_offsets).icc == pytest.approx(base, rel=1e-9)


def test_icc_validation():
    with pytest.raises(ComputeError):
        icc_3k([[1, 2], [2, 3]])  # n < 3
    with pytest.raises(ComputeError):
        icc_3k([[1], [2], [3]])  # k < 2
    with pytest.raises(ComputeError, match="incomplete"):
        icc_3k([[1, 2], [2, float("nan")], [3, 4]])
    with pytest.raises(ComputeError, match="degenerate"):
        icc_3k([[2, 2], [2, 2], [2, 2]])


# ---------------------------------------------------------------------------
# correlation grid


def _tables(n=10, seed=0):
    rng = np.random.default_rng(seed)
    speakers = [f"S{i}" for i in range(n)]
    ent = {s: {f: float(rng.uniform(1, 5)) for f in ("mean", "slope")} for s in speakers}
    sco = {
        s: {c: float(rng.uniform(1, 5)) for c in ("fluency", "overall", "final")}
        for s in speakers
    }
    return ent, sco


def test_grid_cardinality_and_order():
    ent, sco = _tables()
    cells = correlate_grid(ent, sco)
    assert len(cells) == 6
    keys = [(c.feature, c.criterion) for c in cells]
    assert keys == sorted(keys)


def test_grid_perfect_cell():
    ent, sco = _tables()
    for s in ent:
        sco[s]["fluency"] = ent[s]["mean"]
    cells = {(c.feature, c.criterion): c for c in correlate_grid(ent, sco)}
    assert cells[("mean", "fluency")].r == pytest.approx(1.0)
    assert cells[("mean", "fluency")].p == 0.0


def test_grid_zero_variance_cell_is_undefined():
    ent, sco = _tables()
    for s in sco:
        sco[s]["overall"] = 3.0
    cells = {(c.feature, c.criterion): c for c in correlate_grid(ent, sco)}
    cell = cells[("mean", "overall")]
    assert cell.r is None and cell.p is None
    assert significance(cell.p, DEFAULT_ALPHA, DEFAULT_TREND) == (False, False)


def test_grid_counts_speakers_per_feature():
    ent, sco = _tables()
    del ent["S3"]["slope"]
    for s in ("S0", "S1", "S2", "S4", "S5", "S6", "S7"):
        del ent[s]["mean"]
    cells = {(c.feature, c.criterion): c for c in correlate_grid(ent, sco)}
    measured = [s for s in sorted(ent) if s != "S3"]
    slope = cells[("slope", "final")]
    assert slope.n == 9
    assert slope.r == pearson([ent[s]["slope"] for s in measured],
                              [sco[s]["final"] for s in measured]).statistic
    # S3, S8 and S9 keep mean: three is the fewest pearson takes
    assert cells[("mean", "final")].n == 3 and cells[("mean", "final")].r is not None
    del ent["S3"]["mean"]
    mean = {c.criterion: c for c in correlate_grid(ent, sco) if c.feature == "mean"}
    assert all(c.n == 2 and c.r is None for c in mean.values())


def test_grid_insufficient_overlap():
    ent, sco = _tables(n=3)
    sco = {k: v for k, v in list(sco.items())[:2]}
    with pytest.raises(ComputeError, match="insufficient overlap"):
        correlate_grid(ent, sco)


@pytest.mark.parametrize("test", [paired_t_test, pearson])
def test_overflowing_input_is_a_compute_error(test):
    # every value is finite, but the differences or the sums of squares are not
    with pytest.raises(ComputeError, match="overflow"):
        test([1e308, -1e308, 0.0], [-1e308, 1e308, 1.0])


def test_underflowing_correlation_is_a_compute_error():
    # each sum of squares is > 0, but their product is 0 in float64
    with pytest.raises(ComputeError, match="underflow"):
        pearson([1e-100, -1e-100, 0.0], [1e-100, -1e-100, 0.0])
