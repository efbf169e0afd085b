import numpy as np
import pytest
from hypothesis import given, strategies as st

from f0entrain.quantiles import iqr_fences, quantiles


def test_hand_worked_quartiles():
    # sorted: 200, 205, 208, 210, 215, 480; h25 = 1.25, h75 = 3.75
    values = [200, 210, 205, 215, 480, 208]
    assert quantiles(values, (0.25,)) == pytest.approx((205.75,), abs=1e-12)
    assert quantiles(values, (0.75,)) == pytest.approx((213.75,), abs=1e-12)


def test_four_point_quartiles():
    values = [1, 2, 3, 100]
    assert quantiles(values, (0.25,)) == pytest.approx((1.75,), abs=1e-12)
    assert quantiles(values, (0.75,)) == pytest.approx((27.25,), abs=1e-12)
    lo, hi = iqr_fences(values)
    assert lo == pytest.approx(-36.5, abs=1e-12)
    assert hi == pytest.approx(65.5, abs=1e-12)


def test_endpoints_and_singleton():
    assert quantiles([5.0], (0.0,)) == (5.0,)
    assert quantiles([5.0], (1.0,)) == (5.0,)
    assert quantiles([3.0, 9.0], (0.0,)) == (3.0,)
    assert quantiles([3.0, 9.0], (1.0,)) == (9.0,)
    assert quantiles([3.0, 9.0], (0.5,)) == (6.0,)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        quantiles([], (0.5,))
    with pytest.raises(ValueError):
        quantiles([1.0], (1.5,))


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_matches_numpy_linear_interpolation(values, p):
    (ours,) = quantiles(values, (p,))
    ref = float(np.percentile(np.array(values), 100.0 * p))
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)
