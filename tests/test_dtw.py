import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain.entrain import dtw_distance
from f0entrain.errors import ComputeError

from oracles import dtw_bruteforce, dtw_bruteforce_full, dtw_by_rows

seq = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=6)


def same_float(x: float, y: float) -> bool:
    """Equal, and with the same sign: tells -0.0 from 0.0."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def test_identity_is_zero():
    assert dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_two_flat_sequences():
    # every monotone path through the 2x2 grid visits at least two cells of cost 1
    assert dtw_distance([0.0, 0.0], [1.0, 1.0]) == 2.0
    assert dtw_bruteforce([0.0, 0.0], [1.0, 1.0]) == 2.0


def test_unequal_lengths_path():
    # optimal path (1,1),(3,4),(4,4): costs 0 + 1 + 0
    assert dtw_distance([1.0, 3.0, 4.0], [1.0, 4.0]) == 1.0
    assert dtw_bruteforce([1.0, 3.0, 4.0], [1.0, 4.0]) == 1.0


def test_empty_sequence_rejected():
    with pytest.raises(ComputeError):
        dtw_distance([], [1.0])
    with pytest.raises(ComputeError):
        dtw_distance([1.0], [])


def test_bruteforce_variants_agree():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.integers(0, 10, size=rng.integers(1, 7)).astype(float).tolist()
        b = rng.integers(0, 10, size=rng.integers(1, 7)).astype(float).tolist()
        assert dtw_bruteforce(a, b) == dtw_bruteforce_full(a, b)


@settings(max_examples=150, deadline=None)
@given(seq, seq)
def test_matches_exhaustive_enumeration(a, b):
    assert dtw_distance(a, b) == pytest.approx(dtw_bruteforce(a, b), rel=1e-12, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(seq, seq)
def test_symmetry_and_nonnegativity(a, b):
    d_ab = dtw_distance(a, b)
    assert d_ab >= 0.0
    assert d_ab == pytest.approx(dtw_distance(b, a), rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(seq, seq, st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_shift_invariance(a, b, c):
    shifted = dtw_distance([x + c for x in a], [x + c for x in b])
    assert shifted == pytest.approx(dtw_distance(a, b), rel=1e-9, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(seq, seq, st.floats(min_value=0, max_value=20, allow_nan=False))
def test_scale_covariance(a, b, k):
    scaled = dtw_distance([x * k for x in a], [x * k for x in b])
    assert scaled == pytest.approx(k * dtw_distance(a, b), rel=1e-9, abs=1e-9)


def test_accepts_readonly_arrays():
    # callers pass the rows of the read-only contour store as lists
    a = np.array([1.0, 2.0, 5.0])
    a.flags.writeable = False
    assert dtw_distance(a.tolist(), a.tolist()) == 0.0


def test_signed_zero_kept():
    # the local cost -0.0 - 0.0 is -0.0; abs() would give 0.0
    assert same_float(dtw_distance([-0.0], [0.0]), -0.0)
    assert same_float(dtw_by_rows([-0.0], [0.0]), -0.0)


def test_matches_row_recurrence_on_every_shape():
    # every (n, m) up to 13 x 13 exercises the two-row pass with and without a
    # leftover row; the few values make ties and signed zeros common
    rng = np.random.default_rng(24)
    values = np.array([0.0, -0.0, 1.0, 2.5])
    for n in range(1, 14):
        for m in range(1, 14):
            for _ in range(12):
                a = rng.choice(values, size=n).tolist()
                b = rng.choice(values, size=m).tolist()
                assert same_float(dtw_distance(a, b), dtw_by_rows(a, b)), (a, b)


any_floats = st.lists(
    st.sampled_from([0.0, -0.0]) | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=14,
)


@settings(max_examples=300, deadline=None)
@given(any_floats, any_floats)
def test_matches_row_recurrence(a, b):
    assert same_float(dtw_distance(a, b), dtw_by_rows(a, b))
