import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain.entrain import dtw_distance
from f0entrain.errors import ComputeError

from oracles import dtw_bruteforce, dtw_bruteforce_full

seq = st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=6)


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
