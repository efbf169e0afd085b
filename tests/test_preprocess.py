import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain.errors import ComputeError
from f0entrain.preprocess import (
    SmoothingConfig,
    clean_track,
    interpolate_unvoiced,
    outlier_bounds,
    sg_coefficients,
    sg_smooth,
    two_pass_outlier,
)

from conftest import make_track
from oracles import sg_weights_by_polyfit


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_midpoint():
    track = make_track([100, 0, 120], voiced=[True, False, True])
    out = interpolate_unvoiced(track)
    assert list(out.values) == [100.0, 110.0, 120.0]
    assert out.fully_voiced


def test_interpolate_holds_edges():
    track = make_track([0, 0, 150, 160], voiced=[False, False, True, True])
    out = interpolate_unvoiced(track)
    assert list(out.values) == [150.0, 150.0, 150.0, 160.0]


def test_interpolate_fully_voiced_identity():
    track = make_track([100, 110, 120])
    assert interpolate_unvoiced(track) is track


def test_interpolate_all_unvoiced_rejected():
    track = make_track([0, 0], voiced=[False, False])
    with pytest.raises(ComputeError):
        interpolate_unvoiced(track)


# ---------------------------------------------------------------------------
# two-pass outlier removal


def test_two_pass_hand_worked_example():
    # q25 = 205.75, q75 = 213.75 -> bounds [154.3125, 320.625]; the 480
    # sample is replaced by the midpoint of its neighbours
    track = make_track([200, 210, 205, 215, 480, 208])
    result = two_pass_outlier(track)
    assert result.n_replaced == 1
    assert not result.warned
    assert list(result.track.values) == [200.0, 210.0, 205.0, 215.0, 211.5, 208.0]


def test_two_pass_constant_track_unchanged():
    track = make_track([150.0] * 6)
    result = two_pass_outlier(track)
    assert result.n_replaced == 0
    assert result.track is track


def test_two_pass_short_track_warns():
    track = make_track([100, 500, 120])
    result = two_pass_outlier(track)
    assert result.warned
    assert result.track is track


def test_two_pass_requires_voiced():
    track = make_track([100, 0, 120], voiced=[True, False, True])
    with pytest.raises(ComputeError):
        two_pass_outlier(track)


def _spiked_track(rng, n=None):
    n = n or int(rng.integers(20, 200))
    base = 200.0 + 30.0 * np.sin(np.linspace(0, 3 * np.pi, n)) + rng.normal(0, 3, n)
    values = base.copy()
    n_spikes = int(rng.integers(1, max(2, n // 10)))
    spike_idx = rng.choice(n, size=n_spikes, replace=False)
    up = rng.uniform(size=n_spikes) < 0.7
    values[spike_idx] = np.where(up, rng.uniform(500, 900, n_spikes), rng.uniform(5, 60, n_spikes))
    return make_track(values), spike_idx, base


def test_containment_and_spike_replacement(rng):
    for _ in range(200):
        track, spike_idx, _ = _spiked_track(rng)
        lo, hi = outlier_bounds(track.values)
        result = two_pass_outlier(track)
        out = result.track.values
        assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)
        # spikes (outside the bounds) were altered
        for i in spike_idx:
            if track.values[i] < lo or track.values[i] > hi:
                assert out[i] != track.values[i]
        # in-bounds samples pass through untouched
        inside = (track.values >= lo) & (track.values <= hi)
        assert np.array_equal(out[inside], track.values[inside])


def test_two_pass_idempotent_on_spiked_tracks(rng):
    for _ in range(100):
        track, _, _ = _spiked_track(rng)
        once = two_pass_outlier(track).track
        twice = two_pass_outlier(once).track
        assert np.array_equal(once.values, twice.values)


# ---------------------------------------------------------------------------
# Savitzky-Golay


def test_sg_73_exact_weights():
    expected = np.array([-2, 3, 6, 7, 6, 3, -2], dtype=float) / 21.0
    got = sg_coefficients(7, 3)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_sg_51_is_moving_average():
    got = sg_coefficients(5, 1)
    assert np.max(np.abs(got - 0.2)) < 1e-12


def test_sg_10_is_identity():
    assert np.allclose(sg_coefficients(1, 0), [1.0], atol=1e-15)


@pytest.mark.parametrize("window,order", [(5, 2), (7, 3), (9, 4), (11, 2), (7, 5)])
def test_sg_weights_match_polyfit_oracle(window, order):
    got = sg_coefficients(window, order)
    ref = sg_weights_by_polyfit(window, order)
    assert np.max(np.abs(got - ref)) < 1e-9
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_sg_invalid_config_rejected():
    with pytest.raises(ValueError):
        sg_coefficients(6, 3)
    with pytest.raises(ValueError):
        sg_coefficients(5, 5)


def test_smooth_reproduces_cubics(rng):
    cfg = SmoothingConfig(7, 3)
    for _ in range(50):
        coeffs = rng.uniform(-2, 2, size=4)
        n = int(rng.integers(8, 60))
        x = np.linspace(-1, 1, n)
        y = np.polyval(coeffs, x) + 300.0  # keep values around speech range
        track = make_track(y)
        out = sg_smooth(track, cfg).values
        assert np.allclose(out[3:-3], y[3:-3], rtol=1e-9, atol=1e-9)


def test_smooth_constant_unchanged():
    track = make_track([150.0] * 30)
    out = sg_smooth(track, SmoothingConfig(7, 3))
    assert np.allclose(out.values, 150.0, atol=1e-12)


def test_smooth_impulse_response():
    y = np.zeros(31)
    y[15] = 21.0
    out = sg_smooth(make_track(y), SmoothingConfig(7, 3)).values
    expected = np.array([-2, 3, 6, 7, 6, 3, -2], dtype=float)
    assert np.allclose(out[12:19], expected, atol=1e-9)
    assert np.allclose(out[:12], 0.0, atol=1e-12)
    assert np.allclose(out[19:], 0.0, atol=1e-12)


def test_smooth_edges_use_shrunken_windows():
    rng = np.random.default_rng(2)
    y = rng.uniform(100, 300, 40)
    out = sg_smooth(make_track(y), SmoothingConfig(7, 3)).values
    # windows 1 and 3 cannot hold a cubic: inputs are copied
    assert out[0] == y[0] and out[1] == y[1]
    assert out[-1] == y[-1] and out[-2] == y[-2]
    # index 2 refits with the largest odd window that fits (5 points)
    assert out[2] == pytest.approx(float(sg_coefficients(5, 3) @ y[:5]), abs=1e-12)
    assert out[-3] == pytest.approx(float(sg_coefficients(5, 3) @ y[-5:]), abs=1e-12)


def test_smooth_short_track_copies_where_no_fit():
    y = np.array([100.0, 150.0, 120.0])
    out = sg_smooth(make_track(y), SmoothingConfig(7, 3)).values
    assert np.array_equal(out, y)  # no 4-point symmetric window fits anywhere


# ---------------------------------------------------------------------------
# pipeline invariants


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=60, max_value=500), min_size=2, max_size=80),
    st.lists(st.booleans(), min_size=2, max_size=80),
)
def test_clean_track_shape_and_voicing(values, voiced):
    n = min(len(values), len(voiced))
    values, voiced = values[:n], voiced[:n]
    if not any(voiced):
        voiced[0] = True
    track = make_track(values, voiced)
    out = clean_track(track)
    assert len(out) == len(track)
    assert out.step == track.step and out.start_time == track.start_time
    assert out.fully_voiced


def test_deterministic(rng):
    track, _, _ = _spiked_track(rng)
    a = clean_track(track)
    b = clean_track(track)
    assert np.array_equal(a.values, b.values)
