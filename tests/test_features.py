import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from f0entrain.errors import ComputeError
from f0entrain.features import (
    FEATURE_NAMES,
    TABLE_ROWS,
    build_contours,
    parameterize_utterance,
    to_semitones,
)
from f0entrain.quantiles import quantiles
from f0entrain.types import WordSpan

from conftest import make_track, one_word_features
from oracles import ols_line, parameterize_by_slicing, word_features_by_sorting

segments = st.lists(
    st.floats(min_value=50, max_value=500), min_size=2, max_size=40
).map(lambda v: make_track(v, step=0.01))


# ---------------------------------------------------------------------------
# the fitted line: slope is a feature; the line passes through the mean at
# t = 0.5, so its intercept at t = 0 is mean - slope / 2


def _line(values):
    wf = one_word_features(make_track(values))
    return wf["mean"] - wf["slope"] / 2, wf["slope"]


def test_fit_exact_line():
    intercept, slope = _line([100, 110, 120])
    assert intercept == pytest.approx(100.0, abs=1e-12)
    assert slope == pytest.approx(20.0, abs=1e-12)


def test_fit_constant():
    intercept, slope = _line([150, 150, 150, 150])
    assert intercept == pytest.approx(150.0)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_ols_closed_form():
    # slope = sum((t - mean_t)(y - mean_y)) / sum((t - mean_t)^2) = 5 / 0.5
    intercept, slope = _line([100, 120, 110])
    assert slope == pytest.approx(10.0, abs=1e-12)
    assert intercept == pytest.approx(105.0, abs=1e-12)


def test_fit_single_sample_degenerate():
    # no line through one sample: the word is dropped
    assert one_word_features(make_track([100.0])) is None


@settings(max_examples=100, deadline=None)
@given(segments)
def test_fit_matches_oracle(segment):
    n = len(segment)
    t_n = np.arange(n) / (n - 1)
    ref_intercept, ref_slope = ols_line(t_n, segment.values)
    intercept, slope = _line(segment.values)
    assert intercept == pytest.approx(ref_intercept, rel=1e-9, abs=1e-9)
    assert slope == pytest.approx(ref_slope, rel=1e-9, abs=1e-6)


# ---------------------------------------------------------------------------
# per-word features


def test_word_features_worked_example():
    # values (100, 110, 120) at 0.40, 0.45, 0.50 s
    segment = make_track([100, 110, 120], start=0.40, step=0.05)
    wf = one_word_features(segment)
    assert wf["mean"] == pytest.approx(110.0)
    assert wf["median"] == pytest.approx(110.0)
    assert wf["slope"] == pytest.approx(20.0)
    # fitted (100, 110, 120): p95 at h=1.9 -> 119, p5 at h=0.1 -> 101
    assert wf["range"] == pytest.approx(18.0, abs=1e-9)
    assert wf["drop"] == pytest.approx(200.0)


def test_word_features_constant():
    segment = make_track([150] * 8)
    wf = one_word_features(segment)
    assert tuple(wf.values()) == (150.0, 150.0, 0.0, 0.0, 0.0)


def test_word_features_sign_symmetry():
    segment = make_track([120, 110, 100], start=0.0, step=0.05)
    wf = one_word_features(segment)
    assert wf["slope"] == pytest.approx(-20.0)
    assert wf["drop"] == pytest.approx(-200.0)
    assert wf["range"] == pytest.approx(18.0, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(segments, st.floats(min_value=-200, max_value=200))
def test_shift_invariance(segment, c):
    base = one_word_features(segment)
    shifted = one_word_features(segment.replace_values(segment.values + c))
    assert shifted["mean"] == pytest.approx(base["mean"] + c, rel=1e-9, abs=1e-6)
    assert shifted["median"] == pytest.approx(base["median"] + c, rel=1e-9, abs=1e-6)
    assert shifted["slope"] == pytest.approx(base["slope"], rel=1e-9, abs=1e-6)
    assert shifted["range"] == pytest.approx(base["range"], rel=1e-9, abs=1e-6)
    assert shifted["drop"] == pytest.approx(base["drop"], rel=1e-9, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(segments, st.floats(min_value=0.01, max_value=10))
def test_scale_covariance(segment, k):
    base = one_word_features(segment)
    scaled = one_word_features(segment.replace_values(segment.values * k))
    for name in FEATURE_NAMES:
        assert scaled[name] == pytest.approx(k * base[name], rel=1e-9, abs=1e-6), name


@settings(max_examples=80, deadline=None)
@given(segments)
def test_time_reversal(segment):
    base = one_word_features(segment)
    reversed_ = one_word_features(segment.replace_values(segment.values[::-1]))
    assert reversed_["mean"] == pytest.approx(base["mean"], abs=1e-9)
    assert reversed_["median"] == pytest.approx(base["median"], abs=1e-9)
    assert reversed_["slope"] == pytest.approx(-base["slope"], rel=1e-9, abs=1e-6)
    assert reversed_["range"] == pytest.approx(base["range"], rel=1e-9, abs=1e-6)
    assert reversed_["drop"] == pytest.approx(-base["drop"], rel=1e-9, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(segments)
def test_range_equals_slope_times_tn_percentile_span(segment):
    wf = one_word_features(segment)
    n = len(segment)
    t_n = np.arange(n) / (n - 1)
    q05, q95 = quantiles(t_n, (0.05, 0.95))
    expected = abs(wf["slope"]) * (q95 - q05)
    assert wf["range"] == pytest.approx(expected, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(segments)
def test_word_features_equal_sorting_reference(segment):
    expected = word_features_by_sorting(segment.values, segment.step)
    assert tuple(one_word_features(segment).values()) == expected


@st.composite
def tracks_with_spans(draw):
    """A cleaned track and word spans over it: rising, falling, flat or tied values."""
    n = draw(st.integers(min_value=2, max_value=60))
    shape = draw(st.sampled_from(["any", "ties", "falling", "flat"]))
    if shape == "any":
        values = draw(st.lists(st.floats(min_value=-30, max_value=500), min_size=n, max_size=n))
    elif shape == "ties":
        values = draw(st.lists(st.sampled_from([100.0, 101.5, 103.0]), min_size=n, max_size=n))
    elif shape == "falling":
        top = draw(st.floats(min_value=100, max_value=300))
        values = top - draw(st.floats(min_value=0.01, max_value=5)) * np.arange(n)
    else:
        values = np.full(n, draw(st.floats(min_value=50, max_value=500)))
    start = draw(st.sampled_from([0.0, 0.13, 1.005]))
    track = make_track(values, start=start, step=0.01)
    # word boundaries in sample steps: on the grid or between samples,
    # so words get 0, 1, 2, 3 or more samples
    cuts = draw(
        st.lists(
            st.one_of(st.integers(-2, n + 2), st.floats(min_value=-2, max_value=n + 2)),
            min_size=2,
            max_size=12,
        )
    )
    times = sorted({round(start + c * 0.01, 6) for c in cuts})
    spans = [WordSpan(f"w{i}", a, b) for i, (a, b) in enumerate(zip(times, times[1:]))]
    return track, spans


# words of 2 and 3 samples, rising, falling and flat, then a dropped one-sample word
SHORT_WORDS = (
    make_track([100, 130, 130, 100, 120, 120, 100, 140, 110, 140, 120, 100, 90], step=0.01),
    [WordSpan(f"w{i}", a, b) for i, (a, b) in enumerate(
        [(0.0, 0.02), (0.02, 0.04), (0.04, 0.06), (0.06, 0.09), (0.09, 0.12), (0.12, 0.13)]
    )],
)


@settings(max_examples=300, deadline=None)
@given(tracks_with_spans())
@example(SHORT_WORDS)
def test_parameterize_equals_per_word_reference(case):
    track, spans = case
    utt, dropped = parameterize_utterance(track, spans, "S", 0)
    expected, expected_dropped = parameterize_by_slicing(track, spans)
    assert dropped == expected_dropped
    assert utt.words == tuple(span.text for span, _ in expected)
    # exact floats: each column is the word's times, then its features
    assert utt.table.T.tolist() == [[span.start, span.end, *wf] for span, wf in expected]


def test_semitone_conversion():
    track = make_track([100, 200, 400])
    st_track = to_semitones(track, 100.0)
    assert np.allclose(st_track.values, [0.0, 12.0, 24.0])


# ---------------------------------------------------------------------------
# utterance assembly


def test_contours_two_words():
    track = make_track(np.concatenate([np.full(20, 110.0), np.full(20, 130.0)]), step=0.01)
    spans = [WordSpan("a", 0.0, 0.2), WordSpan("b", 0.2, 0.4)]
    utt, dropped = parameterize_utterance(track, spans, "S", 0)
    assert dropped == 0
    contours = build_contours(utt)
    assert set(contours) == set(FEATURE_NAMES)
    assert np.allclose(contours["mean"], [110.0, 130.0])
    assert np.allclose(contours["median"], [110.0, 130.0])
    assert not any(c.flags.writeable for c in contours.values())


def test_table_is_read_only_and_contours_are_views_of_it():
    track = make_track(np.linspace(100, 160, 60), step=0.01)
    spans = [WordSpan("a", 0.0, 0.2), WordSpan("b", 0.2, 0.4), WordSpan("c", 0.4, 0.6)]
    utt, _ = parameterize_utterance(track, spans, "S", 0)
    assert utt.table.shape == (len(TABLE_ROWS), 3)
    assert not utt.table.flags.writeable
    with pytest.raises(ValueError):
        utt.table[2, 0] = 0.0
    for name, contour in build_contours(utt).items():
        assert np.shares_memory(contour, utt.table)
        assert not contour.flags.writeable
        assert contour.tolist() == utt.table[TABLE_ROWS.index(name)].tolist()


def test_contours_single_word():
    track = make_track(np.linspace(100, 120, 30), step=0.01)
    utt, _ = parameterize_utterance(track, [WordSpan("a", 0.0, 0.3)], "S", 0)
    contours = build_contours(utt)
    assert all(len(c) == 1 for c in contours.values())


def test_short_word_dropped_consistently():
    track = make_track(np.linspace(100, 160, 60), step=0.01)
    spans = [
        WordSpan("a", 0.0, 0.2),
        WordSpan("tiny", 0.2, 0.205),  # one sample only
        WordSpan("c", 0.21, 0.4),
    ]
    utt, dropped = parameterize_utterance(track, spans, "S", 0)
    assert dropped == 1
    assert utt.words == ("a", "c")
    assert utt.table[:2].tolist() == [[0.0, 0.21], [0.2, 0.4]]
    contours = build_contours(utt)
    lengths = {len(c) for c in contours.values()}
    assert lengths == {2}


def test_single_sample_word_dropped():
    track = make_track(np.linspace(100, 160, 60), step=0.01)
    spans = [WordSpan("a", 0.0, 0.2), WordSpan("one", 0.2, 0.205)]
    utt, dropped = parameterize_utterance(track, spans, "S", 0)
    assert dropped == 1
    assert len(utt.words) == 1


def test_empty_utterance_rejected():
    track = make_track(np.linspace(100, 160, 60), step=0.01)
    # the span contains no sample time at all
    utt, dropped = parameterize_utterance(track, [WordSpan("t", 0.001, 0.009)], "S", 0)
    assert dropped == 1
    with pytest.raises(ComputeError, match="empty utterance"):
        build_contours(utt)
