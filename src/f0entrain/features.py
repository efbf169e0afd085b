"""Per-word parameterization of cleaned F0 contours.

Each word's pitch samples are summarized by five features:

* ``mean``   - average of the raw pitch values (Hz)
* ``median`` - median of the raw pitch values (Hz)
* ``slope``  - slope of the least-squares line through the values against
  time normalized to [0, 1] across the word (Hz per unit)
* ``range``  - 95th minus 5th percentile of the fitted line's values (Hz)
* ``drop``   - last minus first fitted value divided by the real elapsed
  time between the first and last sample (Hz/s); note this is a rate,
  unlike ``slope`` which is a duration-free total change

Words whose slice yields fewer than 2 samples are dropped consistently
from all five per-utterance contours.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from f0entrain.errors import ComputeError
from f0entrain.quantiles import type7_position
from f0entrain.types import F0Track, WordSpan
from f0entrain import ingest

FEATURE_NAMES = ("mean", "median", "slope", "range", "drop")

SEMITONES_PER_OCTAVE = 12.0


class WordFeatures(NamedTuple):
    mean: float
    median: float
    slope: float
    range: float
    drop: float

    def value(self, feature: str) -> float:
        return getattr(self, feature)


@dataclass(frozen=True)
class UtteranceFeatures:
    speaker: str
    utterance_index: int
    words: tuple[tuple[WordSpan, WordFeatures], ...]


@lru_cache(maxsize=256)
def _word_grid(n: int):
    """Constants of an n-sample word (n >= 2), shared by every word of that length.

    Normalized times t = i / (n - 1) as floats, in time order and reversed;
    the centered times t - 0.5 and their sum of squares for the OLS slope;
    and the type-7 positions of the median and the 5th/95th percentiles.
    """
    t = np.arange(n, dtype=np.float64) / (n - 1)
    centered = t - 0.5
    centered.flags.writeable = False
    times = tuple(t.tolist())
    positions = tuple(type7_position(n, p) for p in (0.5, 0.05, 0.95))
    return times, times[::-1], centered, float(np.dot(centered, centered)), positions


def _summarize(y: np.ndarray, step: float) -> WordFeatures:
    """Five features of one word's n >= 2 samples ``y``, taken ``step`` s apart."""
    n = y.size
    times, reversed_times, centered, sxx, (mid, p05, p95) = _word_grid(n)
    mean = float(np.add.reduce(y)) / n  # what y.mean() computes
    slope = float(np.dot(centered, y - mean)) / sxx
    intercept = mean - slope * 0.5

    x = y.copy()
    x.sort()
    lo, hi, frac = mid
    a = float(x[lo])
    median = a + frac * (float(x[hi]) - a)

    # The fitted line intercept + slope * t is monotone in t (each rounded
    # step preserves order), so its order statistics are its values in time
    # order, reversed when it falls: the same floats a sort would give.
    ranked = reversed_times if slope < 0 else times
    lo, hi, frac = p05
    a = intercept + slope * ranked[lo]
    q05 = a + frac * (intercept + slope * ranked[hi] - a)
    lo, hi, frac = p95
    a = intercept + slope * ranked[lo]
    q95 = a + frac * (intercept + slope * ranked[hi] - a)

    first = intercept + slope * times[0]
    last = intercept + slope * times[-1]
    return WordFeatures(mean, median, slope, q95 - q05, (last - first) / ((n - 1) * step))


def linear_fit(segment: F0Track) -> tuple[float, float]:
    """OLS line through the segment's values against normalized time.

    Time is mapped affinely onto [0, 1]; returns (intercept at 0, slope
    over the unit interval). Raises ComputeError for segments with fewer
    than 2 samples.
    """
    if segment.values.size < 2:
        raise ComputeError("degenerate fit: need at least 2 samples")
    wf = _summarize(segment.values, segment.step)
    return wf.mean - wf.slope * 0.5, wf.slope


def word_features(segment: F0Track, span: WordSpan) -> WordFeatures:
    """Five-feature summary of one word's pitch samples (see module doc)."""
    n = segment.values.size
    if n < 2:
        raise ComputeError(f"word {span.text!r}: need at least 2 samples, got {n}")
    return _summarize(segment.values, segment.step)


def to_semitones(track: F0Track, reference_hz: float) -> F0Track:
    """Convert a fully voiced track to semitones re ``reference_hz``."""
    if reference_hz <= 0:
        raise ValueError(f"semitone reference must be positive, got {reference_hz}")
    if not track.fully_voiced:
        raise ComputeError("semitone conversion expects a fully voiced track")
    values = SEMITONES_PER_OCTAVE * np.log2(track.values / reference_hz)
    return F0Track(track.start_time, track.step, values, np.ones(len(track), dtype=bool))


def parameterize_utterance(
    track: F0Track,
    spans: list[WordSpan],
    speaker: str,
    utterance_index: int,
) -> tuple[UtteranceFeatures, int]:
    """Per-word features for a cleaned track; returns (features, n_dropped).

    Words shorter than one sample step or with a single sample are dropped.
    """
    words: list[tuple[WordSpan, WordFeatures]] = []
    dropped = 0
    windows = ingest.sample_windows(track, spans)
    for span, (i0, i1) in zip(spans, windows):
        if i1 - i0 < 2:
            dropped += 1
            continue
        words.append((span, _summarize(track.values[i0:i1], track.step)))
    return UtteranceFeatures(speaker, utterance_index, tuple(words)), dropped


def build_contours(utt: UtteranceFeatures) -> dict[str, np.ndarray]:
    """One read-only contour per feature; the i-th value comes from the i-th retained word."""
    if not utt.words:
        raise ComputeError(
            f"empty utterance: no retained words for speaker {utt.speaker!r} "
            f"utterance {utt.utterance_index}"
        )
    # one row per feature, each a contiguous read-only column of the word table
    table = np.array([wf for _, wf in utt.words], dtype=np.float64).T.copy()
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        name = FEATURE_NAMES[int(np.argmin(finite))]
        raise ComputeError(f"{name} contour must be non-empty and finite")
    table.flags.writeable = False
    return dict(zip(FEATURE_NAMES, table))
