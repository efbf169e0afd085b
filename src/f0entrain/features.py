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

import numpy as np

from f0entrain.errors import ComputeError
from f0entrain.quantiles import type7_position
from f0entrain.types import F0Track, WordSpan
from f0entrain import ingest

FEATURE_NAMES = ("mean", "median", "slope", "range", "drop")

# the rows of UtteranceFeatures.table: a word's times, then its features
TABLE_ROWS = ("start_s", "end_s") + FEATURE_NAMES

SEMITONES_PER_OCTAVE = 12.0


@dataclass(frozen=True, eq=False)
class UtteranceFeatures:
    """The retained words of one rendition, in time order.

    ``words`` holds their texts. ``table`` is one read-only ``(7, n)``
    float array with a row per ``TABLE_ROWS`` name and a column per word:
    the word's start and end times in seconds, then its five features.
    """

    speaker: str
    utterance_index: int
    words: tuple[str, ...]
    table: np.ndarray


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


def _summarize(y: np.ndarray, step: float) -> tuple[float, float, float, float, float]:
    """The five features, in FEATURE_NAMES order, of n >= 2 samples ``y`` taken ``step`` s apart."""
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
    return mean, median, slope, q95 - q05, (last - first) / ((n - 1) * step)


def to_semitones(track: F0Track, reference_hz: float) -> F0Track:
    """Convert a fully voiced track to semitones re ``reference_hz``."""
    if reference_hz <= 0:
        raise ValueError(f"semitone reference must be positive, got {reference_hz}")
    if not track.fully_voiced:
        raise ComputeError("semitone conversion expects a fully voiced track")
    values = SEMITONES_PER_OCTAVE * np.log2(track.values / reference_hz)
    return track.replace_values(values)


def parameterize_utterance(
    track: F0Track,
    spans: list[WordSpan],
    speaker: str,
    utterance_index: int,
) -> tuple[UtteranceFeatures, int]:
    """Per-word features for a cleaned track; returns (features, n_dropped).

    Words shorter than one sample step or with a single sample are dropped.
    """
    words: list[str] = []
    columns: list[tuple[float, ...]] = []
    windows = ingest.sample_windows(track, spans)
    for span, (i0, i1) in zip(spans, windows):
        if i1 - i0 >= 2:
            words.append(span.text)
            columns.append((span.start, span.end) + _summarize(track.values[i0:i1], track.step))
    # word-major like the corpus's ContourStore, so adding it there is one plain copy
    table = np.array(columns, dtype=np.float64).reshape(-1, len(TABLE_ROWS)).T
    table.flags.writeable = False
    utt = UtteranceFeatures(speaker, utterance_index, tuple(words), table)
    return utt, len(spans) - len(words)


def build_contours(utt: UtteranceFeatures) -> dict[str, np.ndarray]:
    """One contour per feature: a read-only view of its row of ``utt.table``.

    The i-th value comes from the i-th retained word; nothing is copied.
    """
    if not utt.words:
        raise ComputeError(
            f"empty utterance: no retained words for speaker {utt.speaker!r} "
            f"utterance {utt.utterance_index}"
        )
    features = utt.table[2:]
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        name = FEATURE_NAMES[int(np.argmin(finite))]
        raise ComputeError(f"{name} contour must be non-empty and finite")
    return dict(zip(FEATURE_NAMES, features))
