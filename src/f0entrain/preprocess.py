"""F0 contour cleaning: gap interpolation, outlier removal, smoothing.

The fixed processing order is: interpolate unvoiced gaps, remove outliers
with a two-pass quantile rule, smooth with a least-squares polynomial
(Savitzky-Golay) filter. All three operations preserve the track's length
and time grid and are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from f0entrain.errors import ComputeError
from f0entrain.quantiles import quantiles
from f0entrain.types import F0Track

# Two-pass plausibility fences derived from the first-pass quartiles:
# floor 0.75 * q25, ceiling 1.5 * q75.
OUTLIER_FLOOR_FACTOR = 0.75
OUTLIER_CEIL_FACTOR = 1.5

# Quartiles of fewer than this many samples are too unstable to act on.
MIN_SAMPLES_FOR_OUTLIERS = 4


@dataclass(frozen=True)
class SmoothingConfig:
    window: int = 7
    order: int = 3

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be a positive odd integer, got {self.window}")
        if not 0 <= self.order < self.window:
            raise ValueError(f"order must satisfy 0 <= order < window, got {self.order}")


def interpolate_unvoiced(track: F0Track) -> F0Track:
    """Fill unvoiced samples: linear interpolation between flanking voiced
    values; leading/trailing runs hold the nearest voiced value."""
    if track.fully_voiced:
        return track
    voiced_idx = np.flatnonzero(~np.isnan(track.values))
    if voiced_idx.size == 0:
        raise ComputeError("cannot interpolate an all-unvoiced track")
    filled = np.interp(
        np.arange(len(track)), voiced_idx, track.values[voiced_idx]
    )
    return track.replace_values(filled)


class OutlierResult(NamedTuple):
    track: F0Track
    n_replaced: int
    warned: bool


def outlier_bounds(values: np.ndarray) -> tuple[float, float]:
    """Pass-1 plausibility bounds [0.75*q25, 1.5*q75] of the given values."""
    q25, q75 = quantiles(values, (0.25, 0.75))
    return OUTLIER_FLOOR_FACTOR * q25, OUTLIER_CEIL_FACTOR * q75


def two_pass_outlier(track: F0Track, bounds: tuple[float, float] | None = None) -> OutlierResult:
    """Remove implausible F0 values and re-interpolate across them.

    Pass 1 computes plausibility bounds from the track's own quartiles
    (or uses precomputed ``bounds``, e.g. pooled per speaker); samples
    outside the bounds are marked unvoiced (NaN). Pass 2 fills them by linear
    interpolation. Tracks with fewer than 4 samples are returned unchanged
    with ``warned`` set.
    """
    if not track.fully_voiced:
        raise ComputeError("two_pass_outlier expects a fully voiced track; interpolate first")
    if len(track) < MIN_SAMPLES_FOR_OUTLIERS and bounds is None:
        return OutlierResult(track, 0, True)
    if bounds is None:
        bounds = outlier_bounds(track.values)
    lo, hi = bounds
    keep = (track.values >= lo) & (track.values <= hi)
    n_out = int(np.count_nonzero(~keep))
    if n_out == 0:
        return OutlierResult(track, 0, False)
    if not keep.any():
        # cannot happen with self-derived bounds on positive data, but
        # pooled bounds may reject a whole short track
        return OutlierResult(track, 0, True)
    marked = track.replace_values(np.where(keep, track.values, np.nan))
    return OutlierResult(interpolate_unvoiced(marked), n_out, False)


@lru_cache(maxsize=None)
def sg_coefficients(window: int, order: int) -> np.ndarray:
    """Convolution weights of the 0th-derivative Savitzky-Golay smoother.

    Row 0 of the pseudo-inverse of the polynomial design matrix on the
    symmetric integer grid; equals the center value of the least-squares
    degree-``order`` fit. Weights sum to 1.
    """
    SmoothingConfig(window, order)  # reuse its validation
    half = window // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    design = x[:, None] ** np.arange(order + 1)
    weights = np.linalg.pinv(design)[0]
    weights.flags.writeable = False
    return weights


def sg_smooth(track: F0Track, config: SmoothingConfig = SmoothingConfig()) -> F0Track:
    """Savitzky-Golay smoothing with shrinking symmetric windows at edges.

    Interior samples are convolved with ``sg_coefficients(window, order)``.
    Within half a window of each edge the fit is recomputed with the
    largest odd symmetric window that fits; where even ``order + 1`` points
    do not fit, the input sample is copied (no data is fabricated beyond
    the utterance boundary).
    """
    if not track.fully_voiced:
        raise ComputeError("sg_smooth expects a fully voiced track")
    y = track.values
    n = y.size
    half = config.window // 2
    out = y.astype(np.float64)  # a new array
    if n >= config.window:
        weights = sg_coefficients(config.window, config.order)
        out[half : n - half] = np.convolve(y, weights, mode="valid")
    for i in range(min(half, n)):
        for j in (i, n - 1 - i):
            avail = min(j, n - 1 - j)
            w = 2 * avail + 1
            if w >= config.order + 1:
                coeffs = sg_coefficients(w, config.order)
                out[j] = float(coeffs @ y[j - avail : j + avail + 1])
            else:
                out[j] = y[j]
    return track.replace_values(out)


def clean_track(
    track: F0Track,
    config: SmoothingConfig = SmoothingConfig(),
    bounds: tuple[float, float] | None = None,
) -> F0Track:
    """Full cleaning pipeline: interpolate, de-spike, smooth."""
    track = interpolate_unvoiced(track)
    track = two_pass_outlier(track, bounds=bounds).track
    return sg_smooth(track, config)
