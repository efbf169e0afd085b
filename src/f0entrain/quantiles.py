"""Shared quantile routines.

Every quantile in the toolkit (outlier fences, feature percentiles,
normalization) goes through this module so that a single convention
applies everywhere: linear interpolation between order statistics at
position h = (n - 1) * p, i.e. the "type 7" rule.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Tukey's fence multiplier for the outlier rule
TUKEY_K = 1.5


def quantiles(values: Sequence[float] | np.ndarray, ps: Sequence[float]) -> tuple[float, ...]:
    """Type-7 quantiles of ``values`` at each probability in ``ps``, with one sort."""
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile probability must be in [0, 1], got {p}")
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = x.size
    if n == 0:
        raise ValueError("quantile of empty sequence")
    out = []
    for p in ps:
        lo, hi, frac = type7_position(n, p)
        out.append(float(x[lo] + frac * (x[hi] - x[lo])))
    return tuple(out)


def type7_position(n: int, p: float) -> tuple[int, int, float]:
    """Order statistics (lo, hi) and weight of the type-7 quantile at ``p``.

    The quantile of n sorted values x is ``x[lo] + frac * (x[hi] - x[lo])``.
    """
    h = (n - 1) * p
    lo = math.floor(h)
    return lo, min(lo + 1, n - 1), h - lo


def iqr_fences(values: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Tukey fences [q25 - k*IQR, q75 + k*IQR] with k = ``TUKEY_K``."""
    q25, q75 = quantiles(values, (0.25, 0.75))
    spread = q75 - q25
    return q25 - TUKEY_K * spread, q75 + TUKEY_K * spread
