"""Core signal types: uniformly sampled pitch tracks and aligned word spans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from f0entrain.errors import ValidationError


@dataclass(frozen=True, eq=False)
class F0Track:
    """A uniformly sampled F0 contour.

    ``values[i]`` is the pitch in Hz at time ``start_time + i * step``,
    or NaN where the sample is unvoiced.
    """

    start_time: float
    step: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)  # a copy, made read-only
        if values.ndim != 1:
            raise ValidationError("track values must be one-dimensional")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.step <= 0:
            raise ValidationError(f"step must be positive, got {self.step}")
        # Positivity of voiced Hz values is enforced where tracks enter the
        # system (loaders, pitch tracker, generator); the type itself also
        # carries semitone-domain contours, which may be negative.
        if np.isinf(self.values).any():
            raise ValidationError("voiced F0 values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def fully_voiced(self) -> bool:
        return not np.isnan(self.values).any()

    def replace_values(self, values: np.ndarray) -> "F0Track":
        """New track on the same time grid with different sample values."""
        return F0Track(self.start_time, self.step, values)


@dataclass(frozen=True)
class WordSpan:
    """One aligned word with start/end timestamps in seconds."""

    text: str
    start: float
    end: float

    def __post_init__(self):
        if not self.end > self.start:
            raise ValidationError(
                f"word {self.text!r}: end ({self.end}) must exceed start ({self.start})"
            )
