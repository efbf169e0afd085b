"""Core signal types: uniformly sampled pitch tracks and aligned word spans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from f0entrain.errors import ValidationError


def _readonly(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.asarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise ValidationError("track arrays must be one-dimensional")
    out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class F0Track:
    """A uniformly sampled F0 contour with per-sample voicing state.

    ``values[i]`` is the pitch in Hz at time ``start_time + i * step``;
    it is only meaningful where ``voiced[i]`` is True.
    """

    start_time: float
    step: float
    values: np.ndarray = field(repr=False)
    voiced: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values, np.float64))
        object.__setattr__(self, "voiced", _readonly(self.voiced, np.bool_))
        if self.step <= 0:
            raise ValidationError(f"step must be positive, got {self.step}")
        if self.values.shape != self.voiced.shape:
            raise ValidationError("values and voiced must have equal length")
        # Positivity of voiced Hz values is enforced where tracks enter the
        # system (loaders, pitch tracker, generator); the type itself also
        # carries semitone-domain contours, which may be negative.
        v = self.values[self.voiced]
        if v.size and not np.all(np.isfinite(v)):
            raise ValidationError("voiced F0 values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def fully_voiced(self) -> bool:
        return bool(np.all(self.voiced))

    def replace_values(self, values: np.ndarray, voiced: np.ndarray | None = None) -> "F0Track":
        """New track on the same time grid with different sample values."""
        if voiced is None:
            voiced = self.voiced
        return F0Track(self.start_time, self.step, values, voiced)

    def __eq__(self, other) -> bool:
        if not isinstance(other, F0Track):
            return NotImplemented
        return (
            self.start_time == other.start_time
            and self.step == other.step
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.voiced, other.voiced)
        )


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
