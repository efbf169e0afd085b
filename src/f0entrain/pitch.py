"""Self-contained F0 estimation from WAV audio.

A simplified Boersma-style autocorrelation tracker: per frame, the
normalized autocorrelation of the Hann-windowed signal is divided by the
window's own autocorrelation, local peaks are searched within the lag
range allowed by the pitch floor/ceiling, and the best peak is refined by
parabolic interpolation. There is no cross-frame path optimization; users
who need parity with a reference pitch extractor should supply F0 CSVs
instead (the batch pipeline caches this module's output in that format).
"""

from __future__ import annotations

import math
import wave as wave_io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from f0entrain.errors import ComputeError, ParseError, ValidationError
from f0entrain.types import F0Track

# One F0 sample per TIME_STEP_S seconds, each from a WINDOW_S-second frame.
TIME_STEP_S = 0.01
WINDOW_S = 0.04

# A frame is voiced only if its best autocorrelation peak reaches this.
VOICING_THRESHOLD = 0.45

# Static per-candidate preference for shorter lags: breaks ties between a
# period and its multiples without cross-frame tracking.
OCTAVE_COST = 0.01

# A frame participates in voicing only if its RMS is at least this
# fraction of the whole file's RMS.
RMS_GATE = 0.01

# Frames analysed together, with one batched rfft and irfft per block. The
# result does not depend on it. Blocks of 8, 16 and 32 frames ran equally
# fast within noise and 64 slower; a larger block holds more spectra.
BLOCK_FRAMES = 16


@dataclass(frozen=True)
class Wave:
    """Mono audio with samples scaled to [-1, 1]."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValidationError(f"sample_rate must be positive, got {self.sample_rate}")


@dataclass(frozen=True)
class PitchConfig:
    floor: float = 75.0
    ceiling: float = 600.0

    def __post_init__(self):
        if not 0 < self.floor < self.ceiling:
            raise ValidationError(
                f"need 0 < pitch floor < pitch ceiling, got floor={self.floor}, ceiling={self.ceiling}"
            )

    def validate(self, sample_rate: float) -> None:
        if not self.ceiling < sample_rate / 2:
            raise ValidationError(
                f"need pitch ceiling < sample_rate/2, got ceiling={self.ceiling}, rate={sample_rate}"
            )


def read_wav(path: str | Path) -> Wave:
    """Read a 16-bit PCM WAV file; stereo is downmixed by averaging."""
    try:
        with wave_io.open(str(path), "rb") as fh:
            n_channels = fh.getnchannels()
            sampwidth = fh.getsampwidth()
            rate = fh.getframerate()
            comptype = fh.getcomptype()
            frames = fh.readframes(fh.getnframes())
    except (wave_io.Error, EOFError) as exc:
        raise ParseError(f"{path}: corrupt or unreadable WAV header ({exc})") from exc
    if comptype != "NONE" or sampwidth != 2:
        raise ParseError(
            f"{path}: unsupported encoding (need 16-bit PCM, got "
            f"{8 * sampwidth}-bit, compression {comptype!r})"
        )
    data = np.frombuffer(frames, dtype="<i2").astype(np.float64)
    if n_channels > 1:
        data = data.reshape(-1, n_channels).mean(axis=1)
    return Wave(sample_rate=float(rate), samples=data / 32768.0)


def _autocorrelation(rows: np.ndarray, fft_len: int, n_lags: int) -> np.ndarray:
    """Autocorrelation of each row at lags 0 .. n_lags - 1, through the FFT.

    The spectra live only inside this call, so a block's large arrays are
    freed before the next block allocates its own.
    """
    spec = np.fft.rfft(rows, fft_len, axis=1)
    for row in spec:
        # one row at a time: the product over a 2-D block differs in the last bit
        np.multiply(row, np.conj(row), out=row)
    return np.fft.irfft(spec, fft_len, axis=1)[:, :n_lags].copy()


def _best_peaks(
    acf_ratio: np.ndarray, lag_min: int, lag_max: int, fs: float, config: PitchConfig
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``acf_ratio`` that are voiced, and the F0 of each.

    A row's candidates are its local peaks at lags in [lag_min, lag_max],
    each refined by a parabola through it and its neighbours (a flat or
    degenerate one keeps its integer lag). The strongest after the octave
    cost wins; of equal ones the shortest lag, as a strict ">" scanning the
    lags upward keeps it. The row is voiced if the winner's peak value
    reaches the voicing threshold.
    """
    r0 = acf_ratio[:, lag_min - 1 : lag_max]
    r1 = acf_ratio[:, lag_min : lag_max + 1]
    r2 = acf_ratio[:, lag_min + 1 : lag_max + 2]
    row, col = np.nonzero((r1 > r0) & (r1 >= r2))
    lag = col + lag_min
    r0, r1, r2 = acf_ratio[row, lag - 1], acf_ratio[row, lag], acf_ratio[row, lag + 1]
    denom = r0 - 2.0 * r1 + r2
    refine = ~(denom >= 0.0)
    delta = 0.5 * (r0 - r2) / np.where(refine, denom, -1.0)
    # Python's max(-0.5, min(0.5, delta)), which also sends NaN to 0.5
    delta = np.where(delta < 0.5, delta, 0.5)
    delta = np.where(delta > -0.5, delta, -0.5)
    value = np.where(refine, r1 - 0.25 * (r0 - r2) * delta, r1)
    lag = np.where(refine, lag + delta, lag)
    # math.log2, not np.log2: the two differ in the last bit for about one
    # value in a thousand, enough to flip a near tie
    octave = np.array([math.log2(v) for v in (lag / fs * config.floor).tolist()])
    strength = value - OCTAVE_COST * octave
    strength[np.isnan(strength)] = -np.inf  # NaN never wins a ">"

    # the first peak per row after a stable sort by row, strength descending
    order = np.lexsort((-strength, row))
    best = order[np.diff(row[order], prepend=-1) != 0]
    best = best[(strength[best] > -np.inf) & (value[best] >= VOICING_THRESHOLD)]
    return row[best], fs / lag[best]


def estimate_f0(wave: Wave, config: PitchConfig = PitchConfig()) -> F0Track:
    """Estimate an F0 track with one sample per ``TIME_STEP_S`` seconds.

    A frame is voiced iff its best autocorrelation peak reaches the voicing
    threshold and its RMS passes the relative gate; everything is
    normalized, so the result is invariant to rescaling the waveform.
    Frames are analysed ``BLOCK_FRAMES`` at a time; the result is the same
    as analysing each frame on its own.
    """
    config.validate(wave.sample_rate)
    fs = wave.sample_rate
    x = wave.samples
    frame_len = int(round(WINDOW_S * fs))
    if frame_len < 8 or x.size < frame_len:
        raise ComputeError(
            f"wave too short: {x.size} samples < one {WINDOW_S}s analysis window"
        )

    lag_min = max(2, math.ceil(fs / config.ceiling))
    lag_max = min(frame_len - 2, math.floor(fs / config.floor))
    if lag_max <= lag_min:
        raise ValidationError("pitch search range is empty for this window/rate")

    n_frames = int(math.floor((x.size - frame_len) / (TIME_STEP_S * fs))) + 1
    window = np.hanning(frame_len)

    fft_len = 1 << int(math.ceil(math.log2(2 * frame_len)))
    acf_win = _autocorrelation(window[None, :], fft_len, lag_max + 2)[0]
    acf_win = acf_win / acf_win[0]

    global_ms = float(np.mean(x * x))
    values = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)

    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)
    for b0 in range(0, n_frames, BLOCK_FRAMES):
        starts = range(b0, min(b0 + BLOCK_FRAMES, n_frames))
        block = frames[[int(round(i * TIME_STEP_S * fs)) for i in starts]]

        # A frame is skipped if its RMS fails the gate or its energy is not
        # positive; NaN fails neither test. A reduction along axis 1 sums
        # each contiguous row as a 1-D reduction would, but the energy's
        # np.dot stays per row: a batched product may sum in another order.
        frame_ms = np.mean(block * block, axis=1)
        windowed = (block - block.mean(axis=1, keepdims=True)) * window
        energy = np.array([np.dot(w, w) for w in windowed])
        live = ~(frame_ms < (RMS_GATE**2) * global_ms) & ~(energy <= 0.0)
        if global_ms <= 0.0 or not live.any():
            continue
        acf = _autocorrelation(windowed[live], fft_len, lag_max + 2)
        acf_ratio = (acf / energy[live][:, None]) / acf_win
        row, f0 = _best_peaks(acf_ratio, lag_min, lag_max, fs, config)
        rows = np.flatnonzero(live)[row] + b0
        values[rows] = f0
        voiced[rows] = True

    return F0Track(
        start_time=frame_len / (2.0 * fs),
        step=TIME_STEP_S,
        values=values,
        voiced=voiced,
    )
