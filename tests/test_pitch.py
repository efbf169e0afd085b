import math
import wave as wave_io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain import pitch
from f0entrain.errors import ComputeError, ParseError, ValidationError
from f0entrain.pitch import PitchConfig, Wave, estimate_f0, read_wav

from conftest import write_wav
from oracles import estimate_f0_by_frames

FS = 16000


def sine(freq, seconds=1.0, amp=0.4, fs=FS):
    t = np.arange(int(fs * seconds)) / fs
    return Wave(fs, amp * np.sin(2 * np.pi * freq * t))


# ---------------------------------------------------------------------------
# WAV input


def test_read_mono_duration(tmp_path):
    path = tmp_path / "tone.wav"
    write_wav(path, sine(200.0).samples, FS)
    wave = read_wav(path)
    assert wave.sample_rate == FS
    assert wave.samples.size == FS
    assert wave.samples.size / wave.sample_rate == pytest.approx(1.0)


def test_stereo_downmix_cancels(tmp_path):
    x = (np.sin(2 * np.pi * 150 * np.arange(FS) / FS) * 20000).astype("<i2")
    interleaved = np.empty(2 * x.size, dtype="<i2")
    interleaved[0::2] = x
    interleaved[1::2] = -x
    path = tmp_path / "stereo.wav"
    with wave_io.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(FS)
        fh.writeframes(interleaved.tobytes())
    wave = read_wav(path)
    assert np.all(wave.samples == 0.0)


def test_unsupported_sample_width(tmp_path):
    path = tmp_path / "deep.wav"
    with wave_io.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(3)  # 24-bit
        fh.setframerate(FS)
        fh.writeframes(b"\x00\x00\x00" * 100)
    with pytest.raises(ParseError, match="unsupported encoding"):
        read_wav(path)


def test_corrupt_header(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFFnonsense")
    with pytest.raises(ParseError, match="corrupt"):
        read_wav(path)


# ---------------------------------------------------------------------------
# F0 estimation


def test_pure_tone_within_one_hz():
    track = estimate_f0(sine(200.0))
    assert not np.isnan(track.values).any()
    assert np.max(np.abs(track.values - 200.0)) <= 1.0
    assert track.step == pytest.approx(0.01)
    assert track.start_time == pytest.approx(0.02)  # centered 40 ms window


def test_silence_unvoiced():
    track = estimate_f0(Wave(FS, np.zeros(FS)))
    assert np.isnan(track.values).all()
    assert len(track) > 0


def test_below_floor_unvoiced():
    track = estimate_f0(sine(50.0))
    assert np.isnan(track.values).all()


def test_sweep_100_to_400_hz():
    for freq in np.linspace(100, 400, 16):
        track = estimate_f0(sine(float(freq)))
        voiced = track.values[~np.isnan(track.values)]
        assert voiced.size > 0, freq
        assert np.max(np.abs(voiced - freq)) <= 1.0, freq


def test_scale_invariance_is_exact():
    loud = sine(220.0)
    quiet = Wave(FS, 0.5 * loud.samples)
    t_loud = estimate_f0(loud)
    t_quiet = estimate_f0(quiet)
    assert np.array_equal(np.isnan(t_loud.values), np.isnan(t_quiet.values))
    assert np.array_equal(t_loud.values, t_quiet.values, equal_nan=True)


def test_integer_step_time_shift():
    base = sine(180.0, seconds=0.6)
    shift_steps = 3
    pad = np.zeros(int(FS * 0.01) * shift_steps)
    shifted = Wave(FS, np.concatenate([pad, base.samples]))
    t0 = estimate_f0(base)
    t1 = estimate_f0(shifted)
    v0 = t0.values[10:30]
    v1 = t1.values[10 + shift_steps : 30 + shift_steps]
    assert np.allclose(v0, v1, atol=1e-6)


def test_too_short_rejected():
    with pytest.raises(ComputeError, match="too short"):
        estimate_f0(Wave(FS, np.zeros(100)))


def test_config_validation():
    with pytest.raises(ValidationError, match="floor=700, ceiling=600"):
        PitchConfig(floor=700, ceiling=600)
    with pytest.raises(
        ValidationError, match="need pitch ceiling < sample_rate/2, got ceiling=9000, rate=16000"
    ):
        estimate_f0(sine(200.0), PitchConfig(floor=75, ceiling=9000))


def test_voicing_threshold_gates_noise(rng):
    noise = Wave(FS, rng.uniform(-0.3, 0.3, FS))
    track = estimate_f0(noise)
    # white noise has weak normalized autocorrelation peaks
    assert (~np.isnan(track.values)).mean() < 0.5


@pytest.mark.parametrize("fs", [8000.0, 16000.0, 22050.0, 44100.0])
@pytest.mark.parametrize("floor", [50.0, 75.0, 100.0])
def test_autocorrelation_has_no_wrap_at_the_lags_read(fs, floor):
    # rows with a DC offset: a wrapped lag would add a term of the order of lag 0
    frame_len = int(round(pitch.WINDOW_S * fs))
    lag_max = min(frame_len - 2, math.floor(fs / floor))
    n_lags = lag_max + 2
    rows = np.random.default_rng(int(fs + floor)).uniform(0.0, 1.0, (3, frame_len))
    got = pitch._autocorrelation(rows, n_lags)
    assert got.shape == (3, n_lags)
    for row, acf in zip(rows, got):
        direct = np.array([np.dot(row[: frame_len - k], row[k:]) for k in range(n_lags)])
        assert np.max(np.abs(acf - direct)) <= 1e-12 * direct[0]


@pytest.mark.parametrize("fs, fft_len", [(8000.0, 512), (16000.0, 1024), (44100.0, 4096)])
def test_fft_length_covers_only_the_lags_read(fs, fft_len):
    lengths = []
    rfft = np.fft.rfft

    def spy(a, n=None, axis=-1):
        lengths.append(n)
        return rfft(a, n, axis=axis)

    with mock.patch.object(np.fft, "rfft", spy):
        estimate_f0(sine(200.0, seconds=0.2, fs=fs))
    assert set(lengths) == {fft_len}


# ---------------------------------------------------------------------------
# the block tracker against the frame-by-frame reference


def _same_track(got, want):
    assert got.start_time == want.start_time
    assert got.step == want.step
    assert got.values.tobytes() == want.values.tobytes()  # NaN where unvoiced
    assert np.isnan(got.values).tobytes() == np.isnan(want.values).tobytes()


@st.composite
def pitch_cases(draw):
    """(wave, config, block size) for a short signal of a known frame count.

    Sines with vibrato plus noise and a DC offset, with silent gaps that
    fail the RMS gate, or all-zero input; frame counts around the block
    size; 8, 16 and 44.1 kHz; default or drawn pitch floor and ceiling.
    """
    block = draw(st.sampled_from([pitch.BLOCK_FRAMES, 1, 7]))
    fs = draw(st.sampled_from([8000.0, 16000.0, 44100.0]))
    config = PitchConfig()
    if draw(st.booleans()):
        floor = draw(st.floats(50.0, 150.0))
        config = PitchConfig(floor=floor, ceiling=draw(st.floats(floor + 100.0, 0.45 * fs)))
    n_frames = draw(st.one_of(
        st.sampled_from([1, max(1, block - 1), block, block + 1]),
        st.integers(1, 3 * block + 2),
    ))
    frame_len = int(round(pitch.WINDOW_S * fs))
    hop = int(round(pitch.TIME_STEP_S * fs))
    n = frame_len + (n_frames - 1) * hop + draw(st.integers(0, hop - 1))
    t = np.arange(n) / fs
    kind = draw(st.sampled_from(["voice", "voice", "voice", "noise", "zeros"]))
    x = np.zeros(n)
    if kind != "zeros":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "voice":
            f0 = draw(st.floats(60.0, 500.0)) * (
                1.0 + draw(st.floats(0.0, 0.2)) * np.sin(2 * np.pi * draw(st.floats(1.0, 8.0)) * t)
            )
            x = draw(st.floats(0.01, 0.9)) * np.sin(2 * np.pi * np.cumsum(f0) / fs)
        x = x + draw(st.floats(0.0, 0.5)) * rng.standard_normal(n) + draw(st.floats(-0.5, 0.5))
        for _ in range(draw(st.integers(0, 2))):
            start = draw(st.integers(0, n - 1))
            x[start : start + draw(st.integers(1, 4 * hop))] = 0.0
    return Wave(fs, x), config, block


@settings(max_examples=150, deadline=None)
@given(pitch_cases())
def test_block_tracker_matches_frame_by_frame(case):
    wave, config, block = case
    want = estimate_f0_by_frames(wave, config)
    with mock.patch.object(pitch, "BLOCK_FRAMES", block):
        got = estimate_f0(wave, config)
    assert len(got) == len(want)
    _same_track(got, want)
