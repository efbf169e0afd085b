import copy
import json
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

import f0entrain
from f0entrain.features import FEATURE_NAMES, parameterize_utterance
from f0entrain.types import F0Track, WordSpan

# the directory that holds the f0entrain package this process imported
PACKAGE_ROOT = str(Path(f0entrain.__file__).resolve().parents[1])


def run_cli(*args, cwd=None, env_extra=None):
    """Run ``python -m f0entrain.cli`` in a fresh interpreter process."""
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "f0entrain.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


WAV_RATE = 16000
WAV_AMPLITUDE = 0.4


def write_wav(path: Path, signal: np.ndarray, rate: int = WAV_RATE) -> None:
    """Write ``signal``, scaled to [-1, 1], as a mono 16-bit PCM WAV."""
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(np.round(signal * 32767.0).astype("<i2").tobytes())


def render_wavs(corpus: Path) -> None:
    """Render every F0 track of a synth corpus as a 16 kHz sine.

    Writes ``wav/<name>.wav`` per ``f0/<name>.csv`` and ``manifest_wav.json``
    pointing at them; unvoiced samples become silence. The same rendering
    as the benchmark's ``perfbench/wavs.py``, kept here so the suite does
    not depend on the benchmark.
    """
    (corpus / "wav").mkdir()
    for csv_path in sorted((corpus / "f0").glob("*.csv")):
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        times, f0 = data[:, 0], data[:, 1]
        step = times[1] - times[0]
        n = int(round((times[-1] + step) * WAV_RATE))
        t = np.arange(n) / WAV_RATE
        inst = np.interp(t, times, f0)
        phase = 2.0 * np.pi * np.cumsum(inst) / WAV_RATE
        signal = np.where(inst > 0.0, WAV_AMPLITUDE * np.sin(phase), 0.0)
        write_wav(corpus / "wav" / (csv_path.stem + ".wav"), signal)
    doc = json.loads((corpus / "manifest.json").read_text())
    for rec in doc["utterances"]:
        for key in ("imitator_f0", "model_f0"):
            rec[key] = "wav/" + Path(rec[key]).stem + ".wav"
    (corpus / "manifest_wav.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def nudge_f0_byte(path: Path) -> None:
    """Change one digit of the last F0 value in an F0 CSV; the file stays valid."""
    raw = bytearray(path.read_bytes())
    i = len(raw) - 2  # the last character of the last row
    assert chr(raw[i]).isdigit(), "the last sample must be voiced"
    raw[i] = ord("1") if raw[i] == ord("0") else raw[i] - 1
    path.write_bytes(bytes(raw))


def make_track(values, voiced=None, start=0.0, step=0.01) -> F0Track:
    values = np.asarray(values, dtype=float)
    if voiced is None:
        voiced = np.ones(values.size, dtype=bool)
    return F0Track(start_time=start, step=step, values=values, voiced=np.asarray(voiced, bool))


def one_word_features(segment: F0Track) -> dict[str, float] | None:
    """The features, by name, of one word spanning every sample of ``segment``.

    They come from ``parameterize_utterance``, as in a run, so a word with
    fewer than 2 samples is dropped: the result is then None.
    """
    span = WordSpan("w", segment.start_time, segment.start_time + len(segment) * segment.step)
    utt, _ = parameterize_utterance(segment, [span], "S", 0)
    return dict(zip(FEATURE_NAMES, utt.table[2:, 0].tolist())) if utt.words else None


def minimal_manifest_doc() -> dict:
    """Two speakers, one dyad, two utterance records (smallest legal corpus)."""
    return {
        "speakers": [{"id": "A", "sex": "F", "l1": "fr"}, {"id": "B", "sex": "F", "l1": "fr"}],
        "dyads": [["A", "B"]],
        "utterances": [
            {
                "index": 0,
                "imitator": "A",
                "model": "B",
                "imitator_f0": "f0/A_0.csv",
                "model_f0": "f0/B_0.csv",
                "imitator_align": "align/A_0.json",
                "model_align": "align/B_0.json",
            },
            {
                "index": 0,
                "imitator": "B",
                "model": "A",
                "imitator_f0": "f0/B_0b.csv",
                "model_f0": "f0/A_0b.csv",
                "imitator_align": "align/B_0b.json",
                "model_align": "align/A_0b.json",
            },
        ],
    }


def write_manifest_doc(doc: dict, tmp_path: Path) -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value at a random depth replaced by an arbitrary JSON value."""
    doc = node = copy.deepcopy(doc)
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(JSON_VALUES)
        return doc


def json_files(doc):
    """Bytes of a JSON file: ``doc`` mutated (NaN and Infinity included), or any bytes."""
    return st.one_of(
        mutated(doc).map(lambda d: json.dumps(d).encode()),
        st.binary(max_size=80),
        st.text(max_size=80).map(str.encode),
    )
