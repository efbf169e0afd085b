"""Malformed input, one corrupted file at a time.

Each case corrupts one F0 CSV, alignment or WAV of a small synth corpus and
runs ``run`` in a fresh interpreter: the run must exit 1 with one stderr line
``error: <that file>...``, print no traceback and create no ``--out``
directory. Well-formed but degenerate input (an all-unvoiced track, an
untimed alignment) is a different contract and is tested where it is
handled.
"""

from __future__ import annotations

import json
import math
import shutil

import numpy as np
import pytest

from f0entrain import synth

from conftest import render_wavs, run_cli, write_wav

F0 = "f0/S02_001_imit.csv"
ALIGN = "align/S02_001_imit.json"


@pytest.fixture(scope="module")
def stress_corpus(tmp_path_factory):
    """Four dyads with two texts each, from F0 CSVs."""
    root = tmp_path_factory.mktemp("stress")
    synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5, seed=7), root)
    return root


def f0_row(row: int, edit):
    """A corruptor that rewrites data row ``row`` (1 = first) of an F0 CSV as edit(time, f0)."""

    def corrupt(raw: bytes) -> bytes:
        lines = raw.decode().split("\n")
        time, f0 = lines[row].split(",")
        lines[row] = edit(time, f0)
        return "\n".join(lines).encode()

    return corrupt


def alignment_word(k: int, key: str, value):
    """A corruptor that sets ``key`` of word ``k`` of an alignment to value(word)."""

    def corrupt(raw: bytes) -> bytes:
        doc = json.loads(raw)
        word = doc["segments"][0]["words"][k]
        word[key] = value(word)
        return json.dumps(doc).encode()  # an infinite time is written as Infinity

    return corrupt


CASES = {
    "f0-three-fields": (F0, f0_row(3, lambda t, f: f"{t},{f},1")),
    "f0-non-numeric": (F0, f0_row(3, lambda t, f: f"{t},abc")),
    "f0-negative": (F0, f0_row(3, lambda t, f: f"{t},-{f}")),
    "f0-non-uniform-time": (F0, f0_row(3, lambda t, f: f"{float(t) + 0.004:.6f},{f}")),
    "f0-inf": (F0, f0_row(3, lambda t, f: f"{t},inf")),
    "f0-nan-time-row-1": (F0, f0_row(1, lambda t, f: f"nan,{f}")),
    "f0-nan-time-row-4": (F0, f0_row(4, lambda t, f: f"nan,{f}")),
    "f0-not-utf8": (F0, lambda raw: raw.replace(b"0.03", b"0.0\xff", 1)),
    "align-not-json": (ALIGN, lambda raw: raw[: len(raw) // 2]),
    "align-non-finite-time": (ALIGN, alignment_word(1, "end", lambda w: math.inf)),
    "align-overlapping-words": (ALIGN, alignment_word(1, "start", lambda w: w["start"] - 0.05)),
    "align-end-before-start": (ALIGN, alignment_word(2, "end", lambda w: w["start"] - 0.01)),
    "align-not-utf8": (ALIGN, lambda raw: raw.replace(b'"word": "', b'"word": "\xff', 1)),
    # json.dumps writes the lone surrogate as the escape "\ud800"
    "align-lone-surrogate": (ALIGN, alignment_word(1, "word", lambda w: "\ud800x")),
    "manifest-lone-surrogate": ("manifest.json", lambda raw: raw.replace(b'"S02"', b'"S\\ud800"')),
}


def assert_exits_1_naming(res, path, out):
    assert res.returncode == 1, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith(f"error: {path}"), res.stderr
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n"), res.stderr
    assert not out.exists()


@pytest.mark.parametrize("name, corrupt", CASES.values(), ids=CASES.keys())
def test_malformed_file_exits_1_naming_it(stress_corpus, tmp_path, name, corrupt):
    corpus_dir = shutil.copytree(stress_corpus, tmp_path / "c")
    path = corpus_dir / name
    path.write_bytes(corrupt(path.read_bytes()))
    out = tmp_path / "r"

    res = run_cli("run", "--manifest", corpus_dir / "manifest.json", "--out", out)

    assert_exits_1_naming(res, path, out)


@pytest.fixture(scope="module")
def stress_wav_corpus(stress_corpus, tmp_path_factory):
    """The stress corpus as 16 kHz WAVs, with no F0 cache."""
    root = shutil.copytree(stress_corpus, tmp_path_factory.mktemp("stress_wav") / "c")
    render_wavs(root)
    return root


# a cold --from-wav run reads and tracks every WAV; these fail one or the other
WAV_CASES = {
    "wav-100-samples": (lambda p: write_wav(p, np.full(100, 0.4), 16000), "wave too short"),
    "wav-1-khz": (lambda p: write_wav(p, np.full(1000, 0.4), 1000), "need pitch ceiling"),
    "wav-corrupt-header": (lambda p: p.write_bytes(b"RIFFnonsense"), "corrupt"),
}


@pytest.mark.parametrize("write, message", WAV_CASES.values(), ids=WAV_CASES.keys())
def test_untrackable_wav_exits_1_naming_it(stress_wav_corpus, tmp_path, write, message):
    corpus_dir = shutil.copytree(stress_wav_corpus, tmp_path / "c")
    path = corpus_dir / "wav" / "S02_001_imit.wav"
    write(path)
    out = tmp_path / "r"

    res = run_cli("run", "--manifest", corpus_dir / "manifest_wav.json", "--from-wav",
                  "--out", out)

    assert_exits_1_naming(res, path, out)
    assert res.stderr.startswith(f"error: {path}: {message}"), res.stderr
