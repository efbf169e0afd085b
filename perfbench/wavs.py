#!/usr/bin/env python3
"""Render a synth corpus's F0 tracks as WAV files.

Usage: ``python3 perfbench/wavs.py CORPUS_DIR``; prints the seconds of
audio written. It runs as its own process so that the benchmark process
never imports numpy: a child's peak RSS from ``wait4`` starts at its
parent's, so a large parent would hide gains in ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import sys
import wave
from pathlib import Path

import numpy as np

WAV_RATE = 16000
WAV_AMPLITUDE = 0.4


def render_wavs(corpus: Path) -> float:
    """Render every F0 track of the corpus as a 16 kHz sine; returns seconds.

    Writes ``wav/<name>.wav`` per ``f0/<name>.csv`` and ``manifest_wav.json``
    pointing at them. Unvoiced samples, if any, become silence.
    """
    (corpus / "wav").mkdir()
    total = 0.0
    for csv_path in sorted((corpus / "f0").glob("*.csv")):
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        times, f0 = data[:, 0], data[:, 1]
        step = times[1] - times[0]
        n = int(round((times[-1] + step) * WAV_RATE))
        t = np.arange(n) / WAV_RATE
        inst = np.interp(t, times, f0)
        phase = 2.0 * np.pi * np.cumsum(inst) / WAV_RATE
        signal = np.where(inst > 0.0, WAV_AMPLITUDE * np.sin(phase), 0.0)
        pcm = np.round(signal * 32767.0).astype("<i2")
        with wave.open(str(corpus / "wav" / (csv_path.stem + ".wav")), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(WAV_RATE)
            fh.writeframes(pcm.tobytes())
        total += n / WAV_RATE
    doc = json.loads((corpus / "manifest.json").read_text())
    for rec in doc["utterances"]:
        for key in ("imitator_f0", "model_f0"):
            rec[key] = "wav/" + Path(rec[key]).stem + ".wav"
    (corpus / "manifest_wav.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return total


if __name__ == "__main__":
    print(render_wavs(Path(sys.argv[1])))
