"""Synthetic imitation corpora with controllable ground-truth entrainment.

The generative model mirrors the first-order parameterization's expressive
power: each model utterance is a concatenation of per-word linear F0 ramps
whose levels and rises are drawn from the speaker's base register, and
each imitation reuses the model's per-word parameters perturbed by
zero-mean noise of amplitude ``noise_eps`` (scaled to each parameter's
natural spread, applied in parameter space). With ``noise_eps = 0`` the
imitation files are byte-identical to the model files, so the measured
entrainment distance is exactly zero.

Every utterance index is read in both directions within a dyad, so each
speaker contributes ``n_utterances`` imitations and ``n_utterances``
model renditions, and every non-partner is a usable surrogate at every
index. Word counts are drawn once per index and shared across dyads,
mimicking a corpus where all pairs read the same text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from f0entrain.errors import ComputeError
from f0entrain.ingest import CRITERIA, ScoreRow, write_f0_csv
from f0entrain.types import F0Track

STEP_S = 0.01
WORD_DURATION_RANGE_S = (0.15, 0.35)
MID_SPREAD_HZ = 25.0      # word level offset around the speaker's base
RISE_SPREAD_HZ = 35.0     # within-word rise/fall
NOISE_MID_HZ = 6.0        # imitation level noise per unit of noise_eps
NOISE_RISE_HZ = 8.0       # imitation rise noise per unit of noise_eps
F0_FLOOR_HZ = 1.0
BASE_F0_RANGE_HZ = (100.0, 250.0)   # each speaker's register is drawn from it
L1_CYCLE = ("it", "fr", "sk")

SCORE_CENTER = 3.0
SCORE_AMPLITUDE = 0.45    # scale of the entrainment-coupled score component
N_RATERS = 6
SCORE_FEATURE = "mean"    # the feature whose e_raw the scores follow


@dataclass(frozen=True)
class SynthConfig:
    n_dyads: int
    n_utterances: int
    noise_eps: float = 0.0
    words_min: int = 6
    words_max: int = 13
    seed: int = 0

    def __post_init__(self):
        if self.n_dyads < 1 or self.n_utterances < 1:
            raise ValueError("n_dyads and n_utterances must be >= 1")
        if self.noise_eps < 0:
            raise ValueError(f"noise_eps must be >= 0, got {self.noise_eps}")
        if not 1 <= self.words_min <= self.words_max:
            raise ValueError(f"invalid word count range {self.words_min}..{self.words_max}")


def _synthesize(durations: np.ndarray, mids: np.ndarray, rises: np.ndarray):
    """Concatenated per-word linear ramps sampled every STEP_S seconds."""
    boundaries = np.concatenate([[0.0], np.cumsum(durations)])
    total = boundaries[-1]
    n = int(np.ceil((total - 1e-9) / STEP_S))
    t = STEP_S * np.arange(n)
    word = np.searchsorted(boundaries, t, side="right") - 1
    t_rel = (t - boundaries[word]) / durations[word]
    values = mids[word] + rises[word] * (t_rel - 0.5)
    return np.maximum(values, F0_FLOOR_HZ), boundaries


def _align_text(index: int, boundaries: np.ndarray) -> str:
    words = [
        {
            "word": f"t{index}w{j}",
            "start": round(float(boundaries[j]), 6),
            "end": round(float(boundaries[j + 1]), 6),
        }
        for j in range(len(boundaries) - 1)
    ]
    return json.dumps({"segments": [{"words": words}]})


def gen_corpus(config: SynthConfig, out_dir: str | Path) -> Path:
    """Generate a corpus on disk; returns the manifest path.

    Deterministic given the seed: equal seeds produce byte-identical
    corpora, and corpora differing only in ``noise_eps`` share the same
    underlying model renditions (the random stream is consumed
    identically, with the noise amplitude applied as a factor).
    """
    out = Path(out_dir)
    (out / "f0").mkdir(parents=True, exist_ok=True)
    (out / "align").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    n_speakers = 2 * config.n_dyads
    speaker_ids = [f"S{i:02d}" for i in range(n_speakers)]
    bases = rng.uniform(*BASE_F0_RANGE_HZ, size=n_speakers)
    words_per_index = rng.integers(
        config.words_min, config.words_max + 1, size=config.n_utterances
    )

    speakers = [
        {
            "id": speaker_ids[i],
            "sex": "M" if (i // 2) % 2 == 0 else "F",
            "l1": L1_CYCLE[(i // 2) % len(L1_CYCLE)],
        }
        for i in range(n_speakers)
    ]
    dyads = [[speaker_ids[2 * d], speaker_ids[2 * d + 1]] for d in range(config.n_dyads)]

    utterances = []
    for d in range(config.n_dyads):
        pair = (speaker_ids[2 * d], speaker_ids[2 * d + 1])
        pair_base = (bases[2 * d], bases[2 * d + 1])
        for k in range(config.n_utterances):
            w = int(words_per_index[k])
            for direction in (0, 1):
                model_id = pair[1 - direction]
                imit_id = pair[direction]
                durations = rng.uniform(*WORD_DURATION_RANGE_S, size=w)
                mids = pair_base[1 - direction] + rng.uniform(
                    -MID_SPREAD_HZ, MID_SPREAD_HZ, size=w
                )
                rises = rng.uniform(-RISE_SPREAD_HZ, RISE_SPREAD_HZ, size=w)
                noise_mid = rng.uniform(-NOISE_MID_HZ, NOISE_MID_HZ, size=w)
                noise_rise = rng.uniform(-NOISE_RISE_HZ, NOISE_RISE_HZ, size=w)

                model_values, boundaries = _synthesize(durations, mids, rises)
                imit_values, _ = _synthesize(
                    durations,
                    mids + config.noise_eps * noise_mid,
                    rises + config.noise_eps * noise_rise,
                )

                names = {
                    "model_f0": f"f0/{model_id}_{k:03d}_model.csv",
                    "imitator_f0": f"f0/{imit_id}_{k:03d}_imit.csv",
                    "model_align": f"align/{model_id}_{k:03d}_model.json",
                    "imitator_align": f"align/{imit_id}_{k:03d}_imit.json",
                }
                write_f0_csv(F0Track(0.0, STEP_S, model_values), out / names["model_f0"])
                write_f0_csv(F0Track(0.0, STEP_S, imit_values), out / names["imitator_f0"])
                align = _align_text(k, boundaries)  # both renditions share the words
                (out / names["model_align"]).write_text(align, encoding="utf-8")
                (out / names["imitator_align"]).write_text(align, encoding="utf-8")
                utterances.append({"index": k, "imitator": imit_id, "model": model_id, **names})

    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {"speakers": speakers, "dyads": dyads, "utterances": utterances},
            indent=1,
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    return manifest_path


def check_score_options(coupling: float, noise: float, n_speakers: int) -> None:
    """Raise ValueError unless ``gen_scores`` accepts this coupling and noise
    for ``n_speakers`` speakers."""
    if not -1.0 <= coupling <= 1.0:
        raise ValueError(f"coupling must be in [-1, 1], got {coupling}")
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    if noise > 0 and abs(coupling) < 1.0 and n_speakers < 3:
        raise ValueError(
            f"coupling {coupling} with noise {noise} needs 3 or more speakers, got "
            f"{n_speakers}: with 2, every mean-zero score component orthogonal to e_raw "
            "is zero (use 2 or more dyads, noise 0, or coupling -1 or 1)"
        )


def gen_scores(
    e_raw_by_speaker: Mapping[str, float],
    coupling: float,
    noise: float,
    seed: int,
) -> list[ScoreRow]:
    """Proficiency scores coupled to per-speaker entrainment distances.

    The speaker-level score component is an affine function of the
    standardized ``e_raw`` values mixed with an orthogonal complement so
    that its in-sample correlation with ``e_raw`` equals ``coupling``
    exactly; ``noise`` adds independent per-rater jitter on top. With
    ``noise = 0`` the complement is disabled and scores are a
    deterministic affine function of entrainment (constant when
    ``coupling = 0``), which exercises the degenerate correlation paths.
    """
    check_score_options(coupling, noise, len(e_raw_by_speaker))
    speakers = sorted(e_raw_by_speaker)
    x = np.array([e_raw_by_speaker[s] for s in speakers], dtype=np.float64)
    sd = x.std()
    if sd == 0.0:
        raise ComputeError("degenerate entrainment spread: all e_raw values are equal")
    z = (x - x.mean()) / sd

    rng = np.random.default_rng(seed)
    if noise > 0 and abs(coupling) < 1.0:
        g = rng.standard_normal(len(speakers))
        g = g - g.mean()
        g = g - (np.dot(g, z) / np.dot(z, z)) * z  # orthogonal to z
        g_sd = g.std()
        if g_sd == 0.0:
            raise ComputeError("degenerate complement draw; use a different seed")
        latent = coupling * z + np.sqrt(1.0 - coupling**2) * (g / g_sd)
    else:
        latent = coupling * z
    base = SCORE_CENTER + SCORE_AMPLITUDE * latent

    rows = []
    for i, speaker in enumerate(speakers):
        for r in range(N_RATERS):
            jitter = noise * rng.standard_normal(len(CRITERIA))
            scores = np.clip(base[i] + jitter, 1.0, 5.0)
            rows.append(
                ScoreRow(
                    speaker=speaker,
                    rater=f"R{r:02d}",
                    pronunciation=float(scores[0]),
                    intonation=float(scores[1]),
                    fluency=float(scores[2]),
                    overall=float(scores[3]),
                )
            )
    return rows
