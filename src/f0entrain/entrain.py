"""Entrainment measures over parameterized F0 contours.

For each imitation event, the imitator's and the model's per-word contours
are compared with dynamic time warping (Euclidean local cost on the 1-D
feature values, unnormalized path cost). ``compute_samples`` gives every
event's five distances as one ``(5, events)`` table, a row per feature; the
per-speaker measures are taken from that table:

* ``e_raw``  - mean DTW distance to the real partner across imitated
  utterances (larger = less entrained);
* ``e_opt``  - mean of the speaker's distances after corpus-wide
  per-feature outlier removal (Tukey fences) and z-transformation; None
  when every one of the speaker's distances falls outside the fences;
* partner / other distance - ``e_raw`` against the real partner vs. the
  average over surrogate (non-partner) pairings on the same utterance
  indices, same-sex pool by default; ``other_distance`` searches a
  speaker's surrogates once for all five features;
* inner-dyad distance - difference of the two partners' ``e_raw`` values
  divided by their mean; positive means the first member is less entrained.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from f0entrain.errors import ComputeError
from f0entrain.features import FEATURE_NAMES, TABLE_ROWS
from f0entrain.ingest import CorpusManifest
from f0entrain.quantiles import iqr_fences

ROLE_IMITATOR = "imitator"
ROLE_MODEL = "model"

RenditionKey = tuple[str, int, str]  # (speaker, utterance_index, role)


@dataclass(frozen=True, eq=False)
class ContourStore:
    """Every rendition's retained words in one read-only ``(7, N)`` float table.

    The table has a row per ``TABLE_ROWS`` name and a column per word: the
    word's start and end times in seconds, then its five features.
    ``spans`` maps each rendition's key, (speaker, utterance_index, role),
    in the order the renditions were added, to the offsets ``(lo, hi)`` of
    its columns; ``words`` holds each rendition's word texts in the same
    order, equal texts sharing one ``str``. Looking a rendition up gives its
    ``(5, n)`` feature block, a view whose row f is the contour of
    ``FEATURE_NAMES[f]``; nothing is copied.
    """

    spans: dict[RenditionKey, tuple[int, int]]
    words: Sequence[tuple[str, ...]]
    table: np.ndarray

    def __getitem__(self, key: RenditionKey) -> np.ndarray:
        lo, hi = self.spans[key]
        return self.table[2:, lo:hi]


class ContourStoreBuilder:
    """Adds renditions to a ContourStore one at a time.

    Each word's seven values are appended to one growing float buffer,
    word after word, and ``build`` wraps that buffer as the store's table
    without copying it: the table's rows are strided views of the buffer.
    """

    def __init__(self):
        self._spans: dict[RenditionKey, tuple[int, int]] = {}
        self._words: list[tuple[str, ...]] = []
        self._values = array("d")
        self._texts: dict[str, str] = {}
        self._end = 0

    def add(self, key: RenditionKey, words: Sequence[str], table: np.ndarray) -> None:
        """Append a rendition's words and its ``(7, n)`` table of their values."""
        start, self._end = self._end, self._end + len(words)
        self._spans[key] = (start, self._end)
        self._words.append(tuple(self._texts.setdefault(w, w) for w in words))
        self._values.frombytes(table.T.tobytes())

    def build(self) -> ContourStore:
        """The store of every rendition added; the builder is spent."""
        table = np.frombuffer(self._values, dtype=np.float64).reshape(-1, len(TABLE_ROWS)).T
        table.flags.writeable = False
        return ContourStore(self._spans, self._words, table)


@dataclass(frozen=True)
class EntrainmentScore:
    speaker: str
    feature: str
    e_raw: float
    e_opt: float | None
    n_used: int
    e_opt_alt: float | None = None  # alternative normalization, when requested


@dataclass(frozen=True)
class PartnerOther:
    speaker: str
    feature: str
    partner_distance: float
    other_distance: float
    n_surrogates: int


@dataclass(frozen=True)
class DyadScore:
    dyad: tuple[str, str]
    feature: str
    inner_dyad: float


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Classic DTW cost between two non-empty 1-D sequences.

    Local cost |a_i - b_j|; diagonal, horizontal, and vertical steps each
    add one local cost; the path is boundary-to-boundary with no warping
    window; the total path cost is returned unnormalized (Sakoe & Chiba
    1978, full window). Takes lists of plain Python floats: for the short
    contours compared here (roughly 6-13 values), list indexing beats
    per-element numpy access by a wide margin.
    """
    n = len(a)
    m = len(b)
    if n == 0 or m == 0:
        raise ComputeError("dtw_distance requires non-empty sequences")

    b0 = b[0]
    a0 = a[0]
    prev = [0.0] * m
    prev[0] = a0 - b0 if a0 >= b0 else b0 - a0
    for j in range(1, m):
        bj = b[j]
        prev[j] = prev[j - 1] + (a0 - bj if a0 >= bj else bj - a0)
    for i in range(1, n):
        ai = a[i]
        cur = [0.0] * m
        cur[0] = prev[0] + (ai - b0 if ai >= b0 else b0 - ai)
        for j in range(1, m):
            best = prev[j - 1]
            pj = prev[j]
            if pj < best:
                best = pj
            cj = cur[j - 1]
            if cj < best:
                best = cj
            bj = b[j]
            cur[j] = best + (ai - bj if ai >= bj else bj - ai)
        prev = cur
    return prev[m - 1]


def compute_samples(manifest: CorpusManifest, contours: ContourStore) -> np.ndarray:
    """Read-only ``(5, events)`` table of DTW distances: a row per feature, a column
    per imitation event in manifest order."""
    table = np.empty((len(FEATURE_NAMES), len(manifest.utterances)))
    for e, rec in enumerate(manifest.utterances):
        # each block converted once for its five DTWs
        imit = contours[(rec.imitator, rec.index, ROLE_IMITATOR)].tolist()
        model = contours[(rec.model, rec.index, ROLE_MODEL)].tolist()
        table[:, e] = [dtw_distance(a, b) for a, b in zip(imit, model)]
    table.flags.writeable = False
    return table


class NormalizedSamples(NamedTuple):
    z: np.ndarray        # z-scores of the retained samples, input order
    kept: np.ndarray     # boolean mask over the input samples
    mean: float          # mean of the retained samples
    sd: float            # sample standard deviation (n-1) of the retained samples


def normalize_samples(values: Sequence[float] | np.ndarray) -> NormalizedSamples:
    """Outlier-filtered z-transform of a pooled sample set.

    Samples outside the Tukey fences [q25 - 1.5*IQR, q75 + 1.5*IQR] are
    dropped; the rest are z-scored with their mean and sample standard
    deviation (n-1 denominator). Requires >= 4 samples and non-degenerate
    spread after removal.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 4:
        raise ComputeError(f"normalization needs at least 4 samples, got {x.size}")
    lo, hi = iqr_fences(x)
    kept = (x >= lo) & (x <= hi)
    retained = x[kept]
    mean = float(retained.mean())
    sd = float(retained.std(ddof=1))
    if sd == 0.0:
        raise ComputeError("zero variance: all retained samples are equal")
    return NormalizedSamples((retained - mean) / sd, kept, mean, sd)


def other_distance(
    target: str,
    manifest: CorpusManifest,
    contours: ContourStore,
    pool: str = "same-sex",
) -> tuple[list[float], int]:
    """Average surrogate-pair distance of one speaker, per feature.

    Each non-partner in the pool is paired with the target on shared
    utterance indices: the target's imitation of index k against the
    candidate's model-role rendition of index k. Candidates with no index
    overlap are skipped. Returns (mean over candidates of each feature, in
    ``FEATURE_NAMES`` order, candidate count).
    """
    if pool not in ("same-sex", "all"):
        raise ValueError(f"unknown surrogate pool policy {pool!r}")
    partner = manifest.partner_of(target)
    target_sex = manifest.speaker(target).sex
    indices = sorted({rec.index for rec in manifest.utterances if rec.imitator == target})
    if not indices:
        raise ComputeError(f"speaker {target!r} imitates no utterance")
    # each imitation's five contours, converted once for all its DTWs
    imitated = {k: contours[(target, k, ROLE_IMITATOR)].tolist() for k in indices}

    candidates = []
    for s in manifest.speakers:
        if s.id in (target, partner):
            continue
        if pool == "same-sex" and (s.sex is None or s.sex != target_sex):
            continue
        candidates.append(s.id)
    if not candidates:
        if pool == "all":
            hint = "the corpus needs two dyads"
        elif target_sex is None:
            hint = f"speaker {target!r} has no sex in the manifest; pass --surrogate-pool all"
        else:
            hint = "the corpus needs two same-sex dyads, or pass --surrogate-pool all"
        raise ComputeError(f"empty surrogate pool for speaker {target!r} (pool={pool}): {hint}")

    per_candidate = []  # each usable candidate's mean distance per feature
    for cand in candidates:
        distances = []  # the five distances of each shared index, in index order
        for k, imit in imitated.items():
            key = (cand, k, ROLE_MODEL)
            if key in contours.spans:
                model = contours[key].tolist()
                distances.append([dtw_distance(a, b) for a, b in zip(imit, model)])
        if distances:
            per_candidate.append([float(np.mean(column)) for column in zip(*distances)])
    if not per_candidate:
        raise ComputeError(
            f"no surrogate candidate shares utterance indices with speaker {target!r}"
        )
    return [float(np.mean(column)) for column in zip(*per_candidate)], len(per_candidate)


def inner_dyad_distance(a_score: float, b_score: float) -> float:
    """(E_A - E_B) / mean(E_A, E_B); positive means A is less entrained.

    Defined as 0 when both scores are 0 (perfect mutual imitation).
    """
    mean = (a_score + b_score) / 2.0
    if mean == 0.0:
        if a_score == 0.0 and b_score == 0.0:
            return 0.0
        raise ComputeError("inner-dyad distance undefined: scores average to zero")
    return (a_score - b_score) / mean


@dataclass(frozen=True, eq=False)
class CorpusMeasurement:
    """Every entrainment measure of a corpus: ``compute_samples``'s ``(5, events)``
    distance table, then the scores by speaker (dyads in manifest order) and feature."""

    samples: np.ndarray
    speaker_scores: tuple[EntrainmentScore, ...]
    partner_other: tuple[PartnerOther, ...]
    dyad_scores: tuple[DyadScore, ...]

    def table(self, measure: str) -> dict[str, dict[str, float]]:
        """Each speaker's ``measure`` ("e_raw" or "e_opt") by feature; a None e_opt is left out."""
        table: dict[str, dict[str, float]] = {}
        for s in self.speaker_scores:
            value = getattr(s, measure)
            if value is not None:
                table.setdefault(s.speaker, {})[s.feature] = value
        return table


def measure_corpus(
    manifest: CorpusManifest,
    contours: ContourStore,
    surrogate_pool: str = "same-sex",
    norm: str = "sd",
    norm_scope: str = "corpus",
    with_surrogates: bool = True,
    with_normalization: bool = True,
) -> CorpusMeasurement:
    """All entrainment measures for a parameterized corpus.

    ``norm`` selects the z-transform divisor: sample standard deviation
    (``sd``, the default) or standard error of the mean (``se``); with
    ``se`` both variants are computed and the alternative is reported in
    ``EntrainmentScore.e_opt_alt``. ``norm_scope`` pools normalization
    statistics corpus-wide (default) or per speaker. A speaker whose
    samples of a feature all fall outside the pool's fences gets ``e_opt``
    None and ``n_used`` 0 for it. ``with_normalization=False`` skips the
    z-transform (``e_opt`` comes back None), which is needed for
    degenerate corpora such as perfect imitation where every distance is
    zero.
    """
    if norm not in ("sd", "se"):
        raise ValueError(f"unknown normalization mode {norm!r}")
    if norm_scope not in ("corpus", "speaker"):
        raise ValueError(f"unknown normalization scope {norm_scope!r}")
    samples = compute_samples(manifest, contours)
    speakers = sorted({rec.imitator for rec in manifest.utterances})
    imitators = np.array([rec.imitator for rec in manifest.utterances])
    corpus_norms = []
    if with_normalization and norm_scope == "corpus":
        corpus_norms = [normalize_samples(row) for row in samples]

    scores: list[EntrainmentScore] = []
    for speaker in speakers:
        own = imitators == speaker
        for f, feature in enumerate(FEATURE_NAMES):
            mine = samples[f][own]
            e_opt = e_opt_alt = None
            n_used = mine.size
            if with_normalization:
                # the pool is the speaker's own samples or the whole row;
                # ``owner`` marks the speaker's samples within the pool
                if norm_scope == "speaker":
                    normed, owner = normalize_samples(mine), np.ones(mine.size, dtype=bool)
                else:
                    normed, owner = corpus_norms[f], own
                n_used = int(np.count_nonzero(normed.kept & owner))
                if n_used:
                    e_opt = float(normed.z[owner[normed.kept]].mean())
                    if norm == "se":
                        # the SE-of-mean divisor rescales every z-score by sqrt(n) of the pool
                        e_opt_alt = e_opt * float(np.sqrt(np.count_nonzero(normed.kept)))
            scores.append(
                EntrainmentScore(speaker, feature, float(np.mean(mine)), e_opt, n_used, e_opt_alt)
            )

    raw = {(s.speaker, s.feature): s.e_raw for s in scores}
    # every speaker's normalization comes before any surrogate search, so
    # an error of the former is the one reported
    partner_other: list[PartnerOther] = []
    if with_surrogates:
        for speaker in speakers:
            others, n_sur = other_distance(speaker, manifest, contours, pool=surrogate_pool)
            partner_other.extend(
                PartnerOther(speaker, feature, raw[(speaker, feature)], other, n_sur)
                for feature, other in zip(FEATURE_NAMES, others)
            )

    dyad_scores = []
    for a, b in manifest.dyads:
        for feature in FEATURE_NAMES:
            if (a, feature) in raw and (b, feature) in raw:
                inner = inner_dyad_distance(raw[(a, feature)], raw[(b, feature)])
                dyad_scores.append(DyadScore((a, b), feature, inner))

    return CorpusMeasurement(samples, tuple(scores), tuple(partner_other), tuple(dyad_scores))
