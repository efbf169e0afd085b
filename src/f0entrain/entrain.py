"""Entrainment measures over parameterized F0 contours.

A ``ContourStore`` holds every rendition's contours, addressed by rendition
number: rendition 2e is imitation event e's imitation and 2e + 1 its model.
For each event, the two per-word contours are compared with dynamic time
warping (Euclidean local cost on the 1-D feature values, unnormalized path
cost). ``compute_samples`` gives every event's five distances as one
``(5, events)`` table, a row per feature; ``measure_corpus`` takes the
per-speaker measures from that table, each a ``(speakers, 5)`` array:

* ``e_raw``  - mean DTW distance to the real partner across imitated
  utterances (larger = less entrained);
* ``e_opt``  - mean of the speaker's distances after corpus-wide
  per-feature outlier removal (Tukey fences) and z-transformation; NaN
  when every one of the speaker's distances falls outside the fences;
* partner / other distance - ``e_raw`` against the real partner vs. the
  average over surrogate (non-partner) pairings on the same utterance
  indices, same-sex pool by default; ``other_distance`` searches a
  speaker's surrogates once for all five features;
* inner-dyad distance - difference of the two partners' ``e_raw`` values
  divided by their mean; positive means the first member is less entrained.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from f0entrain.errors import ComputeError, prefixed
from f0entrain.features import FEATURE_NAMES, TABLE_ROWS
from f0entrain.ingest import CorpusManifest
from f0entrain.quantiles import iqr_fences


@dataclass(frozen=True, eq=False)
class ContourStore:
    """Every rendition's retained words in one read-only ``(7, N)`` float table.

    Renditions are numbered in the order they were added: a corpus adds
    them in manifest order, imitator before model. The table has a row per
    ``TABLE_ROWS`` name and a column per word: the word's start and end
    times in seconds, then its five features. Rendition r's words are the
    columns ``bounds[r]:bounds[r + 1]`` of the 2E + 1 offsets, so its
    ``(5, n)`` block ``table[2:, bounds[r]:bounds[r + 1]]`` has the contour
    of ``FEATURE_NAMES[f]`` as row f. ``words`` holds each rendition's word
    texts, equal texts sharing one ``str``.
    """

    bounds: np.ndarray
    words: Sequence[tuple[str, ...]]
    table: np.ndarray


class ContourStoreBuilder:
    """Adds renditions to a ContourStore one at a time.

    Each word's seven values are appended to one growing float buffer,
    word after word, and ``build`` wraps that buffer as the store's table
    without copying it: the table's rows are strided views of the buffer.
    """

    def __init__(self):
        self._bounds = array("q", [0])
        self._words: list[tuple[str, ...]] = []
        self._values = array("d")
        self._texts: dict[str, str] = {}

    def add(self, words: Sequence[str], table: np.ndarray) -> None:
        """Append the next rendition's words and its ``(7, n)`` table of their values."""
        self._bounds.append(self._bounds[-1] + len(words))
        self._words.append(tuple(self._texts.setdefault(w, w) for w in words))
        self._values.frombytes(table.T.tobytes())

    def build(self) -> ContourStore:
        """The store of every rendition added; the builder is spent."""
        bounds = np.array(self._bounds, dtype=np.int64)
        table = np.frombuffer(self._values, dtype=np.float64).reshape(-1, len(TABLE_ROWS)).T
        bounds.flags.writeable = table.flags.writeable = False
        return ContourStore(bounds, self._words, table)


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Classic DTW cost between two non-empty 1-D sequences.

    Local cost |a_i - b_j|; diagonal, horizontal, and vertical steps each
    add one local cost; the path is boundary-to-boundary with no warping
    window; the total path cost is returned unnormalized (Sakoe & Chiba
    1978, full window). Takes lists of plain Python floats: for the short
    contours compared here (roughly 6-13 values), list indexing beats
    per-element numpy access by a wide margin.

    One row list holds the cumulative costs and is updated in place; each
    cell's diagonal and left neighbours live in local variables. After the
    first row, one pass over ``b`` advances rows i and i + 1 together, and
    a row left over at the end gets a single-row pass. Every cell starts
    from its diagonal, then takes the up and then the left neighbour on a
    strict ``<``, and adds its local cost, so the floats are those of the
    plain row-by-row recurrence. The local cost is written as a
    subtraction, not ``abs()``, which keeps the sign of a zero difference
    (``-0.0 - 0.0`` is ``-0.0``).
    """
    n = len(a)
    m = len(b)
    if n == 0 or m == 0:
        raise ComputeError("dtw_distance requires non-empty sequences")

    b0 = b[0]
    a0 = a[0]
    left = a0 - b0 if a0 >= b0 else b0 - a0
    row = [left]
    for j in range(1, m):
        bj = b[j]
        left = left + (a0 - bj if a0 >= bj else bj - a0)
        row.append(left)
    cols = range(1, m)
    i = 1
    while i + 1 < n:
        ai = a[i]
        ak = a[i + 1]
        diag = row[0]
        left = diag + (ai - b0 if ai >= b0 else b0 - ai)
        left2 = left + (ak - b0 if ak >= b0 else b0 - ak)
        row[0] = left2
        for j in cols:
            bj = b[j]
            up = row[j]
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            cur = best + (ai - bj if ai >= bj else bj - ai)
            # row i + 1: its diagonal is row i's left, its up is row i's cell
            best = left
            if cur < best:
                best = cur
            if left2 < best:
                best = left2
            left2 = best + (ak - bj if ak >= bj else bj - ak)
            row[j] = left2
            diag = up
            left = cur
        i += 2
    if i < n:
        ai = a[i]
        diag = row[0]
        left = diag + (ai - b0 if ai >= b0 else b0 - ai)
        row[0] = left
        for j in cols:
            bj = b[j]
            up = row[j]
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            left = best + (ai - bj if ai >= bj else bj - ai)
            row[j] = left
            diag = up
    return row[m - 1]


def compute_samples(manifest: CorpusManifest, contours: ContourStore) -> np.ndarray:
    """Read-only ``(5, events)`` table of DTW distances: a row per feature, a column
    per imitation event in manifest order."""
    features, bounds = contours.table[2:], contours.bounds.tolist()
    table = np.empty((len(FEATURE_NAMES), len(manifest.utterances)))
    for e in range(len(manifest.utterances)):
        # event e's imitation is rendition 2e, its model 2e + 1; each converted once
        imit = features[:, bounds[2 * e]:bounds[2 * e + 1]].tolist()
        model = features[:, bounds[2 * e + 1]:bounds[2 * e + 2]].tolist()
        table[:, e] = [dtw_distance(a, b) for a, b in zip(imit, model)]
    table.flags.writeable = False
    return table


class NormalizedSamples(NamedTuple):
    z: np.ndarray        # z-scores of the retained samples, input order
    kept: np.ndarray     # boolean mask over the input samples


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
    return NormalizedSamples((retained - mean) / sd, kept)


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
    # (speaker, index) -> rendition of the target's imitations and every other speaker's models
    rendition = {}
    for e, rec in enumerate(manifest.utterances):
        if rec.imitator == target:
            rendition[target, rec.index] = 2 * e
        elif rec.model != target:
            rendition[rec.model, rec.index] = 2 * e + 1
    indices = sorted(k for speaker, k in rendition if speaker == target)
    if not indices:
        raise ComputeError(f"speaker {target!r} imitates no utterance")
    features, bounds = contours.table[2:], contours.bounds.tolist()

    def block(r: int) -> list[list[float]]:
        return features[:, bounds[r]:bounds[r + 1]].tolist()

    # each imitation's five contours, converted once for all its DTWs
    imitated = {k: block(rendition[target, k]) for k in indices}

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
            if (cand, k) in rendition:
                model = block(rendition[cand, k])
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
    """Every entrainment measure of a corpus: ``compute_samples``' ``(5, events)``
    table, then arrays with a column per feature and a row per name in
    ``speakers`` (the imitators, sorted) or per pair in ``dyads`` (the
    manifest's dyads whose members both imitate). ``n_used`` counts the
    samples behind ``e_opt``; ``e_opt`` and ``e_opt_alt`` are NaN where there
    is no value. ``partner_distance``, ``other_distance`` and ``n_surrogates``
    have no rows without the surrogate search."""

    samples: np.ndarray
    speakers: tuple[str, ...]
    e_raw: np.ndarray
    e_opt: np.ndarray
    e_opt_alt: np.ndarray
    n_used: np.ndarray
    partner_distance: np.ndarray
    other_distance: np.ndarray
    n_surrogates: np.ndarray
    dyads: tuple[tuple[str, str], ...]
    inner_dyad: np.ndarray

    def table(self, measure: str) -> dict[str, dict[str, float]]:
        """Each speaker's ``measure`` ("e_raw" or "e_opt") by feature; a NaN e_opt is left out."""
        table = {
            speaker: {f: v for f, v in zip(FEATURE_NAMES, row) if not math.isnan(v)}
            for speaker, row in zip(self.speakers, getattr(self, measure).tolist())
        }
        return {speaker: values for speaker, values in table.items() if values}


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
    ``e_opt_alt``. ``norm_scope`` pools normalization statistics
    corpus-wide (default) or per speaker. A speaker whose samples of a
    feature all fall outside the pool's fences gets ``e_opt`` NaN and
    ``n_used`` 0 for it. ``with_normalization=False`` skips the z-transform
    (``e_opt`` comes back NaN), which is needed for degenerate corpora such
    as perfect imitation where every distance is zero.
    """
    if norm not in ("sd", "se"):
        raise ValueError(f"unknown normalization mode {norm!r}")
    if norm_scope not in ("corpus", "speaker"):
        raise ValueError(f"unknown normalization scope {norm_scope!r}")
    samples = compute_samples(manifest, contours)
    speakers = tuple(sorted({rec.imitator for rec in manifest.utterances}))
    imitators = np.array([rec.imitator for rec in manifest.utterances])
    corpus_norms = []
    if with_normalization and norm_scope == "corpus":
        for feature, row in zip(FEATURE_NAMES, samples):
            with prefixed(f"feature {feature}"):
                corpus_norms.append(normalize_samples(row))

    shape = (len(speakers), len(FEATURE_NAMES))
    e_raw, n_used = np.empty(shape), np.empty(shape, dtype=np.int64)
    e_opt, e_opt_alt = np.full((2, *shape), np.nan)
    for i, speaker in enumerate(speakers):
        own = imitators == speaker
        for f, feature in enumerate(FEATURE_NAMES):
            mine = samples[f][own]
            e_raw[i, f] = float(np.mean(mine))
            n_used[i, f] = mine.size
            if with_normalization:
                # the pool is the speaker's own samples or the whole row;
                # ``z`` holds the z-scores of the speaker's retained samples
                if norm_scope == "speaker":
                    with prefixed(f"speaker {speaker!r} feature {feature}"):
                        normed = normalize_samples(mine)
                    z = normed.z
                else:
                    normed = corpus_norms[f]
                    z = normed.z[own[normed.kept]]
                n_used[i, f] = z.size
                if z.size:
                    e_opt[i, f] = float(z.mean())
                    if norm == "se":
                        # the SE-of-mean divisor rescales every z-score by sqrt(n) of the pool
                        e_opt_alt[i, f] = e_opt[i, f] * float(np.sqrt(normed.kept.sum()))

    # every speaker's normalization comes before any surrogate search, so
    # an error of the former is the one reported
    searched = speakers if with_surrogates else ()
    other = np.empty((len(searched), len(FEATURE_NAMES)))
    n_surrogates = np.empty(len(searched), dtype=np.int64)
    for i, speaker in enumerate(searched):
        other[i], n_surrogates[i] = other_distance(speaker, manifest, contours, pool=surrogate_pool)

    position = {speaker: i for i, speaker in enumerate(speakers)}
    dyads = tuple((a, b) for a, b in manifest.dyads if a in position and b in position)
    raw = e_raw.tolist()
    inner = [list(map(inner_dyad_distance, raw[position[a]], raw[position[b]])) for a, b in dyads]

    return CorpusMeasurement(
        samples, speakers, e_raw, e_opt, e_opt_alt, n_used,
        e_raw[:len(searched)], other, n_surrogates,
        dyads, np.array(inner).reshape(len(dyads), len(FEATURE_NAMES)),
    )
