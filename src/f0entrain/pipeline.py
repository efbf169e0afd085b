"""Batch pipeline: corpus in, report bundle out.

Wires ingest -> (optional pitch estimation) -> preprocessing -> per-word
features -> entrainment measures -> statistics, and writes the CSV/JSON
bundle. ``BUNDLE`` maps each bundle file to its writer and the stages it
needs; ``run_pipeline`` runs only the stages of the files it is asked
for, and all of them before it writes the first file. Every stage runs
in manifest order in one thread, so the output bytes depend only on the
corpus and the configuration.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from f0entrain import __version__, entrain, ingest, stats
from f0entrain.entrain import ContourStore, ContourStoreBuilder, CorpusMeasurement
from f0entrain.errors import DataError, ValidationError, prefixed
from f0entrain.features import (
    FEATURE_NAMES,
    build_contours,
    parameterize_utterance,
    to_semitones,
)
from f0entrain.ingest import ROLE_IMITATOR, ROLE_MODEL, CorpusManifest, ScoreTable
from f0entrain.pitch import PitchConfig, estimate_f0, read_wav
from f0entrain.preprocess import (
    SmoothingConfig,
    clean_track,
    interpolate_unvoiced,
    outlier_bounds,
)

QUANTILE_CONVENTION = "type7"

# The values each choice field of RunConfig accepts, default first; the
# command line offers the same. norm "se" reports the "sd" scores as well.
CHOICES = {
    "outlier_scope": ("utterance", "speaker"),
    "surrogate_pool": ("same-sex", "all"),
    "norm": ("sd", "se"),
    "norm_scope": ("corpus", "speaker"),
    "grid_measure": ("e_opt", "e_raw"),
}


def check_level(name: str, value: float) -> None:
    """Raise ValueError unless a significance level or trend threshold is in (0, 1)."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


@dataclass(frozen=True)
class RunConfig:
    """Reproducible configuration of a pipeline run."""

    manifest: str
    out: str
    scores: str | None = None
    window: int = 7
    order: int = 3
    outlier_scope: str = "utterance"
    surrogate_pool: str = "same-sex"
    norm: str = "sd"
    norm_scope: str = "corpus"
    alpha: float = stats.DEFAULT_ALPHA
    trend: float = stats.DEFAULT_TREND
    semitone: float | None = None          # reference Hz; None = stay in Hz
    from_wav: bool = False
    pitch_floor: float = 75.0
    pitch_ceiling: float = 600.0
    grid_measure: str = "e_opt"

    def __post_init__(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, got {value!r}")
        for name in ("alpha", "trend"):
            check_level(name, getattr(self, name))
        if self.semitone is not None and not 0 < self.semitone < math.inf:
            raise ValueError(f"semitone must be a finite reference > 0 Hz, got {self.semitone}")
        SmoothingConfig(self.window, self.order)
        PitchConfig(self.pitch_floor, self.pitch_ceiling)

    def recorded(self) -> dict:
        """Config as recorded in run.json."""
        doc = asdict(self)
        doc["quantile_convention"] = QUANTILE_CONVENTION
        return doc


@dataclass(frozen=True, slots=True)
class Rendition:
    """One speaker's realization of one utterance index in one role."""

    speaker: str
    index: int
    role: str
    f0_path: str
    align_path: str


@dataclass(frozen=True)
class ProcessedCorpus:
    """Every rendition's retained words, in rendition order.

    ``renditions`` lists them, and ``contours`` holds their words by the same
    number: each one's word offsets and texts, and one read-only
    ``(7, n_words)`` table of the words' times and features (see
    ``entrain.ContourStore``).
    """

    renditions: Sequence[Rendition]
    contours: ContourStore
    dropped_words: int = 0
    untimed_words: int = 0

    def warnings(self) -> list[str]:
        """Data-quality warnings for the user; none of them changes the bundle."""
        return [f"{n} word(s) {what}" for n, what in (
            (self.untimed_words, "without timestamps skipped"),
            (self.dropped_words, "with fewer than 2 pitch samples dropped"),
        ) if n]


def collect_renditions(manifest: CorpusManifest) -> list[Rendition]:
    """Every rendition in manifest order, imitator before model.

    ``ingest.load_manifest`` lists each F0 file for one rendition only.
    """
    return [
        rendition
        for rec in manifest.utterances
        for rendition in (
            Rendition(rec.imitator, rec.index, ROLE_IMITATOR, rec.imitator_f0, rec.imitator_align),
            Rendition(rec.model, rec.index, ROLE_MODEL, rec.model_f0, rec.model_align),
        )
    ]


def _f0_source(rendition: Rendition, config: RunConfig) -> Path:
    """The F0 CSV a rendition's track is read from: under ``--from-wav``, a WAV's cache."""
    path = Path(rendition.f0_path)
    if config.from_wav and path.suffix.lower() == ".wav":
        # runs with other pitch settings never share a cache
        floor, ceiling = float(config.pitch_floor), float(config.pitch_ceiling)
        return path.with_name(f"{path.stem}.{floor!r}-{ceiling!r}Hz{path.suffix}.f0.csv")
    return path


def _cache_f0(
    rendition: Rendition, config: RunConfig, digests: dict[str, bytes] | None
) -> None:
    """Estimate and cache the track of a WAV rendition that has no F0 cache yet.

    The track is read back from its cache like any other, so cached and
    fresh runs agree. A WAV that cannot be read or tracked is named in the
    error. ``digests``, if given, records the SHA-256 of each WAV read, so
    the checksum does not read it again.
    """
    wav, cache = Path(rendition.f0_path), _f0_source(rendition, config)
    if cache != wav and not cache.exists():
        pitch = PitchConfig(float(config.pitch_floor), float(config.pitch_ceiling))
        with prefixed(rendition.f0_path, DataError, None):
            track = estimate_f0(read_wav(wav, digests), pitch)
        ingest.write_f0_csv(track, cache)


def process_corpus(
    manifest: CorpusManifest, config: RunConfig, digests: dict[str, bytes] | None = None
) -> ProcessedCorpus:
    """Load, clean, and parameterize every rendition of the corpus, one at a time.

    Each rendition's track is dropped once its words are in the store, so
    the first faulty rendition in manifest order is the one named, by its
    F0 file (under ``--from-wav``, its WAV). Under ``--from-wav`` every
    missing F0 cache is written first. ``--outlier-scope speaker`` reads
    each F0 file twice: once for its speaker's bounds, once for the track;
    the first pass drops a speaker's samples at its last rendition.
    ``digests``, if given, records the SHA-256 of every file the manifest
    names that the run reads (see ``ingest.read_hashed``), once each: an
    F0 cache, which the manifest does not name, is not hashed.
    """
    renditions = collect_renditions(manifest)
    smoothing = SmoothingConfig(config.window, config.order)
    if config.from_wav:
        for r in renditions:
            _cache_f0(r, config, digests)

    bounds: dict[str, tuple[float, float]] = {}
    if config.outlier_scope == "speaker":
        last = {r.speaker: i for i, r in enumerate(renditions)}
        pending: dict[str, list[np.ndarray]] = {}
        for i, r in enumerate(renditions):
            track = ingest.load_f0_csv(_f0_source(r, config))
            with prefixed(r.f0_path):
                pending.setdefault(r.speaker, []).append(interpolate_unvoiced(track).values)
            if i == last[r.speaker]:
                bounds[r.speaker] = outlier_bounds(np.concatenate(pending.pop(r.speaker)))

    store = ContourStoreBuilder()
    total_dropped = total_untimed = 0
    for r in renditions:
        source = _f0_source(r, config)
        track = ingest.load_f0_csv(source, digests if source == Path(r.f0_path) else None)
        with prefixed(r.f0_path):
            track = clean_track(track, smoothing, bounds.get(r.speaker))
        if config.semitone is not None:
            track = to_semitones(track, config.semitone)
        spans, untimed = ingest.load_alignment(r.align_path, digests)
        with prefixed(f"{r.f0_path} with {r.align_path} ({r.role})"):
            utt, dropped = parameterize_utterance(track, spans, r.speaker, r.index)
            build_contours(utt)  # raises unless every contour is non-empty and finite
        store.add(utt.words, utt.table)
        total_dropped += dropped
        total_untimed += untimed
    return ProcessedCorpus(renditions, store.build(), total_dropped, total_untimed)


# ---------------------------------------------------------------------------
# report writers: each formats results that run_stages computed


def write_table(path: str | Path | None, header: str, rows: Iterable[str]) -> None:
    """Write ``header`` and then each row, one line at a time; a path of None is stdout."""
    if path is None:
        sys.stdout.reconfigure(encoding="utf-8")  # the bytes a file gets, whatever the locale
    with open(path, "w", encoding="utf-8") if path is not None else nullcontext(sys.stdout) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


# Cell formats shared by every table the program writes.
def f6(x: float) -> str:
    return "" if math.isnan(x) else f"{x:.6f}"


def p3(p: float | None) -> str:
    return "" if p is None else f"{p:.3g}"


def g6(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


def flag(b: bool) -> str:
    return "true" if b else "false"


def write_features_csv(processed: ProcessedCorpus, path: str | Path) -> None:
    """One row per retained word, in rendition order, written as it is formatted."""
    store, bounds = processed.contours, processed.contours.bounds.tolist()
    row = "%s,%d,%d,%s" + ",%.6f" * 7
    write_table(
        path,
        "speaker,utterance,word_index,word,start_s,end_s,mean,median,slope,range,drop",
        (
            row % (r.speaker, r.index, word_index, word, *values)
            for r, lo, hi, words in zip(processed.renditions, bounds, bounds[1:], store.words)
            for word_index, (word, values) in enumerate(zip(words, store.table.T[lo:hi].tolist()))
        ),
    )


def _by_feature(keys: Iterable, *tables: np.ndarray) -> Iterator[tuple]:
    """(key, feature, each table's value) for each row's key, then each feature in order."""
    for key, *rows in zip(keys, *(table.tolist() for table in tables)):
        for feature, *values in zip(FEATURE_NAMES, *rows):
            yield key, feature, *values


def write_samples_csv(
    manifest: CorpusManifest, measurement: CorpusMeasurement, path: str | Path
) -> None:
    write_table(path, "imitator,model,utterance,feature,dtw", (
        f"{rec.imitator},{rec.model},{rec.index},{feature},{f6(distance)}"
        for rec, feature, distance in _by_feature(manifest.utterances, measurement.samples.T)
    ))


def write_speaker_csv(measurement: CorpusMeasurement, path: str | Path, norm: str = "sd") -> None:
    m, se = measurement, norm == "se"
    write_table(path, "speaker,feature,e_raw,e_opt,n_used" + (",e_opt_se" if se else ""), (
        f"{speaker},{feature},{f6(raw)},{f6(opt)},{n}" + (f",{f6(alt)}" if se else "")
        for speaker, feature, raw, opt, n, alt
        in _by_feature(m.speakers, m.e_raw, m.e_opt, m.n_used, m.e_opt_alt)
    ))


def write_validate_csv(measurement: CorpusMeasurement, path: str | Path) -> None:
    m = measurement
    write_table(path, "speaker,feature,partner_distance,other_distance,n_surrogates", (
        f"{speaker},{feature},{f6(partner)},{f6(other)},{n}"
        for (speaker, n), feature, partner, other in _by_feature(
            zip(m.speakers, m.n_surrogates.tolist()), m.partner_distance, m.other_distance
        )
    ))


def write_ttest_csv(
    tests: Iterable[tuple[str, stats.TestResult, float]],
    path: str | Path,
    alpha: float = stats.DEFAULT_ALPHA,
) -> None:
    """Partner-vs-other report shaped like a t-test summary table.

    The printed p-value is the one-sided (partner < other) tail; ``sig``
    is ``*`` when it clears the significance level.
    """
    write_table(path, "feature,t,df,p_value,sig", (
        f"{feature},{g6(res.statistic)},{res.df:g},{p3(p_one)},{'*' if p_one < alpha else ''}"
        for feature, res, p_one in tests
    ))


def write_dyads_csv(measurement: CorpusMeasurement, path: str | Path) -> None:
    write_table(path, "speaker_a,speaker_b,feature,inner_dyad", (
        f"{a},{b},{feature},{f6(inner)}"
        for (a, b), feature, inner in _by_feature(measurement.dyads, measurement.inner_dyad)
    ))


def write_grid_csv(cells: Sequence[stats.GridCell], path: str | Path) -> None:
    """Long-form correlation grid, rows in the given (``correlate_grid``'s) order."""
    write_table(path, "feature,criterion,r,p,n,significant,trend", (
        f"{c.feature},{c.criterion},{g6(c.r)},{p3(c.p)},{c.n},"
        f"{flag(c.significant)},{flag(c.trend)}"
        for c in cells
    ))


# ---------------------------------------------------------------------------
# full run


def partner_other_ttests(
    measurement: CorpusMeasurement,
    alpha: float = stats.DEFAULT_ALPHA,
    trend: float = stats.DEFAULT_TREND,
) -> list[tuple[str, stats.TestResult, float]]:
    """Per-feature paired t-test of partner vs. other distances.

    Returns (feature, two-sided result, one-sided lower-tail p) tuples;
    the one-sided p matches the directional hypothesis that partner
    distances are smaller.
    """
    out = []
    partners, others = measurement.partner_distance.T, measurement.other_distance.T
    for feature, partner, other in zip(FEATURE_NAMES, partners.tolist(), others.tolist()):
        if partner:  # empty when the surrogate search did not run
            res = stats.paired_t_test(partner, other, alpha=alpha, trend=trend)
            out.append((feature, res, stats.one_sided_p(res)))
    return out


def corpus_checksum(
    manifest_path: str | Path, manifest: CorpusManifest, digests: Mapping[str, bytes] | None = None
) -> str:
    """SHA-256 over the manifest's bytes, then the SHA-256 of each file it names, by path.

    ``digests`` maps a path to the SHA-256 of the bytes ingest read from it;
    only the files it lacks (the manifest, and under ``--from-wav`` each
    WAV whose F0 cache was already there) are read here.
    """
    digest = ingest.sha256(Path(manifest_path).read_bytes())
    paths = set()
    for rec in manifest.utterances:
        paths.update((rec.imitator_f0, rec.model_f0, rec.imitator_align, rec.model_align))
    known = dict(digests or {})
    for p in sorted(paths):
        if p not in known:
            ingest.read_hashed(Path(p), known)
        digest.update(known[p])
    return digest.hexdigest()


@dataclass(frozen=True)
class Stages:
    """What one pass over a corpus computed; every bundle writer reads from it."""

    config: RunConfig
    manifest: CorpusManifest
    processed: ProcessedCorpus
    measurement: CorpusMeasurement | None = None
    ttests: list[tuple[str, stats.TestResult, float]] | None = None
    grid: list[stats.GridCell] | None = None
    checksum: str | None = None


def run_stages(
    config: RunConfig, needs: Collection[str], expected_checksum: str | None = None
) -> Stages:
    """Everything the files with these ``needs`` hold, computed before any file is written.

    Features always run. ``needs`` may add "dtw" (real-pair distances and
    ``e_raw``), "norm" (``e_opt``), "surrogates" (partner vs. other
    distances and their t-tests), "scores" (the correlation grid, empty
    unless the config names a scores file) and "checksum" (the corpus's).
    An ``expected_checksum`` (a replayed run.json's) is checked as soon as
    every input has been read, before the DTW stage.
    """
    manifest = ingest.load_manifest(config.manifest)
    score_table = None
    if "scores" in needs and config.scores is not None:
        score_table = ingest.load_scores(config.scores)
    # the run's record of what ingest read, so the checksum reads each file once
    digests = {} if "checksum" in needs or expected_checksum is not None else None
    processed = process_corpus(manifest, config, digests)
    measurement = ttests = grid = checksum = None
    if digests is not None:
        checksum = corpus_checksum(config.manifest, manifest, digests)
        if expected_checksum is not None and checksum != expected_checksum:
            raise ValidationError(
                f"{config.manifest}: corpus checksum {checksum} differs from the "
                f"recorded {expected_checksum}; give --manifest to run on this corpus"
            )
    if "dtw" in needs:
        measurement = entrain.measure_corpus(
            manifest,
            processed.contours,
            surrogate_pool=config.surrogate_pool,
            norm=config.norm,
            norm_scope=config.norm_scope,
            with_surrogates="surrogates" in needs,
            with_normalization="norm" in needs,
        )
    if "surrogates" in needs:
        ttests = partner_other_ttests(measurement, alpha=config.alpha, trend=config.trend)
    if "scores" in needs:
        grid = []
        if score_table is not None:
            table = measurement.table(config.grid_measure)
            with prefixed(f"{config.scores} with {config.manifest}"):
                grid = stats.correlate_grid(
                    table, score_table.speaker_means(), alpha=config.alpha, trend=config.trend
                )
    return Stages(config, manifest, processed, measurement, ttests, grid, checksum)


def _write_run_json(stages: Stages, path: Path) -> None:
    run_doc = {
        "config": stages.config.recorded(),
        "corpus_checksum": stages.checksum,
        "version": __version__,
    }
    path.write_text(json.dumps(run_doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# Bundle file -> (stages it needs beyond features, writer), in writing order.
# The writers look each write_* function up by name at call time, so a
# wrapper installed on the module (as perfbench's tracer does) sees the call.
BUNDLE = {
    "features.csv": ((), lambda s, path: write_features_csv(s.processed, path)),
    "dtw_samples.csv": (
        ("dtw",), lambda s, path: write_samples_csv(s.manifest, s.measurement, path)
    ),
    "entrain.csv": (
        ("dtw", "norm"),
        lambda s, path: write_speaker_csv(s.measurement, path, norm=s.config.norm),
    ),
    "validate.csv": (
        ("dtw", "surrogates"), lambda s, path: write_validate_csv(s.measurement, path)
    ),
    "ttest.csv": (
        ("dtw", "surrogates"),
        lambda s, path: write_ttest_csv(s.ttests, path, alpha=s.config.alpha),
    ),
    "dyads.csv": (("dtw",), lambda s, path: write_dyads_csv(s.measurement, path)),
    "grid.csv": (("dtw", "norm", "scores"), lambda s, path: write_grid_csv(s.grid, path)),
    "run.json": (("checksum",), _write_run_json),
}


def run_pipeline(
    config: RunConfig, files: Sequence[str] = tuple(BUNDLE), expected_checksum: str | None = None
) -> list[str]:
    """Run the stages that ``files`` need, then write those bundle files; return the warnings.

    A single file is written at ``config.out``; several go into the
    ``config.out`` directory. Nothing is written, and no directory made,
    unless every stage succeeds and, given an ``expected_checksum`` (a
    replayed run.json's), the corpus has that checksum.
    """
    needs = {need for name in files for need in BUNDLE[name][0]}
    stages = run_stages(config, needs, expected_checksum)
    out = Path(config.out)
    if len(files) > 1:
        out.mkdir(parents=True, exist_ok=True)
    for name in files:
        BUNDLE[name][1](stages, out / name if len(files) > 1 else out)
    return stages.processed.warnings()
