"""Batch pipeline: corpus in, report bundle out.

Wires ingest -> (optional pitch estimation) -> preprocessing -> per-word
features -> entrainment measures -> statistics, and writes the CSV/JSON
bundle. ``BUNDLE`` maps each bundle file to its writer and the stages it
needs; ``run_pipeline`` runs only the stages of the files it is asked
for. Every stage runs in manifest order in one thread, so the output
bytes depend only on the corpus and the configuration.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Collection, Iterable, Sequence

import numpy as np

from f0entrain import __version__, entrain, ingest, stats
from f0entrain.entrain import ROLE_IMITATOR, ROLE_MODEL, CorpusMeasurement
from f0entrain.errors import ComputeError
from f0entrain.features import (
    FEATURE_NAMES,
    UtteranceFeatures,
    build_contours,
    parameterize_utterance,
    to_semitones,
)
from f0entrain.ingest import CorpusManifest, ScoreTable
from f0entrain.pitch import PitchConfig, estimate_f0, read_wav
from f0entrain.preprocess import (
    SmoothingConfig,
    clean_track,
    interpolate_unvoiced,
    outlier_bounds,
)
from f0entrain.types import F0Track

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
    alpha: float = 0.05
    trend: float = 0.1
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


@dataclass(frozen=True)
class Rendition:
    """One speaker's realization of one utterance index in one role."""

    speaker: str
    index: int
    role: str
    f0_path: str
    align_path: str


@dataclass
class ProcessedCorpus:
    """Every rendition's retained words, keyed by (speaker, index, role) in rendition order.

    ``contours`` holds views of the ``utterances`` tables, so each word's
    numbers are kept once.
    """

    utterances: dict[tuple[str, int, str], UtteranceFeatures]
    contours: dict[tuple[str, int, str], dict[str, np.ndarray]]
    dropped_words: int = 0
    untimed_words: int = 0

    def warnings(self) -> list[str]:
        """Data-quality warnings for the user; none of them changes the bundle."""
        if not self.untimed_words:
            return []
        return [f"{self.untimed_words} word(s) without timestamps skipped"]


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


def _load_track(rendition: Rendition, config: RunConfig) -> F0Track:
    path = Path(rendition.f0_path)
    if config.from_wav and path.suffix.lower() == ".wav":
        # runs with other pitch settings never share a cache
        floor, ceiling = float(config.pitch_floor), float(config.pitch_ceiling)
        cache = path.with_name(f"{path.stem}.{floor!r}-{ceiling!r}Hz{path.suffix}.f0.csv")
        if cache.exists():
            return ingest.load_f0_csv(cache)
        track = estimate_f0(read_wav(path), PitchConfig(floor, ceiling))
        ingest.write_f0_csv(track, cache)
        return ingest.load_f0_csv(cache)  # reread so cached and fresh runs agree
    return ingest.load_f0_csv(path)


@contextmanager
def _naming_file(rendition: Rendition):
    """Prefix a ComputeError raised on one rendition's track with its F0 file.

    Under ``--from-wav`` that file is the WAV the track was estimated from.
    """
    try:
        yield
    except ComputeError as exc:
        raise ComputeError(f"{rendition.f0_path}: {exc}") from exc


def process_corpus(manifest: CorpusManifest, config: RunConfig) -> ProcessedCorpus:
    """Load, clean, and parameterize every rendition of the corpus."""
    renditions = collect_renditions(manifest)
    smoothing = SmoothingConfig(config.window, config.order)

    tracks = [_load_track(r, config) for r in renditions]

    bounds: dict[str, tuple[float, float]] = {}
    if config.outlier_scope == "speaker":
        grouped: dict[str, list[np.ndarray]] = {}
        for r, t in zip(renditions, tracks):
            with _naming_file(r):
                grouped.setdefault(r.speaker, []).append(interpolate_unvoiced(t).values)
        bounds = {
            spk: outlier_bounds(np.concatenate(vals)) for spk, vals in grouped.items()
        }

    utterances: dict[tuple[str, int, str], UtteranceFeatures] = {}
    contours: dict[tuple[str, int, str], dict[str, np.ndarray]] = {}
    total_dropped = total_untimed = 0
    for r, track in zip(renditions, tracks):
        with _naming_file(r):
            track = clean_track(track, smoothing, bounds.get(r.speaker))
        if config.semitone is not None:
            track = to_semitones(track, config.semitone)
        spans, untimed = ingest.load_alignment(r.align_path)
        utt, dropped = parameterize_utterance(track, spans, r.speaker, r.index)
        key = (r.speaker, r.index, r.role)
        utterances[key] = utt
        contours[key] = build_contours(utt)
        total_dropped += dropped
        total_untimed += untimed
    return ProcessedCorpus(utterances, contours, total_dropped, total_untimed)


# ---------------------------------------------------------------------------
# report writers


def _f6(x: float) -> str:
    return f"{x:.6f}"


def _p3(p: float | None) -> str:
    return "" if p is None else f"{p:.3g}"


def _g6(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def write_features_csv(processed: ProcessedCorpus, path: str | Path) -> None:
    """One row per retained word, written as it is formatted."""
    row = "%s,%d,%d,%s" + ",%.6f" * 7 + "\n"
    with open(path, "w") as fh:
        fh.write("speaker,utterance,word_index,word,start_s,end_s,mean,median,slope,range,drop\n")
        for utt in processed.utterances.values():  # in rendition order
            for word_index, (word, values) in enumerate(zip(utt.words, utt.table.T.tolist())):
                fh.write(row % (utt.speaker, utt.utterance_index, word_index, word, *values))


def write_samples_csv(measurement: CorpusMeasurement, path: str | Path) -> None:
    lines = ["imitator,model,utterance,feature,dtw"]
    for s in measurement.samples:
        lines.append(
            f"{s.imitator},{s.model},{s.utterance_index},{s.feature},{_f6(s.distance)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_speaker_csv(measurement: CorpusMeasurement, path: str | Path, norm: str = "sd") -> None:
    header = "speaker,feature,e_raw,e_opt,n_used"
    if norm == "se":
        header += ",e_opt_se"
    lines = [header]
    for s in measurement.speaker_scores:
        e_opt = "" if s.e_opt is None else _f6(s.e_opt)
        row = f"{s.speaker},{s.feature},{_f6(s.e_raw)},{e_opt},{s.n_used}"
        if norm == "se":
            row += f",{'' if s.e_opt_alt is None else _f6(s.e_opt_alt)}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def write_validate_csv(measurement: CorpusMeasurement, path: str | Path) -> None:
    lines = ["speaker,feature,partner_distance,other_distance,n_surrogates"]
    for po in measurement.partner_other:
        lines.append(
            f"{po.speaker},{po.feature},{_f6(po.partner_distance)},"
            f"{_f6(po.other_distance)},{po.n_surrogates}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def partner_other_ttests(
    measurement: CorpusMeasurement, alpha: float = 0.05, trend: float = 0.1
) -> list[tuple[str, stats.TestResult, float]]:
    """Per-feature paired t-test of partner vs. other distances.

    Returns (feature, two-sided result, one-sided lower-tail p) tuples;
    the one-sided p matches the directional hypothesis that partner
    distances are smaller.
    """
    out = []
    for feature in FEATURE_NAMES:
        rows = [po for po in measurement.partner_other if po.feature == feature]
        if not rows:
            continue
        partner = [po.partner_distance for po in rows]
        other = [po.other_distance for po in rows]
        res = stats.paired_t_test(partner, other, alpha=alpha, trend=trend)
        out.append((feature, res, stats.one_sided_p(res)))
    return out


def format_ttest_csv(
    tests: Iterable[tuple[str, stats.TestResult, float]], alpha: float = 0.05
) -> str:
    """Partner-vs-other report shaped like a t-test summary table.

    The printed p-value is the one-sided (partner < other) tail; ``sig``
    is ``*`` when it clears the significance level.
    """
    lines = ["feature,t,df,p_value,sig"]
    for feature, res, p_one in tests:
        sig = "*" if p_one < alpha else ""
        lines.append(f"{feature},{_g6(res.statistic)},{res.df:g},{_p3(p_one)},{sig}")
    return "\n".join(lines) + "\n"


def write_ttest_csv(
    tests: Iterable[tuple[str, stats.TestResult, float]],
    path: str | Path,
    alpha: float = 0.05,
) -> None:
    Path(path).write_text(format_ttest_csv(tests, alpha=alpha))


def write_dyads_csv(measurement: CorpusMeasurement, path: str | Path) -> None:
    lines = ["speaker_a,speaker_b,feature,inner_dyad"]
    for d in measurement.dyad_scores:
        lines.append(f"{d.dyad[0]},{d.dyad[1]},{d.feature},{_f6(d.inner_dyad)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_csv(cells: Sequence[stats.GridCell], path: str | Path) -> None:
    """Long-form correlation grid, rows in lexicographic (feature, criterion) order."""
    lines = ["feature,criterion,r,p,n,significant,trend"]
    for c in sorted(cells, key=lambda c: (c.feature, c.criterion)):
        lines.append(
            f"{c.feature},{c.criterion},{_g6(c.r)},{_p3(c.p)},{c.n},"
            f"{_bool(c.significant)},{_bool(c.trend)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def format_icc_csv(rows: Iterable[tuple[str, stats.IccResult]]) -> str:
    """Rater-agreement report; p below 0.001 prints as '<0.001'."""
    lines = ["criterion,icc,p_value,ci_low,ci_high"]
    for criterion, res in rows:
        p_str = "<0.001" if res.p_value < 0.001 else _p3(res.p_value)
        lines.append(
            f"{criterion},{res.icc:.3f},{p_str},{res.ci_low:.2f},{res.ci_high:.2f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# full run


def corpus_checksum(manifest_path: str | Path, manifest: CorpusManifest) -> str:
    """SHA-256 over the manifest and all referenced files (content only)."""
    digest = hashlib.sha256()
    digest.update(Path(manifest_path).read_bytes())
    paths = set()
    for rec in manifest.utterances:
        paths.update((rec.imitator_f0, rec.model_f0, rec.imitator_align, rec.model_align))
    for p in sorted(paths):
        digest.update(hashlib.sha256(Path(p).read_bytes()).digest())
    return digest.hexdigest()


@dataclass(frozen=True)
class Stages:
    """What one pass over a corpus computed; every bundle writer reads from it."""

    config: RunConfig
    manifest: CorpusManifest
    processed: ProcessedCorpus
    measurement: CorpusMeasurement | None = None
    scores: ScoreTable | None = None


def run_stages(config: RunConfig, needs: Collection[str]) -> Stages:
    """Manifest -> scores -> process_corpus -> measure_corpus, as far as ``needs`` asks.

    Features always run. ``needs`` may add "dtw" (real-pair distances and
    ``e_raw``), "norm" (``e_opt``), "surrogates" (partner vs. other
    distances) and "scores" (the rater table, when the config names one).
    """
    manifest = ingest.load_manifest(config.manifest)
    score_table = None
    if "scores" in needs and config.scores is not None:
        score_table = ingest.load_scores(config.scores)
    processed = process_corpus(manifest, config)
    measurement = None
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
    return Stages(config, manifest, processed, measurement, score_table)


def _write_ttest(stages: Stages, path: Path) -> None:
    config = stages.config
    tests = partner_other_ttests(stages.measurement, alpha=config.alpha, trend=config.trend)
    write_ttest_csv(tests, path, alpha=config.alpha)


def _write_grid(stages: Stages, path: Path) -> None:
    config, measurement, cells = stages.config, stages.measurement, []
    if stages.scores is not None:
        e_opt = config.grid_measure == "e_opt"
        table = measurement.e_opt_table() if e_opt else measurement.e_raw_table()
        cells = stats.correlate_grid(
            table, stages.scores.speaker_means(), alpha=config.alpha, trend=config.trend
        )
    write_grid_csv(cells, path)


def _write_run_json(stages: Stages, path: Path) -> None:
    run_doc = {
        "config": stages.config.recorded(),
        "corpus_checksum": corpus_checksum(stages.config.manifest, stages.manifest),
        "version": __version__,
    }
    path.write_text(json.dumps(run_doc, indent=1, sort_keys=True) + "\n")


# Bundle file -> (stages it needs beyond features, writer), in writing order.
# The writers look each write_* function up by name at call time, so a
# wrapper installed on the module (as perfbench's tracer does) sees the call.
BUNDLE = {
    "features.csv": ((), lambda s, path: write_features_csv(s.processed, path)),
    "dtw_samples.csv": (("dtw",), lambda s, path: write_samples_csv(s.measurement, path)),
    "entrain.csv": (
        ("dtw", "norm"),
        lambda s, path: write_speaker_csv(s.measurement, path, norm=s.config.norm),
    ),
    "validate.csv": (
        ("dtw", "surrogates"), lambda s, path: write_validate_csv(s.measurement, path)
    ),
    "ttest.csv": (("dtw", "surrogates"), _write_ttest),
    "dyads.csv": (("dtw",), lambda s, path: write_dyads_csv(s.measurement, path)),
    "grid.csv": (("dtw", "norm", "scores"), _write_grid),
    "run.json": ((), _write_run_json),
}


def run_pipeline(config: RunConfig, files: Sequence[str] = tuple(BUNDLE)) -> list[str]:
    """Run the stages that ``files`` need, write those bundle files and return the warnings.

    A single file is written at ``config.out``; several go into the
    ``config.out`` directory.
    """
    out = Path(config.out)
    if len(files) > 1:
        out.mkdir(parents=True, exist_ok=True)
    stages = run_stages(config, {need for name in files for need in BUNDLE[name][0]})
    for name in files:
        BUNDLE[name][1](stages, out / name if len(files) > 1 else out)
    return stages.processed.warnings()
