#!/usr/bin/env python3
"""Traced f0entrain CLI call and the per-layer metrics derived from it.

As a script: ``python3 perfbench/tracing.py STATS_JSON <f0entrain args...>``
imports ``f0entrain.cli``, wraps the public functions listed in
``FUNCTIONS`` in every ``f0entrain`` module that refers to them, runs
``f0entrain.cli.main`` with the given arguments and writes per-function
call counts, inclusive and self times, and work counts to STATS_JSON. The
program itself is unchanged; only the calls into each layer are timed.

A layer is a module under ``src/f0entrain/``. A function missing from the
program (renamed or removed) is left out of the stats. The metrics that
need a function report as absent when it is missing or when the run never
called it, so a function the program stops using does not read as a gain.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

# module.function, the module being the layer; functions that only a
# non-default option calls (features.to_semitones) are left out
FUNCTIONS = (
    "synth.gen_corpus",
    "synth.gen_scores",
    "ingest.load_manifest",
    "ingest.load_f0_csv",
    "ingest.load_alignment",
    "ingest.load_scores",
    "ingest.write_f0_csv",
    "ingest.write_scores_csv",
    "pitch.read_wav",
    "pitch.estimate_f0",
    "preprocess.interpolate_unvoiced",
    "preprocess.outlier_bounds",
    "preprocess.two_pass_outlier",
    "preprocess.sg_smooth",
    "features.parameterize_utterance",
    "features.build_contours",
    "entrain.dtw_distance",
    "entrain.compute_samples",
    "entrain.normalize_samples",
    "entrain.other_distance",
    "entrain.measure_corpus",
    "stats.paired_t_test",
    "stats.pearson",
    "stats.correlate_grid",
    "pipeline.collect_renditions",
    "pipeline.process_corpus",
    "pipeline.partner_other_ttests",
    "pipeline.corpus_checksum",
    "pipeline.write_features_csv",
    "pipeline.write_samples_csv",
    "pipeline.write_speaker_csv",
    "pipeline.write_validate_csv",
    "pipeline.write_ttest_csv",
    "pipeline.write_dyads_csv",
    "pipeline.write_grid_csv",
    "pipeline.run_pipeline",
)

WRITERS = tuple(k for k in FUNCTIONS if k.startswith("pipeline.write_"))

# Only a run from WAVs calls these; on any other run they read 0, not absent.
WAV_ONLY = ("pitch.read_wav", "pitch.estimate_f0", "ingest.write_f0_csv")

# Orchestrators: their self time is every step they run that is not traced,
# so it is reported as unattributed, not as a layer's time.
CATCH_ALL = ("pipeline.run_pipeline", "pipeline.process_corpus")


# --- work counts, taken from each call's arguments and result --------------


def _count_f0(counts, parent, args, result):
    counts["ingest.f0_rows"] += len(result.values)


def _count_alignment(counts, parent, args, result):
    spans, untimed = result
    counts["ingest.align_words"] += len(spans)
    counts["ingest.words_untimed"] += untimed


def _count_wav(counts, parent, args, result):
    counts["pitch.audio_s"] += result.samples.size / result.sample_rate


def _count_frames(counts, parent, args, result):
    counts["pitch.frames"] += len(result.values)


def _count_outliers(counts, parent, args, result):
    counts["preprocess.outliers_replaced"] += result.n_replaced
    counts["preprocess.short_tracks"] += int(result.warned)


def _count_smoothed(counts, parent, args, result):
    counts["preprocess.samples"] += len(args[0].values)


def _count_words(counts, parent, args, result):
    utterance, dropped = result
    counts["features.words"] += len(utterance.words)
    counts["features.words_dropped"] += dropped


# a DTW call counts as real or surrogate by the traced function it runs under
DTW_KIND = {
    "entrain.compute_samples": "entrain.real_dtw",
    "entrain.other_distance": "entrain.surrogate_dtw",
}


def _count_dtw(counts, parent, args, result):
    counts["entrain.dtw_cells"] += len(args[0]) * len(args[1])
    if parent in DTW_KIND:
        counts[DTW_KIND[parent]] += 1


def _count_renditions(counts, parent, args, result):
    counts["pipeline.renditions"] += len(result)


HOOKS = {
    "ingest.load_f0_csv": _count_f0,
    "ingest.load_alignment": _count_alignment,
    "pitch.read_wav": _count_wav,
    "pitch.estimate_f0": _count_frames,
    "preprocess.two_pass_outlier": _count_outliers,
    "preprocess.sg_smooth": _count_smoothed,
    "features.parameterize_utterance": _count_words,
    "entrain.dtw_distance": _count_dtw,
    "pipeline.collect_renditions": _count_renditions,
}


class Tracer:
    """Inclusive and self time per wrapped function, kept in memory."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # key -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.stack: list[list] = [[None, 0.0]]   # [key, time in wrapped children]

    def wrap(self, key, fn):
        stat = self.stats[key] = [0, 0.0, 0.0]
        stack, counts, hook = self.stack, self.counts, HOOKS.get(key)

        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
            if hook is not None:
                hook(counts, stack[-1][0], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each listed function in every f0entrain module naming it.

        A function missing from the program is skipped; the metrics that
        need it report as absent.
        """
        originals = {}
        for key in FUNCTIONS:
            module_name, fn_name = key.split(".")
            try:
                module = importlib.import_module(f"f0entrain.{module_name}")
                originals[key] = getattr(module, fn_name)
            except (ImportError, AttributeError):
                continue
        modules = [
            m for name, m in sys.modules.items()
            if name.startswith("f0entrain") and not name.startswith("f0entrain.kernels")
        ]
        for key, original in originals.items():
            traced = self.wrap(key, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)

    def dump(self) -> dict:
        return {
            "functions": {
                k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()
            },
            "counts": dict(self.counts),
        }


# --- per-layer metrics, computed by the benchmark from the dumps ------------


class Absent(Exception):
    """A metric cannot be measured in this run; the message says why."""


def layer_self_s(trace: dict) -> dict[str, float]:
    """Self time per layer that was called at all, CATCH_ALL left out."""
    out: dict[str, float] = {}
    for key, f in trace["functions"].items():
        if not f["calls"] or key in CATCH_ALL:
            continue
        layer = key.split(".")[0]
        out[layer] = out.get(layer, 0.0) + f["self_s"]
    return out


def unattributed_s(trace: dict) -> float:
    """Self time of the CATCH_ALL orchestrators."""
    return sum(f["self_s"] for k, f in trace["functions"].items() if k in CATCH_ALL)


def layer_metrics(
    synth_trace: dict,
    run_trace: dict,
    from_wav: bool,
    synth_files: int,
    synth_bytes: int,
    bundle_bytes: int,
    import_s: float,
    traced_wall_s: float,
    run_s: float,
) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: {value, unit}} and notes on absent ones."""
    fns, counts = run_trace["functions"], run_trace["counts"]

    def need(table, key):
        f = table.get(key)
        if f is None:
            raise Absent(f"f0entrain.{key} is not in the program")
        if f["calls"] == 0 and (from_wav or key not in WAV_ONLY):
            raise Absent(f"f0entrain.{key} was not called in this run")
        return f

    def total(key):
        return need(fns, key)["total_s"]

    def calls(key):
        return need(fns, key)["calls"]

    def counted(name, source):
        """A work count, absent when the function it comes from is."""
        def value():
            need(fns, source)
            return counts.get(name, 0)
        return value

    def self_s(keys):
        return sum(need(fns, k)["self_s"] for k in keys)

    def per(num_key, den_name, scale):
        num, den = total(num_key), counts.get(den_name, 0)
        if den == 0:
            raise Absent(f"no {den_name} in this run")
        return num / den * scale

    def layer(prefix):
        return self_s(k for k in FUNCTIONS if k.startswith(prefix + "."))

    specs = [
        ("synth.s", "s", lambda: need(synth_trace["functions"], "synth.gen_corpus")["total_s"]),
        ("synth.files", "count", lambda: synth_files),
        ("synth.bytes", "bytes", lambda: synth_bytes),
        ("ingest.manifest_s", "s", lambda: total("ingest.load_manifest")),
        ("ingest.f0_s", "s", lambda: total("ingest.load_f0_csv")),
        ("ingest.f0_files", "count", lambda: calls("ingest.load_f0_csv")),
        ("ingest.f0_rows", "count", counted("ingest.f0_rows", "ingest.load_f0_csv")),
        ("ingest.align_s", "s", lambda: total("ingest.load_alignment")),
        ("ingest.align_words", "count", counted("ingest.align_words", "ingest.load_alignment")),
        ("ingest.words_untimed", "count", counted("ingest.words_untimed", "ingest.load_alignment")),
        ("ingest.f0_write_s", "s", lambda: total("ingest.write_f0_csv")),
        ("ingest.f0_write_files", "count", lambda: calls("ingest.write_f0_csv")),
        ("pitch.s", "s", lambda: total("pitch.read_wav") + total("pitch.estimate_f0")),
        ("pitch.audio_s", "s", counted("pitch.audio_s", "pitch.read_wav")),
        ("pitch.frames", "count", counted("pitch.frames", "pitch.estimate_f0")),
        ("preprocess.s", "s", lambda: layer("preprocess")),
        ("preprocess.samples", "count", counted("preprocess.samples", "preprocess.sg_smooth")),
        ("preprocess.outliers_replaced", "count",
         counted("preprocess.outliers_replaced", "preprocess.two_pass_outlier")),
        ("preprocess.short_tracks", "count",
         counted("preprocess.short_tracks", "preprocess.two_pass_outlier")),
        ("features.s", "s", lambda: layer("features")),
        ("features.words", "count", counted("features.words", "features.parameterize_utterance")),
        ("features.words_dropped", "count",
         counted("features.words_dropped", "features.parameterize_utterance")),
        ("features.contours_s", "s", lambda: total("features.build_contours")),
        ("entrain.real_s", "s", lambda: total("entrain.compute_samples")),
        ("entrain.real_dtw", "count", counted("entrain.real_dtw", "entrain.dtw_distance")),
        ("entrain.surrogate_s", "s", lambda: total("entrain.other_distance")),
        ("entrain.surrogate_dtw", "count", counted("entrain.surrogate_dtw", "entrain.dtw_distance")),
        ("entrain.surrogate_us_per_dtw", "us",
         lambda: per("entrain.other_distance", "entrain.surrogate_dtw", 1e6)),
        ("entrain.dtw_cells", "count", counted("entrain.dtw_cells", "entrain.dtw_distance")),
        ("entrain.ns_per_cell", "ns", lambda: per("entrain.dtw_distance", "entrain.dtw_cells", 1e9)),
        ("entrain.norm_s", "s", lambda: total("entrain.normalize_samples")),
        ("stats.s", "s", lambda: layer("stats")),
        ("stats.tests", "count", lambda: calls("stats.paired_t_test") + calls("stats.pearson")),
        ("pipeline.renditions", "count",
         counted("pipeline.renditions", "pipeline.collect_renditions")),
        ("pipeline.write_s", "s", lambda: self_s(WRITERS)),
        ("pipeline.bytes_written", "bytes", lambda: bundle_bytes),
        ("pipeline.checksum_s", "s", lambda: total("pipeline.corpus_checksum")),
        ("cli.import_s", "s", lambda: import_s),
        ("trace.overhead_s", "s", lambda: traced_wall_s - run_s),
        ("trace.coverage", "ratio",
         lambda: sum(f["self_s"] for k, f in fns.items() if k not in CATCH_ALL) / traced_wall_s),
    ]
    metrics, notes = {}, []
    for name, unit, value in specs:
        try:
            metrics[name] = {"value": value(), "unit": unit}
        except Absent as exc:
            notes.append(f"{name}: absent, {exc}")
    return metrics, notes


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    import f0entrain.cli

    tracer = Tracer()
    tracer.install()
    try:
        return f0entrain.cli.main(cli_args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
