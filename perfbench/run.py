#!/usr/bin/env python3
"""End-to-end benchmark of the f0entrain batch path: ``synth`` then ``run``.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload c06 --seed 3 --seconds 20 --trace 0

Without ``--workload`` it runs every workload in turn. The self-test is
``python3 -m pytest perfbench``.

Set-up builds the workload's corpus with the command the README gives
users (``f0entrain synth ... --scores-coupling 0.5 --scores-noise 0.1``),
several times, and reports the median wall time as ``setup_s``. The timed
phase is a closed loop with one client: one ``f0entrain run`` child process
at a time, default options, until ``--seconds`` have passed. Every child is
a fresh interpreter running ``python -m f0entrain.cli`` from ``src/``, so
its wall time includes start-up and its peak RSS is its own.

Every run's bundle is checked: the exit code, a SHA-256 digest of the
bundle against ``expected.json`` (by workload and seed, recorded for seeds
0-19 when the benchmark was added; for another seed the runs of one
process must agree with each other), and the science check that all five
``ttest.csv`` rows are one-sided significant with partner < other.

For ``wav_cold``, ``wavs.py`` renders the corpus's F0 tracks as WAVs in
untimed set-up. The benchmark process itself imports no numpy, so it stays
small: a child's peak RSS as ``wait4`` reports it never reads below its
parent's.

``--trace 1`` adds a traced run (``tracing.py``) after the timed runs.
It wraps the public functions of each module under ``src/f0entrain/`` from
outside the program and reports per-layer metrics; its bundle must equal
the timed runs' byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import layer_metrics, layer_self_s, unattributed_s

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
TRACE_CHILD = HERE / "tracing.py"
WAV_CHILD = HERE / "wavs.py"

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_BEYOND = 10          # a tail percentile needs this many samples beyond it
FEATURES = ("mean", "median", "slope", "range", "drop")

# Every text has exactly this many words (synth draws 6-13 per text by
# default), so every seed gives the same amount of work: with the default
# draw, the DTW cell count of crowd's 8 texts spreads over 24 % of its
# median (interquartile range, 200 seeds). Word durations and F0 values
# still vary with the seed.
WORDS_PER_TEXT = 10


@dataclass(frozen=True)
class Workload:
    name: str
    dyads: int
    utts: int
    from_wav: bool = False


WORKLOADS = {
    # Shape of the tier-1 recovery gate and the README quick start: ingest
    # and features dominate, DTW is about a quarter of the run.
    "c06": Workload("c06", dyads=8, utts=40),
    # Many speakers, few texts: surrogate DTWs grow with the square of the
    # speaker count and dominate the run. 28 dyads keeps a run near 4 s, so
    # a 20 s run of the benchmark times at least five of them.
    "crowd": Workload("crowd", dyads=28, utts=8),
    # WAV input with every F0 cache deleted before each run: pitch tracking
    # dominates. Four dyads is the smallest synth shape that gives every
    # speaker a same-sex non-partner; with two, run exits 1 ("empty
    # surrogate pool"), a known defect. Four texts keep a run near 4 s.
    "wav_cold": Workload("wav_cold", dyads=4, utts=4, from_wav=True),
}

WAIT_NOTE = (
    "waiting time: none measured; the run is one single-threaded process "
    "that waits on no queue, lock or other thread"
)


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(src: Path) -> dict:
    """The caller's environment without F0ENTRAIN_* and with src/ importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("F0ENTRAIN_")}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> Child:
    """Run one child to completion; wall time and peak RSS from wait4."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "f0entrain.cli", *args]


def synth_args(ws: Workload, seed: int, out: str) -> list[str]:
    return [
        "synth", "--dyads", str(ws.dyads), "--utts", str(ws.utts), "--eps", "0.5",
        "--seed", str(seed), "--out", out,
        "--words-min", str(WORDS_PER_TEXT), "--words-max", str(WORDS_PER_TEXT),
        "--scores-coupling", "0.5", "--scores-noise", "0.1",
    ]


def run_args(ws: Workload) -> list[str]:
    manifest = "corpus/manifest_wav.json" if ws.from_wav else "corpus/manifest.json"
    args = ["run", "--manifest", manifest, "--scores", "corpus/scores.csv", "--out", "report"]
    return args + ["--from-wav"] if ws.from_wav else args


# ---------------------------------------------------------------------------
# corpus


def corpus_facts(corpus: Path, ws: Workload, audio_s: float) -> dict:
    """Size of the inputs one run reads."""
    doc = json.loads((corpus / "manifest.json").read_text())
    renditions = {rec[k] for rec in doc["utterances"] for k in ("imitator_f0", "model_f0")}
    track_dir = "wav" if ws.from_wav else "f0"
    manifest = "manifest_wav.json" if ws.from_wav else "manifest.json"
    files = [corpus / manifest, corpus / "scores.csv"]
    files += sorted((corpus / track_dir).iterdir()) + sorted((corpus / "align").iterdir())
    return {
        "events": len(doc["utterances"]),
        "renditions": len(renditions),
        "files": len(files),
        "input_bytes": sum(f.stat().st_size for f in files),
        "audio_s": round(audio_s, 3),
    }


# ---------------------------------------------------------------------------
# correctness


def bundle_digest(report: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(report.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def science_ok(report: Path) -> bool:
    """All five features: t < 0 and one-sided significant (partner < other)."""
    rows = (report / "ttest.csv").read_text().splitlines()[1:]
    seen = set()
    for row in rows:
        feature, t, _df, _p, sig = row.split(",")
        if float(t) < 0 and sig == "*":
            seen.add(feature)
    return seen == set(FEATURES) and len(rows) == len(FEATURES)


class Checker:
    """Judges each bundle; a failure is a nonzero exit, a digest mismatch
    or a failed science check."""

    def __init__(self, expected: str | None):
        self.expected = expected
        self.recorded = expected is not None
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, code: int, report: Path) -> None:
        self.attempted += 1
        reason = None
        if code != 0:
            reason = f"exit code {code}"
        else:
            digest = bundle_digest(report)
            if self.expected is None:
                self.expected = digest
            if digest != self.expected:
                reason = f"bundle digest {digest[:12]} != expected {self.expected[:12]}"
            elif not science_ok(report):
                reason = "ttest.csv: not every feature has partner < other, significant"
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)


def load_expected(workload: str, seed: int) -> str | None:
    doc = json.loads(EXPECTED.read_text())
    return doc.get(workload, {}).get(str(seed))


# ---------------------------------------------------------------------------
# measurement


def prepare_run(work: Path, ws: Workload) -> None:
    """Untimed: remove the last bundle and, for a cold run, the F0 caches."""
    shutil.rmtree(work / "report", ignore_errors=True)
    if ws.from_wav:
        for cache in (work / "corpus" / "wav").glob("*.wav.f0.csv"):
            cache.unlink()


def timed_runs(ws, work, env, seconds, checker, after_run=None) -> list[Child]:
    """Closed loop: start runs until ``seconds`` have passed (at least one)."""
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        prepare_run(work, ws)
        child = run_child(cli(*run_args(ws)), work, env, work / "run.log")
        if after_run is not None:
            after_run(work / "report")
        checker.check(child.code, work / "report")
        runs.append(child)
    return runs


def setup_corpus(ws, seed, work, env) -> tuple[list[float], dict]:
    """Synth the corpus SETUP_REPEATS times; returns the walls and the facts."""
    walls = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        child = run_child(cli(*synth_args(ws, seed, "corpus")), work, env, work / "synth.log")
        if child.code != 0:
            fail(f"synth exited {child.code}: {(work / 'synth.log').read_text()[-2000:]}")
        walls.append(child.wall_s)
    audio_s = 0.0
    if ws.from_wav:
        wavs = subprocess.run(
            [sys.executable, str(WAV_CHILD), "corpus"],
            cwd=work, env=env, capture_output=True, text=True, check=False,
        )
        if wavs.returncode != 0:
            fail(f"rendering WAVs failed: {wavs.stderr[-2000:]}")
        audio_s = float(wavs.stdout)
    return walls, corpus_facts(work / "corpus", ws, audio_s)


def tail_note(samples: list[float]) -> str:
    """The highest percentile with TAIL_BEYOND samples beyond it, or why not.

    At 20 s a run of the benchmark times 5-10 samples, so it reports absent.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return (
            f"run_s_tail: absent, {n} samples in this run; a percentile with "
            f"{TAIL_BEYOND} samples beyond it needs at least {TAIL_BEYOND + 1}"
        )
    k = n - 1 - TAIL_BEYOND  # sorted index with exactly TAIL_BEYOND samples above
    value = sorted(samples)[k]
    return f"run_s_tail: {value:.6f} s (p{100.0 * k / (n - 1):.0f} of {n} samples)"


def rss_note() -> str:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return f"benchmark process peak RSS: {own:.1f} MB (the floor under peak_rss_mb)"


def environment(root: Path, seed: int, numpy_version: str) -> dict:
    kernels = root / "src" / "f0entrain" / "kernels"
    compiled = sorted(p.name for p in kernels.glob("_core*") if p.suffix in (".so", ".pyd"))
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "dtw_extension": compiled[0] if compiled else "absent (pure-Python DTW)",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def traced_metrics(ws, seed, work, env, run_s, checker) -> tuple[dict, list[str]]:
    """Per-layer metrics from one traced synth and one traced run."""
    imports = []
    for _ in range(IMPORT_REPEATS):
        child = run_child([sys.executable, "-c", "import f0entrain.cli"], work, env, work / "import.log")
        imports.append(child.wall_s)

    shutil.rmtree(work / "corpus_traced", ignore_errors=True)
    synth_stats = work / "trace_synth.json"
    child = run_child(
        [sys.executable, str(TRACE_CHILD), str(synth_stats), *synth_args(ws, seed, "corpus_traced")],
        work, env, work / "trace_synth.log",
    )
    if child.code != 0:
        fail(f"traced synth exited {child.code}: {(work / 'trace_synth.log').read_text()[-2000:]}")
    corpus_bytes = sum(p.stat().st_size for p in (work / "corpus_traced").rglob("*") if p.is_file())
    corpus_files = sum(1 for p in (work / "corpus_traced").rglob("*") if p.is_file())

    prepare_run(work, ws)
    run_stats = work / "trace_run.json"
    traced = run_child(
        [sys.executable, str(TRACE_CHILD), str(run_stats), *run_args(ws)],
        work, env, work / "trace_run.log",
    )
    checker.check(traced.code, work / "report")
    if traced.code != 0:
        return {}, [f"traced run exited {traced.code}"]
    bundle_bytes = sum(p.stat().st_size for p in (work / "report").iterdir())
    run_trace = json.loads(run_stats.read_text())
    layers = sorted(layer_self_s(run_trace).items(), key=lambda kv: -kv[1])
    metrics, notes = layer_metrics(
        synth_trace=json.loads(synth_stats.read_text()),
        run_trace=run_trace,
        from_wav=ws.from_wav,
        synth_files=corpus_files,
        synth_bytes=corpus_bytes,
        bundle_bytes=bundle_bytes,
        import_s=statistics.median(imports),
        traced_wall_s=traced.wall_s,
        run_s=run_s,
    )
    notes.append(
        "layer self time in the traced run: " + ", ".join(f"{k} {v:.3f} s" for k, v in layers)
        + f"; unattributed (self time of the orchestrators) {unattributed_s(run_trace):.3f} s"
    )
    return metrics, notes


def measure(ws: Workload, seed: int, seconds: float, trace: bool, root: Path, after_run=None) -> dict:
    """Set up, run the timed loop (and the traced run); returns the result."""
    src = root / "src"
    if not (src / "f0entrain" / "cli.py").is_file():
        fail(f"no f0entrain sources under {src}; run from the root of a checkout")
    env = child_env(src)
    work = root / ".bench_work" / f"{ws.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # untimed warm-up: writes the bytecode caches and checks which
        # f0entrain the children import
        probe = subprocess.run(
            [sys.executable, "-c",
             "import f0entrain.cli, f0entrain, numpy; print(f0entrain.__file__); print(numpy.__version__)"],
            cwd=work, env=env, capture_output=True, text=True, check=False,
        )
        found = probe.stdout.splitlines()
        if probe.returncode != 0 or len(found) != 2 or not Path(found[0]).is_relative_to(src):
            fail(f"children do not import f0entrain from {src}: {probe.stdout}{probe.stderr}")

        setup_walls, facts = setup_corpus(ws, seed, work, env)
        checker = Checker(load_expected(ws.name, seed))
        runs = timed_runs(ws, work, env, seconds, checker, after_run)
        run_walls = [r.wall_s for r in runs]
        run_s = statistics.median(run_walls)
        notes = [tail_note(run_walls), WAIT_NOTE, rss_note()]
        if trace:
            metrics, trace_notes = traced_metrics(ws, seed, work, env, run_s, checker)
            notes += trace_notes
        else:
            metrics = {
                "run_s": metric(run_s, "s"),
                "events_per_s": metric(facts["events"] / run_s, "1/s"),
                "setup_s": metric(statistics.median(setup_walls), "s"),
                "peak_rss_mb": metric(statistics.median(r.peak_rss_mb for r in runs), "MB"),
            }
        return {
            "environment": environment(root, seed, found[1]),
            "corpus": facts,
            "checker": checker,
            "notes": notes,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(ws: Workload, result: dict) -> None:
    checker = result["checker"]
    print(f"workload: {ws.name}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print("corpus: " + json.dumps(result["corpus"], sort_keys=True))
    digest = "recorded" if checker.recorded else "not recorded for this seed; runs checked against each other"
    print(f"bundle_digest: {checker.expected} ({digest})")
    print(
        f"fail_ratio: {checker.failed / checker.attempted:.6f} ratio "
        f"({checker.failed} failed of {checker.attempted} attempted)"
    )
    for reason in checker.reasons:
        print(f"failure: {reason}")
    for note in result["notes"]:
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result["metrics"],
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in [args.workload] if args.workload else list(WORKLOADS):
        ws = WORKLOADS[name]
        report(ws, measure(ws, args.seed, args.seconds, bool(args.trace), Path.cwd()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
