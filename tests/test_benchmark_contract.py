"""The benchmark's traced run still finds every layer it reports.

``perfbench/tracing.py`` wraps f0entrain functions by name from outside
the program; a renamed function, a changed call pattern or result shape
makes a per-layer metric read "absent", and the benchmark's traced run
then prints no result. This test runs the tracer as the benchmark does,
as a child process on a small synth corpus, once from F0 CSVs and once
from WAVs, and requires every ``per_layer`` metric that
``BENCHMARK.json`` names. It only reads ``perfbench/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PACKAGE_ROOT, render_wavs

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(stats: Path, cwd: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    res = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracing.py"), str(stats), *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(stats.read_text())


@pytest.fixture(scope="module")
def traced_corpus(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    synth_trace = _traced(
        work / "synth.json", work,
        "synth", "--dyads", "4", "--utts", "2", "--eps", "0.5", "--seed", "3",
        "--scores-coupling", "0.5", "--out", "corpus",
    )
    render_wavs(work / "corpus")
    return work, synth_trace


@pytest.mark.parametrize("from_wav", [False, True], ids=["csv", "wav"])
def test_traced_run_reports_every_layer_metric(traced_corpus, from_wav):
    work, synth_trace = traced_corpus
    manifest = "corpus/manifest_wav.json" if from_wav else "corpus/manifest.json"
    out = "report_wav" if from_wav else "report_csv"
    args = ["run", "--manifest", manifest, "--scores", "corpus/scores.csv", "--out", out]
    run_trace = _traced(work / f"{out}.json", work, *args, *(["--from-wav"] if from_wav else []))

    # the sizes and wall times are the benchmark's own measurements; any
    # value serves to check which metrics the traces can give
    metrics, notes = _tracing().layer_metrics(
        synth_trace=synth_trace,
        run_trace=run_trace,
        from_wav=from_wav,
        synth_files=1,
        synth_bytes=1,
        bundle_bytes=1,
        import_s=0.1,
        traced_wall_s=1.0,
        run_s=1.0,
    )
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert notes == []
    assert sorted(metrics) == sorted(declared)
    counts = run_trace["counts"]
    assert counts["pipeline.renditions"] == 32
    if from_wav:
        assert run_trace["functions"]["pitch.estimate_f0"]["calls"] == 32
        assert counts["pitch.frames"] == counts["ingest.f0_rows"] > 0
    else:
        # the work each layer does: 16 events x 5 features real DTWs, two
        # same-sex surrogates on two texts per speaker and feature, every
        # parsed word kept
        assert counts["entrain.real_dtw"] == 80
        assert counts["entrain.surrogate_dtw"] == 160
        assert counts["entrain.dtw_cells"] == 29040
        assert counts["features.words"] == counts["ingest.align_words"]
