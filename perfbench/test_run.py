"""Self-test of the benchmark: ``python3 -m pytest perfbench``.

Runs every workload at a tiny shape (4 dyads x 2 texts) in both modes,
checks that every metric of BENCHMARK.json is printed with its unit, and
that a flipped bundle byte counts as a failure.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def tiny(name: str) -> bench.Workload:
    # another name, so no recorded full-size digest applies
    return dataclasses.replace(bench.WORKLOADS[name], name=f"{name}-tiny", dyads=4, utts=2)


def measure_and_report(ws, trace, capsys, after_run=None):
    result = bench.measure(ws, SEED, 0.0, trace, ROOT, after_run=after_run)
    bench.report(ws, result)
    lines = capsys.readouterr().out.splitlines()
    return result, lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_printed_with_its_unit(name, trace, capsys):
    _, lines, last = measure_and_report(tiny(name), trace, capsys)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for m in section:
        assert any(
            line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines
        ), m["name"]
    for name_only in ("fail_ratio: ", "run_s_tail: ", "waiting time: ", "benchmark process peak RSS: "):
        assert any(line.startswith(name_only) for line in lines), name_only
    if trace:
        assert any("; unattributed (self time of the orchestrators) " in line for line in lines)


def test_benchmark_process_imports_no_numpy():
    # a child's peak RSS starts at its parent's, so the parent must stay small
    code = "import sys; sys.path.insert(0, 'perfbench'); import run; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_flipped_bundle_byte_is_a_failure(capsys, monkeypatch):
    ws = tiny("c06")
    clean, _, _ = measure_and_report(ws, False, capsys)
    monkeypatch.setattr(bench, "load_expected", lambda workload, seed: clean["checker"].expected)

    def flip(report: Path) -> None:
        path = report / "dtw_samples.csv"
        data = bytearray(path.read_bytes())
        data[-2] ^= 1
        path.write_bytes(bytes(data))

    _, lines, last = measure_and_report(ws, False, capsys, after_run=flip)
    assert last["attempted"] == 1 and last["failed"] == 1 and not last["correct"]
    assert any(line.startswith("failure: bundle digest") for line in lines)
    assert "fail_ratio: 1.000000 ratio (1 failed of 1 attempted)" in lines


def layer_metrics(fns, from_wav, counts=None):
    trace = {"functions": fns, "counts": counts or {"entrain.surrogate_dtw": 4, "entrain.dtw_cells": 400}}
    return tracing.layer_metrics(trace, trace, from_wav, 1, 1, 1, 0.3, 2.0, 1.5)


PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
DTW_COUNTS = {"entrain.real_dtw", "entrain.surrogate_dtw", "entrain.dtw_cells", "entrain.ns_per_cell",
              "entrain.surrogate_us_per_dtw"}


@pytest.mark.parametrize("how", ["removed", "not called"])
def test_metrics_of_a_missing_layer_function_report_as_absent(how):
    fns = {k: {"calls": 1, "total_s": 0.1, "self_s": 0.1} for k in tracing.FUNCTIONS}
    if how == "removed":
        del fns["entrain.dtw_distance"]
    else:
        fns["entrain.dtw_distance"] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    # the DTW counts come from the calls of entrain.dtw_distance: none here
    metrics, notes = layer_metrics(fns, from_wav=False, counts={"pitch.frames": 1})
    assert set(metrics) == PER_LAYER - DTW_COUNTS
    assert {note.split(":")[0] for note in notes} == DTW_COUNTS
    reason = "is not in the program" if how == "removed" else "was not called in this run"
    assert all(reason in note or "no entrain." in note for note in notes), notes


def test_wav_only_functions_read_zero_unless_the_run_is_from_wav():
    fns = {k: {"calls": 1, "total_s": 0.1, "self_s": 0.1} for k in tracing.FUNCTIONS}
    for key in tracing.WAV_ONLY:
        fns[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    wav_metrics = {"pitch.s", "pitch.audio_s", "pitch.frames", "ingest.f0_write_s", "ingest.f0_write_files"}
    metrics, notes = layer_metrics(fns, from_wav=False)
    assert set(metrics) == PER_LAYER and not notes
    assert all(metrics[name]["value"] == 0 for name in wav_metrics)
    metrics, notes = layer_metrics(fns, from_wav=True)
    assert set(metrics) == PER_LAYER - wav_metrics


def test_coverage_leaves_out_the_orchestrators():
    fns = {k: {"calls": 1, "total_s": 0.1, "self_s": 0.1} for k in tracing.FUNCTIONS}
    metrics, _ = layer_metrics(fns, from_wav=True)
    traced = len(tracing.FUNCTIONS) - len(tracing.CATCH_ALL)
    assert metrics["trace.coverage"]["value"] == pytest.approx(traced * 0.1 / 2.0)
    assert "pipeline" in tracing.layer_self_s({"functions": fns})
    assert tracing.unattributed_s({"functions": fns}) == pytest.approx(0.1 * len(tracing.CATCH_ALL))


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert bench.tail_note([1.0] * 10).startswith("run_s_tail: absent, 10 samples")
    samples = [float(i) for i in range(1, 22)]   # 21 samples: p50 has 10 beyond it
    assert bench.tail_note(samples) == "run_s_tail: 11.000000 s (p50 of 21 samples)"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "c06", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
