import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from f0entrain import ingest, pipeline, stats, synth
from f0entrain.cli import main
from f0entrain.pitch import Wave, write_wav
from f0entrain.stats import GridCell

from conftest import PACKAGE_ROOT, run_cli


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=5, noise_eps=0.8, seed=21), root)
    return root


def _bundle_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_run_bundle_contents(corpus, tmp_path):
    out = tmp_path / "bundle"
    code = main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "features.csv", "dtw_samples.csv", "entrain.csv", "validate.csv",
        "ttest.csv", "dyads.csv", "grid.csv", "run.json",
    } <= names
    # no scores given: grid is header-only
    assert (out / "grid.csv").read_text() == "feature,criterion,r,p,n,significant,trend\n"
    header = (out / "features.csv").read_text().splitlines()[0]
    assert header == "speaker,utterance,word_index,word,start_s,end_s,mean,median,slope,range,drop"
    assert (out / "entrain.csv").read_text().splitlines()[0] == "speaker,feature,e_raw,e_opt,n_used"
    assert (out / "validate.csv").read_text().splitlines()[0] == (
        "speaker,feature,partner_distance,other_distance,n_surrogates"
    )
    assert (out / "dyads.csv").read_text().splitlines()[0] == "speaker_a,speaker_b,feature,inner_dyad"
    doc = json.loads((out / "run.json").read_text())
    assert doc["config"]["quantile_convention"] == "type7"
    assert len(doc["corpus_checksum"]) == 64


def test_run_json_round_trip(corpus, tmp_path):
    out = tmp_path / "first"
    assert main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out)]) == 0
    first = _bundle_bytes(out)
    # rerun configured solely by the recorded run.json
    assert main(["run", "--config", str(out / "run.json")]) == 0
    assert _bundle_bytes(out) == first


def test_flat_config_file(corpus, tmp_path):
    out = tmp_path / "cfg_out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"manifest={corpus / 'manifest.json'}\nout={out}\nwindow=9\norder=2\n# comment\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    doc = json.loads((out / "run.json").read_text())
    assert doc["config"]["window"] == 9
    assert doc["config"]["order"] == 2
    # flags override the config file
    out2 = tmp_path / "cfg_out2"
    assert main(["run", "--config", str(cfg), "--out", str(out2), "--window", "7"]) == 0
    assert json.loads((out2 / "run.json").read_text())["config"]["window"] == 7


def test_removed_config_key_rejected(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest={corpus / 'manifest.json'}\nout={tmp_path / 'x'}\nthreads=2\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_missing_f0_file_exits_2(corpus, tmp_path):
    doc = json.loads((corpus / "manifest.json").read_text())
    doc["utterances"][0]["imitator_f0"] = "f0/who_knows.csv"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run_cli("run", "--manifest", broken, "--out", tmp_path / "x")
    assert res.returncode == 2
    assert "who_knows.csv" in res.stderr


def test_invalid_manifest_exits_1(corpus, tmp_path):
    doc = json.loads((corpus / "manifest.json").read_text())
    doc["dyads"][0] = [doc["dyads"][0][0], doc["dyads"][0][0]]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run_cli("run", "--manifest", broken, "--out", tmp_path / "x")
    assert res.returncode == 1
    assert "self-dyad" in res.stderr


@pytest.mark.parametrize("field", ["speakers", "dyads", "utterances"])
def test_manifest_field_not_a_list_exits_1(corpus, tmp_path, field):
    doc = json.loads((corpus / "manifest.json").read_text())
    doc[field] = 5
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run_cli("run", "--manifest", broken, "--out", tmp_path / "x")
    assert res.returncode == 1
    assert res.stderr == f"error: {broken}: {field} must be a list\n"


def test_manifest_missing_field_names_file(corpus, tmp_path):
    doc = json.loads((corpus / "manifest.json").read_text())
    del doc["utterances"][0]["model_f0"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    res = run_cli("run", "--manifest", broken, "--out", tmp_path / "x")
    assert res.returncode == 1
    assert res.stderr == f"error: {broken}: utterances[0]: missing field 'model_f0'\n"


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
def test_import_sets_openblas_threads_unless_given(given, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    env["PYTHONPATH"] = PACKAGE_ROOT
    res = subprocess.run(
        [sys.executable, "-c", "import os, f0entrain; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == f"{expected}\n"


def test_preprocess_roundtrip(tmp_path):
    raw = tmp_path / "raw.csv"
    rows = ["time_s,f0_hz"]
    for i in range(60):
        value = "" if i % 17 == 5 else f"{200 + 10 * np.sin(i / 5):.6f}"
        rows.append(f"{i * 0.01:.6f},{value}")
    raw.write_text("\n".join(rows) + "\n")
    out = tmp_path / "clean.csv"
    assert main(["preprocess", str(raw), str(out)]) == 0
    track = ingest.load_f0_csv(out)
    assert track.fully_voiced
    assert len(track) == 60


def test_features_standalone(corpus, tmp_path):
    out = tmp_path / "features.csv"
    assert main(["features", "--manifest", str(corpus / "manifest.json"), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) > 1
    fields = lines[1].split(",")
    assert len(fields) == 11


def test_entrain_validate_dyads_standalone(corpus, tmp_path):
    assert main(["entrain", "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "entrain.csv").exists() and (tmp_path / "dtw_samples.csv").exists()
    assert main(["validate", "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    ttest_lines = (tmp_path / "ttest.csv").read_text().splitlines()
    assert ttest_lines[0] == "feature,t,df,p_value,sig"
    assert len(ttest_lines) == 6
    assert main(["dyads", "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path / "dyads.csv")]) == 0


def test_standalone_outputs_equal_run_bundle(corpus, tmp_path):
    manifest = str(corpus / "manifest.json")
    bundle = tmp_path / "bundle"
    assert main(["run", "--manifest", manifest, "--out", str(bundle)]) == 0
    # one-file subcommands write at --out, the others into the --out directory
    made = {}
    for command, files in (
        ("features", ["features.csv"]),
        ("entrain", ["dtw_samples.csv", "entrain.csv"]),
        ("validate", ["validate.csv", "ttest.csv"]),
        ("dyads", ["dyads.csv"]),
    ):
        out = tmp_path / command
        target = out / files[0] if len(files) == 1 else out
        out.mkdir()
        assert main([command, "--manifest", manifest, "--out", str(target)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        made.update((name, (out / name).read_bytes()) for name in files)
    assert len(made) == 6
    for name, data in made.items():
        assert data == (bundle / name).read_bytes(), name


def test_subcommands_run_only_the_stages_they_need(tmp_path, capsys):
    # perfect imitation: every distance is 0, so only e_opt's z-transform fails
    corpus_dir = tmp_path / "c"
    assert main(["synth", "--dyads", "4", "--utts", "2", "--out", str(corpus_dir)]) == 0
    manifest = str(corpus_dir / "manifest.json")
    for command in ("features", "dyads"):
        assert main([command, "--manifest", manifest, "--out", str(tmp_path / command)]) == 0
    assert main(["validate", "--manifest", manifest, "--out", str(tmp_path / "v")]) == 0
    assert main(["entrain", "--manifest", manifest, "--out", str(tmp_path / "e")]) == 1
    assert "zero variance" in capsys.readouterr().err


def test_synth_with_scores_then_grid(tmp_path):
    corpus_dir = tmp_path / "c"
    res = run_cli(
        "synth", "--dyads", 4, "--utts", 5, "--eps", 0.6, "--seed", 3,
        "--out", corpus_dir, "--scores-coupling", 0.7, "--scores-noise", 0.05,
    )
    assert res.returncode == 0, res.stderr
    assert (corpus_dir / "scores.csv").exists()
    out = tmp_path / "bundle"
    assert main(["run", "--manifest", str(corpus_dir / "manifest.json"),
                 "--scores", str(corpus_dir / "scores.csv"), "--out", str(out)]) == 0
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "feature,criterion,r,p,n,significant,trend"
    assert len(grid_lines) == 1 + 5 * 5
    keys = [tuple(line.split(",")[:2]) for line in grid_lines[1:]]
    assert keys == sorted(keys)


@pytest.mark.parametrize(
    "options, message",
    [
        (["--scores-coupling", "0.5"], "--scores-coupling needs --eps > 0"),
        (["--eps", "0.5", "--scores-coupling", "2"], "synth: coupling must be in [-1, 1]"),
        (["--eps", "0.5", "--scores-coupling", "0.5", "--scores-noise", "-1"],
         "synth: noise must be >= 0"),
        (["--utts", "0"], "synth: n_dyads and n_utterances must be >= 1"),
    ],
)
def test_synth_refuses_bad_options_before_writing(tmp_path, options, message):
    corpus_dir = tmp_path / "c"
    res = run_cli("synth", "--dyads", 4, "--utts", 2, "--out", corpus_dir, *options)
    assert res.returncode == 1
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert not corpus_dir.exists()


def test_untimed_words_reported_as_warning(tmp_path):
    corpus_dir = tmp_path / "c"
    assert main(["synth", "--dyads", "2", "--utts", "1", "--out", str(corpus_dir)]) == 0
    align = corpus_dir / "align" / "S00_000_model.json"
    doc = json.loads(align.read_text())
    doc["segments"][0]["words"].append({"word": "uh"})
    align.write_text(json.dumps(doc))
    res = run_cli("features", "--manifest", corpus_dir / "manifest.json",
                  "--out", tmp_path / "features.csv")
    assert res.returncode == 0, res.stderr
    assert res.stderr == "warning: 1 word(s) without timestamps skipped\n"


def test_stats_subcommands(corpus, tmp_path):
    assert main(["validate", "--manifest", str(corpus / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    out = tmp_path / "tt.csv"
    assert main(["stats", "ttest", "--csv", str(tmp_path / "validate.csv"),
                 "--x", "partner_distance", "--y", "other_distance",
                 "--by", "feature", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "group,t,df,p_value,p_one_sided,significant,trend"
    assert len(lines) == 6

    out = tmp_path / "pr.csv"
    assert main(["stats", "pearson", "--csv", str(tmp_path / "validate.csv"),
                 "--x", "partner_distance", "--y", "other_distance", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "r,df,p_value,n,significant,trend"


def test_stats_icc_report(tmp_path, rng):
    rows = []
    for i in range(12):
        latent = rng.uniform(1.5, 4.5)
        for r in range(4):
            vals = np.clip(latent + rng.normal(0, 0.3, 4), 1, 5)
            rows.append(f"S{i:02d},R{r},{vals[0]:.3f},{vals[1]:.3f},{vals[2]:.3f},{vals[3]:.3f}")
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "speaker,rater,pronunciation,intonation,fluency,overall\n" + "\n".join(rows) + "\n"
    )
    out = tmp_path / "icc.csv"
    assert main(["stats", "icc", "--scores", str(scores), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "criterion,icc,p_value,ci_low,ci_high"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "pronunciation", "intonation", "fluency", "overall", "final",
    ]
    assert "<0.001" in lines[1]


def test_outlier_scope_speaker_flag(corpus, tmp_path):
    out_u = tmp_path / "utt"
    out_s = tmp_path / "spk"
    base = ["run", "--manifest", str(corpus / "manifest.json")]
    assert main(base + ["--out", str(out_u)]) == 0
    assert main(base + ["--out", str(out_s), "--outlier-scope", "speaker"]) == 0
    assert json.loads((out_s / "run.json").read_text())["config"]["outlier_scope"] == "speaker"
    # both scopes produce full, well-formed feature tables
    assert len((out_s / "features.csv").read_text().splitlines()) == len(
        (out_u / "features.csv").read_text().splitlines()
    )


def test_semitone_flag(corpus, tmp_path):
    out_hz = tmp_path / "hz"
    out_st = tmp_path / "st"
    base = ["run", "--manifest", str(corpus / "manifest.json")]
    assert main(base + ["--out", str(out_hz)]) == 0
    assert main(base + ["--out", str(out_st), "--semitone", "100"]) == 0
    mean_hz = float((out_hz / "features.csv").read_text().splitlines()[1].split(",")[6])
    mean_st = float((out_st / "features.csv").read_text().splitlines()[1].split(",")[6])
    # semitone means sit near 12 * log2(f/100), far below the Hz values
    assert mean_hz > 50 and abs(mean_st) < 40
    assert mean_st == pytest.approx(12 * np.log2(mean_hz / 100.0), abs=3.0)


def test_surrogate_pool_all_flag(corpus, tmp_path):
    out = tmp_path / "all"
    assert main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out),
                 "--surrogate-pool", "all"]) == 0
    rows = (out / "validate.csv").read_text().splitlines()[1:]
    # 8 speakers: 6 non-partners each with the pool opened up (vs 2 same-sex)
    assert {int(r.split(",")[4]) for r in rows} == {6}


def test_norm_se_reports_extra_column(corpus, tmp_path):
    out = tmp_path / "se"
    assert main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out),
                 "--norm", "se"]) == 0
    lines = (out / "entrain.csv").read_text().splitlines()
    assert lines[0] == "speaker,feature,e_raw,e_opt,n_used,e_opt_se"
    # the SE variant is the SD variant scaled by sqrt(retained pool size):
    # here the pool is 4 dyads x 5 utts x 2 directions = 40 samples/feature
    checked = 0
    for line in lines[1:]:
        fields = line.split(",")
        e_opt, e_opt_se = float(fields[3]), float(fields[5])
        if abs(e_opt) > 0.01:
            n_retained = (e_opt_se / e_opt) ** 2
            assert n_retained == pytest.approx(round(n_retained), abs=0.05)
            assert 4 <= round(n_retained) <= 40
            checked += 1
    assert checked > 0


def test_grid_row_formatting(tmp_path):
    cells = [GridCell("range", "fluency", -0.424, 0.0219, 29, True, True)]
    out_path = tmp_path / "grid.csv"
    pipeline.write_grid_csv(cells, out_path)
    lines = out_path.read_text().splitlines()
    assert lines[1].startswith("range,fluency,-0.424,0.0219,29,true,true")


def test_empty_grid_header_only(tmp_path):
    path = tmp_path / "grid.csv"
    pipeline.write_grid_csv([], path)
    assert path.read_text() == "feature,criterion,r,p,n,significant,trend\n"


def test_from_wav_pipeline(tmp_path):
    # two same-sex dyads reading two utterance indices from WAV audio
    fs = 16000
    rng = np.random.default_rng(8)
    (tmp_path / "wav").mkdir()
    (tmp_path / "align").mkdir()
    speakers = ["A", "B", "C", "D"]
    doc = {
        "speakers": [{"id": s, "sex": "F"} for s in speakers],
        "dyads": [["A", "B"], ["C", "D"]],
        "utterances": [],
    }
    base = {"A": 170.0, "B": 200.0, "C": 230.0, "D": 150.0}

    def render(speaker, index, role, freqs):
        words = []
        samples = []
        t0 = 0.0
        for w, freq in enumerate(freqs):
            dur = 0.26
            n = int(fs * dur)
            t = np.arange(n) / fs
            samples.append(0.4 * np.sin(2 * np.pi * freq * t))
            words.append({"word": f"w{w}", "start": round(t0, 6), "end": round(t0 + dur, 6)})
            t0 += dur
        name = f"{speaker}_{index}_{role}"
        write_wav(Wave(fs, np.concatenate(samples)), tmp_path / "wav" / f"{name}.wav")
        (tmp_path / "align" / f"{name}.json").write_text(
            json.dumps({"segments": [{"words": words}]})
        )
        return f"wav/{name}.wav", f"align/{name}.json"

    for a, b in (("A", "B"), ("C", "D")):
        for k in (0, 1):
            for imit, model in ((a, b), (b, a)):
                freqs = base[model] + 10.0 * rng.integers(-2, 3, size=4)
                model_wav, model_align = render(model, k, f"m{imit}", freqs)
                imit_wav, imit_align = render(imit, k, f"i{model}", freqs + rng.normal(0, 2, 4))
                doc["utterances"].append(
                    {
                        "index": k, "imitator": imit, "model": model,
                        "imitator_f0": imit_wav, "model_f0": model_wav,
                        "imitator_align": imit_align, "model_align": model_align,
                    }
                )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "bundle"
    assert main(["run", "--manifest", str(manifest), "--out", str(out), "--from-wav"]) == 0
    caches = list((tmp_path / "wav").glob("*.f0.csv"))
    assert len(caches) == 16  # one per rendition, reusable on the next run
    entrain_rows = (out / "entrain.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[2]) >= 0 for r in entrain_rows)
    # rerun hits the caches and reproduces the bundle byte for byte
    first = _bundle_bytes(out)
    assert main(["run", "--manifest", str(manifest), "--out", str(out), "--from-wav"]) == 0
    assert _bundle_bytes(out) == first
