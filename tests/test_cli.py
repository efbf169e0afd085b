import argparse
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain import entrain, ingest, pipeline, stats, synth
from f0entrain.cli import CONFIG_TYPES, build_parser, load_config_file, main
from f0entrain.errors import DataError, ParseError
from f0entrain.stats import GridCell

from conftest import PACKAGE_ROOT, json_files, nudge_f0_byte, render_wavs, run_cli, write_wav


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


def test_replay_of_a_changed_corpus_exits_1_and_keeps_the_bundle(tmp_path, capsys):
    manifest = synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5), tmp_path)
    out = tmp_path / "bundle"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    first = _bundle_bytes(out)
    recorded = json.loads(first["run.json"])["corpus_checksum"]
    nudge_f0_byte(tmp_path / json.loads(manifest.read_text())["utterances"][0]["model_f0"])
    capsys.readouterr()

    assert main(["run", "--config", str(out / "run.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: corpus checksum ")
    changed = pipeline.corpus_checksum(manifest, ingest.load_manifest(manifest))
    assert f"{changed} differs from the recorded {recorded}" in err
    assert _bundle_bytes(out) == first
    # naming the corpus on the command line runs on it as it is now
    assert main(["run", "--config", str(out / "run.json"), "--manifest", str(manifest)]) == 0
    assert json.loads((out / "run.json").read_text())["corpus_checksum"] == changed


def test_replay_checks_the_corpus_before_the_dtw_stage(tmp_path, capsys, monkeypatch):
    manifest = synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5), tmp_path)
    out = tmp_path / "bundle"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    recorded = json.loads((out / "run.json").read_text())["corpus_checksum"]
    nudge_f0_byte(tmp_path / json.loads(manifest.read_text())["utterances"][0]["model_f0"])
    changed = pipeline.corpus_checksum(manifest, ingest.load_manifest(manifest))
    capsys.readouterr()

    def no_dtw(*args, **kwargs):
        raise AssertionError("the DTW stage ran on a corpus whose checksum differs")

    monkeypatch.setattr(entrain, "measure_corpus", no_dtw)
    assert main(["run", "--config", str(out / "run.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {manifest}: corpus checksum {changed} differs from the recorded "
        f"{recorded}; give --manifest to run on this corpus\n"
    )


def test_recorded_checksum_must_be_text(corpus, tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"config": {"manifest": str(corpus / "manifest.json"),
                                           "out": str(tmp_path / "x")}, "corpus_checksum": 7}))
    assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: corpus_checksum must be a string, got 7\n"
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize(
    "flags, config, named",
    [
        (["--window", "4"], None, "window must be a positive odd integer"),
        ([], ("run.cfg", "window=abc\n"), "run.cfg: bad value for 'window'"),
        ([], ("run.json", '{"config": {"window": 7,'), "run.json: not valid JSON"),
        ([], ("run.json", "[7]"), "run.json: expected a JSON object of options"),
        ([], ("run.cfg", "norm=xx\n"), "norm must be one of sd, se, got 'xx'"),
        (["--semitone", "-5"], None, "bad run option: semitone must be a finite reference > 0 Hz"),
        (["--semitone", "0"], None, "bad run option: semitone must be a finite reference > 0 Hz"),
        (["--alpha", "nan"], None, "bad run option: alpha must be in (0, 1), got nan"),
        (["--alpha", "7"], None, "bad run option: alpha must be in (0, 1), got 7.0"),
        (["--trend", "-1"], None, "bad run option: trend must be in (0, 1), got -1.0"),
        ([], ("run.json", '{"alpha": "nan"}'), "bad run option: alpha must be in (0, 1)"),
        (["--from-wav", "--pitch-floor", "700", "--pitch-ceiling", "600"], None,
         "bad run option: need 0 < pitch floor < pitch ceiling, got floor=700.0, ceiling=600.0"),
    ],
    ids=[
        "flag-even-window", "config-window-text", "config-json-broken", "config-json-list",
        "config-unknown-norm", "flag-negative-semitone", "flag-zero-semitone", "flag-nan-alpha",
        "flag-alpha-above-1", "flag-negative-trend", "config-nan-alpha", "flag-floor-over-ceiling",
    ],
)
def test_bad_run_option_rejected_before_input(tmp_path, capsys, flags, config, named):
    # the manifest does not exist: reading it would exit 2, not 1
    out = tmp_path / "out"
    args = ["run", "--manifest", str(tmp_path / "absent.json"), "--out", str(out), *flags]
    if config is not None:
        name, text = config
        (tmp_path / name).write_text(text)
        args += ["--config", str(tmp_path / name)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, named",
    [
        (["grid", "--entrain", "e.csv", "--scores", "s.csv"], ["--alpha", "nan"],
         "alpha must be in (0, 1), got nan"),
        (["grid", "--entrain", "e.csv", "--scores", "s.csv"], ["--trend", "1"],
         "trend must be in (0, 1), got 1.0"),
        (["stats", "ttest", "--csv", "v.csv", "--x", "a", "--y", "b"], ["--alpha", "7"],
         "alpha must be in (0, 1), got 7.0"),
        (["stats", "ttest", "--csv", "v.csv", "--x", "a", "--y", "b"], ["--trend", "-0.1"],
         "trend must be in (0, 1), got -0.1"),
        (["stats", "pearson", "--csv", "v.csv", "--x", "a", "--y", "b"], ["--alpha", "0"],
         "alpha must be in (0, 1), got 0.0"),
        (["stats", "icc", "--scores", "s.csv"], ["--alpha", "-1"],
         "alpha must be in (0, 1), got -1.0"),
    ],
    ids=["grid-nan-alpha", "grid-trend-1", "ttest-alpha-7", "ttest-negative-trend",
         "pearson-zero-alpha", "icc-negative-alpha"],
)
def test_bad_level_rejected_before_input(tmp_path, monkeypatch, capsys, command, flags, named):
    # no input file exists: reading one would exit 2, not 1
    monkeypatch.chdir(tmp_path)
    assert main([*command, *flags, "--out", "out.csv"]) == 1
    assert capsys.readouterr().err == f"error: bad option: {named}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "doc, key",
    [({"window": 8.9}, "window"), ({"from_wav": "maybe"}, "from_wav"), ({"window": True}, "window")],
    ids=["int-given-float", "bool-given-text", "int-given-bool"],
)
def test_config_value_of_wrong_type_rejected(tmp_path, doc, key):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"config": doc}))
    with pytest.raises(ParseError, match="^" + re.escape(f"{path}: bad value for '{key}'")):
        load_config_file(path)


def test_config_text_values_take_the_field_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("window=9\nalpha=0.01\nfrom_wav=yes\nsemitone=none\nnorm=se\n")
    assert load_config_file(path) == {
        "window": 9, "alpha": 0.01, "from_wav": True, "semitone": None, "norm": "se",
    }


def test_run_flags_are_the_run_config_fields():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in commands.choices["run"]._actions if a.dest not in ("help", "config")}
    assert set(flags) == set(CONFIG_TYPES)
    for name, kind in CONFIG_TYPES.items():
        action = flags[name]
        assert action.option_strings == ["--" + name.replace("_", "-")]
        assert action.default is None  # an unset flag leaves a config file's value
        if kind is bool:
            assert isinstance(action, argparse._StoreTrueAction)
        else:
            assert (action.type or str) is kind, name
        assert action.choices == pipeline.CHOICES.get(name), name


SYNTH = ["synth", "--dyads", "4", "--utts", "2", "--eps", "0.5", "--scores-coupling", "0.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SYNTH, "--base-low", "90"], "unrecognized arguments: --base-low 90"),
        ([*SYNTH, "--base-high", "300"], "unrecognized arguments: --base-high 300"),
        ([*SYNTH, "--raters", "3"], "unrecognized arguments: --raters 3"),
        ([*SYNTH, "--scores-seed", "1"], "unrecognized arguments: --scores-seed 1"),
        ([*SYNTH, "--scores-feature", "slope"], "unrecognized arguments: --scores-feature slope"),
        (["stats", "grid", "--entrain", "e.csv", "--scores", "s.csv"], "invalid choice: 'grid'"),
    ],
    ids=["base-low", "base-high", "raters", "scores-seed", "scores-feature", "stats-grid"],
)
def test_removed_options_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_malformed_command_line_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--norm", "xx"])
    assert exc.value.code == 2
    assert "invalid choice: 'xx'" in capsys.readouterr().err


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
        write_wav(tmp_path / "wav" / f"{name}.wav", np.concatenate(samples), fs)
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
    caches = list((tmp_path / "wav").glob("*.75.0-600.0Hz.wav.f0.csv"))
    assert len(caches) == 16  # one per rendition, reusable on the next run
    entrain_rows = (out / "entrain.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[2]) >= 0 for r in entrain_rows)
    # rerun hits the caches and reproduces the bundle byte for byte
    first = _bundle_bytes(out)
    assert main(["run", "--manifest", str(manifest), "--out", str(out), "--from-wav"]) == 0
    assert _bundle_bytes(out) == first


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Four dyads with two texts each, from F0 CSVs and as 16 kHz WAVs."""
    root = tmp_path_factory.mktemp("small")
    synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5, seed=7), root)
    render_wavs(root)
    return root


@pytest.mark.parametrize("scope", ["utterance", "speaker"])
def test_all_unvoiced_csv_track_names_its_file(small_corpus, tmp_path, capsys, scope):
    corpus_dir = shutil.copytree(small_corpus, tmp_path / "c")
    f0 = corpus_dir / "f0" / "S02_001_imit.csv"
    rows = f0.read_text().splitlines()
    f0.write_text("\n".join([rows[0]] + [r.split(",")[0] + "," for r in rows[1:]]) + "\n")
    code = main(["run", "--manifest", str(corpus_dir / "manifest.json"),
                 "--outlier-scope", scope, "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {f0}: cannot interpolate an all-unvoiced track\n"
    )


def test_silent_wav_names_its_file(small_corpus, tmp_path, capsys):
    corpus_dir = shutil.copytree(small_corpus, tmp_path / "c")
    wav = corpus_dir / "wav" / "S05_000_model.wav"
    write_wav(wav, np.zeros(16000))
    code = main(["run", "--manifest", str(corpus_dir / "manifest_wav.json"),
                 "--from-wav", "--out", str(tmp_path / "r")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {wav}: cannot interpolate an all-unvoiced track\n"
    )


def test_f0_cache_serves_only_its_pitch_settings(small_corpus, tmp_path, monkeypatch):
    other = ["--pitch-floor", "100", "--pitch-ceiling", "300"]
    bundles = []
    for name, runs in (("warm", [[], other]), ("cold", [other])):
        corpus_dir = shutil.copytree(small_corpus, tmp_path / name / "corpus")
        for cache in (corpus_dir / "wav").glob("*.f0.csv"):
            cache.unlink()
        monkeypatch.chdir(tmp_path / name)
        for options in runs:
            assert main(["run", "--manifest", "corpus/manifest_wav.json", "--from-wav",
                         *options, "--out", "report"]) == 0
        bundles.append(_bundle_bytes(Path("report")))
    warm, cold = bundles
    assert warm == cold
    defaults = tmp_path / "defaults"
    assert main(["features", "--manifest", str(tmp_path / "cold/corpus/manifest_wav.json"),
                 "--from-wav", "--out", str(defaults)]) == 0
    assert defaults.read_bytes() != cold["features.csv"]  # the settings matter


def test_empty_surrogate_pool_suggests_remedy(tmp_path, capsys):
    # synth's two dyads are one female and one male pair
    corpus_dir = tmp_path / "c"
    assert main(["synth", "--dyads", "2", "--utts", "4", "--eps", "0.5",
                 "--out", str(corpus_dir)]) == 0
    capsys.readouterr()
    assert main(["run", "--manifest", str(corpus_dir / "manifest.json"),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "empty surrogate pool for speaker" in err
    assert "the corpus needs two same-sex dyads, or pass --surrogate-pool all" in err


@pytest.fixture(scope="module")
def outlier_run(tmp_path_factory):
    """(run exit code, corpus, bundle) on one text per dyad: every slope
    sample of S01 falls outside the corpus-wide fences."""
    root = tmp_path_factory.mktemp("outliers")
    corpus_dir, out = root / "c", root / "report"
    assert main(["synth", "--dyads", "4", "--utts", "1", "--eps", "0.5", "--seed", "0",
                 "--scores-coupling", "0.5", "--out", str(corpus_dir)]) == 0
    code = main(["run", "--manifest", str(corpus_dir / "manifest.json"),
                 "--scores", str(corpus_dir / "scores.csv"), "--out", str(out)])
    return code, corpus_dir, out


def test_speaker_outliers_cost_only_their_rows(outlier_run):
    code, _, out = outlier_run
    assert code == 0
    rows = [line.split(",") for line in (out / "entrain.csv").read_text().splitlines()[1:]]
    s01_slope = next(row for row in rows if row[:2] == ["S01", "slope"])
    assert float(s01_slope[2]) > 0.0 and s01_slope[3:] == ["", "0"]
    # S07 loses mean, median and slope the same way; n counts each feature's speakers
    empty = {(row[0], row[1]) for row in rows if row[3] == ""}
    assert empty == {("S01", "slope"), ("S07", "mean"), ("S07", "median"), ("S07", "slope")}
    grid = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()[1:]]
    assert {row[0]: int(row[4]) for row in grid} == {
        "drop": 8, "mean": 7, "median": 7, "range": 8, "slope": 6,
    }


def test_grid_from_entrain_csv_skips_empty_e_opt(outlier_run, tmp_path):
    code, corpus_dir, out = outlier_run
    assert code == 0
    grid = tmp_path / "g.csv"
    assert main(["grid", "--entrain", str(out / "entrain.csv"),
                 "--scores", str(corpus_dir / "scores.csv"), "--out", str(grid)]) == 0
    # entrain.csv holds e_opt to 6 decimals, which moves r in its last printed digits
    got = [line.split(",") for line in grid.read_text().splitlines()]
    want = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()]
    assert [row[:2] + row[3:] for row in got] == [row[:2] + row[3:] for row in want]
    assert np.allclose([float(row[2]) for row in got[1:]],
                       [float(row[2]) for row in want[1:]], rtol=0, atol=1e-5)


@pytest.mark.parametrize(
    "flags, named",
    [(["--window", "8"], "window must be a positive odd integer, got 8"),
     (["--order", "9"], "order must satisfy 0 <= order < window, got 9")],
    ids=["even-window", "order-over-window"],
)
def test_bad_preprocess_option_rejected_before_input(tmp_path, capsys, flags, named):
    # the input does not exist: reading it would exit 2, not 1
    out = tmp_path / "clean.csv"
    assert main(["preprocess", str(tmp_path / "absent.csv"), str(out), *flags]) == 1
    assert capsys.readouterr().err == f"error: bad option: {named}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the CLI's --config, --csv and --entrain files: a result, or an error that names the file

SCORES_TEXT = "speaker,rater,pronunciation,intonation,fluency,overall\n" + "".join(
    f"S{s},R{r},{1 + (s * r) % 4},{1 + (s + r) % 4},{1 + s % 4},{1 + r % 4}\n"
    for s in range(1, 5) for r in range(1, 3)
)
BAD_INPUTS = {
    "ttest-not-utf8": (["stats", "ttest", "--csv", "{}", "--x", "a", "--y", "b"], "in.csv",
                       b"a,b\n1,\xff\n", ": not UTF-8 text"),
    "grid-not-utf8": (["grid", "--entrain", "{}", "--scores", "s.csv", "--out", "g.csv"],
                      "in.csv", b"a,b\n1,\xff\n", ": not UTF-8 text"),
    "config-not-utf8": (["run", "--config", "{}"], "in.cfg", b"window=\xff\n", ": not UTF-8 text"),
    "ttest-non-numeric": (["stats", "ttest", "--csv", "{}", "--x", "a", "--y", "b"], "in.csv",
                          b"a,b\n1,x\n", ":2: b: expected a finite number, got 'x'"),
    "pearson-short-row": (["stats", "pearson", "--csv", "{}", "--x", "a", "--y", "b"], "in.csv",
                          b"a,b\n1\n", ":2: expected 2 fields, got 1"),
    "config-deep-json": (["run", "--config", "{}"], "in.json", b"[" * 100_000, ": not valid JSON"),
    "config-big-int": (["run", "--config", "{}"], "in.json", b'{"window": ' + b"1" * 5000 + b"}",
                       ": not valid JSON"),
    "pearson-inf": (["stats", "pearson", "--csv", "{}", "--x", "a", "--y", "b"], "in.csv",
                    b"a,b\n1,2\n2,inf\n3,4\n", ":3: b: expected a finite number, got 'inf'"),
    "pearson-overflow": (["stats", "pearson", "--csv", "{}", "--x", "a", "--y", "b"], "in.csv",
                         b"a,b\n1e308,1\n-1e308,2\n0,4\n",
                         ": correlation input overflows or underflows float64"),
    "grid-nan-e-opt": (["grid", "--entrain", "{}", "--scores", "s.csv", "--out", "g.csv"],
                       "in.csv", b"speaker,feature,e_opt\nS1,mean,nan\n",
                       ":2: e_opt: expected a finite number, got 'nan'"),
    "ttest-one-pair": (["stats", "ttest", "--csv", "{}", "--x", "a", "--y", "b"], "in.csv",
                       b"a,b\n1,2\n", ": group all: paired t-test needs at least 2 pairs"),
    "grid-no-overlap": (["grid", "--entrain", "{}", "--scores", "s.csv", "--out", "g.csv"],
                        "in.csv", b"speaker,feature,e_opt\nX1,mean,1\n",
                        " with s.csv: insufficient overlap: only 0 speakers in both tables"),
}


@pytest.mark.parametrize("argv, name, raw, named", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_cli_input_file_names_it(tmp_path, monkeypatch, capsys, argv, name, raw, named):
    monkeypatch.chdir(tmp_path)
    Path("s.csv").write_text(SCORES_TEXT)
    Path(name).write_bytes(raw)
    assert main([arg.format(name) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}{named}") and err.count("\n") == 1, err


def _result_or_named_error(argv: list[str], path: Path) -> None:
    """``main(argv)`` exits 0 quietly, or exits 1 with one error line naming ``path``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would print to stderr
        code = main([str(arg) for arg in argv])
    assert (code, err.getvalue()) == (0, "") or (
        code == 1 and err.getvalue().startswith(f"error: {path}")
    ), (code, err.getvalue())


CONFIG_TEXT = st.lists(
    st.tuples(
        st.sampled_from([*CONFIG_TYPES, "quantile_convention", "threads", " window ", ""]),
        st.sampled_from(["7", "8.9", "yes", "none", "", "se", "1e400", "1" * 5000, "x", "-1"]),
    ).map("=".join) | st.text(max_size=10),
    max_size=5,
).map(lambda lines: "\n".join(lines).encode())
GOLDEN_RUN_JSON = json.loads((Path(__file__).parent / "golden_options" / "run.json").read_text())


@settings(max_examples=300, deadline=None)
@given(st.one_of(CONFIG_TEXT, json_files(GOLDEN_RUN_JSON)), st.sampled_from(["run.cfg", "run.json"]))
def test_any_config_file_gives_options_or_a_named_error(tmp_path_factory, raw, name):
    path = tmp_path_factory.mktemp("fuzz") / name
    path.write_bytes(raw)
    try:
        load_config_file(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


CELLS = ["1", "2.5", "-3", "0", "1e308", "-1e308", "1e-170", "nan", "inf", "", "x", '"', "S1",
         "S2", "S3", "mean", "slope"]


def csv_files(columns: list[str]):
    """Bytes of a CSV file: a header of ``columns`` (or of drawn names) over rows of
    drawn cells, or any bytes."""
    header = st.just(columns) | st.lists(st.sampled_from(columns), max_size=4)
    rows = st.lists(st.lists(st.sampled_from(CELLS), max_size=len(columns) + 1), max_size=6)
    return st.one_of(
        st.tuples(header, rows).map(
            lambda table: "\n".join(",".join(row) for row in [table[0], *table[1]]).encode()
        ),
        st.binary(max_size=80),
    )


@settings(max_examples=200, deadline=None)
@given(csv_files(["a", "b", "g"]), st.booleans())
def test_any_stats_csv_gives_a_result_or_a_named_error(tmp_path_factory, raw, by):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "in.csv"
    path.write_bytes(raw)
    argv = ["stats", "ttest", "--csv", path, "--x", "a", "--y", "b", "--out", root / "t.csv"]
    _result_or_named_error(argv + ["--by", "g"] * by, path)


@settings(max_examples=200, deadline=None)
@given(csv_files(["speaker", "feature", "e_opt"]))
def test_any_entrain_csv_gives_a_grid_or_a_named_error(tmp_path_factory, raw):
    root = tmp_path_factory.mktemp("fuzz")
    path, scores = root / "entrain.csv", root / "scores.csv"
    path.write_bytes(raw)
    scores.write_text(SCORES_TEXT)
    _result_or_named_error(
        ["grid", "--entrain", path, "--scores", scores, "--out", root / "grid.csv"], path
    )


def test_unsexed_speaker_named_in_empty_pool_error(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5), corpus_dir)
    doc = json.loads((corpus_dir / "manifest.json").read_text())
    del doc["speakers"][0]["sex"]  # S00; the corpus still has two same-sex dyads of each sex
    (corpus_dir / "manifest.json").write_text(json.dumps(doc))
    assert main(["run", "--manifest", str(corpus_dir / "manifest.json"),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "speaker 'S00' has no sex in the manifest" in err
    assert "--surrogate-pool all" in err
    assert "two same-sex dyads" not in err


@pytest.fixture
def disjoint_scores(corpus, tmp_path):
    """A scores file that shares no speaker with ``corpus``."""
    path = tmp_path / "x.csv"
    path.write_text("speaker,rater,pronunciation,intonation,fluency,overall\n" + "".join(
        f"X{i:02d},R{r},3,3,3,3\n" for i in range(4) for r in range(2)
    ))
    return path


def test_run_grid_error_names_both_files(corpus, disjoint_scores, tmp_path, capsys):
    manifest = corpus / "manifest.json"
    assert main(["run", "--manifest", str(manifest), "--scores", str(disjoint_scores),
                 "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err == (
        f"error: {disjoint_scores} with {manifest}: "
        "insufficient overlap: only 0 speakers in both tables\n"
    )


def test_failed_run_writes_nothing(corpus, disjoint_scores, tmp_path):
    manifest = str(corpus / "manifest.json")
    bundle = tmp_path / "r"
    assert main(["run", "--manifest", manifest, "--out", str(bundle)]) == 0
    before = _bundle_bytes(bundle)
    # the grid fails last, after every other file's results are known
    failing = ["--scores", str(disjoint_scores), "--window", "5"]
    assert main(["run", "--manifest", manifest, *failing, "--out", str(bundle)]) == 1
    assert _bundle_bytes(bundle) == before
    assert main(["run", "--manifest", manifest, *failing, "--out", str(tmp_path / "new")]) == 1
    assert not (tmp_path / "new").exists()
