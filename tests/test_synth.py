import numpy as np
import pytest

from f0entrain import ingest, pipeline
from f0entrain.errors import ComputeError
from f0entrain.synth import SynthConfig, gen_corpus, gen_scores


def _measure_raw(manifest_path):
    config = pipeline.RunConfig(manifest=str(manifest_path), out=".")
    stages = pipeline.run_stages(config, {"dtw"})
    return stages.manifest, stages.measurement


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_dyads=0, n_utterances=5)
    with pytest.raises(ValueError):
        SynthConfig(n_dyads=1, n_utterances=1, noise_eps=-1)
    with pytest.raises(ValueError):
        SynthConfig(n_dyads=1, n_utterances=1, words_min=9, words_max=6)


def test_equal_seeds_byte_identical(tmp_path):
    cfg = SynthConfig(n_dyads=2, n_utterances=3, noise_eps=0.7, seed=42)
    gen_corpus(cfg, tmp_path / "a")
    gen_corpus(cfg, tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_different_seed_differs(tmp_path):
    gen_corpus(SynthConfig(n_dyads=2, n_utterances=3, seed=1), tmp_path / "a")
    gen_corpus(SynthConfig(n_dyads=2, n_utterances=3, seed=2), tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "b")


def test_generated_corpus_passes_ingest(tmp_path):
    cfg = SynthConfig(n_dyads=3, n_utterances=4, noise_eps=1.0, seed=5)
    manifest_path = gen_corpus(cfg, tmp_path)
    manifest = ingest.load_manifest(manifest_path)
    assert len(manifest.speakers) == 6
    assert len(manifest.utterances) == 3 * 4 * 2  # both directions per index
    for rec in manifest.utterances[:8]:
        track = ingest.load_f0_csv(rec.imitator_f0)
        assert track.fully_voiced
        spans, dropped = ingest.load_alignment(rec.imitator_align)
        assert dropped == 0
        assert 6 <= len(spans) <= 13
    # every speaker imitates and models the same number of times
    per_speaker = {}
    for rec in manifest.utterances:
        per_speaker[rec.imitator] = per_speaker.get(rec.imitator, 0) + 1
    assert set(per_speaker.values()) == {4}


def test_word_counts_shared_across_dyads(tmp_path):
    manifest_path = gen_corpus(SynthConfig(n_dyads=3, n_utterances=5, seed=9), tmp_path)
    manifest = ingest.load_manifest(manifest_path)
    counts: dict[int, set[int]] = {}
    for rec in manifest.utterances:
        spans, _ = ingest.load_alignment(rec.imitator_align)
        counts.setdefault(rec.index, set()).add(len(spans))
    assert all(len(v) == 1 for v in counts.values())


def test_perfect_imitation_measures_zero(tmp_path):
    manifest_path = gen_corpus(SynthConfig(n_dyads=2, n_utterances=3, noise_eps=0.0, seed=3), tmp_path)
    _, meas = _measure_raw(manifest_path)
    assert (meas.e_raw == 0.0).all()


def test_noise_yields_positive_distance(tmp_path):
    manifest_path = gen_corpus(SynthConfig(n_dyads=2, n_utterances=3, noise_eps=1.0, seed=3), tmp_path)
    _, meas = _measure_raw(manifest_path)
    assert (meas.e_raw > 0.0).all()


# ---------------------------------------------------------------------------
# score generation


def _e_raw_table(n=16, seed=1):
    rng = np.random.default_rng(seed)
    return {f"S{i:02d}": float(rng.uniform(5, 50)) for i in range(n)}


def test_scores_shape_and_range():
    rows = gen_scores(_e_raw_table(), coupling=0.5, noise=0.2, seed=0)
    assert len(rows) == 16 * 6
    for r in rows:
        for c in ("pronunciation", "intonation", "fluency", "overall"):
            assert 1.0 <= getattr(r, c) <= 5.0


def test_scores_coupling_one_noise_zero_perfectly_correlated():
    table = _e_raw_table()
    rows = gen_scores(table, coupling=1.0, noise=0.0, seed=0)
    by_speaker = {}
    for r in rows:
        by_speaker.setdefault(r.speaker, []).append(r.final)
    speakers = sorted(by_speaker)
    x = [table[s] for s in speakers]
    y = [float(np.mean(by_speaker[s])) for s in speakers]
    r = np.corrcoef(x, y)[0, 1]
    assert r == pytest.approx(1.0, abs=1e-9)


def test_scores_coupling_zero_noise_zero_constant():
    rows = gen_scores(_e_raw_table(), coupling=0.0, noise=0.0, seed=0)
    finals = {r.final for r in rows}
    assert len(finals) == 1


def test_scores_in_sample_coupling_exact():
    table = _e_raw_table(n=24, seed=2)
    rows = gen_scores(table, coupling=0.5, noise=0.0001, seed=7)
    by_speaker: dict[str, list[float]] = {}
    for r in rows:
        by_speaker.setdefault(r.speaker, []).append(r.overall)
    speakers = sorted(by_speaker)
    x = np.array([table[s] for s in speakers])
    y = np.array([np.mean(by_speaker[s]) for s in speakers])
    assert np.corrcoef(x, y)[0, 1] == pytest.approx(0.5, abs=2e-3)


def test_scores_degenerate_entrainment_rejected():
    with pytest.raises(ComputeError, match="degenerate"):
        gen_scores({f"S{i}": 3.0 for i in range(8)}, coupling=0.5, noise=0.1, seed=0)


def test_scores_of_two_speakers_need_no_complement():
    # with two speakers, the mean-zero complement orthogonal to e_raw is zero
    two = {"S00": 10.0, "S01": 20.0}
    with pytest.raises(ValueError, match="needs 3 or more speakers, got 2"):
        gen_scores(two, coupling=0.5, noise=0.1, seed=0)
    assert len(gen_scores(two, coupling=-1.0, noise=0.1, seed=0)) == 2 * 6
    assert len(gen_scores(two, coupling=0.5, noise=0.0, seed=0)) == 2 * 6


def test_scores_determinism():
    a = gen_scores(_e_raw_table(), coupling=0.3, noise=0.1, seed=5)
    b = gen_scores(_e_raw_table(), coupling=0.3, noise=0.1, seed=5)
    assert a == b
