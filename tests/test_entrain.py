import re

import numpy as np
import pytest

from f0entrain import pipeline, synth
from f0entrain.entrain import (
    ContourStoreBuilder,
    inner_dyad_distance,
    measure_corpus,
    normalize_samples,
    other_distance,
)
from f0entrain.errors import ComputeError
from f0entrain.features import FEATURE_NAMES
from f0entrain.ingest import ROLE_IMITATOR, ROLE_MODEL, load_manifest
from f0entrain.quantiles import iqr_fences

from conftest import write_manifest_doc
from oracles import measure_corpus_by_rescans


# ---------------------------------------------------------------------------
# normalization


def test_normalize_z_scores():
    out = normalize_samples([1.0, 2.0, 3.0, 2.0])
    assert out.kept.all()
    assert out.z.mean() == pytest.approx(0.0, abs=1e-12)
    assert out.z.std(ddof=1) == pytest.approx(1.0, rel=1e-12)


def test_normalize_simple_triplet_values():
    # after the fences drop the 100, the retained (1, 2, 3) z-score to -1, 0, 1
    out = normalize_samples([1.0, 2.0, 3.0, 100.0])
    # fences from type-7 quartiles (1.75, 27.25) exclude only the 100
    lo, hi = iqr_fences([1.0, 2.0, 3.0, 100.0])
    assert list(out.kept) == [True, True, True, False]
    assert np.allclose(out.z, [-1.0, 0.0, 1.0])
    assert lo < 1.0 and hi < 100.0


def test_normalize_all_equal_rejected():
    with pytest.raises(ComputeError, match="zero variance"):
        normalize_samples([5.0, 5.0, 5.0, 5.0])


def test_normalize_too_few_rejected():
    with pytest.raises(ComputeError, match="at least 4"):
        normalize_samples([1.0, 2.0, 3.0])


def test_normalize_retained_moments(rng):
    x = rng.lognormal(3.0, 0.6, size=400)
    out = normalize_samples(x)
    assert abs(out.z.mean()) < 1e-9
    assert abs(out.z.std(ddof=1) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# inner dyad


def test_inner_dyad_examples():
    assert inner_dyad_distance(3.0, 1.0) == pytest.approx(1.0)
    assert inner_dyad_distance(1.0, 3.0) == pytest.approx(-1.0)
    assert inner_dyad_distance(2.5, 2.5) == 0.0
    assert inner_dyad_distance(0.0, 0.0) == 0.0


def test_inner_dyad_antisymmetry_exact(rng):
    for _ in range(200):
        a, b = rng.uniform(0.01, 50, size=2)
        assert inner_dyad_distance(a, b) == -inner_dyad_distance(b, a)


# ---------------------------------------------------------------------------
# surrogate pairing on a hand-built two-dyad corpus


def _two_dyad_contours():
    """Two same-sex dyads (A,B), (C,D); every speaker has imitator and
    model contours at indices 0 and 1."""
    doc = {
        "speakers": [{"id": s, "sex": "F"} for s in "ABCD"],
        "dyads": [["A", "B"], ["C", "D"]],
        "utterances": [],
    }
    for a, b in (("A", "B"), ("C", "D")):
        for k in (0, 1):
            for imit, model in ((a, b), (b, a)):
                doc["utterances"].append(
                    {
                        "index": k,
                        "imitator": imit,
                        "model": model,
                        "imitator_f0": f"{imit}{k}i.csv",
                        "model_f0": f"{model}{k}m.csv",
                        "imitator_align": f"{imit}{k}i.json",
                        "model_align": f"{model}{k}m.json",
                    }
                )
    base = {"A": 10.0, "B": 11.0, "C": 30.0, "D": 55.0}
    contours = {}
    for spk in "ABCD":
        for k in (0, 1):
            for role in (ROLE_IMITATOR, ROLE_MODEL):
                values = np.array([base[spk] + k, base[spk] + k + 1.0, base[spk] + k + 2.0])
                contours[(spk, k, role)] = {f: values for f in FEATURE_NAMES}
    return doc, contours


def _store(contours):
    """The ContourStore of hand-built {feature: values} contours; word times are 0."""
    builder = ContourStoreBuilder()
    for key, by_feature in contours.items():
        features = np.array([by_feature[f] for f in FEATURE_NAMES])
        times = np.zeros((2, features.shape[1]))
        builder.add(key, ["w"] * features.shape[1], np.vstack([times, features]))
    return builder.build()


def test_other_distance_counts_both_nonpartners(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    others, n = other_distance("A", manifest, _store(contours))
    assert n == 2  # C and D both eligible
    # E_raw^(A,C) pairs A's imitations (10+k..) with C's models (30+k..):
    # each word differs by 20 -> DTW 60 per utterance; for D 45 -> 135;
    # every feature has the same contours here
    assert others == pytest.approx([(60.0 + 135.0) / 2.0] * len(FEATURE_NAMES))


def test_other_distance_single_dyad_empty_pool(tmp_path):
    doc, contours = _two_dyad_contours()
    doc["speakers"] = doc["speakers"][:2]
    doc["dyads"] = [["A", "B"]]
    doc["utterances"] = [u for u in doc["utterances"] if u["imitator"] in "AB"]
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    with pytest.raises(ComputeError, match="empty surrogate pool"):
        other_distance("A", manifest, _store(contours))


def test_other_distance_same_sex_pool_respects_sex(tmp_path):
    doc, contours = _two_dyad_contours()
    doc["speakers"] = [
        {"id": "A", "sex": "F"},
        {"id": "B", "sex": "F"},
        {"id": "C", "sex": "M"},
        {"id": "D", "sex": "M"},
    ]
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    with pytest.raises(ComputeError, match="empty surrogate pool"):
        other_distance("A", manifest, _store(contours))
    others, n = other_distance("A", manifest, _store(contours), pool="all")
    assert n == 2 and len(others) == len(FEATURE_NAMES) and min(others) > 0


def test_candidates_without_shared_indices_skipped(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    # strip C's model contours entirely: only D remains usable
    contours = {k: v for k, v in contours.items() if not (k[0] == "C" and k[2] == ROLE_MODEL)}
    others, n = other_distance("A", manifest, _store(contours))
    assert n == 1
    assert others == pytest.approx([135.0] * len(FEATURE_NAMES))


def test_measure_corpus_end_to_end(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(contours))
    # A's contours (10+k, 11+k, 12+k) vs B's (11+k, ...): the warped path
    # (0,0),(1,0),(2,1),(2,2) costs 1+0+0+1 = 2, beating the diagonal's 3
    po = {(p.speaker, p.feature): p for p in meas.partner_other}
    assert po[("A", "mean")].partner_distance == pytest.approx(2.0)
    assert po[("A", "mean")].other_distance > po[("A", "mean")].partner_distance
    # the partner distance is e_raw by definition
    for s in meas.speaker_scores:
        assert po[(s.speaker, s.feature)].partner_distance == s.e_raw
    # corpus-wide normalized samples have mean 0 / sd 1
    assert meas.samples.shape == (len(FEATURE_NAMES), len(manifest.utterances))
    for values in meas.samples:
        z = normalize_samples(values).z
        assert abs(z.mean()) < 1e-9
        assert abs(z.std(ddof=1) - 1.0) < 1e-9
    # dyads are antisymmetric by construction
    for d in meas.dyad_scores:
        a, b = d.dyad
        raw = meas.table("e_raw")
        assert d.inner_dyad == -inner_dyad_distance(raw[b][d.feature], raw[a][d.feature])


def test_e_opt_sums_to_zero_for_symmetric_two_speaker_corpus(tmp_path):
    doc, contours = _two_dyad_contours()
    doc["speakers"] = doc["speakers"][:2]
    doc["dyads"] = [["A", "B"]]
    doc["utterances"] = [u for u in doc["utterances"] if u["imitator"] in "AB"]
    # symmetric perturbation so distances spread but mirror across speakers
    for k in (0, 1):
        contours[("A", k, ROLE_IMITATOR)] = {
            f: contours[("A", k, ROLE_IMITATOR)][f] + (k + 1.0) for f in FEATURE_NAMES
        }
        contours[("B", k, ROLE_IMITATOR)] = {
            f: contours[("B", k, ROLE_IMITATOR)][f] + (k + 1.0) for f in FEATURE_NAMES
        }
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(contours), with_surrogates=False)
    for feature in FEATURE_NAMES:
        by_speaker = [s for s in meas.speaker_scores if s.feature == feature]
        assert len(by_speaker) == 2
        assert sum(s.e_opt for s in by_speaker) == pytest.approx(0.0, abs=1e-9)


def test_e_opt_weighted_zero_mean_across_corpus(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(contours))
    for feature in FEATURE_NAMES:
        weighted = [
            s.e_opt * s.n_used for s in meas.speaker_scores if s.feature == feature
        ]
        assert sum(weighted) == pytest.approx(0.0, abs=1e-9)


def test_norm_se_reports_both(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(contours), norm="se")
    s = meas.speaker_scores[0]
    n_pool = 8  # 4 speakers x 2 utterances, none removed
    assert s.e_opt_alt == pytest.approx(s.e_opt * np.sqrt(n_pool))


# ---------------------------------------------------------------------------
# every option combination against the per-speaker rescans, on synth corpora

ORACLE_CORPORA = {
    "4x4": synth.SynthConfig(n_dyads=4, n_utterances=4, noise_eps=0.5, seed=1),
    # every slope sample of S01 falls outside the corpus-wide fences
    "4x1": synth.SynthConfig(n_dyads=4, n_utterances=1, noise_eps=0.5, seed=0),
}


@pytest.fixture(scope="module")
def oracle_corpora(tmp_path_factory):
    corpora = {}
    for name, cfg in ORACLE_CORPORA.items():
        manifest_path = synth.gen_corpus(cfg, tmp_path_factory.mktemp(name))
        config = pipeline.RunConfig(manifest=str(manifest_path), out=".")
        stages = pipeline.run_stages(config, ())
        corpora[name] = (stages.manifest, stages.processed.contours)
    return corpora


@pytest.mark.parametrize("corpus", sorted(ORACLE_CORPORA))
@pytest.mark.parametrize("pool", ["same-sex", "all"])
@pytest.mark.parametrize("with_normalization", [True, False], ids=["norm", "raw"])
@pytest.mark.parametrize("norm_scope", ["corpus", "speaker"])
@pytest.mark.parametrize("norm", ["sd", "se"])
def test_measure_corpus_matches_rescans(
    oracle_corpora, corpus, norm, norm_scope, with_normalization, pool
):
    manifest, contours = oracle_corpora[corpus]
    options = dict(
        surrogate_pool=pool, norm=norm, norm_scope=norm_scope,
        with_normalization=with_normalization,
    )
    try:
        expected = measure_corpus_by_rescans(manifest, contours, **options)
    except ComputeError as exc:
        if "removed as outliers" not in str(exc):
            with pytest.raises(ComputeError, match=re.escape(str(exc))):
                measure_corpus(manifest, contours, **options)
            return
        # that speaker and feature lose e_opt; every other row is unchanged
        expected = measure_corpus_by_rescans(
            manifest, contours, empty_outlier_rows=True, **options
        )
        assert [(s.speaker, s.feature) for s in expected.speaker_scores if s.n_used == 0]
    got = measure_corpus(manifest, contours, **options)
    assert np.array_equal(got.samples, expected.samples)
    assert (got.speaker_scores, got.partner_other, got.dyad_scores) == (
        expected.speaker_scores, expected.partner_other, expected.dyad_scores
    )
