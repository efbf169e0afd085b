import dataclasses
import re

import numpy as np
import pytest

from f0entrain import pipeline, synth
from f0entrain.entrain import (
    ContourStoreBuilder,
    CorpusMeasurement,
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


def _store(doc, contours):
    """The ContourStore of hand-built {feature: values} contours; word times are 0.

    The renditions are added in manifest order, imitator before model, as
    the pipeline adds them.
    """
    builder = ContourStoreBuilder()
    for u in doc["utterances"]:
        k = u["index"]
        for key in ((u["imitator"], k, ROLE_IMITATOR), (u["model"], k, ROLE_MODEL)):
            features = np.array([contours[key][f] for f in FEATURE_NAMES])
            times = np.zeros((2, features.shape[1]))
            builder.add(["w"] * features.shape[1], np.vstack([times, features]))
    return builder.build()


def test_other_distance_counts_both_nonpartners(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    others, n = other_distance("A", manifest, _store(doc, contours))
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
        other_distance("A", manifest, _store(doc, contours))


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
        other_distance("A", manifest, _store(doc, contours))
    others, n = other_distance("A", manifest, _store(doc, contours), pool="all")
    assert n == 2 and len(others) == len(FEATURE_NAMES) and min(others) > 0


def test_candidates_without_shared_indices_skipped(tmp_path):
    doc, contours = _two_dyad_contours()
    # C's model renditions move to indices A never imitates: only D remains usable
    for u in doc["utterances"]:
        if u["model"] == "C":
            k = u["index"]
            u["index"] = k + 2
            contours[("D", k + 2, ROLE_IMITATOR)] = contours[("D", k, ROLE_IMITATOR)]
            contours[("C", k + 2, ROLE_MODEL)] = contours[("C", k, ROLE_MODEL)]
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    others, n = other_distance("A", manifest, _store(doc, contours))
    assert n == 1
    assert others == pytest.approx([135.0] * len(FEATURE_NAMES))


def test_measure_corpus_end_to_end(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(doc, contours))
    # A's contours (10+k, 11+k, 12+k) vs B's (11+k, ...): the warped path
    # (0,0),(1,0),(2,1),(2,2) costs 1+0+0+1 = 2, beating the diagonal's 3
    a, mean = meas.speakers.index("A"), FEATURE_NAMES.index("mean")
    assert meas.partner_distance[a, mean] == pytest.approx(2.0)
    assert meas.other_distance[a, mean] > meas.partner_distance[a, mean]
    # the partner distance is e_raw by definition
    assert meas.partner_distance.shape == meas.e_raw.shape
    assert (meas.partner_distance == meas.e_raw).all()
    # corpus-wide normalized samples have mean 0 / sd 1
    assert meas.samples.shape == (len(FEATURE_NAMES), len(manifest.utterances))
    for values in meas.samples:
        z = normalize_samples(values).z
        assert abs(z.mean()) < 1e-9
        assert abs(z.std(ddof=1) - 1.0) < 1e-9
    # dyads are antisymmetric by construction
    raw = meas.table("e_raw")
    for (a, b), row in zip(meas.dyads, meas.inner_dyad.tolist()):
        for feature, inner in zip(FEATURE_NAMES, row):
            assert inner == -inner_dyad_distance(raw[b][feature], raw[a][feature])


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
    meas = measure_corpus(manifest, _store(doc, contours), with_surrogates=False)
    for by_speaker in meas.e_opt.T.tolist():
        assert len(by_speaker) == 2
        assert sum(by_speaker) == pytest.approx(0.0, abs=1e-9)


def test_e_opt_weighted_zero_mean_across_corpus(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(doc, contours))
    for e_opt, n_used in zip(meas.e_opt.T.tolist(), meas.n_used.T.tolist()):
        weighted = [x * n for x, n in zip(e_opt, n_used)]
        assert sum(weighted) == pytest.approx(0.0, abs=1e-9)


def test_norm_se_reports_both(tmp_path):
    doc, contours = _two_dyad_contours()
    manifest = load_manifest(write_manifest_doc(doc, tmp_path))
    meas = measure_corpus(manifest, _store(doc, contours), norm="se")
    n_pool = 8  # 4 speakers x 2 utterances, none removed
    assert meas.e_opt_alt[0, 0] == pytest.approx(meas.e_opt[0, 0] * np.sqrt(n_pool))


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
        assert (expected.n_used == 0).any()
    got = measure_corpus(manifest, contours, **options)
    assert np.array_equal(got.samples, expected.samples)
    for field in dataclasses.fields(CorpusMeasurement):
        value, want = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            # NaN marks "no value" in both; every other entry is compared with ==
            assert value.shape == want.shape, field.name
            assert np.array_equal(value, want, equal_nan=True), field.name
        else:
            assert value == want, field.name
