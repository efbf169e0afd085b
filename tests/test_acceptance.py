"""Acceptance suite: one test per release criterion.

Each test prints a ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``). Tolerances are fixed here, not
calibrated. The corpus-level criteria run the real end-to-end pipeline on
generated corpora, disk round-trips included.
"""

import math
import shutil
import time
from contextlib import contextmanager

import numpy as np

from f0entrain import entrain, ingest, pipeline, stats, synth
from f0entrain.entrain import inner_dyad_distance, normalize_samples
from f0entrain.features import FEATURE_NAMES
from f0entrain.preprocess import SmoothingConfig, outlier_bounds, sg_coefficients, sg_smooth, two_pass_outlier
from f0entrain.stats import TestResult, icc_3k, one_sided_p, pearson, reg_inc_beta, t_sf

from conftest import make_track, one_word_features, run_cli
from oracles import dtw_bruteforce


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


def _measure(manifest_path, surrogates=True, normalization=True):
    config = pipeline.RunConfig(manifest=str(manifest_path), out=".")
    needs = {"dtw"}
    if surrogates:
        needs.add("surrogates")
    if normalization:
        needs.add("norm")
    return pipeline.run_stages(config, needs).measurement


def test_c01_dtw_oracle_equivalence():
    with criterion(1, "DTW equals exhaustive path enumeration on 1000 random pairs"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(1000):
            a = rng.integers(0, 10, size=int(rng.integers(1, 7))).astype(float)
            b = rng.integers(0, 10, size=int(rng.integers(1, 7))).astype(float)
            a, b = a.tolist(), b.tolist()
            assert entrain.dtw_distance(a, b) == dtw_bruteforce(a, b)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_c02_savitzky_golay_correctness():
    with criterion(2, "SG(7,3) weights exact; 100 random cubics reproduced on interior"):
        expected = np.array([-2, 3, 6, 7, 6, 3, -2], dtype=float) / 21.0
        assert np.max(np.abs(sg_coefficients(7, 3) - expected)) < 1e-12
        rng = np.random.default_rng(102)
        cfg = SmoothingConfig(7, 3)
        for _ in range(100):
            coeffs = rng.uniform(-3, 3, size=4)
            n = int(rng.integers(7, 80))
            x = np.linspace(-1, 1, n)
            y = np.polyval(coeffs, x) + rng.uniform(50, 300)
            out = sg_smooth(make_track(y), cfg).values
            interior = slice(3, n - 3)
            assert np.allclose(out[interior], y[interior], rtol=1e-9, atol=1e-9)


def test_c03_two_pass_outlier_containment():
    with criterion(3, "two-pass output within pass-1 bounds on 1000 spiked tracks"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(20, 160))
            base = 200.0 + 30.0 * np.sin(np.linspace(0, 3 * np.pi, n)) + rng.normal(0, 3, n)
            values = base.copy()
            n_spikes = int(rng.integers(1, max(2, n // 10)))
            spike_idx = rng.choice(n, size=n_spikes, replace=False)
            up = rng.uniform(size=n_spikes) < 0.7
            values[spike_idx] = np.where(
                up, rng.uniform(500, 900, n_spikes), rng.uniform(5, 60, n_spikes)
            )
            track = make_track(values)
            lo, hi = outlier_bounds(values)
            out = two_pass_outlier(track).track.values
            assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)
            outside = (values < lo) | (values > hi)
            assert np.all(out[outside] != values[outside])
            assert np.array_equal(out[~outside], values[~outside])


def test_c04_feature_algebra():
    with criterion(4, "shift/scale/time-reversal feature algebra on 1000 segments"):
        rng = np.random.default_rng(104)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            y = rng.uniform(60, 450, size=n)
            segment = make_track(y)
            base = one_word_features(segment)
            c = float(rng.uniform(-150, 150))
            k = float(rng.uniform(0.1, 6.0))

            shifted = one_word_features(segment.replace_values(y + c))
            assert math.isclose(shifted["mean"], base["mean"] + c, rel_tol=1e-9, abs_tol=1e-7)
            assert math.isclose(shifted["median"], base["median"] + c, rel_tol=1e-9, abs_tol=1e-7)
            for name in ("slope", "range", "drop"):
                assert math.isclose(shifted[name], base[name], rel_tol=1e-9, abs_tol=1e-7)

            scaled = one_word_features(segment.replace_values(y * k))
            for name in FEATURE_NAMES:
                assert math.isclose(scaled[name], k * base[name], rel_tol=1e-9, abs_tol=1e-7)

            reversed_ = one_word_features(segment.replace_values(y[::-1]))
            assert math.isclose(reversed_["mean"], base["mean"], rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(reversed_["median"], base["median"], rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(reversed_["slope"], -base["slope"], rel_tol=1e-9, abs_tol=1e-7)
            assert math.isclose(reversed_["range"], base["range"], rel_tol=1e-9, abs_tol=1e-7)
            assert math.isclose(reversed_["drop"], -base["drop"], rel_tol=1e-9, abs_tol=1e-7)


def test_c05_statistics_kernel(tmp_path):
    with criterion(5, "t/beta/pearson/ICC kernel values and the t-table report"):
        for t in np.linspace(0.0, 10.0, 501):
            closed = 1.0 - t / math.sqrt(t * t + 2.0)
            assert abs(t_sf(float(t), 2.0) - closed) <= 1e-6
        rng = np.random.default_rng(105)
        for _ in range(300):
            a = float(rng.uniform(0.05, 60))
            b = float(rng.uniform(0.05, 60))
            x = float(rng.integers(0, 1 << 20)) / float(1 << 20)
            assert abs(reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) - 1.0) <= 1e-10
        assert pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]).statistic == 0.8
        assert icc_3k([[1, 1], [2, 2], [3, 3]]).icc == 1.0
        assert icc_3k([[1, 2], [2, 3], [3, 4]]).icc == 1.0
        # partner-vs-other report row for t = -4.44 at 57 df
        p_two = t_sf(4.44, 57.0)
        res = TestResult(statistic=-4.44, df=57.0, p_value=p_two,
                         significant=p_two < 0.05, trend=True)
        pipeline.write_ttest_csv([("median", res, one_sided_p(res))], tmp_path / "ttest.csv")
        printed_p = float((tmp_path / "ttest.csv").read_text().splitlines()[1].split(",")[3])
        assert abs(printed_p - 2.1e-5) / 2.1e-5 <= 0.10


def test_c06_entrainment_recovery(tmp_path):
    with criterion(6, "partner < other with significant paired t in >= 19/20 seeds"):
        started = time.perf_counter()
        per_feature_hits = {f: 0 for f in FEATURE_NAMES}
        n_seeds = 20
        for seed in range(n_seeds):
            corpus_dir = tmp_path / f"seed{seed}"
            manifest_path = synth.gen_corpus(
                synth.SynthConfig(n_dyads=8, n_utterances=40, noise_eps=0.5, seed=seed),
                corpus_dir,
            )
            measurement = _measure(manifest_path)
            for feature, partner, other in zip(
                FEATURE_NAMES,
                measurement.partner_distance.T.tolist(),
                measurement.other_distance.T.tolist(),
            ):
                res = stats.paired_t_test(partner, other)
                if (
                    float(np.mean(partner)) < float(np.mean(other))
                    and res.statistic < 0
                    and res.p_value < 0.05
                ):
                    per_feature_hits[feature] += 1
        elapsed = time.perf_counter() - started
        for feature, hits in per_feature_hits.items():
            assert hits >= 19, f"{feature}: {hits}/{n_seeds} seeds"
        assert elapsed < 60.0, f"recovery experiment took {elapsed:.1f}s"


def test_c07_monotonicity_in_noise(tmp_path):
    with criterion(7, "mean e_raw strictly increasing over the noise grid; zero at eps=0"):
        eps_grid = (0.0, 0.5, 1.0, 2.0, 4.0)
        n_seeds = 20
        means = {f: [] for f in FEATURE_NAMES}
        for eps in eps_grid:
            acc = {f: [] for f in FEATURE_NAMES}
            for seed in range(n_seeds):
                corpus_dir = tmp_path / f"eps{eps}_{seed}"
                manifest_path = synth.gen_corpus(
                    synth.SynthConfig(n_dyads=2, n_utterances=4, noise_eps=eps, seed=seed),
                    corpus_dir,
                )
                measurement = _measure(
                    manifest_path, surrogates=False, normalization=False
                )
                for f, column in zip(FEATURE_NAMES, measurement.e_raw.T.tolist()):
                    acc[f].extend(column)
            for f in FEATURE_NAMES:
                means[f].append(float(np.mean(acc[f])))
        for f in FEATURE_NAMES:
            assert means[f][0] == 0.0, f"{f}: e_raw at eps=0 is {means[f][0]}"
            assert all(
                lo < hi for lo, hi in zip(means[f], means[f][1:])
            ), f"{f}: {means[f]}"


def test_c08_correlation_grid_recovery(tmp_path):
    with criterion(8, "grid recovers coupling 0.5 within 0.05 over 50 score seeds"):
        manifest_path = synth.gen_corpus(
            synth.SynthConfig(n_dyads=8, n_utterances=10, noise_eps=0.8, seed=808), tmp_path
        )
        measurement = _measure(manifest_path, surrogates=False)
        raw_table = measurement.table("e_raw")
        driver = {spk: feats["mean"] for spk, feats in raw_table.items()}
        recovered = []
        for seed in range(50):
            rows = synth.gen_scores(driver, coupling=0.5, noise=0.1, seed=seed)
            table = ingest.ScoreTable(tuple(rows))
            cells = stats.correlate_grid(raw_table, table.speaker_means())
            by_key = {(c.feature, c.criterion): c for c in cells}
            recovered.append(by_key[("mean", "final")].r)
        mean_r = float(np.mean(recovered))
        assert abs(mean_r - 0.5) <= 0.05, f"mean recovered r = {mean_r:.4f}"
        # emitted grid schema
        grid_path = tmp_path / "grid.csv"
        pipeline.write_grid_csv(cells, grid_path)
        lines = grid_path.read_text().splitlines()
        assert lines[0] == "feature,criterion,r,p,n,significant,trend"
        assert len(lines) == 1 + 5 * 5


def test_c09_normalization_self_consistency(tmp_path):
    with criterion(9, "retained z-samples have mean 0 / sd 1; inner-dyad antisymmetry exact"):
        manifest_path = synth.gen_corpus(
            synth.SynthConfig(n_dyads=4, n_utterances=8, noise_eps=0.7, seed=909), tmp_path
        )
        measurement = _measure(manifest_path, surrogates=False)
        for values in measurement.samples:
            normed = normalize_samples(values)
            assert abs(float(normed.z.mean())) <= 1e-9
            assert abs(float(normed.z.std(ddof=1)) - 1.0) <= 1e-9
        raw = measurement.table("e_raw")
        manifest = ingest.load_manifest(manifest_path)
        for a, b in manifest.dyads:
            for feature in FEATURE_NAMES:
                forward = inner_dyad_distance(raw[a][feature], raw[b][feature])
                backward = inner_dyad_distance(raw[b][feature], raw[a][feature])
                assert forward == -backward


def test_c10_run_determinism(tmp_path):
    with criterion(10, "run bundles byte-identical across two interpreter processes"):
        corpus_dir = tmp_path / "corpus"
        manifest_path = synth.gen_corpus(
            synth.SynthConfig(n_dyads=4, n_utterances=6, noise_eps=0.6, seed=1010), corpus_dir
        )
        measurement = _measure(manifest_path, surrogates=False)
        mean = FEATURE_NAMES.index("mean")
        scores_rows = synth.gen_scores(
            dict(zip(measurement.speakers, measurement.e_raw[:, mean].tolist())),
            coupling=0.4,
            noise=0.1,
            seed=4,
        )
        scores_path = corpus_dir / "scores.csv"
        ingest.write_scores_csv(scores_rows, scores_path)

        # string hashing is seeded per process, so a result that depends on
        # the iteration order of a set or dict of strings differs between them
        bundles = []
        for hash_seed in ("1", "2"):
            shutil.rmtree(tmp_path / "bundle", ignore_errors=True)
            res = run_cli(
                "run", "--manifest", "corpus/manifest.json", "--scores", "corpus/scores.csv",
                "--out", "bundle", cwd=tmp_path, env_extra={"PYTHONHASHSEED": hash_seed},
            )
            assert res.returncode == 0, res.stderr
            bundles.append({p.name: p.read_bytes() for p in sorted((tmp_path / "bundle").iterdir())})
        first, second = bundles
        assert first == second
        assert set(first) == {
            "features.csv", "dtw_samples.csv", "entrain.csv", "validate.csv",
            "ttest.csv", "dyads.csv", "grid.csv", "run.json",
        }
