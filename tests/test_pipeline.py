"""Properties of a whole pipeline run: what it reads, hashes and reports.

* Each run hashes the bytes its own ingest read, each file the manifest
  names once; ``corpus_checksum`` reads only the manifest, never an F0
  CSV or alignment again.
* Metamorphic relations: reordering the manifest's utterances changes no
  per-speaker value, renaming speakers only permutes the report rows,
  swapping each dyad's members only swaps and negates the dyads.csv rows,
  shifting every time by a constant moves only the word times, and under
  ``--semitone`` doubling every F0 value leaves the DTW distances.
* Renditions are processed one at a time, so the first faulty rendition
  in manifest order is the one an error names.
"""

import builtins
import json
import random
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from f0entrain import ingest, pipeline, synth
from f0entrain.errors import ParseError
from f0entrain.features import FEATURE_NAMES

from conftest import nudge_f0_byte, render_wavs

ROW_FILES = ("features.csv", "dtw_samples.csv", "entrain.csv", "validate.csv", "dyads.csv")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=3, noise_eps=0.6, seed=13), root)
    return root


def _config(manifest, out):
    return pipeline.RunConfig(manifest=str(manifest), out=str(out))


def _rewrite_f0(corpus: Path, time=lambda t: t, f0=lambda v: v) -> None:
    """Apply ``time`` and ``f0`` to every F0 CSV row of ``corpus``, keeping 6 decimals."""
    for path in (corpus / "f0").glob("*.csv"):
        header, *rows = path.read_text().splitlines()
        fields = (row.split(",") for row in rows)
        # an empty F0 field (unvoiced) stays empty
        rows = [f"{time(float(t)):.6f}," + (f"{f0(float(v)):.6f}" if v else "") for t, v in fields]
        path.write_text("\n".join([header, *rows]) + "\n")


def _rewritten(corpus: Path, name: str, edit) -> Path:
    """A manifest next to ``corpus``'s, with ``edit`` applied to its document."""
    doc = json.loads((corpus / "manifest.json").read_text())
    edit(doc)
    path = corpus / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# one hash per input file, per run


def test_each_run_checksums_the_bytes_it_read(tmp_path, monkeypatch):
    manifest_path = synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5, seed=5), tmp_path)
    manifest = ingest.load_manifest(manifest_path)

    opened = []
    real_checksum = pipeline.corpus_checksum

    def recording(real_open):
        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)
        return recording_open

    def spied_checksum(*args):
        with monkeypatch.context() as m:
            m.setattr(Path, "open", recording(Path.open))
            m.setattr(builtins, "open", recording(builtins.open))
            return real_checksum(*args)

    monkeypatch.setattr(pipeline, "corpus_checksum", spied_checksum)

    checksums = []
    for run in ("first", "second"):
        pipeline.run_pipeline(_config(manifest_path, tmp_path / run))
        checksums.append(json.loads((tmp_path / run / "run.json").read_text())["corpus_checksum"])
        assert checksums[-1] == real_checksum(manifest_path, manifest)  # hashed from scratch
        nudge_f0_byte(Path(manifest.utterances[0].imitator_f0))
    assert checksums[0] != checksums[1]
    assert opened == [str(manifest_path)] * 2


@pytest.mark.parametrize("options", [
    {"outlier_scope": "speaker"},  # reads each F0 file twice
    {"from_wav": True},            # reads F0 caches the manifest does not name
], ids=["speaker-scope", "from-wav"])
def test_each_named_file_is_hashed_once(tmp_path, monkeypatch, options):
    synth.gen_corpus(synth.SynthConfig(n_dyads=4, n_utterances=2, noise_eps=0.5, seed=5), tmp_path)
    render_wavs(tmp_path)
    manifest_path = tmp_path / ("manifest_wav.json" if options.get("from_wav") else "manifest.json")
    manifest = ingest.load_manifest(manifest_path)
    named = {p for rec in manifest.utterances
             for p in (rec.imitator_f0, rec.model_f0, rec.imitator_align, rec.model_align)}
    # the outer digest hashes the manifest's bytes, then one digest per named file
    expected = sorted([manifest_path.read_bytes()] + [Path(p).read_bytes() for p in named])
    checksum = pipeline.corpus_checksum(manifest_path, manifest)

    real_sha256 = ingest.sha256
    hashed = []

    def counting_sha256(data=b""):
        hashed.append(bytes(data))
        return real_sha256(data)

    monkeypatch.setattr(ingest, "sha256", counting_sha256)
    for run in ("first", "second"):  # from WAVs: cold, then with every F0 cache there
        hashed.clear()
        pipeline.run_pipeline(pipeline.RunConfig(str(manifest_path), str(tmp_path / run), **options))
        assert sorted(hashed) == expected, run
        assert json.loads((tmp_path / run / "run.json").read_text())["corpus_checksum"] == checksum


# ---------------------------------------------------------------------------
# metamorphic relations


def _speaker_values(manifest_path: Path) -> dict:
    stages = pipeline.run_stages(_config(manifest_path, "."), {"dtw", "norm", "surrogates"})
    m = stages.measurement
    values = {}
    for i, speaker in enumerate(m.speakers):
        for f, feature in enumerate(FEATURE_NAMES):
            e_opt = None if np.isnan(m.e_opt[i, f]) else float(m.e_opt[i, f])
            values["score", speaker, feature] = (float(m.e_raw[i, f]), e_opt, int(m.n_used[i, f]))
            values["validate", speaker, feature] = (
                float(m.partner_distance[i, f]), float(m.other_distance[i, f]),
                int(m.n_surrogates[i]),
            )
    for (a, b), row in zip(m.dyads, m.inner_dyad.tolist()):
        values.update(
            (("dyad", a, b, feature), (inner,)) for feature, inner in zip(FEATURE_NAMES, row)
        )
    return values


def test_reordering_utterances_keeps_every_speaker_value(corpus):
    shuffled = _rewritten(
        corpus, "manifest_shuffled.json", lambda doc: random.Random(3).shuffle(doc["utterances"])
    )
    expected = _speaker_values(corpus / "manifest.json")
    got = _speaker_values(shuffled)
    assert got.keys() == expected.keys()
    for key, values in expected.items():
        # only the order of summation may move a float, by a few ulps
        assert got[key] == pytest.approx(values, rel=1e-12, abs=1e-12), key


def test_renaming_speakers_only_permutes_rows(corpus, tmp_path):
    ids = [s["id"] for s in json.loads((corpus / "manifest.json").read_text())["speakers"]]
    # reversed names, so every table sorted by speaker comes out in another order
    new_name = {old: f"R{len(ids) - i:02d}" for i, old in enumerate(ids)}

    def rename(doc):
        for speaker in doc["speakers"]:
            speaker["id"] = new_name[speaker["id"]]
        doc["dyads"] = [[new_name[a], new_name[b]] for a, b in doc["dyads"]]
        for rec in doc["utterances"]:
            rec["imitator"], rec["model"] = new_name[rec["imitator"]], new_name[rec["model"]]

    renamed = _rewritten(corpus, "manifest_renamed.json", rename)
    pipeline.run_pipeline(_config(corpus / "manifest.json", tmp_path / "a"))
    pipeline.run_pipeline(_config(renamed, tmp_path / "b"))
    old_name = {new: old for old, new in new_name.items()}
    permuted = []
    for name in ROW_FILES:
        header, *rows = (tmp_path / "a" / name).read_text().splitlines()
        header_b, *rows_b = (tmp_path / "b" / name).read_text().splitlines()
        named_back = [",".join(old_name.get(cell, cell) for cell in row.split(",")) for row in rows_b]
        assert header_b == header
        assert sorted(named_back) == sorted(rows), name
        permuted.append(named_back != rows)
    assert permuted == [False, False, True, True, False]


def test_swapping_dyad_members_only_swaps_and_negates_inner_dyad(corpus, tmp_path):
    # the manifest and the bundle keep their paths, so run.json records the same config
    root = tmp_path / "corpus"
    shutil.copytree(corpus, root)
    bundles = []
    for swap in (False, True):
        if swap:
            _rewritten(root, "manifest.json", lambda doc: doc.update(
                dyads=[[b, a] for a, b in doc["dyads"]]
            ))
        pipeline.run_pipeline(_config(root / "manifest.json", tmp_path / "bundle"))
        bundles.append({p.name: p.read_bytes() for p in (tmp_path / "bundle").iterdir()})
    before, after = bundles
    assert before.keys() == after.keys() == set(pipeline.BUNDLE)

    header, *rows = before.pop("dyads.csv").decode().splitlines()
    header_b, *rows_b = after.pop("dyads.csv").decode().splitlines()
    assert header_b == header
    assert len(rows_b) == len(rows)
    for row, row_b in zip(rows, rows_b):
        a, b, feature, inner = row.split(",")
        assert row_b.split(",")[:3] == [b, a, feature]
        assert float(row_b.split(",")[3]) == -float(inner)

    run, run_b = json.loads(before.pop("run.json")), json.loads(after.pop("run.json"))
    assert run.pop("corpus_checksum") != run_b.pop("corpus_checksum")
    assert run_b == run
    assert after == before  # the other six files, byte for byte


@pytest.mark.parametrize("c", [1.0, 0.37])
def test_time_shift_moves_only_the_word_times(corpus, tmp_path, c):
    root = shutil.copytree(corpus, tmp_path / "shifted")
    _rewrite_f0(root, time=lambda t: t + c)
    for path in (root / "align").glob("*.json"):
        doc = json.loads(path.read_text())
        for word in (w for segment in doc["segments"] for w in segment["words"]):
            word.update((key, round(word[key] + c, 6)) for key in ("start", "end") if key in word)
        path.write_text(json.dumps(doc))
    base, shifted = (
        pipeline.run_stages(_config(manifest, "."), ()).processed
        for manifest in (corpus / "manifest.json", root / "manifest.json")
    )
    assert shifted.dropped_words == base.dropped_words
    keys = [[(r.speaker, r.index, r.role) for r in p.renditions] for p in (base, shifted)]
    assert keys[1] == keys[0]
    assert np.array_equal(shifted.contours.bounds, base.contours.bounds)
    assert shifted.contours.words == base.contours.words
    times, features = base.contours.table[:2], base.contours.table[2:]
    np.testing.assert_allclose(shifted.contours.table[:2], times + c, rtol=0, atol=1e-9)
    # drop divides by the step inferred from the shifted times: not bit-equal
    np.testing.assert_allclose(shifted.contours.table[2:], features, rtol=1e-12, atol=0)


def test_doubling_f0_keeps_semitone_dtw_distances(corpus, tmp_path):
    # x2 keeps 6 decimals exact, where x0.5 would need a 7th
    root = shutil.copytree(corpus, tmp_path / "doubled")
    _rewrite_f0(root, f0=lambda v: 2 * v)
    base, doubled = (
        pipeline.run_stages(
            pipeline.RunConfig(manifest=str(manifest), out=".", semitone=100.0), {"dtw"}
        ).measurement.samples
        for manifest in (corpus / "manifest.json", root / "manifest.json")
    )
    events = len(ingest.load_manifest(corpus / "manifest.json").utterances)
    assert doubled.shape == base.shape == (5, events)
    np.testing.assert_allclose(doubled, base, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# error order


def test_first_faulty_rendition_is_named(tmp_path):
    manifest_path = synth.gen_corpus(synth.SynthConfig(n_dyads=2, n_utterances=2, seed=1), tmp_path)
    manifest = ingest.load_manifest(manifest_path)
    bad_alignment = Path(manifest.utterances[0].imitator_align)  # the first rendition's
    bad_f0 = Path(manifest.utterances[-1].model_f0)  # the last rendition's
    bad_alignment.write_text("{")
    bad_f0.write_text("time_s,f0_hz\nnot,numbers\n")
    with pytest.raises(ParseError, match="^" + re.escape(f"{bad_alignment}: not valid JSON")):
        pipeline.run_stages(_config(manifest_path, tmp_path / "out"), ())
