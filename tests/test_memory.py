"""Memory the feature stage keeps, holds while it runs, and the features.csv writer needs.

All are measured with tracemalloc on the golden-shaped corpus (4 dyads x
8 texts, seed 7). Each word's numbers live in one float column of the
corpus's contour store, so a retained word costs its 56 bytes of floats,
its share of its rendition's word tuple, key and offset, and a text that
equal words share. ``process_corpus`` holds one rendition's track at a
time, so what it holds above what it keeps hardly grows with the corpus.
"""

import tracemalloc

import pytest

from f0entrain import ingest, pipeline, synth

MAX_RETAINED_BYTES_PER_WORD = 120


def _golden_shaped(out, n_utterances):
    config = synth.SynthConfig(n_dyads=4, n_utterances=n_utterances, noise_eps=0.5, seed=7)
    manifest_path = synth.gen_corpus(config, out)
    run_config = pipeline.RunConfig(manifest=str(manifest_path), out=str(out / "report"))
    return ingest.load_manifest(manifest_path), run_config


@pytest.fixture(scope="module")
def golden_shaped(tmp_path_factory):
    return _golden_shaped(tmp_path_factory.mktemp("corpus"), 8)


def _traced_process_corpus(manifest, config):
    """The store, and the bytes process_corpus retains and holds at its peak."""
    pipeline.process_corpus(manifest, config)  # warm-up: fills the per-length word caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        processed = pipeline.process_corpus(manifest, config)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return processed, now - before, peak - before


def test_process_corpus_retains_few_bytes_per_word(golden_shaped):
    processed, retained, _ = _traced_process_corpus(*golden_shaped)
    words = processed.contours.table.shape[1]
    assert words == sum(map(len, processed.contours.words)) > 1000
    assert retained / words <= MAX_RETAINED_BYTES_PER_WORD


def test_process_corpus_peak_does_not_grow_with_the_corpus(golden_shaped, tmp_path):
    # the peak above what is retained is one rendition's working set plus
    # one small record per rendition, not every track of the corpus
    _, retained, peak = _traced_process_corpus(*golden_shaped)
    _, retained_2x, peak_2x = _traced_process_corpus(*_golden_shaped(tmp_path, 16))
    assert retained_2x > 1.8 * retained
    assert (peak_2x - retained_2x) - (peak - retained) < (retained_2x - retained) / 4


def test_features_csv_written_without_holding_its_text(golden_shaped, tmp_path):
    manifest, config = golden_shaped
    processed = pipeline.process_corpus(manifest, config)
    path = tmp_path / "features.csv"
    tracemalloc.start()
    try:
        pipeline.write_features_csv(processed, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
