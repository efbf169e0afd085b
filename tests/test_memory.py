"""Memory the feature stage keeps and the features.csv writer needs.

Both are measured with tracemalloc on the golden-shaped corpus (4 dyads x
8 texts, seed 7). Each word's numbers live in one float column of its
utterance's table, so a retained word costs its 56 bytes of floats, its
text and its share of the per-utterance objects.
"""

import tracemalloc

import pytest

from f0entrain import ingest, pipeline, synth

MAX_RETAINED_BYTES_PER_WORD = 350


@pytest.fixture(scope="module")
def golden_shaped(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    config = synth.SynthConfig(n_dyads=4, n_utterances=8, noise_eps=0.5, seed=7)
    manifest_path = synth.gen_corpus(config, out)
    run_config = pipeline.RunConfig(manifest=str(manifest_path), out=str(out / "report"))
    return ingest.load_manifest(manifest_path), run_config


def test_process_corpus_retains_few_bytes_per_word(golden_shaped):
    manifest, config = golden_shaped
    pipeline.process_corpus(manifest, config)  # warm-up: fills the per-length word caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        processed = pipeline.process_corpus(manifest, config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    words = sum(len(utt.words) for utt in processed.utterances.values())
    assert words > 1000
    assert retained / words <= MAX_RETAINED_BYTES_PER_WORD


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
