import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain import ingest
from f0entrain.errors import ComputeError, ParseError, ValidationError
from f0entrain.types import WordSpan

from conftest import make_track, minimal_manifest_doc, write_manifest_doc
from oracles import load_f0_csv_by_lines


# ---------------------------------------------------------------------------
# manifest


def test_minimal_manifest_loads(tmp_path):
    path = write_manifest_doc(minimal_manifest_doc(), tmp_path)
    manifest = ingest.load_manifest(path)
    assert manifest.speaker_ids == ("A", "B")
    assert len(manifest.utterances) == 2
    assert manifest.partner_of("A") == "B"
    # relative paths are resolved against the manifest directory
    assert manifest.utterances[0].imitator_f0 == str(tmp_path / "f0/A_0.csv")


def test_self_dyad_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["dyads"] = [["A", "A"]]
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="self-dyad"):
        ingest.load_manifest(path)


def test_dangling_speaker_reference(tmp_path):
    doc = minimal_manifest_doc()
    doc["utterances"][0]["imitator"] = "Z"
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="Z"):
        ingest.load_manifest(path)


def test_speaker_in_two_dyads_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["speakers"] += [{"id": "C"}, {"id": "D"}]
    doc["dyads"] = [["A", "B"], ["B", "C"]]
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="'B'"):
        ingest.load_manifest(path)


def test_speaker_outside_any_dyad_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["speakers"].append({"id": "C"})
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="C"):
        ingest.load_manifest(path)


def test_duplicate_pair_index_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["utterances"][1]["imitator"] = "A"
    doc["utterances"][1]["model"] = "B"
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="duplicates utterance index"):
        ingest.load_manifest(path)


def test_non_integer_index_names_file(tmp_path):
    doc = minimal_manifest_doc()
    doc["utterances"][1]["index"] = "first"
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ParseError, match=re.escape(f"{path}: utterances[1] has non-integer index")):
        ingest.load_manifest(path)


@pytest.mark.parametrize("field", ["speakers", "dyads", "utterances"])
def test_top_level_field_not_a_list_names_file(tmp_path, field):
    doc = minimal_manifest_doc()
    doc[field] = 5
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ParseError, match=re.escape(f"{path}: {field} must be a list")):
        ingest.load_manifest(path)


@pytest.mark.parametrize("field, context", [
    ("model_f0", "utterances[0]"),
    ("index", "utterances[0]"),
    ("id", "speakers[0]"),
])
def test_missing_field_names_file(tmp_path, field, context):
    doc = minimal_manifest_doc()
    del (doc["speakers"] if context.startswith("speakers") else doc["utterances"])[0][field]
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ParseError, match=re.escape(f"{path}: {context}: missing field {field!r}")):
        ingest.load_manifest(path)


def test_f0_file_under_two_keys_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["utterances"][1]["model_f0"] = doc["utterances"][0]["imitator_f0"]
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError) as info:
        ingest.load_manifest(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert str(tmp_path / "f0/A_0.csv") in message
    assert "('A', 0, 'imitator')" in message and "('A', 0, 'model')" in message


def test_imitator_equals_model_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["utterances"][0]["model"] = "A"
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="imitator == model"):
        ingest.load_manifest(path)


def test_cross_dyad_record_rejected(tmp_path):
    doc = minimal_manifest_doc()
    doc["speakers"] += [{"id": "C", "sex": "M"}, {"id": "D", "sex": "M"}]
    doc["dyads"].append(["C", "D"])
    doc["utterances"][0]["model"] = "C"
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(ValidationError, match="different dyads"):
        ingest.load_manifest(path)


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        ingest.load_manifest(path)


def test_manifest_round_trip(tmp_path):
    path = write_manifest_doc(minimal_manifest_doc(), tmp_path)
    loaded = ingest.load_manifest(path)
    out = tmp_path / "copy.json"
    ingest.write_manifest(loaded, out)
    assert ingest.load_manifest(out) == loaded


def test_art_shaped_manifest(tmp_path):
    # 58 speakers in 29 same-sex dyads, 40 imitations per speaker
    speakers = [{"id": f"S{i:02d}", "sex": "F" if i < 40 else "M"} for i in range(58)]
    dyads = [[f"S{2 * d:02d}", f"S{2 * d + 1:02d}"] for d in range(29)]
    utterances = []
    for a, b in dyads:
        for k in range(40):
            for imit, model in ((a, b), (b, a)):
                utterances.append(
                    {
                        "index": k,
                        "imitator": imit,
                        "model": model,
                        "imitator_f0": f"f0/{imit}_{k}i.csv",
                        "model_f0": f"f0/{model}_{k}m.csv",
                        "imitator_align": f"al/{imit}_{k}i.json",
                        "model_align": f"al/{model}_{k}m.json",
                    }
                )
    path = write_manifest_doc(
        {"speakers": speakers, "dyads": dyads, "utterances": utterances}, tmp_path
    )
    manifest = ingest.load_manifest(path)
    assert len(manifest.utterances) == 2320
    per_speaker = sum(1 for r in manifest.utterances if r.imitator == "S00")
    assert per_speaker == 40


# ---------------------------------------------------------------------------
# alignments


def _write_align(tmp_path, words):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"segments": [{"words": words}]}))
    return path


def test_alignment_basic(tmp_path):
    path = _write_align(
        tmp_path,
        [
            {"word": "the", "start": 0.10, "end": 0.22},
            {"word": "north", "start": 0.22, "end": 0.58},
        ],
    )
    spans, dropped = ingest.load_alignment(path)
    assert dropped == 0
    assert spans == [WordSpan("the", 0.10, 0.22), WordSpan("north", 0.22, 0.58)]


def test_word_without_end_dropped_with_warning(tmp_path):
    path = _write_align(
        tmp_path,
        [
            {"word": "the", "start": 0.10, "end": 0.22},
            {"word": "uh", "start": 0.22},
        ],
    )
    spans, dropped = ingest.load_alignment(path)
    assert len(spans) == 1
    assert dropped == 1


def test_overlapping_spans_rejected(tmp_path):
    path = _write_align(
        tmp_path,
        [
            {"word": "a", "start": 0.1, "end": 0.5},
            {"word": "b", "start": 0.4, "end": 0.9},
        ],
    )
    with pytest.raises(ValidationError, match="overlap"):
        ingest.load_alignment(path)


def test_empty_alignment_rejected(tmp_path):
    path = _write_align(tmp_path, [{"word": "x"}])
    with pytest.raises(ComputeError, match="no timed words"):
        ingest.load_alignment(path)


def test_segment_not_an_object_names_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"segments": [5]}))
    with pytest.raises(ParseError, match=re.escape(f"{path}: segments[0] must be an object")):
        ingest.load_alignment(path)


def test_non_numeric_word_time_names_file(tmp_path):
    path = _write_align(tmp_path, [{"word": "the", "start": "soon", "end": 0.22}])
    with pytest.raises(ParseError, match=re.escape(f"{path}: word 'the' has a non-numeric time")):
        ingest.load_alignment(path)


def test_alignment_round_trip(tmp_path):
    spans = [WordSpan("a", 0.0, 0.31), WordSpan("b", 0.31, 0.62)]
    path = tmp_path / "rt.json"
    ingest.write_alignment(spans, path)
    loaded, dropped = ingest.load_alignment(path)
    assert loaded == spans and dropped == 0


# ---------------------------------------------------------------------------
# F0 CSV


def test_f0_csv_basic(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n0.00,200\n0.01,210\n0.02,0\n")
    track = ingest.load_f0_csv(path)
    assert len(track) == 3
    assert track.step == pytest.approx(0.01)
    assert list(track.voiced) == [True, True, False]
    assert track.values[1] == 210.0


def test_f0_csv_empty_field_is_unvoiced(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n0.00,200\n0.01,\n0.02,220\n")
    track = ingest.load_f0_csv(path)
    assert list(track.voiced) == [True, False, True]


def test_f0_csv_non_uniform_step(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n0.00,200\n0.01,210\n0.025,220\n")
    with pytest.raises(ValidationError, match="non-uniform step"):
        ingest.load_f0_csv(path)


def test_f0_csv_negative_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n0.00,200\n0.01,-210\n")
    with pytest.raises(ValidationError, match="negative F0"):
        ingest.load_f0_csv(path)


def test_f0_csv_empty_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        ingest.load_f0_csv(path)
    path.write_text("time_s,f0_hz\n")
    with pytest.raises(ParseError, match="no samples"):
        ingest.load_f0_csv(path)


def test_f0_csv_500_rows_duration(tmp_path):
    path = tmp_path / "f.csv"
    rows = "\n".join(f"{i * 0.01:.6f},{150 + (i % 7)}" for i in range(500))
    path.write_text("time_s,f0_hz\n" + rows + "\n")
    track = ingest.load_f0_csv(path)
    assert len(track) == 500
    assert track.duration == pytest.approx(5.0)


def test_f0_csv_round_trip(tmp_path, rng):
    n = 120
    values = np.round(rng.uniform(80, 300, n), 6)
    voiced = rng.uniform(size=n) > 0.2
    track = make_track(values, voiced, start=0.13, step=0.01)
    path = tmp_path / "rt.csv"
    ingest.write_f0_csv(track, path)
    reloaded = ingest.load_f0_csv(path)
    assert np.array_equal(reloaded.voiced, track.voiced)
    assert np.array_equal(reloaded.values[reloaded.voiced], track.values[track.voiced])
    assert reloaded.start_time == pytest.approx(track.start_time, abs=1e-6)
    # fixpoint: write(load(write(t))) is byte-stable
    path2 = tmp_path / "rt2.csv"
    ingest.write_f0_csv(reloaded, path2)
    assert path.read_text() == path2.read_text()


VALID_F0 = st.one_of(
    st.floats(min_value=50, max_value=500).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["", "0", "0.0", "-0", "180", "1e2", "2.5E+2", "+95.5", "1e999"]),
)
BAD_F0 = st.sampled_from(["-3", "abc", "1.2.3", "e5", "--1", "1e", ".", "nan", "inf", " 7"])


@st.composite
def f0_csv_texts(draw):
    """F0 CSV text: half of it plainly formatted, the rest with irregularities mixed in."""
    plain = draw(st.booleans())
    t0 = draw(st.sampled_from([0.0, 0.13, 2.5]))
    step = draw(st.sampled_from([0.01, 0.005]))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        irregular = not plain and draw(st.integers(0, 5)) == 0
        row = "{t},{f}"
        if irregular:
            row = draw(st.sampled_from([" {t},{f}", "{t}, {f} ", "{t},{f},", "{t}", ",{f}", ""]))
        f0 = draw(BAD_F0 if irregular and draw(st.booleans()) else VALID_F0)
        rows.append(row.format(t=f"{t0 + i * step:.6f}", f=f0))
    header, newline, end = "time_s,f0_hz", "\n", "\n"
    if not plain:
        header = draw(st.sampled_from([header] * 4 + [" time_s,f0_hz", "time,f0", ""]))
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
        end = draw(st.sampled_from([newline, ""]))
    return header + newline + newline.join(rows) + end


def _loaded(load, path):
    """(start_time, step, value and voicing bytes), or the exception's class and message."""
    try:
        track = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return track.start_time, track.step, track.values.tobytes(), track.voiced.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        f0_csv_texts(),
        st.text(alphabet="0123456789.,eE+- \n\r\tx", max_size=60).map(
            lambda body: "time_s,f0_hz\n" + body
        ),
    )
)
def test_f0_loader_matches_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("f0") / "f.csv"
    path.write_bytes(text.encode())
    assert _loaded(ingest.load_f0_csv, path) == _loaded(load_f0_csv_by_lines, path)


# ---------------------------------------------------------------------------
# slicing


def test_slice_half_open_window():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    piece = ingest.slice_track(track, WordSpan("w", 0.40, 0.50))
    assert len(piece) == 10
    assert piece.start_time == pytest.approx(0.40)
    assert piece.values[0] == 140.0 and piece.values[-1] == 149.0


def test_slice_empty_is_error():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    with pytest.raises(ComputeError, match="empty slice"):
        ingest.slice_track(track, WordSpan("w", 0.995, 0.999))


def test_slice_whole_track_is_identity():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    assert ingest.slice_track(track, WordSpan("w", 0.0, 1.0)) == track


def test_consecutive_spans_partition_samples():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    spans = [WordSpan("a", 0.0, 0.33), WordSpan("b", 0.33, 0.61), WordSpan("c", 0.61, 1.0)]
    pieces = [ingest.slice_track(track, s) for s in spans]
    assert sum(len(p) for p in pieces) == len(track)
    stitched = np.concatenate([p.values for p in pieces])
    assert np.array_equal(stitched, track.values)


# ---------------------------------------------------------------------------
# scores


def _scores_csv(tmp_path, body):
    path = tmp_path / "scores.csv"
    path.write_text("speaker,rater,pronunciation,intonation,fluency,overall\n" + body)
    return path


def test_scores_final_is_mean(tmp_path):
    table = ingest.load_scores(_scores_csv(tmp_path, "S1,R1,4,3,5,4\n"))
    assert table.rows[0].final == pytest.approx(4.0)


def test_scores_out_of_range(tmp_path):
    with pytest.raises(ValidationError, match="out of range"):
        ingest.load_scores(_scores_csv(tmp_path, "S1,R1,6,3,5,4\n"))


def test_scores_duplicate_rater_row(tmp_path):
    body = "S1,R1,4,3,5,4\nS1,R1,4,4,4,4\n"
    with pytest.raises(ValidationError, match="duplicate"):
        ingest.load_scores(_scores_csv(tmp_path, body))


def test_scores_58_speakers_6_raters(tmp_path, rng):
    lines = []
    for i in range(58):
        for r in range(6):
            vals = rng.integers(1, 6, size=4)
            lines.append(f"S{i:02d},R{r},{vals[0]},{vals[1]},{vals[2]},{vals[3]}")
    table = ingest.load_scores(_scores_csv(tmp_path, "\n".join(lines) + "\n"))
    assert len(table.rows) == 348
    means = table.speaker_means()
    assert len(means) == 58
    some = means["S00"]
    assert set(some) == {"pronunciation", "intonation", "fluency", "overall", "final"}
    assert some["final"] == pytest.approx(
        np.mean([some[c] for c in ("pronunciation", "intonation", "fluency", "overall")])
    )


def test_scores_round_trip(tmp_path):
    table = ingest.load_scores(_scores_csv(tmp_path, "S1,R1,4,3,5,4\nS2,R1,2,2,3,3\n"))
    out = tmp_path / "out.csv"
    ingest.write_scores_csv(table.rows, out)
    again = ingest.load_scores(out)
    for a, b in zip(table.rows, again.rows):
        assert a.speaker == b.speaker and a.rater == b.rater
        assert a.final == pytest.approx(b.final, abs=1e-9)
