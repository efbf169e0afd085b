import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from f0entrain import ingest
from f0entrain.errors import ComputeError, DataError, ParseError, ValidationError
from f0entrain.types import WordSpan

from conftest import json_files, make_track, minimal_manifest_doc, write_manifest_doc
from oracles import write_f0_csv_by_rows


# ---------------------------------------------------------------------------
# manifest


def test_minimal_manifest_loads(tmp_path):
    path = write_manifest_doc(minimal_manifest_doc(), tmp_path)
    manifest = ingest.load_manifest(path)
    assert tuple(s.id for s in manifest.speakers) == ("A", "B")
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
    words = [{"word": s.text, "start": s.start, "end": s.end} for s in spans]
    path.write_text(json.dumps({"segments": [{"words": words}]}))
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
    assert list(~np.isnan(track.values)) == [True, True, False]
    assert track.values[1] == 210.0


def test_f0_csv_empty_field_is_unvoiced(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n0.00,200\n0.01,\n0.02,220\n")
    track = ingest.load_f0_csv(path)
    assert list(~np.isnan(track.values)) == [True, False, True]


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


@pytest.mark.parametrize(
    "rows, line",
    [
        ("0.00,200\n0.01,inf\n0.02,220\n", 3),
        ("0.00,200\n0.01,1e400\n0.02,220\n", 3),
        ("0.00,200\n0.01,nan\n0.02,220\n", 3),  # not unvoiced: only empty and 0 are
        ("nan,200\n0.01,210\n0.02,220\n", 2),
        ("0.00,200\n0.01,210\n0.02,220\nnan,230\n", 5),
        ("0.00,-inf\n0.01,210\n", 2),  # non-finite before negative
    ],
    ids=["inf-f0", "overflowing-f0", "nan-f0", "nan-time-row-1", "nan-time-row-4", "minus-inf-f0"],
)
def test_f0_csv_non_finite_rejected_naming_file_and_row(tmp_path, rows, line):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n" + rows)
    with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: non-finite time or F0")):
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
    assert len(track) * track.step == pytest.approx(5.0)


def test_f0_csv_round_trip(tmp_path, rng):
    n = 120
    values = np.round(rng.uniform(80, 300, n), 6)
    voiced = rng.uniform(size=n) > 0.2
    track = make_track(values, voiced, start=0.13, step=0.01)
    path = tmp_path / "rt.csv"
    ingest.write_f0_csv(track, path)
    reloaded = ingest.load_f0_csv(path)
    assert np.array_equal(np.isnan(reloaded.values), np.isnan(track.values))
    assert np.array_equal(reloaded.values, track.values, equal_nan=True)
    assert reloaded.start_time == pytest.approx(track.start_time, abs=1e-6)
    # fixpoint: write(load(write(t))) is byte-stable
    path2 = tmp_path / "rt2.csv"
    ingest.write_f0_csv(reloaded, path2)
    assert path.read_text() == path2.read_text()


VALID_F0 = st.one_of(
    st.floats(min_value=50, max_value=500).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["", "0", "0.0", "-0", "180", "1e2", "2.5E+2", "+95.5"]),
)
BAD_F0 = st.sampled_from(["-3", "abc", "1.2.3", "e5", "--1", "1e", ".", "nan", "inf", "1e999", " 7"])


@st.composite
def f0_csv_texts(draw):
    """F0 CSV text with LF line ends: half of it plainly formatted, the rest with
    irregularities mixed in; a few values are malformed and a few times off the step."""
    plain = draw(st.booleans())
    t0 = draw(st.sampled_from([0.0, 0.13, 2.5]))
    step = draw(st.sampled_from([0.01, 0.005]))
    rows = []
    for i in range(draw(st.integers(0, 12))):
        irregular = not plain and draw(st.integers(0, 5)) == 0
        row = "{t},{f}"
        if irregular:
            row = draw(st.sampled_from([" {t},{f}", "{t}, {f} ", "{t},{f},", "{t}", ",{f}", ""]))
        f0 = draw(BAD_F0 if draw(st.integers(0, 7)) == 0 else VALID_F0)
        off_step = draw(st.integers(0, 11)) == 0
        rows.append(row.format(t=f"{t0 + (i + off_step / 2) * step:.6f}", f=f0))
    header, end = "time_s,f0_hz", "\n"
    if not plain:
        header = draw(st.sampled_from([header] * 4 + [" time_s,f0_hz", "time,f0", ""]))
        end = draw(st.sampled_from(["\n", ""]))
    return header + "\n" + "\n".join(rows) + end


def _loaded(load, path):
    """(start_time, step, value bytes, NaN where unvoiced), or the exception's class and message."""
    try:
        track = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return track.start_time, track.step, track.values.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        f0_csv_texts(),
        st.text(alphabet="0123456789.,eE+- \n\tx", max_size=60).map(
            lambda body: "time_s,f0_hz\n" + body
        ),
    ),
    st.sampled_from(["\r\n", "\r"]),
)
def test_f0_fast_path_matches_table_path(tmp_path_factory, text, newline):
    """A text and its twin with other line ends load alike.

    A plain text takes the bytes fast path and its twin the CSV table path:
    both give the same track bytes, or the same error naming the same line.
    """
    loaded = []
    for ending in ("\n", newline):
        path = tmp_path_factory.mktemp("f0") / "f.csv"
        path.write_bytes(text.replace("\n", ending).encode())
        result = _loaded(ingest.load_f0_csv, path)
        if isinstance(result[0], type):  # an error names the file first
            assert result[1].startswith(f"{path}:"), result
            result = result[0], result[1][len(str(path)) :]
        loaded.append(result)
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize(
    "body, line, error",
    [
        ("\n\n0.00,200\n0.01,-5\n", 5, "negative F0 (-5.0)"),
        ("0.00,200\n\n \n0.01,inf\n", 5, "non-finite time or F0 (0.01, inf)"),
        ("0.00,200\n0.01,210\n\n0.025,220\n", 5, "non-uniform step (expected t=0.020000"),
        ("\n0.01,200\n0.00,210\n", 4, "times must be strictly increasing"),
        ("0.00,200\n\n0.01,abc\n", 4, "non-numeric field (could not convert string to float: 'abc')"),
        ("0.00,200\n0.01,210\n,\n", 4, "non-numeric field (could not convert string to float: '')"),
        ("0.00,200\n\n , \n", 4, "non-numeric field"),
        ("0.00,200\n\n0.01,210,1\n", 4, "expected 2 fields, got 3"),
    ],
    ids=["negative", "non-finite", "off-step", "decreasing", "non-numeric", "comma-row",
         "spaced-comma-row", "three-fields"],
)
def test_f0_csv_row_error_names_its_line(tmp_path, body, line, error):
    path = tmp_path / "f.csv"
    path.write_text("time_s,f0_hz\n" + body)
    with pytest.raises(DataError, match="^" + re.escape(f"{path}:{line}: {error}")):
        ingest.load_f0_csv(path)


def test_f0_csv_crlf_blank_lines_spaces_and_quotes_load_like_the_plain_file(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("time_s,f0_hz\n0.130000,200.5\n0.140000,\n0.150000,1e2\n0.160000,-0\n")
    irregular = tmp_path / "irregular.csv"
    irregular.write_bytes(
        b' time_s ,"f0_hz"\r\n\r\n 0.130000 , 200.5\r\n\t\r\n0.140000, \r\n'
        b'"0.150000","1e2"\r\n\r\n0.160000 ,-0'
    )
    assert _loaded(ingest.load_f0_csv, irregular) == _loaded(ingest.load_f0_csv, plain)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 30.0),
    st.sampled_from([0.01, 0.005, 0.0125, 0.001]),
    st.lists(
        st.tuples(st.booleans(), st.floats(0.0, 2000.0) | st.sampled_from([0.0, 1e-7, 5e-7, 999.9999995])),
        max_size=40,
    ),
)
def test_f0_writer_matches_row_writer(tmp_path_factory, t0, step, samples):
    voiced = np.array([on for on, _ in samples], dtype=bool)
    values = np.array([v if on else 0.0 for on, v in samples], dtype=float)
    track = make_track(values, voiced, start=t0, step=step)
    directory = tmp_path_factory.mktemp("f0w")
    ingest.write_f0_csv(track, directory / "fast.csv")
    write_f0_csv_by_rows(track, directory / "rows.csv")
    assert (directory / "fast.csv").read_bytes() == (directory / "rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# word windows


def test_slice_half_open_window():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    ((i0, i1),) = ingest.sample_windows(track, [WordSpan("w", 0.40, 0.50)])
    assert (i0, i1) == (40, 50)
    assert track.values[i0] == 140.0 and track.values[i1 - 1] == 149.0


def test_slice_empty_window():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    ((i0, i1),) = ingest.sample_windows(track, [WordSpan("w", 0.995, 0.999)])
    assert i1 <= i0


def test_slice_whole_track_is_identity():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    assert ingest.sample_windows(track, [WordSpan("w", 0.0, 1.0)]) == [(0, len(track))]


def test_consecutive_spans_partition_samples():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    spans = [WordSpan("a", 0.0, 0.33), WordSpan("b", 0.33, 0.61), WordSpan("c", 0.61, 1.0)]
    windows = ingest.sample_windows(track, spans)
    assert windows[0][0] == 0 and windows[-1][1] == len(track)
    # each window starts where the previous one ends: no sample twice, none missed
    assert all(prev[1] == cur[0] for prev, cur in zip(windows, windows[1:]))
    stitched = np.concatenate([track.values[i0:i1] for i0, i1 in windows])
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


def test_far_out_word_times_select_the_whole_track():
    track = make_track(100 + np.arange(100, dtype=float), step=0.01)
    spans = [WordSpan("w", -1e308, 1e308), WordSpan("x", 1e300, 1e301)]
    windows = ingest.sample_windows(track, spans)
    assert windows[0] == (0, len(track))
    assert windows[1][1] <= windows[1][0]


# ---------------------------------------------------------------------------
# any input: a value, or a DataError that names the file

ALIGNMENT_DOC = {"segments": [{"words": [
    {"word": "a", "start": 0.1, "end": 0.2}, {"word": "b", "start": 0.2, "end": 0.3},
]}]}
SCORES_HEADER = "speaker,rater,pronunciation,intonation,fluency,overall\n"


@pytest.mark.parametrize("load, name", [
    (ingest.load_manifest, "manifest.json"),
    (ingest.load_alignment, "a.json"),
    (ingest.load_scores, "scores.csv"),
    (ingest.load_f0_csv, "f.csv"),
])
def test_non_utf8_input_names_file(tmp_path, load, name):
    path = tmp_path / name
    path.write_bytes(b"time_s,f0_hz\n0.0,1\xff0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text")):
        load(path)


@pytest.mark.parametrize(
    "text", ["Infinity", "-Infinity", "NaN", "1.5", "1e400", "[0]", "true", "false", '"0"']
)
def test_non_integer_json_index_rejected(tmp_path, text):
    path = tmp_path / "manifest.json"
    doc = json.dumps(minimal_manifest_doc()).replace('"index": 0', f'"index": {text}', 1)
    path.write_text(doc)
    with pytest.raises(ParseError, match=re.escape(f"{path}: utterances[0] has non-integer index")):
        ingest.load_manifest(path)


@pytest.mark.parametrize("value", [3, None, ["f0/a.csv"], "f0/a\0.csv"])
def test_file_field_not_a_path_rejected(tmp_path, value):
    doc = minimal_manifest_doc()
    doc["utterances"][1]["imitator_f0"] = value
    path = write_manifest_doc(doc, tmp_path)
    with pytest.raises(
        ParseError, match=re.escape(f"{path}: utterances[1]: imitator_f0 must be a file path")
    ):
        ingest.load_manifest(path)


@pytest.mark.parametrize("load", [ingest.load_manifest, ingest.load_alignment])
def test_deeply_nested_json_names_file(tmp_path, load):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match=re.escape(f"{path}: not valid JSON")):
        load(path)


def test_json_surrogate_pairs_load_and_lone_halves_name_the_file():
    # an escaped pair is one character; an escaped backslash starts no escape
    text = '["\\ud83d\\ude00", {"\\u00e9": "\\\\ud800"}]'
    assert ingest.parse_json(text, "p.json") == ["\U0001f600", {"é": "\\ud800"}]
    for text in ('["\\ud800x"]', '{"a": ["\\udc00"]}', '{"\\ud83d": 1}', '["\\ude00\\ud83d"]'):
        with pytest.raises(ParseError, match=re.escape("p.json: not valid JSON (lone surrogate \\u")):
            ingest.parse_json(text, "p.json")


# "ud83d" after a backslash reads as an escape unless the backslash is seen to be escaped
STRING_PARTS = ["é", "ud83d", "\\", "\ud83d", "\ude00", "\udbff", "\U0001f600"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(STRING_PARTS)).map("".join)))
def test_json_is_rejected_iff_a_loaded_string_is_not_unicode(strings):
    text = json.dumps(strings)  # ASCII: every surrogate is written as a \u escape
    loaded = json.loads(text)  # the escapes of a high half then a low half load as one character
    if any("\ud800" <= c <= "\udfff" for s in loaded for c in s):
        with pytest.raises(ParseError, match=re.escape("p.json: not valid JSON (lone surrogate")):
            ingest.parse_json(text, "p.json")
    else:
        assert ingest.parse_json(text, "p.json") == loaded


@pytest.mark.parametrize("end", ["Infinity", "1e400", "NaN", "-Infinity"])
def test_non_finite_word_time_rejected(tmp_path, end):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(ALIGNMENT_DOC).replace('"end": 0.3', f'"end": {end}'))
    with pytest.raises(ParseError, match=re.escape(f"{path}: word 'b' has a non-finite time")):
        ingest.load_alignment(path)


def test_huge_integer_word_time_names_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(ALIGNMENT_DOC).replace('"end": 0.3', '"end": 1' + "0" * 400))
    with pytest.raises(ParseError, match=re.escape(f"{path}: word 'b' has a non-numeric time")):
        ingest.load_alignment(path)


def test_scores_field_over_csv_limit_names_file(tmp_path):
    path = _scores_csv(tmp_path, '"' + "x" * 200_000 + '",R1,4,3,5,4\n')
    with pytest.raises(ParseError, match=re.escape(f"{path}: not CSV")):
        ingest.load_scores(path)


SCORE_FIELDS = st.sampled_from(["S1", "R1", "3", "4.5", "9", "nan", "inf", "", '"', "x"])
SCORES_FILES = st.one_of(
    st.lists(st.lists(SCORE_FIELDS, max_size=7).map(",".join), max_size=4).map(
        lambda rows: (SCORES_HEADER + "\n".join(rows)).encode()
    ),
    st.binary(max_size=80),
    st.text(max_size=80).map(lambda text: (SCORES_HEADER + text).encode()),
)


def _value_or_named_error(load, path):
    try:
        load(path)
    except DataError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        json_files(minimal_manifest_doc()).map(lambda raw: (ingest.load_manifest, raw)),
        json_files(ALIGNMENT_DOC).map(lambda raw: (ingest.load_alignment, raw)),
        SCORES_FILES.map(lambda raw: (ingest.load_scores, raw)),
    )
)
def test_any_loader_input_gives_a_value_or_a_named_error(tmp_path_factory, case):
    load, raw = case
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(raw)
    _value_or_named_error(load, path)


def test_csv_table_keeps_line_numbers_and_skips_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\r\n1,2\r\n\r\n , \r\n3,4\r\n")
    assert ingest.read_csv_table(path) == (["a", "b"], [(2, ["1", "2"]), (5, ["3", "4"])])


def test_empty_csv_names_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"")
    with pytest.raises(ParseError, match=re.escape(f"{path}: empty file")):
        ingest.read_csv_table(path)


@pytest.mark.parametrize("cell", ["x", "nan", "inf"])
def test_scores_cell_not_a_finite_number_names_line_and_column(tmp_path, cell):
    path = _scores_csv(tmp_path, f"S1,R1,4,{cell},5,4\n")
    with pytest.raises(
        ParseError, match=re.escape(f"{path}:2: intonation: expected a finite number, got '{cell}'")
    ):
        ingest.load_scores(path)
