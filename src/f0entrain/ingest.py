"""Corpus ingestion: manifests, word alignments, F0 CSV tracks, score tables.

All loaders are pure functions of file contents and return immutable
domain objects, so they are safe to call concurrently on distinct paths.
File formats:

* Manifest JSON: ``{"speakers": [{"id", "sex", "l1"}...], "dyads": [[a, b]...],
  "utterances": [{"index", "imitator", "model", "imitator_f0", "model_f0",
  "imitator_align", "model_align"}...]}``. Relative paths are resolved
  against the manifest's directory at load time.
* Alignment JSON (WhisperX-compatible subset):
  ``{"segments": [{"words": [{"word", "start", "end"}...]}...]}``.
* F0 CSV: header ``time_s,f0_hz``; an empty or ``0`` f0 field marks an
  unvoiced sample.
* Scores CSV: header ``speaker,rater,pronunciation,intonation,fluency,overall``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from f0entrain.errors import ComputeError, ParseError, ValidationError
from f0entrain.types import F0Track, WordSpan

TIME_TOLERANCE_S = 1e-6

CRITERIA = ("pronunciation", "intonation", "fluency", "overall")
ALL_CRITERIA = CRITERIA + ("final",)

SCORE_MIN, SCORE_MAX = 1.0, 5.0


@dataclass(frozen=True)
class Speaker:
    id: str
    sex: str | None = None
    l1: str | None = None


@dataclass(frozen=True)
class UtteranceRecord:
    """One imitation event: who imitated whom on which turn, and the files."""

    index: int
    imitator: str
    model: str
    imitator_f0: str
    model_f0: str
    imitator_align: str
    model_align: str


@dataclass(frozen=True)
class CorpusManifest:
    speakers: tuple[Speaker, ...]
    dyads: tuple[tuple[str, str], ...]
    utterances: tuple[UtteranceRecord, ...]

    @property
    def speaker_ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.speakers)

    def speaker(self, speaker_id: str) -> Speaker:
        for s in self.speakers:
            if s.id == speaker_id:
                return s
        raise KeyError(speaker_id)

    def partner_of(self, speaker_id: str) -> str:
        for a, b in self.dyads:
            if a == speaker_id:
                return b
            if b == speaker_id:
                return a
        raise KeyError(f"speaker {speaker_id!r} is not in any dyad")


@dataclass(frozen=True)
class ScoreRow:
    speaker: str
    rater: str
    pronunciation: float
    intonation: float
    fluency: float
    overall: float
    final: float


@dataclass(frozen=True)
class ScoreTable:
    rows: tuple[ScoreRow, ...] = field(repr=False)

    def speaker_means(self) -> dict[str, dict[str, float]]:
        """Per-speaker mean over raters for each criterion (including final)."""
        acc: dict[str, list[ScoreRow]] = {}
        for row in self.rows:
            acc.setdefault(row.speaker, []).append(row)
        out: dict[str, dict[str, float]] = {}
        for speaker, rows in acc.items():
            out[speaker] = {
                c: float(np.mean([getattr(r, c) for r in rows])) for c in ALL_CRITERIA
            }
        return out


# ---------------------------------------------------------------------------
# manifest


def _require(mapping: Mapping, key: str, context: str):
    if key not in mapping:
        raise ParseError(f"{context}: missing field {key!r}")
    return mapping[key]


def _require_list(doc: Mapping, key: str, path: Path) -> list:
    value = _require(doc, key, str(path))
    if not isinstance(value, list):
        raise ParseError(f"{path}: {key} must be a list")
    return value


def load_manifest(path: str | Path) -> CorpusManifest:
    """Load and validate a corpus manifest JSON file.

    Raises ParseError for malformed JSON/schema and ValidationError for
    violated corpus invariants, such as one F0 file listed for two
    renditions; messages name the file and the offending record.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: manifest must be a JSON object")

    root = path.parent

    speakers = []
    for i, entry in enumerate(_require_list(doc, "speakers", path)):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: speakers[{i}] must be an object")
        speakers.append(
            Speaker(
                id=str(_require(entry, "id", f"{path}: speakers[{i}]")),
                sex=entry.get("sex"),
                l1=entry.get("l1"),
            )
        )
    ids = [s.id for s in speakers]
    if len(set(ids)) != len(ids):
        dup = sorted({x for x in ids if ids.count(x) > 1})
        raise ValidationError(f"{path}: duplicate speaker id(s) {dup}")
    known = set(ids)

    dyads: list[tuple[str, str]] = []
    seen_in_dyad: dict[str, int] = {}
    for i, pair in enumerate(_require_list(doc, "dyads", path)):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"{path}: dyads[{i}] must be a pair")
        a, b = str(pair[0]), str(pair[1])
        if a == b:
            raise ValidationError(f"{path}: dyads[{i}] is a self-dyad ({a!r})")
        for member in (a, b):
            if member not in known:
                raise ValidationError(f"{path}: dyads[{i}] references unknown speaker {member!r}")
            if member in seen_in_dyad:
                raise ValidationError(
                    f"{path}: speaker {member!r} appears in dyads "
                    f"{seen_in_dyad[member]} and {i}"
                )
            seen_in_dyad[member] = i
        dyads.append((a, b))
    missing = sorted(known - set(seen_in_dyad))
    if missing:
        raise ValidationError(f"{path}: speaker(s) {missing} are not in any dyad")

    records: list[UtteranceRecord] = []
    seen_pair_index: set[tuple[str, str, int]] = set()
    rendition_of: dict[str, tuple[str, int, str]] = {}
    for i, entry in enumerate(_require_list(doc, "utterances", path)):
        context = f"{path}: utterances[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{context} must be an object")
        imitator = str(_require(entry, "imitator", context))
        model = str(_require(entry, "model", context))
        index = _require(entry, "index", context)
        try:
            index = int(index)
        except (TypeError, ValueError):
            raise ParseError(f"{context} has non-integer index {index!r}") from None
        if imitator not in known:
            raise ValidationError(f"{context} references unknown speaker {imitator!r}")
        if model not in known:
            raise ValidationError(f"{context} references unknown speaker {model!r}")
        if imitator == model:
            raise ValidationError(f"{context} has imitator == model ({imitator!r})")
        if seen_in_dyad[imitator] != seen_in_dyad[model]:
            raise ValidationError(
                f"{context} pairs {imitator!r} and {model!r} from different dyads"
            )
        key = (imitator, model, index)
        if key in seen_pair_index:
            raise ValidationError(
                f"{context} duplicates utterance index {index} "
                f"for pair ({imitator!r}, {model!r})"
            )
        seen_pair_index.add(key)
        record = UtteranceRecord(
            index=index,
            imitator=imitator,
            model=model,
            imitator_f0=str(root / _require(entry, "imitator_f0", context)),
            model_f0=str(root / _require(entry, "model_f0", context)),
            imitator_align=str(root / _require(entry, "imitator_align", context)),
            model_align=str(root / _require(entry, "model_align", context)),
        )
        # each F0 file is one rendition: one (speaker, index, role) key
        for f0, rendition in (
            (record.imitator_f0, (imitator, index, "imitator")),
            (record.model_f0, (model, index, "model")),
        ):
            first = rendition_of.setdefault(f0, rendition)
            if first != rendition:
                raise ValidationError(
                    f"{path}: F0 file {f0} is listed as {first} and as {rendition}"
                )
        records.append(record)

    return CorpusManifest(tuple(speakers), tuple(dyads), tuple(records))


def write_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Serialize a manifest; reloading the written file round-trips."""
    doc = {
        "speakers": [
            {k: v for k, v in (("id", s.id), ("sex", s.sex), ("l1", s.l1)) if v is not None}
            for s in manifest.speakers
        ],
        "dyads": [list(d) for d in manifest.dyads],
        "utterances": [
            {
                "index": r.index,
                "imitator": r.imitator,
                "model": r.model,
                "imitator_f0": r.imitator_f0,
                "model_f0": r.model_f0,
                "imitator_align": r.imitator_align,
                "model_align": r.model_align,
            }
            for r in manifest.utterances
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# word alignments


def load_alignment(path: str | Path) -> tuple[list[WordSpan], int]:
    """Extract timed word spans from a WhisperX-style alignment JSON.

    Words lacking a start or end timestamp are skipped; the number skipped
    is returned alongside the spans. Raises ValidationError on overlapping
    or out-of-order spans and ComputeError when no word carries timestamps.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise ParseError(f"{path}: expected an object with a 'segments' list")

    spans: list[WordSpan] = []
    dropped = 0
    for i, seg in enumerate(doc["segments"]):
        words = seg.get("words", []) if isinstance(seg, dict) else None
        if not isinstance(words, list):
            raise ParseError(f"{path}: segments[{i}] must be an object with a 'words' list")
        for entry in words:
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: segments[{i}] has a word that is not an object")
            word = str(entry.get("word", "")).strip()
            start = entry.get("start")
            end = entry.get("end")
            if start is None or end is None:
                dropped += 1
                continue
            try:
                start, end = float(start), float(end)
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}: word {word!r} has a non-numeric time ({start!r}..{end!r})"
                ) from None
            if not end > start:
                raise ValidationError(
                    f"{path}: word {word!r} has non-positive duration ({start}..{end})"
                )
            spans.append(WordSpan(word, start, end))
    if not spans:
        raise ComputeError(f"{path}: no timed words in alignment")
    for prev, cur in zip(spans, spans[1:]):
        if cur.start < prev.end - TIME_TOLERANCE_S:
            raise ValidationError(
                f"{path}: overlap between {prev.text!r} (ends {prev.end}) "
                f"and {cur.text!r} (starts {cur.start})"
            )
    return spans, dropped


def write_alignment(spans: Sequence[WordSpan], path: str | Path) -> None:
    doc = {
        "segments": [
            {
                "words": [
                    {"word": s.text, "start": round(s.start, 6), "end": round(s.end, 6)}
                    for s in spans
                ]
            }
        ]
    }
    Path(path).write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# F0 CSV


F0_HEADER = "time_s,f0_hz"

_NUMBER_BYTES = b"0123456789.eE+-"


def _split_plain_f0(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Time and f0 columns of a plainly formatted file, or None for any other content.

    Plain means rows of number characters [0-9.eE+-] as ``time,f0``, each
    ending in "\\n": no spaces, blank lines or carriage returns. Splitting
    such a body on commas and newlines gives exactly the fields that the
    per-line parser takes, and as ASCII it reads the same as bytes or text.
    """
    header = F0_HEADER.encode() + b"\n"
    if not raw.startswith(header):
        return None
    body = raw[len(header) :]
    # deleting the number characters must leave one ",\n" per row
    separators = body.translate(None, _NUMBER_BYTES)
    if not body.endswith(b"\n") or separators != b",\n" * (len(separators) // 2):
        return None
    if b",\n" in body:
        body = body.replace(b",\n", b",0\n")  # empty f0 field: unvoiced
    fields = body.replace(b"\n", b",").split(b",")
    fields.pop()  # the empty field after the final newline
    try:
        pairs = np.array(fields, dtype=np.float64).reshape(-1, 2)
    except ValueError:
        return None  # the per-line parser raises the error message
    return pairs[:, 0], pairs[:, 1]


def _split_f0_lines(text: str, path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Time and f0 columns parsed line by line; raises ParseError naming the file."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}: empty F0 file")
    header = lines[0].strip()
    if header != F0_HEADER:
        raise ParseError(f"{path}: expected header {F0_HEADER!r}, got {header!r}")

    time_fields: list[str] = []
    f0_fields: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if line.count(",") != 1:
            raise ParseError(f"{path}:{lineno}: expected two fields")
        comma = line.index(",")
        time_fields.append(line[:comma])
        f0_fields.append(line[comma + 1 :].strip() or "0")
    try:
        times = np.asarray(time_fields, dtype=np.float64)
        values = np.asarray(f0_fields, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: non-numeric field ({exc})") from exc
    return times, values


def load_f0_csv(path: str | Path) -> F0Track:
    """Load a two-column ``time_s,f0_hz`` CSV into an F0Track.

    Times must be strictly increasing and uniformly spaced within 1e-6 s;
    the step is inferred from the first two rows. An empty or zero f0
    field marks an unvoiced sample.
    """
    path = Path(path)
    columns = _split_plain_f0(path.read_bytes())
    if columns is None:
        columns = _split_f0_lines(path.read_text(), path)
    times, values = columns

    if times.size == 0:
        raise ParseError(f"{path}: no samples")
    if times.size < 2:
        raise ParseError(f"{path}: at least two rows are needed to infer the step")
    negative = values < 0
    if negative.any():
        row = int(np.flatnonzero(negative)[0])
        raise ValidationError(f"{path}:{row + 2}: negative F0 ({values[row]})")
    step = float(times[1] - times[0])
    if step <= 0:
        raise ValidationError(f"{path}: times must be strictly increasing")
    t0 = float(times[0])
    expected = t0 + step * np.arange(times.size)
    off = np.abs(times - expected) > TIME_TOLERANCE_S
    if off.any():
        row = int(np.flatnonzero(off)[0])
        raise ValidationError(
            f"{path}: non-uniform step at row {row + 2} "
            f"(expected t={expected[row]:.6f}, got {times[row]:.6f})"
        )
    return F0Track(start_time=t0, step=step, values=values, voiced=values > 0.0)


def write_f0_csv(track: F0Track, path: str | Path) -> None:
    """Write a track in the F0 CSV format with six decimal digits."""
    t0, step = track.start_time, track.step
    rows = [
        f"{t0 + i * step:.6f},{track.values[i]:.6f}" if track.voiced[i] else f"{t0 + i * step:.6f},"
        for i in range(len(track))
    ]
    Path(path).write_text("time_s,f0_hz\n" + "\n".join(rows) + "\n")


def sample_windows(track: F0Track, spans: Sequence[WordSpan]) -> list[tuple[int, int]]:
    """Per span, indices [i0, i1) of the samples with times in [start, end).

    Consecutive non-overlapping spans therefore partition samples with no
    double counting. A window is empty when i1 <= i0.
    """
    t0, step, size = track.start_time, track.step, len(track)
    # 1e-9-step slack so times printed at 6 decimals land on the intended side
    slack = 1e-9 / step
    return [
        (
            max(0, math.ceil((span.start - t0) / step - slack)),
            min(size, math.ceil((span.end - t0) / step - slack)),
        )
        for span in spans
    ]


def slice_track(track: F0Track, span: WordSpan) -> F0Track:
    """Samples of ``track`` in the window that ``sample_windows`` gives ``span``.

    Raises ComputeError if no sample falls inside.
    """
    ((i0, i1),) = sample_windows(track, [span])
    if i1 <= i0:
        raise ComputeError(
            f"empty slice: no sample in [{span.start}, {span.end}) for word {span.text!r}"
        )
    # views of the validated (read-only) parent arrays; no copy needed
    return F0Track._trusted(
        track.start_time + i0 * track.step,
        track.step,
        track.values[i0:i1],
        track.voiced[i0:i1],
    )


# ---------------------------------------------------------------------------
# proficiency scores


def load_scores(path: str | Path) -> ScoreTable:
    """Load a rater score CSV; the final column is the mean of the criteria."""
    path = Path(path)
    expected = ["speaker", "rater", *CRITERIA]
    rows: list[ScoreRow] = []
    seen: set[tuple[str, str]] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty scores file") from None
        if [h.strip() for h in header] != expected:
            raise ParseError(f"{path}: expected header {','.join(expected)!r}")
        for lineno, parts in enumerate(reader, start=2):
            if not parts or not "".join(parts).strip():
                continue
            if len(parts) != 6:
                raise ParseError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            speaker, rater = parts[0].strip(), parts[1].strip()
            try:
                scores = [float(p) for p in parts[2:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            for name, value in zip(CRITERIA, scores):
                if not SCORE_MIN <= value <= SCORE_MAX:
                    raise ValidationError(
                        f"{path}:{lineno}: {name} score {value} out of range "
                        f"[{SCORE_MIN:g}, {SCORE_MAX:g}] for ({speaker}, {rater})"
                    )
            key = (speaker, rater)
            if key in seen:
                raise ValidationError(f"{path}:{lineno}: duplicate row for ({speaker}, {rater})")
            seen.add(key)
            rows.append(ScoreRow(speaker, rater, *scores, final=sum(scores) / 4.0))
    return ScoreTable(tuple(rows))


def write_scores_csv(rows: Iterable[ScoreRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["speaker", "rater", *CRITERIA])
        for r in rows:
            writer.writerow(
                [r.speaker, r.rater]
                + [f"{getattr(r, c):.6f}" for c in CRITERIA]
            )
