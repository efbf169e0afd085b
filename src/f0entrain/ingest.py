"""Corpus ingestion: manifests, word alignments, F0 CSV tracks, score tables.

All loaders are pure functions of file contents and return immutable
domain objects, so they are safe to call concurrently on distinct paths.
They read every file as UTF-8, and any content that is not a valid file
of its kind raises a DataError whose message starts with the file's path.
The command line's own input files (``--config``, ``stats --csv``, ``grid
--entrain``) go through the same readers: ``read_utf8``, ``parse_json``,
``read_csv_table`` and ``csv_number``.
File formats:

* Manifest JSON: ``{"speakers": [{"id", "sex", "l1"}...], "dyads": [[a, b]...],
  "utterances": [{"index", "imitator", "model", "imitator_f0", "model_f0",
  "imitator_align", "model_align"}...]}``. Relative paths are resolved
  against the manifest's directory at load time.
* Alignment JSON (WhisperX-compatible subset):
  ``{"segments": [{"words": [{"word", "start", "end"}...]}...]}``, with
  finite times in seconds.
* F0 CSV: header ``time_s,f0_hz``; an empty or ``0`` f0 field marks an
  unvoiced sample, which the loaded track holds as NaN. CRLF line ends,
  blank lines, spaces around cells and quoted cells are accepted; a row
  error names its line.
* Scores CSV: header ``speaker,rater,pronunciation,intonation,fluency,overall``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# CPython's built-in SHA-256, as random.py takes its SHA-512: hashlib loads
# OpenSSL's libcrypto, about 3.5 MB of a run's peak RSS
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from f0entrain.errors import ComputeError, ParseError, ValidationError
from f0entrain.types import F0Track, WordSpan

TIME_TOLERANCE_S = 1e-6

CRITERIA = ("pronunciation", "intonation", "fluency", "overall")
ALL_CRITERIA = CRITERIA + ("final",)

SCORE_MIN, SCORE_MAX = 1.0, 5.0

# The two roles of an utterance record, and of the renditions it lists.
ROLE_IMITATOR = "imitator"
ROLE_MODEL = "model"


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

    @property
    def final(self) -> float:
        """The mean of the four criteria."""
        return (self.pronunciation + self.intonation + self.fluency + self.overall) / 4


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
            means = {c: float(np.mean([getattr(r, c) for r in rows])) for c in CRITERIA}
            out[speaker] = {**means, "final": float(np.mean([r.final for r in rows]))}
        return out


# ---------------------------------------------------------------------------
# reading files


def _decode(raw: bytes, path: str | Path) -> str:
    """A file's bytes as UTF-8 text; raises ParseError naming the file."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_utf8(path: str | Path) -> str:
    """A file's text, read as UTF-8; raises ParseError naming the file."""
    return _decode(Path(path).read_bytes(), path)


def read_hashed(path: Path, digests: dict[str, bytes] | None) -> bytes:
    """A file's bytes; their SHA-256 goes into ``digests`` under ``str(path)``, if given."""
    raw = path.read_bytes()
    if digests is not None:
        digests[str(path)] = sha256(raw).digest()
    return raw


# In valid JSON text, a backslash starts an escape. Scanned from the left, a
# match is an escaped backslash, a \u escape of a surrogate pair, or, in
# group 1, one of a lone half of a pair, which json.loads lets through.
_SURROGATE_ESCAPE = re.compile(r"\\\\|\\u[dD][89abAB]..\\u[dD][c-fC-F]..|(\\u[dD][89a-fA-F]..)")


def parse_json(text: str, path: str | Path):
    """The JSON document in a file's text; raises ParseError naming the file.

    Its strings must be valid Unicode: a ``\\u`` escape of one half of a
    surrogate pair without the other half is an error.
    """
    try:
        doc = json.loads(text)
    # ValueError: not JSON, or an integer of more than 4300 digits;
    # RecursionError: arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if "\\u" in text:
        for match in _SURROGATE_ESCAPE.finditer(text):
            if match[1]:
                raise ParseError(f"{path}: not valid JSON (lone surrogate {match[1]})")
    return doc


def parse_csv_table(text: str, path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A CSV text's header and its other rows, each with its line number.

    Lines of nothing but spaces are left out, rows of blank cells such as
    ``,`` are not. Raises ParseError naming the file if not CSV or empty.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        table = [(reader.line_num, row) for row in reader if row[1:] or "".join(row).strip()]
    except csv.Error as exc:
        raise ParseError(f"{path}: not CSV ({exc})") from None
    if not table:
        raise ParseError(f"{path}: empty file")
    return table[0][1], table[1:]


def _check_widths(header: list[str], rows: list, path: str | Path) -> list:
    """``rows``, if each has as many fields as ``header``; else ParseError naming the line."""
    for lineno, parts in rows:
        if len(parts) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
    return rows


def read_csv_table(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """A CSV file's header and its rows that hold a non-blank cell, each with its line number.

    Raises ParseError naming the file if it is not UTF-8, not CSV or empty,
    and naming the line if a row's field count differs from the header's.
    """
    header, rows = parse_csv_table(read_utf8(path), path)
    rows = [(lineno, parts) for lineno, parts in rows if "".join(parts).strip()]
    return header, _check_widths(header, rows, path)


def csv_number(text: str, path: str | Path, lineno: int, column: str) -> float:
    """A CSV cell as a finite number; raises ParseError naming the file, line and column."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: {column}: expected a finite number, got {text!r}")
    return value


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


def _require_path(mapping: Mapping, key: str, context: str, root: Path) -> str:
    value = _require(mapping, key, context)
    if not isinstance(value, str) or "\0" in value:
        raise ParseError(f"{context}: {key} must be a file path, got {value!r}")
    return str(root / value)


def load_manifest(path: str | Path) -> CorpusManifest:
    """Load and validate a corpus manifest JSON file.

    Raises ParseError for malformed JSON/schema and ValidationError for
    violated corpus invariants, such as one F0 file listed for two
    renditions; messages name the file and the offending record.
    """
    path = Path(path)
    doc = parse_json(read_utf8(path), path)
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
            if isinstance(index, float) and not index.is_integer():
                raise ValueError  # int() would truncate 1.5, or fail on inf and nan
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
            imitator_f0=_require_path(entry, "imitator_f0", context, root),
            model_f0=_require_path(entry, "model_f0", context, root),
            imitator_align=_require_path(entry, "imitator_align", context, root),
            model_align=_require_path(entry, "model_align", context, root),
        )
        # each F0 file is one rendition: one (speaker, index, role) key
        for f0, rendition in (
            (record.imitator_f0, (imitator, index, ROLE_IMITATOR)),
            (record.model_f0, (model, index, ROLE_MODEL)),
        ):
            first = rendition_of.setdefault(f0, rendition)
            if first != rendition:
                raise ValidationError(
                    f"{path}: F0 file {f0} is listed as {first} and as {rendition}"
                )
        records.append(record)

    return CorpusManifest(tuple(speakers), tuple(dyads), tuple(records))


# ---------------------------------------------------------------------------
# word alignments


def load_alignment(
    path: str | Path, digests: dict[str, bytes] | None = None
) -> tuple[list[WordSpan], int]:
    """Extract timed word spans from a WhisperX-style alignment JSON.

    Words lacking a start or end timestamp are skipped; the number skipped
    is returned alongside the spans. Raises ValidationError on overlapping
    or out-of-order spans and ComputeError when no word carries timestamps.
    ``digests``, if given, records the SHA-256 of the file's bytes.
    """
    path = Path(path)
    doc = parse_json(_decode(read_hashed(path, digests), path), path)
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
            except (TypeError, ValueError, OverflowError):
                raise ParseError(
                    f"{path}: word {word!r} has a non-numeric time ({start!r}..{end!r})"
                ) from None
            if not (math.isfinite(start) and math.isfinite(end)):
                raise ParseError(f"{path}: word {word!r} has a non-finite time ({start}..{end})")
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


# ---------------------------------------------------------------------------
# F0 CSV


F0_HEADER = "time_s,f0_hz"

_NUMBER_BYTES = b"0123456789.eE+-"


def _split_plain_f0(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Time and f0 columns of a plainly formatted file, or None for any other content.

    Plain means rows of number characters [0-9.eE+-] as ``time,f0``, each
    ending in "\\n": no spaces, blank lines or carriage returns. Splitting
    such a body on commas and newlines gives exactly the cells that the
    CSV table reader takes, and as ASCII it reads the same as bytes or text.
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
        return None  # the table reader raises the error message
    return pairs[:, 0], pairs[:, 1]


def _split_f0_table(text: str, path: Path) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Time and f0 columns, and each row's line number; raises ParseError naming the line."""
    header, rows = parse_csv_table(text, path)
    if [cell.strip() for cell in header] != F0_HEADER.split(","):
        raise ParseError(f"{path}: expected header {F0_HEADER!r}, got {','.join(header)!r}")
    pairs = []
    for lineno, (time, f0) in _check_widths(header, rows, path):
        try:
            pairs.append((float(time), float(f0.strip() or 0)))  # empty f0 field: unvoiced
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field ({exc})") from None
    columns = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    return columns[:, 0], columns[:, 1], [lineno for lineno, _ in rows]


def load_f0_csv(path: str | Path, digests: dict[str, bytes] | None = None) -> F0Track:
    """Load a two-column ``time_s,f0_hz`` CSV into an F0Track.

    Times must be strictly increasing and uniformly spaced within 1e-6 s;
    the step is inferred from the first two rows. An empty or zero f0
    field marks an unvoiced sample, which the track holds as NaN, and
    nothing else does: a non-finite time or f0 (``nan``, ``inf``, or a
    number too large for a float, such as ``1e400``) raises ParseError
    naming the file and line. ``digests``, if given, records the SHA-256
    of the file's bytes.
    """
    path = Path(path)
    raw = read_hashed(path, digests)
    columns = _split_plain_f0(raw)
    if columns is None:
        times, values, lines = _split_f0_table(_decode(raw, path), path)
    else:
        times, values = columns
        lines = range(2, times.size + 2)  # a plain file's row i is on line i + 2

    if times.size == 0:
        raise ParseError(f"{path}: no samples")
    if times.size < 2:
        raise ParseError(f"{path}: at least two rows are needed to infer the step")
    finite = np.isfinite(times) & np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ParseError(f"{path}:{lines[row]}: non-finite time or F0 ({times[row]}, {values[row]})")
    negative = values < 0
    if negative.any():
        row = int(np.flatnonzero(negative)[0])
        raise ValidationError(f"{path}:{lines[row]}: negative F0 ({values[row]})")
    step = float(times[1] - times[0])
    if step <= 0:
        raise ValidationError(f"{path}:{lines[1]}: times must be strictly increasing")
    t0 = float(times[0])
    expected = t0 + step * np.arange(times.size)
    off = np.abs(times - expected) > TIME_TOLERANCE_S
    if off.any():
        row = int(np.flatnonzero(off)[0])
        raise ValidationError(
            f"{path}:{lines[row]}: non-uniform step "
            f"(expected t={expected[row]:.6f}, got {times[row]:.6f})"
        )
    values[values == 0.0] = np.nan  # unvoiced
    return F0Track(start_time=t0, step=step, values=values)


@lru_cache(maxsize=8)
def _time_fields(start: float, step: float, n: int) -> tuple[str, ...]:
    """The text "t," that starts row i < n of an F0 CSV, with t = start + i * step."""
    return tuple(map("%.6f,".__mod__, (start + np.arange(n) * step).tolist()))


def write_f0_csv(track: F0Track, path: str | Path) -> None:
    """Write a track in the F0 CSV format with six decimal digits."""
    # a power-of-two row count keeps the cache to a few entries per time grid
    times = _time_fields(track.start_time, track.step, 1 << len(track).bit_length())
    text = "\n".join(map("%s%.6f".__mod__, zip(times, track.values.tolist())))
    # "%.6f" writes NaN as "nan": an unvoiced row keeps an empty f0 field
    Path(path).write_text(F0_HEADER + "\n" + text.replace(",nan", ",") + "\n", encoding="utf-8")


def sample_windows(track: F0Track, spans: Sequence[WordSpan]) -> list[tuple[int, int]]:
    """Per span, indices [i0, i1) of the samples with times in [start, end).

    Consecutive non-overlapping spans therefore partition samples with no
    double counting. A window is empty when i1 <= i0.
    """
    t0, step, size = track.start_time, track.step, len(track)
    # 1e-9-step slack so times printed at 6 decimals land on the intended side
    slack = 1e-9 / step
    # clamping a time to [lo, hi] keeps the samples its window selects, and a
    # time far outside the track cannot overflow the division
    lo, hi = t0 - step, t0 + (size + 1) * step
    return [
        (
            max(0, math.ceil((min(max(span.start, lo), hi) - t0) / step - slack)),
            min(size, math.ceil((min(max(span.end, lo), hi) - t0) / step - slack)),
        )
        for span in spans
    ]


# ---------------------------------------------------------------------------
# proficiency scores


def load_scores(path: str | Path) -> ScoreTable:
    """Load a rater score CSV; the final column is the mean of the criteria."""
    path = Path(path)
    expected = ["speaker", "rater", *CRITERIA]
    rows: list[ScoreRow] = []
    seen: set[tuple[str, str]] = set()
    header, table = read_csv_table(path)
    if [h.strip() for h in header] != expected:
        raise ParseError(f"{path}: expected header {','.join(expected)!r}")
    for lineno, parts in table:
        speaker, rater = parts[0].strip(), parts[1].strip()
        scores = [csv_number(p, path, lineno, c) for c, p in zip(CRITERIA, parts[2:])]
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
        rows.append(ScoreRow(speaker, rater, *scores))
    return ScoreTable(tuple(rows))


def write_scores_csv(rows: Iterable[ScoreRow], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["speaker", "rater", *CRITERIA])
        for r in rows:
            writer.writerow(
                [r.speaker, r.rater]
                + [f"{getattr(r, c):.6f}" for c in CRITERIA]
            )
