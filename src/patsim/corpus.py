"""Patient/note data model and JSONL corpus I/O.

A corpus is a set of patients, each carrying a chronologically sorted
sequence of free-text notes. The on-disk format is JSONL: one object per
note with fields ``patient_id``, ``timestamp`` (ISO-8601, time part
optional) and ``text``, read through formats.utf8_lines. The records hold
the rules for their values; the loader names the line of a value they reject.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

from . import formats
from .exceptions import EmptyCorpus, ParseError

__all__ = [
    "NoteRecord",
    "PatientRecord",
    "Corpus",
    "CorpusStats",
    "parse_timestamp",
    "load_corpus",
    "write_corpus",
    "corpus_stats",
]


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; a missing time part means midnight.

    Timezone-aware inputs are converted to naive UTC so all timestamps in a
    corpus are mutually comparable; one whose UTC time falls outside
    years 1..9999 raises ValueError.
    """
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"not a timestamp: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is not None:
            dt = (dt - dt.utcoffset()).replace(tzinfo=None)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad timestamp: {exc}") from None
    return dt


@dataclass(frozen=True)
class NoteRecord:
    """One note: a naive datetime (parse_timestamp gives one), so a patient's
    notes sort, and a non-empty text; its patient is the record holding it."""

    timestamp: datetime
    text: str

    def __post_init__(self):
        if not (isinstance(self.timestamp, datetime) and self.timestamp.tzinfo is None):
            raise ValueError("note timestamp must be a naive datetime, "
                             f"got {self.timestamp!r}")
        if not (isinstance(self.text, str) and self.text.strip()):
            raise ValueError("note text must be a non-empty string")


@dataclass(frozen=True)
class PatientRecord:
    """A patient and their notes, sorted ascending by timestamp when built.

    Equal timestamps keep their input order (stable sort), so matrices
    built downstream are reproducible. A patient with no notes, or whose
    id is not a non-empty string, is rejected.
    """

    patient_id: str
    notes: tuple[NoteRecord, ...]

    def __post_init__(self):
        if not (isinstance(self.patient_id, str) and self.patient_id):
            raise ValueError("patient_id must be a non-empty string, "
                             f"got {self.patient_id!r}")
        ordered = tuple(sorted(self.notes, key=lambda n: n.timestamp))
        if not ordered:
            raise ValueError(f"patient {self.patient_id!r} has no notes")
        object.__setattr__(self, "notes", ordered)


@dataclass(frozen=True)
class CorpusStats:
    """Patient count, note count, and mean/median notes per patient."""

    n_patients: int
    n_notes: int
    mean_notes: float
    median_notes: float


@dataclass(frozen=True)
class Corpus:
    """Immutable, non-empty map of patient_id to PatientRecord; each key
    is its record's id."""

    patients: dict[str, PatientRecord]

    def __post_init__(self):
        if not self.patients:
            raise EmptyCorpus("corpus has no patients")
        for pid, patient in self.patients.items():
            if pid != patient.patient_id:
                raise ValueError(f"corpus key {pid!r} holds patient {patient.patient_id!r}")

    @property
    def summary(self) -> CorpusStats:
        return corpus_stats(self.patients.values())

    def __iter__(self) -> Iterator[PatientRecord]:
        return iter(self.patients.values())

    def __len__(self) -> int:
        return len(self.patients)


def _iter_jsonl_files(path: Path) -> list[Path]:
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise EmptyCorpus(f"no .jsonl files under {path}")
        return files
    return [path]


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a corpus from a JSONL file or directory of them.

    Notes are re-sorted chronologically per patient; ties keep file order.
    Raises ParseError (with file and line) on malformed records and
    EmptyCorpus when no notes are found.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError("corpus path does not exist", path=path)
    notes: dict[str, list[NoteRecord]] = {}
    for file in _iter_jsonl_files(path):
        for lineno, raw in formats.utf8_lines(file):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw, object_pairs_hook=formats.reject_duplicate_keys)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"bad JSON: {exc}", path=file, line=lineno)
            if not isinstance(obj, dict):
                raise ParseError("line is not an object", path=file, line=lineno)
            if missing := [f for f in ("patient_id", "timestamp", "text") if f not in obj]:
                raise ParseError(f"missing field {missing[0]!r}", path=file, line=lineno)
            pid = obj["patient_id"]
            if not isinstance(pid, str) or not pid:
                raise ParseError("patient_id must be a non-empty string",
                                 path=file, line=lineno)
            try:
                note = NoteRecord(parse_timestamp(obj["timestamp"]), obj["text"])
            except ValueError as exc:
                raise ParseError(str(exc), path=file, line=lineno)
            notes.setdefault(pid, []).append(note)
    if not notes:
        raise EmptyCorpus(f"no notes in {path}")
    patients = {pid: PatientRecord(pid, ns) for pid, ns in notes.items()}
    return Corpus(patients)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as JSONL, one note per line, UTF-8 with LF endings."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for patient in corpus:
            for note in patient.notes:
                fh.write(json.dumps(
                    {
                        "patient_id": patient.patient_id,
                        "timestamp": note.timestamp.isoformat(),
                        "text": note.text,
                    },
                    ensure_ascii=False,
                ))
                fh.write("\n")


def corpus_stats(corpus: Iterable[PatientRecord]) -> CorpusStats:
    """Patient count, note count, and mean/median notes per patient, of a
    Corpus or of any collection of patients; EmptyCorpus on none."""
    counts = [len(p.notes) for p in corpus]
    if not counts:
        raise EmptyCorpus("no patients to summarize")
    return CorpusStats(
        n_patients=len(counts),
        n_notes=sum(counts),
        mean_notes=sum(counts) / len(counts),
        median_notes=float(statistics.median(counts)),
    )
