from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from patsim.corpus import Corpus, NoteRecord, PatientRecord, parse_timestamp
from patsim.engine import SimilarityMatrix
from patsim.vectorizer import NoteVectors, embed_texts

# pytest finds patsim through pyproject's pythonpath; the tests that run
# `python -m patsim.cli` in a subprocess find it through PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def unit_rows(rng, n: int, d: int) -> np.ndarray:
    """Random matrix with unit L2 rows."""
    m = rng.standard_normal((n, d))
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.ascontiguousarray(m / norms)


def embedded(model, notes) -> NoteVectors:
    """NoteVectors of notes (patient id -> FilteredNote list), each row
    from embed_texts."""
    keys = [(pid, fn.note_index) for pid, fns in notes.items() for fn in fns]
    rows = embed_texts(model, [fn.text for fns in notes.values() for fn in fns])
    return NoteVectors({key: k for k, key in enumerate(keys)}, rows)


def make_note(ts: str, text: str) -> NoteRecord:
    return NoteRecord(parse_timestamp(ts), text)


def make_corpus(spec: dict[str, list[tuple[str, str]]]) -> Corpus:
    """Corpus from {patient_id: [(timestamp, text), ...]}."""
    patients = {
        pid: PatientRecord(pid, [make_note(ts, text) for ts, text in notes])
        for pid, notes in spec.items()
    }
    return Corpus(patients)


def dense_similarity(ids, scores, defined, config, wall: float = 0.0) -> SimilarityMatrix:
    """The similarity store of symmetric n x n score and defined arrays:
    their upper triangle, row by row, NaN where undefined, and the
    diagonal's defined bits."""
    iu, ju = np.triu_indices(len(ids), k=1)
    defined = np.asarray(defined, dtype=bool)
    scores = np.where(defined, np.asarray(scores, dtype=float), np.nan)
    return SimilarityMatrix(list(ids), scores[iu, ju], defined.diagonal().copy(), config, wall)
