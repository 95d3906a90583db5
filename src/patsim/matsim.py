"""Matrix similarity scores between two patients.

Three measures reduce a pair of patient matrices (rows = unit-norm note
embeddings) to one number:

- rv2: correlation of the column cross-product structures. Both d x d
  cross-products get their diagonals zeroed, then
  score = tr(Ga Gb) / sqrt(tr(Ga Ga) tr(Gb Gb)), bounded in [-1, 1].
  The d x d form makes patients with different note counts comparable.
- mms: mean of the concatenated row-wise and column-wise maxima of the
  pairwise cosine matrix; ignores note order entirely.
- eds: greatest mean cosine along a monotone alignment path from the
  first to the last notes of both patients (warping-style; diagonal
  steps allowed), so note order matters.

Each score is a float, NaN where the pair is undefined: NaN is the only
mark of an undefined score. An ensemble score averages whatever member
scores are defined.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import kernels
from .exceptions import DegenerateInput, DimMismatch
from .vectorizer import PatientMatrix

__all__ = [
    "cross_sim",
    "rv2",
    "mms",
    "eds",
    "eds_alignment",
    "pair_diagnostic",
    "combined",
]


def _rows(m) -> np.ndarray:
    if isinstance(m, PatientMatrix):
        return m.rows
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise DimMismatch(f"expected a 2-d matrix, got shape {arr.shape}")
    return arr


def _paired_rows(a, b) -> tuple[np.ndarray, np.ndarray]:
    ra, rb = _rows(a), _rows(b)
    if ra.shape[1] != rb.shape[1]:
        raise DimMismatch(
            f"embedding dims differ: {ra.shape[1]} vs {rb.shape[1]}"
        )
    return ra, rb


def cross_sim(a, b) -> np.ndarray:
    """Pairwise cosine matrix A @ B.T (rows are unit vectors)."""
    ra, rb = _paired_rows(a, b)
    return ra @ rb.T


_ONE_PAIR = (np.array([0]), np.array([1]))


def _score(mmethod: str, a, b) -> float:
    """One pair through the all-pairs path: pack both patients, score (0, 1)."""
    payload = kernels.pack(mmethod, _paired_rows(a, b))
    return float(kernels.score_pairs(payload, *_ONE_PAIR)[0][0])


def rv2(a, b) -> float:
    """Diagonal-removed cross-product correlation of two patient matrices.

    NaN when either matrix's off-diagonal cross-product vanishes (for
    example exactly orthogonal columns): the pair is undefined.
    """
    return _score("rv2", a, b)


def mms(a, b) -> float:
    """Best note-to-note matching score, order-free."""
    return _score("mms", a, b)


def eds(a, b) -> float:
    """Best time-consistent alignment score, order-sensitive."""
    return _score("eds", a, b)


def eds_alignment(a, b) -> tuple[float, list[tuple[int, int]]]:
    """eds score together with one optimal path, from one Dinkelbach run."""
    levels, path = kernels.eds_solve(cross_sim(a, b))
    return levels[-1], path


def pair_diagnostic(a, b, method: str) -> dict:
    """JSON-ready per-pair record: method, score, and the eds path.

    Matches the optional diagnostic dump format: the path appears only
    for the alignment method (as [i, j] cell pairs), and an undefined
    score is null.
    """
    out: dict = {"method": method}
    if method == "eds":
        score, path = eds_alignment(a, b)
        out["path"] = [[int(i), int(j)] for i, j in path]
    else:
        score = _score(method, a, b)
    out["score"] = None if math.isnan(score) else score
    out["defined"] = out["score"] is not None
    return out


def combined(scores: Sequence[float]) -> float:
    """Mean of the defined (non-NaN) member scores; NaN only when all are."""
    if len(scores) == 0:
        raise DegenerateInput("combined() needs at least one member score")
    vals = [s for s in scores if not math.isnan(s)]
    return float(np.mean(vals)) if vals else math.nan
