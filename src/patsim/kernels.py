"""Scoring kernels for the three matrix measures, in numpy.

Score conventions used throughout:

- a cross matrix c holds cosine similarities of one patient's note rows
  against another's (c = A @ B.T for unit rows);
- the alignment score is the greatest arithmetic mean of cell values
  over monotone paths from c[0, 0] to c[-1, -1] with steps down, right
  and diagonal. The mean objective has no additive substructure, so it
  is solved exactly by Dinkelbach iteration: for a level lam, a plain
  max-sum dynamic program on (c - lam) finds the best path; its raw
  mean becomes the next lam. The level sequence is non-decreasing and
  reaches the optimum in finitely many steps.

The alignment DP is vectorized one row at a time: entering row i at
column t and walking right to column j accumulates
m[t] + cum[j] - cum[t-1], so each row reduces to a running maximum.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "BACKEND",
    "eds_score",
    "eds_score_with_iters",
    "eds_trace",
    "eds_best_path",
    "rv2_gram",
    "rv2_batch",
    "mms_batch",
    "eds_batch",
    "pack",
    "score_pairs",
]

# The one kernel implementation; kept as a name so run records can show it.
BACKEND = "numpy"

_MAX_DINKELBACH_ITERS = 100


def _eds_dp(cp: np.ndarray) -> np.ndarray:
    n1, n2 = cp.shape
    d = np.empty_like(cp)
    np.cumsum(cp[0], out=d[0])
    for i in range(1, n1):
        m = np.empty(n2)
        m[0] = d[i - 1, 0]
        np.maximum(d[i - 1, 1:], d[i - 1, :-1], out=m[1:])
        cum = np.cumsum(cp[i])
        shifted = np.empty(n2)
        shifted[0] = 0.0
        shifted[1:] = cum[:-1]
        d[i] = cum + np.maximum.accumulate(m - shifted)
    return d


def _eds_backtrack(d: np.ndarray) -> list[tuple[int, int]]:
    i, j = d.shape[0] - 1, d.shape[1] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        best = -np.inf
        move = None
        if i > 0 and j > 0 and d[i - 1, j - 1] >= best:
            best = d[i - 1, j - 1]
            move = (i - 1, j - 1)
        if i > 0 and d[i - 1, j] > best:
            best = d[i - 1, j]
            move = (i - 1, j)
        if j > 0 and d[i, j - 1] > best:
            best = d[i, j - 1]
            move = (i, j - 1)
        i, j = move
        path.append(move)
    path.reverse()
    return path


def _eds_score(c: np.ndarray) -> tuple[list[float], list[tuple[int, int]]]:
    """The Dinkelbach levels (the last is the score) and the last step's path:
    optimal at the final level, or at the iteration cap the one that set it."""
    trace = [float(c.min())]
    for _ in range(_MAX_DINKELBACH_ITERS):
        path = _eds_backtrack(_eds_dp(c - trace[-1]))
        ratio = sum(c[i, j] for i, j in path) / len(path)
        if not ratio > trace[-1]:
            break
        trace.append(ratio)
    return trace, path


# ---------------------------------------------------------------------------
# Public kernels.
# ---------------------------------------------------------------------------

def eds_score_with_iters(c: np.ndarray) -> tuple[float, int]:
    """Alignment score plus the number of Dinkelbach level updates."""
    trace = _eds_score(np.ascontiguousarray(c, dtype=np.float64))[0]
    return float(trace[-1]), len(trace) - 1


def eds_score(c: np.ndarray) -> float:
    """Greatest mean over monotone corner-to-corner paths through c."""
    return eds_score_with_iters(c)[0]


def eds_trace(c: np.ndarray) -> tuple[float, list[float]]:
    """Score plus the full level sequence, for diagnostics."""
    trace = _eds_score(np.asarray(c, dtype=np.float64))[0]
    return float(trace[-1]), trace


def eds_best_path(c: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Score plus one optimal path, for plotting alignment overlays."""
    trace, path = _eds_score(np.asarray(c, dtype=np.float64))
    return float(trace[-1]), path


def rv2_gram(rows: np.ndarray) -> np.ndarray | None:
    """Flattened, Frobenius-normalized column cross-product with zero diagonal.

    Returns None when the off-diagonal part vanishes (single column, or
    exactly orthogonal columns); such a patient has no defined
    correlation score.
    """
    g = rows.T @ rows
    np.fill_diagonal(g, 0.0)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        return None
    return np.ascontiguousarray((g / norm).ravel())


def rv2_batch(grams: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Scores for index pairs (ii[p], jj[p]) over prepared gram rows.

    Each score is the cosine of two gram vectors, in [-1, 1] by
    Cauchy-Schwarz.
    """
    out = np.empty(ii.size, dtype=np.float64)
    for p in range(ii.size):
        out[p] = np.dot(grams[ii[p]], grams[jj[p]])
    return out


def mms_batch(
    rows: np.ndarray, offsets: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """mms for index pairs over patients packed as rows[offsets[k]:offsets[k + 1]].

    A pair's score is the mean of the concatenated row-wise and
    column-wise maxima of its cosine matrix.
    """
    out = np.empty(ii.size, dtype=np.float64)
    for p in range(ii.size):
        a = rows[offsets[ii[p]]:offsets[ii[p] + 1]]
        b = rows[offsets[jj[p]]:offsets[jj[p] + 1]]
        c = a @ b.T
        out[p] = ((c.max(axis=1).sum() + c.max(axis=0).sum())
                  / (c.shape[0] + c.shape[1]))
    return out


def eds_batch(
    rows: np.ndarray, offsets: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """eds for index pairs over patients packed as in mms_batch."""
    out = np.empty(ii.size, dtype=np.float64)
    for p in range(ii.size):
        a = rows[offsets[ii[p]]:offsets[ii[p] + 1]]
        b = rows[offsets[jj[p]]:offsets[jj[p] + 1]]
        out[p] = _eds_score(a @ b.T)[0][-1]
    return out


def pack(mmethod: str, blocks: Sequence[np.ndarray]) -> dict:
    """Prepare the patients' row blocks (equal dims) for score_pairs.

    rv2 keeps one gram row per patient; a vanishing gram leaves a zero
    row and the patient invalid, so its pairs are undefined. mms and eds
    stack the rows, patient k at rows[offsets[k]:offsets[k + 1]].
    """
    if mmethod == "rv2":
        dim = blocks[0].shape[1]
        grams = np.zeros((len(blocks), dim * dim), dtype=np.float64)
        valid = np.zeros(len(blocks), dtype=bool)
        for k, rows in enumerate(blocks):
            g = rv2_gram(rows)
            if g is not None:
                grams[k] = g
                valid[k] = True
        return {"mmethod": mmethod, "grams": grams, "valid": valid}
    if mmethod not in ("mms", "eds"):
        raise ConfigError(f"unknown similarity method {mmethod!r}")
    return {"mmethod": mmethod, "rows": np.concatenate(blocks, dtype=np.float64),
            "offsets": np.cumsum([0] + [rows.shape[0] for rows in blocks]),
            "valid": np.ones(len(blocks), dtype=bool)}


def score_pairs(payload: dict, ii: np.ndarray, jj: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the pairs (ii[p], jj[p]) of a pack, NaN where undefined.

    A pair is defined when both of its patients are valid.
    """
    if payload["mmethod"] == "rv2":
        scores = rv2_batch(payload["grams"], ii, jj)
    else:
        batch = mms_batch if payload["mmethod"] == "mms" else eds_batch
        scores = batch(payload["rows"], payload["offsets"], ii, jj)
    defined = payload["valid"][ii] & payload["valid"][jj]
    return np.where(defined, scores, np.nan), defined
