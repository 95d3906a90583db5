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
One row step serves a whole block of pairs, padded to a common shape,
and the one-pair functions are the block of one.

rv2 and mms score pairs by patient tile: patients k with the same
k // TILE form a tile, and all pairs between two tiles come from one
matrix product. The tiles depend only on the patient indices, so a
pair's score is the same whatever else is requested with it.

An rv2 gram row is the strict upper triangle of the patient's d x d
column cross-product: d(d-1)/2 float64 entries, d(d-1)/2 x 8 bytes per
patient, so 4,267 patients at dim 200 hold 0.68 GB of grams, not the
1.37 GB of the full matrices. Its scores are within 1e-12 of the full
d x d form in tests/oracles.py (1.1e-15 at most measured against the
full-matrix rows, on 124,750 pairs of 500 patients at dim 200).
"""

from __future__ import annotations

import functools
import logging
from typing import Sequence

import numpy as np

from .exceptions import ConfigError

__all__ = [
    "BACKEND",
    "TILE",
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

# Float64 cells in one padded block of eds_batch pairs (4 MiB per array).
_CELL_BUDGET = 1 << 19

# Patients per tile of rv2_batch and mms_batch. A constant, not a setting:
# the tiles fix the shape of the product each pair is read from.
TILE = 64

log = logging.getLogger(__name__)


def _eds_dp(cp: np.ndarray) -> np.ndarray:
    """Max-sum DP over a block of level-shifted cross matrices, in place.

    On return cp[p, i, j] is the best path sum of pair p from (0, 0) to
    (i, j). A cell reads only cells above and to its left, so padding
    past a pair's own shape never reaches its cells.
    """
    k, n1, n2 = cp.shape
    np.cumsum(cp[:, 0], axis=1, out=cp[:, 0])
    m = np.empty((k, n2))
    shifted = np.zeros((k, n2))
    for i in range(1, n1):
        prev, row = cp[:, i - 1], cp[:, i]
        m[:, 0] = prev[:, 0]
        np.maximum(prev[:, 1:], prev[:, :-1], out=m[:, 1:])
        np.cumsum(row, axis=1, out=row)
        shifted[:, 1:] = row[:, :-1]
        m -= shifted
        np.maximum.accumulate(m, axis=1, out=m)
        row += m
    return cp


def _eds_walk(d: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """Each pair's backtrack through its DP table, from its corner
    (n1[p] - 1, n2[p] - 1) to (0, 0).

    d is the tables' -inf-padded buffer: pair p's cell (i, j) is
    d[p, i + 1, j + 1], and row 0 and column 0 hold -inf, so a step off
    the table is never the greatest. A step goes diagonally, unless up
    is greater, unless left is greater still. walk[:, t, p] is pair p's
    (i, j) cell after t steps; a walk that has reached (0, 0) stays there.
    """
    k, h, w = d.shape
    flat = d.reshape(-1)
    corner = np.arange(k) * (h * w) + w + 1  # each pair's (0, 0)
    at = corner + (n1 - 1) * w + (n2 - 1)
    walk = np.empty((int((n1 + n2).max()) - 1, k), dtype=np.intp)
    walk[0] = at
    for t in range(1, walk.shape[0]):
        diag, up, left = flat[at - w - 1], flat[at - w], flat[at - 1]
        at = np.maximum(at - np.where(left > np.maximum(diag, up), 1, w + (up <= diag)),
                        corner)
        walk[t] = at
    i, j = np.divmod(walk - (corner - w - 1), w)
    return np.stack([i - 1, j - 1])


def _eds_path_means(c: np.ndarray, pairs: np.ndarray, walk: np.ndarray
                    ) -> np.ndarray:
    """Mean of c[pairs[q]] along walk[:, :, q], summed from (0, 0) forward.

    Steps past a walk's end add -0.0, which leaves any sum unchanged.
    """
    wi, wj = walk
    length = 1 + np.count_nonzero(wi[:-1] + wj[:-1], axis=0)
    vals = c.reshape(-1)[pairs * c[0].size + wi * c.shape[2] + wj]
    vals[np.arange(wi.shape[0])[:, None] >= length] = -0.0
    total = np.zeros(pairs.size)
    for v in vals[::-1]:
        total += v
    return total / length


def _eds_block(c: np.ndarray, n1: np.ndarray, n2: np.ndarray, lam: np.ndarray
               ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Dinkelbach iteration for a block of cross matrices, pair p's being
    c[p, :n1[p], :n2[p]], from the levels lam (each pair's minimum).

    Returns the level trace, one array per update (a pair that has
    stopped keeps its level), each pair's update count, and the walks
    (laid out as _eds_walk gives them) of each pair's last path: optimal
    at its final level, or at the iteration cap the one that set it. A
    pair leaves the active set once its level stops rising.
    """
    trace = [lam]
    iters = np.zeros(lam.size, dtype=np.intp)
    walks = np.zeros((2, int(n1.max() + n2.max()) - 1, lam.size), dtype=np.intp)
    k, h, w = c.shape
    buf = np.full((k, h + 1, w + 1), -np.inf)  # the DP writes inside the -inf border
    active = np.arange(lam.size)
    for _ in range(_MAX_DINKELBACH_ITERS):
        padded = buf[:active.size]
        cp = padded[:, 1:, 1:]
        if active.size == len(c):
            np.subtract(c, lam[:, None, None], out=cp)
        else:
            np.take(c, active, axis=0, out=cp, mode="clip")
            cp -= lam[:, None, None]
        _eds_dp(cp)
        walk = _eds_walk(padded, n1, n2)
        walks[:, :walk.shape[1], active] = walk
        ratio = _eds_path_means(c, active, walk)
        rising = ratio > lam
        if not rising.any():
            break
        level = trace[-1].copy()
        level[active[rising]] = ratio[rising]
        trace.append(level)
        iters[active[rising]] += 1
        if not rising.all():
            active, n1, n2 = active[rising], n1[rising], n2[rising]
        lam = ratio[rising]
    return trace, iters, walks


def _warn_at_cap(iters: np.ndarray) -> None:
    capped = int(np.count_nonzero(iters == _MAX_DINKELBACH_ITERS))
    if capped:
        log.warning("eds: %d of %d pairs stopped at the cap of %d Dinkelbach "
                    "iterations; their scores may be below the optimum",
                    capped, iters.size, _MAX_DINKELBACH_ITERS)


def _eds_score(c: np.ndarray) -> tuple[list[float], list[tuple[int, int]]]:
    """The Dinkelbach levels (the last is the score) and the last step's path:
    optimal at the final level, or at the iteration cap the one that set it."""
    c = np.ascontiguousarray(c, dtype=np.float64)
    trace, iters, (wi, wj) = _eds_block(c[None], np.array([c.shape[0]]),
                                        np.array([c.shape[1]]), np.array([c.min()]))
    _warn_at_cap(iters)
    walk = list(zip(wi[:, 0].tolist(), wj[:, 0].tolist()))
    return [float(t[0]) for t in trace], walk[:walk.index((0, 0)) + 1][::-1]


# ---------------------------------------------------------------------------
# Public kernels.
# ---------------------------------------------------------------------------

def eds_score_with_iters(c: np.ndarray) -> tuple[float, int]:
    """Alignment score plus the number of Dinkelbach level updates."""
    trace = _eds_score(c)[0]
    return trace[-1], len(trace) - 1


def eds_score(c: np.ndarray) -> float:
    """Greatest mean over monotone corner-to-corner paths through c."""
    return eds_score_with_iters(c)[0]


def eds_trace(c: np.ndarray) -> tuple[float, list[float]]:
    """Score plus the full level sequence, for diagnostics."""
    trace = _eds_score(c)[0]
    return trace[-1], trace


def eds_best_path(c: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Score plus one optimal path, for plotting alignment overlays."""
    trace, path = _eds_score(c)
    return trace[-1], path


@functools.lru_cache(maxsize=None)
def _upper(d: int) -> np.ndarray:
    """Flat positions of the strict upper triangle of a d x d matrix; one
    read-only array per d, shared by every call."""
    flat = np.ravel_multi_index(np.triu_indices(d, 1), (d, d))
    flat.flags.writeable = False
    return flat


def rv2_gram(rows: np.ndarray) -> np.ndarray | None:
    """Strict upper triangle of the column cross-product, at unit norm.

    The d x d cross-product is symmetric, so its d(d-1)/2 entries above
    the diagonal hold all of its diagonal-removed form: the dot of two
    triangles is half that of the full off-diagonal matrices, and each
    norm is 1/sqrt(2) of theirs, so the cosine is the same. Returns None
    when the triangle vanishes (single column, or exactly orthogonal
    columns); such a patient has no defined correlation score.
    """
    g = (rows.T @ rows).ravel()[_upper(rows.shape[1])]
    norm = np.linalg.norm(g)
    if norm == 0.0:
        return None
    return g / norm


def _groups(key: np.ndarray) -> list[np.ndarray]:
    """Indices of the equal entries of key, one array per distinct value."""
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if key.size else []


def rv2_batch(grams: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Scores for index pairs (ii[p], jj[p]) over prepared gram rows.

    Each score is the cosine of two gram vectors, in [-1, 1] by
    Cauchy-Schwarz. A pair (i, j), i <= j, is read from the product of
    the gram rows of i's tile and j's tile, one GEMM per pair of tiles
    requested.
    """
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    out = np.empty(ii.size, dtype=np.float64)
    for p in _groups(lo // TILE * len(grams) + hi // TILE):
        a, b = lo[p[0]] // TILE * TILE, hi[p[0]] // TILE * TILE
        block = grams[a:a + TILE] @ grams[b:b + TILE].T
        out[p] = block[lo[p] - a, hi[p] - b]
    return out


def mms_batch(
    rows: np.ndarray, offsets: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """mms for index pairs over patients packed as rows[offsets[k]:offsets[k + 1]].

    A pair's score is the mean of the concatenated row-wise and
    column-wise maxima of its cosine matrix. A pair (i, j), i <= j, is
    read from one GEMM of i's rows against all rows of j's tile: row
    maxima per partner by reduceat over the tile's offsets, column
    maxima summed per partner.
    """
    lo, hi = np.minimum(ii, jj), np.maximum(ii, jj)
    sizes = np.diff(offsets)
    out = np.empty(ii.size, dtype=np.float64)
    for p in _groups(lo * sizes.size + hi // TILE):
        i, b = lo[p[0]], hi[p[0]] // TILE * TILE
        e = min(b + TILE, sizes.size)
        seg = offsets[b:e] - offsets[b]
        c = rows[offsets[i]:offsets[i + 1]] @ rows[offsets[b]:offsets[e]].T
        row_sums = np.maximum.reduceat(c, seg, axis=1).sum(axis=0)
        col_sums = np.add.reduceat(c.max(axis=0), seg)
        q = hi[p] - b
        out[p] = (row_sums[q] + col_sums[q]) / (sizes[i] + sizes[hi[p]])
    return out


def eds_batch(
    rows: np.ndarray, offsets: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """eds for index pairs over patients packed as in mms_batch.

    The pairs are solved together in blocks, each padded to its largest
    pair shape and holding at most _CELL_BUDGET cells. Every score is
    bitwise the one a pair gets on its own.
    """
    sizes = np.diff(offsets)
    n1, n2 = sizes[ii], sizes[jj]
    step = max(1, _CELL_BUDGET // int(n1.max(initial=1) * n2.max(initial=1)))
    out = np.empty(ii.size, dtype=np.float64)
    iters = np.empty(ii.size, dtype=np.intp)
    for s in range(0, ii.size, step):
        b1, b2 = n1[s:s + step], n2[s:s + step]
        c = np.zeros((b1.size, b1.max(), b2.max()))
        lam = np.empty(b1.size)
        for p in range(b1.size):
            x, y = ii[s + p], jj[s + p]
            cell = np.matmul(rows[offsets[x]:offsets[x + 1]],
                             rows[offsets[y]:offsets[y + 1]].T,
                             out=c[p, :b1[p], :b2[p]])
            lam[p] = cell.min()
        trace, iters[s:s + b1.size], _ = _eds_block(c, b1, b2, lam)
        out[s:s + b1.size] = trace[-1]
    _warn_at_cap(iters)
    return out


def pack(mmethod: str, blocks: Sequence[np.ndarray]) -> dict:
    """Prepare the patients' row blocks (equal dims) for score_pairs.

    rv2 keeps one gram row per patient, the d(d-1)/2 entries rv2_gram
    returns (8 d(d-1)/2 bytes); a vanishing gram leaves a zero row and
    the patient invalid, so its pairs are undefined. mms and eds
    stack the rows, patient k at rows[offsets[k]:offsets[k + 1]].
    """
    if mmethod == "rv2":
        dim = blocks[0].shape[1]
        grams = np.zeros((len(blocks), dim * (dim - 1) // 2), dtype=np.float64)
        valid = np.zeros(len(blocks), dtype=bool)
        for k, rows in enumerate(blocks):
            g = rv2_gram(rows)
            if g is not None:
                grams[k] = g
                valid[k] = True
        return {"mmethod": mmethod, "grams": grams, "valid": valid}
    if mmethod not in ("mms", "eds"):
        raise ConfigError(f"unknown similarity method {mmethod!r}")
    if not all(rows.shape[0] for rows in blocks):
        raise ValueError(f"{mmethod} needs at least one note row per patient")
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
