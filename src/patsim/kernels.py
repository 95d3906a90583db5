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
and eds_solve, the one-pair solver, is the block of one.

rv2 and mms score pairs by patient tile: patients k with the same
k // TILE form a tile, and all pairs between two tiles come from one
matrix product. The tiles depend only on the patient indices, so a
pair's score is the same whatever else is requested with it. Both read
distinct pairs (i, j), i < j, strictly increasing in the triangle's
order (by row, then column), as the engine lists them, and raise
ValueError on any other: they are split into runs of one row and one
column tile with no copy of the pairs.

An rv2 triangle is the strict upper triangle of a patient's d x d
column cross-product: d(d-1)/2 entries. No pack holds the triangles.
rv2_batch streams them: rv2_gram forms every patient's slice of one
chunk of entries, _GRAM_BUDGET (8 MiB) over all the pack's patients,
and each requested tile pair adds the product of its slices straight
into the scores of its pairs. So rv2 holds that budget plus one tile
product besides its output, not n x d(d-1)/2 entries (0.68 GB for 4,267
patients at dim 200). The chunks depend only on the pack's patient
count and d, never on the request. Scores are within 1e-12 of the full
d x d form in tests/oracles.py.
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
    "eds_solve",
    "eds_score",
    "eds_score_with_iters",
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

# Float64 gram entries in one rv2 chunk, summed over the pack's patients
# (8 MiB). A constant, so that a grid leg of 48 patients at dim 200 is
# one chunk, and so that no request changes the chunks.
_GRAM_BUDGET = 1 << 20

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
    stopped keeps its level), each pair's update count, and the last
    round's walks of the pairs still active in it, laid out as _eds_walk
    gives them. For a block of one that walk is the pair's last path:
    optimal at its final level, or at the iteration cap the one that set
    it. A pair leaves the active set once its level stops rising.
    """
    trace = [lam]
    iters = np.zeros(lam.size, dtype=np.intp)
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
    return trace, iters, walk


def _warn_at_cap(capped: int, pairs: int) -> None:
    if capped:
        log.warning("eds: %d of %d pairs stopped at the cap of %d Dinkelbach "
                    "iterations; their scores may be below the optimum",
                    capped, pairs, _MAX_DINKELBACH_ITERS)


# ---------------------------------------------------------------------------
# Public kernels.
# ---------------------------------------------------------------------------

def eds_solve(c: np.ndarray) -> tuple[list[float], list[tuple[int, int]]]:
    """Dinkelbach for one cross matrix: the levels (the last is the score;
    len(levels) - 1 updates) and the last round's path, optimal at the final
    level, or at the iteration cap the one that set it."""
    c = np.ascontiguousarray(c, dtype=np.float64)
    trace, iters, (wi, wj) = _eds_block(c[None], np.array([c.shape[0]]),
                                        np.array([c.shape[1]]), np.array([c.min()]))
    _warn_at_cap(int(iters[0] == _MAX_DINKELBACH_ITERS), 1)
    walk = list(zip(wi[:, 0].tolist(), wj[:, 0].tolist()))
    return [float(t[0]) for t in trace], walk[:walk.index((0, 0)) + 1][::-1]


# The next two read eds_solve for perfbench alone; ROADMAP item 7 deletes them.
def eds_score_with_iters(c: np.ndarray) -> tuple[float, int]:
    """Alignment score plus the number of Dinkelbach level updates."""
    levels = eds_solve(c)[0]
    return levels[-1], len(levels) - 1


def eds_score(c: np.ndarray) -> float:
    """Greatest mean over monotone corner-to-corner paths through c."""
    return eds_solve(c)[0][-1]


@functools.lru_cache(maxsize=None)
def _upper(d: int) -> np.ndarray:
    """Flat positions of the strict upper triangle of a d x d matrix; one
    read-only array per d, shared by every call."""
    flat = np.ravel_multi_index(np.triu_indices(d, 1), (d, d))
    flat.flags.writeable = False
    return flat


def rv2_gram(rows: np.ndarray, offsets: np.ndarray, start: int, stop: int
             ) -> np.ndarray:
    """Entries start:stop of each packed patient's gram triangle, one row
    per patient (patients packed as in mms_batch).

    The triangle is the strict upper triangle of the column cross-product
    x.T @ x, row by row. The cross-product is symmetric, so the
    triangle's dot product is half that of the diagonal-removed matrices
    and each norm is 1/sqrt(2) of theirs: the cosine is the same. Only the
    cross-product rows that hold the entries are formed.
    """
    d = rows.shape[1]
    i, j = np.divmod(_upper(d)[start:stop], d)
    r0, r1 = int(i[0]), int(i[-1]) + 1
    at = (i - r0) * (d - r0) + (j - r0)
    out = np.empty((offsets.size - 1, stop - start))
    for k in range(out.shape[0]):
        x = rows[offsets[k]:offsets[k + 1], r0:]
        np.take(x[:, :r1 - r0].T @ x, at, out=out[k])
    return out


def _groups(key: np.ndarray) -> list[np.ndarray]:
    """Indices of the equal entries of key, one array per distinct value."""
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1) if key.size else []


def _runs(lo: np.ndarray, hi: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs in the triangle's order as runs of one row and one column
    tile: each run's row, column tile, and first and stop positions.
    Raises ValueError unless the pairs are distinct, lo < hi, and strictly
    increasing by lo, then hi."""
    if not (np.all(lo < hi) and np.all(lo[:-1] <= lo[1:])
            and np.all((lo[:-1] < lo[1:]) | (hi[:-1] < hi[1:]))):
        raise ValueError("pairs must be distinct (i, j), i < j, in the triangle's order")
    tile = hi // TILE
    first = np.flatnonzero((lo[1:] != lo[:-1]) | (tile[1:] != tile[:-1])) + 1
    if lo.size:
        first = np.insert(first, 0, 0)
    stop = np.append(first[1:], lo.size)
    return lo[first].astype(np.intp), tile[first].astype(np.intp), first, stop


def rv2_batch(rows: np.ndarray, ii: np.ndarray, jj: np.ndarray, offsets: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Scores for index pairs (ii[p], jj[p]) over patients packed as in
    mms_batch, and every patient's squared triangle norm.

    A score is the cosine of two gram triangles. The triangles stream in
    chunks of _GRAM_BUDGET entries over all patients, made by rv2_gram. A
    pair (i, j), i < j, sums the products of i's tile's and j's tile's
    slices, one GEMM per chunk and pair of tiles requested, added straight
    into its score, and is divided by both norms at the end. Rounding can
    take a cosine just past 1, so scores are clipped to [-1, 1]. A patient
    whose triangle vanishes (single column, or exactly orthogonal
    columns) has norm 0 and NaN scores.
    """
    n, d = offsets.size - 1, rows.shape[1]
    size = d * (d - 1) // 2
    row, col, first, stop = _runs(ii, jj)
    # each requested tile pair (a, b), with its runs: their rows in tile a,
    # and where each starts and stops
    blocks = [(row[k[0]] // TILE * TILE, col[k[0]] * TILE, row[k] % TILE, first[k], stop[k])
              for k in _groups(row // TILE * n + col)]
    del row, col, first, stop  # the blocks hold what the chunks need of the runs
    out = np.zeros(ii.size, dtype=np.float64)
    sq = np.zeros(n)
    width = max(1, _GRAM_BUDGET // n)
    for start in range(0, size, width):
        g = rv2_gram(rows, offsets, start, min(start + width, size))
        sq += np.einsum("ij,ij->i", g, g)
        for a, b, x, begin, end in blocks:
            product = g[a:a + TILE] @ g[b:b + TILE].T
            runs = end - begin
            at = np.repeat(begin - np.cumsum(runs) + runs, runs)
            at += np.arange(at.size)
            np.add.at(out, at, product[np.repeat(x, runs), jj[at] - b])
        del g  # so that one chunk, not two, is alive while the next is formed
    norm = np.sqrt(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in range(0, out.size, TILE * TILE):
            out[s:s + TILE * TILE] /= norm[ii[s:s + TILE * TILE]] * norm[jj[s:s + TILE * TILE]]
    return np.clip(out, -1.0, 1.0, out=out), sq


def mms_batch(
    rows: np.ndarray, offsets: np.ndarray, ii: np.ndarray, jj: np.ndarray
) -> np.ndarray:
    """mms for index pairs over patients packed as rows[offsets[k]:offsets[k + 1]].

    A pair's score is the mean of the concatenated row-wise and
    column-wise maxima of its cosine matrix. A pair (i, j), i < j, is
    read from one GEMM of i's rows against all rows of j's tile: row
    maxima per partner by reduceat over the tile's offsets, column
    maxima summed per partner.
    """
    sizes = np.diff(offsets)
    runs = _runs(ii, jj)
    out = np.empty(ii.size, dtype=np.float64)
    for i, t, first, stop in zip(*runs):
        b = t * TILE
        e = min(b + TILE, sizes.size)
        seg = offsets[b:e] - offsets[b]
        c = rows[offsets[i]:offsets[i + 1]] @ rows[offsets[b]:offsets[e]].T
        row_sums = np.maximum.reduceat(c, seg, axis=1).sum(axis=0)
        col_sums = np.add.reduceat(c.max(axis=0), seg)
        h = jj[first:stop]
        out[first:stop] = (row_sums[h - b] + col_sums[h - b]) / (sizes[i] + sizes[h])
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
    step = max(1, _CELL_BUDGET // (_largest(sizes, ii) * _largest(sizes, jj)))
    out = np.empty(ii.size, dtype=np.float64)
    capped = 0
    for s in range(0, ii.size, step):
        b1, b2 = sizes[ii[s:s + step]], sizes[jj[s:s + step]]
        c = np.zeros((b1.size, b1.max(), b2.max()))
        lam = np.empty(b1.size)
        for p in range(b1.size):
            x, y = ii[s + p], jj[s + p]
            cell = np.matmul(rows[offsets[x]:offsets[x + 1]],
                             rows[offsets[y]:offsets[y + 1]].T,
                             out=c[p, :b1[p], :b2[p]])
            lam[p] = cell.min()
        trace, iters, _ = _eds_block(c, b1, b2, lam)
        out[s:s + b1.size] = trace[-1]
        capped += int(np.count_nonzero(iters == _MAX_DINKELBACH_ITERS))
    _warn_at_cap(capped, ii.size)
    return out


def _largest(sizes: np.ndarray, index: np.ndarray) -> int:
    """The largest sizes[index[p]] (1 with no index), with no per-pair copy."""
    named = np.zeros(sizes.size, dtype=bool)
    named[index] = True
    return int(sizes[named].max(initial=1))


def _span(blocks: Sequence[np.ndarray]) -> np.ndarray | None:
    """The blocks as one (rows, d) view when the non-empty ones are
    consecutive row slices, in order, of one C-contiguous array whose
    memory they share, each aligned C-contiguous float64; else None."""
    full = [rows for rows in blocks if rows.size]
    owner = full[0].base if full else None
    if not (isinstance(owner, np.ndarray) and owner.flags.c_contiguous
            and all(rows.ndim == 2 and rows.shape[1] == full[0].shape[1]
                    for rows in blocks)):
        return None
    start = at = full[0].ctypes.data
    for rows in full:
        if not (rows.base is owner and rows.dtype == np.float64
                and rows.flags.c_contiguous and rows.flags.aligned
                and rows.ctypes.data == at):
            return None
        at += rows.nbytes
    return np.ndarray((sum(rows.shape[0] for rows in blocks), full[0].shape[1]),
                      dtype=np.float64, buffer=owner, offset=start - owner.ctypes.data)


def pack(mmethod: str, blocks: Sequence[np.ndarray]) -> dict:
    """Prepare the patients' row blocks (equal dims) for score_pairs: the
    rows as one aligned float64 array, patient k at
    rows[offsets[k]:offsets[k + 1]]. When the blocks are consecutive row
    slices, in order, of one aligned C-contiguous float64 array, as
    vectorizer.load_matrices returns them in sorted-id order, rows is a
    view of their span; otherwise it is one copy. The kernels read the
    same values either way, so the scores are too.
    """
    if mmethod not in ("rv2", "mms", "eds"):
        raise ConfigError(f"unknown similarity method {mmethod!r}")
    if mmethod != "rv2" and not all(rows.shape[0] for rows in blocks):
        raise ValueError(f"{mmethod} needs at least one note row per patient")
    span = _span(blocks)
    return {"mmethod": mmethod,
            "rows": np.concatenate(blocks, dtype=np.float64) if span is None else span,
            "offsets": np.cumsum([0] + [rows.shape[0] for rows in blocks])}


def score_pairs(payload: dict, ii: np.ndarray, jj: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the pairs (ii[p], jj[p]) of a pack, NaN exactly where a
    pair is undefined, and every packed patient's validity; rv2 and mms
    raise ValueError unless the pairs are distinct, i < j, in the
    triangle's order.

    A pair is defined when both of its patients are valid. Every mms and
    eds patient is valid; an rv2 patient is valid when its gram triangle
    does not vanish, as the squared norms of the same pass tell.
    """
    if payload["mmethod"] != "rv2":
        batch = mms_batch if payload["mmethod"] == "mms" else eds_batch
        return (batch(payload["rows"], payload["offsets"], ii, jj),
                np.ones(payload["offsets"].size - 1, dtype=bool))
    scores, sq = rv2_batch(payload["rows"], ii, jj, payload["offsets"])
    valid = sq > 0.0
    if not valid.all():  # 0/0 leaves a NaN of other bits: write np.nan's
        scores[~(valid[ii] & valid[jj])] = np.nan
    return scores, valid
