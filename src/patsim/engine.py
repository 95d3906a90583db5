"""All-pairs patient similarity: parallel computation and persistence.

The pairs to score, every pair of the upper triangle or only those a
consumer requests, are listed once per leg as index pairs (i, j), i < j,
in the triangle's order (row by row), and each leg's result keeps the
kernels' scores in that order, NaN where a pair is undefined: a
triangle-sized pair store, with no n x n matrix and no mirror. The eds
legs of one dim are scored as one list over one pack; for eds,
contiguous slices of the list are farmed out to worker processes. rv2
and mms are scored in one call per leg, in this process: measured on 500
patients and 2 CPUs, a pool made them slower (see README), and with no
split to make their bits cannot depend on the worker count. Every pair
is scored by kernels.score_pairs on the same operands regardless of
chunking or of the other pairs listed, so the output is bitwise
identical for any worker count.
"""

from __future__ import annotations

import math
import os
import re
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import formats, kernels
from .exceptions import ConfigError, DimMismatch, TooFewPatients
from .segmenter import resolve_category
from .vectorizer import PatientMatrix

__all__ = [
    "VMETHODS",
    "MMETHODS",
    "parse_vmethod",
    "vmethod_label",
    "RunConfig",
    "SimilarityMatrix",
    "compute_all_pairs",
    "compute_legs",
    "combine_similarities",
    "persist_similarity",
    "load_similarity",
    "export_csv",
    "timing_report",
    "TimingReport",
]

# The evaluation grid runs these seven vectorizer legs; RunConfig itself
# accepts any <family><dim> label so pipelines can use other dimensions.
VMETHODS = ("lsa050", "lsa200", "d2v050", "d2v200", "rbc050", "rbc200", "combined")
MMETHODS = ("rv2", "mms", "eds")

_VMETHOD_RE = re.compile(r"(lsa|d2v|rbc)(?!000)(\d{3})")


def parse_vmethod(label: str) -> tuple[str, int | None]:
    """Split a leg label like "lsa050" into (family, dim), dim 1 to 999;
    "combined" has no dim."""
    if label == "combined":
        return "combined", None
    match = _VMETHOD_RE.fullmatch(label)
    if match is None:
        raise ConfigError(
            f"leg label must be 'combined' or <family><dim> with dim 001-999 "
            f"like 'lsa050', got {label!r}"
        )
    return match.group(1), int(match.group(2))


def vmethod_label(family: str, dim: int) -> str:
    """The leg label of one vectorizer family at one dimension."""
    return f"{family}{dim:03d}"


SIM_MAGIC = b"PATSIM-SIM-1\n"

# Below this many eds pairs the pool overhead outweighs any speedup (on
# 2 CPUs, 2,080 pairs of 30-42 notes took 0.45 s serial and 0.29-0.67 s
# with 2 workers; 19,900 pairs of 16 notes 0.77 s and 0.44 s). The cutoff
# depends only on the input, never on the worker count, so determinism
# across worker counts is preserved.
_MIN_PAIRS_FOR_POOL = 2048


@dataclass(frozen=True)
class RunConfig:
    """One cell of the (filter, vectorizer, measure) grid; a filtered cell
    names its category (held as its canonical name), and an unfiltered
    one names none."""

    filter: bool
    vmethod: str
    mmethod: str
    category: str | None = None
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.filter, bool)
                and (self.category is None or isinstance(self.category, str))
                and type(self.workers) is int and type(self.seed) is int):
            raise TypeError(f"RunConfig field of the wrong type in {self!r}")
        if self.filter != (self.category is not None):
            raise ValueError(f"filter={self.filter} with category {self.category!r}")
        try:
            parse_vmethod(self.vmethod)
            if self.category is not None:
                object.__setattr__(self, "category", resolve_category(self.category).name)
        except ConfigError as exc:
            raise ValueError(str(exc)) from None
        if self.mmethod not in MMETHODS:
            raise ValueError(f"mmethod must be one of {MMETHODS}, got {self.mmethod!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def dim(self) -> int | None:
        """Embedding dimension encoded in the vectorizer name, if any."""
        return parse_vmethod(self.vmethod)[1]


@dataclass
class SimilarityMatrix:
    """Pair scores for one run configuration, held in the triangle's order.

    pair_scores[q] is the score of the q-th held pair (i, j), i < j, and
    NaN exactly where that pair is undefined. With pairs None the store
    holds every pair of the upper triangle, row by row, as all-pairs
    scoring and .sim files give them; otherwise it holds the pairs
    (pairs[0][q], pairs[1][q]), in the same order, that a request scored,
    and every other pair is undefined. diag_defined[i] tells whether
    patient i's own pair is defined (its score is 1). Nothing is
    mirrored: scores and defined build the symmetric n x n view on each
    access, for consumers that want one, and do not keep it.
    wall_time_seconds is the scoring time: legs scored together split
    their shared time by pair count.
    """

    patient_ids: list[str]
    pair_scores: np.ndarray
    diag_defined: np.ndarray
    config: RunConfig
    wall_time_seconds: float = 0.0
    pairs: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.pairs is not None and self.pairs[0].size == self.n * (self.n - 1) // 2:
            self.pairs = None  # distinct pairs i < j in order: the whole triangle

    def get(self, id_a: str, id_b: str) -> tuple[float, bool]:
        """The pair's score, and whether it is defined: not isnan(score)."""
        ids = self.patient_ids
        score = float(self.lookup([ids.index(id_a)], [ids.index(id_b)])[0])
        return score, not math.isnan(score)

    def lookup(self, i: Sequence[int], j: Sequence[int]) -> np.ndarray:
        """Scores of the index pairs (i[k], j[k]), either way round: NaN
        where a pair is undefined or not held, and 1 on a patient's own
        pair where it is defined. Raises IndexError on an index outside
        [0, n)."""
        i, j = np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        if lo.size and (lo.min() < 0 or hi.max() >= self.n):
            raise IndexError(f"patient index out of range for {self.n} patients")
        held = lo < hi
        at = _position(lo, hi, self.n)
        if self.pairs is not None:
            keys = _position(*self.pairs, self.n)  # rising: the pairs are in order
            found = np.minimum(np.searchsorted(keys, at), max(keys.size - 1, 0))
            held &= keys[found] == at if keys.size else False
            at = found
        scores = np.full(lo.shape, np.nan)
        scores[held] = self.pair_scores[at[held]]
        own = lo == hi
        scores[own] = np.where(self.diag_defined[lo[own]], 1.0, np.nan)
        return scores

    def triangle(self) -> np.ndarray:
        """Scores of every pair i < j, row by row: the store itself when it
        holds the whole triangle."""
        if self.pairs is None:
            return self.pair_scores
        scores = np.full(self.n * (self.n - 1) // 2, np.nan)
        scores[_position(*self.pairs, self.n)] = self.pair_scores
        return scores

    @property
    def scores(self) -> np.ndarray:
        """The symmetric n x n scores, NaN where undefined and 1 on a
        defined diagonal; built on each access."""
        out = np.full((self.n, self.n), np.nan)
        ii, jj = _triangle(self.n) if self.pairs is None else self.pairs
        out[ii, jj] = out[jj, ii] = self.pair_scores
        np.fill_diagonal(out, np.where(self.diag_defined, 1.0, np.nan))
        return out

    @property
    def defined(self) -> np.ndarray:
        """The symmetric n x n defined bits; built on each access."""
        return ~np.isnan(self.scores)

    @property
    def n(self) -> int:
        return len(self.patient_ids)


def _position(i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Where each pair (i, j), i < j, of n patients sits in the triangle,
    row by row."""
    i = np.asarray(i, dtype=np.int64)
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair i < j of n patients as (ii, jj), row by row, in int16
    when that holds n (else int32): at the paper's 4,267 patients 36 MB,
    where np.triu_indices takes 146 MB and an n x n mask."""
    dtype = np.int16 if n < np.iinfo(np.int16).max else np.int32
    counts = np.arange(n - 1, 0, -1)
    ii = np.repeat(np.arange(n - 1, dtype=dtype), counts)
    # jj rises by 1 along a row and falls back to i + 1 at row i's start
    jj = np.ones(ii.size, dtype=dtype)
    jj[np.cumsum(counts[:-1])] = np.arange(1, n - 1) + 2 - n
    np.add.accumulate(jj, out=jj)
    return ii, jj


_WORKER_STATE: dict = {}


def _init_worker(payload: dict, ii: np.ndarray, jj: np.ndarray) -> None:
    _WORKER_STATE.update(payload=payload, ii=ii, jj=jj)


def _worker_chunk(args: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    start, stop = args
    state = _WORKER_STATE
    return kernels.score_pairs(state["payload"], state["ii"][start:stop],
                               state["jj"][start:stop])


def compute_all_pairs(
    matrices: Mapping[str, PatientMatrix], config: RunConfig
) -> SimilarityMatrix:
    """Score every unordered patient pair under one configuration:
    compute_legs for one leg with no request."""
    return compute_legs([(matrices, config)])[0]


def compute_legs(
    legs: Sequence[tuple[Mapping[str, PatientMatrix], RunConfig]],
    pairs: Iterable[tuple[str, str]] | None = None,
) -> list[SimilarityMatrix]:
    """Each leg's similarity matrix over the requested unordered patient
    pairs, or over every pair when pairs is None.

    A leg is one set of patient matrices scored under one configuration.
    Its patients are ordered by sorted id. A requested pair is skipped in
    a leg that lacks one of its patients, and a pair naming one patient
    twice is skipped everywhere. Every pair not requested is undefined in
    the result, so it serves a consumer that reads only the pairs it asked
    for. Each result holds the kernels' scores of its pairs as they come,
    in the triangle's order, with no n x n array. The eds legs of one dim and worker count share one pack and one
    eds_batch call (or one pool), since eds solves one cross matrix per
    pair; each rv2 and mms leg keeps a pack of its own, since their tile
    products fix each score's bits. So each pair is scored bitwise as in
    its leg's full triangle, whatever else is requested with it. The
    result does not depend on config.workers; only the wall time does,
    and legs scored together split theirs by pair count. The eds pool
    never has more processes than this process may run on CPUs at once.
    """
    request = None if pairs is None else list(pairs)
    plans = [_plan(matrices, request) for matrices, _ in legs]
    groups: dict[object, list[int]] = {}
    for k, ((matrices, config), (ids, _, _)) in enumerate(zip(legs, plans)):
        key = (matrices[ids[0]].rows.shape[1], config.workers) \
            if config.mmethod == "eds" else k
        groups.setdefault(key, []).append(k)

    out: dict[int, SimilarityMatrix] = {}
    for members in groups.values():
        t0 = time.perf_counter()
        config = legs[members[0]][1]
        firsts = np.cumsum([0] + [len(plans[k][0]) for k in members])
        if len(members) == 1:  # one leg's pairs are scored as listed, with no copy
            _, ii, jj = plans[members[0]]
        else:  # leg k's patients follow the earlier legs' in the pack
            ii = np.concatenate([plans[k][1] + first for k, first in zip(members, firsts)])
            jj = np.concatenate([plans[k][2] + first for k, first in zip(members, firsts)])
        payload = kernels.pack(config.mmethod, [legs[k][0][pid].rows for k in members
                                                for pid in plans[k][0]])
        scores, valid = _score(payload, ii, jj, config)
        at = 0
        for k, first in zip(members, firsts):
            ids, lii, ljj = plans[k]
            stop = at + lii.size
            out[k] = SimilarityMatrix(ids, scores[at:stop], valid[first:first + len(ids)],
                                      legs[k][1], pairs=None if request is None else (lii, ljj))
            at = stop
        wall = time.perf_counter() - t0
        for k in members:
            share = plans[k][1].size / ii.size if ii.size else 1 / len(members)
            out[k].wall_time_seconds = wall * share
    return [out[k] for k in range(len(legs))]


def _plan(matrices: Mapping[str, PatientMatrix], request: list[tuple[str, str]] | None
          ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """One leg's sorted ids and the index pairs (i, j), i < j, to score:
    the triangle, or the request's pairs in the triangle's order."""
    ids = sorted(matrices)
    n = len(ids)
    if n < 2:
        raise TooFewPatients(f"need at least 2 patients, got {n}")
    dims = {matrices[pid].rows.shape[1] for pid in ids}
    if len(dims) != 1:
        raise DimMismatch(f"patient matrices disagree on dim: {sorted(dims)}")
    if request is None:
        return ids, *_triangle(n)
    index = {pid: k for k, pid in enumerate(ids)}
    at = [(index[a], index[b]) for a, b in request if a in index and b in index and a != b]
    ii, jj = np.array(sorted({(min(p), max(p)) for p in at}), dtype=np.intp).reshape(-1, 2).T
    return ids, ii, jj


def _score(payload: dict, ii: np.ndarray, jj: np.ndarray, config: RunConfig
           ) -> tuple[np.ndarray, np.ndarray]:
    """kernels.score_pairs over a pack, with eds pairs split over a pool of
    config.workers processes when there are enough of them."""
    npairs = ii.size
    # more processes than usable CPUs only add fork and IPC cost, and a
    # pool of one would only fork for work this process can do
    processes = min(config.workers, len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    if not (config.mmethod == "eds" and processes > 1 and npairs >= _MIN_PAIRS_FOR_POOL):
        return kernels.score_pairs(payload, ii, jj)
    chunk = max(1, -(-npairs // (processes * 8)))
    ranges = [(s, min(s + chunk, npairs)) for s in range(0, npairs, chunk)]
    import multiprocessing  # loaded here, so importing patsim loads no multiprocessing
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    with ctx.Pool(processes=processes, initializer=_init_worker,
                  initargs=(payload, ii, jj)) as pool:
        parts = pool.map(_worker_chunk, ranges)
    # every chunk reads the same pack, so each gives the same patient validity
    return np.concatenate([scores for scores, _ in parts]), parts[0][1]


def combine_similarities(
    members: Sequence[SimilarityMatrix], config: RunConfig
) -> SimilarityMatrix:
    """Average member scores pairwise over their defined legs.

    Each member's defined (non-NaN) pairs are keyed i * n + j on the union
    of the members' patient sets, and their scores summed per key in
    member order, so a pair is undefined only when every member leaves it
    undefined.
    """
    if not members:
        raise TooFewPatients("no member similarity matrices to combine")
    ids = sorted(set().union(*(m.patient_ids for m in members)))
    index = {pid: k for k, pid in enumerate(ids)}
    n = len(ids)
    t0 = time.perf_counter()
    keys, values = [], []
    diag = np.zeros(n, dtype=bool)
    for m in members:
        at = np.array([index[pid] for pid in m.patient_ids], dtype=np.int64)
        ii, jj = _triangle(m.n) if m.pairs is None else m.pairs
        ok = ~np.isnan(m.pair_scores)
        keys.append(at[ii[ok]] * n + at[jj[ok]])
        values.append(m.pair_scores[ok])
        diag[at[m.diag_defined]] = True
    held, slot = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.bincount(slot, weights=np.concatenate(values), minlength=held.size)
    scores = total / np.bincount(slot, minlength=held.size)
    wall = time.perf_counter() - t0
    return SimilarityMatrix(ids, scores, diag, config, wall, pairs=(held // n, held % n))


# ---------------------------------------------------------------------------
# Persistence: PATSIM-SIM-1, its parts in patsim.formats framing.
# ---------------------------------------------------------------------------

def persist_similarity(sim: SimilarityMatrix, path: str | Path) -> None:
    scores = sim.triangle()
    trailer = {"version": 1, "config": asdict(sim.config),
               "wall_time_seconds": sim.wall_time_seconds}
    formats.write(path, SIM_MAGIC, [
        formats.json_block(sim.patient_ids),
        formats.count(scores.size),
        np.ascontiguousarray(scores, dtype="<f8"),
        formats.mask(~np.isnan(scores)),  # the pair mask: load_similarity checks it
        formats.mask(sim.diag_defined),
        formats.json_block(trailer, ascii=True),
    ])


def load_similarity(path: str | Path) -> SimilarityMatrix:
    with open(path, "rb") as fh:
        r = formats.Reader(fh, SIM_MAGIC, "similarity file")
        ids = r.json("id table")
        if not formats.unique_strings(ids):
            raise r.error("id table is not a list of distinct ids")
        n = len(ids)
        npairs = r.count("pair count")
        if npairs != n * (n - 1) // 2:
            raise r.error(f"pair count {npairs} does not match {n} ids")
        tri = r.array("<f8", npairs, "triangle")
        if not np.array_equal(r.mask(npairs, "pair mask"), ~np.isnan(tri)):
            raise r.error("pair mask disagrees with the scores' NaNs")
        diag_ok = r.mask(n, "diagonal mask")
        trailer = r.json("trailer", dict)
        r.end()
    try:
        if trailer["version"] != 1:
            raise r.error(f"unsupported similarity version {trailer['version']}")
        config = RunConfig(**trailer["config"])
        wall = float(trailer["wall_time_seconds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise r.error(f"bad trailer: {exc}")
    return SimilarityMatrix(ids, tri, diag_ok, config, wall)


def export_csv(sim: SimilarityMatrix, path: str | Path) -> None:
    """Dump the upper triangle as id_a,id_b,score,defined rows.

    A patient's row of the triangle whose pairs are all defined is one
    %-format of a template of its lines; a row with undefined (NaN) pairs
    is written line by line. "%.17g" formats a float as f"{x:.17g}" does.
    """
    ids = [formats.csv_field(pid) for pid in sim.patient_ids]
    heads = [pid.replace("%", "%%") for pid in ids]
    tails = [f",{pid},%.17g,true\n" for pid in heads]
    scores = sim.triangle()

    def rows():
        stop = 0
        for i, a in enumerate(ids[:-1]):
            at, stop = stop, stop + len(ids) - 1 - i
            row = scores[at:stop].tolist()
            if not np.isnan(scores[at:stop]).any():
                yield (heads[i] + heads[i].join(tails[i + 1:])) % tuple(row)
            else:
                yield "".join(f"{a},{b},,false\n" if math.isnan(score)
                              else f"{a},{b},{score:.17g},true\n"
                              for b, score in zip(ids[i + 1:], row))

    formats.write_csv(path, ["id_a,id_b,score,defined\n"], rows())


# ---------------------------------------------------------------------------
# Timing report.
# ---------------------------------------------------------------------------

@dataclass
class TimingReport:
    """Wall time per (measure, dimension), one row per executed run."""

    rows: list[tuple[str, int | None, float]]

    def render(self) -> str:
        dims = sorted({d for _, d, _ in self.rows if d is not None})
        table = [["dimension", *MMETHODS]]
        for d in dims:
            walls = [[w for mm, dd, w in self.rows if mm == m and dd == d]
                     for m in MMETHODS]
            table.append([str(d)] + [np.mean(w) if w else None for w in walls])
        return formats.text_table(table, 2) + "\n(seconds per run)"

    def to_csv(self) -> str:
        return formats.csv_table([["mmethod", "dim", "wall_time_seconds"]] + [
            [m, None if d is None else str(d), w] for m, d, w in self.rows], 6)


def timing_report(runs: Sequence[SimilarityMatrix]) -> TimingReport:
    """Collect wall times of executed runs into a renderable table."""
    rows = [
        (r.config.mmethod, r.config.dim, r.wall_time_seconds) for r in runs
    ]
    return TimingReport(rows)
