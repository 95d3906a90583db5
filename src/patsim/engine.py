"""All-pairs patient similarity: parallel computation and persistence.

The pairs to score, every pair of the upper triangle (np.triu_indices)
or only those a consumer requests, are listed once per leg, row by row,
and each leg's scores are scattered into one symmetric matrix. The eds
legs of one dim are scored as one list over one pack; for eds,
contiguous slices of the list are farmed out to worker processes. rv2
and mms are scored in one call per leg, since BLAS already spreads their
tile products over the cores. Every pair is scored by
kernels.score_pairs on the same operands regardless of chunking or of
the other pairs listed, so the output is bitwise identical for any
worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import formats, kernels
from .exceptions import ConfigError, DimMismatch, TooFewPatients
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

_VMETHOD_RE = re.compile(r"^(lsa|d2v|rbc)(\d{3})$")


def parse_vmethod(label: str) -> tuple[str, int | None]:
    """Split a leg label like "lsa050" into (family, dim); "combined" has no dim."""
    if label == "combined":
        return "combined", None
    match = _VMETHOD_RE.match(label)
    if match is None:
        raise ConfigError(
            f"leg label must be 'combined' or <family><dim> like 'lsa050', "
            f"got {label!r}"
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
    """One cell of the (filter, vectorizer, measure) grid."""

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
        try:
            parse_vmethod(self.vmethod)
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
    """Symmetric pair scores for one run configuration.

    scores[i, j] == scores[j, i] exactly (the triangle is stored once and
    mirrored); undefined entries hold NaN with defined[i, j] False. A
    matrix that compute_legs built for a request leaves every pair it
    was not asked for undefined. wall_time_seconds is the scoring time:
    legs scored together split their shared time by pair count.
    """

    patient_ids: list[str]
    scores: np.ndarray
    defined: np.ndarray
    config: RunConfig
    wall_time_seconds: float = 0.0
    _index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self._index:
            self._index = {pid: i for i, pid in enumerate(self.patient_ids)}

    def index(self, patient_id: str) -> int:
        return self._index[patient_id]

    def get(self, id_a: str, id_b: str) -> tuple[float, bool]:
        i, j = self._index[id_a], self._index[id_b]
        return float(self.scores[i, j]), bool(self.defined[i, j])

    @property
    def n(self) -> int:
        return len(self.patient_ids)


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
    for. The eds legs of one dim and worker count share one pack and one
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
        scores, ok = _score(payload, ii, jj, config)
        at = 0
        for k, first in zip(members, firsts):
            ids, lii, ljj = plans[k]
            stop = at + lii.size
            out[k] = _scatter(ids, lii, ljj, scores[at:stop], ok[at:stop],
                              payload["valid"][first:first + len(ids)], legs[k][1])
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
        ii, jj = np.triu_indices(n, k=1)
        return ids, ii, jj
    index = {pid: k for k, pid in enumerate(ids)}
    at = [(index[a], index[b]) for a, b in request if a in index and b in index and a != b]
    ii, jj = np.array(sorted({(min(p), max(p)) for p in at}), dtype=np.intp).reshape(-1, 2).T
    return ids, ii, jj


def _score(payload: dict, ii: np.ndarray, jj: np.ndarray, config: RunConfig
           ) -> tuple[np.ndarray, np.ndarray]:
    """kernels.score_pairs over a pack, with eds pairs split over a pool of
    config.workers processes when there are enough of them."""
    npairs = ii.size
    if not (config.mmethod == "eds" and config.workers > 1
            and npairs >= _MIN_PAIRS_FOR_POOL):
        return kernels.score_pairs(payload, ii, jj)
    # more processes than usable CPUs only add fork and IPC cost
    processes = min(config.workers, len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    chunk = max(1, -(-npairs // (processes * 8)))
    ranges = [(s, min(s + chunk, npairs)) for s in range(0, npairs, chunk)]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context()
    with ctx.Pool(processes=processes, initializer=_init_worker,
                  initargs=(payload, ii, jj)) as pool:
        parts = pool.map(_worker_chunk, ranges)
    return (np.concatenate([scores for scores, _ in parts]),
            np.concatenate([ok for _, ok in parts]))


def _scatter(ids: Sequence[str], ii: np.ndarray, jj: np.ndarray, scores: np.ndarray,
             ok: np.ndarray, diag_ok: np.ndarray, config: RunConfig, wall: float = 0.0
             ) -> SimilarityMatrix:
    """The symmetric matrix holding scores[p] at (ii[p], jj[p]) and at
    (jj[p], ii[p]), 1 on the diagonal where diag_ok, and NaN, undefined,
    at every pair not given."""
    n = len(ids)
    full = np.full((n, n), np.nan, dtype=np.float64)
    defined = np.zeros((n, n), dtype=bool)
    full[ii, jj] = scores
    full[jj, ii] = scores
    defined[ii, jj] = ok
    defined[jj, ii] = ok
    full[np.arange(n), np.arange(n)] = np.where(diag_ok, 1.0, np.nan)
    defined[np.arange(n), np.arange(n)] = diag_ok
    return SimilarityMatrix(list(ids), full, defined, config, wall)


def combine_similarities(
    members: Sequence[SimilarityMatrix], config: RunConfig
) -> SimilarityMatrix:
    """Average member score matrices entrywise over their defined legs.

    Each member's defined scores, and their counts, are summed onto the
    union of the members' patient sets, so a pair is undefined only when
    every member leaves it undefined.
    """
    if not members:
        raise TooFewPatients("no member similarity matrices to combine")
    ids = sorted(set().union(*(m.patient_ids for m in members)))
    index = {pid: k for k, pid in enumerate(ids)}
    t0 = time.perf_counter()
    total = np.zeros((len(ids), len(ids)), dtype=np.float64)
    count = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for m in members:
        at = [index[pid] for pid in m.patient_ids]
        total[np.ix_(at, at)] += np.where(m.defined, m.scores, 0.0)
        count[np.ix_(at, at)] += m.defined
    scores = np.divide(total, count, out=np.full_like(total, np.nan),
                       where=count > 0)
    defined = count > 0
    wall = time.perf_counter() - t0
    return SimilarityMatrix(list(ids), scores, defined, config, wall)


# ---------------------------------------------------------------------------
# Persistence: PATSIM-SIM-1, its parts in patsim.formats framing.
# ---------------------------------------------------------------------------

def persist_similarity(sim: SimilarityMatrix, path: str | Path) -> None:
    iu, ju = np.triu_indices(sim.n, k=1)
    trailer = {"version": 1, "config": asdict(sim.config),
               "wall_time_seconds": sim.wall_time_seconds}
    formats.write(path, SIM_MAGIC, [
        formats.json_block(sim.patient_ids),
        formats.count(iu.size),
        np.ascontiguousarray(sim.scores[iu, ju], dtype="<f8"),
        formats.mask(sim.defined[iu, ju]),
        formats.mask(sim.defined.diagonal()),
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
        tri_ok = r.mask(npairs, "pair mask")
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
    return _scatter(ids, *np.triu_indices(n, k=1), tri, tri_ok, diag_ok, config, wall)


def export_csv(sim: SimilarityMatrix, path: str | Path) -> None:
    """Dump the upper triangle as id_a,id_b,score,defined rows."""
    ids = [formats.csv_field(pid) for pid in sim.patient_ids]
    formats.write_csv(path, ["id_a,id_b,score,defined\n"], (
        f"{a},{b},{score:.17g},true\n" if ok else f"{a},{b},,false\n"
        for i, a in enumerate(ids)
        for b, score, ok in zip(ids[i + 1:], sim.scores[i, i + 1:].tolist(),
                                sim.defined[i, i + 1:].tolist())))


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
