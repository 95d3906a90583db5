"""The benchmark's workloads: inputs, set-up load, timed phase and checks.

Every call into patsim goes through a module attribute
(`engine.compute_all_pairs`, not a name imported from it), so the
tracer's wrappers see the calls when tracing is on.

Inputs are a pure function of the seed and are cached per seed (see
run.py); the program only ever receives the generated files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from patsim import engine, evaluation, grid, kernels, synth, vectorizer
from patsim import corpus as corpus_mod

GRID_CLUSTERS = 4
# Imported legs: (leg name, dimension the vectors are written at). The
# rbc legs are written above their leg dimension, so the grid compresses
# them with compress_embeddings.
IMPORT_LEGS = (("d2v050", 50), ("d2v200", 200), ("rbc050", 256), ("rbc200", 256))

MATRIX_CLUSTERS = 5
NOTES_RANGE = (30, 42)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # key of the generated input set; workloads may share one
    measures: tuple[tuple[str, int], ...]  # (measure, dim) for pairs paths
    export: bool  # pairs path also writes the CSV export
    pooled: bool  # workers = nproc instead of 1
    why: str
    idle: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "grid", "grid", (), False, False,
        why="The paper's headline experiment: all 42 cells of grid_search "
            "plus write_report, workers=1, on the tests/test_grid.py corpus "
            "shape with all four import legs present. The only workload "
            "where LSA fitting (randomized_svd) dominates, and the only one "
            "whose consumer reads few of the pairs it scores (8 pivots x 5 "
            "candidates per matrix against the full triangle), so an exact "
            "SVD or scoring only what is read shows here.",
        idle="the engine's worker pool, persist_similarity, export_csv, "
             "load_matrices",
    ),
    Workload(
        "pairs-eds", "eds", (("eds", 50),), False, False,
        why="The `patsim pairs` path for the order-aware measure: "
            "load_matrices -> compute_all_pairs(eds) -> persist_similarity, "
            "workers=1, 120 patients x 30-42 notes at dim 50. eds costs "
            "about 70x mms per pair and is almost all of this run, so a "
            "batched or compiled eds shows here. Not listed in "
            "BENCHMARK.json: on a shared 2-vCPU KVM guest whose speed swings "
            "for minutes at a time, the numpy eds lane spread 12-17% in wall "
            "time across runs of 30 s, against 5-8% for the listed "
            "workloads. eds is still scored, and traced, inside grid.",
        idle="segmenter, vectorizer fitting and embedding, evaluation, grid, "
             "rv2/mms kernels, the worker pool",
    ),
    Workload(
        "pairs-dense", "dense", (("rv2", 200), ("mms", 50)), True, False,
        why="ROADMAP's acceptance shape: the pairs path for rv2 at dim 200 "
            "and mms at dim 50 on 500 patients x 30-42 notes (124,750 pairs "
            "per measure), plus export_csv, workers=1. Both GEMM-shaped "
            "kernels, the n^2 scatter, persistence and the CSV writer do "
            "the work and there is no eds: an eds change must not move it, "
            "a blocked-GEMM or pair-store change must.",
        idle="the eds kernel, segmenter, vectorizer fitting, evaluation, "
             "grid, the worker pool",
    ),
    Workload(
        "pairs-pool", "dense", (("rv2", 200), ("mms", 50)), True, True,
        why="pairs-dense's inputs and measures at workers = nproc: the only "
            "workload that runs the engine's fork pool, whose forked "
            "workers each start a multi-threaded BLAS. Kernel spans run in "
            "the forked children and are not visible to the tracer, so "
            "engine.self_s holds the pool's overhead and the children's "
            "time. Not listed in BENCHMARK.json: on a 2-vCPU KVM guest one "
            "iteration took 7.5 to 37 s (6-8 s at workers=1), a spread wider "
            "than any bound a listed workload may have.",
        idle="the eds kernel, segmenter, vectorizer fitting, evaluation, grid",
    ),
)}


def workers_for(workload: Workload) -> int:
    if workload.pooled:
        return len(os.sched_getaffinity(0))
    return 1


# ---------------------------------------------------------------------------
# Input generation (not timed; cached per seed by run.py).
# ---------------------------------------------------------------------------

def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _planted_rows(rng, centroid: np.ndarray, n: int, noise: float) -> np.ndarray:
    """n unit rows scattered around one cluster direction."""
    dim = centroid.size
    return _unit(centroid + noise * rng.standard_normal((n, dim)) / math.sqrt(dim))


def generate(inputs: str, seed: int, out: Path) -> None:
    """Write the input files of one input set for one seed into out."""
    out.mkdir(parents=True, exist_ok=True)
    if inputs == "grid":
        _generate_grid(seed, out)
    else:
        _generate_matrices(inputs, seed, out)


def _generate_grid(seed: int, out: Path) -> None:
    spec = synth.SynthSpec(
        n_patients=50, n_clusters=GRID_CLUSTERS, notes_per_patient=(14, 18),
        segments_per_note=(3, 5), seed=seed,
    )
    corpus, assignment = synth.generate_synthetic(spec)
    validation = synth.synthesize_validation(
        assignment, n_pivots=8, per_pivot=5, n_annotators=3, noise=1.0,
        seed=seed + 1,
    )
    corpus_mod.write_corpus(corpus, out / "corpus.jsonl")
    evaluation.save_annotations(validation, out / "annotations.csv")
    (out / "prototypes.json").write_text(
        json.dumps(synth.default_prototypes(), sort_keys=True), encoding="utf-8")
    # External note vectors carrying the planted cluster signal, so the
    # imported legs rank like the corpus does.
    rng = np.random.default_rng(seed + 2)
    imports = out / "imports"
    imports.mkdir()
    for leg, dim in IMPORT_LEGS:
        centroids = _unit(rng.standard_normal((GRID_CLUSTERS, dim)))
        with open(imports / f"{leg}.jsonl", "w", encoding="utf-8") as fh:
            for patient in corpus:
                rows = _planted_rows(rng, centroids[assignment[patient.patient_id]],
                                     len(patient.notes), noise=2.0)
                for idx, row in enumerate(rows):
                    fh.write(json.dumps({"patient_id": patient.patient_id,
                                         "note_index": idx,
                                         "vector": row.tolist()}) + "\n")


def _generate_matrices(inputs: str, seed: int, out: Path) -> None:
    n_patients = {"eds": 120, "dense": 500}[inputs]
    dims = {"eds": (50,), "dense": (50, 200)}[inputs]
    rng = np.random.default_rng(seed)
    width = len(str(n_patients - 1))
    ids = [f"p{p:0{width}d}" for p in range(n_patients)]
    assignment = {pid: p % MATRIX_CLUSTERS for p, pid in enumerate(ids)}
    counts = rng.integers(NOTES_RANGE[0], NOTES_RANGE[1] + 1, n_patients)
    for dim in dims:
        centroids = _unit(rng.standard_normal((MATRIX_CLUSTERS, dim)))
        mats = {
            pid: vectorizer.PatientMatrix(
                pid,
                np.ascontiguousarray(_planted_rows(
                    rng, centroids[assignment[pid]], int(k), noise=2.0)),
                np.arange(int(k), dtype=np.int64),
            )
            for pid, k in zip(ids, counts)
        }
        vectorizer.save_matrices(mats, out / f"mats{dim:03d}.bin",
                                 meta={"vmethod": f"lsa{dim:03d}", "seed": seed})
    synth.write_assignment_csv(assignment, out / "clusters.csv")


# ---------------------------------------------------------------------------
# Set-up: the program's inputs loaded into memory (timed as setup_s).
# ---------------------------------------------------------------------------

def load(workload: Workload, inputs_dir: Path) -> dict:
    if workload.inputs == "grid":
        return {
            "corpus": corpus_mod.load_corpus(inputs_dir / "corpus.jsonl"),
            "validation": evaluation.load_annotations(inputs_dir / "annotations.csv"),
            "prototypes": json.loads(
                (inputs_dir / "prototypes.json").read_text(encoding="utf-8")),
        }
    return {
        dim: vectorizer.load_matrices(inputs_dir / f"mats{dim:03d}.bin")
        for dim in sorted({d for _, d in workload.measures})
    }


# ---------------------------------------------------------------------------
# Timed phase: one iteration of the workload.
# ---------------------------------------------------------------------------

def run_once(workload: Workload, loaded: dict, inputs_dir: Path, work: Path) -> dict:
    """One iteration; returns the objects the checks inspect and op count."""
    if workload.inputs == "grid":
        report = grid.grid_search(
            loaded["corpus"], loaded["validation"],
            prototypes=loaded["prototypes"],
            imports_dir=inputs_dir / "imports",
            options=grid.GridOptions(seed=3, threshold=0.6, workers=1),
        )
        grid.write_report(report, work / "report")
        return {"report": report, "ops": 2}
    sims = {}
    ops = 0
    for measure, dim in workload.measures:
        matrices, meta = loaded[dim]
        config = engine.RunConfig(
            filter=bool(meta.get("filter", False)),
            vmethod=str(meta.get("vmethod", "lsa050")),
            mmethod=measure,
            category=meta.get("category"),
            workers=workers_for(workload),
            seed=int(meta.get("seed", 0)),
        )
        sim = engine.compute_all_pairs(matrices, config)
        engine.persist_similarity(sim, work / f"{measure}.sim")
        ops += 2
        if workload.export:
            engine.export_csv(sim, work / f"{measure}.csv")
            ops += 1
        sims[measure] = sim
    return {"sims": sims, "ops": ops}


def _score_bytes(path: Path) -> bytes:
    """A PATSIM-SIM-1 file without its JSON trailer (config and timing)."""
    blob = path.read_bytes()
    off = len(engine.SIM_MAGIC)
    (ids_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    n = len(json.loads(blob[off:off + ids_len]))
    off += ids_len
    (npairs,) = struct.unpack_from("<Q", blob, off)
    off += 8 + 8 * npairs + (npairs + 7) // 8 + (n + 7) // 8
    return blob[:off]


def digest(workload: Workload, work: Path) -> str:
    """Hash of the iteration's deterministic outputs.

    Score files are hashed without their trailer, which records the
    worker count and wall time; grid reports and CSV exports in full.
    """
    h = hashlib.sha256()
    if workload.inputs == "grid":
        files = sorted((work / "report").iterdir())
    else:
        files = []
        for measure, _ in workload.measures:
            files.append(work / f"{measure}.sim")
            if workload.export:
                files.append(work / f"{measure}.csv")
    for path in files:
        h.update(path.name.encode())
        h.update(_score_bytes(path) if path.suffix == ".sim" else path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Output checks (after the timed phase) and the quality figure.
# ---------------------------------------------------------------------------

ORACLE_SAMPLE = 200


def checks(workload: Workload, loaded: dict, out: dict, work: Path,
           seed: int) -> list[tuple[str, bool, str]]:
    """Named pass/fail checks of one iteration's outputs."""
    if workload.inputs == "grid":
        return _grid_checks(out["report"], work)
    import oracles  # tests/oracles.py: brute-force references

    results = []
    rng = np.random.default_rng(seed)
    for measure, sim in out["sims"].items():
        matrices = loaded[dict(workload.measures)[measure]][0]
        n = sim.n
        worst = 0.0
        agree = True
        for _ in range(ORACLE_SAMPLE):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            a = matrices[sim.patient_ids[i]].rows
            b = matrices[sim.patient_ids[j]].rows
            got, ok = sim.get(sim.patient_ids[i], sim.patient_ids[j])
            if measure == "rv2":
                want, tol = oracles.rv2_reference(a, b), 1e-12
            elif measure == "mms":
                want, tol = oracles.mms_reference(a, b), 1e-12
            else:
                want, tol = kernels.eds_score(a @ b.T), 1e-9
            if want is None or not ok:
                agree &= (want is None) == (not ok)
                continue
            worst = max(worst, abs(got - want))
            agree &= abs(got - want) <= tol
        results.append((f"{measure}_oracle_sample", agree,
                        f"{ORACLE_SAMPLE} pairs, max |diff| {worst:.3g}"))
        if measure == "rv2":
            vals = sim.scores[sim.defined]
            results.append(("rv2_in_range", bool(np.all(np.abs(vals) <= 1.0)),
                            f"min {vals.min():.6f} max {vals.max():.6f}"))
        back = engine.load_similarity(work / f"{measure}.sim")
        same = (back.patient_ids == sim.patient_ids and back.config == sim.config
                and np.array_equal(back.defined, sim.defined)
                and np.array_equal(back.scores.view(np.uint64),
                                   sim.scores.view(np.uint64))
                and back.wall_time_seconds == sim.wall_time_seconds)
        results.append((f"{measure}_roundtrip", same, "persist -> load bitwise"))
    return results


def _grid_checks(report, work: Path) -> list[tuple[str, bool, str]]:
    cells = report.cells
    results = [
        ("grid_42_cells", len(cells) == 42
         and len({(c.mmethod, c.vmethod, c.filter) for c in cells}) == 42,
         f"{len(cells)} cells"),
        ("grid_all_ok", all(c.status == "ok" for c in cells),
         ",".join(sorted({c.status for c in cells}))),
    ]
    # every printed mean matches its printed components within 5e-3
    worst = 0.0
    checked = 0
    for name, mean_col in (("cells.csv", 14), ("top10.csv", 13)):
        lines = (work / "report" / name).read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            parts = line.split(",")
            cats = [float(v) for v in parts[mean_col - 10:mean_col] if v]
            if not cats or not parts[mean_col]:
                continue
            worst = max(worst, abs(float(parts[mean_col]) - sum(cats) / len(cats)))
            checked += 1
    results.append(("grid_printed_means", checked > 0 and worst <= 5e-3 + 1e-9,
                    f"{checked} means, max |diff| {worst:.4f}"))
    return results


def quality(workload: Workload, out: dict, inputs_dir: Path) -> float:
    """grid: mean over cells of each cell's mean Kendall tau-b against the
    annotations. pairs-*: mean over measures of precision@5 against the
    planted clusters."""
    if workload.inputs == "grid":
        return float(np.mean([c.mean for c in out["report"].cells]))
    assignment = synth.load_assignment_csv(inputs_dir / "clusters.csv")
    return float(np.mean([
        evaluation.cluster_precision_at_k(sim, assignment, k=5)
        for sim in out["sims"].values()
    ]))


def eds_pairs(spans, seed: int, limit: int = 256) -> list[tuple[np.ndarray, np.ndarray]]:
    """A seeded sample of the (a, b) row blocks eds_batch scored."""
    calls = [s.args for s in spans if s.name == "kernels.eds_batch" and s.phase == "run"]
    index = [(c, p) for c, args in enumerate(calls) for p in range(args[2].size)]
    if not index:
        return []
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(index), size=min(limit, len(index)), replace=False)
    out = []
    for k in sorted(picks):
        c, p = index[k]
        rows, offsets, ii, jj = calls[c][:4]
        out.append((rows[offsets[ii[p]]:offsets[ii[p] + 1]],
                    rows[offsets[jj[p]]:offsets[jj[p] + 1]]))
    return out
