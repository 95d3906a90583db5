"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the timing report. Criterion 8 is reported, not gated: its
measurements print either way.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from patsim import kernels
from patsim.engine import RunConfig, compute_all_pairs, load_similarity
from patsim.evaluation import (
    cluster_precision_at_k,
    kendall_tau_b,
    save_annotations,
)
from patsim.grid import GridOptions, cells_csv, grid_search, top10_csv, write_report
from patsim.matsim import eds, mms, rv2
from patsim.segmenter import (
    RelevancyMap,
    filter_segments,
    segment_patient,
    unfiltered_notes,
)
from patsim.synth import (
    SynthSpec,
    default_category_titles,
    default_prototypes,
    generate_synthetic,
    synthesize_validation,
)
from patsim.vectorizer import (
    PatientMatrix,
    build_patient_matrix,
    fit_lsa,
    randomized_svd,
)

from conftest import embedded, unit_rows
from oracles import (
    enumerate_best_mean_path,
    kendall_tau_b_reference,
    rv2_reference,
    tfidf_matrix_reference,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"\nACCEPTANCE {number:02d} PASS  {description}")


# ---------------------------------------------------------------------------
# Shared fixtures: one pipeline-scale corpus, one timing-scale matrix set.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery_setup():
    """500 patients, 5 planted clusters, embedded at dim 50."""
    spec = SynthSpec(n_patients=500, n_clusters=5, seed=20250809)
    corpus, assignment = generate_synthetic(spec)
    notes = {p.patient_id: unfiltered_notes(p) for p in corpus}
    docs = [fn.text for fns in notes.values() for fn in fns]
    model, _ = fit_lsa(docs, (50,))[50]
    vectors = embedded(model, notes)
    matrices = {}
    for patient in corpus:
        mat = build_patient_matrix(patient.patient_id, notes[patient.patient_id], vectors)
        if mat is not None:
            matrices[patient.patient_id] = mat
    return corpus, assignment, matrices


@pytest.fixture(scope="module")
def timing_matrices(rng_module):
    """Reference-shaped matrices: 500 patients, 30..42 notes each."""
    out = {}
    for dim in (50, 200):
        mats = {}
        for k in range(500):
            n = int(rng_module.integers(30, 43))
            pid = f"t{k:03d}"
            mats[pid] = PatientMatrix(pid, unit_rows(rng_module, n, dim),
                                      np.arange(n))
        out[dim] = mats
    return out


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(1234)


class TestAcceptance:
    def test_01_eds_matches_path_enumeration(self, rng_module):
        with criterion(1, "eds equals exhaustive path enumeration (1e-9, <30s)"):
            start = time.perf_counter()
            worst = 0.0
            for _ in range(200):
                n1 = int(rng_module.integers(1, 8))
                n2 = int(rng_module.integers(1, 8))
                c = rng_module.uniform(-1, 1, (n1, n2))
                want = enumerate_best_mean_path(c)
                got = kernels.eds_score(c)
                worst = max(worst, abs(got - want))
            elapsed = time.perf_counter() - start
            print(f"  200 matrices, worst |diff| = {worst:.2e}, {elapsed:.1f}s")
            assert worst < 1e-9
            assert elapsed < 30.0

    def test_02_tau_b_matches_pair_enumeration(self, rng_module):
        with criterion(2, "tau-b equals the O(n^2) pair oracle exactly (<10s)"):
            start = time.perf_counter()
            for _ in range(500):
                n = int(rng_module.integers(2, 51))
                spread = int(rng_module.integers(1, 15))
                x = rng_module.integers(0, spread, n)
                y = rng_module.integers(0, spread, n)
                want = kendall_tau_b_reference(list(x), list(y))
                got = kendall_tau_b(x, y)
                assert got == want
            elapsed = time.perf_counter() - start
            print(f"  500 sequences, exact equality, {elapsed:.1f}s")
            assert elapsed < 10.0

    def test_03_rv2_matches_straight_line_formula(self, rng_module):
        with criterion(3, "rv2 equals the straight-line trace formula (1e-12)"):
            worst = 0.0
            for _ in range(100):
                n1 = int(rng_module.integers(1, 21))
                n2 = int(rng_module.integers(1, 21))
                d = int(rng_module.integers(2, 17))
                a = unit_rows(rng_module, n1, d)
                b = unit_rows(rng_module, n2, d)
                want = rv2_reference(a, b)
                got = rv2(a, b)
                if want is None:
                    assert math.isnan(got)
                    continue
                worst = max(worst, abs(got - want))
            print(f"  100 pairs, worst |diff| = {worst:.2e}")
            assert worst < 1e-12

    def test_04_randomized_svd_accuracy(self, rng_module):
        with criterion(4, "randomized SVD matches dense oracle (1e-6 relative)"):
            worst_sv = 0.0
            worst_ortho = 0.0
            for trial in range(50):
                n_patients = int(rng_module.integers(8, 26))
                # planted segment titles add ~30 tokens on top of the
                # pseudo-word pool, so cap the pool to keep vocab <= 500
                spec = SynthSpec(
                    n_patients=n_patients,
                    n_clusters=int(rng_module.integers(1, min(6, n_patients) + 1)),
                    notes_per_patient=(4, 12),
                    vocab_size=int(rng_module.integers(150, 461)),
                    seed=int(rng_module.integers(0, 2**32)),
                )
                corpus, _ = generate_synthetic(spec)
                docs = [n.text for p in corpus for n in p.notes]
                from patsim.vectorizer import tokenize

                tokenized = [tokenize(d) for d in docs[:300]]
                x = tfidf_matrix_reference(tokenized)
                assert x.shape[0] <= 300 and x.shape[1] <= 500
                k = int(rng_module.integers(5, 41))
                k = min(k, min(x.shape) - 12)
                if k < 2:
                    continue
                s_dense = np.linalg.svd(x, compute_uv=False)[:k]
                [(s_rand, vt)] = randomized_svd(x, (k,))
                worst_sv = max(
                    worst_sv, float(np.max(np.abs(s_rand - s_dense) / s_dense))
                )
                gram = vt @ vt.T
                worst_ortho = max(
                    worst_ortho, float(np.max(np.abs(gram - np.eye(k))))
                )
            print(f"  50 corpora, worst sv rel err = {worst_sv:.2e}, "
                  f"worst orthonormality dev = {worst_ortho:.2e}")
            assert worst_sv < 1e-6
            assert worst_ortho < 1e-6

    def test_05_property_suite(self, rng_module):
        with criterion(5, "symmetry, bounds, self-similarity, permutation "
                          "invariance, order sensitivity, level monotonicity "
                          "(1000 instances)"):
            for _ in range(1000):
                n1 = int(rng_module.integers(1, 9))
                n2 = int(rng_module.integers(1, 9))
                d = int(rng_module.integers(2, 11))
                a = unit_rows(rng_module, n1, d)
                b = unit_rows(rng_module, n2, d)

                for method in (rv2, mms, eds):
                    ab = method(a, b)
                    ba = method(b, a)
                    assert math.isnan(ab) == math.isnan(ba)
                    if not math.isnan(ab):
                        assert abs(ab - ba) < 1e-12
                        assert -1 - 1e-9 <= ab <= 1 + 1e-9

                assert abs(mms(a, a) - 1.0) < 1e-9
                assert abs(eds(a, a) - 1.0) < 1e-9
                self_rv2 = rv2(a, a)
                if not math.isnan(self_rv2):
                    assert abs(self_rv2 - 1.0) < 1e-9

                perm_a = a[rng_module.permutation(n1)]
                rv_base, rv_perm = rv2(a, b), rv2(perm_a, b)
                assert math.isnan(rv_base) == math.isnan(rv_perm)
                if not math.isnan(rv_base):
                    assert abs(rv_base - rv_perm) < 1e-13
                assert abs(mms(a, b) - mms(perm_a, b)) < 1e-13

                trace, _ = kernels.eds_solve(a @ b.T)
                assert all(t1 >= t0 for t0, t1 in zip(trace, trace[1:]))
                assert len(trace) <= 101

            # order sensitivity witness: swapping rows changes the
            # alignment score while the matching score is unchanged
            w = np.eye(2)
            swapped = np.ascontiguousarray(w[::-1])
            assert abs(eds(w, w) - eds(swapped, w)) > 0.5
            assert abs(mms(w, w) - mms(swapped, w)) < 1e-13
            print("  1000 randomized instances checked")

    def test_06_cluster_recovery(self, recovery_setup):
        with criterion(6, "planted clusters recovered: unfiltered "
                          "precision@5 >= 0.9, filtered >= 0.8"):
            corpus, assignment, matrices = recovery_setup
            sim = compute_all_pairs(
                matrices,
                RunConfig(filter=False, vmethod="lsa050", mmethod="rv2"),
            )
            unfiltered_prec = cluster_precision_at_k(sim, assignment, k=5)
            print(f"  unfiltered rv2+lsa050 precision@5 = {unfiltered_prec:.3f}")
            assert unfiltered_prec >= 0.9

            titles = default_category_titles()
            relevancy = RelevancyMap(
                {name: frozenset(ts) for name, ts in titles.items()}
            )
            for category in ("Medication", "Treatment"):
                wanted = relevancy.for_category(category)
                filtered_map = {
                    p.patient_id: filter_segments(segment_patient(p), wanted)
                    for p in corpus
                }
                docs = [fn.text for fns in filtered_map.values() for fn in fns]
                model, _ = fit_lsa(docs, (50,))[50]
                vectors = embedded(model, filtered_map)
                fmats = {}
                for p in corpus:
                    fl = filtered_map[p.patient_id]
                    mat = build_patient_matrix(p.patient_id, fl, vectors) if fl else None
                    if mat is not None:
                        fmats[p.patient_id] = mat
                fsim = compute_all_pairs(
                    fmats,
                    RunConfig(filter=True, vmethod="lsa050", mmethod="rv2",
                              category=category),
                )
                sub_assignment = {pid: assignment[pid] for pid in fmats}
                prec = cluster_precision_at_k(fsim, sub_assignment, k=5)
                print(f"  filtered {category}: {len(fmats)} patients, "
                      f"precision@5 = {prec:.3f}")
                assert prec >= 0.8

    def test_07_grid_shape_and_report_arithmetic(self, tmp_path):
        with criterion(7, "full grid: 42 cells, tables emitted, printed "
                          "means consistent (5e-3)"):
            spec = SynthSpec(
                n_patients=50, n_clusters=4, notes_per_patient=(14, 18),
                segments_per_note=(3, 5), seed=21,
            )
            corpus, assignment = generate_synthetic(spec)
            validation = synthesize_validation(
                assignment, n_pivots=8, per_pivot=5, n_annotators=3,
                noise=1.0, seed=5,
            )
            imports = tmp_path / "imports"
            imports.mkdir()
            stub_rng = np.random.default_rng(77)
            for family in ("d2v", "rbc"):
                for dim in (50, 200):
                    with open(imports / f"{family}{dim:03d}.jsonl", "w") as fh:
                        for patient in corpus:
                            for idx in range(len(patient.notes)):
                                v = stub_rng.standard_normal(dim)
                                v /= np.linalg.norm(v)
                                fh.write(json.dumps({
                                    "patient_id": patient.patient_id,
                                    "note_index": idx,
                                    "vector": v.tolist(),
                                }) + "\n")

            report = grid_search(
                corpus, validation,
                prototypes=default_prototypes(),
                imports_dir=imports,
                options=GridOptions(seed=3, threshold=0.6),
            )
            assert len(report.cells) == 42
            statuses = {c.status for c in report.cells}
            assert statuses == {"ok"}, statuses

            paths = write_report(report, tmp_path / "report")
            assert {p.name for p in paths} >= {
                "summary.txt", "summary.csv", "top10.txt", "top10.csv",
                "agreement.txt", "agreement.csv", "cells.csv",
                "exclusions.json",
            }

            checked = 0
            for csv_text, mean_col in ((cells_csv(report), 14),
                                       (top10_csv(report), 13)):
                for line in csv_text.strip().splitlines()[1:]:
                    parts = line.split(",")
                    cats = [float(v) for v in parts[mean_col - 10:mean_col] if v]
                    if not cats or not parts[mean_col]:
                        continue
                    printed_mean = float(parts[mean_col])
                    assert abs(printed_mean - sum(cats) / len(cats)) <= 5e-3 + 1e-9
                    checked += 1
            print(f"  42 cells ok; {checked} printed means verified")

    def test_08_timing_ordering_reported(self, timing_matrices):
        with criterion(8, "timing profile (reported, not gated)"):
            # one untimed rv2 product first: a process's first tile GEMMs can
            # stall in threaded BLAS for most of a second
            compute_all_pairs(timing_matrices[50],
                              RunConfig(filter=False, vmethod="lsa050", mmethod="rv2"))
            walls = {}
            for mmethod in ("rv2", "mms", "eds"):
                sim = compute_all_pairs(
                    timing_matrices[50],
                    RunConfig(filter=False, vmethod="lsa050", mmethod=mmethod),
                )
                walls[(mmethod, 50)] = sim.wall_time_seconds
            sim200 = compute_all_pairs(
                timing_matrices[200],
                RunConfig(filter=False, vmethod="lsa200", mmethod="rv2"),
            )
            walls[("rv2", 200)] = sim200.wall_time_seconds

            r50, m50, e50 = walls[("rv2", 50)], walls[("mms", 50)], walls[("eds", 50)]
            r200 = walls[("rv2", 200)]
            ordering = r50 < m50 < e50
            blowup = r200 / r50 if r50 > 0 else float("inf")
            print(f"  dim 50: rv2 {r50:.2f}s, mms {m50:.2f}s, eds {e50:.2f}s "
                  f"(ordering rv2<mms<eds: {ordering})")
            print(f"  rv2 dim 200: {r200:.2f}s = {blowup:.1f}x dim 50 "
                  f"(expected >= 4x: {blowup >= 4.0})")

            wall8 = compute_all_pairs(
                timing_matrices[50],
                RunConfig(filter=False, vmethod="lsa050", mmethod="mms",
                          workers=8),
            ).wall_time_seconds
            # mms never reaches the eds pool: both runs are one process
            print(f"  mms at workers 1 and 8, in-process either way: {m50:.2f}s and "
                  f"{wall8:.2f}s (reported only)")
            assert all(w > 0 for w in walls.values())

    def test_09_determinism(self, recovery_setup, tmp_path):
        with criterion(9, "bitwise determinism: workers {1,4,8} and "
                          "repeated pipeline runs"):
            _, _, matrices = recovery_setup
            reference = None
            for workers in (1, 4, 8):
                sim = compute_all_pairs(
                    matrices,
                    RunConfig(filter=False, vmethod="lsa050", mmethod="mms",
                              workers=workers),
                )
                blob = sim.scores.tobytes()
                if reference is None:
                    reference = blob
                else:
                    assert blob == reference
            print("  mms at worker counts 1/4/8: identical score bytes")

            # eds is the measure the pool runs; 65 patients give 2,080 pairs,
            # enough to engage it
            subset = {pid: matrices[pid] for pid in sorted(matrices)[:65]}
            reference = None
            for workers in (1, 4, 8):
                sim = compute_all_pairs(
                    subset,
                    RunConfig(filter=False, vmethod="lsa050", mmethod="eds",
                              workers=workers),
                )
                assert sim.n * (sim.n - 1) // 2 >= 2048
                blob = sim.scores.tobytes() + sim.defined.tobytes()
                if reference is None:
                    reference = blob
                else:
                    assert blob == reference
            print("  eds at worker counts 1/4/8 (pooled above 1): identical score bytes")

            outputs = []
            for run in ("run1", "run2"):
                root = tmp_path / run
                root.mkdir()
                cmds = [
                    ["synth", "--patients", "40", "--clusters", "4",
                     "--seed", "11", "--out", str(root / "c.jsonl")],
                    ["segment", "--corpus", str(root / "c.jsonl"),
                     "--out", str(root / "segments.jsonl")],
                    ["vectorize", "--corpus", str(root / "c.jsonl"),
                     "--category", "all", "--vmethod", "lsa020",
                     "--out", str(root / "m.bin")],
                    ["pairs", "--matrices", str(root / "m.bin"),
                     "--mmethod", "rv2", "--out", str(root / "s.bin")],
                ]
                for cmd in cmds:
                    proc = subprocess.run(
                        [sys.executable, "-m", "patsim.cli", *cmd],
                        capture_output=True, text=True,
                    )
                    assert proc.returncode == 0, proc.stderr
                sim = load_similarity(root / "s.bin")
                outputs.append({
                    "corpus": (root / "c.jsonl").read_bytes(),
                    "segments": (root / "segments.jsonl").read_bytes(),
                    "matrices": (root / "m.bin").read_bytes(),
                    "scores": sim.scores.tobytes(),
                    "defined": sim.defined.tobytes(),
                    "ids": tuple(sim.patient_ids),
                    "config": sim.config,
                })
            first, second = outputs
            for key in first:
                assert first[key] == second[key], f"pipeline stage differs: {key}"
            print("  repeated pipeline runs: byte-identical artifacts "
                  "(timing field aside)")

    def test_10_end_to_end_smoke(self, tmp_path):
        with criterion(10, "CLI synth>segment>vectorize>pairs>evaluate, "
                           "100 patients, exit 0, <60s"):
            root = tmp_path
            start = time.perf_counter()
            steps = [
                ["synth", "--patients", "100", "--clusters", "5", "--seed", "13",
                 "--out", str(root / "c.jsonl"),
                 "--assignment-out", str(root / "a.csv")],
                ["segment", "--corpus", str(root / "c.jsonl"),
                 "--out", str(root / "seg.jsonl")],
                ["vectorize", "--corpus", str(root / "c.jsonl"),
                 "--category", "all", "--vmethod", "lsa050",
                 "--out", str(root / "m.bin")],
                ["pairs", "--matrices", str(root / "m.bin"),
                 "--mmethod", "rv2", "--workers", "4",
                 "--out", str(root / "s.bin")],
            ]
            for cmd in steps:
                proc = subprocess.run(
                    [sys.executable, "-m", "patsim.cli", *cmd],
                    capture_output=True, text=True,
                )
                assert proc.returncode == 0, f"{cmd[0]}: {proc.stderr}"

            from patsim.synth import load_assignment_csv

            assignment = load_assignment_csv(root / "a.csv")
            validation = synthesize_validation(
                assignment, n_pivots=10, per_pivot=5, seed=13
            )
            save_annotations(validation, root / "ann.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "patsim.cli", "evaluate",
                 "--sim", str(root / "s.bin"),
                 "--annotations", str(root / "ann.csv"),
                 "--category", "all"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            elapsed = time.perf_counter() - start
            print(f"  five stages in {elapsed:.1f}s")
            assert elapsed < 60.0
            assert "mean" in proc.stdout
