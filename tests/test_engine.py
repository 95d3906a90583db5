from __future__ import annotations

import csv
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from patsim import engine, evaluation, kernels, synth
from patsim.engine import (
    RunConfig,
    SimilarityMatrix,
    combine_similarities,
    compute_all_pairs,
    compute_legs,
    export_csv,
    load_similarity,
    parse_vmethod,
    persist_similarity,
    timing_report,
    vmethod_label,
)
from patsim.exceptions import ConfigError, DimMismatch, FormatError, TooFewPatients
from patsim.vectorizer import PatientMatrix

from conftest import dense_similarity, unit_rows
from oracles import evaluate_reference, mms_reference, precision_at_k_reference, rv2_reference


def make_matrices(rng, count, d=4, n_lo=2, n_hi=6):
    mats = {}
    for k in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        pid = f"p{k:03d}"
        mats[pid] = PatientMatrix(pid, unit_rows(rng, n, d), np.arange(n))
    return mats


def config(mmethod="mms", **kw):
    defaults = dict(filter=False, vmethod="lsa050", mmethod=mmethod)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestComputeAllPairs:
    def test_three_patients_three_pairs_plus_diagonal(self, rng):
        mats = make_matrices(rng, 3)
        sim = compute_all_pairs(mats, config("mms"))
        assert sim.n == 3
        iu, ju = np.triu_indices(3, k=1)
        assert np.all(sim.defined)
        np.testing.assert_allclose(np.diag(sim.scores), 1.0)
        assert len(sim.scores[iu, ju]) == 3

    def test_identical_patients_equal_offdiagonal(self, rng):
        rows = unit_rows(rng, 4, 5)
        mats = {
            f"p{k}": PatientMatrix(f"p{k}", rows.copy(), np.arange(4))
            for k in range(4)
        }
        sim = compute_all_pairs(mats, config("mms"))
        iu, ju = np.triu_indices(4, k=1)
        off = sim.scores[iu, ju]
        assert np.all(off == off[0])

    def test_scores_match_scalar_references(self, rng):
        mats = make_matrices(rng, 5)
        ids = sorted(mats)
        sim_m = compute_all_pairs(mats, config("mms"))
        sim_r = compute_all_pairs(mats, config("rv2"))
        for i in range(5):
            for j in range(i + 1, 5):
                a, b = mats[ids[i]].rows, mats[ids[j]].rows
                assert sim_m.scores[i, j] == pytest.approx(
                    mms_reference(a, b), abs=1e-12
                )
                want = rv2_reference(a, b)
                if want is None:
                    assert not sim_r.defined[i, j]
                else:
                    assert sim_r.scores[i, j] == pytest.approx(want, abs=1e-12)

    def test_symmetry_is_exact(self, rng):
        mats = make_matrices(rng, 6)
        for mmethod in ("rv2", "mms", "eds"):
            sim = compute_all_pairs(mats, config(mmethod))
            assert np.array_equal(sim.scores, sim.scores.T, equal_nan=True)
            assert np.array_equal(sim.defined, sim.defined.T)

    def test_too_few_patients(self, rng):
        mats = make_matrices(rng, 1)
        with pytest.raises(TooFewPatients):
            compute_all_pairs(mats, config())

    def test_dim_mismatch(self, rng):
        mats = make_matrices(rng, 2, d=4)
        mats["odd"] = PatientMatrix("odd", unit_rows(rng, 3, 5), np.arange(3))
        with pytest.raises(DimMismatch):
            compute_all_pairs(mats, config())

    def test_degenerate_rv2_patient_undefined_everywhere(self, rng):
        mats = make_matrices(rng, 3, d=3)
        # orthonormal rows spanning the axes: zero off-diagonal cross-product
        mats["degen"] = PatientMatrix("degen", np.eye(3), np.arange(3))
        sim = compute_all_pairs(mats, config("rv2"))
        k = sim.patient_ids.index("degen")
        assert not sim.defined[k].any()
        assert np.isnan(sim.scores[k]).all()
        others = [i for i in range(sim.n) if i != k]
        assert sim.defined[np.ix_(others, others)].all()

    @pytest.mark.parametrize("mmethod", engine.MMETHODS)
    def test_a_nan_score_is_an_undefined_pair(self, rng, mmethod):
        # rows with a NaN, built by hand (every loader rejects them), score
        # NaN, and a NaN score is an undefined pair to every reader
        mats = make_matrices(rng, 3)
        rows = mats["p001"].rows.copy()
        rows[0, 0] = np.nan
        mats["p001"] = PatientMatrix("p001", rows, mats["p001"].note_indices)
        sim = compute_all_pairs(mats, config(mmethod))
        assert not sim.get("p000", "p001")[1] and not sim.get("p001", "p002")[1]
        assert sim.get("p000", "p002")[1] and np.isnan(sim.get("p000", "p001")[0])
        assert sim.defined.tolist() == (~np.isnan(sim.scores)).tolist()

    def test_worker_count_does_not_change_scores(self, rng):
        # enough pairs to engage the pool for eds; mms runs in one call
        mats = make_matrices(rng, 70, d=3, n_lo=1, n_hi=3)
        for mmethod in ("mms", "eds"):
            base = compute_all_pairs(mats, config(mmethod, workers=1))
            for workers in (2, 4):
                sim = compute_all_pairs(mats, config(mmethod, workers=workers))
                assert sim.scores.tobytes() == base.scores.tobytes()
                assert np.array_equal(sim.defined, base.defined)

    @pytest.mark.parametrize("cpus, workers, processes", [
        (2, 1000, 2), (8, 3, 3), (1, 4, 1),
    ])
    def test_pool_never_outnumbers_usable_cpus(self, rng, monkeypatch, cpus, workers,
                                               processes):
        mats = make_matrices(rng, 70, d=3, n_lo=1, n_hi=3)
        started = []

        class FakePool:  # runs every chunk in this process and starts none
            def __init__(self, processes, initializer, initargs):
                started.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                engine._WORKER_STATE.clear()

            def map(self, fn, items):
                return [fn(item) for item in items]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda *a: FakeContext)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        base = compute_all_pairs(mats, config("eds"))
        sim = compute_all_pairs(mats, config("eds", workers=workers))
        assert started == ([processes] if processes > 1 else [])  # one scores with no pool
        assert sim.config.workers == workers  # the requested count is still recorded
        assert sim.scores.tobytes() == base.scores.tobytes()
        assert np.array_equal(sim.defined, base.defined)

    def test_only_eds_runs_in_the_pool(self, rng, monkeypatch):
        mats = make_matrices(rng, 70, d=3, n_lo=1, n_hi=3)
        pools = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *a: pools.append(a) or get_context(*a))
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for mmethod in ("rv2", "mms", "eds"):
            base = compute_all_pairs(mats, config(mmethod, workers=1))
            sim = compute_all_pairs(mats, config(mmethod, workers=3))
            assert sim.scores.tobytes() == base.scores.tobytes()
            assert np.array_equal(sim.defined, base.defined)
        assert pools == [("fork",)]

    def test_patients_ordered_by_sorted_id(self, rng):
        mats = make_matrices(rng, 4)
        sim = compute_all_pairs(mats, config())
        assert sim.patient_ids == sorted(mats)


class TestComputePairs:
    """A one-leg request scores only its pairs, each bitwise as in the full triangle."""

    @pytest.mark.parametrize("mmethod", engine.MMETHODS)
    def test_requested_pairs_bitwise_equal_to_all_pairs(self, rng, mmethod):
        mats = make_matrices(rng, 70, d=6)  # two kernel tiles
        ids = sorted(mats)
        request = [(ids[3], ids[65]), (ids[65], ids[3]), (ids[11], ids[10]),
                   (ids[69], ids[0]), (ids[5], "ghost"), (ids[7], ids[7])]
        wanted = {(3, 65), (10, 11), (0, 69)}
        sizes = []
        score = getattr(kernels, f"{mmethod}_batch")

        def batch(*args):
            sizes.append(args[-2].size)
            return score(*args)

        full = compute_all_pairs(mats, config(mmethod))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, f"{mmethod}_batch", batch)
            part = compute_legs([(mats, config(mmethod))], request)[0]
        assert sizes == [len(wanted)]
        assert part.patient_ids == full.patient_ids
        assert np.array_equal(part.defined.diagonal(), full.defined.diagonal())
        iu, ju = np.triu_indices(70, k=1)
        asked = np.array([(i, j) in wanted for i, j in zip(iu, ju)])
        for a, b in ((iu, ju), (ju, iu)):
            assert part.scores[a[asked], b[asked]].tobytes() == \
                full.scores[a[asked], b[asked]].tobytes()
            assert np.array_equal(part.defined[a[asked], b[asked]],
                                  full.defined[a[asked], b[asked]])
            assert not part.defined[a[~asked], b[~asked]].any()
            assert np.isnan(part.scores[a[~asked], b[~asked]]).all()

    def test_no_pair_of_the_matrices_requested(self, rng):
        mats = make_matrices(rng, 4)
        sim = compute_legs([(mats, config("eds"))], [("p000", "ghost")])[0]
        assert np.array_equal(sim.defined, np.eye(4, dtype=bool))

    def test_all_pairs_is_no_request(self, rng):
        mats = make_matrices(rng, 9)
        full = compute_all_pairs(mats, config("eds"))
        again = compute_legs([(mats, config("eds"))])[0]
        assert full.scores.tobytes() == again.scores.tobytes()
        assert np.array_equal(full.defined, again.defined)


class TestComputeLegs:
    """Several legs in one call: each eds dim (and worker count) is one
    eds_batch call over one pack, each rv2 and mms leg a pack of its own,
    and every result is bitwise the one its leg alone gets."""

    @staticmethod
    def legs(rng, workers=1):
        # legs over overlapping patient sets; one patient is in no leg
        mats = [make_matrices(rng, 70, d=d) for d in (6, 6, 4)]
        del mats[0]["p001"], mats[1]["p002"]
        return [(m, config(mmethod, workers=workers, vmethod=f"lsa{d:03d}"))
                for m, d in zip(mats, (6, 6, 4)) for mmethod in engine.MMETHODS]

    @staticmethod
    def spy(mp, name):
        sizes = []
        score = getattr(kernels, name)
        mp.setattr(kernels, name, lambda *args: sizes.append(args[-1].size) or score(*args))
        return sizes

    @pytest.mark.parametrize("request_pairs", [False, True])
    def test_bitwise_per_leg_with_one_eds_batch_per_dim(self, rng, request_pairs):
        legs = self.legs(rng)
        ids = sorted(legs[0][0])
        pairs = [(ids[3], ids[65]), (ids[1], ids[2]), (ids[11], ids[10]),
                 (ids[2], ids[40]), (ids[5], "ghost"), (ids[7], ids[7])] \
            if request_pairs else None
        with pytest.MonkeyPatch.context() as mp:
            calls = {name: self.spy(mp, name)
                     for name in ("eds_batch", "mms_batch", "rv2_batch")}
            sims = compute_legs(legs, pairs)
        alone = [compute_legs([(m, c)], pairs)[0] for m, c in legs]
        # dims 6 and 4 for eds; one call per leg for rv2 and mms
        assert len(calls["eds_batch"]) == 2
        assert len(calls["mms_batch"]) == len(calls["rv2_batch"]) == 3
        assert sum(calls["eds_batch"]) == sum(
            int(np.triu(a.defined, 1).sum()) for a, (_, c) in zip(alone, legs)
            if c.mmethod == "eds")
        for sim, one, (_, c) in zip(sims, alone, legs, strict=True):
            assert sim.config == c and sim.patient_ids == one.patient_ids
            assert np.array_equal(sim.defined, one.defined)
            assert sim.scores.tobytes() == one.scores.tobytes()

    def test_pool_over_legs_matches_one_process(self, rng, monkeypatch):
        # one pool for the two dim-6 eds legs (2,346 pairs each), one for the
        # dim-4 leg (2,415)
        pools = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda *a: pools.append(a) or get_context(*a))
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pooled = compute_legs(self.legs(np.random.default_rng(0), workers=2), None)
        assert pools == [("fork",)] * 2
        for sim, one in zip(pooled, compute_legs(self.legs(np.random.default_rng(0)), None),
                            strict=True):
            assert sim.scores.tobytes() == one.scores.tobytes()
            assert np.array_equal(sim.defined, one.defined)

    def test_grouped_legs_split_their_wall_time_by_pairs(self, rng):
        # two dim-6 eds legs share one call: 69 and 70 patients
        mats = [make_matrices(rng, 70, d=6) for _ in range(2)]
        del mats[0]["p001"]
        sims = compute_legs([(m, config("eds")) for m in mats], None)
        pairs = [69 * 68 // 2, 70 * 69 // 2]
        assert sims[0].wall_time_seconds > 0
        assert sims[0].wall_time_seconds * pairs[1] == pytest.approx(
            sims[1].wall_time_seconds * pairs[0], rel=1e-12)

    def test_no_legs(self):
        assert compute_legs([], None) == []

    def test_a_leg_of_one_patient_is_rejected(self, rng):
        legs = self.legs(rng)
        with pytest.raises(TooFewPatients):
            compute_legs(legs + [(make_matrices(rng, 1), config("eds"))], None)


class TestCombine:
    def sim_of(self, ids, scores, defined, mmethod="mms"):
        return dense_similarity(ids, scores, defined, config(mmethod))

    def test_mean_over_defined_members(self):
        ids = ["a", "b"]
        s1 = self.sim_of(ids, [[1, 0.2], [0.2, 1]], [[1, 1], [1, 1]])
        s2 = self.sim_of(ids, [[1, 0.6], [0.6, 1]], [[1, 1], [1, 1]])
        s3 = self.sim_of(ids, [[1, np.nan], [np.nan, 1]], [[1, 0], [0, 1]])
        out = combine_similarities([s1, s2, s3], config(vmethod="combined"))
        assert out.scores[0, 1] == pytest.approx((0.2 + 0.6) / 2, abs=1e-12)

    def test_union_of_patient_sets(self):
        s1 = self.sim_of(["a", "b"], [[1, 0.5], [0.5, 1]], [[1, 1], [1, 1]])
        s2 = self.sim_of(["b", "c"], [[1, 0.3], [0.3, 1]], [[1, 1], [1, 1]])
        out = combine_similarities([s1, s2], config(vmethod="combined"))
        assert out.patient_ids == ["a", "b", "c"]
        assert out.scores[0, 1] == pytest.approx(0.5)
        assert out.scores[1, 2] == pytest.approx(0.3)
        assert not out.defined[0, 2]

    def test_member_keeps_exact_scores_on_a_wider_union(self, rng):
        # the second member shares one patient with the first and defines
        # nothing, so "unscored" is undefined in every member
        mats = make_matrices(rng, 4)
        sim = compute_all_pairs(mats, config())
        empty = self.sim_of([sim.patient_ids[1], "unscored"], np.full((2, 2), np.nan),
                            np.zeros((2, 2)))
        out = combine_similarities([sim, empty], config(vmethod="combined"))
        assert out.patient_ids == sim.patient_ids + ["unscored"]
        k = out.patient_ids.index("unscored")
        assert not out.defined[k].any() and not out.defined[:, k].any()
        assert np.isnan(out.scores[k]).all()
        assert out.scores[:k, :k].tobytes() == sim.scores.tobytes()
        assert np.array_equal(out.defined[:k, :k], sim.defined)


def _dense_reference(mats, config, ii, jj):
    """The symmetric n x n scores and defined bits of the pairs (ii, jj),
    i < j, scored in one call: each pair at (i, j) and (j, i), the diagonal
    1 (or NaN where a patient is invalid), every other pair NaN."""
    ids = sorted(mats)
    n = len(ids)
    payload = kernels.pack(config.mmethod, [mats[pid].rows for pid in ids])
    got, valid = kernels.score_pairs(payload, ii, jj)
    scores = np.full((n, n), np.nan)
    defined = np.zeros((n, n), dtype=bool)
    scores[ii, jj] = scores[jj, ii] = got
    defined[ii, jj] = defined[jj, ii] = valid[ii] & valid[jj]
    np.fill_diagonal(scores, np.where(valid, 1.0, np.nan))
    np.fill_diagonal(defined, valid)
    return scores, defined


class TestPairStore:
    """A result keeps its triangle (or its requested pairs) and builds the
    n x n views only when asked for them; every reader sees the same bits
    as from dense arrays."""

    @staticmethod
    def cases(rng):
        # two kernel tiles, an rv2-degenerate patient, and a validation
        # whose pairs are the request
        mats = make_matrices(rng, 70, d=6, n_lo=1, n_hi=5)
        mats["p004"] = PatientMatrix("p004", np.eye(6)[:3], np.arange(3))
        ids = sorted(mats)
        validation = synth.synthesize_validation(
            {pid: k % 4 for k, pid in enumerate(ids)}, n_pivots=8, per_pivot=6,
            n_annotators=3, noise=1.0, seed=3)
        return mats, validation

    @pytest.mark.parametrize("mmethod", engine.MMETHODS)
    @pytest.mark.parametrize("requested", [False, True])
    def test_views_and_readers_match_dense_arrays(self, rng, mmethod, requested):
        mats, validation = self.cases(rng)
        ids = sorted(mats)
        cfg = config(mmethod)
        request = validation.pairs() if requested else None
        sim = compute_legs([(mats, cfg)], request)[0]
        if requested:
            index = {pid: k for k, pid in enumerate(ids)}
            ii, jj = np.array(sorted({tuple(sorted((index[a], index[b])))
                                      for a, b in request})).T
            assert sim.pairs is not None and sim.pair_scores.size == ii.size
        else:
            ii, jj = np.triu_indices(len(ids), k=1)
            assert sim.pairs is None and sim.pair_scores.size == ii.size
        scores, defined = _dense_reference(mats, cfg, ii, jj)
        assert sim.scores.tobytes() == scores.tobytes()
        assert sim.defined.tobytes() == defined.tobytes()
        for i, j in [(0, 1), (1, 0), (4, 4), (4, 9), (5, 5), *zip(ii[:20], jj[:20])]:
            got, ok = sim.get(ids[i], ids[j])
            assert np.array([got]).tobytes() == scores[i, j].tobytes() and ok == defined[i, j]
        dense = dense_similarity(ids, scores, defined, cfg)
        assignment = {pid: k % 4 for k, pid in enumerate(ids)}
        want = precision_at_k_reference(ids, scores, defined, assignment, 5)
        for reader in (sim, dense):
            assert evaluation.cluster_precision_at_k(reader, assignment, 5) == want
            for name in ("Medication", "Medical history"):
                got = evaluation.evaluate_config(reader, validation, name)
                per_pivot, skipped, excluded, mean = evaluate_reference(sim, validation, name)
                assert (got.per_pivot, got.skipped_pivots, got.excluded_pairs, got.mean) \
                    == (per_pivot, skipped, excluded, mean)

    @pytest.mark.parametrize("requested", [False, True])
    @pytest.mark.parametrize("i, j", [([0], [3]), ([-1], [0]), ([0, 1], [2, 5])])
    def test_lookup_rejects_an_index_outside_the_patients(self, rng, requested, i, j):
        mats = make_matrices(rng, 3)
        sim = compute_legs([(mats, config("mms"))], [("p000", "p002")] if requested else None)[0]
        with pytest.raises(IndexError):
            sim.lookup(i, j)

    @pytest.mark.parametrize("requested", [False, True])
    def test_lookup_of_no_pairs_is_empty(self, rng, requested):
        mats = make_matrices(rng, 3)
        sim = compute_legs([(mats, config("mms"))], [("p000", "p002")] if requested else None)[0]
        assert sim.lookup([], []).shape == (0,)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 300])
    def test_triangle_lists_the_upper_triangle_in_int16(self, n):
        ii, jj = engine._triangle(n)
        want = np.triu_indices(n, k=1)
        assert ii.dtype == jj.dtype == np.int16
        assert np.array_equal(ii, want[0]) and np.array_equal(jj, want[1])

    def test_views_are_built_on_each_access(self, rng):
        sim = compute_all_pairs(make_matrices(rng, 5), config())
        assert sim.scores is not sim.scores
        assert not np.shares_memory(sim.scores, sim.pair_scores)
        assert "scores" not in vars(sim) and "defined" not in vars(sim)

    @pytest.mark.parametrize("mmethod, n, rows", [
        ("rv2", 500, (2, 4)), ("mms", 500, (2, 4)), ("eds", 300, (1, 1)),
    ])
    def test_all_pairs_peak_below_one_dense_array(self, rng, monkeypatch, mmethod, n, rows):
        # the store is 9 B a pair and the int16 pair list 4 B a pair, so
        # 6.5 n^2 B in all, where one n x n float64 array takes 8 n^2 B; eds
        # pays only for what grows with n under a small fixed block budget
        monkeypatch.setattr(kernels, "_CELL_BUDGET", 1 << 8)
        mats = make_matrices(rng, n, d=4, n_lo=rows[0], n_hi=rows[1])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim = compute_all_pairs(mats, config(mmethod))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sim.pair_scores.size == n * (n - 1) // 2 and not np.isnan(sim.pair_scores).any()
        assert peak < n * n * 8, f"{mmethod} all-pairs peaked {peak / 1e3:.0f} kB"

    def test_request_memory_follows_its_pairs(self, rng):
        # 40 pairs over 2,000 patients; one n x n float64 array is 32 MB
        mats = make_matrices(rng, 2000, d=4, n_lo=2, n_hi=4)
        ids = sorted(mats)
        picks = rng.choice(2000, size=(40, 2), replace=False)
        request = [(ids[a], ids[b]) for a, b in picks]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sim = compute_legs([(mats, config("mms"))], request)[0]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sim.pair_scores.size == 40 and not np.isnan(sim.pair_scores).any()
        assert peak < 2e6, f"a 40-pair request peaked {peak / 1e6:.1f} MB"


class TestPersistence:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        mats = make_matrices(rng, 6)
        sim = compute_all_pairs(mats, config("rv2", workers=1, seed=5))
        path = tmp_path / "sim.bin"
        persist_similarity(sim, path)
        again = load_similarity(path)
        assert again.patient_ids == sim.patient_ids
        assert again.scores.tobytes() == sim.scores.tobytes()
        assert np.array_equal(again.defined, sim.defined)
        assert again.config == sim.config
        assert again.wall_time_seconds == sim.wall_time_seconds

    def test_request_result_round_trips_as_its_triangle(self, rng, tmp_path):
        # a request holds only its pairs; the file and the CSV list the
        # whole triangle, every pair it does not hold undefined
        mats = make_matrices(rng, 5)
        ids = sorted(mats)
        sim = compute_legs([(mats, config("mms"))], [(ids[3], ids[1]), (ids[0], ids[4])])[0]
        assert sim.pairs is not None
        persist_similarity(sim, tmp_path / "sim.bin")
        again = load_similarity(tmp_path / "sim.bin")
        assert again.pairs is None
        assert again.scores.tobytes() == sim.scores.tobytes()
        # (0, 4) and (1, 3) sit 4th and 6th in the triangle's row order
        assert np.flatnonzero(~np.isnan(again.triangle())).tolist() == [3, 5]
        export_csv(sim, tmp_path / "sim.csv")
        with open(tmp_path / "sim.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 10
        assert [r[:2] for r in rows if r[3] == "true"] == [[ids[0], ids[4]], [ids[1], ids[3]]]

    def test_load_then_persist_identical_bytes(self, rng, tmp_path):
        mats = make_matrices(rng, 5)
        sim = compute_all_pairs(mats, config("eds"))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        persist_similarity(sim, p1)
        persist_similarity(load_similarity(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, rng, tmp_path):
        mats = make_matrices(rng, 5)
        path = tmp_path / "sim.bin"
        persist_similarity(compute_all_pairs(mats, config()), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_similarity(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "sim.bin"
        path.write_bytes(b"nonsense")
        with pytest.raises(FormatError):
            load_similarity(path)

    def test_csv_export(self, rng, tmp_path):
        mats = make_matrices(rng, 3)
        sim = compute_all_pairs(mats, config())
        path = tmp_path / "sim.csv"
        export_csv(sim, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id_a,id_b,score,defined"
        assert len(lines) == 1 + 3

    @pytest.mark.parametrize("prefix", ["a,b", 'q"'])
    def test_csv_export_quotes_ids(self, rng, tmp_path, prefix):
        mats = {prefix + pid: PatientMatrix(prefix + pid, m.rows, m.note_indices)
                for pid, m in make_matrices(rng, 3).items()}
        sim = compute_all_pairs(mats, config())
        export_csv(sim, tmp_path / "sim.csv")
        with open(tmp_path / "sim.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ids = sim.patient_ids
        assert [row[:2] for row in rows] == [[ids[0], ids[1]], [ids[0], ids[2]],
                                             [ids[1], ids[2]]]
        assert all(len(row) == 4 for row in rows)

    def test_csv_export_bytes(self, tmp_path):
        scores = np.array([[1.0, 1 / 3, -0.0], [1 / 3, 1.0, np.nan],
                           [-0.0, np.nan, 1.0]])
        sim = dense_similarity(["a", 'b"c', "d,e"], scores, ~np.isnan(scores), config())
        export_csv(sim, tmp_path / "sim.csv")
        assert (tmp_path / "sim.csv").read_bytes() == (
            b'id_a,id_b,score,defined\n'
            b'a,"b""c",0.33333333333333331,true\n'
            b'a,"d,e",-0,true\n'
            b'"b""c","d,e",,false\n')


    def test_csv_rows_match_line_by_line_formatting(self, rng, tmp_path):
        # a fully defined row is one %-format of its template: the same
        # bytes as f"{x:.17g}" per line, with "%" in an id kept literal
        ids = ["a%s", "b%%", "c%d,1", "d", "e"]
        scores = np.zeros((5, 5))
        iu, ju = np.triu_indices(5, k=1)
        values = np.concatenate([rng.standard_normal(6) * 10.0 ** rng.integers(-300, 300, 6),
                                 [-0.0, 5e-324, 1 / 3, np.inf]])
        scores[iu, ju] = scores[ju, iu] = values
        defined = np.ones((5, 5), dtype=bool)
        defined[3, 4] = defined[4, 3] = False
        scores[3, 4] = scores[4, 3] = np.nan
        export_csv(dense_similarity(ids, scores, defined, config()), tmp_path / "sim.csv")
        quoted = [f'"{pid}"' if "," in pid else pid for pid in ids]
        want = "id_a,id_b,score,defined\n" + "".join(
            f"{quoted[i]},{quoted[j]},{scores[i, j]:.17g},true\n" if defined[i, j]
            else f"{quoted[i]},{quoted[j]},,false\n" for i, j in zip(iu, ju))
        assert (tmp_path / "sim.csv").read_text() == want


class TestTimingReport:
    def test_table_shape(self, rng):
        mats = make_matrices(rng, 4)
        runs = [
            compute_all_pairs(mats, config(m, vmethod="lsa050"))
            for m in ("rv2", "mms", "eds")
        ]
        table = timing_report(runs)
        text = table.render()
        assert "rv2" in text and "mms" in text and "eds" in text
        assert "50" in text
        csv_text = table.to_csv()
        assert csv_text.startswith("mmethod,dim,wall_time_seconds")
        assert len(csv_text.strip().splitlines()) == 4


class TestRunConfig:
    def test_grid_dim_parsing(self):
        assert config(vmethod="lsa200").dim == 200
        assert config(vmethod="combined").dim is None

    def test_leg_label_rule(self):
        assert parse_vmethod("d2v050") == ("d2v", 50)
        assert parse_vmethod(vmethod_label("rbc", 7)) == ("rbc", 7)
        assert parse_vmethod("combined") == ("combined", None)
        for bad in ("lsa50", "lsa0050", "lsa000", "xyz050", "combined050"):
            with pytest.raises(ConfigError):
                parse_vmethod(bad)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(filter=False, vmethod="bogus", mmethod="rv2")
        with pytest.raises(ValueError):
            RunConfig(filter=False, vmethod="lsa050", mmethod="nope")
        with pytest.raises(ValueError):
            RunConfig(filter=False, vmethod="lsa050", mmethod="rv2", workers=0)
        with pytest.raises(ValueError, match="unknown similarity category 'Nonsense'"):
            RunConfig(filter=True, vmethod="lsa050", mmethod="rv2", category="Nonsense")

    @pytest.mark.parametrize("category", ["Medication", "medication", " MEDICATION ", "5"])
    def test_category_held_by_its_name(self, category):
        cfg = RunConfig(filter=True, vmethod="lsa050", mmethod="rv2", category=category)
        assert cfg.category == "Medication"
