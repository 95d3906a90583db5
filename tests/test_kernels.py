from __future__ import annotations

import numpy as np
import pytest

from patsim import kernels

from conftest import unit_rows
from oracles import eds_loop_reference, enumerate_best_mean_path, mms_reference


class TestEdsScore:
    def test_matches_enumeration_on_random_shapes(self, rng):
        for _ in range(120):
            n1 = int(rng.integers(1, 8))
            n2 = int(rng.integers(1, 8))
            c = rng.uniform(-1, 1, (n1, n2))
            want = enumerate_best_mean_path(c)
            got = kernels.eds_score(c)
            assert abs(got - want) < 1e-9

    def test_single_cell(self, rng):
        c = np.array([[0.37]])
        assert kernels.eds_score(c) == pytest.approx(0.37, abs=1e-12)

    def test_identity_cross_matrix_scores_one(self):
        assert kernels.eds_score(np.eye(5)) == pytest.approx(1.0, abs=1e-12)

    def test_single_row_is_mean_of_row(self, rng):
        c = rng.uniform(-1, 1, (1, 6))
        assert kernels.eds_score(c) == pytest.approx(float(c.mean()), abs=1e-12)

    def test_level_trace_nondecreasing(self, rng):
        for _ in range(60):
            c = rng.uniform(-1, 1, (int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            _, trace = kernels.eds_trace(c)
            assert all(b >= a for a, b in zip(trace, trace[1:]))
            assert len(trace) <= 101

    def test_iteration_cap(self, rng):
        for _ in range(60):
            c = rng.uniform(-1, 1, (int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            _, iters = kernels.eds_score_with_iters(c)
            assert iters <= 100


class TestEdsPath:
    def test_path_is_monotone_and_corner_to_corner(self, rng):
        for _ in range(40):
            n1 = int(rng.integers(1, 9))
            n2 = int(rng.integers(1, 9))
            c = rng.uniform(-1, 1, (n1, n2))
            score, path = kernels.eds_best_path(c)
            assert path[0] == (0, 0)
            assert path[-1] == (n1 - 1, n2 - 1)
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}
            mean = sum(c[i, j] for i, j in path) / len(path)
            assert mean == pytest.approx(score, abs=1e-9)

    def test_path_at_the_iteration_cap_scores_the_returned_level(self, rng, monkeypatch):
        # one level update, then the cap: no step has run at the final level
        monkeypatch.setattr(kernels, "_MAX_DINKELBACH_ITERS", 1)
        for _ in range(20):
            c = rng.uniform(-1, 1, (int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            score, path = kernels.eds_best_path(c)
            assert score == kernels.eds_score(c)
            assert sum(c[i, j] for i, j in path) / len(path) == score


class TestLaneAgreement:
    """The vectorized kernels against the plain-loop references."""

    def test_eds_lanes(self, rng):
        # past the ~7x7 that path enumeration can reach
        for _ in range(80):
            c = rng.uniform(-1, 1, (int(rng.integers(1, 13)), int(rng.integers(1, 13))))
            got, iters = kernels.eds_score_with_iters(c)
            want, want_iters = eds_loop_reference(c)
            assert abs(got - want) < 1e-12
            assert iters == want_iters

    def test_batch_lanes(self, rng):
        mats = [unit_rows(rng, int(rng.integers(1, 7)), 5) for _ in range(8)]
        offsets = np.zeros(9, dtype=np.int64)
        np.cumsum([m.shape[0] for m in mats], out=offsets[1:])
        rows = np.ascontiguousarray(np.vstack(mats))
        ii, jj = np.triu_indices(8, k=1)
        ii = ii.astype(np.int64)
        jj = jj.astype(np.int64)

        got_mms = kernels.mms_batch(rows, offsets, ii, jj)
        got_eds = kernels.eds_batch(rows, offsets, ii, jj)
        for p in range(ii.size):
            a, b = mats[ii[p]], mats[jj[p]]
            assert got_mms[p] == pytest.approx(mms_reference(a, b), abs=1e-12)
            assert got_eds[p] == pytest.approx(kernels.eds_score(a @ b.T), abs=1e-12)


class TestRv2Gram:
    def test_single_column_is_degenerate(self):
        rows = np.ones((3, 1))
        assert kernels.rv2_gram(rows) is None

    def test_orthonormal_rows_spanning_axes_degenerate(self):
        # identity rows: cross-products vanish off the diagonal
        assert kernels.rv2_gram(np.eye(3)) is None

    def test_unit_frobenius_norm(self, rng):
        g = kernels.rv2_gram(unit_rows(rng, 5, 4))
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_batch_matches_scalar(self, rng):
        grams = np.ascontiguousarray(
            np.vstack([kernels.rv2_gram(unit_rows(rng, 4, 3)) for _ in range(6)])
        )
        ii, jj = np.triu_indices(6, k=1)
        got = kernels.rv2_batch(grams, ii.astype(np.int64), jj.astype(np.int64))
        for p in range(ii.size):
            assert got[p] == pytest.approx(
                float(np.dot(grams[ii[p]], grams[jj[p]])), abs=1e-13
            )
