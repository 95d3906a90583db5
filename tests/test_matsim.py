from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from patsim import kernels
from patsim.engine import RunConfig, compute_all_pairs

from patsim.exceptions import ConfigError, DegenerateInput, DimMismatch
from patsim.matsim import (
    combined,
    cross_sim,
    eds,
    eds_alignment,
    mms,
    pair_diagnostic,
    rv2,
)
from patsim.vectorizer import PatientMatrix

from conftest import unit_rows
from oracles import enumerate_best_mean_path, mms_reference, rv2_reference


class TestCrossSim:
    def test_self_cross_has_unit_diagonal(self, rng):
        a = unit_rows(rng, 3, 5)
        c = cross_sim(a, a)
        np.testing.assert_allclose(np.diag(c), 1.0, atol=1e-9)

    def test_orthogonal_rows_give_zero(self):
        a = np.eye(2, 6)
        b = np.eye(2, 6, k=2)
        np.testing.assert_allclose(cross_sim(a, b), 0.0, atol=1e-12)

    def test_single_rows_give_dot_product(self, rng):
        a = unit_rows(rng, 1, 4)
        b = unit_rows(rng, 1, 4)
        c = cross_sim(a, b)
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(float(a[0] @ b[0]), abs=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            cross_sim(unit_rows(rng, 2, 4), unit_rows(rng, 2, 5))

    def test_entries_within_cosine_bounds(self, rng):
        c = cross_sim(unit_rows(rng, 6, 3), unit_rows(rng, 5, 3))
        assert np.all(np.abs(c) <= 1 + 1e-9)


class TestRv2:
    def test_self_similarity_is_one(self, rng):
        for _ in range(20):
            a = unit_rows(rng, int(rng.integers(2, 9)), int(rng.integers(2, 7)))
            score = rv2(a, a)
            assert not math.isnan(score)
            assert score == pytest.approx(1.0, abs=1e-12)

    def test_column_reflection_gives_minus_one(self, rng):
        # with d = 2 the off-diagonal cross-product flips sign when one
        # column is negated, so the correlation is exactly inverted
        a = unit_rows(rng, 5, 2)
        b = a.copy()
        b[:, 0] = -b[:, 0]
        score = rv2(a, b)
        assert not math.isnan(score)
        assert score == pytest.approx(-1.0, abs=1e-9)

    def test_matches_straight_line_reference(self, rng):
        for _ in range(60):
            n1 = int(rng.integers(1, 21))
            n2 = int(rng.integers(1, 21))
            d = int(rng.integers(2, 17))
            a = unit_rows(rng, n1, d)
            b = unit_rows(rng, n2, d)
            want = rv2_reference(a, b)
            got = rv2(a, b)
            if want is None:
                assert math.isnan(got)
            else:
                assert not math.isnan(got)
                assert got == pytest.approx(want, abs=1e-12)

    def test_orthogonal_columns_degenerate(self):
        score = rv2(np.eye(3), np.eye(3))
        assert isinstance(score, float)
        assert math.isnan(score)

    def test_row_permutation_invariance(self, rng):
        a = unit_rows(rng, 7, 4)
        b = unit_rows(rng, 5, 4)
        perm = rng.permutation(7)
        assert rv2(a, b) == pytest.approx(
            rv2(a[perm], b), abs=1e-13
        )

    def test_bounds(self, rng):
        for _ in range(40):
            a = unit_rows(rng, int(rng.integers(2, 8)), 3)
            b = unit_rows(rng, int(rng.integers(2, 8)), 3)
            s = rv2(a, b)
            if not math.isnan(s):
                assert -1 - 1e-9 <= s <= 1 + 1e-9


class TestMms:
    def test_self_similarity_is_one(self, rng):
        a = unit_rows(rng, 6, 4)
        assert mms(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_single_rows_equal_cosine(self, rng):
        a = unit_rows(rng, 1, 5)
        b = unit_rows(rng, 1, 5)
        assert mms(a, b) == pytest.approx(float(a[0] @ b[0]), abs=1e-12)

    def test_matches_loop_reference(self, rng):
        for _ in range(40):
            a = unit_rows(rng, int(rng.integers(1, 6)), 4)
            b = unit_rows(rng, int(rng.integers(1, 6)), 4)
            assert mms(a, b) == pytest.approx(mms_reference(a, b), abs=1e-12)

    def test_row_permutation_invariance(self, rng):
        a = unit_rows(rng, 6, 4)
        b = unit_rows(rng, 4, 4)
        pa = rng.permutation(6)
        pb = rng.permutation(4)
        assert mms(a, b) == pytest.approx(mms(a[pa], b[pb]), abs=1e-13)


class TestEds:
    def test_single_note_pairs_equal_cosine(self, rng):
        a = unit_rows(rng, 1, 5)
        b = unit_rows(rng, 1, 5)
        assert eds(a, b) == pytest.approx(float(a[0] @ b[0]), abs=1e-12)

    def test_self_similarity_is_one(self, rng):
        a = unit_rows(rng, 5, 4)
        assert eds(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_matches_enumeration(self, rng):
        for _ in range(40):
            a = unit_rows(rng, int(rng.integers(1, 6)), 3)
            b = unit_rows(rng, int(rng.integers(1, 6)), 3)
            want = enumerate_best_mean_path(a @ b.T)
            assert eds(a, b) == pytest.approx(want, abs=1e-9)

    def test_order_sensitivity_witness(self):
        # aligned identical sequences score 1; reversing one drops the score
        a = np.eye(2)
        swapped = a[::-1].copy()
        aligned = eds(a, a)
        reversed_ = eds(swapped, a)
        assert aligned == pytest.approx(1.0, abs=1e-12)
        assert reversed_ == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert aligned - reversed_ > 0.5

    def test_alignment_path_shape(self, rng):
        a = unit_rows(rng, 4, 3)
        b = unit_rows(rng, 6, 3)
        score, path = eds_alignment(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (3, 5)
        assert not math.isnan(score)

    def test_alignment_solves_the_pair_once(self, rng, monkeypatch):
        a = unit_rows(rng, 12, 6)
        b = unit_rows(rng, 15, 6)
        calls = []
        dp = kernels._eds_dp
        monkeypatch.setattr(kernels, "_eds_dp", lambda cp: calls.append(1) or dp(cp))
        want = eds(a, b)
        solves = len(calls)
        score, _ = eds_alignment(a, b)
        assert len(calls) - solves == solves
        assert score == want

    def test_alignment_score_is_eds_bitwise(self, rng):
        for _ in range(40):
            a = unit_rows(rng, int(rng.integers(1, 10)), 5)
            b = unit_rows(rng, int(rng.integers(1, 10)), 5)
            assert eds_alignment(a, b)[0] == eds(a, b)


class TestSymmetryAndBounds:
    def test_all_methods_symmetric(self, rng):
        for _ in range(30):
            a = unit_rows(rng, int(rng.integers(1, 7)), 4)
            b = unit_rows(rng, int(rng.integers(1, 7)), 4)
            for method in (rv2, mms, eds):
                ab = method(a, b)
                ba = method(b, a)
                assert math.isnan(ab) == math.isnan(ba)
                if not math.isnan(ab):
                    assert ab == pytest.approx(ba, abs=1e-12)
                    assert -1 - 1e-9 <= ab <= 1 + 1e-9


class TestSyntheticCrossPatterns:
    """Block, diagonal and anti-diagonal cross structures separate the
    methods: the alignment score is order-aware, the matching score is
    not, and the correlation score ignores row order entirely."""

    def basis_patients(self, order, d=8):
        rows = np.eye(d)[list(order)]
        return np.ascontiguousarray(rows)

    def test_methods_rank_patterns_differently(self):
        n = 4
        ref = self.basis_patients(range(n))
        diag = self.basis_patients(range(n))
        anti = self.basis_patients(range(n - 1, -1, -1))
        half = n // 2
        block = self.basis_patients([0] * half + [1] * half)

        eds_scores = {
            "diag": eds(ref, diag),
            "anti": eds(ref, anti),
            "block": eds(ref, block),
        }
        mms_scores = {
            "diag": mms(ref, diag),
            "anti": mms(ref, anti),
        }
        assert eds_scores["diag"] == pytest.approx(1.0, abs=1e-12)
        assert eds_scores["diag"] > eds_scores["anti"]
        assert mms_scores["diag"] == pytest.approx(mms_scores["anti"], abs=1e-12)

        _, path = eds_alignment(ref, anti)
        assert path[0] == (0, 0) and path[-1] == (n - 1, n - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


class TestSinglePairIsAllPairs:
    def test_bitwise_equal_to_compute_all_pairs(self, rng):
        # the set includes an rv2-degenerate patient (identity rows)
        blocks = [unit_rows(rng, int(rng.integers(1, 7)), 3) for _ in range(6)]
        blocks.append(np.eye(3))
        mats = {f"p{k}": PatientMatrix(f"p{k}", rows, np.arange(rows.shape[0]))
                for k, rows in enumerate(blocks)}
        for mmethod, fn in (("rv2", rv2), ("mms", mms), ("eds", eds)):
            sim = compute_all_pairs(mats, RunConfig(
                filter=False, vmethod="lsa050", mmethod=mmethod))
            for id_a, id_b in itertools.combinations(sorted(mats), 2):
                want, want_defined = sim.get(id_a, id_b)
                got = fn(mats[id_a], mats[id_b])
                assert (not math.isnan(got)) == want_defined
                assert (np.float64(got).tobytes()
                        == np.float64(want).tobytes())
        assert math.isnan(rv2(mats["p6"], mats["p0"]))

    def test_multi_tile_set(self, rng):
        # three tiles of patients, the last one partial; 1-note patients
        # and an rv2-degenerate one (orthonormal rows) among them
        blocks = [unit_rows(rng, int(n), 16) for n in rng.integers(1, 7, 150)]
        blocks[100] = np.eye(16)[:3]
        mats = {f"p{k:03d}": PatientMatrix(f"p{k:03d}", rows, np.arange(rows.shape[0]))
                for k, rows in enumerate(blocks)}
        ids = sorted(mats)
        picks = [(0, 1), (0, 149), (63, 64), (64, 127), (100, 120), (5, 100),
                 (128, 149), (130, 131)]
        picks += [tuple(sorted(rng.choice(150, 2, replace=False))) for _ in range(40)]
        for mmethod, fn in (("rv2", rv2), ("mms", mms), ("eds", eds)):
            sim = compute_all_pairs(mats, RunConfig(
                filter=False, vmethod="lsa050", mmethod=mmethod))
            for i, j in picks:
                want, want_defined = sim.get(ids[i], ids[j])
                got = fn(mats[ids[i]], mats[ids[j]])
                assert (not math.isnan(got)) == want_defined
                if mmethod == "eds":
                    # one cross matrix a @ b.T per pair, whatever the set
                    assert (np.float64(got).tobytes()
                            == np.float64(want).tobytes())
                elif want_defined:
                    # a 64-patient tile's GEMM sums in another order than
                    # the two-patient one
                    assert abs(got - want) <= 1e-12
        assert math.isnan(rv2(mats["p100"], mats["p005"]))


class TestPairDiagnostic:
    def test_eds_record_carries_path(self, rng):
        import json

        a = unit_rows(rng, 3, 4)
        b = unit_rows(rng, 2, 4)
        record = pair_diagnostic(a, b, "eds")
        assert record["method"] == "eds"
        assert record["defined"] is True
        assert record["path"][0] == [0, 0]
        assert record["path"][-1] == [2, 1]
        json.dumps(record)  # must be serializable as-is

    def test_undefined_score_serialized_as_null(self):
        record = pair_diagnostic(np.eye(3), np.eye(3), "rv2")
        assert record["score"] is None
        assert record["defined"] is False
        assert "path" not in record

    def test_unknown_method(self, rng):
        with pytest.raises(ConfigError):
            pair_diagnostic(unit_rows(rng, 2, 3), unit_rows(rng, 2, 3), "bogus")


class TestCombined:
    def test_plain_mean(self):
        scores = [0.2, 0.4, 0.6]
        assert combined(scores) == pytest.approx(0.4, abs=1e-12)

    def test_undefined_member_excluded(self):
        scores = [0.5, math.nan, 0.7]
        out = combined(scores)
        assert not math.isnan(out)
        assert out == pytest.approx(0.6, abs=1e-12)

    def test_all_undefined_propagates(self):
        out = combined([math.nan] * 3)
        assert math.isnan(out)

    def test_empty_input_raises(self):
        with pytest.raises(DegenerateInput):
            combined([])
