from __future__ import annotations

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim import engine, kernels
from patsim.vectorizer import PatientMatrix, load_matrices, save_matrices

from conftest import unit_rows
from oracles import (eds_loop_reference, eds_path_reference, enumerate_best_mean_path,
                     mms_reference, rv2_reference)


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
            trace, _ = kernels.eds_solve(c)
            assert all(b >= a for a, b in zip(trace, trace[1:]))
            assert len(trace) <= 101

    def test_iteration_cap(self, rng):
        for _ in range(60):
            c = rng.uniform(-1, 1, (int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            _, iters = kernels.eds_score_with_iters(c)
            assert iters <= 100

    @pytest.mark.parametrize("cap", [1, 100])
    def test_score_readers_are_eds_solve_bit_for_bit(self, rng, monkeypatch, cap):
        monkeypatch.setattr(kernels, "_MAX_DINKELBACH_ITERS", cap)
        for k in range(80):
            shape = tuple(int(v) for v in rng.integers(1, 13, size=2))
            c = np.full(shape, 0.25) if k % 4 == 0 else rng.uniform(-1, 1, shape)
            levels, _ = kernels.eds_solve(c)
            score, iters = kernels.eds_score_with_iters(c)
            bits = np.array([levels[-1], score, kernels.eds_score(c)]).view(np.uint64)
            assert bits[1] == bits[0] and bits[2] == bits[0]
            assert iters == len(levels) - 1


class TestEdsPath:
    def test_path_is_monotone_and_corner_to_corner(self, rng):
        for _ in range(40):
            n1 = int(rng.integers(1, 9))
            n2 = int(rng.integers(1, 9))
            c = rng.uniform(-1, 1, (n1, n2))
            levels, path = kernels.eds_solve(c)
            score = levels[-1]
            assert path[0] == (0, 0)
            assert path[-1] == (n1 - 1, n2 - 1)
            for (i0, j0), (i1, j1) in zip(path, path[1:]):
                assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}
            mean = sum(c[i, j] for i, j in path) / len(path)
            assert mean == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("shape, want", [
        ((2, 2), [(0, 0), (1, 1)]),
        ((2, 3), [(0, 0), (0, 1), (1, 2)]),
        ((3, 2), [(0, 0), (1, 0), (2, 1)]),
    ])
    def test_ties_prefer_diagonal_then_up_then_left(self, shape, want):
        # a constant matrix ties every step of the backtrack
        levels, path = kernels.eds_solve(np.ones(shape))
        assert (levels[-1], path) == (1.0, want)

    def test_tied_paths_match_the_plain_loop_backtrack(self, rng):
        # integer cells at most 2 with a planted monotone path of 2s: the
        # final level is exactly 2, so both tables are exact and tie on every
        # path of 2s, and only the tie order picks the path
        for _ in range(300):
            n1, n2 = (int(v) for v in rng.integers(1, 10, size=2))
            c = rng.integers(-1, 3, size=(n1, n2)).astype(np.float64)
            i = j = 0
            c[0, 0] = 2.0
            while (i, j) != (n1 - 1, n2 - 1):
                di, dj = ((1, 1), (1, 0), (0, 1))[int(rng.integers(3))]
                i, j = min(i + di, n1 - 1), min(j + dj, n2 - 1)
                c[i, j] = 2.0
            score, path = eds_path_reference(c)
            assert score == 2.0
            levels, got = kernels.eds_solve(c)
            assert (levels[-1], got) == (score, path)

    def test_path_at_the_iteration_cap_scores_the_returned_level(self, rng, monkeypatch):
        # one level update, then the cap: no step has run at the final level
        monkeypatch.setattr(kernels, "_MAX_DINKELBACH_ITERS", 1)
        for _ in range(20):
            c = rng.uniform(-1, 1, (int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            levels, path = kernels.eds_solve(c)
            score = levels[-1]
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


def _packed(mats):
    """eds_batch operands for the ordered pairs (i, j), i != j, of mats."""
    offsets = np.zeros(len(mats) + 1, dtype=np.int64)
    np.cumsum([m.shape[0] for m in mats], out=offsets[1:])
    ii, jj = np.nonzero(~np.eye(len(mats), dtype=bool))
    return np.vstack(mats), offsets, ii, jj


def _tie_rows(rng, n):
    """Rows drawn from three axes: cross matrices of 0s and 1s, full of ties."""
    return np.eye(3)[rng.integers(0, 3, n)]


def _mixed_patients(rng):
    """Shapes 1 to 7 and both random and tied rows, in a shuffled order."""
    mats = [unit_rows(rng, 1, 3), unit_rows(rng, 7, 3), np.tile(np.eye(3)[0], (4, 1)),
            np.tile(np.eye(3)[1], (2, 1)), np.eye(3)[[0]]]
    mats += [unit_rows(rng, int(n), 3) for n in rng.integers(1, 8, 4)]
    mats += [_tie_rows(rng, int(n)) for n in rng.integers(1, 8, 4)]
    return [mats[k] for k in rng.permutation(len(mats))]


def _spy_blocks(monkeypatch):
    """Record each _eds_block call's per-pair update counts."""
    seen = []
    block = kernels._eds_block

    def spy(*args):
        out = block(*args)
        seen.append(out[1].copy())
        return out

    monkeypatch.setattr(kernels, "_eds_block", spy)
    return seen


class TestEdsBatch:
    """The pair-batched Dinkelbach against the one-pair case and the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(1, 9), min_size=2, max_size=7),
           ties=st.lists(st.booleans(), min_size=7, max_size=7),
           seed=st.integers(0, 2**32 - 1))
    def test_scores_do_not_depend_on_the_batch(self, counts, ties, seed):
        rng = np.random.default_rng(seed)
        mats = [_tie_rows(rng, n) if tie else unit_rows(rng, n, 3)
                for n, tie in zip(counts, ties)]
        rows, offsets, ii, jj = _packed(mats)
        got = kernels.eds_batch(rows, offsets, ii, jj)
        want = [kernels.eds_score(mats[i] @ mats[j].T) for i, j in zip(ii, jj)]
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_iteration_counts_do_not_depend_on_the_batch(self, rng, monkeypatch):
        mats = _mixed_patients(rng)
        rows, offsets, ii, jj = _packed(mats)
        seen = _spy_blocks(monkeypatch)
        got = kernels.eds_batch(rows, offsets, ii, jj)
        assert len(seen) == 1
        for p in range(ii.size):
            alone, iters = kernels.eds_score_with_iters(mats[ii[p]] @ mats[jj[p]].T)
            assert got[p].view(np.uint64) == np.float64(alone).view(np.uint64)
            assert seen[0][p] == iters

    def test_shape_and_tie_cases_match_the_loop_reference(self, rng):
        mats = _mixed_patients(rng)
        rows, offsets, ii, jj = _packed(mats)
        got = kernels.eds_batch(rows, offsets, ii, jj)
        shapes = set()
        for p in range(ii.size):
            c = mats[ii[p]] @ mats[jj[p]].T
            shapes.add((min(c.shape[0], 2), min(c.shape[1], 2), bool(np.ptp(c) == 0)))
            assert abs(got[p] - eds_loop_reference(c)[0]) < 1e-12
        # 1x1, then 1xk, kx1 and kxk, each constant and not
        assert len(shapes) == 7

    def test_one_call_over_several_blocks(self, rng, monkeypatch):
        mats = _mixed_patients(rng)
        rows, offsets, ii, jj = _packed(mats)
        whole = kernels.eds_batch(rows, offsets, ii, jj)
        monkeypatch.setattr(kernels, "_CELL_BUDGET", 200)
        seen = _spy_blocks(monkeypatch)
        got = kernels.eds_batch(rows, offsets, ii, jj)
        # at most four 7x7 pairs per block
        assert len(seen) == -(-ii.size // 4)
        assert got.view(np.uint64).tolist() == whole.view(np.uint64).tolist()

    def test_cap_hits_warn_once_per_call(self, rng, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "_MAX_DINKELBACH_ITERS", 1)
        mats = _mixed_patients(rng)
        rows, offsets, ii, jj = _packed(mats)
        seen = _spy_blocks(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="patsim.kernels"):
            kernels.eds_batch(rows, offsets, ii, jj)
        capped = int(np.count_nonzero(seen[0] == 1))
        # constant cross matrices stop at once; the others reach the cap
        assert 0 < capped < ii.size
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert f"{capped} of {ii.size} pairs" in caplog.records[0].getMessage()

    def test_no_warning_below_the_cap(self, rng, caplog):
        rows, offsets, ii, jj = _packed(_mixed_patients(rng))
        with caplog.at_level(logging.WARNING, logger="patsim.kernels"):
            kernels.eds_batch(rows, offsets, ii, jj)
        assert caplog.records == []


def _canonical_nan(scores):
    """Whether every score is np.nan, bit for bit, as score_pairs marks an
    undefined pair (a raw 0/0 NaN has other bits)."""
    bits = scores.view(np.uint64)
    return bits.size > 0 and bool(np.all(bits == np.float64(np.nan).view(np.uint64)))


def _triangles(blocks, width):
    """Every patient's whole gram triangle, from rv2_gram chunks of width
    entries, one row per patient."""
    payload = kernels.pack("rv2", blocks)
    d = blocks[0].shape[1]
    size = d * (d - 1) // 2
    return np.hstack([np.empty((len(blocks), 0))] + [
        kernels.rv2_gram(payload["rows"], payload["offsets"], s, min(s + width, size))
        for s in range(0, size, width)])


class TestRv2Gram:
    def test_single_column_is_degenerate(self, rng):
        # one column leaves no triangle at all
        blocks = [np.ones((3, 1)), unit_rows(rng, 2, 1)]
        assert _triangles(blocks, 5).shape == (2, 0)
        scores, valid = kernels.score_pairs(kernels.pack("rv2", blocks), np.array([0]),
                                            np.array([1]))
        assert _canonical_nan(scores)
        assert valid.tolist() == [False, False]

    def test_orthonormal_rows_spanning_axes_degenerate(self):
        # identity rows: cross-products vanish off the diagonal
        assert not _triangles([np.eye(3)], 2).any()

    def test_unit_frobenius_norm(self, rng):
        # rv2_batch's squared norms are the triangles', which they scale to 1
        blocks = [unit_rows(rng, int(n), 6) for n in rng.integers(1, 6, 5)]
        g = _triangles(blocks, 4)
        payload = kernels.pack("rv2", blocks)
        _, sq = kernels.rv2_batch(payload["rows"], np.array([0]), np.array([1]),
                                  payload["offsets"])
        assert np.allclose(sq, (g * g).sum(axis=1), rtol=1e-14, atol=0)
        assert np.allclose(np.linalg.norm(g / np.sqrt(sq)[:, None], axis=1), 1.0,
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 16, 200])
    def test_strict_upper_triangle(self, rng, d):
        # the entries above the diagonal of x.T @ x, row by row, whatever
        # the chunk width (a chunk may start and end mid-row)
        blocks = [unit_rows(rng, int(n), d) for n in rng.integers(0, 8, 4)]
        size = d * (d - 1) // 2
        for width in sorted({1, 7, max(1, size // 3), size}):
            g = _triangles(blocks, width)
            assert g.shape == (4, size)
            for k, rows in enumerate(blocks):
                want = (rows.T @ rows)[np.triu_indices(d, 1)]
                assert np.allclose(g[k], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rows", [np.ones((3, 1)), np.eye(3), np.eye(5)[:2]])
    def test_degenerate_patient_is_invalid(self, rng, rows):
        payload = kernels.pack("rv2", [unit_rows(rng, 4, rows.shape[1]), rows])
        scores, valid = kernels.score_pairs(payload, np.array([0]), np.array([1]))
        assert _canonical_nan(scores)
        # one column leaves no triangle at all, so both patients are invalid
        assert valid.tolist() == [rows.shape[1] > 1, False]
        assert set(payload) == {"mmethod", "rows", "offsets"}  # scoring changes no slot

    @pytest.mark.parametrize("d", [1, 2, 50, 200])
    def test_pack_keeps_rows_not_grams(self, rng, d):
        # rv2 packs the note rows as mms and eds do; blocks of separate
        # arrays are stacked in one aligned copy
        blocks = [unit_rows(rng, int(n), d) for n in (3, 0, 2, 5)]
        payload = kernels.pack("rv2", blocks)
        assert set(payload) == {"mmethod", "rows", "offsets"}
        assert payload["rows"].flags.c_contiguous and payload["rows"].flags.aligned
        assert not any(np.shares_memory(payload["rows"], rows) for rows in blocks)
        assert np.array_equal(payload["rows"], np.vstack(blocks))
        assert payload["offsets"].tolist() == [0, 3, 3, 5, 10]

    @pytest.mark.parametrize("d", [3, 8, 40])
    def test_random_patients_match_the_oracle(self, rng, d):
        blocks = [unit_rows(rng, int(n), d) for n in rng.integers(1, 9, 12)]
        ii, jj = np.triu_indices(12, k=1)
        got, _ = kernels.score_pairs(kernels.pack("rv2", blocks), ii, jj)
        for p in range(ii.size):
            want = rv2_reference(blocks[ii[p]], blocks[jj[p]])
            assert np.isnan(got[p]) if want is None else abs(got[p] - want) <= 1e-12

    def test_batch_matches_scalar(self, rng, monkeypatch):
        # the cosine of two whole triangles, here summed over three chunks
        monkeypatch.setattr(kernels, "_GRAM_BUDGET", 6)
        blocks = [unit_rows(rng, 4, 3) for _ in range(6)]
        g = _triangles(blocks, 3)
        payload = kernels.pack("rv2", blocks)
        ii, jj = np.triu_indices(6, k=1)
        got, _ = kernels.rv2_batch(payload["rows"], ii, jj, payload["offsets"])
        unit = g / np.linalg.norm(g, axis=1)[:, None]
        for p in range(ii.size):
            assert got[p] == pytest.approx(float(np.dot(unit[ii[p]], unit[jj[p]])),
                                           abs=1e-13)

    @pytest.mark.parametrize("d", [3, 8, 50, 200])
    def test_duplicate_patients_never_exceed_one(self, rng, d):
        # equal triangles have cosine 1, which rounding must not pass
        blocks = [unit_rows(rng, int(n), d) for n in rng.integers(2, 9, 60)]
        blocks = [rows for rows in blocks for _ in range(2)]
        ii = np.arange(0, 120, 2)
        scores, valid = kernels.score_pairs(kernels.pack("rv2", blocks), ii, ii + 1)
        assert valid.all()
        assert np.all(np.abs(scores) <= 1.0)
        assert np.allclose(scores, 1.0, rtol=0, atol=1e-12)

    def test_all_pairs_hold_no_gram_store(self, rng):
        # a store of every triangle would be 300 x 19,900 float64: 47.8 MB
        blocks = [unit_rows(rng, int(n), 200) for n in rng.integers(1, 7, 300)]
        ii, jj = np.triu_indices(300, k=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scores, valid = kernels.score_pairs(kernels.pack("rv2", blocks), ii, jj)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert valid.all() and not np.isnan(scores).any()
        assert peak < 24e6, f"rv2 all-pairs peaked {peak / 1e6:.1f} MB above its inputs"


def _three_tiles(rng, d=16):
    """150 patients: two full tiles and a partial third. Each has 1 to 6
    note rows; patient 100 is rv2-degenerate (orthonormal rows)."""
    blocks = [unit_rows(rng, int(n), d) for n in rng.integers(1, 7, 150)]
    blocks[100] = np.eye(d)[:3]
    assert len(blocks) > 2 * kernels.TILE and len(blocks) % kernels.TILE
    return blocks


# 37 entries of each of _three_tiles' 120-entry triangles per chunk: four
# chunks, each starting mid-row
_CHUNKED = 150 * 37


@pytest.fixture(params=["rv2", "mms", "rv2-chunked"])
def mmethod(request, monkeypatch):
    """A measure for TestTiles; rv2-chunked is rv2 over four gram chunks."""
    if request.param == "rv2-chunked":
        monkeypatch.setattr(kernels, "_GRAM_BUDGET", _CHUNKED)
        return "rv2"
    return request.param


class TestTiles:
    """rv2 and mms read each pair from its tiles' product. The tiles
    depend only on the patient indices, and rv2's chunks only on the
    pack, so what else is requested never changes a score's bits."""

    def test_every_request_gives_the_whole_triangle_bits(self, rng, mmethod):
        payload = kernels.pack(mmethod, _three_tiles(rng))
        ii, jj = np.triu_indices(150, k=1)
        whole, valid = kernels.score_pairs(payload, ii, jj)
        bits = whole.view(np.uint64)

        def same(p, a, b):
            got, got_valid = kernels.score_pairs(payload, a, b)
            assert got.view(np.uint64).tolist() == bits[p].tolist()
            assert got_valid.tolist() == valid.tolist()

        cuts = np.sort(rng.choice(ii.size, 9, replace=False))
        for p in np.split(np.arange(ii.size), cuts):
            same(p, ii[p], jj[p])
        for size in (3, 500, ii.size // 2):
            p = np.sort(rng.choice(ii.size, size, replace=False))
            same(p, ii[p], jj[p])
        for p in rng.choice(ii.size, 60, replace=False):
            same([p], ii[[p]], jj[[p]])

    def test_whole_triangle_matches_the_oracle(self, rng, mmethod):
        blocks = _three_tiles(rng)
        ii, jj = np.triu_indices(150, k=1)
        got, _ = kernels.score_pairs(kernels.pack(mmethod, blocks), ii, jj)
        oracle = rv2_reference if mmethod == "rv2" else mms_reference
        undefined = 0
        for p in range(ii.size):
            want = oracle(blocks[ii[p]], blocks[jj[p]])
            if want is None:
                assert _canonical_nan(got[[p]])
                undefined += 1
            else:
                assert abs(got[p] - want) <= 1e-12
        assert undefined == (149 if mmethod == "rv2" else 0)


def test_chunked_rv2_streams_three_chunks_and_keeps_the_degenerate_patient(
        rng, monkeypatch):
    monkeypatch.setattr(kernels, "_GRAM_BUDGET", _CHUNKED)
    widths = []
    gram = kernels.rv2_gram
    monkeypatch.setattr(kernels, "rv2_gram",
                        lambda *args: widths.append(args[3] - args[2]) or gram(*args))
    blocks = _three_tiles(rng)
    payload = kernels.pack("rv2", blocks)
    ii, jj = np.array([5, 5, 100]), np.array([100, 149, 149])
    scores, valid = kernels.score_pairs(payload, ii, jj)
    assert widths == [37, 37, 37, 9]
    # patient 100's pairs are undefined
    assert _canonical_nan(scores[[0, 2]])
    assert abs(scores[1] - rv2_reference(blocks[5], blocks[149])) <= 1e-12
    assert not valid[100] and valid.sum() == 149


@pytest.mark.parametrize("mmethod", ["rv2", "mms"])
@pytest.mark.parametrize("ii, jj", [([1], [0]), ([0, 1], [2, 1]), ([0, 0], [1, 1]),
                                    ([0, 0], [2, 1]), ([1, 0], [2, 2])],
                         ids=["reversed", "self", "repeated", "unsorted-column",
                              "unsorted-row"])
def test_pairs_out_of_the_triangle_order_are_rejected(rng, mmethod, ii, jj):
    # the engine lists every pair distinct, i < j, in the triangle's order
    payload = kernels.pack(mmethod, [unit_rows(rng, 3, 4) for _ in range(3)])
    rows, offsets, ii, jj = payload["rows"], payload["offsets"], np.array(ii), np.array(jj)
    with pytest.raises(ValueError, match="triangle's order"):
        kernels.score_pairs(payload, ii, jj)
    with pytest.raises(ValueError, match="triangle's order"):
        if mmethod == "rv2":
            kernels.rv2_batch(rows, ii, jj, offsets)
        else:
            kernels.mms_batch(rows, offsets, ii, jj)


@pytest.mark.parametrize("mmethod", ["mms", "eds"])
def test_every_mms_and_eds_patient_is_valid(rng, mmethod):
    blocks = [unit_rows(rng, n, 4) for n in (1, 3, 2)]
    payload = kernels.pack(mmethod, blocks)
    scores, valid = kernels.score_pairs(payload, *np.triu_indices(3, k=1))
    assert valid.tolist() == [True, True, True] and not np.isnan(scores).any()
    assert set(payload) == {"mmethod", "rows", "offsets"}


@pytest.mark.parametrize("mmethod", ["mms", "eds"])
def test_pack_rejects_a_patient_without_rows(rng, mmethod):
    # reduceat would read an empty patient's segment as its neighbour's
    with pytest.raises(ValueError, match="at least one note row"):
        kernels.pack(mmethod, [unit_rows(rng, 2, 3), np.zeros((0, 3))])


def _container(tmp_path, blocks, name="mats.bin"):
    """blocks written as one matrix container and read back, in id order."""
    mats = {f"p{k:03d}": PatientMatrix(f"p{k:03d}", rows, np.arange(len(rows)))
            for k, rows in enumerate(blocks)}
    save_matrices(mats, tmp_path / name)
    loaded, _ = load_matrices(tmp_path / name)
    return [loaded[pid].rows for pid in sorted(loaded)]


def _bits(result):
    scores, valid = result
    return scores.view(np.uint64).tolist(), valid.tolist()


class TestPackView:
    """Blocks that are consecutive row slices, in order, of one array, as
    a container's patients are, pack as a view of their span; any other
    selection packs as one copy. Both score the same bits."""

    def test_container_rows_pack_as_a_view(self, rng, tmp_path):
        rows = _container(tmp_path, [unit_rows(rng, n, 8) for n in (3, 1, 4, 2)])
        span = kernels.pack("rv2", rows)["rows"]
        assert all(np.shares_memory(span, block) for block in rows)
        assert span.flags.aligned and span.flags.c_contiguous
        assert not span.flags.writeable
        assert np.array_equal(span, np.vstack(rows))

    def test_other_selections_copy(self, rng, tmp_path):
        rows = _container(tmp_path, [unit_rows(rng, n, 8) for n in (3, 1, 4, 2)])
        other = _container(tmp_path, [unit_rows(rng, n, 8) for n in (2, 5)], "other.bin")
        for blocks in (rows[::-1], rows[:1] + rows[2:], rows[2:] + rows[:2],
                       rows[:2] + other, rows[:2] + [rows[2].copy(), rows[3]]):
            packed = kernels.pack("mms", blocks)["rows"]
            assert not any(np.shares_memory(packed, block) for block in blocks)
            assert packed.flags.aligned and np.array_equal(packed, np.vstack(blocks))
        # a run of consecutive patients is still one span
        assert np.shares_memory(kernels.pack("mms", rows[1:3])["rows"], rows[2])

    @pytest.mark.parametrize("mmethod", ["rv2", "mms", "eds"])
    def test_view_and_copy_score_the_same_bits(self, rng, tmp_path, mmethod):
        rows = _container(tmp_path, [unit_rows(rng, int(n), 16)
                                     for n in rng.integers(1, 7, 70)])
        view, copy = kernels.pack(mmethod, rows), kernels.pack(mmethod, [r.copy() for r in rows])
        assert np.shares_memory(view["rows"], rows[0])
        assert not np.shares_memory(copy["rows"], rows[0])
        ii, jj = np.triu_indices(70, k=1)
        assert _bits(kernels.score_pairs(view, ii, jj)) == _bits(kernels.score_pairs(copy, ii, jj))

    def test_rv2_patient_without_rows(self, rng, tmp_path):
        # a container holds no such patient: the view's middle one is an
        # empty slice of the loaded rows, between its neighbours, and the
        # copy's is a separate empty array
        blocks = [unit_rows(rng, 3, 5), np.zeros((0, 5)), unit_rows(rng, 4, 5)]
        loaded = _container(tmp_path, [blocks[0], blocks[2]])
        rows = [loaded[0], loaded[1][:0], loaded[1]]
        view = kernels.pack("rv2", rows)
        assert not np.shares_memory(kernels.pack("rv2", blocks)["rows"], rows[0])
        assert np.shares_memory(view["rows"], rows[0]) and view["rows"].shape == (7, 5)
        assert view["offsets"].tolist() == [0, 3, 3, 7]
        ii, jj = np.triu_indices(3, k=1)
        scores, valid = kernels.score_pairs(view, ii, jj)
        assert _bits((scores, valid)) == _bits(kernels.score_pairs(kernels.pack("rv2", blocks),
                                                                   ii, jj))
        assert valid.tolist() == [True, False, True]
        assert _canonical_nan(scores[[0, 2]]) and not np.isnan(scores[1])

    def test_all_pairs_of_a_container_pack_no_copy(self, rng, tmp_path, monkeypatch):
        _container(tmp_path, [unit_rows(rng, n, 8) for n in (3, 1, 4, 2)])
        mats, _ = load_matrices(tmp_path / "mats.bin")
        packed = []
        pack = kernels.pack
        monkeypatch.setattr(kernels, "pack", lambda *args: packed.append(pack(*args))
                            or packed[-1])
        for mmethod in ("rv2", "mms"):
            engine.compute_all_pairs(mats, engine.RunConfig(False, "lsa050", mmethod))
        assert [np.shares_memory(p["rows"], mats["p000"].rows) for p in packed] == [True, True]
