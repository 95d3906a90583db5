from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from patsim import vectorizer
from patsim.exceptions import (
    BadVector,
    ConfigError,
    DimMismatch,
    DimTooLarge,
    DuplicateKey,
    FormatError,
    MissingEmbedding,
)
from patsim.segmenter import FilteredNote
from patsim.vectorizer import (
    PatientMatrix,
    VectorizerConfig,
    build_patient_matrices,
    build_patient_matrix,
    compress_embeddings,
    embed,
    embeddings_at_dim,
    fit_lsa,
    import_embeddings,
    load_lsa_model,
    load_matrices,
    randomized_svd,
    save_lsa_model,
    save_matrices,
    tokenize,
)

from conftest import make_corpus
from oracles import tfidf_matrix_reference


class TestTokenize:
    def test_unicode_and_digit_letter_runs(self):
        assert tokenize("Aspirin 100mg denně") == ["aspirin", "100mg", "denně"]

    def test_empty(self):
        assert tokenize("") == []

    def test_one_letter_tokens_kept(self):
        assert tokenize("M: metformin") == ["m", "metformin"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]


def random_docs(rng, n_docs, vocab_size, lo=5, hi=30):
    words = [f"t{k}" for k in range(vocab_size)]
    docs = []
    for _ in range(n_docs):
        length = int(rng.integers(lo, hi))
        docs.append(" ".join(words[i] for i in rng.integers(0, vocab_size, length)))
    return docs


class TestFitLsa:
    def test_identical_documents_rank_one(self):
        docs = ["alpha beta gamma"] * 3
        model = fit_lsa(docs, VectorizerConfig(dim=1))
        vecs = [embed(model, d) for d in docs]
        assert np.array_equal(vecs[0], vecs[1])
        assert np.array_equal(vecs[1], vecs[2])
        assert abs(abs(vecs[0][0]) - 1.0) < 1e-12

    def test_too_few_docs(self):
        with pytest.raises(DimTooLarge):
            fit_lsa(["a b", "c d"], VectorizerConfig(dim=3))

    def test_vocab_smaller_than_dim(self):
        with pytest.raises(DimTooLarge):
            fit_lsa(["a", "a", "a"], VectorizerConfig(dim=2))

    def test_singular_values_match_dense_oracle(self, rng):
        docs = random_docs(rng, 200, 120)
        dim = 10
        model = fit_lsa(docs, VectorizerConfig(dim=dim))
        x = tfidf_matrix_reference([tokenize(d) for d in docs])
        s_true = np.linalg.svd(x, compute_uv=False)[:dim]
        s_hat, _ = randomized_svd(x, dim)
        rel = np.max(np.abs(s_hat - s_true) / s_true)
        assert rel < 1e-6
        gram = model.projection.T @ model.projection
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-6

    def test_disjoint_groups_embed_orthogonally(self, rng):
        group_a = random_docs(rng, 12, 15)
        group_b = [d.replace("t", "u") for d in random_docs(rng, 12, 15)]
        model = fit_lsa(group_a + group_b, VectorizerConfig(dim=2))
        va = embed(model, group_a[0])
        vb = embed(model, group_b[0])
        assert abs(float(va @ vb)) < 0.05

    def test_fit_is_deterministic(self, rng):
        docs = random_docs(rng, 60, 40)
        m1 = fit_lsa(docs, VectorizerConfig(dim=5))
        m2 = fit_lsa(docs, VectorizerConfig(dim=5))
        assert m1.projection.tobytes() == m2.projection.tobytes()
        assert m1.idf.tobytes() == m2.idf.tobytes()

    def test_idf_positive_finite(self, rng):
        docs = random_docs(rng, 30, 20)
        model = fit_lsa(docs, VectorizerConfig(dim=4))
        assert np.all(np.isfinite(model.idf))
        assert np.all(model.idf > 0)

    def test_min_doc_freq_prunes_vocab(self):
        docs = ["common word here"] * 5 + ["common rareword here"]
        model = fit_lsa(docs, VectorizerConfig(dim=2, min_doc_freq=2))
        assert "rareword" not in model.vocabulary
        assert "common" in model.vocabulary


class TestRandomizedSvdOracle:
    """Both solver branches against LAPACK on the dense matrix: singular
    values within 1e-12 of the largest, vt orthonormal within 1e-12, and
    the same bytes from a repeated call."""

    @pytest.fixture(params=["eigh", "arpack"])
    def solver(self, request, monkeypatch):
        # the Gram-size limit picks the branch whenever k < min(shape)
        limit = 10**9 if request.param == "eigh" else 0
        monkeypatch.setattr(vectorizer, "_GRAM_EIGH_MAX", limit)

    @staticmethod
    def check(x, k):
        dense = x.toarray() if sp.issparse(x) else x
        s_true = np.linalg.svd(dense, compute_uv=False)[:k]
        s, vt = randomized_svd(x, k)
        assert s.shape == (k,) and vt.shape == (k, x.shape[1])
        assert np.max(np.abs(s - s_true)) <= 1e-12 * s_true[0]
        assert np.max(np.abs(vt @ vt.T - np.eye(k))) <= 1e-12
        # each vt row is a right singular vector: |x v_i| = s_i
        np.testing.assert_allclose(np.linalg.norm(dense @ vt.T, axis=0), s,
                                   rtol=0, atol=1e-12 * s_true[0])
        s2, vt2 = randomized_svd(x, k)
        assert s.tobytes() == s2.tobytes() and vt.tobytes() == vt2.tobytes()

    def test_sparse_tfidf_below_full_rank(self, rng, solver):
        docs = [tokenize(d) for d in random_docs(rng, 200, 120)]
        x = sp.csr_matrix(tfidf_matrix_reference(docs))
        for k in (1, 10, min(x.shape) - 1):
            self.check(x, k)
            self.check(x.T.tocsr(), k)

    # k == min(shape) takes eigh under either limit: ARPACK cannot return
    # every value
    def test_dense_at_full_rank(self, rng, solver):
        self.check(rng.standard_normal((2, 40)), 2)

    def test_sparse_at_full_rank(self, rng, solver):
        x = sp.random(30, 80, density=0.2, random_state=rng, format="csr")
        self.check(x, 30)

    def test_two_identical_rows(self, rng, solver):
        a, b = rng.standard_normal((2, 20))
        self.check(np.vstack([a, a, b]), 2)

    def test_repeated_rows_past_the_rank(self, rng, solver):
        # rank 10, so 40 of the 50 requested values are zero
        x = np.tile(rng.standard_normal((10, 256)), (6, 1))
        self.check(x, 50)

    def test_rank_out_of_range(self):
        x = np.ones((3, 5))
        for k in (0, 4):
            with pytest.raises(DimTooLarge):
                randomized_svd(x, k)

    def test_small_input_does_not_load_arpack(self):
        code = ("import sys, numpy as np; from patsim.vectorizer import randomized_svd; "
                "randomized_svd(np.random.default_rng(0).standard_normal((60, 40)), 5); "
                "assert 'scipy.sparse.linalg' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestEmbed:
    def fit(self, rng, sublinear=True):
        docs = random_docs(rng, 50, 30)
        return docs, fit_lsa(
            docs, VectorizerConfig(dim=4, sublinear_tf=sublinear)
        )

    def test_training_doc_cosine_one(self, rng):
        docs, model = self.fit(rng)
        v1 = embed(model, docs[7])
        v2 = embed(model, docs[7])
        assert np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)

    def test_oov_only_returns_none(self, rng):
        _, model = self.fit(rng)
        assert embed(model, "zzz qqq") is None

    def test_repeating_text_preserves_direction_with_linear_tf(self, rng):
        docs, model = self.fit(rng, sublinear=False)
        v1 = embed(model, docs[3])
        v2 = embed(model, docs[3] + " " + docs[3])
        assert float(v1 @ v2) == pytest.approx(1.0, abs=1e-9)


class TestImportEmbeddings:
    def write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")

    def test_reads_and_normalizes(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = [
            {"patient_id": f"p{k}", "note_index": 0, "vector": [1.0] * 50}
            for k in range(6)
        ]
        self.write(path, rows)
        out = import_embeddings(path, expected_dim=50)
        assert len(out) == 6
        assert np.linalg.norm(out[("p0", 0)]) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch_names_key(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        self.write(path, [
            {"patient_id": "a", "note_index": 0, "vector": [0.0] * 199 + [1.0]},
        ])
        with pytest.raises(DimMismatch, match="'a', 0"):
            import_embeddings(path, expected_dim=50)

    def test_three_four_normalizes(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        self.write(path, [{"patient_id": "a", "note_index": 2, "vector": [3, 4]}])
        out = import_embeddings(path)
        np.testing.assert_allclose(out[("a", 2)], [0.6, 0.8], atol=1e-15)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        self.write(path, [{"patient_id": "a", "note_index": 0,
                           "vector": [1.0, float("nan")]}])
        with pytest.raises(BadVector):
            import_embeddings(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        self.write(path, [{"patient_id": "a", "note_index": 0, "vector": [0, 0]}])
        with pytest.raises(BadVector):
            import_embeddings(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        row = {"patient_id": "a", "note_index": 0, "vector": [1, 0]}
        self.write(path, [row, row])
        with pytest.raises(DuplicateKey):
            import_embeddings(path)


class TestCompressEmbeddings:
    def test_projects_down_and_renormalizes(self, rng):
        emb = {
            (f"p{k}", 0): (lambda v: v / np.linalg.norm(v))(rng.standard_normal(200))
            for k in range(40)
        }
        out = compress_embeddings(emb, 50)
        assert set(out) == set(emb)
        norms = [np.linalg.norm(v) for v in out.values()]
        assert all(abs(n - 1.0) < 1e-9 or n == 0.0 for n in norms)
        assert next(iter(out.values())).size == 50

    def test_same_dim_passthrough(self, rng):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        out = compress_embeddings({("a", 0): v}, 8)
        np.testing.assert_array_equal(out[("a", 0)], v)

    def test_cannot_expand(self, rng):
        v = rng.standard_normal(8)
        with pytest.raises(DimMismatch):
            compress_embeddings({("a", 0): v}, 16)


class TestEmbeddingsAtDim:
    def unit(self, rng, dim, n=30):
        return {(f"p{k}", 0): (lambda v: v / np.linalg.norm(v))(rng.standard_normal(dim))
                for k in range(n)}

    def test_native_dim_passes_through(self, rng):
        emb = self.unit(rng, 8)
        assert embeddings_at_dim(emb, 8, "legs.jsonl") is emb

    def test_larger_native_dim_is_compressed(self, rng):
        emb = self.unit(rng, 20)
        out = embeddings_at_dim(emb, 6, "legs.jsonl")
        want = compress_embeddings(emb, 6)
        assert set(out) == set(want)
        for key in want:
            np.testing.assert_array_equal(out[key], want[key])

    def test_smaller_native_dim_names_source(self, rng):
        with pytest.raises(ConfigError, match="legs.jsonl holds dim-8 vectors; need 16"):
            embeddings_at_dim(self.unit(rng, 8), 16, "legs.jsonl")


def lsa_for_matrix_tests(rng):
    docs = random_docs(rng, 80, 40)
    return docs, fit_lsa(docs, VectorizerConfig(dim=6))


class TestBuildPatientMatrix:
    def patient(self, n_notes):
        notes = [
            (f"2020-01-01T00:{k // 60:02d}:{k % 60:02d}", f"note {k} body")
            for k in range(n_notes)
        ]
        return make_corpus({"a": notes}).patients["a"]

    def test_shape_matches_note_count_and_dim(self, rng):
        # 62 retained notes at dim 50 give a 62 x 50 matrix.
        docs = random_docs(rng, 120, 80)
        model = fit_lsa(docs, VectorizerConfig(dim=50))
        patient = self.patient(62)
        filtered = [FilteredNote(k, docs[k]) for k in range(62)]
        mat = build_patient_matrix(patient, filtered, model)
        assert mat.rows.shape == (62, 50)
        np.testing.assert_allclose(
            np.linalg.norm(mat.rows, axis=1), 1.0, atol=1e-9
        )

    def test_all_oov_notes_absent(self, rng):
        _, model = lsa_for_matrix_tests(rng)
        patient = self.patient(2)
        filtered = [FilteredNote(0, "zzz"), FilteredNote(1, "qqq www")]
        assert build_patient_matrix(patient, filtered, model) is None

    def test_single_note_single_row(self, rng):
        docs, model = lsa_for_matrix_tests(rng)
        patient = self.patient(1)
        mat = build_patient_matrix(patient, [FilteredNote(0, docs[0])], model)
        assert mat.rows.shape == (1, 6)
        assert list(mat.note_indices) == [0]

    def test_oov_rows_dropped_not_zeroed(self, rng):
        docs, model = lsa_for_matrix_tests(rng)
        patient = self.patient(3)
        filtered = [
            FilteredNote(0, docs[0]),
            FilteredNote(1, "zzz"),
            FilteredNote(2, docs[2]),
        ]
        mat = build_patient_matrix(patient, filtered, model)
        assert list(mat.note_indices) == [0, 2]

    def test_imported_map_missing_key(self, rng):
        patient = self.patient(2)
        emb = {("a", 0): np.array([1.0, 0.0])}
        with pytest.raises(MissingEmbedding):
            build_patient_matrix(
                patient,
                [FilteredNote(0, "x"), FilteredNote(1, "y")],
                emb,
            )

    def test_imported_vectors_used_in_order(self):
        patient = self.patient(2)
        emb = {
            ("a", 0): np.array([1.0, 0.0]),
            ("a", 1): np.array([0.0, 1.0]),
        }
        mat = build_patient_matrix(
            patient, [FilteredNote(0, "x"), FilteredNote(1, "y")], emb
        )
        np.testing.assert_array_equal(mat.rows, np.eye(2))


class TestBuildPatientMatrices:
    def test_absent_ids_rule(self, rng):
        # no notes left, or every note embedding to zero, leaves a patient out
        docs, model = lsa_for_matrix_tests(rng)
        corpus = make_corpus({pid: [("2020-01-01", "x")] for pid in ("c", "a", "b")})
        notes = {"c": [FilteredNote(0, docs[0])], "a": [], "b": [FilteredNote(0, "zzz")]}
        matrices, absent = build_patient_matrices(corpus, notes, model)
        assert list(matrices) == ["c"]
        assert absent == ["a", "b"]
        want = build_patient_matrix(corpus.patients["c"], notes["c"], model)
        np.testing.assert_array_equal(matrices["c"].rows, want.rows)


class TestModelPersistence:
    def test_round_trip(self, rng, tmp_path):
        docs = random_docs(rng, 40, 25)
        model = fit_lsa(docs, VectorizerConfig(dim=3))
        path = tmp_path / "model.bin"
        save_lsa_model(model, path)
        again = load_lsa_model(path)
        assert again.vocabulary == model.vocabulary
        assert again.dim == model.dim
        assert again.sublinear_tf == model.sublinear_tf
        np.testing.assert_array_equal(again.idf, model.idf)
        np.testing.assert_array_equal(again.projection, model.projection)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(FormatError):
            load_lsa_model(path)

    def test_truncated(self, rng, tmp_path):
        docs = random_docs(rng, 40, 25)
        model = fit_lsa(docs, VectorizerConfig(dim=3))
        path = tmp_path / "model.bin"
        save_lsa_model(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_lsa_model(path)


class TestMatrixContainer:
    def make(self, rng):
        return {
            "a": PatientMatrix("a", np.eye(3, 4), np.array([0, 2, 5])),
            "b": PatientMatrix(
                "b",
                np.ascontiguousarray(np.eye(2, 4)[::-1]),
                np.array([1, 3]),
            ),
        }

    def test_round_trip(self, rng, tmp_path):
        mats = self.make(rng)
        path = tmp_path / "mats.bin"
        save_matrices(mats, path, meta={"vmethod": "lsa050", "filter": False})
        again, meta = load_matrices(path)
        assert meta["vmethod"] == "lsa050"
        assert set(again) == set(mats)
        for pid in mats:
            np.testing.assert_array_equal(again[pid].rows, mats[pid].rows)
            np.testing.assert_array_equal(
                again[pid].note_indices, mats[pid].note_indices
            )

    def test_deterministic_bytes(self, rng, tmp_path):
        mats = self.make(rng)
        p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
        save_matrices(mats, p1, meta={"seed": 1})
        save_matrices(mats, p2, meta={"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated(self, rng, tmp_path):
        mats = self.make(rng)
        path = tmp_path / "mats.bin"
        save_matrices(mats, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_matrices(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "mats.bin"
        path.write_bytes(b"garbage")
        with pytest.raises(FormatError):
            load_matrices(path)
