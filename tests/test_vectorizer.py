from __future__ import annotations

import json
import re
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
    ParseError,
)
from patsim.grid import GridOptions, Legs
from patsim.segmenter import FilteredNote
from patsim.vectorizer import (
    NoteVectors,
    PatientMatrix,
    build_patient_matrices,
    build_patient_matrix,
    compress_embeddings,
    embed,
    embed_texts,
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
from oracles import embed_reference, tfidf_matrix_reference


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


def lsa_model(docs, dim, **kwargs):
    """The model of a fit at one dim."""
    return fit_lsa(docs, (dim,), **kwargs)[dim][0]


class TestFitLsa:
    def test_identical_documents_rank_one(self):
        docs = ["alpha beta gamma"] * 3
        model = lsa_model(docs, 1)
        vecs = [embed(model, d) for d in docs]
        assert np.array_equal(vecs[0], vecs[1])
        assert np.array_equal(vecs[1], vecs[2])
        assert abs(abs(vecs[0][0]) - 1.0) < 1e-12

    # a dim the documents cannot carry is left out of the fit
    def test_too_few_docs(self):
        assert fit_lsa(["a b", "c d"], (3,)) == {}
        assert list(fit_lsa(["a b", "c d"], (2, 3))) == [2]

    def test_vocab_smaller_than_dim(self):
        assert fit_lsa(["a", "a", "a"], (2,)) == {}
        assert list(fit_lsa(["a", "a", "a"], (1, 2))) == [1]

    @pytest.mark.parametrize("dims, min_doc_freq, message", [
        ((0,), 1, "dim must be positive"),
        ((4, -1), 1, "dim must be positive"),
        ((4,), 0, "min_doc_freq must be >= 1"),
    ])
    def test_settings_below_one_rejected(self, dims, min_doc_freq, message):
        with pytest.raises(ValueError, match=message):
            fit_lsa(["a b c d"] * 5, dims, min_doc_freq)

    def test_singular_values_match_dense_oracle(self, rng):
        docs = random_docs(rng, 200, 120)
        dim = 10
        model = lsa_model(docs, dim)
        x = tfidf_matrix_reference([tokenize(d) for d in docs])
        s_true = np.linalg.svd(x, compute_uv=False)[:dim]
        [(s_hat, _)] = randomized_svd(x, (dim,))
        rel = np.max(np.abs(s_hat - s_true) / s_true)
        assert rel < 1e-6
        gram = model.projection.T @ model.projection
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-6

    def test_disjoint_groups_embed_orthogonally(self, rng):
        group_a = random_docs(rng, 12, 15)
        group_b = [d.replace("t", "u") for d in random_docs(rng, 12, 15)]
        model = lsa_model(group_a + group_b, 2)
        va = embed(model, group_a[0])
        vb = embed(model, group_b[0])
        assert abs(float(va @ vb)) < 0.05

    def test_fit_is_deterministic(self, rng):
        docs = random_docs(rng, 60, 40)
        m1 = lsa_model(docs, 5)
        m2 = lsa_model(docs, 5)
        assert m1.projection.tobytes() == m2.projection.tobytes()
        assert m1.idf.tobytes() == m2.idf.tobytes()

    def test_idf_positive_finite(self, rng):
        docs = random_docs(rng, 30, 20)
        model = lsa_model(docs, 4)
        assert np.all(np.isfinite(model.idf))
        assert np.all(model.idf > 0)

    def test_min_doc_freq_prunes_vocab(self):
        docs = ["common word here"] * 5 + ["common rareword here"]
        model = lsa_model(docs, 2, min_doc_freq=2)
        assert "rareword" not in model.vocabulary
        assert "common" in model.vocabulary


@pytest.fixture(params=["eigh", "arpack"])
def solver(request, monkeypatch):
    # the Gram-size limit picks the branch whenever k < min(shape)
    limit = 10**9 if request.param == "eigh" else 0
    monkeypatch.setattr(vectorizer, "_GRAM_EIGH_MAX", limit)


class TestRandomizedSvdOracle:
    """Both solver branches against LAPACK on the dense matrix: singular
    values within 1e-12 of the largest, vt orthonormal within 1e-12 and
    signed by its largest entries, and the same bytes from a repeated
    call."""

    @staticmethod
    def check(x, k):
        dense = x.toarray() if sp.issparse(x) else x
        s_true = np.linalg.svd(dense, compute_uv=False)[:k]
        [(s, vt)] = randomized_svd(x, (k,))
        assert s.shape == (k,) and vt.shape == (k, x.shape[1])
        assert np.max(np.abs(s - s_true)) <= 1e-12 * s_true[0]
        assert np.max(np.abs(vt @ vt.T - np.eye(k))) <= 1e-12
        # the sign rule: each vector's largest-magnitude entry is positive
        assert (vt[np.arange(k), np.abs(vt).argmax(axis=1)] > 0).all()
        # each vt row is a right singular vector: |x v_i| = s_i
        np.testing.assert_allclose(np.linalg.norm(dense @ vt.T, axis=0), s,
                                   rtol=0, atol=1e-12 * s_true[0])
        [(s2, vt2)] = randomized_svd(x, (k,))
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
        for ranks in ((0,), (4,), (2, 4)):
            with pytest.raises(DimTooLarge):
                randomized_svd(x, ranks)

    def test_ranks_in_one_call_match_each_rank_alone(self, rng, solver):
        docs = [tokenize(d) for d in random_docs(rng, 200, 120)]
        x = sp.csr_matrix(tfidf_matrix_reference(docs))
        ranks = (3, 40, min(x.shape))  # the last takes eigh under either limit
        for k, (s, vt) in zip(ranks, randomized_svd(x, ranks), strict=True):
            [(s1, vt1)] = randomized_svd(x, (k,))
            assert s.tobytes() == s1.tobytes() and vt.tobytes() == vt1.tobytes()

    def test_small_input_does_not_load_arpack(self):
        code = ("import sys, numpy as np; from patsim.vectorizer import randomized_svd; "
                "randomized_svd(np.random.default_rng(0).standard_normal((60, 40)), (5,)); "
                "assert 'scipy.sparse.linalg' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestSharedFit:
    """fit_lsa over several dims: one tokenization, TF-IDF matrix and
    eigensolve, with every model and embedding row bitwise the one a fit
    at that dim alone gives."""

    @staticmethod
    def docs(rng):
        # min_doc_freq 2 drops the one-off words, so the last doc embeds to
        # zero, and one doc is empty
        return random_docs(rng, 150, 300) + ["", "oneoff words only"]

    def test_models_and_rows_bitwise(self, rng, solver):
        docs = self.docs(rng)
        fits = fit_lsa(docs, (5, 60), min_doc_freq=2)
        assert sorted(fits) == [5, 60]
        for dim, (model, rows) in fits.items():
            alone = lsa_model(docs, dim, min_doc_freq=2)
            assert model.dim == dim and model.vocabulary == alone.vocabulary
            assert model.idf.tobytes() == alone.idf.tobytes()
            assert model.projection.tobytes() == alone.projection.tobytes()
            want, found = embed_texts(alone, docs)
            assert rows.tobytes() == want.tobytes()
            assert not found[-1] and not rows[-2:].any()
            for k in (0, 7, len(docs) - 3):  # a row does not depend on the others
                assert rows[k].tobytes() == embed_texts(alone, [docs[k]])[0][0].tobytes()

    def test_a_dim_too_large_is_left_out(self, rng):
        docs = random_docs(rng, 30, 100)
        fits = fit_lsa(docs, (5, 200))
        assert list(fits) == [5]
        alone = lsa_model(docs, 5)
        assert fits[5][0].projection.tobytes() == alone.projection.tobytes()
        assert fit_lsa(docs, (200,)) == {}

    def test_one_eigensolve_for_every_dim(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda g: calls.append(g.shape) or eigh(g))
        fit_lsa(self.docs(rng), (5, 60), min_doc_freq=2)
        assert len(calls) == 1


# Saved matrices scored, persisted and exported: the `patsim pairs` path.
_PAIRS_PATH = """
import sys, tempfile
from pathlib import Path
import numpy as np
import patsim
from patsim import engine, vectorizer

rng = np.random.default_rng(0)
mats = {}
for k in range(6):
    rows = rng.standard_normal((3 + k % 3, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    mats[f"p{k}"] = vectorizer.PatientMatrix(f"p{k}", rows, np.arange(rows.shape[0]))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mats.bin"
    vectorizer.save_matrices(mats, path)
    loaded, _ = vectorizer.load_matrices(path)
    for mmethod in ("rv2", "mms", "eds"):
        sim = engine.compute_all_pairs(loaded, engine.RunConfig(False, "lsa050", mmethod))
        engine.persist_similarity(sim, Path(tmp) / f"{mmethod}.sim")
        engine.load_similarity(Path(tmp) / f"{mmethod}.sim")
        engine.export_csv(sim, Path(tmp) / f"{mmethod}.csv")
assert sim.defined.all()
loaded_scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded_scipy, loaded_scipy
"""


class TestScipyLoadsOnlyForLsa:
    def test_pairs_path_loads_no_scipy(self):
        subprocess.run([sys.executable, "-c", _PAIRS_PATH], check=True)

    def test_fit_and_embed_in_a_fresh_interpreter(self):
        code = ("import sys; from patsim.vectorizer import embed, fit_lsa; "
                "docs = [f'note {k} about term{k % 7} and term{k % 5}' for k in range(40)]; "
                "model, _ = fit_lsa(docs, (4,))[4]; "
                "assert model.projection.shape[1] == 4; "
                "assert embed(model, docs[3]) is not None; "
                "assert 'scipy.sparse' in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestEmbed:
    def fit(self, rng, sublinear=True):
        docs = random_docs(rng, 50, 30)
        return docs, lsa_model(docs, 4, sublinear_tf=sublinear)

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

    @pytest.mark.parametrize("sublinear, dim", [(True, 4), (False, 4), (True, 50)])
    def test_matches_the_reference(self, rng, sublinear, dim):
        docs = random_docs(rng, 120, 80)
        model = lsa_model(docs, dim, sublinear_tf=sublinear)
        texts = docs + [docs[0] + " " + docs[1], "t1 t1 t1 zzz", "T2, t2_t3"]
        rows, found = embed_texts(model, texts)
        assert rows.shape == (len(texts), dim) and found.all()
        for k, text in enumerate(texts):
            want = embed_reference(model, text)
            np.testing.assert_allclose(rows[k], want, rtol=0, atol=1e-12)
            np.testing.assert_allclose(embed(model, text), want, rtol=0, atol=1e-12)

    def test_nothing_found_where_the_reference_finds_nothing(self, rng):
        docs, model = self.fit(rng)
        texts = ["", "  \n\t ", "zzz qqq", "__ -- _", docs[2], ""]
        rows, found = embed_texts(model, texts)
        assert found.tolist() == [embed_reference(model, t) is not None for t in texts]
        assert found.tolist() == [False] * 4 + [True, False]
        assert [embed(model, t) is None for t in texts] == (~found).tolist()
        assert not rows[~found].any()
        assert embed_texts(model, [])[0].shape == (0, 4)

    def test_row_does_not_depend_on_the_batch(self, rng):
        docs, model = self.fit(rng)
        texts = docs + ["", "zzz"]
        rows, _ = embed_texts(model, texts)
        order = rng.permutation(len(texts))
        shuffled, _ = embed_texts(model, [texts[i] for i in order])
        assert shuffled.tobytes() == rows[order].tobytes()
        half, _ = embed_texts(model, texts[1::2])
        assert half.tobytes() == rows[1::2].tobytes()
        for k, text in enumerate(texts):
            one, _ = embed_texts(model, [text])
            assert one.tobytes() == rows[k].tobytes()
            vec = embed(model, text)
            assert vec is None or vec.tobytes() == rows[k].tobytes()


def row(vectors: NoteVectors, key) -> np.ndarray:
    return vectors.rows[vectors.index[key]]


def unit_table(rng, dim, n=30) -> NoteVectors:
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return NoteVectors({(f"p{k}", 0): k for k in range(n)}, rows)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


class TestImportEmbeddings:
    def test_reads_and_normalizes(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        rows = [
            {"patient_id": f"p{k}", "note_index": 0, "vector": [1.0] * 50}
            for k in range(6)
        ]
        write_jsonl(path, rows)
        out = import_embeddings(path)
        assert len(out.index) == 6 and out.rows.shape == (6, 50)
        assert np.linalg.norm(row(out, ("p0", 0))) == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch_names_key(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [
            {"patient_id": "a", "note_index": 0, "vector": [1.0, 0.0]},
            {"patient_id": "a", "note_index": 1, "vector": [1.0, 0.0, 0.0]},
        ])
        with pytest.raises(DimMismatch, match="'a', 1"):
            import_embeddings(path)

    def test_three_four_normalizes(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"patient_id": "a", "note_index": 2, "vector": [3, 4]}])
        out = import_embeddings(path)
        assert row(out, ("a", 2)).tobytes() == (np.array([3.0, 4.0]) / 5.0).tobytes()

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"patient_id": "a", "note_index": 0,
                           "vector": [1.0, float("nan")]}])
        with pytest.raises(BadVector):
            import_embeddings(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_jsonl(path, [{"patient_id": "a", "note_index": 0, "vector": [0, 0]}])
        with pytest.raises(BadVector):
            import_embeddings(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        row = {"patient_id": "a", "note_index": 0, "vector": [1, 0]}
        write_jsonl(path, [row, row])
        with pytest.raises(DuplicateKey):
            import_embeddings(path)

    @pytest.mark.parametrize("field, value, message", [
        ("patient_id", 7, "patient_id must be a non-empty string"),
        ("patient_id", "", "patient_id must be a non-empty string"),
        ("patient_id", None, "patient_id must be a non-empty string"),
        ("note_index", 2.7, "note_index must be an integer"),
        ("note_index", 2.0, "note_index must be an integer"),
        ("note_index", True, "note_index must be an integer"),
        ("note_index", "2", "note_index must be an integer"),
    ])
    def test_key_of_the_wrong_type_rejected(self, tmp_path, field, value, message):
        # no coercion: 7 is not the id "7", and 2.7 or true is not a note index
        path = tmp_path / "emb.jsonl"
        good = {"patient_id": "a", "note_index": 0, "vector": [1, 0]}
        write_jsonl(path, [good, {**good, "note_index": 1, field: value}])
        with pytest.raises(ParseError, match=re.escape(f"{message} ({path}:2)")):
            import_embeddings(path)


class TestCompressEmbeddings:
    def test_projects_down_and_renormalizes(self, rng):
        emb = unit_table(rng, 200, n=40)
        out = compress_embeddings(emb, 50)
        assert set(out.index) == set(emb.index)
        norms = np.linalg.norm(out.rows, axis=1)
        assert all(abs(n - 1.0) < 1e-9 or n == 0.0 for n in norms)
        assert out.rows.shape == (40, 50)

    def test_same_dim_passthrough(self, rng):
        emb = unit_table(rng, 8, n=1)
        out = compress_embeddings(emb, 8)
        np.testing.assert_array_equal(row(out, ("p0", 0)), emb.rows[0])

    def test_cannot_expand(self, rng):
        with pytest.raises(DimMismatch):
            compress_embeddings(NoteVectors({("a", 0): 0}, rng.standard_normal((1, 8))), 16)

    def test_operand_stacked_in_sorted_key_order(self, rng):
        # the SVD operand's row order fixes the compressed bits, whatever
        # order the file listed the records in
        emb = unit_table(rng, 20)
        keys = sorted(emb.index, reverse=True)
        shuffled = NoteVectors({k: i for i, k in enumerate(keys)},
                               emb.rows[[emb.index[k] for k in keys]])
        want, got = compress_embeddings(emb, 6), compress_embeddings(shuffled, 6)
        for key in emb.index:
            assert row(got, key).tobytes() == row(want, key).tobytes()


class TestEmbeddingsAtDim:
    """Legs.imported gives an import file's vectors at the leg's dim."""

    @staticmethod
    def imported(rng, tmp_path, native, dim):
        emb = unit_table(rng, native)
        path = tmp_path / "legs.jsonl"
        write_jsonl(path, [{"patient_id": pid, "note_index": k, "vector": emb.rows[i].tolist()}
                           for (pid, k), i in emb.index.items()])
        legs = Legs(make_corpus({pid: [("2020-01-01", "x")] for pid, _ in emb.index}))
        return import_embeddings(path), legs.imported(path, dim, sorted(emb.index))

    def test_native_dim_passes_through(self, rng, tmp_path):
        read, out = self.imported(rng, tmp_path, 8, 8)
        assert out.index == read.index and out.rows.tobytes() == read.rows.tobytes()

    def test_larger_native_dim_is_compressed(self, rng, tmp_path):
        read, out = self.imported(rng, tmp_path, 20, 6)
        want = compress_embeddings(read, 6)
        assert set(out.index) == set(want.index)
        for key in want.index:
            np.testing.assert_array_equal(row(out, key), row(want, key))

    def test_smaller_native_dim_names_source(self, rng, tmp_path):
        with pytest.raises(ConfigError, match="legs.jsonl holds dim-8 vectors; need 16"):
            self.imported(rng, tmp_path, 8, 16)


def assert_unit_or_zero(vectors: NoteVectors):
    """Each row at unit norm within 1e-9, or exactly zero: the invariant
    that lets build_patient_matrix gather rows with no norm check."""
    norms = np.linalg.norm(vectors.rows, axis=1)
    zero = ~vectors.rows.any(axis=1)
    assert vectors.rows.dtype == np.float64
    assert np.all(zero | (np.abs(norms - 1.0) <= 1e-9)), norms


class TestRowsUnitOrZero:
    """Every NoteVectors the library builds keeps the invariant."""

    def test_import_embeddings(self, rng, tmp_path):
        path = tmp_path / "emb.jsonl"
        vecs = [[3, 4], [1e-6, 0.0], [1e6, -1e6]] + rng.standard_normal((20, 2)).tolist()
        write_jsonl(path, [{"patient_id": "a", "note_index": k, "vector": v}
                           for k, v in enumerate(vecs)])
        out = import_embeddings(path)
        assert_unit_or_zero(out)
        assert out.rows.any(axis=1).all()  # a zero record is rejected, never kept

    def test_compress_embeddings(self, rng):
        # rank < dim: 3 vectors at dim 5 leave 2 zero-padded columns
        padded = compress_embeddings(unit_table(rng, 8, n=3), 5)
        assert padded.rows.shape == (3, 5) and not padded.rows[:, 3:].any()
        assert_unit_or_zero(padded)
        # e2 lies outside the top singular direction e1 of the stack
        rows = np.array([[1.0, 0.0, 0.0]] * 3 + [[0.0, 1.0, 0.0]])
        out = compress_embeddings(
            NoteVectors({("a", k): k for k in range(4)}, rows), 1)
        assert_unit_or_zero(out)
        assert not row(out, ("a", 3)).any() and row(out, ("a", 0)).any()
        assert_unit_or_zero(compress_embeddings(unit_table(rng, 200, n=40), 50))

    def test_legs_lsa(self):
        # at min_doc_freq 2, "zzz qqq" holds no vocabulary token
        corpus = make_corpus({
            "a": [("2020-01-01", "alpha beta gamma"), ("2020-01-02", "zzz qqq")],
            "b": [("2020-01-01", "alpha beta delta"), ("2020-01-02", "gamma delta")],
            "c": [("2020-01-01", "beta gamma"), ("2020-01-02", "alpha delta beta")],
        })
        fits = Legs(corpus, options=GridOptions(min_doc_freq=2)).lsa(None, (2, 3))
        assert sorted(fits) == [2, 3]
        for _, vectors in fits.values():
            assert_unit_or_zero(vectors)
            assert not row(vectors, ("a", 1)).any()
            assert vectors.rows.any(axis=1).sum() == 5


def lsa_for_matrix_tests(rng):
    docs = random_docs(rng, 80, 40)
    return docs, lsa_model(docs, 6)


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
        model = lsa_model(docs, 50)
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
        for row, k in zip(mat.rows, (0, 2)):
            np.testing.assert_allclose(row, embed_reference(model, docs[k]),
                                       rtol=0, atol=1e-12)

    def test_imported_map_missing_key(self, rng):
        patient = self.patient(2)
        emb = NoteVectors({("a", 0): 0}, np.array([[1.0, 0.0]]))
        with pytest.raises(MissingEmbedding, match=r"\('a', 1\)"):
            build_patient_matrix(
                patient,
                [FilteredNote(0, "x"), FilteredNote(1, "y")],
                emb,
            )

    def test_imported_vectors_used_in_order(self):
        # the notes' order, not the table's, sets the matrix rows
        patient = self.patient(2)
        emb = NoteVectors({("a", 0): 1, ("a", 1): 0}, np.array([[0.0, 1.0], [1.0, 0.0]]))
        mat = build_patient_matrix(
            patient, [FilteredNote(0, "x"), FilteredNote(1, "y")], emb
        )
        np.testing.assert_array_equal(mat.rows, np.eye(2))

    def test_imported_zero_dropped_near_unit_kept_bitwise(self):
        # gathered rows are bitwise the table's rows, with no rescaling
        patient = self.patient(3)
        near_unit = np.array([0.6, 0.8 + 1e-12])  # within 1e-9 of unit norm
        rows = np.array([near_unit, np.zeros(2), np.array([3.0, 4.0]) / 5.0])
        emb = NoteVectors({("a", k): k for k in range(3)}, rows)
        filtered = [FilteredNote(k, "x") for k in range(3)]
        mat = build_patient_matrix(patient, filtered, emb)
        assert list(mat.note_indices) == [0, 2]
        assert mat.rows.tobytes() == rows[[0, 2]].tobytes()


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
        model = lsa_model(docs, 3)
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
        model = lsa_model(docs, 3)
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
