"""Note vectorization: TF-IDF + truncated SVD, plus an import channel.

Notes are turned into unit-norm embedding rows, a note with nothing to
embed into a zero row, and the nonzero rows are stacked into one matrix
per patient (row k = the (k+1)-st retained note in chronological
order). Embeddings are either fitted here (latent semantic analysis over
TF-IDF) or read from a JSONL file produced by an external model. One
builder makes the TF-IDF rows for fitting and embedding alike, and
embed_texts projects a batch of them in one sparse product, as fit_lsa
does for its own documents when it fits several dims at once. scipy is
loaded only when that builder first runs, so importing patsim, loading
saved matrices and scoring them load no scipy module. orjson, which
parses imported JSONL, is likewise loaded by the first import_embeddings
call; a line it cannot read as json.loads would is re-read by json.loads.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import formats
from .exceptions import (
    BadVector,
    DimMismatch,
    DimTooLarge,
    DuplicateKey,
    FormatError,
    MissingEmbedding,
    ParseError,
    PatsimError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .segmenter import FilteredNote

__all__ = [
    "tokenize",
    "LsaModel",
    "PatientMatrix",
    "NoteVectors",
    "randomized_svd",
    "fit_lsa",
    "embed_texts",
    "import_embeddings",
    "compress_embeddings",
    "build_patient_matrix",
    "build_patient_matrices",
    "save_lsa_model",
    "load_lsa_model",
    "save_matrices",
    "load_matrices",
]

# Unicode alphanumeric runs; underscores split, digit+letter runs stay whole
# ("100mg" is one token).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

LSA_MAGIC = b"PATSIM-LSA-1\n"
MAT_MAGIC = b"PATSIM-MAT-1\n"
_ZERO_NORM = 1e-12

# Up to this min(shape), LAPACK's eigh of the dense Gram matrix (about 35 MB
# transient at 1024) is as fast as ARPACK, which it spares loading.
_GRAM_EIGH_MAX = 1024


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; 1-char tokens kept."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class LsaModel:
    """Fitted TF-IDF + truncated SVD model.

    projection has orthonormal columns (right singular vectors), so an
    embedding is the document's normalized TF-IDF row times projection.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    projection: np.ndarray  # (vocab_size, dim)
    sublinear_tf: bool = True

    @property
    def dim(self) -> int:
        return self.projection.shape[1]


@dataclass
class PatientMatrix:
    """Stacked unit-norm note embeddings for one patient.

    note_indices maps each row back to the note's position in the
    patient's original chronological sequence.
    """

    patient_id: str
    rows: np.ndarray          # (n, d) float64, every row unit L2 norm
    note_indices: np.ndarray  # (n,) int64

    @property
    def n_notes(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class NoteVectors:
    """One leg's note vectors: index maps (patient_id, note_index) to a row
    of rows, and every row is at unit L2 norm or exactly zero (a note with
    nothing to embed)."""

    index: Mapping[tuple[str, int], int]
    rows: np.ndarray  # (n, d) float64


def randomized_svd(x, ranks: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact truncated SVD: for each k in ranks, the k largest singular
    values and right vectors.

    Returns one (singular_values[:k], vt[:k]) per rank, for dense or
    scipy.sparse x. The values come in eigenvalue order, so descending
    only up to rounding: equal or nearly equal values may be out of order
    by an ulp. The top-k eigenvectors q of the smaller Gram matrix
    (m x m, m = min(x.shape)), largest first, give the rest with no
    SVD: the singular values are the column norms of x q (or of x.T q);
    when the Gram matrix is x.T x the right vectors are q itself, and
    when it is x x.T they are the Q of the reduced QR of x.T q. LAPACK's
    eigh finds the eigenvectors when m <= _GRAM_EIGH_MAX, or when k == m,
    which ARPACK cannot return; ARPACK (eigsh on the Gram operator, never
    formed) finds them otherwise, orthonormalized by one QR. Every rank
    shares one eigh, and each pair is bitwise the one that rank alone
    gives.

    Deterministic: ARPACK's start vector, and the restart vectors it draws
    on rank-deficient input, come from a fixed seed. Each vt row is signed
    so that its largest-magnitude entry is positive, so the BLAS thread
    count moves the vectors by rounding, not by a sign, unless two entries
    tie for largest within rounding. The name predates the exact solvers;
    perfbench's tracer wraps it.
    """
    n, v = x.shape
    m = min(n, v)
    for r in ranks:
        if r < 1 or r > m:
            raise DimTooLarge(f"rank {r} not in [1, {m}]")
    a = x if n >= v else x.T  # m columns, so a.T @ a is the smaller Gram matrix
    vectors = None
    out = []
    for r in ranks:
        if r == m or m <= _GRAM_EIGH_MAX:
            if vectors is None:
                g = a.T @ a
                # a sparse Gram matrix is told by its toarray, so that this
                # module never needs scipy for dense input, and is dropped
                # before eigh runs; eigh lists the eigenvalues in ascending
                # order, so the columns are reversed
                g = g.toarray() if hasattr(g, "toarray") else g
                vectors = np.linalg.eigh(g)[1][:, ::-1]
                del g
            q = vectors[:, :r]
        else:
            # imported here: loading it costs ~0.14 s and ~9 MB resident memory
            from scipy.sparse.linalg import aslinearoperator, eigsh

            op = aslinearoperator(a)
            # eigsh, not svds: svds does not pass its rng on to eigsh's restarts
            _, w = eigsh(op.H @ op, k=r, rng=0)
            # ARPACK's vectors are not exactly orthonormal, and come smallest first
            q = np.linalg.qr(w)[0][:, ::-1]
        aq = a @ q
        s = np.linalg.norm(aq, axis=0)
        vt = q.T if n >= v else np.linalg.qr(aq)[0].T
        peak = vt[np.arange(r), np.abs(vt).argmax(axis=1)]
        out.append((s, vt * np.where(peak < 0, -1.0, 1.0)[:, None]))
    return out


def _tfidf_rows(tokenized: Sequence[list[str]], vocabulary: Mapping[str, int],
                idf: np.ndarray, sublinear: bool) -> sp.csr_matrix:
    """fit_lsa's L2-normalized TF-IDF row of each token list; empty without
    a vocabulary token. Terms are taken in sorted order, which is column
    order for a vocabulary numbered as fit_lsa numbers it."""
    # imported here: loading it costs ~0.27 s and ~22 MB resident memory,
    # which only fitting and embedding pay
    import scipy.sparse as sp

    tf: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for toks in tokenized:
        counts = Counter(toks)
        terms = sorted(t for t in counts if t in vocabulary)
        indices += [vocabulary[t] for t in terms]
        tf += [1.0 + math.log(counts[t]) if sublinear else float(counts[t]) for t in terms]
        indptr.append(len(indices))
    data = np.array(tf, dtype=np.float64) * idf[indices]
    # a row's norm as np.linalg.norm takes it: the root of its dot with itself
    norms = np.array([math.sqrt(data[a:b].dot(data[a:b]))
                      for a, b in zip(indptr, indptr[1:])], dtype=np.float64)
    data /= np.repeat(np.where(norms > _ZERO_NORM, norms, 1.0), np.diff(indptr))
    return sp.csr_matrix(
        (data, np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(tokenized), len(idf)),
    )


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale rows to unit L2 norm in place and return them; a row of norm
    <= _ZERO_NORM holds nothing and is zeroed."""
    norms = np.linalg.norm(rows, axis=1)
    kept = norms > _ZERO_NORM
    rows /= np.where(kept, norms, 1.0)[:, None]
    rows[~kept] = 0.0
    return rows


def fit_lsa(docs: Sequence[str], dims: tuple[int, ...], min_doc_freq: int = 1,
            sublinear_tf: bool = True) -> dict[int, tuple[LsaModel, np.ndarray]]:
    """Fit TF-IDF weights and a rank-dim projection per dim on a document set.

    tf is the raw count, or 1 + ln(count) when sublinear_tf is set;
    idf = ln((1 + N) / (1 + df)) + 1, over the terms in at least
    min_doc_freq documents. Rows are L2-normalized before the SVD. One
    tokenization, TF-IDF matrix and eigensolve serve every dim in dims,
    and the result maps each dim to (model, rows), rows[k] being docs[k]'s
    embedding bitwise as embed_texts gives it. A dim above the number of
    non-empty documents or of vocabulary terms is left out, not raised.
    """
    if min(dims, default=1) < 1:
        raise ValueError("dim must be positive")
    if min_doc_freq < 1:
        raise ValueError("min_doc_freq must be >= 1")
    tokenized = [tokenize(d) for d in docs]
    n_docs = len(tokenized)
    nonempty = sum(1 for t in tokenized if t)
    df: Counter[str] = Counter()
    for toks in tokenized:
        df.update(set(toks))
    terms = sorted(t for t, c in df.items() if c >= min_doc_freq)
    fits = tuple(d for d in dims if d <= min(nonempty, len(terms)))
    if not fits:
        return {}
    vocabulary = {t: i for i, t in enumerate(terms)}
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms], dtype=np.float64
    )

    x = _tfidf_rows(tokenized, vocabulary, idf, sublinear_tf)
    models = [LsaModel(vocabulary=vocabulary, idf=idf,
                       projection=np.ascontiguousarray(vt.T), sublinear_tf=sublinear_tf)
              for _, vt in randomized_svd(x, fits)]
    return {m.dim: (m, _project(x, m)) for m in models}


def _project(x: sp.csr_matrix, model: LsaModel) -> np.ndarray:
    """TF-IDF rows times the projection, each row at unit norm or zero.
    csr @ dense forms each row on its own, so a row does not depend on
    the other rows in x."""
    return _unit_rows(x @ model.projection)


def embed_texts(model: LsaModel, texts: Sequence[str]) -> np.ndarray:
    """Embed texts by one sparse product of their TF-IDF rows and the
    projection. Row k is at unit norm, or zero when no known token
    survives in text k: a zero row marks a text with nothing to embed.
    A row does not depend on the other texts in the call.
    """
    return _project(_tfidf_rows([tokenize(t) for t in texts], model.vocabulary,
                                model.idf, model.sublinear_tf), model)


def _note_vector(obj, path: Path, lineno: int, dim: int | None,
                 index: Mapping) -> tuple[tuple[str, int], np.ndarray]:
    """Check one parsed import line; return its key and unit row."""
    try:
        key = (obj["patient_id"], obj["note_index"])
        vec = np.asarray(obj["vector"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad record: {exc}", path=path, line=lineno)
    if not isinstance(key[0], str) or not key[0]:
        raise ParseError("patient_id must be a non-empty string",
                         path=path, line=lineno)
    if type(key[1]) is not int:
        raise ParseError("note_index must be an integer", path=path, line=lineno)
    if vec.ndim != 1:
        raise BadVector(f"vector for {key} is not one-dimensional")
    if dim is not None and vec.size != dim:
        raise DimMismatch(f"vector for {key} has dim {vec.size}, expected {dim}")
    if not np.all(np.isfinite(vec)):
        raise BadVector(f"non-finite value in vector for {key}")
    norm = np.linalg.norm(vec)
    if norm == np.inf:  # the squares pass float range; scaled, the norm does not
        vec = vec / np.abs(vec).max()
        norm = np.linalg.norm(vec)
    if norm <= _ZERO_NORM:
        raise BadVector(f"zero vector for {key}")
    if key in index:
        raise DuplicateKey(f"duplicate embedding key {key}")
    return key, vec / norm


def import_embeddings(path: str | Path) -> NoteVectors:
    """Read a JSONL embedding file keyed by (patient_id, note_index).

    Each line holds patient_id, note_index and vector. Vectors are
    validated (one dimension for all, finiteness, nonzero norm) and
    L2-normalized; rows follow the file's order. A vector whose squared
    norm passes float range is divided by its largest magnitude first.

    Lines are parsed by orjson, whose floats are correctly rounded as
    json's are. A line orjson rejects (NaN or Infinity tokens, a number
    past float range, a lone surrogate) or whose checks fail (orjson reads
    an integer past 64 bits as a float) is re-read by json.loads, and that
    reading decides its row or its error, so a UTF-8 file gives json's
    outcome. A line that is not UTF-8 raises ParseError.
    """
    import orjson  # loaded here, so importing patsim loads no orjson

    path = Path(path)
    index: dict[tuple[str, int], int] = {}
    vecs: list[np.ndarray] = []
    with np.errstate(over="ignore"):  # _note_vector rescales a norm that overflows
        for lineno, raw in formats.utf8_lines(path):
            if raw.isspace():  # as `not raw.strip()`, with no copy of the line
                continue
            dim = vecs[0].size if vecs else None
            try:
                key, vec = _note_vector(orjson.loads(raw), path, lineno, dim, index)
            except (ValueError, PatsimError):
                try:
                    obj = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(f"bad JSON: {exc}", path=path, line=lineno)
                key, vec = _note_vector(obj, path, lineno, dim, index)
            index[key] = len(vecs)
            vecs.append(vec)
    return NoteVectors(index, np.stack(vecs) if vecs else np.zeros((0, 0)))


def compress_embeddings(vectors: NoteVectors, dim: int) -> NoteVectors:
    """Project imported vectors down to dim via the same truncated SVD.

    Used when an external model's native dimension exceeds the configured
    one. The SVD operand stacks the vectors in sorted key order. Vectors
    that fall entirely outside the retained subspace come back as zero
    rows and are dropped later like other zero embeddings.
    """
    native = vectors.rows.shape[1]
    if not vectors.index or native == dim:
        return vectors
    if native < dim:
        raise DimMismatch(f"cannot expand dim {native} vectors to {dim}")
    keys = sorted(vectors.index)
    stack = vectors.rows[[vectors.index[k] for k in keys]]
    # rank cannot exceed the number of vectors; missing directions are
    # zero-padded so the output dimension still matches the request
    rank = min(dim, stack.shape[0])
    [(_, vt)] = randomized_svd(stack, (rank,))
    proj = stack @ vt.T
    if rank < dim:
        proj = np.pad(proj, ((0, 0), (0, dim - rank)))
    return NoteVectors({k: i for i, k in enumerate(keys)}, _unit_rows(proj))


def build_patient_matrix(
    patient_id: str,
    filtered: Sequence["FilteredNote"],
    embedder: NoteVectors,
) -> PatientMatrix | None:
    """Stack embeddings of one patient's retained notes into its matrix.

    A table's rows are gathered bitwise; a note it lacks is MissingEmbedding.
    Notes that embed to zero (out-of-vocabulary, or annihilated by an
    import-side compression) are dropped. Returns None when nothing
    remains; the patient is then absent from that run.
    """
    keys = [(patient_id, note.note_index) for note in filtered]
    missing = [key for key in keys if key not in embedder.index]
    if missing:
        raise MissingEmbedding(f"no imported embedding for {missing[0]}")
    rows = embedder.rows[[embedder.index[key] for key in keys]]
    found = rows.any(axis=1)
    if not found.any():
        return None
    kept = np.array([note.note_index for note in filtered], dtype=np.int64)[found]
    return PatientMatrix(patient_id, rows[found], kept)


def build_patient_matrices(
    notes: Mapping[str, Sequence["FilteredNote"]], embedder: NoteVectors,
) -> tuple[dict[str, PatientMatrix], list[str]]:
    """One leg's patient matrices, and the ids of the patients absent from it.

    notes maps each of the leg's patients to its retained notes; both
    results follow its order. A patient with no notes left, or whose
    notes all embed to zero, is absent.
    """
    matrices: dict[str, PatientMatrix] = {}
    absent: list[str] = []
    for pid, filtered in notes.items():
        mat = build_patient_matrix(pid, filtered, embedder)
        if mat is None:
            absent.append(pid)
        else:
            matrices[pid] = mat
    return matrices, absent


def save_lsa_model(model: LsaModel, path: str | Path) -> None:
    """Write a model dump: magic, JSON header, idf and projection arrays."""
    terms = sorted(model.vocabulary, key=model.vocabulary.__getitem__)
    header = {"dim": model.dim, "sublinear_tf": model.sublinear_tf,
              "vocab_size": len(terms), "vocabulary": terms}
    formats.write(path, LSA_MAGIC, [
        formats.json_block(header),
        np.ascontiguousarray(model.idf, dtype="<f8"),
        np.ascontiguousarray(model.projection, dtype="<f8"),
    ])


def save_matrices(
    matrices: Mapping[str, PatientMatrix],
    path: str | Path,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write a set of patient matrices as one deterministic binary file:
    byte-identical for identical inputs, so pipeline outputs compare directly."""
    ids = sorted(matrices)
    if not ids:
        raise FormatError("refusing to write an empty matrix container")
    dim = matrices[ids[0]].dim
    for pid in ids:
        mat = matrices[pid]
        if mat.dim != dim:
            raise DimMismatch(f"matrix for {pid} has dim {mat.dim}")
        if mat.n_notes == 0:
            raise FormatError(f"refusing to write patient {pid} with no rows")
        if np.shape(mat.note_indices) != (mat.n_notes,):
            raise FormatError(f"refusing to write patient {pid} with {mat.n_notes} rows "
                              f"and note indices of shape {np.shape(mat.note_indices)}")
    counts = [matrices[pid].n_notes for pid in ids]
    header = {"dim": dim, "ids": ids, "counts": counts, "meta": dict(meta or {})}
    formats.write(path, MAT_MAGIC, [
        formats.json_block(header),
        *(np.ascontiguousarray(matrices[pid].note_indices, dtype="<i8") for pid in ids),
        *(np.ascontiguousarray(matrices[pid].rows, dtype="<f8") for pid in ids),
    ])


def load_matrices(
    path: str | Path,
) -> tuple[dict[str, PatientMatrix], dict[str, object]]:
    """Read a matrix container; returns (matrices, caller metadata)."""
    with open(path, "rb") as fh:
        r = formats.Reader(fh, MAT_MAGIC, "matrix container")
        header = r.json("header", dict)
        dim, ids, counts = header.get("dim"), header.get("ids"), header.get("counts")
        meta = header.get("meta", {})
        if not (formats.is_count(dim) and formats.unique_strings(ids) and ids
                and isinstance(counts, list) and len(counts) == len(ids)
                and all(map(formats.is_count, counts)) and isinstance(meta, dict)):
            raise r.error("bad header fields")
        if 0 in counts:
            raise r.error(f"patient {ids[counts.index(0)]} has no rows")
        total = sum(counts)
        note_idx = r.array("<i8", total, "note indices")
        rows = r.array("<f8", total * dim, "rows").reshape(total, dim)
        r.end()
    if not np.isfinite(rows).all():
        raise r.error("non-finite value in rows")
    bounds = np.cumsum(counts)[:-1]
    return {pid: PatientMatrix(pid, block, idx.astype(np.int64)) for pid, block, idx
            in zip(ids, np.split(rows, bounds), np.split(note_idx, bounds))}, meta


def load_lsa_model(path: str | Path) -> LsaModel:
    with open(path, "rb") as fh:
        r = formats.Reader(fh, LSA_MAGIC, "model dump")
        header = r.json("header", dict)
        vocab_size, dim = header.get("vocab_size"), header.get("dim")
        terms, sublinear_tf = header.get("vocabulary"), header.get("sublinear_tf")
        if not (formats.is_count(vocab_size) and formats.is_count(dim)
                and formats.unique_strings(terms) and len(terms) == vocab_size
                and isinstance(sublinear_tf, bool)):
            raise r.error("bad header fields")
        idf = r.array("<f8", vocab_size, "idf")
        proj = r.array("<f8", vocab_size * dim, "projection").reshape(vocab_size, dim)
        r.end()
    if not (np.isfinite(idf).all() and np.isfinite(proj).all()):
        raise r.error("non-finite value in idf or projection")
    return LsaModel({t: i for i, t in enumerate(terms)}, idf, proj, sublinear_tf)
