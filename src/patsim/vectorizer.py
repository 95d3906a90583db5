"""Note vectorization: TF-IDF + truncated SVD, plus an import channel.

Notes are turned into unit-norm embedding rows and stacked into one
matrix per patient (row k = the (k+1)-st retained note in chronological
order). Embeddings are either fitted here (latent semantic analysis over
TF-IDF) or read from a JSONL file produced by an external model.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    BadVector,
    ConfigError,
    DimMismatch,
    DimTooLarge,
    DuplicateKey,
    FormatError,
    MissingEmbedding,
    ParseError,
)

if TYPE_CHECKING:
    from .corpus import PatientRecord
    from .segmenter import FilteredNote

__all__ = [
    "tokenize",
    "VectorizerConfig",
    "LsaModel",
    "PatientMatrix",
    "randomized_svd",
    "fit_lsa",
    "embed",
    "import_embeddings",
    "compress_embeddings",
    "embeddings_at_dim",
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


@dataclass(frozen=True)
class VectorizerConfig:
    """Settings for fitting one LSA leg; the grid uses dim 50 and 200."""

    dim: int = 50
    min_doc_freq: int = 1
    sublinear_tf: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.min_doc_freq < 1:
            raise ValueError("min_doc_freq must be >= 1")


@dataclass
class LsaModel:
    """Fitted TF-IDF + truncated SVD model.

    projection has orthonormal columns (right singular vectors), so an
    embedding is the document's normalized TF-IDF row times projection.
    """

    vocabulary: dict[str, int]
    idf: np.ndarray
    projection: np.ndarray  # (vocab_size, dim)
    dim: int
    sublinear_tf: bool = True


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


def randomized_svd(x, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact truncated SVD: the k largest singular values and right vectors.

    Returns (singular_values[:k], vt[:k]), values in descending order, for
    dense or scipy.sparse x. The top-k eigenvectors of the smaller Gram
    matrix (m x m, m = min(x.shape)) span the wanted subspace, and a thin
    SVD of x on them gives the values and vectors. LAPACK's eigh finds the
    eigenvectors when m <= _GRAM_EIGH_MAX, or when k == m, which ARPACK
    cannot return; ARPACK (eigsh on the Gram operator, never formed) finds
    them otherwise. Deterministic: ARPACK's start vector, and the restart
    vectors it draws on rank-deficient input, come from a fixed seed.
    The name predates the exact solvers; perfbench's tracer wraps it.
    """
    n, v = x.shape
    m = min(n, v)
    if k < 1 or k > m:
        raise DimTooLarge(f"rank {k} not in [1, {m}]")
    a = x if n >= v else x.T  # m columns, so a.T @ a is the smaller Gram matrix
    if k == m or m <= _GRAM_EIGH_MAX:
        g = a.T @ a
        q = np.linalg.eigh(g.toarray() if sp.issparse(g) else g)[1][:, -k:]
    else:
        # imported here: loading it costs ~0.14 s and ~9 MB resident memory
        from scipy.sparse.linalg import aslinearoperator, eigsh

        op = aslinearoperator(a)
        # eigsh, not svds: svds does not pass its rng on to eigsh's restarts
        _, w = eigsh(op.H @ op, k=k, rng=0)
        q, _ = np.linalg.qr(w)  # ARPACK's vectors are not exactly orthonormal
    u, s, h = np.linalg.svd(a @ q, full_matrices=False)
    return s, (h @ q.T if n >= v else u.T)


def _tf_weight(count: float, sublinear: bool) -> float:
    return 1.0 + math.log(count) if sublinear else float(count)


def fit_lsa(docs: Sequence[str], config: VectorizerConfig) -> LsaModel:
    """Fit TF-IDF weights and a rank-dim projection on a document set.

    tf is the raw count, or 1 + ln(count) when sublinear_tf is set;
    idf = ln((1 + N) / (1 + df)) + 1. Rows are L2-normalized before the
    SVD. Raises DimTooLarge when there are fewer non-empty documents, or
    fewer vocabulary terms, than dim.
    """
    tokenized = [tokenize(d) for d in docs]
    n_docs = len(tokenized)
    nonempty = sum(1 for t in tokenized if t)
    if nonempty < config.dim:
        raise DimTooLarge(
            f"{nonempty} non-empty documents < dim {config.dim}"
        )
    df: Counter[str] = Counter()
    for toks in tokenized:
        df.update(set(toks))
    terms = sorted(t for t, c in df.items() if c >= config.min_doc_freq)
    if len(terms) < config.dim:
        raise DimTooLarge(f"vocabulary {len(terms)} < dim {config.dim}")
    vocabulary = {t: i for i, t in enumerate(terms)}
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms], dtype=np.float64
    )

    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for toks in tokenized:
        counts = Counter(t for t in toks if t in vocabulary)
        row = sorted((vocabulary[t], c) for t, c in counts.items())
        weights = np.array(
            [_tf_weight(c, config.sublinear_tf) * idf[j] for j, c in row],
            dtype=np.float64,
        )
        norm = np.linalg.norm(weights)
        if norm > _ZERO_NORM:
            weights /= norm
        data.extend(weights)
        indices.extend(j for j, _ in row)
        indptr.append(len(indices))
    x = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(n_docs, len(terms)),
    )
    _, vt = randomized_svd(x, config.dim)
    return LsaModel(
        vocabulary=vocabulary,
        idf=idf,
        projection=np.ascontiguousarray(vt.T),
        dim=config.dim,
        sublinear_tf=config.sublinear_tf,
    )


def embed(model: LsaModel, text: str) -> np.ndarray | None:
    """Embed one text; returns None when no known token survives.

    Identical texts always map to identical vectors; repeating a text
    changes tf only, which the final normalization cancels when tf is
    linear.
    """
    counts = Counter(t for t in tokenize(text) if t in model.vocabulary)
    if not counts:
        return None
    cols = np.array([model.vocabulary[t] for t in sorted(counts)], dtype=np.int64)
    weights = np.array(
        [_tf_weight(counts[t], model.sublinear_tf) for t in sorted(counts)],
        dtype=np.float64,
    )
    weights *= model.idf[cols]
    norm = np.linalg.norm(weights)
    if norm <= _ZERO_NORM:
        return None
    weights /= norm
    vec = model.projection[cols].T @ weights
    vnorm = np.linalg.norm(vec)
    if vnorm <= _ZERO_NORM:
        return None
    return vec / vnorm


def import_embeddings(
    path: str | Path, expected_dim: int | None = None
) -> dict[tuple[str, int], np.ndarray]:
    """Read a JSONL embedding file keyed by (patient_id, note_index).

    Each line holds patient_id, note_index and vector. Vectors are
    validated (dimension, finiteness, nonzero norm) and L2-normalized.
    """
    path = Path(path)
    out: dict[tuple[str, int], np.ndarray] = {}
    dim = expected_dim
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except ValueError as exc:
                raise ParseError(f"bad JSON: {exc}", path=path, line=lineno)
            try:
                key = (str(obj["patient_id"]), int(obj["note_index"]))
                vec = np.asarray(obj["vector"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad record: {exc}", path=path, line=lineno)
            if vec.ndim != 1:
                raise BadVector(f"vector for {key} is not one-dimensional")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DimMismatch(
                    f"vector for {key} has dim {vec.size}, expected {dim}"
                )
            if not np.all(np.isfinite(vec)):
                raise BadVector(f"non-finite value in vector for {key}")
            norm = np.linalg.norm(vec)
            if norm <= _ZERO_NORM:
                raise BadVector(f"zero vector for {key}")
            if key in out:
                raise DuplicateKey(f"duplicate embedding key {key}")
            out[key] = vec / norm
    return out


def compress_embeddings(
    embeddings: Mapping[tuple[str, int], np.ndarray], dim: int
) -> dict[tuple[str, int], np.ndarray]:
    """Project imported vectors down to dim via the same truncated SVD.

    Used when an external model's native dimension exceeds the configured
    one. Vectors that fall entirely outside the retained subspace come
    back as zero rows and are dropped later like other zero embeddings.
    """
    if not embeddings:
        return {}
    keys = sorted(embeddings)
    stack = np.stack([embeddings[k] for k in keys])
    native = stack.shape[1]
    if native == dim:
        return {k: embeddings[k] for k in keys}
    if native < dim:
        raise DimMismatch(f"cannot expand dim {native} vectors to {dim}")
    # rank cannot exceed the number of vectors; missing directions are
    # zero-padded so the output dimension still matches the request
    rank = min(dim, stack.shape[0])
    _, vt = randomized_svd(stack, rank)
    proj = stack @ vt.T
    if rank < dim:
        proj = np.pad(proj, ((0, 0), (0, dim - rank)))
    norms = np.linalg.norm(proj, axis=1)
    safe = np.where(norms > _ZERO_NORM, norms, 1.0)
    proj /= safe[:, None]
    proj[norms <= _ZERO_NORM] = 0.0
    return {k: proj[i] for i, k in enumerate(keys)}


def embeddings_at_dim(
    embeddings: Mapping[tuple[str, int], np.ndarray], dim: int, source: str | Path
) -> Mapping[tuple[str, int], np.ndarray]:
    """Imported vectors at the leg's dim: compressed when natively larger.

    Raises ConfigError when the vectors from source are natively smaller.
    """
    native = next(iter(embeddings.values())).size if embeddings else dim
    if native < dim:
        raise ConfigError(f"{source} holds dim-{native} vectors; need {dim}")
    if native > dim:
        return compress_embeddings(embeddings, dim)
    return embeddings


def build_patient_matrix(
    patient: "PatientRecord",
    filtered: Sequence["FilteredNote"],
    embedder: LsaModel | Mapping[tuple[str, int], np.ndarray],
) -> PatientMatrix | None:
    """Stack embeddings of the retained notes into one patient matrix.

    Notes that embed to zero (out-of-vocabulary, or annihilated by an
    import-side compression) are dropped. Returns None when nothing
    remains; the patient is then absent from that run.
    """
    rows: list[np.ndarray] = []
    kept: list[int] = []
    for note in filtered:
        if isinstance(embedder, LsaModel):
            vec = embed(embedder, note.text)
        else:
            key = (patient.patient_id, note.note_index)
            if key not in embedder:
                raise MissingEmbedding(f"no imported embedding for {key}")
            vec = embedder[key]
            norm = np.linalg.norm(vec)
            if norm <= _ZERO_NORM:
                vec = None
            elif abs(norm - 1.0) > 1e-9:
                vec = vec / norm
        if vec is not None:
            rows.append(np.asarray(vec, dtype=np.float64))
            kept.append(note.note_index)
    if not rows:
        return None
    return PatientMatrix(
        patient_id=patient.patient_id,
        rows=np.ascontiguousarray(np.vstack(rows)),
        note_indices=np.asarray(kept, dtype=np.int64),
    )


def build_patient_matrices(
    patients: Iterable["PatientRecord"], notes: Mapping[str, Sequence["FilteredNote"]],
    embedder: LsaModel | Mapping[tuple[str, int], np.ndarray],
) -> tuple[dict[str, PatientMatrix], list[str]]:
    """One leg's patient matrices, and the ids of the patients absent from it.

    notes maps each patient id to its retained notes. A patient with no
    notes left, or whose notes all embed to zero, is absent.
    """
    matrices: dict[str, PatientMatrix] = {}
    absent: list[str] = []
    for patient in patients:
        mat = build_patient_matrix(patient, notes[patient.patient_id], embedder)
        if mat is None:
            absent.append(patient.patient_id)
        else:
            matrices[patient.patient_id] = mat
    return matrices, absent


def _write_container(path: str | Path, magic: bytes, header: dict, arrays) -> None:
    """Magic, u32 header length, JSON header, then raw little-endian arrays."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    raw = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for arr in arrays:
            fh.write(arr.tobytes())


def save_lsa_model(model: LsaModel, path: str | Path) -> None:
    """Write a model dump: magic header, JSON metadata, raw arrays."""
    terms = sorted(model.vocabulary, key=model.vocabulary.__getitem__)
    header = {"dim": model.dim, "sublinear_tf": model.sublinear_tf,
              "vocab_size": len(terms), "vocabulary": terms}
    _write_container(path, LSA_MAGIC, header, [
        np.ascontiguousarray(model.idf, dtype="<f8"),
        np.ascontiguousarray(model.projection, dtype="<f8"),
    ])


def save_matrices(
    matrices: Mapping[str, PatientMatrix],
    path: str | Path,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write a set of patient matrices as one deterministic binary file.

    Layout: magic, JSON header (dim, patient ids, row counts, caller
    metadata), then all note indices and all rows as raw little-endian
    arrays. Byte-identical for identical inputs, so pipeline outputs can
    be compared directly.
    """
    ids = sorted(matrices)
    if not ids:
        raise FormatError("refusing to write an empty matrix container")
    dim = matrices[ids[0]].rows.shape[1]
    for pid in ids:
        if matrices[pid].rows.shape[1] != dim:
            raise DimMismatch(f"matrix for {pid} has dim {matrices[pid].rows.shape[1]}")
    counts = [int(matrices[pid].rows.shape[0]) for pid in ids]
    header = {"dim": dim, "ids": ids, "counts": counts, "meta": dict(meta or {})}
    _write_container(path, MAT_MAGIC, header, [
        *(np.ascontiguousarray(matrices[pid].note_indices, dtype="<i8") for pid in ids),
        *(np.ascontiguousarray(matrices[pid].rows, dtype="<f8") for pid in ids),
    ])


def _read_header(path: Path, magic: bytes, what: str) -> tuple[bytes, dict, int]:
    """A container's bytes, its JSON-object header and the payload offset."""
    blob = path.read_bytes()
    if not blob.startswith(magic):
        raise FormatError(f"{path} is not a {what} (bad magic)")
    off = len(magic) + 4
    try:
        (hlen,) = struct.unpack_from("<I", blob, len(magic))
        header = json.loads(blob[off:off + hlen].decode("utf-8"))
    except (ValueError, struct.error) as exc:
        raise FormatError(f"corrupt {what} {path}: {exc}")
    if not isinstance(header, dict):
        raise FormatError(f"corrupt {what} {path}: header is not a JSON object")
    return blob, header, off + hlen


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _unique_strings(value) -> bool:
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value))


def load_matrices(
    path: str | Path,
) -> tuple[dict[str, PatientMatrix], dict[str, object]]:
    """Read a matrix container; returns (matrices, caller metadata)."""
    path = Path(path)
    blob, header, off = _read_header(path, MAT_MAGIC, "matrix container")
    dim, ids, counts = header.get("dim"), header.get("ids"), header.get("counts")
    meta = header.get("meta", {})
    if not (_is_count(dim) and _unique_strings(ids) and isinstance(counts, list)
            and len(counts) == len(ids) and all(map(_is_count, counts))
            and isinstance(meta, dict)):
        raise FormatError(f"corrupt matrix container {path}: bad header fields")
    total = sum(counts)
    need = off + total * 8 + total * dim * 8
    if need != len(blob):
        raise FormatError(f"matrix container {path} has wrong payload size")
    note_idx = np.frombuffer(blob, dtype="<i8", count=total, offset=off)
    off += total * 8
    rows = np.frombuffer(blob, dtype="<f8", count=total * dim, offset=off)
    rows = rows.reshape(total, dim)
    matrices: dict[str, PatientMatrix] = {}
    pos = 0
    for pid, count in zip(ids, counts):
        matrices[pid] = PatientMatrix(
            patient_id=pid,
            rows=np.ascontiguousarray(rows[pos:pos + count]),
            note_indices=note_idx[pos:pos + count].astype(np.int64),
        )
        pos += count
    return matrices, dict(meta)


def load_lsa_model(path: str | Path) -> LsaModel:
    path = Path(path)
    blob, header, off = _read_header(path, LSA_MAGIC, "model dump")
    vocab_size, dim = header.get("vocab_size"), header.get("dim")
    terms, sublinear_tf = header.get("vocabulary"), header.get("sublinear_tf")
    if not (_is_count(vocab_size) and _is_count(dim) and _unique_strings(terms)
            and len(terms) == vocab_size and isinstance(sublinear_tf, bool)):
        raise FormatError(f"corrupt model dump {path}: bad header fields")
    if off + vocab_size * (1 + dim) * 8 != len(blob):
        raise FormatError(f"model dump {path} has wrong payload size")
    idf = np.frombuffer(blob, dtype="<f8", count=vocab_size, offset=off).copy()
    proj = np.frombuffer(
        blob, dtype="<f8", count=vocab_size * dim, offset=off + vocab_size * 8
    ).reshape(vocab_size, dim).copy()
    return LsaModel(
        vocabulary={t: i for i, t in enumerate(terms)},
        idf=idf,
        projection=proj,
        dim=dim,
        sublinear_tf=sublinear_tf,
    )
