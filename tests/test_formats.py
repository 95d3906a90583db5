"""Corrupt binary artifacts either load or raise FormatError.

Each of the three container formats (PATSIM-SIM-1, PATSIM-MAT-1,
PATSIM-LSA-1) is written once, then cut at every byte offset and hit by
single-bit flips. Any other exception escaping a loader is a bug.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim.engine import (
    SIM_MAGIC,
    RunConfig,
    SimilarityMatrix,
    compute_all_pairs,
    load_similarity,
    persist_similarity,
)
from patsim.exceptions import FormatError
from patsim.vectorizer import (
    LSA_MAGIC,
    MAT_MAGIC,
    LsaModel,
    PatientMatrix,
    load_lsa_model,
    load_matrices,
    save_lsa_model,
    save_matrices,
)


def _matrices() -> dict[str, PatientMatrix]:
    rng = np.random.default_rng(3)
    out = {}
    for pid, n in (("a", 2), ("b", 1), ("c", 3), ("d", 2)):
        rows = rng.standard_normal((n, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        out[pid] = PatientMatrix(pid, rows, np.arange(n, dtype=np.int64))
    return out


def _write_sim(path):
    config = RunConfig(filter=False, vmethod="lsa050", mmethod="rv2", seed=1)
    persist_similarity(compute_all_pairs(_matrices(), config), path)


def _write_mat(path):
    save_matrices(_matrices(), path, meta={"vmethod": "lsa050", "filter": False})


def _write_lsa(path):
    rng = np.random.default_rng(4)
    save_lsa_model(LsaModel(
        vocabulary={t: i for i, t in enumerate(["alpha", "beta", "gamma", "delta"])},
        idf=rng.uniform(1.0, 2.0, 4),
        projection=rng.standard_normal((4, 2)),
        dim=2,
    ), path)


FORMATS = {
    "sim": (_write_sim, load_similarity, SIM_MAGIC),
    "mat": (_write_mat, load_matrices, MAT_MAGIC),
    "lsa": (_write_lsa, load_lsa_model, LSA_MAGIC),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid file per format, and a path to write to."""
    root = tmp_path_factory.mktemp("formats")
    blobs = {}
    for name, (write, load, _) in FORMATS.items():
        write(root / name)
        load(root / name)
        blobs[name] = (root / name).read_bytes()
    return blobs, root / "corrupt"


def _loads_or_format_error(load, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        load(path)
    except FormatError:
        pass


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation(fmt, valid):
    blobs, path = valid
    for cut in range(len(blobs[fmt])):
        _loads_or_format_error(FORMATS[fmt][1], path, blobs[fmt][:cut])


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_truncation_and_bit_flips(fmt, data, valid):
    blobs, path = valid
    blob = blobs[fmt]
    cut = data.draw(st.integers(0, len(blob)), label="cut")
    _loads_or_format_error(FORMATS[fmt][1], path, blob[:cut])
    bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _loads_or_format_error(FORMATS[fmt][1], path, bytes(flipped))


def _edit_header(blob: bytes, magic: bytes, edit) -> bytes:
    """Replace the length-prefixed JSON block after the magic (the header,
    or the id table of a similarity file) with edit(old value)."""
    (hlen,) = struct.unpack_from("<I", blob, len(magic))
    start = len(magic) + 4
    raw = json.dumps(edit(json.loads(blob[start:start + hlen]))).encode("utf-8")
    return magic + struct.pack("<I", len(raw)) + raw + blob[start + hlen:]


def _edit_trailer(blob: bytes, edit) -> bytes:
    """Replace the JSON trailer of a similarity file with edit(old trailer)."""
    off = len(SIM_MAGIC)
    (ids_len,) = struct.unpack_from("<I", blob, off)
    n = len(json.loads(blob[off + 4:off + 4 + ids_len]))
    off += 4 + ids_len
    (npairs,) = struct.unpack_from("<Q", blob, off)
    off += 8 + 8 * npairs + (npairs + 7) // 8 + (n + 7) // 8
    (tlen,) = struct.unpack_from("<I", blob, off)
    raw = json.dumps(edit(json.loads(blob[off + 4:off + 4 + tlen]))).encode("utf-8")
    return blob[:off] + struct.pack("<I", len(raw)) + raw


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


@pytest.mark.parametrize("fmt, edit", [
    ("lsa", _drop("sublinear_tf")),
    ("lsa", lambda h: [h]),
    ("lsa", lambda h: {**h, "vocabulary": ["alpha"] * 4}),
    ("mat", lambda h: [h]),
    ("mat", lambda h: {**h, "ids": h["ids"] + ["e"]}),
    ("mat", lambda h: {**h, "ids": ["a", "a"] + h["ids"][2:]}),
    ("mat", lambda h: {**h, "meta": 3}),
    ("mat", lambda h: {**h, "counts": [2**60] + h["counts"][1:]}),
    ("sim", lambda ids: len(ids)),
    ("sim", lambda ids: {pid: k for k, pid in enumerate(ids)}),
    ("sim", lambda ids: ids[:1] * len(ids)),
], ids=["lsa-no-sublinear", "lsa-array-header", "lsa-repeated-term",
        "mat-array-header", "mat-more-ids-than-counts", "mat-repeated-id", "mat-meta-not-object",
        "mat-count-beyond-the-file",
        "sim-ids-number", "sim-ids-object", "sim-repeated-id"])
def test_malformed_header_raises_format_error(fmt, edit, valid):
    # a count beyond the file raises before anything is allocated for it
    blobs, path = valid
    _, load, magic = FORMATS[fmt]
    path.write_bytes(_edit_header(blobs[fmt], magic, edit))
    with pytest.raises(FormatError):
        load(path)


@pytest.mark.parametrize("field, value", [
    ("category", ["x"]),
    ("filter", "yes"),
    ("seed", "zero"),
    ("seed", True),
    ("workers", 2.0),
])
def test_mistyped_trailer_config_raises_format_error(field, value, valid):
    # a mistyped config must not load: hashing it would raise TypeError
    blobs, path = valid
    path.write_bytes(_edit_trailer(
        blobs["sim"], lambda t: {**t, "config": {**t["config"], field: value}}))
    with pytest.raises(FormatError, match="bad trailer"):
        load_similarity(path)


# ---------------------------------------------------------------------------
# Golden bytes: each format written from fixed arrays, never from computed
# scores, so the hashes pin the byte layout on any machine.
# ---------------------------------------------------------------------------

_GOLDEN_IDS = ["p1", "pé-2", "q,3"]


def _golden_sim(path):
    nan = float("nan")
    scores = np.array([[1.0, 0.25, nan], [0.25, 1.0, -0.5], [nan, -0.5, nan]])
    defined = ~np.isnan(scores)
    config = RunConfig(filter=True, vmethod="lsa050", mmethod="eds",
                       category="Médication", workers=2, seed=7)
    persist_similarity(SimilarityMatrix(_GOLDEN_IDS, scores, defined, config,
                                        wall_time_seconds=1.5), path)


def _golden_mat(path):
    save_matrices({
        pid: PatientMatrix(pid, np.array(rows, dtype=np.float64),
                           np.array(idx, dtype=np.int64))
        for pid, rows, idx in zip(_GOLDEN_IDS, (
            [[0.6, 0.8], [1.0, 0.0]], [[0.0, -1.0]], [[0.8, 0.6], [-0.6, 0.8], [0.0, 1.0]],
        ), ([0, 2], [1], [0, 1, 5]))
    }, path, meta={"vmethod": "lsa050", "filter": True, "category": "Médication"})


def _golden_lsa(path):
    save_lsa_model(LsaModel(
        vocabulary={"alpha": 0, "bêta": 1, "gamma": 2},
        idf=np.array([1.0, 1.5, 2.25]),
        projection=np.array([[0.5, -0.5], [0.25, 0.75], [-1.0, 0.0]]),
        dim=2, sublinear_tf=False,
    ), path)


@pytest.mark.parametrize("write, sha256", [
    (_golden_sim, "965cdc6f3bca440cd31fbb06b78b3323a26be4ec3220f339018d144edd7315cf"),
    (_golden_mat, "54e924ac45b71654642d94c9eecd3c91b831bf9dd2edd31e8328c05c6dc78558"),
    (_golden_lsa, "afcb9d1539a074c2a6405b1c319163b52e2fb360268f8d32f5135183ffa38198"),
], ids=["sim", "mat", "lsa"])
def test_golden_bytes(write, sha256, tmp_path):
    write(tmp_path / "f")
    assert hashlib.sha256((tmp_path / "f").read_bytes()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# Finite payloads: a NaN or inf in a matrix row or an LSA array is corrupt.
# Similarity triangles hold NaN for undefined pairs by design.
# ---------------------------------------------------------------------------

def _mat_with(value):
    def write(path):
        mats = _matrices()
        rows = mats["c"].rows.copy()
        rows[1, 2] = value
        mats["c"] = PatientMatrix("c", rows, mats["c"].note_indices)
        save_matrices(mats, path)
    return write


def _lsa_with(field, value):
    def write(path):
        arrays = {"idf": np.array([1.0, 1.5, 2.0]),
                  "projection": np.array([[0.5, 0.5], [0.0, 1.0], [1.0, 0.0]])}
        arrays[field].flat[-1] = value
        save_lsa_model(LsaModel({"a": 0, "b": 1, "c": 2}, dim=2, **arrays), path)
    return write


@pytest.mark.parametrize("write, load", [
    (_mat_with(np.nan), load_matrices),
    (_mat_with(np.inf), load_matrices),
    (_lsa_with("idf", np.nan), load_lsa_model),
    (_lsa_with("idf", np.inf), load_lsa_model),
    (_lsa_with("projection", np.nan), load_lsa_model),
    (_lsa_with("projection", -np.inf), load_lsa_model),
], ids=["mat-nan", "mat-inf", "lsa-idf-nan", "lsa-idf-inf",
        "lsa-projection-nan", "lsa-projection-inf"])
def test_non_finite_payload_raises_format_error(write, load, tmp_path):
    write(tmp_path / "f")
    with pytest.raises(FormatError, match="non-finite"):
        load(tmp_path / "f")


def test_loaders_return_owned_aligned_read_only_arrays(tmp_path):
    _write_mat(tmp_path / "mat")
    _write_lsa(tmp_path / "lsa")
    mats, _ = load_matrices(tmp_path / "mat")
    model = load_lsa_model(tmp_path / "lsa")
    for array in [m.rows for m in mats.values()] + [model.idf, model.projection]:
        owner = array if array.base is None else array.base
        assert owner.flags.owndata and array.flags.aligned and not array.flags.writeable
