"""Corrupt binary artifacts either load or raise FormatError.

Each of the three container formats (PATSIM-SIM-1, PATSIM-MAT-1,
PATSIM-LSA-1) is written once, then cut at every byte offset and hit by
single-bit flips. Any other exception escaping a loader is a bug.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patsim.engine import (
    SIM_MAGIC,
    RunConfig,
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
    ("sim", lambda ids: len(ids)),
    ("sim", lambda ids: {pid: k for k, pid in enumerate(ids)}),
    ("sim", lambda ids: ids[:1] * len(ids)),
], ids=["lsa-no-sublinear", "lsa-array-header", "lsa-repeated-term",
        "mat-array-header", "mat-more-ids-than-counts", "mat-repeated-id", "mat-meta-not-object",
        "sim-ids-number", "sim-ids-object", "sim-repeated-id"])
def test_malformed_header_raises_format_error(fmt, edit, valid):
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
