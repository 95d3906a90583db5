"""One framing for patsim's binary files: PATSIM-SIM-1, -MAT-1 and -LSA-1.

A file is a magic line, then parts: JSON blocks (u32 byte length, UTF-8
JSON, sorted keys), u64 counts, raw little-endian arrays sized by earlier
parts, and masks (booleans bit-packed little-endian). Each format lists
its parts and checks its values; Reader bounds-checks every part against
the bytes left in the file before it allocates, then reads the part
straight into an array of its own, so a truncated or corrupt file raises
FormatError and nothing else.
"""

from __future__ import annotations

import csv
import io
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .exceptions import FormatError


def json_block(value, ascii: bool = False) -> bytes:
    """A JSON part; ascii escapes non-ASCII text as \\uXXXX."""
    raw = json.dumps(value, ensure_ascii=ascii, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def count(n: int) -> bytes:
    return struct.pack("<Q", n)


def mask(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, bitorder="little")


def write(path: str | Path, magic: bytes, parts: list) -> None:
    """The magic line, then each part: bytes, or a contiguous array written raw."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.writelines(parts)


class Reader:
    """A bounds-checked cursor over the parts of one file opened for binary
    reading, which the caller closes; errors name what and part."""

    def __init__(self, fh: BinaryIO, magic: bytes, what: str):
        self.path, self.what, self._fh = Path(fh.name), what, fh
        self._left = os.fstat(fh.fileno()).st_size - len(magic)
        if fh.read(len(magic)) != magic:
            raise FormatError(f"{self.path} is not a {what} (bad magic)")

    def error(self, problem: str) -> FormatError:
        return FormatError(f"corrupt {self.what} {self.path}: {problem}")

    def array(self, dtype: str, n: int, part: str) -> np.ndarray:
        """The next n values, read into a new aligned array, set read-only."""
        dt = np.dtype(dtype)
        if n * dt.itemsize > self._left:
            raise self.error(f"truncated in {part}")
        out = np.empty(n, dtype=dt)
        if self._fh.readinto(out) != out.nbytes:  # the file shrank while open
            raise self.error(f"truncated in {part}")
        self._left -= out.nbytes
        out.flags.writeable = False
        return out

    def count(self, part: str) -> int:
        return int(self.array("<u8", 1, part)[0])

    def mask(self, n: int, part: str) -> np.ndarray:
        packed = self.array("u1", (n + 7) // 8, part)
        return np.unpackbits(packed, count=n, bitorder="little").astype(bool)

    def json(self, part: str, kind: type = object):
        raw = self.array("u1", int(self.array("<u4", 1, part)[0]), part)
        try:
            value = json.loads(raw.tobytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise self.error(f"bad {part}: {exc}")
        if not isinstance(value, kind):
            raise self.error(f"{part} is not a JSON {kind.__name__}")
        return value

    def end(self) -> None:
        if self._left:
            raise self.error("trailing bytes after the last part")


def is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def unique_strings(value) -> bool:
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value))


def write_csv(path: str | Path, *parts) -> None:
    """A UTF-8 CSV file: the strings of each part (a list or a generator)
    in turn, every line ending in "\\n", ids csv_field-quoted."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for part in parts:
            fh.writelines(part)


def csv_field(text: str) -> str:
    """text as one CSV field: quoted by csv rules when it holds a comma, a
    quote or a line break, else unchanged. Writers quote each id once."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]


# ---------------------------------------------------------------------------
# Report tables: a table is a list of rows of values, each a str, a float
# or None (missing). The first rows are the header.
# ---------------------------------------------------------------------------

def _fixed(v, digits: int) -> str:
    """v at digits decimals, by Python's round; + 0.0 prints a rounded -0.0 as 0."""
    return f"{round(float(v), digits) + 0.0:.{digits}f}"


def text_table(rows: list[list], digits: int, left: bool = False) -> str:
    """Aligned text: None as "-", floats at digits, columns two spaces apart,
    each as wide as its widest cell, right-aligned unless left. No line
    ends in a blank."""
    cells = [["-" if v is None else v if isinstance(v, str) else _fixed(v, digits)
              for v in row] for row in rows]
    widths = [max(map(len, col)) for col in zip(*cells)]
    pad = str.ljust if left else str.rjust
    return "\n".join("  ".join(pad(v, w) for v, w in zip(row, widths)).rstrip()
                     for row in cells)


def csv_table(rows: list[list], digits: int) -> str:
    """CSV text, each line ending in "\\n": None and "" as an empty field,
    floats at digits, other strings csv_field-quoted."""
    return "".join(",".join(
        "" if v is None or v == "" else csv_field(v) if isinstance(v, str)
        else _fixed(v, digits) for v in row) + "\n" for row in rows)
