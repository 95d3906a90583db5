"""One framing for patsim's binary files (PATSIM-SIM-1, -MAT-1 and -LSA-1),
and the one way in for its text files.

A binary file is a magic line, then parts: JSON blocks (u32 byte length, UTF-8
JSON, sorted keys), u64 counts, raw little-endian arrays sized by earlier
parts, and masks (booleans bit-packed little-endian). Each format lists
its parts and checks its values; Reader bounds-checks every part against
the bytes left in the file before it allocates, then reads the part
straight into an array of its own, so a truncated or corrupt file raises
FormatError and nothing else. Every text file patsim reads goes through
utf8_lines, so a byte that is not UTF-8 is a ParseError naming its line.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .exceptions import FormatError, ParseError


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


def reject_duplicate_keys(pairs) -> dict:
    """A json.loads object_pairs_hook: the pairs as a dict, ValueError on a
    key given twice, which json.loads would keep the last of."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"duplicate field {key!r}")
        seen.add(key)
    return dict(pairs)


# errors="surrogateescape" decodes each byte that is not UTF-8 to one of
# these code points, which valid UTF-8 never decodes to.
_UNDECODED = re.compile("[\udc80-\udcff]")


def utf8_lines(path: str | Path, newline: str | None = None) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) of a UTF-8 text file; lines end at LF, CRLF
    or a lone CR, read as LF unless newline is "" (csv's setting, which keeps
    the endings). A byte that is not UTF-8 raises ParseError naming the file
    and line, where strict decoding fails per read buffer and names neither."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii() and (bad := _UNDECODED.search(raw)):
                raise ParseError(f"byte 0x{ord(bad[0]) - 0xDC00:02x} is not UTF-8",
                                 path=path, line=lineno)
            yield lineno, raw


def csv_rows(path: str | Path, columns: tuple[str, ...],
             what: str) -> Iterator[tuple[int, list]]:
    """Yield (line number, the row's values of columns, in order) of a UTF-8
    CSV file whose header names every column; a header that does not raises
    ParseError naming the file. A short row reads None past its end."""
    reader = csv.DictReader(line for _, line in utf8_lines(path, newline=""))
    if not set(columns).issubset(reader.fieldnames or ()):
        raise ParseError(f"{what} file must have columns {sorted(columns)}", path=path)
    for row in reader:
        yield reader.line_num, [row[c] for c in columns]


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
