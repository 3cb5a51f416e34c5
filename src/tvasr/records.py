"""Bounds-checked reading of the little-endian binary files tvasr writes.

Loaders are `parse(reader)` functions run by `read_file`. The reader checks
each declared size against the bytes left before anything is built, and
`read_file` turns every failure of a parse, trailing bytes too, into
FormatError.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, TvasrError


class Reader:
    """Cursor over a byte buffer; every read is bounds-checked."""

    def __init__(self, buf):
        self.buf = memoryview(buf)
        self.offset = 0

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.offset

    def skip(self, n: int) -> int:
        """Advance past n bytes; returns the offset where they start."""
        if n > self.remaining:
            raise FormatError(f"truncated: {n} bytes declared, {self.remaining} left")
        self.offset += n
        return self.offset - n

    def take(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self.skip(struct.calcsize(fmt)))

    def magic(self, magic: bytes) -> None:
        if self.take(f"<{len(magic)}s")[0] != magic:
            raise FormatError(f"expected a {magic.decode()} record")

    def text(self, len_fmt: str) -> str:
        """UTF-8 text after its length; bad encodings raise UnicodeDecodeError."""
        (n,) = self.take(len_fmt)
        return self.take(f"<{n}s")[0].decode("utf-8")

    def code(self, codes: dict, what: str) -> str:
        """One uint8 code, mapped back to its name in a name -> code table."""
        (value,) = self.take("<B")
        names = [name for name, code in codes.items() if code == value]
        if not names:
            raise FormatError(f"unknown {what} code {value}")
        return names[0]

    def array(self, dtype: str, shape: tuple) -> np.ndarray:
        """Read-only view of the next prod(shape) items of the buffer."""
        count = math.prod(shape)
        start = self.skip(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.buf, dtype, count, start).reshape(shape)


def read_file(path, parse):
    """Return parse(Reader(file bytes)); any failure raises FormatError."""
    with open(path, "rb") as fh:
        reader = Reader(fh.read())
    try:
        value = parse(reader)
        if reader.remaining:
            raise FormatError(f"{reader.remaining} trailing bytes")
    except (TvasrError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return value
