"""Framing shared by the dataset, checkpoint and embedding-index files.

Each file opens with an 8-byte magic and a little-endian u32 version and
names its entries by a u16 byte length plus UTF-8 bytes.  A short read is
one ``FormatError`` naming the file and the field, and ``atomic_write``
leaves neither a partial file nor its ``.tmp`` behind when a write fails.
"""

from __future__ import annotations

import contextlib
import os
import struct
from typing import BinaryIO, Iterator

from .errors import DataError, FormatError


def read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(
            f"{getattr(fh, 'name', 'file')} truncated while reading {what} "
            f"({len(data)}/{n} bytes)")
    return data


def pack_header(magic: bytes, version: int) -> bytes:
    return magic + struct.pack("<I", version)


def read_header(fh: BinaryIO, magic: bytes, version: int, what: str) -> None:
    found = fh.read(len(magic))
    if found != magic:
        raise FormatError(f"bad {what} magic {found!r}, expected {magic!r}")
    (got,) = struct.unpack("<I", read_exact(fh, 4, f"{what} version"))
    if got != version:
        raise FormatError(f"unsupported {what} version {got}")


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DataError(f"name of {len(raw)} UTF-8 bytes is too long to "
                        f"store (limit 65535): {name[:32]!r}...")
    return struct.pack("<H", len(raw)) + raw


def read_name(fh: BinaryIO, what: str) -> str:
    (length,) = struct.unpack("<H", read_exact(fh, 2, f"length of {what}"))
    return read_exact(fh, length, what).decode("utf-8")


@contextlib.contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """Binary handle on ``<path>.tmp``, renamed to ``path`` when the block
    ends and removed if it raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
