"""Framing shared by the dataset, checkpoint and embedding-index files.

Each file opens with an 8-byte magic and a little-endian u32 version and
names its entries by a u16 byte length plus UTF-8 bytes.  After their
headers, datasets and indexes hold the same records, written and walked
only here, each row of the shape the header declares (C, H, W or D)::

    id_len u16 | id utf-8 | label i32 | row float32[...]

In memory they are three columns: an id tuple, int32 labels and one
float32 row array.  A short read is one ``FormatError`` naming the file
and the field, and ``atomic_write`` leaves neither a partial file nor its
``.tmp`` behind when a write fails.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from collections import Counter
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .errors import DataError, DimensionError, FormatError

Array = np.ndarray


def read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    """``n`` bytes; a length past the end of the file is refused unread."""
    data = fh.read(min(n, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(data) != n:
        raise FormatError(
            f"{getattr(fh, 'name', 'file')} truncated while reading {what} "
            f"({len(data)}/{n} bytes)")
    return data


def read_struct(fh: BinaryIO, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what))


def pack_header(magic: bytes, version: int) -> bytes:
    return magic + struct.pack("<I", version)


def read_header(fh: BinaryIO, magic: bytes, version: int, what: str) -> None:
    found = fh.read(len(magic))
    if found != magic:
        raise FormatError(f"bad {what} magic {found!r}, expected {magic!r}")
    (got,) = read_struct(fh, "<I", f"{what} version")
    if got != version:
        raise FormatError(f"unsupported {what} version {got}")


def pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise DataError(f"name of {len(raw)} UTF-8 bytes is too long to "
                        f"store (limit 65535): {name[:32]!r}...")
    return struct.pack("<H", len(raw)) + raw


def read_name(fh: BinaryIO, what: str) -> str:
    (length,) = read_struct(fh, "<H", f"length of {what}")
    try:
        return read_exact(fh, length, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{fh.name}: {what} is not UTF-8") from exc


def _is_int32(value) -> bool:
    try:
        return value == int(value) and -2 ** 31 <= value < 2 ** 31
    except (TypeError, ValueError, OverflowError):  # "x", None, NaN, inf
        return False


def record_columns(ids: Sequence[str], labels, count: int,
                   what: str) -> tuple[tuple[str, ...], Array]:
    """The id tuple and int32 labels of ``count`` records (``what``: item,
    record); no ids, a repeated id or a label that is not an integer value
    within int32 (``2.0`` is one, ``0.5``, NaN and ``"1"`` are not) is one
    ``DataError``."""
    ids, labels = tuple(ids), np.asarray(labels)
    if not ids:
        raise DataError(f"at least one {what} is needed")
    if len(ids) != count or labels.shape != (count,):
        raise DimensionError(
            f"{len(ids)} ids and {labels.shape} labels for {count} {what}s")
    if labels.dtype.kind in "biu":
        bad = np.flatnonzero((labels < -2 ** 31) | (labels >= 2 ** 31))
    else:  # float, object or text labels, checked one by one
        bad = [i for i, label in enumerate(labels.tolist())
               if not _is_int32(label)]
    if len(bad):
        raise DataError(f"{what} {ids[bad[0]]!r}: label "
                        f"{labels.tolist()[bad[0]]!r} is not an int32 integer")
    if len(set(ids)) < count:
        first = next(i for i, n in Counter(ids).items() if n > 1)
        raise DataError(f"duplicate {what} id {first!r}")
    return ids, labels.astype(np.int32)


def write_records(fh: BinaryIO, ids: Sequence[str], labels: Array,
                  rows: Array) -> None:
    """One record per id; every id is encoded before the first is written,
    so an overlong one refuses the whole call."""
    names = [pack_name(item_id) for item_id in ids]
    rows = np.ascontiguousarray(rows, dtype="<f4").reshape(len(names), -1)
    for name, label, row in zip(names, labels.tolist(), rows):
        fh.write(name + struct.pack("<i", label))
        fh.write(row)


def read_records(fh: BinaryIO, count: int, row_shape: tuple[int, ...],
                 what: str) -> tuple[tuple[str, ...], Array, Array]:
    """The ids, int32 labels and ``(count, *row_shape)`` float32 rows of
    the ``count`` records that end the file.  The file must be able to
    hold them before anything is allocated; each row is read straight into
    its place."""
    if count == 0:
        raise FormatError(f"file declares zero {what}s")
    if 0 in row_shape:
        raise DimensionError(f"file declares {what} shape {row_shape}")
    row_bytes = 4 * math.prod(row_shape)
    room = os.fstat(fh.fileno()).st_size - fh.tell()
    if count * (2 + 4 + row_bytes) > room:  # id length, label, row
        raise FormatError(f"{fh.name} truncated: {count} {what}s need "
                          f"more than its {room} bytes")
    ids = []
    labels = np.empty(count, dtype=np.int32)
    rows = np.empty((count, *row_shape), dtype="<f4")
    raw = rows.reshape(count, -1).view(np.uint8)
    read, readinto = fh.read, fh.readinto
    try:
        for i in range(count):
            id_len = int.from_bytes(read(2), "little")
            head = read(id_len + 4)  # short if the length above was
            if len(head) != id_len + 4 or readinto(raw[i]) != row_bytes:
                raise FormatError(f"{fh.name} truncated in {what} {i}")
            ids.append(head[:id_len].decode("utf-8"))
            labels[i] = int.from_bytes(head[id_len:], "little", signed=True)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{fh.name}: id of {what} {i} is not UTF-8") from exc
    if fh.read(1):
        raise FormatError(f"trailing bytes after the last {what}")
    return tuple(ids), labels, rows


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
