"""Binary dataset ingestion and the package's own dataset container.

Two public formats are parsed bit-exactly: the IDX image/label files used
by MNIST-style datasets (big-endian headers, per the format convention) and
CIFAR-10 binary batches (3073-byte records, channel-planar RGB).  Pixels
are always scaled as ``value / 255`` into float32.

The internal container is a header followed by the records of
``container.py``, one per item, each row a (C, H, W) image::

    magic "DSETV001" | version u32 | count u64 | C,H,W u32 | records

All parsers either return a dataset satisfying the ``Dataset`` invariants
or raise ``FormatError`` with the offending location (or the error the
``Dataset`` constructor raises); no partial datasets escape.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

from .container import (atomic_write, pack_header, read_header,
                        read_records, read_struct, write_records)
from .dataset import Dataset
from .errors import DataError, FormatError
from .losses import TripletSample

DATASET_MAGIC = b"DSETV001"
DATASET_VERSION = 1
DATASET_HEADER = "<QIII"  # after the version: item count, C, H, W
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


def _maybe_gunzip(payload: bytes) -> bytes:
    return gzip.decompress(payload) if payload[:2] == b"\x1f\x8b" else payload


def parse_idx(image_bytes: bytes, label_bytes: bytes) -> Dataset:
    """Parse paired IDX image/label payloads (gzip accepted transparently).

    Image magic must be 0x00000803 (unsigned bytes, 3 dims) and label magic
    0x00000801; counts must agree.  Items keep file order with the fixed
    ids ``idx-00000``, ``idx-00001``, ... and pixels scaled to [0, 1].
    """
    image_bytes = _maybe_gunzip(image_bytes)
    label_bytes = _maybe_gunzip(label_bytes)

    if len(image_bytes) < 16:
        raise FormatError(
            f"IDX image header truncated at byte {len(image_bytes)}")
    magic, count, rows, cols = struct.unpack(">IIII", image_bytes[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(
            f"bad IDX image magic 0x{magic:08x} at byte 0, "
            f"want 0x{IDX_IMAGE_MAGIC:08x}")
    expected = 16 + count * rows * cols
    if len(image_bytes) != expected:
        raise FormatError(
            f"IDX image payload is {len(image_bytes)} bytes, "
            f"want {expected} (truncated at byte {len(image_bytes)})")

    if len(label_bytes) < 8:
        raise FormatError(
            f"IDX label header truncated at byte {len(label_bytes)}")
    lmagic, lcount = struct.unpack(">II", label_bytes[:8])
    if lmagic != IDX_LABEL_MAGIC:
        raise FormatError(
            f"bad IDX label magic 0x{lmagic:08x} at byte 0, "
            f"want 0x{IDX_LABEL_MAGIC:08x}")
    if lcount != count:
        raise FormatError(
            f"label count {lcount} != image count {count}")
    if len(label_bytes) != 8 + count:
        raise FormatError(
            f"IDX label payload is {len(label_bytes)} bytes, want "
            f"{8 + count} (truncated at byte {len(label_bytes)})")

    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=16)
    return _digit_dataset([pixels.reshape(count, 1, rows, cols)],
                          np.frombuffer(label_bytes, np.uint8, offset=8),
                          "item", [("idx-", count)])


def parse_cifar10_bin(batch_bytes: bytes) -> Dataset:
    """Parse a CIFAR-10 binary batch: records of 1 label byte plus
    3x32x32 channel-planar pixel bytes, ids ``cifar-{record:05d}``."""
    return _cifar_dataset([batch_bytes], ["cifar-"])


def _cifar_dataset(payloads: list[bytes], id_prefixes: list[str]) -> Dataset:
    """The records of every batch payload in order, ids numbered per
    payload."""
    batches = []
    for payload in map(_maybe_gunzip, payloads):
        if len(payload) == 0:
            raise FormatError("empty CIFAR-10 payload")
        if len(payload) % CIFAR_RECORD_BYTES:
            raise FormatError(
                f"CIFAR-10 payload of {len(payload)} bytes is not a "
                f"multiple of {CIFAR_RECORD_BYTES}")
        batches.append(np.frombuffer(payload, dtype=np.uint8)
                       .reshape(-1, CIFAR_RECORD_BYTES))
    return _digit_dataset([b[:, 1:].reshape(-1, 3, 32, 32) for b in batches],
                          np.concatenate([b[:, 0] for b in batches]),
                          "record", list(zip(id_prefixes, map(len, batches))))


def _digit_dataset(pixels: list[np.ndarray], labels: np.ndarray, unit: str,
                   id_runs: list[tuple[str, int]]) -> Dataset:
    """Items of byte pixels / 255, one float32 array made from every part
    of ``pixels`` in turn, labels 0-9, and ids ``{prefix}{i:05d}``
    numbered from 0 in each ``(prefix, count)`` run."""
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(
            f"label {labels[bad[0]]} out of range 0-9 at {unit} {bad[0]}")
    images = np.concatenate(pixels, dtype=np.float32)
    images /= np.float32(255.0)
    return Dataset([f"{prefix}{i:05d}" for prefix, count in id_runs
                    for i in range(count)], labels, images)


def _list_lines(text: str):
    """(number, line, stripped comma fields) of each non-blank, non-# line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, [p.strip() for p in line.split(",")]


def parse_triplet_list(text: str) -> list[TripletSample]:
    """Parse ``anchor_id,positive_id,negative_id`` lines; ``#`` comments and
    blank lines are skipped.  Raises ``FormatError`` with the line number on
    any malformed line."""
    triplets = []
    for lineno, raw, parts in _list_lines(text):
        if len(parts) != 3 or not all(parts):
            raise FormatError(
                f"line {lineno}: expected 'anchor,positive,negative', "
                f"got {raw!r}")
        try:
            triplets.append(TripletSample(*parts))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return triplets


def parse_query_list(text: str) -> list[tuple[str, list[str]]]:
    """Parse ``query_id,truth_id[,...]`` lines into ``(query_id, truth_ids)``
    pairs, skipping blanks and ``#`` comments.  Raises ``FormatError`` with
    the line number on a malformed line, and ``DataError`` if no line is
    usable."""
    queries = []
    for lineno, raw, parts in _list_lines(text):
        if len(parts) < 2 or not all(parts):
            raise FormatError(
                f"line {lineno}: expected query_id,truth_id[,...], "
                f"got {raw!r}")
        queries.append((parts[0], parts[1:]))
    if not queries:
        raise DataError("query list contains no usable lines")
    return queries


def write_dataset(path: str, dataset: Dataset) -> None:
    """Serialize ``dataset`` to the internal container format, atomically;
    an id longer than 65535 UTF-8 bytes is refused before any record is
    written."""
    with atomic_write(path) as fh:
        fh.write(pack_header(DATASET_MAGIC, DATASET_VERSION) + struct.pack(
            DATASET_HEADER, len(dataset), *dataset.image_shape))
        write_records(fh, dataset.ids, dataset.labels, dataset.images())


def read_dataset(path: str) -> Dataset:
    """Read a dataset container written by :func:`write_dataset`."""
    with open(path, "rb") as fh:
        read_header(fh, DATASET_MAGIC, DATASET_VERSION, "dataset")
        count, *shape = read_struct(fh, DATASET_HEADER,
                                    "item count and image shape")
        return Dataset(*read_records(fh, count, tuple(shape), "item"))


def load_idx_files(image_path: str, label_path: str) -> Dataset:
    return parse_idx(Path(image_path).read_bytes(),
                     Path(label_path).read_bytes())


def load_cifar10_files(paths: list[str]) -> Dataset:
    """Concatenate one or more CIFAR-10 binary batches into one dataset,
    with the fixed ids ``cifar-b{batch}-{record:05d}``."""
    if not paths:
        raise DataError("no CIFAR-10 batch files given")
    return _cifar_dataset([Path(path).read_bytes() for path in paths],
                          [f"cifar-b{pi}-" for pi in range(len(paths))])
