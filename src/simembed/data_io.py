"""Binary dataset ingestion and the package's own dataset container.

Two public formats are parsed bit-exactly: the IDX image/label files used
by MNIST-style datasets (big-endian headers, per the format convention) and
CIFAR-10 binary batches (3073-byte records, channel-planar RGB).  The
internal container uses little-endian integers and 32-bit floats
throughout.  Pixels are always scaled as ``value / 255`` into float32.

Internal container layout::

    magic "DSETV001" | version u32 | count u64 | C,H,W u32
    per item: id_len u16 | id utf-8 | label i32 | C*H*W float32

All parsers either return a dataset satisfying the ``Dataset`` invariants
or raise ``FormatError`` with the offending location; no partial datasets
escape.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

from .container import (atomic_write, pack_header, pack_name, read_exact,
                        read_header, read_name)
from .dataset import Dataset, DatasetItem
from .errors import DataError, FormatError
from .losses import TripletSample

DATASET_MAGIC = b"DSETV001"
DATASET_VERSION = 1
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
CIFAR_RECORD_BYTES = 3073


def _maybe_gunzip(payload: bytes) -> bytes:
    if payload[:2] == b"\x1f\x8b":
        return gzip.decompress(payload)
    return payload


def parse_idx(image_bytes: bytes, label_bytes: bytes,
              id_prefix: str = "idx-") -> Dataset:
    """Parse paired IDX image/label payloads (gzip accepted transparently).

    Image magic must be 0x00000803 (unsigned bytes, 3 dims) and label magic
    0x00000801; counts must agree.  Items keep file order with ids
    ``f"{id_prefix}{index:05d}"`` and pixels scaled to [0, 1].
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
    return _digit_dataset(pixels.reshape(count, 1, rows, cols),
                          np.frombuffer(label_bytes, np.uint8, offset=8),
                          id_prefix, "item")


def parse_cifar10_bin(batch_bytes: bytes,
                      id_prefix: str = "cifar-") -> Dataset:
    """Parse a CIFAR-10 binary batch: records of 1 label byte plus
    3x32x32 channel-planar pixel bytes."""
    batch_bytes = _maybe_gunzip(batch_bytes)
    if len(batch_bytes) == 0:
        raise FormatError("empty CIFAR-10 payload")
    if len(batch_bytes) % CIFAR_RECORD_BYTES:
        raise FormatError(
            f"CIFAR-10 payload of {len(batch_bytes)} bytes is not a "
            f"multiple of {CIFAR_RECORD_BYTES}")
    records = np.frombuffer(batch_bytes, dtype=np.uint8)
    records = records.reshape(-1, CIFAR_RECORD_BYTES)
    return _digit_dataset(records[:, 1:].reshape(-1, 3, 32, 32),
                          records[:, 0], id_prefix, "record")


def _digit_dataset(pixels: np.ndarray, labels: np.ndarray, id_prefix: str,
                   unit: str) -> Dataset:
    """Items ``{id_prefix}{i:05d}`` of byte pixels / 255, labels 0-9."""
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(
            f"label {labels[bad[0]]} out of range 0-9 at {unit} {bad[0]}")
    images = pixels.astype(np.float32) / np.float32(255.0)
    return Dataset(tuple(
        DatasetItem(f"{id_prefix}{i:05d}", images[i], int(labels[i]))
        for i in range(len(labels))))


def parse_triplet_list(text: str) -> list[TripletSample]:
    """Parse ``anchor_id,positive_id,negative_id`` lines; ``#`` comments and
    blank lines are skipped.  Raises ``FormatError`` with the line number on
    any malformed line."""
    triplets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3 or not all(parts):
            raise FormatError(
                f"line {lineno}: expected 'anchor,positive,negative', "
                f"got {raw!r}")
        try:
            triplets.append(TripletSample(*parts))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return triplets


def write_dataset(path: str, dataset: Dataset) -> None:
    """Serialize ``dataset`` to the internal container format, atomically;
    an id longer than 65535 UTF-8 bytes is refused before anything is
    written."""
    names = [pack_name(item.id) for item in dataset.items]
    with atomic_write(path) as fh:
        fh.write(pack_header(DATASET_MAGIC, DATASET_VERSION))
        fh.write(struct.pack("<Q", len(dataset)))
        fh.write(struct.pack("<III", *dataset.image_shape))
        for name, item in zip(names, dataset.items):
            fh.write(name)
            fh.write(struct.pack("<i", item.class_label))
            fh.write(np.ascontiguousarray(
                item.image, dtype="<f4").tobytes())


def read_dataset(path: str) -> Dataset:
    """Read a dataset container written by :func:`write_dataset`."""
    with open(path, "rb") as fh:
        read_header(fh, DATASET_MAGIC, DATASET_VERSION, "dataset")
        (count,) = struct.unpack("<Q", read_exact(fh, 8, "item count"))
        if count == 0:
            raise FormatError("dataset file declares zero items")
        c, h, w = struct.unpack("<III", read_exact(fh, 12, "image shape"))
        pixels = c * h * w
        items = []
        for i in range(count):
            item_id = read_name(fh, f"id of item {i}")
            (label,) = struct.unpack(
                "<i", read_exact(fh, 4, f"label of item {i}"))
            raw = read_exact(fh, 4 * pixels, f"pixels of item {i}")
            image = np.frombuffer(raw, dtype="<f4").reshape(c, h, w)
            items.append(DatasetItem(item_id, image, label))
        if fh.read(1):
            raise FormatError("trailing bytes after final item")
    return Dataset(tuple(items))


def load_idx_files(image_path: str, label_path: str,
                   id_prefix: str = "idx-") -> Dataset:
    with open(image_path, "rb") as fh:
        image_bytes = fh.read()
    with open(label_path, "rb") as fh:
        label_bytes = fh.read()
    return parse_idx(image_bytes, label_bytes, id_prefix=id_prefix)


def load_cifar10_files(paths: list[str],
                       id_prefix: str = "cifar-") -> Dataset:
    """Concatenate one or more CIFAR-10 binary batches into one dataset."""
    if not paths:
        raise DataError("no CIFAR-10 batch files given")
    items: list[DatasetItem] = []
    for pi, path in enumerate(paths):
        with open(path, "rb") as fh:
            part = parse_cifar10_bin(fh.read(),
                                     id_prefix=f"{id_prefix}b{pi}-")
        items.extend(part.items)
    return Dataset(tuple(items))
