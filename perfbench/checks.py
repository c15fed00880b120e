"""The benchmark's own readers and reference computations.

Nothing here calls simembed: outputs of the program are checked against
these, never against stored copies of earlier output.
"""

from __future__ import annotations

import struct

import numpy as np

EMBED_MAGIC = b"EMBIDX01"
EMBED_HEADER = struct.Struct("<8sIdIQ")  # magic, version, k, dim, count
DATASET_HEADER = struct.Struct("<8sIQIII")  # magic, version, count, C, H, W


def embed_record_dtype(id_bytes: int, dim: int) -> np.dtype:
    """One EMBIDX01 record whose id is ``id_bytes`` long, packed."""
    return np.dtype([("id_len", "<u2"), ("id", f"S{id_bytes}"),
                     ("label", "<i4"), ("vector", "<f4", (dim,))])


def _records(data: bytes, offset: int, count: int, tail: int,
             what: str) -> tuple[list[str], np.ndarray, list[int]]:
    """Walk ``id_len u16 | id | label i32 | tail bytes`` records."""
    ids, labels, starts = [], np.empty(count, dtype=np.int64), []
    for i in range(count):
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        ids.append(data[offset:offset + id_len].decode("utf-8"))
        offset += id_len
        (labels[i],) = struct.unpack_from("<i", data, offset)
        offset += 4
        starts.append(offset)
        offset += tail
    if offset != len(data):
        raise ValueError(f"{what}: records end at byte {offset}, file has "
                         f"{len(data)}")
    return ids, labels, starts


def read_index(path: str) -> dict:
    """Parse an EMBIDX01 file; the size must match the layout exactly."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, k, dim, count = EMBED_HEADER.unpack_from(data)
    if magic != EMBED_MAGIC or version != 1:
        raise ValueError(f"{path}: bad header {magic!r} v{version}")
    ids, labels, starts = _records(data, EMBED_HEADER.size, count, 4 * dim,
                                   path)
    expected = EMBED_HEADER.size + sum(2 + len(i.encode()) + 4 + 4 * dim
                                       for i in ids)
    if expected != len(data):
        raise ValueError(f"{path}: {len(data)} bytes, layout gives "
                         f"{expected}")
    flat = np.frombuffer(data, dtype=np.uint8)
    vectors = np.stack([flat[s:s + 4 * dim] for s in starts]).view("<f4")
    return {"exponent": k, "dim": dim, "ids": ids, "labels": labels,
            "vectors": vectors.reshape(count, dim)}


def read_dataset(path: str) -> dict:
    """Parse a DSETV001 file into ids, labels and (N, C, H, W) images."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version, count, c, h, w = DATASET_HEADER.unpack_from(data)
    if magic != b"DSETV001" or version != 1:
        raise ValueError(f"{path}: bad header {magic!r} v{version}")
    ids, labels, starts = _records(data, DATASET_HEADER.size, count,
                                   4 * c * h * w, path)
    flat = np.frombuffer(data, dtype=np.uint8)
    images = np.stack([flat[s:s + 4 * c * h * w] for s in starts])
    return {"ids": ids, "labels": labels,
            "images": images.view("<f4").reshape(count, c, h, w)}


def _correlate(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
               padding: int) -> np.ndarray:
    """Direct cross-correlation, one kernel tap at a time."""
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    f, _, kh, kw = w.shape
    h_out = (x.shape[2] - kh) // stride + 1
    w_out = (x.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], f, h_out, w_out)) + b[None, :, None, None]
    for p in range(kh):
        for q in range(kw):
            window = x[:, :, p:p + stride * h_out:stride,
                       q:q + stride * w_out:stride]
            out += np.tensordot(window, w[:, :, p, q], axes=([1], [1])
                                ).transpose(0, 3, 1, 2)
    return out


def _block_mean(x: np.ndarray, f: int) -> np.ndarray:
    n, c, h, w = x.shape
    return x.reshape(n, c, h // f, f, w // f, f).mean(axis=(3, 5))


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def reference_embed(images: np.ndarray, params, spec: dict) -> np.ndarray:
    """Inference forward pass of the multi-scale net in float64."""
    p = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
    x = images.astype(np.float64)
    merged = []
    for bi, branch in enumerate(spec["branches"]):
        h = _block_mean(x, branch["factor"])
        for li, (stride, padding, pool) in enumerate(branch["convs"]):
            h = _correlate(h, p[f"branch{bi}.conv{li}.weight"],
                           p[f"branch{bi}.conv{li}.bias"], stride, padding)
            h = np.maximum(h, 0.0)
            if pool:
                n, c, hh, ww = h.shape
                h = h.reshape(n, c, hh // 2, 2, ww // 2, 2).max(axis=(3, 5))
        h = h.reshape(len(h), -1) @ p[f"branch{bi}.fc.weight"]
        merged.append(_unit(h + p[f"branch{bi}.fc.bias"]))
    head = np.concatenate(merged, axis=1) @ p["head.weight"]
    return _unit(head + p["head.bias"])


def lk_powers(points: np.ndarray, q: np.ndarray, k: float,
              scratch: np.ndarray | None = None) -> np.ndarray:
    """``sum_i |p_i - q_i|^k`` per row of ``points``, in float64; ``q`` is
    one vector or one row per point.  ``scratch``, float64 of the shape of
    ``points``, saves allocating the temporaries."""
    points = np.asarray(points, dtype=np.float64)
    buf = np.empty(points.shape) if scratch is None else scratch
    np.subtract(points, np.asarray(q, dtype=np.float64), out=buf)
    np.abs(buf, out=buf)
    if k == 0.25:
        np.sqrt(buf, out=buf)
        np.sqrt(buf, out=buf)
    else:
        np.power(buf, k, out=buf)
    return buf.sum(axis=1)


def exact_topk(points: np.ndarray, ids: np.ndarray, q: np.ndarray, k: int,
               exponent: float, scratch: np.ndarray | None = None,
               ) -> list[tuple[str, float]]:
    """Top-k by (distance, id) over float64 fractional distances."""
    dist = lk_powers(points, q, exponent, scratch) ** (1.0 / exponent)
    kth = np.partition(dist, k - 1)[k - 1]
    near = np.nonzero(dist <= kth)[0]
    order = near[np.lexsort((ids[near], dist[near]))][:k]
    return [(str(ids[i]), float(dist[i])) for i in order]


def triplets_from(labels: np.ndarray, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    """``count`` (anchor, positive, negative) row triplets."""
    by_class = {c: np.nonzero(labels == c)[0] for c in np.unique(labels)}
    classes = sorted(by_class)
    rows = []
    while len(rows) < count:
        c, other = rng.choice(classes, 2, replace=False)
        a, p = rng.choice(by_class[c], 2, replace=False)
        rows.append((a, p, rng.choice(by_class[other])))
    return np.array(rows)


def triplet_accuracy(vectors: np.ndarray, triplets: np.ndarray,
                     k: float) -> float:
    """Share of triplets whose positive is strictly nearer the anchor."""
    v = np.asarray(vectors, dtype=np.float64)
    a, p, n = v[triplets[:, 0]], v[triplets[:, 1]], v[triplets[:, 2]]
    return float(np.mean(lk_powers(a, p, k) < lk_powers(a, n, k)))
