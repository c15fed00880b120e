"""Procedural 10-class image generator for desk-scale experiments.

Classes are simple textures and shapes (stripe orientations, disc, ring,
square, checkerboard, gradients, cross).  Every parameter that does not
define the class is jittered per image: phase, position, scale, polarity,
contrast, plus additive noise (std ``NOISE``), and each image is
standardized to a random target contrast around mean 0.5.  First-order
pixel statistics therefore carry no class signal by construction; an
untrained embedding scores near chance on triplet ordering while the
spatial structure keeps the classes easy for a small convolutional net.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .errors import ConfigError

Array = np.ndarray

CLASS_NAMES = (
    "h_stripes", "v_stripes", "diag_stripes", "disc", "ring",
    "square", "checker", "radial_gradient", "linear_gradient", "cross",
)
MIN_SIZE = 17  # a cross's bars sit at least 8 pixels from each edge
NOISE = 0.08  # std of the pixel noise added before standardizing


def _grids(size: int) -> tuple[Array, Array]:
    return np.meshgrid(np.arange(size, dtype=np.float64),
                       np.arange(size, dtype=np.float64), indexing="ij")


def _stripes(coord: Array, rng: np.random.Generator) -> Array:
    period = rng.uniform(4.0, 9.0)
    phase = rng.uniform(0.0, period)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * (coord + phase) / period)


def _draw(class_name: str, size: int, rng: np.random.Generator) -> Array:
    yy, xx = _grids(size)
    c = (size - 1) / 2.0
    if class_name == "h_stripes":
        return _stripes(yy, rng)
    if class_name == "v_stripes":
        return _stripes(xx, rng)
    if class_name == "diag_stripes":
        return _stripes((xx + yy) / np.sqrt(2.0), rng)
    if class_name == "disc":
        cy = c + rng.uniform(-4.0, 4.0)
        cx = c + rng.uniform(-4.0, 4.0)
        r = rng.uniform(5.0, 9.0)
        return np.where((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r, 0.9, 0.05)
    if class_name == "ring":
        cy = c + rng.uniform(-4.0, 4.0)
        cx = c + rng.uniform(-4.0, 4.0)
        r = rng.uniform(6.0, 10.0)
        d2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return np.where((d2 <= r * r) & (d2 >= (r - 2.5) ** 2), 0.9, 0.05)
    if class_name == "square":
        side = rng.integers(8, 15)
        top = rng.integers(0, size - side + 1)
        left = rng.integers(0, size - side + 1)
        img = np.full((size, size), 0.05)
        img[top:top + side, left:left + side] = 0.9
        return img
    if class_name == "checker":
        cell = int(rng.integers(3, 6))
        oy = int(rng.integers(0, 2 * cell))
        ox = int(rng.integers(0, 2 * cell))
        pattern = (((yy + oy) // cell + (xx + ox) // cell) % 2)
        return 0.05 + 0.85 * pattern
    if class_name == "radial_gradient":
        cy = c + rng.uniform(-6.0, 6.0)
        cx = c + rng.uniform(-6.0, 6.0)
        d = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        return 1.0 - d / d.max()
    if class_name == "linear_gradient":
        theta = rng.uniform(0.0, 2.0 * np.pi)
        proj = np.cos(theta) * yy + np.sin(theta) * xx
        lo, hi = proj.min(), proj.max()
        return (proj - lo) / (hi - lo)
    if class_name == "cross":
        cy = int(rng.integers(8, size - 8))
        cx = int(rng.integers(8, size - 8))
        half = int(rng.integers(1, 3))
        img = np.full((size, size), 0.05)
        img[cy - half:cy + half + 1, :] = 0.9
        img[:, cx - half:cx + half + 1] = 0.9
        return img
    raise ConfigError(f"unknown class name {class_name!r}")


def make_shape_image(class_label: int, size: int,
                     rng: np.random.Generator) -> Array:
    """One (1, size, size) float32 image of the given class in [0, 1].

    Each image is polarity-inverted (dark-on-bright instead of
    bright-on-dark) with probability 1/2 and rescaled to mean 0.5 with a
    random per-image contrast, so only spatial arrangement separates the
    classes.
    """
    if not 0 <= class_label < len(CLASS_NAMES):
        raise ConfigError(
            f"class_label must be in [0, {len(CLASS_NAMES)}), "
            f"got {class_label}")
    if size < MIN_SIZE:
        raise ConfigError(f"size must be >= {MIN_SIZE}, got {size}")
    img = _draw(CLASS_NAMES[class_label], size, rng)
    if rng.random() < 0.5:
        img = 1.0 - img
    img = img + rng.normal(0.0, NOISE, img.shape)
    spread = img.std()
    target = rng.uniform(0.15, 0.25)
    img = (img - img.mean()) / (spread if spread > 1e-6 else 1.0) * target
    return np.clip(img + 0.5, 0.0, 1.0).astype(np.float32)[None, :, :]


def make_shape_dataset(count: int, seed: int, size: int = 28) -> Dataset:
    """A balanced dataset of ``count`` images cycling through the 10
    classes, with ids ``shape-00000``, ``shape-00001``, ...; fully
    determined by ``seed``."""
    if count < len(CLASS_NAMES):
        raise ConfigError(
            f"count must be >= {len(CLASS_NAMES)} for class coverage, "
            f"got {count}")
    rng = np.random.default_rng(seed)
    labels = [i % len(CLASS_NAMES) for i in range(count)]
    images = np.stack([make_shape_image(label, size, rng) for label in labels])
    return Dataset([f"shape-{i:05d}" for i in range(count)], labels, images)
