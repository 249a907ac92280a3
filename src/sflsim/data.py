"""Datasets: synthetic Gaussian blob images, IDX file IO, sharding, flips.

Images are float32 arrays shaped (N, C, H, W) with values in [0, 1]. A
Dataset carries disjoint index splits: ``pretrain`` (central warm-up),
``train`` (federated rounds), ``test`` (evaluation).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

SPLIT_FRACTIONS = {"pretrain": 0.25, "train": 0.50, "test": 0.25}
# What a blobs dataset and gen-data use unless told otherwise.
BLOB_DEFAULTS = {"per_class": 200, "noise_sigma": 0.05}


class DataError(ValueError):
    """Malformed dataset file or invalid sharding request."""


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray
    labels: np.ndarray
    splits: dict

    def subset(self, split):
        idx = self.splits[split]
        return self.images[idx], self.labels[idx]


def make_splits(n, seed):
    """Disjoint pretrain/train/test index arrays covering range(n)."""
    order = np.random.default_rng(seed).permutation(n)
    n_pre = int(round(n * SPLIT_FRACTIONS["pretrain"]))
    n_train = int(round(n * SPLIT_FRACTIONS["train"]))
    return {
        "pretrain": np.sort(order[:n_pre]),
        "train": np.sort(order[n_pre : n_pre + n_train]),
        "test": np.sort(order[n_pre + n_train :]),
    }


def generate_blobs(classes, per_class, image_shape, noise_sigma, seed):
    """Class-template images plus Gaussian pixel noise, clipped to [0, 1].

    Each class gets a fixed random template; samples are template + sigma *
    noise. Low sigma makes classes template-separable, which the training
    acceptance runs rely on. A set too large to allocate raises DataError.
    """
    rng = np.random.default_rng(seed)
    try:
        templates = rng.uniform(0.0, 1.0, size=(classes,) + tuple(image_shape))
        images = np.empty((classes * per_class,) + tuple(image_shape), dtype=np.float32)
        labels = np.empty(classes * per_class, dtype=np.int64)
    except (MemoryError, ValueError) as exc:  # ValueError: numpy's own size limits
        raise DataError(f"cannot allocate {classes} x {per_class} blob images: {exc}") from exc
    for c in range(classes):
        noise = rng.normal(0.0, noise_sigma, size=(per_class,) + tuple(image_shape))
        block = np.clip(templates[c][None] + noise, 0.0, 1.0)
        images[c * per_class : (c + 1) * per_class] = block.astype(np.float32)
        labels[c * per_class : (c + 1) * per_class] = c
    order = rng.permutation(len(labels))
    images, labels = images[order], labels[order]
    return Dataset(images=images, labels=labels, splits=make_splits(len(labels), seed))


def _read_idx(path, header, magic):
    """(header counts, uint8 payload) of one IDX ubyte file; the payload
    must be exactly the product of the counts."""
    with open(path, "rb") as fh:
        raw = fh.read()
    size = struct.calcsize(header)
    if len(raw) < size:
        raise DataError(f"{path}: truncated header (need {size} bytes, have {len(raw)})")
    found, *counts = struct.unpack(header, raw[:size])
    if found != magic:
        raise DataError(f"{path}: bad magic 0x{found:08x}, want 0x{magic:08x}")
    need = size + math.prod(counts)  # Python ints: cannot wrap
    if len(raw) < need:
        raise DataError(f"{path}: truncated payload (need {need} bytes, have {len(raw)})")
    if len(raw) > need:
        raise DataError(f"{path}: trailing bytes after payload")
    return counts, np.frombuffer(raw, dtype=np.uint8, offset=size)


def load_idx(image_path, label_path, seed):
    """Load an IDX ubyte image/label file pair into a Dataset.

    Big-endian headers: images magic 0x00000803 then count/rows/cols, labels
    magic 0x00000801 then count. Pixels are scaled to [0, 1] float32 and a
    channel axis is added. The splits are make_splits(count, seed).
    """
    (count, rows, cols), pixels = _read_idx(image_path, ">IIII", IDX_IMAGE_MAGIC)
    if rows * cols > 2**31:
        raise DataError(f"{image_path}: {rows}x{cols} images exceed 2**31 pixels")
    images = (pixels.reshape(count, rows, cols).astype(np.float32) / 255.0)[:, None, :, :]
    (label_count,), labels = _read_idx(label_path, ">II", IDX_LABEL_MAGIC)
    if label_count != count:
        raise DataError(f"image/label count mismatch: {count} images, {label_count} labels")
    return Dataset(images=images, labels=labels.astype(np.int64), splits=make_splits(count, seed))


def write_idx(image_path, label_path, images, labels):
    """Write single-channel [0, 1] float images + integer labels as IDX ubyte files."""
    if images.ndim != 4 or images.shape[1] != 1:
        raise DataError(f"write_idx needs (n, 1, h, w) images, got {images.shape}")
    if len(labels) != len(images):
        raise DataError("image/label count mismatch")
    if labels.min() < 0 or labels.max() > 255:
        raise DataError("labels must fit in a ubyte")
    n, _, rows, cols = images.shape
    pixels = np.clip(np.round(images[:, 0] * 255.0), 0, 255).astype(np.uint8)
    with open(image_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(label_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        fh.write(labels.astype(np.uint8).tobytes())


def shard_uniform(indices, k, seed):
    """Split an index array into k disjoint near-equal shards, seeded shuffle."""
    indices = np.asarray(indices)
    if k < 1 or k > len(indices):
        raise DataError(f"cannot cut {len(indices)} samples into {k} shards")
    order = np.random.default_rng(seed).permutation(indices)
    return [np.sort(part) for part in np.array_split(order, k)]


def flip_mask(n, rng, p=0.5):
    """Which of ``n`` images to flip: each independently with probability p."""
    return rng.random(n) < p


def hflip(images, flip):
    """A copy of ``images``, those the mask ``flip`` marks flipped horizontally."""
    out = images.copy()
    out[flip] = out[flip][:, :, :, ::-1]
    return out


def augment_hflip(images, rng, p=0.5):
    """Horizontally flip each image independently with probability p."""
    return hflip(images, flip_mask(len(images), rng, p))
