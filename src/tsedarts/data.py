"""Deterministic desk-scale data supply.

Synthetic Gaussian-blob classification, an IDX (MNIST-family) loader,
and seeded splitting/batching.  Batch sequences are replayable from
(seed, epoch) so an unrolling window can consume the identical batch
order twice.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    pass


IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    features: np.ndarray   # (n, d) vectors or (n, c, h, w) images
    labels: np.ndarray     # int labels in [0, k)
    classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) < 1:
            raise DataError("empty dataset")
        if len(self.features) != len(self.labels):
            raise DataError("feature/label count mismatch")
        if self.labels.min() < 0 or self.labels.max() >= self.classes:
            raise DataError(f"label outside [0, {self.classes})")
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite features")

    def __len__(self) -> int:
        return len(self.features)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.classes)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    val_fraction: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.train_fraction <= 1.0):
            raise DataError("train fraction must be in (0, 1]")
        if not (0.0 <= self.val_fraction <= 1.0):
            raise DataError("val fraction must be in [0, 1]")
        if self.train_fraction + self.val_fraction > 1.0 + 1e-12:
            raise DataError("fractions sum above 1")


def _cluster_means(classes: int, dim: int, n: int, noise: float) -> np.ndarray:
    """Checks a synthetic set's arguments; returns one cluster mean per class."""
    if classes < 2 or dim < 1 or n < classes or not 0 <= noise < np.inf:
        raise DataError("need classes >= 2, dim >= 1, n >= classes, 0 <= noise < inf")
    means = np.zeros((classes, dim))
    for c in range(classes):
        means[c, c % dim] = 1.0 + c // dim
    return means


def synth_blobs(classes: int, dim: int, n: int, noise: float, seed: int) -> Dataset:
    """`classes` Gaussian clusters with unit-spaced axis-aligned means."""
    means = _cluster_means(classes, dim, n, noise)
    rng = np.random.default_rng(seed)
    # Balanced labels: counts differ by at most one.
    labels = np.arange(n) % classes
    feats = means[labels] + noise * rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    return Dataset(feats[perm], labels[perm], classes)


def synth_xor(classes: int, dim: int, n: int, noise: float, seed: int) -> Dataset:
    """Antipodal cluster pairs: each class c draws from +m_c or -m_c with
    equal probability, with the same unit-spaced axis-aligned means as
    synth_blobs.  Every class is symmetric about the origin, so no linear
    classifier beats chance; a nonlinear model separates the clusters."""
    means = _cluster_means(classes, dim, n, noise)
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    signs = rng.choice([-1.0, 1.0], size=n)
    feats = signs[:, None] * means[labels] + noise * rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    return Dataset(feats[perm], labels[perm], classes)


def _read_idx(path: str, expect_magic: int):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise DataError(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expect_magic:
        raise DataError(f"{path}: bad magic 0x{magic:08x}, expected 0x{expect_magic:08x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataError(f"{path}: truncated dimension block")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    body = np.frombuffer(raw, dtype=np.uint8, offset=header)
    if body.size != count:
        raise DataError(f"{path}: expected {count} bytes, found {body.size}")
    return body.reshape(dims)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    if images.shape[0] != labels.shape[0]:
        raise DataError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    n, h, w = images.shape
    feats = images.astype(np.float64).reshape(n, 1, h, w) / 255.0
    classes = int(labels.max()) + 1 if labels.size else 1
    return Dataset(feats, labels.astype(np.int64), max(classes, 2))


def encode_idx_images(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + images.astype(np.uint8).tobytes()


def encode_idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + labels.astype(np.uint8).tobytes()


def split(ds: Dataset, spec: SplitSpec):
    """Disjoint (train, val) via a seeded permutation; val is None when
    the val fraction is 0.  DataError when a part would be empty."""
    n = len(ds)
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    n_train = int(round(spec.train_fraction * n))
    n_val = int(round(spec.val_fraction * n))
    n_train = min(n_train, n)
    n_val = min(n_val, n - n_train)
    if n_train < 1:
        raise DataError("empty train part")
    if spec.val_fraction > 0 and n_val < 1:
        raise DataError(f"val fraction {spec.val_fraction} of {n} samples is empty")
    train = ds.subset(perm[:n_train])
    val = ds.subset(perm[n_train:n_train + n_val]) if n_val >= 1 else None
    return train, val


def batches(ds: Dataset, batch_size: int, seed: int = 0, epoch: int = 0) -> list:
    """Seeded shuffled batches; replayable from (seed, epoch); the last
    short batch is kept."""
    if batch_size < 1:
        raise DataError("batch size must be positive")
    if batch_size > len(ds):
        raise DataError("batch size exceeds dataset size")
    rng = np.random.default_rng((seed, epoch))
    perm = rng.permutation(len(ds))
    out = []
    for start in range(0, len(ds), batch_size):
        idx = perm[start:start + batch_size]
        out.append((ds.features[idx], ds.labels[idx]))
    return out


def batch_stream(ds: Dataset, batch_size: int, seed: int = 0):
    """Endless batch iterator cycling over reshuffled epochs."""
    epoch = 0
    while True:
        for b in batches(ds, batch_size, seed=seed, epoch=epoch):
            yield b
        epoch += 1
