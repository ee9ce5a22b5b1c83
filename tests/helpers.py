"""Helpers that only the tests use."""

import hashlib
import struct

import numpy as np

from tsedarts.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def checksum(net) -> str:
    """SHA-256 of a net's weights, in name order."""
    h = hashlib.sha256()
    for k in sorted(net.params):
        h.update(np.ascontiguousarray(net.params[k].value).tobytes())
    return h.hexdigest()


def encode_idx_images(images: np.ndarray) -> bytes:
    n, h, w = images.shape
    return struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w) + images.astype(np.uint8).tobytes()


def encode_idx_labels(labels: np.ndarray) -> bytes:
    return struct.pack(">II", IDX_LABELS_MAGIC, len(labels)) + labels.astype(np.uint8).tobytes()
