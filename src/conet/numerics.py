"""Seeded randomness and the stable logistic function.

Everything downstream (models, training, evaluation, data synthesis) is
built on the conventions fixed here:

* matrices are C-contiguous (row-major) ``float64`` numpy arrays, vectors
  are 1-D ``float64`` arrays;
* all randomness flows from numpy ``Generator`` objects backed by PCG64,
  derived from a user seed via :func:`derive_rng`, which gives each
  consumer an independent, platform-stable stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "sigmoid",
    "derive_rng",
    "INIT_STD",
]

# Parameter initialisation scale: N(0, 0.01^2) for every learned tensor.
INIT_STD = 0.01


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Return a PCG64 generator for the stream named by ``labels``.

    Streams with different labels are statistically independent, and the
    same ``(seed, labels)`` yields the same stream on every platform.
    Labels may be strings or integers; they are hashed into the PCG64
    seed material, so adding a new stream never perturbs existing ones.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for label in labels:
        digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
        entropy.append(int.from_bytes(digest[:8], "little"))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sigmoid(x):
    """Logistic function, stable for arguments out to +/-700.

    Uses the exp-of-negative-magnitude form so the exponential never
    overflows; ``min(x, -x)`` is ``-|x|`` that keeps the sign bit of a NaN
    argument.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
