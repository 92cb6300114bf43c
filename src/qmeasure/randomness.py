"""Reproducible random streams and random test objects.

All randomness flows through numpy's PCG64 bit generator. A consumer never
shares a stream with another consumer: substream(seed, *tags) derives an
independent generator from SeedSequence([seed, *tags]), so results are a
pure function of the master seed and the tags, independent of evaluation
order, and bit-stable across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Independent PCG64 generator for (seed, tags)."""
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def rand_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized complex vector, Haar-uniform on the unit sphere."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def rand_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2
