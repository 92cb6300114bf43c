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


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """dim x dim complex Ginibre matrix: independent entries of unit variance."""
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a Ginibre matrix or a stack (..., d, d)
    of them: QR, with each column's phase fixed by the diagonal of R. One
    stacked QR gives every slice the bits of its own."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def rand_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    return haar_unitaries(ginibre(dim, rng))


def random_cases(
    dim: int, seed: int, tags: tuple[int, ...], cases: range
) -> tuple[np.ndarray, np.ndarray]:
    """A Haar state and then a Ginibre matrix from substream(seed, *tags, i)
    for each case i, in order: the (n, dim) states and the (n, dim, dim)
    Haar unitaries, from one stacked QR, of the n cases. Case i draws what
    rand_state and then rand_unitary draw from its stream."""
    states = np.empty((len(cases), dim), dtype=complex)
    ginibres = np.empty((len(cases), dim, dim), dtype=complex)
    for k, i in enumerate(cases):
        rng = substream(seed, *tags, i)
        states[k] = rand_state(dim, rng)
        ginibres[k] = ginibre(dim, rng)
    return states, haar_unitaries(ginibres)


def rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2
