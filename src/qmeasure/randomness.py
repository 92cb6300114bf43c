"""Reproducible random streams and random test objects.

All randomness flows through numpy's PCG64 bit generator. A consumer never
shares a stream with another consumer: substream(seed, *tags) derives an
independent generator from SeedSequence([seed, *tags]), so results are a
pure function of the master seed and the tags, independent of evaluation
order, and bit-stable across platforms. A stack of random cases draws all
the normals of each case from its stream in one call: the same variates, in
the same order, that rand_state, ginibre and rand_unitary draw one object at
a time, so each case has the same bits alone or in a stack.
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


def _draw_cases(
    dim: int, seed: int, tags: tuple[int, ...], cases: range, state_first: bool
) -> tuple[np.ndarray, np.ndarray]:
    """A Haar state and a Haar unitary from substream(seed, *tags, i) for each
    case i, in order: the (n, dim) states and the (n, dim, dim) unitaries of
    the n cases. Each stream gives all 2 dim + 2 dim^2 normals of its case in
    one standard_normal call, the state's before the Ginibre matrix's when
    state_first, else after them; a single call draws the same variates as
    the calls of rand_state and ginibre in that order. The states are
    normalized one at a time, as rand_state does, and the Ginibre matrices
    go through one stacked QR."""
    n_state, n_ginibre = 2 * dim, 2 * dim * dim
    x = np.empty((len(cases), n_state + n_ginibre))
    for row, i in zip(x, cases):
        substream(seed, *tags, i).standard_normal(out=row)
    if state_first:
        v, z = x[:, :n_state], x[:, n_state:]
    else:
        z, v = x[:, :n_ginibre], x[:, n_ginibre:]
    states = v[:, :dim] + 1j * v[:, dim:]
    states /= np.array([np.linalg.norm(psi) for psi in states])[:, None]
    ginibres = (z[:, : dim * dim] + 1j * z[:, dim * dim :]) / np.sqrt(2)
    return states, haar_unitaries(ginibres.reshape(-1, dim, dim))


def random_cases(
    dim: int, seed: int, tags: tuple[int, ...], cases: range
) -> tuple[np.ndarray, np.ndarray]:
    """A Haar state and then a Ginibre matrix from substream(seed, *tags, i)
    for each case i, in order: the (n, dim) states and the (n, dim, dim)
    Haar unitaries, from one stacked QR, of the n cases. Case i draws what
    rand_state and then rand_unitary draw from its stream, in one call."""
    return _draw_cases(dim, seed, tags, cases, state_first=True)


def rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2
