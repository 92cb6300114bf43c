"""Hermitian observables and their dynamics.

An observable is a Hermitian complex array, as linalg.require_hermitian
checks it. Its statistics and its dynamics are both read from the
commutative algebra it generates (`algebra.generate_algebra([a])`): a point
spectrum, one isometry block per outcome. Born's distribution in a state is
that state restricted to the algebra (`algebra.restrict_state`), and
exp(-itH) is the element of the algebra H generates that takes the value
exp(-it lambda) at each eigenvalue lambda.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimMismatch, ValidationError


def evolve(states: np.ndarray, generated, times) -> np.ndarray:
    """Apply exp(-i t H) to each state of an (n, d) stack, case c at time
    times[c] under its own Hamiltonian: generated is the (labels,
    characters, basis) that generate_algebras([H]) gives for the (n, d, d)
    stack of Hamiltonians, so that one decomposition serves every time.
    The elements exp(-i t H) of the cases are one stacked product, and they
    act on the states as one stacked matrix-vector product."""
    labels, chars, basis = generated
    if chars.shape[1] != 1:
        raise ValidationError("dynamics need the algebra of a single generator")
    if np.shape(states) != labels.shape:
        raise DimMismatch(f"states of shape {np.shape(states)}, generator spectra {labels.shape}")
    linalg.require_normalized(states)
    phases = np.exp(-1j * np.asarray(times, dtype=float)[:, None] * chars[labels, 0])
    return (linalg.from_eigenbasis(basis, phases) @ states[..., None])[..., 0]
