"""Hermitian observables and their dynamics.

An observable's statistics and its dynamics are both read from the
commutative algebra it generates (`algebra.generate_algebra([a])`): a point
spectrum, one isometry block per outcome. Born's distribution in a state is
that state restricted to the algebra (`algebra.restrict_state`), and
exp(-itH) is the element of the algebra H generates that takes the value
exp(-it lambda) at each eigenvalue lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DimMismatch, ValidationError
from .states import StateVector, as_state

if TYPE_CHECKING:
    from .algebra import SpectralAlgebra


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian matrix. Any Hermitian matrix is accepted."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.require_hermitian(self.matrix)
        object.__setattr__(self, "matrix", linalg.readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_observable(a) -> Observable:
    return a if isinstance(a, Observable) else Observable(a)


def evolve(psi, generated: SpectralAlgebra, t: float) -> StateVector:
    """Apply exp(-i t H) to a pure state, given the algebra
    generate_algebra([H]) that the Hamiltonian H generates, so that one
    decomposition of H serves every time t."""
    p = as_state(psi)
    if generated.characters.shape[1] != 1:
        raise ValidationError("dynamics need the algebra of a single generator")
    if p.dim != generated.dim:
        raise DimMismatch(f"state dim {p.dim}, generator dim {generated.dim}")
    phases = np.exp(-1j * float(t) * generated.characters[:, 0])
    return StateVector(generated.element(phases) @ p.amplitudes)
