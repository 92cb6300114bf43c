"""Hermitian observables, commutation, statistics.

The spectral measure of an observable is the commutative algebra it
generates (`algebra.generate_algebra([a])`): a point spectrum, one isometry
block per outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DimMismatch, ValidationError
from .linalg import unitary_exp
from .states import StateVector, as_density, as_state

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


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Outcome values with their probabilities."""

    outcomes: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        out = np.asarray(self.outcomes, dtype=float)
        p = linalg.require_weights(self.probabilities, "probabilities")
        if out.shape != p.shape:
            raise ValidationError("outcomes and probabilities must match in length")
        object.__setattr__(self, "outcomes", linalg.readonly(out))
        object.__setattr__(self, "probabilities", linalg.readonly(p))


def commutes(a, b) -> bool:
    """Commutator check in units of the max-entry norms, so that no product
    overflows."""
    oa, ob = as_observable(a), as_observable(b)
    if oa.dim != ob.dim:
        raise DimMismatch(f"dims {oa.dim} and {ob.dim}")
    ma = oa.matrix / (float(np.max(np.abs(oa.matrix))) or 1.0)
    mb = ob.matrix / (float(np.max(np.abs(ob.matrix))) or 1.0)
    return float(np.max(np.abs(ma @ mb - mb @ ma))) <= linalg.ROUNDOFF_TOL


def born_distribution(rho, pvm: SpectralAlgebra) -> OutcomeDistribution:
    """Outcome probabilities p_k = Tr(V_k^dagger rho V_k) over the spectrum
    of a single observable, the algebra that observable generates."""
    r = as_density(rho)
    if pvm.characters.shape[1] != 1:
        raise ValidationError("outcomes need the algebra of a single observable")
    if r.dim != pvm.dim:
        raise DimMismatch(f"state dim {r.dim}, measure dim {pvm.dim}")
    return OutcomeDistribution(pvm.characters[:, 0], pvm.block_traces(r.matrix))


def evolve(psi, h, t: float) -> StateVector:
    """Apply exp(-i t H) to a pure state."""
    p = as_state(psi)
    obs = as_observable(h)
    if p.dim != obs.dim:
        raise DimMismatch(f"state dim {p.dim}, generator dim {obs.dim}")
    return StateVector(unitary_exp(obs.matrix, t) @ p.amplitudes)
