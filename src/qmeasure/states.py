"""Quantum states: unit vectors, density matrices, mixtures, reduction.

Composite index convention used by the whole package: a joint basis label is

    i = i_system * dim_apparatus + i_apparatus

so the system is the slow (left) Kronecker factor. The partial trace below
relies on that one line.

States are immutable. The public constructors validate what a caller hands
them; a density matrix the package computes from already-validated inputs
(a projector, a mixture, a partial trace, a collapse) is Hermitian, positive
and of unit trace to roundoff, and is stored through DensityMatrix._trusted
without being checked again. It is not exactly Hermitian: the products that
form an entry and its mirror image round apart, so M and M^dagger may differ
in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    BadWeights,
    DimMismatch,
    NotNormalized,
    NotPositive,
    TraceNotOne,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = linalg.as_vector(self.amplitudes)
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > linalg.ROUNDOFF_TOL:
            raise NotNormalized(
                f"norm is {nrm!r}, expected 1 within {linalg.ROUNDOFF_TOL:g}"
            )
        object.__setattr__(self, "amplitudes", linalg.readonly(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Scale an arbitrary nonzero vector onto the unit sphere."""
        amp = linalg.as_vector(amplitudes)
        nrm = float(np.linalg.norm(amp))
        if nrm == 0.0:
            raise NotNormalized("cannot normalize the zero vector")
        return cls(amp / nrm)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix, checked in that order."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.require_square(self.matrix)
        # judged, not replaced by its Hermitian part: a density keeps its bits,
        # and eigvalsh reads one triangle
        linalg.judge_hermitian(m)
        low = float(np.min(np.linalg.eigvalsh(m)))
        if low < -linalg.ROUNDOFF_TOL:
            raise NotPositive(f"lowest eigenvalue is {low:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > linalg.ROUNDOFF_TOL:
            raise TraceNotOne(f"trace is {tr:.12g}")
        object.__setattr__(self, "matrix", linalg.readonly(m))

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityMatrix":
        """Store a matrix that is a density matrix to roundoff by the way it
        was computed, unchecked."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", linalg.readonly(matrix))
        return rho

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CompositeDims:
    """Factor dimensions of a system (x) apparatus product space."""

    dim_system: int
    dim_apparatus: int

    def __post_init__(self) -> None:
        if self.dim_system < 1 or self.dim_apparatus < 1:
            raise ValidationError("factor dimensions must be positive")

    @property
    def total(self) -> int:
        return self.dim_system * self.dim_apparatus


def as_state(psi) -> StateVector:
    return psi if isinstance(psi, StateVector) else StateVector(psi)


def as_density(rho) -> DensityMatrix:
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


def projector_of(psi) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|; global phase drops out."""
    amp = as_state(psi).amplitudes
    return DensityMatrix._trusted(np.outer(amp, amp.conj()))


def mix(weights, states: Sequence[DensityMatrix]) -> DensityMatrix:
    """Convex combination sum_k w_k rho_k of density matrices."""
    w = linalg.require_weights(weights, error=BadWeights)
    if w.size != len(states):
        raise BadWeights(f"{w.size} weights for {len(states)} states")
    rhos = [as_density(s) for s in states]
    dim = rhos[0].dim
    if any(r.dim != dim for r in rhos):
        raise DimMismatch("mixture components live on different spaces")
    acc = np.zeros((dim, dim), dtype=complex)
    for wk, rk in zip(w, rhos):
        acc += wk * rk.matrix
    return DensityMatrix._trusted(acc)


def partial_trace(rho, dims: CompositeDims) -> DensityMatrix:
    """Trace the system factor out of a composite density matrix, keeping
    the apparatus."""
    r = as_density(rho)
    if r.dim != dims.total:
        raise DimMismatch(
            f"state dim {r.dim} != {dims.dim_system} x {dims.dim_apparatus}"
        )
    t = r.matrix.reshape(
        dims.dim_system, dims.dim_apparatus, dims.dim_system, dims.dim_apparatus
    )
    return DensityMatrix._trusted(np.trace(t, axis1=0, axis2=2))
