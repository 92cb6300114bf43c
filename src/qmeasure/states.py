"""Quantum states: unit vectors, density matrices, projectors, reduction.

Composite index convention used by the whole package: a joint basis label is

    i = i_system * dim_apparatus + i_apparatus

so the system is the slow (left) Kronecker factor. The partial trace below
relies on that one line.

States are bare complex arrays: a state vector is 1-d and a density matrix
2-d. state_vector and density_matrix check what a caller hands them, once,
and return it read-only; the functions below take arrays they checked. A
density matrix the package computes from checked inputs (a projector, a
partial trace, a collapse) is Hermitian, positive and of unit trace to
roundoff, and is not checked again. It is not exactly Hermitian:
the products that form an entry and its mirror image round apart, so M and
M^dagger may differ in the last bits.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimMismatch, NotNormalized, NotPositive, TraceNotOne, ValidationError


def state_vector(x) -> np.ndarray:
    """A pure state: a nonempty finite complex vector of unit norm within
    ROUNDOFF_TOL, read-only. A norm that overflows reads inf and fails."""
    amp = linalg.as_vector(x)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(amp))
    if abs(nrm - 1.0) > linalg.ROUNDOFF_TOL:
        raise NotNormalized(f"norm is {nrm!r}, expected 1 within {linalg.ROUNDOFF_TOL:g}")
    return linalg.readonly(amp)


def density_matrix(m) -> np.ndarray:
    """A density matrix: square, Hermitian, positive semidefinite and of
    unit trace, checked in that order, read-only. A trace that overflows
    reads inf and fails."""
    m = linalg.require_square(m)
    # judged, not replaced by its Hermitian part: a density keeps its bits,
    # and eigvalsh reads one triangle
    linalg.judge_hermitian(m)
    low = float(np.min(np.linalg.eigvalsh(m)))
    if low < -linalg.ROUNDOFF_TOL:
        raise NotPositive(f"lowest eigenvalue is {low:.3e}")
    with np.errstate(over="ignore"):
        tr = complex(np.trace(m))
    if abs(tr - 1.0) > linalg.ROUNDOFF_TOL:
        raise TraceNotOne(f"trace is {tr:.12g}")
    return linalg.readonly(m)


def projector_of(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a state vector, read-only; global
    phase drops out."""
    return linalg.readonly(np.outer(psi, psi.conj()))


def partial_trace(rho: np.ndarray, dim_system: int, dim_apparatus: int) -> np.ndarray:
    """Trace the system factor out of a composite density matrix on a
    dim_system x dim_apparatus product space, keeping the apparatus; of one
    matrix or of each of a stack (..., n, n), as one stacked trace. The
    caller holds density matrices, as projector_of gives them; they
    are not checked again."""
    if dim_system < 1 or dim_apparatus < 1:
        raise ValidationError("factor dimensions must be positive")
    n = dim_system * dim_apparatus
    if rho.shape[-2:] != (n, n):
        raise DimMismatch(f"state shape {rho.shape[-2:]} != ({dim_system} x {dim_apparatus})^2")
    t = rho.reshape(*rho.shape[:-2], dim_system, dim_apparatus, dim_system, dim_apparatus)
    return np.trace(t, axis1=-4, axis2=-2)
