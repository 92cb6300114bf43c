"""Hermitian observables, joint diagonalization, statistics.

The spectral measure of an observable is the commutative algebra it
generates (`algebra.generate_algebra([a])`): a point spectrum, one isometry
block per outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import (
    DimMismatch,
    NotCommuting,
    ValidationError,
)
from .linalg import cluster_eigenvalues, default_cluster_tol, unitary_exp
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
    """Commutator check scaled by the product of the max-entry norms."""
    oa, ob = as_observable(a), as_observable(b)
    if oa.dim != ob.dim:
        raise DimMismatch(f"dims {oa.dim} and {ob.dim}")
    defect = float(np.max(np.abs(oa.matrix @ ob.matrix - ob.matrix @ oa.matrix)))
    scale = float(np.max(np.abs(oa.matrix))) * float(np.max(np.abs(ob.matrix)))
    return defect <= linalg.ROUNDOFF_TOL * scale


def joint_eigenblocks(
    observables, tol_cluster: float | None = None
) -> list[tuple[np.ndarray, tuple[float, ...]]]:
    """Common eigenspace blocks of a commuting Hermitian family.

    Diagonalizes the first observable, then recursively refines each
    degenerate cluster by the next observable projected into it. Returns
    (column block, eigenvalue tuple) leaves with cluster means as the
    representative eigenvalues. The means of gap-separated clusters are
    distinct, so the tuples strictly ascend in lexicographic order.
    """
    obs = [as_observable(o) for o in observables]
    if not obs:
        raise ValidationError("need at least one observable")
    dim = obs[0].dim
    for o in obs[1:]:
        if o.dim != dim:
            raise DimMismatch("observables live on different spaces")
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if not commutes(obs[i], obs[j]):
                raise NotCommuting(f"observables {i} and {j} do not commute")
    if tol_cluster is None:
        # the first width comes from the full spectrum refine computes first
        ctols = [None] + [default_cluster_tol(np.linalg.eigvalsh(o.matrix)) for o in obs[1:]]
    else:
        ctols = [float(tol_cluster)] * len(obs)

    def refine(cols: np.ndarray, k: int) -> list[tuple[np.ndarray, tuple[float, ...]]]:
        if k == len(obs):
            return [(cols, ())]
        block = cols.conj().T @ obs[k].matrix @ cols
        block = (block + block.conj().T) / 2
        w, u = np.linalg.eigh(block)
        tol = default_cluster_tol(w) if ctols[k] is None else ctols[k]
        leaves = []
        for g in cluster_eigenvalues(w, tol):
            rep = float(np.mean(w[list(g)]))
            for sub, tail in refine(cols @ u[:, list(g)], k + 1):
                leaves.append((sub, (rep, *tail)))
        return leaves

    return refine(np.eye(dim, dtype=complex), 0)


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
