"""Commutative observable algebras and the statistics they can express.

A finite commutative algebra of Hermitian matrices is fixed by its joint
eigenspaces. Each eigenspace is a point of the spectrum, held as an isometry
block whose orthonormal columns span it; the tuple of generator eigenvalues
on it is the point's character, and evaluating an element at a point (its
Gelfand transform) is just reading off the constant the element takes on
that block. The projection valued measure of one observable is the algebra
that observable generates. A state restricted to the algebra is then
nothing but a probability weight per point, and such a weight vector has
exactly one decomposition into point masses. That uniqueness is the payoff:
unrestricted density matrices admit many pure decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimMismatch, NotInAlgebra, ValidationError
from .observables import as_observable, joint_eigenblocks
from .states import DensityMatrix, as_density

_TOL_ISOMETRY = 1e-10
_TOL_RECON = 1e-9
_WEIGHT_FLOOR = -1e-12
_WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectralAlgebra:
    """Commutative algebra held as its finite spectrum: one n x m_k isometry
    block per spectrum point and one character tuple per point, strictly
    ascending in lexicographic order.

    The blocks side by side must form a unitary V. That single check makes
    every block orthonormal, the blocks' spans pairwise orthogonal, and their
    projectors V_k V_k^dagger a resolution of the identity.
    """

    blocks: tuple[np.ndarray, ...]
    characters: np.ndarray

    def __post_init__(self) -> None:
        blocks = tuple(linalg.as_matrix(b) for b in self.blocks)
        chars = np.asarray(self.characters, dtype=float)
        if not blocks:
            raise ValidationError("algebra needs at least one spectrum point")
        if chars.ndim != 2 or chars.shape[0] != len(blocks) or chars.shape[1] == 0:
            raise ValidationError("need one character tuple per block")
        dim = blocks[0].shape[0]
        if any(b.shape[0] != dim for b in blocks):
            raise DimMismatch("blocks live on different spaces")
        v = np.hstack(blocks)
        if v.shape[1] != dim:
            raise ValidationError(
                f"{v.shape[1]} block columns cannot resolve the identity in dim {dim}"
            )
        defect = float(np.max(np.abs(v.conj().T @ v - np.eye(dim))))
        if defect > _TOL_ISOMETRY:
            raise ValidationError(f"block columns are not orthonormal (defect {defect:.3e})")
        rows = [tuple(row) for row in chars]
        if len(set(rows)) != len(rows):
            raise ValidationError("character tuples must be pairwise distinct")
        if rows != sorted(rows):
            raise ValidationError("spectrum points must be in lexicographic order")
        object.__setattr__(self, "blocks", tuple(linalg.readonly(b) for b in blocks))
        object.__setattr__(self, "characters", linalg.readonly(chars))

    @property
    def dim(self) -> int:
        return self.blocks[0].shape[0]

    @property
    def n_points(self) -> int:
        return len(self.blocks)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Spectral projectors V_k V_k^dagger, built on each access."""
        return tuple(b @ b.conj().T for b in self.blocks)

    def multiplicities(self) -> np.ndarray:
        return np.array([b.shape[1] for b in self.blocks])

    def block_traces(self, m: np.ndarray) -> np.ndarray:
        """Tr(V_k^dagger M V_k) for every spectrum point k."""
        v = np.hstack(self.blocks)
        per_column = np.real(np.einsum("ij,ij->j", v.conj(), m @ v))
        offsets = np.concatenate(([0], np.cumsum(self.multiplicities())[:-1]))
        return np.add.reduceat(per_column, offsets)

    def element(self, values) -> np.ndarray:
        """The algebra element sum_k values[k] V_k V_k^dagger."""
        v = np.hstack(self.blocks)
        return (v * np.repeat(np.asarray(values), self.multiplicities())) @ v.conj().T


@dataclass(frozen=True)
class SpectrumPoint:
    index: int
    character: tuple[float, ...]
    multiplicity: int


@dataclass(frozen=True, eq=False)
class SpectralProbabilityMeasure:
    """Probability weights over the spectrum points of some algebra."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a nonempty 1-d sequence")
        if float(w.min()) < _WEIGHT_FLOOR:
            raise ValidationError(f"weight {w.min():.3e} below the roundoff floor")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}")
        object.__setattr__(self, "weights", linalg.readonly(w))

    @property
    def n_points(self) -> int:
        return self.weights.size


def generate_algebra(
    generators, tol: float = 1e-10, tol_cluster: float | None = None
) -> SpectralAlgebra:
    """Commutative algebra generated by a commuting Hermitian family.

    Each joint eigenspace block becomes one spectrum point; the blocks
    already come in strictly ascending lexicographic order of character.
    Each generator must be reproduced by its characters, which fails when
    tol_cluster merges distinct eigenvalues.
    """
    gens = tuple(as_observable(g) for g in generators)
    leaves = joint_eigenblocks(gens, tol, tol_cluster)
    algebra = SpectralAlgebra(
        tuple(block for block, _ in leaves), np.array([char for _, char in leaves])
    )
    for i, g in enumerate(gens):
        defect = float(np.max(np.abs(algebra.element(algebra.characters[:, i]) - g.matrix)))
        scale = max(1.0, float(np.max(np.abs(g.matrix))))
        if defect > _TOL_RECON * scale:
            raise ValidationError(
                f"generator {i} is not reproduced by its characters (defect {defect:.3e})"
            )
    return algebra


def spectrum(algebra: SpectralAlgebra) -> tuple[SpectrumPoint, ...]:
    """The algebra's finite spectrum, lexicographic in the characters."""
    mults = algebra.multiplicities()
    return tuple(
        SpectrumPoint(k, tuple(float(x) for x in algebra.characters[k]), int(mults[k]))
        for k in range(algebra.n_points)
    )


def gelfand_transform(algebra: SpectralAlgebra, element, tol: float = 1e-9) -> np.ndarray:
    """Values of an algebra element at each spectrum point.

    The element must be block-constant on the joint eigenspaces; anything
    with off-block structure or in-block variation raises NotInAlgebra.
    """
    a = as_observable(element)
    if a.dim != algebra.dim:
        raise DimMismatch(f"element dim {a.dim}, algebra dim {algebra.dim}")
    vals = algebra.block_traces(a.matrix) / algebra.multiplicities()
    defect = float(np.max(np.abs(algebra.element(vals) - a.matrix)))
    if defect > tol * max(1.0, float(np.max(np.abs(a.matrix)))):
        raise NotInAlgebra(f"element is not block-constant (defect {defect:.3e})")
    return linalg.readonly(vals)


def restrict_state(rho, algebra: SpectralAlgebra) -> SpectralProbabilityMeasure:
    """The probability measure a state induces on the algebra's spectrum:
    weight_k = Tr(V_k^dagger rho V_k). This is everything the algebra can
    see of rho."""
    r = as_density(rho)
    if r.dim != algebra.dim:
        raise DimMismatch(f"state dim {r.dim}, algebra dim {algebra.dim}")
    return SpectralProbabilityMeasure(algebra.block_traces(r.matrix))


def proper_mixture_representative(
    measure: SpectralProbabilityMeasure, algebra: SpectralAlgebra
) -> DensityMatrix:
    """The canonical density matrix carrying a spectral measure: the
    normalized projector of each point, weighted by the measure."""
    if measure.n_points != algebra.n_points:
        raise DimMismatch(
            f"measure has {measure.n_points} points, algebra {algebra.n_points}"
        )
    return DensityMatrix(algebra.element(measure.weights / algebra.multiplicities()))
