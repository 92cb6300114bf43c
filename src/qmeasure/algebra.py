"""Commutative observable algebras and the statistics they can express.

A finite commutative algebra of Hermitian matrices is fixed by its joint
eigenspaces. Each eigenspace is a point of the spectrum, spanned by the
columns of a unitary basis that carry that point's label; the tuple of
generator eigenvalues on it is the point's character, and evaluating an
element at a point (its Gelfand transform) is just reading off the constant
the element takes there. The projection valued measure of one observable is
the algebra that observable generates. A state restricted to the algebra is
then nothing but a probability weight per point, and such a weight vector
has exactly one decomposition into point masses. That uniqueness is the
payoff: unrestricted density matrices admit many pure decompositions.

An algebra whose generators are all exactly diagonal is held in index form:
its basis is the identity, so it is nothing but one point label per
coordinate. It is generated by sorting the diagonals, with no eigensolver,
and a state restricts to it through its diagonal alone; no dim x dim array is
needed unless a caller asks for the blocks, projectors or an element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimMismatch, NotInAlgebra, NotOrthonormal, ValidationError
from .linalg import default_cluster_tol
from .observables import as_observable, joint_eigenblocks
from .states import DensityMatrix, as_density


@dataclass(frozen=True, eq=False)
class SpectralAlgebra:
    """Commutative algebra held as its finite spectrum: a unitary basis, the
    spectrum point each basis column belongs to, and one character tuple per
    point, strictly ascending in lexicographic order. basis None is the
    identity: the index form of a diagonal algebra, never multiplied.

    The labels must use every point, so the columns of each point form a
    nonempty isometry block V_k. A unitary basis makes every block
    orthonormal, the blocks' spans pairwise orthogonal, and their projectors
    V_k V_k^dagger a resolution of the identity, all in one check.
    """

    labels: np.ndarray
    characters: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        chars = np.asarray(self.characters, dtype=float)
        if labels.ndim != 1 or labels.size == 0 or labels.dtype.kind not in "iu":
            raise ValidationError("labels must be a nonempty 1-d integer sequence")
        labels = labels.astype(np.intp)
        if chars.ndim != 2 or chars.shape[0] == 0 or chars.shape[1] == 0:
            raise ValidationError("need one nonempty character tuple per spectrum point")
        if labels.min() < 0 or labels.max() >= chars.shape[0]:
            raise ValidationError(f"labels must name one of the {chars.shape[0]} spectrum points")
        counts = np.bincount(labels, minlength=chars.shape[0])
        if not counts.all():
            raise ValidationError("every spectrum point needs at least one basis column")
        basis = self.basis
        if basis is not None:
            basis = linalg.as_matrix(basis)
            if basis.shape != (labels.size, labels.size):
                raise ValidationError(
                    f"{basis.shape[1]} basis columns cannot resolve the identity "
                    f"in dim {basis.shape[0]} with {labels.size} labels"
                )
            defect = linalg.isometry_defect(basis)
            if defect > linalg.ROUNDOFF_TOL:
                raise NotOrthonormal(f"block columns are not orthonormal (defect {defect:.3e})")
            basis = linalg.readonly(basis)
        rows = [tuple(row) for row in chars]
        if len(set(rows)) != len(rows):
            raise ValidationError("character tuples must be pairwise distinct")
        if rows != sorted(rows):
            raise ValidationError("spectrum points must be in lexicographic order")
        object.__setattr__(self, "labels", linalg.readonly(labels))
        object.__setattr__(self, "characters", linalg.readonly(chars))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_multiplicities", linalg.readonly(counts))

    @classmethod
    def from_blocks(cls, blocks, characters) -> "SpectralAlgebra":
        """The algebra with one n x m_k isometry block per spectrum point;
        the blocks side by side are its basis."""
        blocks = tuple(linalg.as_matrix(b) for b in blocks)
        if not blocks:
            raise ValidationError("algebra needs at least one spectrum point")
        dim = blocks[0].shape[0]
        if any(b.shape[0] != dim for b in blocks):
            raise DimMismatch("blocks live on different spaces")
        labels = np.repeat(np.arange(len(blocks)), [b.shape[1] for b in blocks])
        return cls(labels, characters, np.hstack(blocks))

    @property
    def dim(self) -> int:
        return self.labels.size

    @property
    def n_points(self) -> int:
        return self.characters.shape[0]

    def multiplicities(self) -> np.ndarray:
        return self._multiplicities

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Isometry block V_k per point, the basis columns labelled k in
        order, built on each access."""
        v = np.eye(self.dim, dtype=complex) if self.basis is None else self.basis
        by_point = v[:, np.argsort(self.labels, kind="stable")]
        ends = np.cumsum(self._multiplicities)
        return tuple(by_point[:, end - m : end] for end, m in zip(ends, self._multiplicities))

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Spectral projectors V_k V_k^dagger, built on each access."""
        return tuple(b @ b.conj().T for b in self.blocks)

    def point_sums(self, per_column) -> np.ndarray:
        """Sum of per-column values over the columns of each spectrum point."""
        return np.bincount(self.labels, weights=per_column, minlength=self.n_points)

    def block_traces(self, m: np.ndarray) -> np.ndarray:
        """Tr(V_k^dagger M V_k) for every spectrum point k; in index form
        the per-point sums of diag(M)."""
        if self.basis is None:
            return self.point_sums(np.real(np.diagonal(m)))
        v = self.basis
        return self.point_sums(np.real(np.einsum("ij,ij->j", v.conj(), m @ v)))

    def element(self, values) -> np.ndarray:
        """The algebra element sum_k values[k] V_k V_k^dagger; in index form
        the diagonal matrix with values[labels] on its diagonal."""
        per_column = np.asarray(values)[self.labels]
        if self.basis is None:
            return np.diag(per_column.astype(complex))
        return (self.basis * per_column) @ self.basis.conj().T


@dataclass(frozen=True, eq=False)
class SpectralProbabilityMeasure:
    """Probability weights over the spectrum points of some algebra."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = linalg.require_weights(self.weights)
        object.__setattr__(self, "weights", linalg.readonly(w))

    @property
    def n_points(self) -> int:
        return self.weights.size


def _is_diagonal(m: np.ndarray) -> bool:
    """Whether every off-diagonal entry is exactly zero."""
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def _require_reproduced(i: int, defect: float, generator: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(generator))))
    if defect > linalg.ELEMENT_RTOL * scale:
        raise ValidationError(
            f"generator {i} is not reproduced by its characters (defect {defect:.3e})"
        )


def generate_algebra(generators, tol_cluster: float | None = None) -> SpectralAlgebra:
    """Commutative algebra generated by a commuting Hermitian family.

    Each joint eigenspace block becomes one spectrum point; the blocks
    already come in strictly ascending lexicographic order of character.
    Each generator must be reproduced by its characters, which fails when
    tol_cluster merges distinct eigenvalues. A family of exactly diagonal
    matrices gives the index form, through diagonal_algebra.
    """
    gens = tuple(as_observable(g) for g in generators)
    if gens and all(_is_diagonal(g.matrix) for g in gens):
        return diagonal_algebra([np.diagonal(g.matrix) for g in gens], tol_cluster)
    leaves = joint_eigenblocks(gens, tol_cluster)
    algebra = SpectralAlgebra.from_blocks(
        tuple(block for block, _ in leaves), np.array([char for _, char in leaves])
    )
    for i, g in enumerate(gens):
        defect = float(np.max(np.abs(algebra.element(algebra.characters[:, i]) - g.matrix)))
        _require_reproduced(i, defect, g.matrix)
    return algebra


def _split_points(labels, counts, values, tol):
    """Split each point of labels, counts[k] coordinates for point k, into
    the gap-separated clusters of its ascending values, relabelling in place.
    Returns the new counts, the old point of each new point, and each new
    point's mean value, taken in ascending order as joint_eigenblocks does."""
    n = labels.size
    # coordinates by point so far, then by ascending value; a new point
    # starts at each old point and at each gap wider than tol. Equal
    # (point, value) pairs may come in any order: they fall in one new point
    # and leave the sorted values as they are, so only the sort by point
    # needs to be stable
    order = np.argsort(values)
    order = order[np.argsort(labels[order], kind="stable")]
    ascending = values[order]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.greater(np.diff(ascending), tol, out=new[1:])
    old_starts = np.cumsum(counts)[:-1]
    new[old_starts] = True
    starts = np.flatnonzero(new)
    bounds = np.append(starts, n)
    means = ascending[starts]
    for j in np.flatnonzero(np.diff(bounds) > 1):
        means[j] = np.mean(ascending[starts[j] : bounds[j + 1]])
    del ascending  # the relabelling below is the largest step; free n floats first
    ranks = np.cumsum(new)
    ranks -= 1
    labels[order] = ranks
    return np.diff(bounds), np.searchsorted(old_starts, starts, side="right"), means


def diagonal_algebra(diagonals, tol_cluster: float | None = None) -> SpectralAlgebra:
    """Index-form algebra generated by a family of diagonal matrices, given
    by their diagonals.

    It has the points, order and characters joint_eigenblocks gives the dense
    family: generator k splits each point so far into gap-separated clusters
    of its ascending values, with the same default width, and a point's
    character is the mean of each cluster's values in ascending order. A sort
    takes the place of every eigensolver.
    """
    diags = [np.asarray(d) for d in diagonals]
    if not diags:
        raise ValidationError("need at least one observable")
    n = diags[0].size
    if any(d.shape != (n,) for d in diags):
        raise DimMismatch("observables live on different spaces")
    labels = np.zeros(n, dtype=np.intp)
    counts = np.array([n])
    chars = np.zeros((1, 0))
    for d in diags:
        values = np.real(d)
        tol = default_cluster_tol(values) if tol_cluster is None else float(tol_cluster)
        counts, parents, means = _split_points(labels, counts, values, tol)
        chars = np.column_stack((chars[parents], means))
    algebra = SpectralAlgebra(labels, chars)
    labels = algebra.labels  # the algebra keeps its own copy; drop the working one
    for i, d in enumerate(diags):
        defect = float(np.max(np.abs(algebra.characters[labels, i] - d)))
        _require_reproduced(i, defect, d)
    return algebra


def gelfand_transform(algebra: SpectralAlgebra, element) -> np.ndarray:
    """Values of an algebra element at each spectrum point.

    The element must be block-constant on the joint eigenspaces; anything
    with off-block structure or in-block variation raises NotInAlgebra.
    """
    a = as_observable(element)
    if a.dim != algebra.dim:
        raise DimMismatch(f"element dim {a.dim}, algebra dim {algebra.dim}")
    vals = algebra.block_traces(a.matrix) / algebra.multiplicities()
    defect = float(np.max(np.abs(algebra.element(vals) - a.matrix)))
    if defect > linalg.ELEMENT_RTOL * max(1.0, float(np.max(np.abs(a.matrix)))):
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
    return DensityMatrix._trusted(algebra.element(measure.weights / algebra.multiplicities()))
