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

One loop generates every algebra: each generator in turn splits every point
so far by its values there. While the generators are exactly diagonal the
algebra is held in index form: its basis is the identity, so it is one point
label per coordinate, sorted with no eigensolver, and a state restricts to it
through its diagonal alone. From the first other generator on, the eigh of
the generator compressed to each point turns the point's columns and gives
the values. A point with one column keeps it, and its value is the real
compressed entry: what the eigensolver returns for a 1 x 1 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimMismatch, NotCommuting, NotInAlgebra, NotOrthonormal, ValidationError
from .linalg import default_cluster_tol
from .observables import as_observable, commutes
from .states import DensityMatrix, as_density

_TINY = float(np.finfo(float).tiny)


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

    @property
    def dim(self) -> int:
        return self.labels.size

    @property
    def n_points(self) -> int:
        return self.characters.shape[0]

    def multiplicities(self) -> np.ndarray:
        return self._multiplicities

    def point_sums(self, per_column) -> np.ndarray:
        """Sum of per-column values over the columns of each spectrum point,
        along the last axis of a vector or a stack of them."""
        per_column = np.asarray(per_column)
        if per_column.ndim == 1:
            return np.bincount(self.labels, weights=per_column, minlength=self.n_points)
        # one bincount for the stack: row r's labels are offset by r points
        rows = per_column.reshape(-1, self.dim)
        offsets = np.arange(0, rows.shape[0] * self.n_points, self.n_points)
        sums = np.bincount(
            (offsets[:, None] + self.labels).ravel(),
            weights=rows.ravel(),
            minlength=offsets.size * self.n_points,
        )
        return sums.reshape(*per_column.shape[:-1], self.n_points)

    def block_traces(self, m: np.ndarray) -> np.ndarray:
        """Tr(V_k^dagger M V_k) for every spectrum point k; in index form
        the per-point sums of diag(M), for a matrix or a stack of them."""
        if self.basis is None:
            return self.point_sums(np.real(np.diagonal(m, axis1=-2, axis2=-1)))
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


def _split_points(labels, counts, values, tol):
    """Split each point of labels, counts[k] coordinates for point k, into
    the gap-separated clusters of its ascending values, relabelling in place.
    Returns the new counts, the old point of each new point, and each new
    point's mean value. This is the package's one clustering rule."""
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
        # offsets from the cluster's least value, so no sum can overflow
        cluster = ascending[starts[j] : bounds[j + 1]]
        means[j] = cluster[0] + np.mean(cluster - cluster[0])
    del ascending  # the relabelling below is the largest step; free n floats first
    ranks = np.cumsum(new)
    ranks -= 1
    labels[order] = ranks
    return np.diff(bounds), np.searchsorted(old_starts, starts, side="right"), means


def _spectrum(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The split loop: the raw labels, characters (in ascending lexicographic
    order) and basis of the joint spectrum of gens, diagonals (1-d) followed
    by Hermitian matrices. A matrix g turns the columns V_k of each point to
    the eigenvectors of V_k^dagger g V_k, a submatrix of g while the basis is
    the identity (None)."""
    if not gens or gens[0].size == 0:
        raise ValidationError("need at least one nonempty observable")
    n = gens[0].shape[0]
    if any(g.shape[0] != n for g in gens):
        raise DimMismatch("observables live on different spaces")
    labels = np.zeros(n, dtype=np.intp)
    counts = np.array([n])
    chars = np.zeros((1, 0))
    basis = None
    for i, g in enumerate(gens):
        if g.ndim == 1:
            values = np.real(g)
        else:
            fresh = basis is None
            basis = np.eye(n, dtype=complex) if fresh else basis
            values = np.empty(n)
            order = np.argsort(labels, kind="stable")
            for end, m in zip(np.cumsum(counts), counts):
                cols = order[end - m : end]
                if fresh:
                    if m == 1:
                        values[cols] = g[cols, cols].real
                        continue
                    block = np.ix_(cols, cols)
                    values[cols], basis[block] = np.linalg.eigh(g[block])
                else:
                    v = basis[:, cols]
                    try:
                        with np.errstate(over="raise", invalid="raise"):
                            compressed = v.conj().T @ g @ v
                    except FloatingPointError as err:
                        raise ValidationError(f"generator {i} overflows in its eigenbasis") from err
                    if m == 1:
                        values[cols] = compressed.real[0]
                        continue
                    values[cols], u = np.linalg.eigh(compressed)
                    basis[:, cols] = v @ u
        linalg.require_float_span(values, f"generator {i} values")
        counts, parents, means = _split_points(labels, counts, values, default_cluster_tol(values))
        chars = np.column_stack((chars[parents], means))
    return labels, chars, basis


def _element_tol(element: np.ndarray) -> float:
    """The largest defect at which an element counts as reproduced from its
    values at the spectrum points: ELEMENT_RTOL relative to its largest
    entry, floored at the smallest normal float, since an eigensolver cannot
    return subnormal values to relative accuracy."""
    return linalg.ELEMENT_RTOL * max(float(np.abs(element).max()), _TINY)


def _algebra(gens) -> SpectralAlgebra:
    """The algebra of _spectrum(gens), validated. Each generator must be
    reproduced by its characters, which fails when the cluster width merges
    distinct values."""
    algebra = SpectralAlgebra(*_spectrum(gens))
    for i, g in enumerate(gens):
        chars = algebra.characters[:, i]
        rebuilt = chars[algebra.labels] if g.ndim == 1 else algebra.element(chars)
        defect = float(np.max(np.abs(rebuilt - g)))
        if defect > _element_tol(g):
            raise ValidationError(
                f"generator {i} is not reproduced by its characters (defect {defect:.3e})"
            )
    return algebra


def _family(generators) -> list[np.ndarray]:
    """A commuting Hermitian family as _spectrum takes it: the leading
    exactly diagonal matrices as their diagonals, the rest as matrices."""
    obs = [as_observable(g) for g in generators]
    lead = next((i for i, o in enumerate(obs) if not _is_diagonal(o.matrix)), len(obs))
    # diagonal matrices commute exactly; every other pair is checked
    for i in range(len(obs)):
        for j in range(max(i + 1, lead), len(obs)):
            if not commutes(obs[i], obs[j]):
                raise NotCommuting(f"observables {i} and {j} do not commute")
    return [np.diagonal(o.matrix) for o in obs[:lead]] + [o.matrix for o in obs[lead:]]


def joint_spectrum(generators) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The raw (labels, characters, basis) of the algebra a commuting
    Hermitian family generates, before a SpectralAlgebra validates them."""
    return _spectrum(_family(generators))


def generate_algebra(generators) -> SpectralAlgebra:
    """Commutative algebra generated by a commuting Hermitian family, one
    spectrum point per joint eigenspace. It stays in index form, with no
    eigensolver, while the generators are exactly diagonal."""
    return _algebra(_family(generators))


def diagonal_algebra(diagonals) -> SpectralAlgebra:
    """Index-form algebra generated by a family of diagonal matrices, given
    by their diagonals: generate_algebra of those matrices, without forming
    them."""
    diags = [np.asarray(d) for d in diagonals]
    if any(d.ndim != 1 for d in diags):
        raise DimMismatch("diagonals must be 1-d")
    return _algebra(diags)


def gelfand_transform(algebra: SpectralAlgebra, element) -> np.ndarray:
    """Values of an algebra element at each spectrum point.

    The element must be block-constant on the joint eigenspaces; anything
    with off-block structure or in-block variation raises NotInAlgebra.
    """
    a = as_observable(element)
    if a.dim != algebra.dim:
        raise DimMismatch(f"element dim {a.dim}, algebra dim {algebra.dim}")
    # a point's trace is summed in units of a power of two near the largest
    # entry, so it cannot overflow; scaling by a power of two is exact
    scaled, k = linalg.unit_scaled(a.matrix)
    vals = np.ldexp(algebra.block_traces(scaled) / algebra.multiplicities(), k)
    defect = float(np.max(np.abs(algebra.element(vals) - a.matrix)))
    if defect > _element_tol(a.matrix):
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
