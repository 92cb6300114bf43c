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
Restricted to the algebra of one observable, the weights are Born's
distribution, with the characters as outcomes; and a function of the
observable, such as exp(-itH), is the element with its values at the points.

One loop generates every algebra, and it runs over a stack of cases of one
dimension: each case is the initial point of its own coordinates, so no
point ever spans two cases, and each generator in turn splits every point
so far by its values there. While the generators are exactly diagonal the
algebra is held in index form: its basis is the identity, so it is one point
label per coordinate, sorted with no eigensolver, and a state restricts to it
through its diagonal alone. From the first other generator on, the eigh of
the generator compressed to each point turns the point's columns and gives
the values; the points that are whole cases take one stacked eigh. A point
with one column keeps it, and its value is the real compressed entry: what
the eigensolver returns for a 1 x 1 matrix. Each case keeps the checks and
the cluster width it would have alone, and the algebra of one family is a
stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimMismatch, NotCommuting, NotInAlgebra, NotOrthonormal, ValidationError
from .linalg import default_cluster_tol

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True, eq=False)
class SpectralAlgebra:
    """Commutative algebra held as its finite spectrum: a unitary basis, the
    spectrum point each basis column belongs to, and one character tuple per
    point, strictly ascending in lexicographic order. basis None is the
    identity: the index form of a diagonal algebra, never multiplied.

    These are preconditions, not checks. The labels are intp, in range, and
    use every point, so the columns of each point form a nonempty isometry
    block V_k; the basis is square and unitary, which makes every block
    orthonormal, the blocks' spans pairwise orthogonal, and their projectors
    V_k V_k^dagger a resolution of the identity. The three producers meet
    them: the split loop, validated once per stack (_checked_spectrum), and
    the closed forms measurement.pointer_readout and scenario.cat_readout,
    which tests hold equal to generate_algebra of their pointer diagonals.
    The record keeps read-only views of its arrays and counts each point's
    columns.
    """

    labels: np.ndarray
    characters: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        # counted before the labels turn read-only: bincount copies a
        # read-only input
        counts = np.bincount(self.labels, minlength=self.characters.shape[0])
        object.__setattr__(self, "_multiplicities", linalg.readonly(counts))
        object.__setattr__(self, "labels", linalg.readonly(self.labels))
        object.__setattr__(self, "characters", linalg.readonly(self.characters))
        if self.basis is not None:
            object.__setattr__(self, "basis", linalg.readonly(self.basis))

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
        along the last axis of a vector or a stack of them. That axis may
        hold only the leading columns: those past it count as zero, and no
        zero is added, since adding +0.0 changes no sum's bits."""
        per_column = np.asarray(per_column)
        n = per_column.shape[-1]
        labels = self.labels[:n]
        if per_column.ndim == 1:
            return np.bincount(labels, weights=per_column, minlength=self.n_points)
        # one bincount for the stack: row r's labels are offset by r points
        rows = per_column.reshape(-1, n)
        offsets = np.arange(0, rows.shape[0] * self.n_points, self.n_points)
        sums = np.bincount(
            (offsets[:, None] + labels).ravel(),
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
        return linalg.from_eigenbasis(self.basis, np.asarray(values)[self.labels])


@dataclass(frozen=True, eq=False)
class SpectralProbabilityMeasure:
    """Probability weights over the spectrum points of some algebra, with
    the character tuple of each point. On the algebra of a single observable
    the characters are its outcomes, and the measure is Born's distribution."""

    weights: np.ndarray
    characters: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", linalg.readonly(linalg.require_weights(self.weights)))
        object.__setattr__(self, "characters", linalg.readonly(self.characters))

    @property
    def n_points(self) -> int:
        return self.weights.size


def _split_points(labels, counts, values, tol):
    """Split each point of labels, counts[k] coordinates for point k, into
    the gap-separated clusters of its ascending values, relabelling in place.
    Returns the new counts, the old point of each new point, and each new
    point's mean value. This is the package's one clustering rule.

    tol is the cluster width: one number, or one per case of a stack whose
    len(tol) cases own equal runs of the points, in order, so that a gap is
    judged by the width of the case it lies in.

    A mean is the cluster's least value plus the mean of its offsets from
    it. A cluster of equal values skips that mean: its offsets are all +0.0,
    so the mean is exactly its value plus 0.0 (which turns -0.0 to +0.0),
    and that is what it gets. Only clusters whose values differ average."""
    n = labels.size
    if counts.size == n:  # every point has one coordinate, so none splits
        means = np.empty(n)
        means[labels] = values
        return counts, np.arange(n), means
    # coordinates by point so far, then by ascending value; a new point
    # starts at each old point and at each gap wider than tol. Equal
    # (point, value) pairs may come in any order: they fall in one new point
    # and leave the sorted values as they are, so only the sort by point
    # needs to be stable, and one point needs none
    order = np.argsort(values)
    if counts.size > 1:
        order = order[np.argsort(labels[order], kind="stable")]
    ascending = values[order]
    new = np.empty(n, dtype=bool)
    tol = np.asarray(tol)[..., None]
    runs = new.reshape(tol.shape[0], -1)  # a row per case
    runs[:, 0] = True
    np.greater(np.diff(ascending.reshape(runs.shape), axis=1), tol, out=runs[:, 1:])
    old_starts = np.cumsum(counts)[:-1]
    new[old_starts] = True
    starts = np.flatnonzero(new)
    bounds = np.append(starts, n)
    sizes = np.diff(bounds)
    means = ascending[starts]
    if starts.size < n:  # some cluster has more than one column
        multi = np.flatnonzero(sizes > 1)
        means[multi] += 0.0
        for j in multi[ascending[bounds[multi + 1] - 1] != means[multi]]:
            # offsets from the cluster's least value, so no sum can overflow
            cluster = ascending[starts[j] : bounds[j + 1]]
            means[j] = cluster[0] + np.mean(cluster - cluster[0])
    del ascending  # the relabelling below is the largest step; free n floats first
    ranks = np.cumsum(new)
    ranks -= 1
    labels[order] = ranks
    return sizes, np.searchsorted(old_starts, starts, side="right"), means


def _spectrum(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The split loop, over a stack of n cases of one dimension d: the raw
    labels (n, d), characters and basis (n, d, d) of the joint spectra of
    gens, (n, d) stacks of diagonals followed by (n, d, d) stacks of
    Hermitian matrices, case c of each the family of case c. Coordinate j of
    case c starts in point c, so no point spans two cases; the points come
    out case by case, each case's in ascending lexicographic order, and the
    labels number the points of the whole stack. A matrix g turns the
    columns V_k of each point to the eigenvectors of V_k^dagger g V_k, a
    submatrix of g while the basis is the identity (None). Each case's
    values are checked, and clustered, with that case's span and width
    alone. _family gives gens, so they are nonempty and of one shape."""
    n, d = gens[0].shape[:2]
    labels = np.arange(n).repeat(d)
    counts = np.array([d] * n)
    chars = np.zeros((n, 0))
    basis = None
    for i, g in enumerate(gens):
        if g.ndim == 2:
            values = np.real(g)
        elif basis is None and counts.size == n:
            # every case is a single point: its columns are the whole space
            values, basis = np.linalg.eigh(g)
        else:
            order = np.argsort(labels, kind="stable")
            ends = np.cumsum(counts)
            multi = counts > 1
            if basis is None:
                # a case that is one point turns by its eigh, all such cases
                # in one call; each one-column point keeps its column and
                # reads its diagonal entry; any other point turns by the eigh
                # of its block of g
                values = np.real(np.diagonal(g, axis1=1, axis2=2)).copy()
                basis = np.zeros(g.shape, dtype=complex)
                basis.reshape(n, -1)[:, :: d + 1] = 1
                whole = (ends[counts == d] - 1) // d
                if whole.size:
                    values[whole], basis[whole] = np.linalg.eigh(g[whole])
                flat = values.reshape(-1)
                parts = multi & (counts < d)
                for end, m in zip(ends[parts], counts[parts]):
                    coords = order[end - m : end]
                    c = coords[0] // d
                    block = np.ix_(coords - c * d, coords - c * d)
                    flat[coords], basis[c][block] = np.linalg.eigh(g[c][block])
            else:
                values = np.empty((n, d))
                flat = values.reshape(-1)
                singles = order[ends[counts == 1] - 1]
                try:
                    with np.errstate(over="raise", invalid="raise"):
                        if singles.size:
                            # every one-column point's compressed entry at once:
                            # per column the vector-matrix and the dot product it
                            # alone would take, on contiguous copies, so with its
                            # bits. The singles come case by case; slot s of case
                            # c holds its s-th column, zeros pad the rest, and
                            # each case's g is broadcast over its slots, not copied
                            cases, cols = np.divmod(singles, d)
                            slots = np.arange(cases.size) - np.searchsorted(cases, cases)
                            v = np.zeros((n, slots.max() + 1, d), dtype=complex)
                            v[cases, slots] = basis[cases, :, cols]
                            rows = v.conj()[:, :, None, :] @ g[:, None]
                            entries = rows @ v[..., None]
                            flat[singles] = entries[cases, slots, 0, 0].real
                        for end, m in zip(ends[multi], counts[multi]):
                            coords = order[end - m : end]
                            c = coords[0] // d
                            cols = coords - c * d
                            v = basis[c][:, cols]
                            flat[coords], u = np.linalg.eigh(v.conj().T @ g[c] @ v)
                            basis[c][:, cols] = v @ u
                except FloatingPointError as err:
                    raise ValidationError(f"generator {i} overflows in its eigenbasis") from err
        linalg.require_float_span(values, f"generator {i} values")
        counts, parents, means = _split_points(
            labels, counts, values.reshape(-1), default_cluster_tol(values)
        )
        chars = np.column_stack((chars[parents], means))
    return labels.reshape(n, d), chars, basis


def _element_tol(largest):
    """The largest defect at which an element whose largest entry is
    largest counts as reproduced from its values at the spectrum points:
    ELEMENT_RTOL relative to that entry, floored at the smallest normal
    float, since an eigensolver cannot return subnormal values to relative
    accuracy."""
    return linalg.ELEMENT_RTOL * np.maximum(largest, _TINY)


def _checked_spectrum(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """_spectrum(gens), validated once for the stack: every basis must be
    orthonormal, and each case's generators reproduced by its characters,
    which fails when the cluster width merges distinct values."""
    labels, chars, basis = _spectrum(gens)
    if basis is not None:
        if not np.isfinite(basis).all():
            raise ValidationError("basis has non-finite entries")
        defect = linalg.isometry_defect(basis).max()
        if defect > linalg.ROUNDOFF_TOL:
            raise NotOrthonormal(f"block columns are not orthonormal (defect {defect:.3e})")
    for i, g in enumerate(gens):
        values = chars[labels, i]
        rebuilt = values if g.ndim == 2 else linalg.from_eigenbasis(basis, values)
        axes = tuple(range(1, g.ndim))
        defect = np.abs(rebuilt - g).max(axis=axes)
        over = defect > _element_tol(np.abs(g).max(axis=axes))
        if over.any():
            raise ValidationError(
                f"generator {i} is not reproduced by its characters "
                f"(defect {defect[over.argmax()]:.3e})"
            )
    return labels, chars, basis


def _family(stacks) -> list[np.ndarray]:
    """A commuting Hermitian family of (n, d, d) stacks, case c of each the
    family of case c, as _spectrum takes it: the leading exactly diagonal
    matrices as their diagonals, the rest as matrices. Every case must lead
    with the same diagonal generators, so that the stack takes the branch
    each case would take alone; a stack whose cases differ is rejected."""
    if not stacks or stacks[0].size == 0:
        raise ValidationError("need at least one nonempty observable")
    if any(s.shape[1:] != stacks[0].shape[1:] for s in stacks):
        raise DimMismatch("observables live on different spaces")
    if any(len(s) != len(stacks[0]) for s in stacks):
        raise ValidationError("generator stacks hold different numbers of cases")
    n, d = stacks[0].shape[:2]
    lead = len(stacks)
    for i, s in enumerate(stacks):
        # whether each case has a nonzero off-diagonal entry: past entry 0,
        # each run of d + 1 entries of a flattened matrix is d off-diagonal
        # entries and a diagonal one
        off = s.reshape(n, -1)[:, 1:].reshape(n, d - 1, d + 1)[:, :, :d].any(axis=(1, 2))
        if off.any():
            if not off.all():
                raise ValidationError(
                    "the cases of a stack differ in which generators are diagonal"
                )
            lead = i
            break
    if len(stacks) > 1 and lead < len(stacks):
        # diagonal matrices commute exactly; every other pair is checked, each
        # matrix in units of a power of two near its largest entry, so that no
        # product overflows
        scaled = [linalg.unit_scaled(s)[0] for s in stacks]
        for i, a in enumerate(scaled):
            for j in range(max(i + 1, lead), len(stacks)):
                b = scaled[j]
                # written so that a NaN fails
                if not (np.abs(a @ b - b @ a).max(axis=(1, 2)) <= linalg.ROUNDOFF_TOL).all():
                    raise NotCommuting(f"observables {i} and {j} do not commute")
    return [np.diagonal(s, axis1=1, axis2=2) for s in stacks[:lead]] + stacks[lead:]


def joint_spectra(generators) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The raw (labels, characters, basis) of the algebras that a stack of
    commuting Hermitian families generates, before they are validated: each
    generator an (n, d, d) stack, case c of each the family of case c. The
    labels (n, d) number the points of the whole stack; case c's points are
    a run of the characters, in ascending lexicographic order, from
    labels[c].min() on. The basis is (n, d, d), or None while every
    generator is exactly diagonal."""
    return _spectrum(_family([linalg.require_hermitian(g, stack=True) for g in generators]))


def generate_algebras(generators) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The algebras a stack of commuting Hermitian families generates, as
    the (labels, characters, basis) joint_spectra gives, validated once for
    the stack."""
    return _checked_spectrum(
        _family([linalg.require_hermitian(g, stack=True) for g in generators])
    )


def generate_algebra(generators) -> SpectralAlgebra:
    """Commutative algebra generated by a commuting family of Hermitian
    arrays, as require_hermitian checks them, one spectrum point per joint
    eigenspace: generate_algebras of a stack of one, without judging the
    generators again. It stays in index form, with no eigensolver, while
    the generators are exactly diagonal."""
    labels, chars, basis = _checked_spectrum(_family([g[None] for g in generators]))
    return SpectralAlgebra(labels[0], chars, None if basis is None else basis[0])


def gelfand_transform(algebra: SpectralAlgebra, element: np.ndarray) -> np.ndarray:
    """Values of an algebra element, a Hermitian complex array, at each
    spectrum point.

    The element must be block-constant on the joint eigenspaces; anything
    with off-block structure or in-block variation raises NotInAlgebra.
    """
    if len(element) != algebra.dim:
        raise DimMismatch(f"element dim {len(element)}, algebra dim {algebra.dim}")
    # a point's trace is summed in units of a power of two near the largest
    # entry, so it cannot overflow; scaling by a power of two is exact
    scaled, k = linalg.unit_scaled(element)
    vals = np.ldexp(algebra.block_traces(scaled) / algebra.multiplicities(), k)
    defect = float(np.max(np.abs(algebra.element(vals) - element)))
    if defect > _element_tol(np.abs(element).max()):
        raise NotInAlgebra(f"element is not block-constant (defect {defect:.3e})")
    return linalg.readonly(vals)


def restrict_state(rho: np.ndarray, algebra: SpectralAlgebra) -> SpectralProbabilityMeasure:
    """The probability measure a density matrix induces on the algebra's
    spectrum: weight_k = Tr(V_k^dagger rho V_k). This is everything the
    algebra can see of rho; on the algebra one observable generates it is
    Born's rule."""
    if len(rho) != algebra.dim:
        raise DimMismatch(f"state dim {len(rho)}, algebra dim {algebra.dim}")
    return SpectralProbabilityMeasure(algebra.block_traces(rho), algebra.characters)


def evolve(states: np.ndarray, generated, times) -> np.ndarray:
    """Apply exp(-i t H) to each state of an (n, d) stack, case c at time
    times[c] under its own Hamiltonian: generated is the (labels,
    characters, basis) that generate_algebras([H]) gives for the (n, d, d)
    stack of Hamiltonians, so that one decomposition serves every time.
    exp(-itH) is the element of the algebra H generates with the value
    exp(-it lambda) at each eigenvalue lambda; the elements of the cases are
    one stacked product, and they act on the states as one stacked
    matrix-vector product."""
    labels, chars, basis = generated
    if chars.shape[1] != 1:
        raise ValidationError("dynamics need the algebra of a single generator")
    if np.shape(states) != labels.shape:
        raise DimMismatch(f"states of shape {np.shape(states)}, generator spectra {labels.shape}")
    linalg.require_normalized(states)
    phases = np.exp(-1j * np.asarray(times, dtype=float)[:, None] * chars[labels, 0])
    return (linalg.from_eigenbasis(basis, phases) @ states[..., None])[..., 0]
