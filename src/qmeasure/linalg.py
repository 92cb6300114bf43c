"""Validators for dense complex arrays on small Hilbert spaces, and the
package's one tolerance policy.

Pure functions over numpy arrays; readonly gives the read-only views the
validators return. The Hermiticity, isometry, norm, weight, span and
cluster-width helpers also take a stack of cases and judge each case on its
own. No eigensolver lives here: an observable's spectrum, and exp(-itH) with
it, is read from the algebra it generates. A run allows dimensions up to
4096 (apparatus.dim^2 within scenario.MAX_ARRAY_ELEMENTS), where LAPACK's
dense symmetric solver is still accurate to about n eps and the tolerances
below stay loose by orders of magnitude. Every validator in
the package reads its tolerance from the four constants below, and the CLI
its --tol default; only the verify checks pin their own, as part of the
acceptance spec.

ROUNDOFF_TOL scales with the input wherever the input's scale is free:
Hermiticity and commutators are judged in units of the power of two at the
largest entry (unit_scaled). Its other uses are absolute because what they
bound has scale 1 by definition, so that an absolute and a relative bound
are the same bound:
- isometry: the entries of V^dagger V for unit columns are at most 1;
- norm: a state vector has norm 1;
- trace: a density matrix has trace 1, and its eigenvalues, the lowest of
  which is held to -ROUNDOFF_TOL, lie in [0, 1];
- weights: a probability vector sums to 1 and its entries lie in [0, 1].
Each is a sum of n unit-scale terms, off by at most about n eps: 9e-13 at
n = 4096, the largest system or apparatus dimension a run allows. A
premeasured composite's norm sums up to d^2 <= 2^24 terms, whose worst case
would be 4e-9; the blocked and pairwise sums of BLAS and numpy stay far
below that.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitian, NotNormalized, NotSquare, QmError, ValidationError

# roundoff: norms, traces, Hermiticity, orthonormality, commutators and
# probability sums
ROUNDOFF_TOL = 1e-10
# how far a probability weight may dip below zero
WEIGHT_FLOOR = 1e-12
# relative accuracy to which an algebra element is reproduced from its
# values at the spectrum points
ELEMENT_RTOL = 1e-9
# relative distance within which a spectrum point's pointer value matches an outcome
POINTER_MATCH_RTOL = 1e-6
# default --tol: the largest disagreement between the routes before exit code 2
DEVIATION_TOL = 1e-9

_CLUSTER_SAFETY = 1e4

_EPS = float(np.finfo(float).eps)
_HALF_MAX = float(np.finfo(float).max) / 2


def readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, sharing its data: the caller's array stays
    writeable, and nothing is copied."""
    view = a[...]
    view.setflags(write=False)
    return view


def as_vector(v) -> np.ndarray:
    a = np.array(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValidationError(f"expected a nonempty vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("vector has non-finite entries")
    return a


def as_matrix(m, stack: bool = False) -> np.ndarray:
    """A nonempty finite complex matrix; with stack, a nonempty (n, ., .)
    stack of them."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 + stack or 0 in a.shape:
        what = "stack of matrices" if stack else "matrix"
        raise ValidationError(f"expected a nonempty {what}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def require_square(m, stack: bool = False) -> np.ndarray:
    a = as_matrix(m, stack)
    if a.shape[-2] != a.shape[-1]:
        raise NotSquare(f"matrix is {a.shape[-2]}x{a.shape[-1]}")
    return a


def hermiticity_defect(m: np.ndarray):
    """max |M - M^dagger| of a matrix, or of each matrix of a stack."""
    return np.abs(m - m.conj().mT).max(axis=(-2, -1))


def isometry_defect(v: np.ndarray):
    """max |V^dagger V - I| of a matrix V, or of each matrix of a stack
    (..., n, k): zero exactly when the columns of that V are orthonormal."""
    gram = v.conj().mT @ v
    k = gram.shape[-1]
    gram.reshape(-1, k * k)[:, :: k + 1] -= 1
    return np.abs(gram).max(axis=(-2, -1))


def judge_hermitian(a: np.ndarray):
    """The Hermiticity defect of a square complex array in units of 2^k, the
    power of two at or below its largest real or imaginary part
    (unit_scaled); of each matrix, in its own unit, for a stack of them. A
    defect past ROUNDOFF_TOL raises NotHermitian, naming the first such
    matrix's."""
    scaled, k = unit_scaled(a)
    defect = hermiticity_defect(scaled)
    over = defect > ROUNDOFF_TOL
    if over.any():
        first = np.flatnonzero(over)[0]
        worst, k = np.ravel(defect)[first], np.ravel(k)[first]
        raise NotHermitian(
            f"max |M - M^dagger| entry is {worst:.3e} x 2^{k}, "
            f"tolerance {ROUNDOFF_TOL:.3e} x 2^{k}"
        )
    return defect


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2, halved before the sum so that no entry overflows."""
    return a / 2 + a.conj().mT / 2


def require_hermitian(m, stack: bool = False) -> np.ndarray:
    """An observable or a generator: a square matrix that judge_hermitian
    accepts, as its Hermitian part, read-only: the input itself when it is
    exactly Hermitian, so its bits are kept. With stack, an (n, d, d) stack
    of them, each judged in its own unit and replaced by its Hermitian part
    only where its defect is nonzero."""
    a = require_square(m, stack)
    off = judge_hermitian(a) != 0
    if off.any():
        a[off] = hermitian_part(a[off])
    return readonly(a)


def require_weights(
    w, what: str = "weights", error: type[QmError] = ValidationError, stack: bool = False
) -> np.ndarray:
    """A nonempty 1-d probability vector: no entry below -WEIGHT_FLOOR and
    a sum within ROUNDOFF_TOL of 1; with stack, a nonempty (n, k) stack of
    them, checked once. Violations raise error, and so does a NaN entry."""
    a = np.asarray(w, dtype=float)
    if a.ndim != 1 + stack or a.size == 0:
        raise error(f"{what} must be a nonempty {'stack of ' * stack}1-d sequence")
    # written so that a NaN fails
    if not a.min() >= -WEIGHT_FLOOR:
        raise error(f"{what}: entry {a.min():.3e} below the roundoff floor")
    sums = a.sum(axis=-1)
    gap = float(np.abs(sums - 1.0).max()) if stack else abs(float(sums) - 1.0)
    if not gap <= ROUNDOFF_TOL:
        raise error(f"{what}: a sum is off from 1 by {gap:.3e}")
    return a


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of an (n, d) complex array, with its bits:
    the two dot products it takes over the strided real and imaginary parts,
    as one stacked product each."""
    re, im = vectors.real[:, None, :], vectors.imag[:, None, :]
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[:, 0, 0]


def require_normalized(states: np.ndarray) -> np.ndarray:
    """An (n, d) stack of state vectors, each of unit norm within
    ROUNDOFF_TOL, checked once; a NaN fails."""
    gap = float(np.max(np.abs(row_norms(states) - 1.0)))
    if not gap <= ROUNDOFF_TOL:
        raise NotNormalized(f"a state's norm is off by {gap:.3e}")
    return states


def from_eigenbasis(basis: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^dagger for a unitary basis V (..., d, d) and its
    (..., d) values, one per column, as one stacked product; basis None is
    the identity, and gives the diagonal matrices of the values."""
    if basis is None:
        d = values.shape[-1]
        out = np.zeros(values.shape + (d,), dtype=complex)
        out.reshape(*values.shape[:-1], d * d)[..., :: d + 1] = values
        return out
    return (basis * values[..., None, :]) @ basis.conj().mT


def require_float_span(values: np.ndarray, what: str) -> None:
    """Reject values that are not all finite or whose span max - min exceeds
    the largest float, so that no difference of two of them overflows; for
    a stack, the span of each row."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} are not all finite")
    # the halved span cannot overflow, and exceeds max/2 exactly when the span
    # itself would round past the largest float; no row spans more than all
    # of them do, so only a wide span needs the rows apart
    if float(values.max()) / 2 - float(values.min()) / 2 > _HALF_MAX:
        if (values.max(axis=-1) / 2 - values.min(axis=-1) / 2 > _HALF_MAX).any():
            raise ValidationError(f"{what} span more than the largest float")


def unit_scaled(a: np.ndarray):
    """(a * 2**-k, k) for a complex matrix a, with 2**k the power of two at
    or below its largest real or imaginary part, so that part lands in
    [1, 2); for a stack of matrices, each in its own unit, with one k per
    matrix. np.ldexp on the float view scales exactly and forms no
    reciprocal, which would overflow when that part is subnormal."""
    f = a.view(float)
    k = np.frexp(np.abs(f).max(axis=(-2, -1)))[1] - 1
    return np.ldexp(f, -k[..., None, None]).view(complex), k


def default_cluster_tol(values):
    """Eigenvalue cluster width, the one every generator's values are
    clustered with: a fixed multiple of the roundoff n * eps * max|eigenvalue|
    of a dense Hermitian eigensolver, so a gap is merged only when roundoff
    could have produced it. For a stack, one width per row, from that row's
    values alone."""
    vals = np.asarray(values, dtype=float)
    scale = np.abs(vals).max(axis=-1, initial=0.0)
    return _CLUSTER_SAFETY * vals.shape[-1] * _EPS * scale
