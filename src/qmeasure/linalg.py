"""Dense complex linear algebra kernel for small Hilbert spaces, and the
package's one tolerance policy.

Pure functions over immutable numpy arrays; every returned array is marked
read-only. Intended scale is dim <= ~64, where LAPACK's dense symmetric
solver is accurate to a few ulps and all tolerances below are loose by
several orders of magnitude. Every validator in the package reads its
tolerance from the four constants below, and the CLI its --tol default;
only the verify checks pin their own, as part of the acceptance spec.

ROUNDOFF_TOL scales with the input wherever the input's scale is free:
Hermiticity and commutators are judged in units of the power of two at the
largest entry (unit_scaled), and an eigendecomposition's residual relative
to the matrix's norm. Its other uses are absolute because what they bound
has scale 1 by definition, so that an absolute and a relative bound are the
same bound:
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

from .errors import NotHermitian, NotSquare, QmError, ValidationError

# roundoff: norms, traces, Hermiticity, orthonormality, commutators,
# probability sums, and the relative residual of an eigendecomposition
ROUNDOFF_TOL = 1e-10
# how far a probability weight may dip below zero, or a sampled frequency
# stray from its count ratio
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
    a.setflags(write=False)
    return a


def as_vector(v) -> np.ndarray:
    a = np.array(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValidationError(f"expected a nonempty vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("vector has non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or 0 in a.shape:
        raise ValidationError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix is {a.shape[0]}x{a.shape[1]}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


def isometry_defect(v: np.ndarray) -> float:
    """max |V^dagger V - I| over a matrix V or a stack (..., n, k) of them:
    zero exactly when the columns of every V are orthonormal."""
    gram = v.conj().swapaxes(-1, -2) @ v
    k = gram.shape[-1]
    gram.reshape(-1, k * k)[:, :: k + 1] -= 1
    return float(np.abs(gram).max())


def judge_hermitian(a: np.ndarray) -> float:
    """The Hermiticity defect of a square complex array in units of 2^k, the
    power of two at or below its largest real or imaginary part; a defect
    past ROUNDOFF_TOL raises NotHermitian."""
    scaled, k = unit_scaled(a)
    defect = hermiticity_defect(scaled)
    if defect > ROUNDOFF_TOL:
        raise NotHermitian(
            f"max |M - M^dagger| entry is {defect:.3e} x 2^{k}, "
            f"tolerance {ROUNDOFF_TOL:.3e} x 2^{k}"
        )
    return defect


def require_hermitian(m) -> np.ndarray:
    """A square matrix that judge_hermitian accepts, as its Hermitian part:
    the input itself when it is exactly Hermitian, so its bits are kept,
    else (M + M^dagger) / 2, halved before the sum so that no entry
    overflows."""
    a = require_square(m)
    return a / 2 + a.conj().T / 2 if judge_hermitian(a) else a


def require_weights(
    w, what: str = "weights", error: type[QmError] = ValidationError
) -> np.ndarray:
    """A nonempty 1-d probability vector: no entry below -WEIGHT_FLOOR and
    a sum within ROUNDOFF_TOL of 1. Violations raise error."""
    a = np.asarray(w, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise error(f"{what} must be a nonempty 1-d sequence")
    if float(a.min()) < -WEIGHT_FLOOR:
        raise error(f"{what}: entry {a.min():.3e} below the roundoff floor")
    if abs(float(a.sum()) - 1.0) > ROUNDOFF_TOL:
        raise error(f"{what} sum to {a.sum()!r}")
    return a


def require_float_span(values: np.ndarray, what: str) -> None:
    """Reject values that are not all finite or whose span max - min exceeds
    the largest float, so that no difference of two of them overflows."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} are not all finite")
    # the halved span cannot overflow, and exceeds max/2 exactly when the span
    # itself would round past the largest float
    if float(values.max()) / 2 - float(values.min()) / 2 > _HALF_MAX:
        raise ValidationError(f"{what} span more than the largest float")


def unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2**-k, k) for a complex array a, with 2**k the power of two at or
    below its largest real or imaginary part, so that part lands in [1, 2).
    np.ldexp on the float view scales exactly and forms no reciprocal, which
    would overflow when that part is subnormal."""
    f = a.view(float)
    k = int(np.frexp(np.max(np.abs(f)))[1]) - 1
    return np.ldexp(f, -k).view(complex), k


def hermitian_eigendecompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (w, v) of a Hermitian matrix: eigenvalues w
    ascending, and the unitary matrix v of column eigenvectors.

    The decomposition is verified before returning: columns must be
    orthonormal and sum_k w_k v_k v_k^dagger must reproduce the input to
    relative Frobenius accuracy ROUNDOFF_TOL. A spectrum that overflows, or
    spans more than the largest float, raises ValidationError: no gap
    between its eigenvalues could be taken.
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    require_float_span(w, "eigenvalues")
    ortho = isometry_defect(v)
    # in power-of-two units near the largest real or imaginary part: no norm overflows
    b, k = unit_scaled(a)
    resid = float(
        np.linalg.norm((v * np.ldexp(w, -k)) @ v.conj().T - b) / max(np.linalg.norm(b), 1.0)
    )
    # written so that a NaN residual fails
    if not (ortho <= ROUNDOFF_TOL and resid <= ROUNDOFF_TOL):
        raise ArithmeticError(
            f"eigendecomposition failed verification (ortho {ortho:.3e}, resid {resid:.3e})"
        )
    return readonly(w), readonly(v)


def unitary_exp(h, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, computed through the eigenbasis."""
    w, v = hermitian_eigendecompose(h)
    return readonly((v * np.exp(-1j * float(t) * w)) @ v.conj().T)


def default_cluster_tol(values) -> float:
    """Eigenvalue cluster width, the one every generator's values are
    clustered with: a fixed multiple of the roundoff n * eps * max|eigenvalue|
    of a dense Hermitian eigensolver, so a gap is merged only when roundoff
    could have produced it."""
    vals = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    return _CLUSTER_SAFETY * vals.size * _EPS * scale
