"""Dense complex linear algebra kernel for small Hilbert spaces, and the
package's one tolerance policy.

Pure functions over immutable numpy arrays; every returned array is marked
read-only. Intended scale is dim <= ~64, where LAPACK's dense symmetric
solver is accurate to a few ulps and all tolerances below are loose by
several orders of magnitude. Every validator in the package reads its
tolerance from the four constants below, and the CLI its --tol default;
only the verify checks pin their own, as part of the acceptance spec.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_vector(v) -> np.ndarray:
    a = np.array(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] == 0:
        raise ValidationError(f"expected a nonempty vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("vector has non-finite entries")
    return a


def as_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or 0 in a.shape:
        raise ValidationError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix has non-finite entries")
    return a


def require_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix is {a.shape[0]}x{a.shape[1]}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def isometry_defect(v: np.ndarray) -> float:
    """max |V^dagger V - I|: zero exactly when the columns of V are orthonormal."""
    return float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))


def require_hermitian(m) -> np.ndarray:
    a = require_square(m)
    defect = hermiticity_defect(a)
    if defect > ROUNDOFF_TOL:
        raise NotHermitian(
            f"max |M - M^dagger| entry is {defect:.3e}, tolerance {ROUNDOFF_TOL:.3e}"
        )
    return a


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
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{what} are not all finite")
    # the halved span cannot overflow, and exceeds max/2 exactly when the span
    # itself would round past the largest float
    if float(np.max(values)) / 2 - float(np.min(values)) / 2 > np.finfo(float).max / 2:
        raise ValidationError(f"{what} span more than the largest float")


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending real eigenvalues and the unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigendecompose(m) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending.

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
    # in units of the largest real or imaginary part, so no norm overflows
    s = float(np.max(np.abs(a.view(float)))) or 1.0
    b = a / s
    resid = float(np.linalg.norm((v * (w / s)) @ v.conj().T - b) / max(np.linalg.norm(b), 1.0))
    # written so that a NaN residual fails
    if not (ortho <= ROUNDOFF_TOL and resid <= ROUNDOFF_TOL):
        raise ArithmeticError(
            f"eigendecomposition failed verification (ortho {ortho:.3e}, resid {resid:.3e})"
        )
    return EigenSystem(readonly(w), readonly(v))


def unitary_exp(h, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, computed through the eigenbasis."""
    eig = hermitian_eigendecompose(h)
    phases = np.exp(-1j * float(t) * eig.eigenvalues)
    return readonly((eig.eigenvectors * phases) @ eig.eigenvectors.conj().T)


def default_cluster_tol(values) -> float:
    """Eigenvalue cluster width, the one every generator's values are
    clustered with: a fixed multiple of the roundoff n * eps * max|eigenvalue|
    of a dense Hermitian eigensolver, so a gap is merged only when roundoff
    could have produced it."""
    vals = np.asarray(values, dtype=float)
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    return _CLUSTER_SAFETY * vals.size * float(np.finfo(float).eps) * scale
