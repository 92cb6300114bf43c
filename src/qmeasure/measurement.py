"""The measurement chain: pointer apparatus, premeasurement, collapse map.

The pointer is written in the standard basis e_k of the apparatus: e_0 is
the ready state and e_j registers outcome j. Which orthonormal basis the
pointer uses is a convention the statistics do not depend on. The coupling
follows a controlled-shift convention. With measured basis columns b_j,

    U (b_j (x) e_k) = b_j (x) e_{(k + j) mod dim_apparatus}

which on the ready column realizes the one-to-one correlation
b_j (x) e_0 -> b_j (x) e_j. Off the ready column the cyclic extension keeps
U a permutation of the product basis, hence exactly unitary; any other
unitary extension acts identically on physical inputs, which always start
in the ready state. As a matrix, U = G Pi G^dagger, with G = B (x) I the
product basis (column j * dim_apparatus + k is b_j (x) e_k) and Pi the
cyclic relabelling (j, k) -> (j, k + j mod dim_apparatus) of its columns.

Premeasurement therefore only ever needs U on the ready input, where it is
the isometry W = sum_j (b_j (x) e_j) b_j^dagger from the system into the
composite: a pure state becomes the d x dim_apparatus coefficient matrix of
sum_j c_j b_j (x) e_j, B diag(c) in its first d columns, and no
(d * dim_apparatus)^2 matrix is formed. The dense U is built only by
coupling_matrix, the oracle the verify suite and the tests hold the
structured path against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateSpectrum, DimMismatch, TooSmall, ValidationError
from .algebra import SpectralAlgebra, generate_algebra
from .linalg import default_cluster_tol
from .observables import Observable
from .states import (
    CompositeDims,
    DensityMatrix,
    StateVector,
    as_density,
    as_state,
)


@dataclass(frozen=True, eq=False)
class ApparatusModel:
    """Pointer degrees of freedom in the standard basis of the apparatus:
    e_0 is the ready state, e_j registers outcome j, and each registrable
    outcome has one real pointer value. The values must be distinct and
    finite, and span no more than the largest float, so that no gap between
    two of them overflows."""

    dim_apparatus: int
    pointer_values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.pointer_values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValidationError("pointer_values must be a nonempty 1-d sequence")
        if vals.size > self.dim_apparatus:
            raise TooSmall(
                f"apparatus dim {self.dim_apparatus} cannot register {vals.size} outcomes"
            )
        if np.unique(vals).size != vals.size:
            raise ValidationError("pointer values must be distinct")
        linalg.require_float_span(vals, "pointer values")
        object.__setattr__(self, "pointer_values", linalg.readonly(vals))

    @property
    def n_outcomes(self) -> int:
        return self.pointer_values.size


def build_apparatus(
    n_outcomes: int,
    dim_apparatus: int | None = None,
    pointer_values=None,
) -> ApparatusModel:
    """Apparatus of dim_apparatus (default n_outcomes) registering n_outcomes.

    pointer_values defaults to 0..n_outcomes-1; models built from an
    observable override it with the measured eigenvalues.
    """
    if n_outcomes < 1:
        raise ValidationError("need at least one outcome")
    dim = n_outcomes if dim_apparatus is None else int(dim_apparatus)
    if dim < n_outcomes:
        raise TooSmall(f"apparatus dim {dim} cannot register {n_outcomes} outcomes")
    if pointer_values is None:
        vals = np.arange(n_outcomes, dtype=float)
    else:
        vals = np.asarray(pointer_values, dtype=float)
        if vals.ndim != 1 or vals.size != n_outcomes:
            raise ValidationError(
                f"expected {n_outcomes} pointer values, got shape {vals.shape}"
            )
    return ApparatusModel(dim, vals)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """A nondegenerate spectral measure, one rank-one block per outcome, and
    the apparatus the controlled shift couples it to. build_coupling and
    model_for_observable only make nondegenerate measures."""

    measured_pvm: SpectralAlgebra
    apparatus: ApparatusModel

    def __post_init__(self) -> None:
        pvm = self.measured_pvm
        if self.apparatus.n_outcomes != pvm.dim:
            raise DimMismatch(
                f"apparatus registers {self.apparatus.n_outcomes} outcomes, "
                f"system dim is {pvm.dim}"
            )
        v = np.eye(pvm.dim, dtype=complex) if pvm.basis is None else pvm.basis
        basis = linalg.readonly(v[:, np.argsort(pvm.labels, kind="stable")])
        object.__setattr__(self, "_measured_basis", basis)

    @property
    def measured_basis(self) -> np.ndarray:
        """The measured basis: the basis columns in label order, column j
        the eigenvector of outcome j."""
        return self._measured_basis

    @property
    def dim_system(self) -> int:
        return self.measured_pvm.dim

    @property
    def dims(self) -> CompositeDims:
        return CompositeDims(self.dim_system, self.apparatus.dim_apparatus)


def build_coupling(measured_basis, apparatus: ApparatusModel) -> MeasurementModel:
    """Assemble the measurement model for an orthonormal measured basis:
    column j is outcome j, valued at pointer value j, so the pointer values
    must strictly ascend. The spectral measure checks the basis's shape and
    orthonormality, once."""
    vals = apparatus.pointer_values
    pvm = SpectralAlgebra(np.arange(vals.size), vals[:, None], measured_basis)
    return MeasurementModel(pvm, apparatus)


def coupling_matrix(model: MeasurementModel) -> np.ndarray:
    """The dense controlled shift U = G Pi G^dagger on the full product
    space: G = B (x) I has column j * dim_apparatus + k equal to b_j (x) e_k,
    and Pi relabels column (j, k) as (j, k + j mod dim_apparatus).

    An oracle: it is (d * dim_apparatus)^2, and premeasurement never builds
    it. The verify suite and the tests check that U is unitary and that
    premeasure agrees with it on ready inputs.
    """
    b = model.measured_basis
    d, dm = b.shape[1], model.apparatus.dim_apparatus
    g = (b[:, None, :, None] * np.eye(dm)[None, :, None, :]).reshape(d * dm, d * dm)
    j, k = np.divmod(np.arange(d * dm), dm)
    return g[:, j * dm + (k + j) % dm] @ g.conj().T


def model_for_observable(
    a,
    dim_apparatus: int | None = None,
    pointer_values=None,
) -> MeasurementModel:
    """Measurement model for a nondegenerate Hermitian observable.

    The measured spectral measure is generate_algebra([a]), the algebra the
    observable generates: its basis is the eigenbasis in ascending
    eigenvalue order, and the pointer values default to copies of the
    eigenvalues. Eigenvalues that share a point (within the cluster width)
    raise DegenerateSpectrum.
    """
    pvm = generate_algebra([a])
    if pvm.n_points != pvm.dim:
        sizes = pvm.multiplicities().tolist()
        raise DegenerateSpectrum(
            f"spectrum splits into clusters of sizes {sizes}; need all distinct"
        )
    vals = pvm.characters[:, 0]
    apparatus = build_apparatus(
        pvm.dim, dim_apparatus, vals if pointer_values is None else pointer_values
    )
    return MeasurementModel(pvm, apparatus)


def pointer_observable(apparatus: ApparatusModel) -> Observable:
    """The pointer readout: the diagonal matrix with pointer value j on e_j.
    Columns past the last outcome, never reached from the ready state, share
    one idle eigenvalue below the real values, so the readout stays a single
    observable on the full apparatus space. The idle value is min - 1 unless
    that is within reach of the least pointer value, where it would match
    that outcome (_match_outcome) or merge with it (the cluster width of any
    values up to twice the largest); then it is twice that reach below."""
    vals, dim = apparatus.pointer_values, apparatus.dim_apparatus
    low = float(vals.min())
    scale = max(1.0, float(np.max(np.abs(vals))))
    reach = max(linalg.POINTER_MATCH_RTOL * scale, 2 * default_cluster_tol(np.full(dim, scale)))
    idle = low - 1.0 if low - (low - 1.0) > reach else low - 2 * reach
    w = np.full(dim, idle)
    w[: vals.size] = vals
    linalg.require_float_span(w, "pointer values with the idle value below them")
    return Observable(np.diag(w.astype(complex)))


def premeasure(psi, model: MeasurementModel) -> StateVector:
    """Couple a pure system state to the ready apparatus.

    The output is sum_j c_j b_j (x) e_j with c_j the overlap of psi with
    measured basis column j. Nothing is discarded and no outcome is chosen.
    Its amplitudes are the d x dim_apparatus coefficient matrix M, B diag(c)
    in its first d columns and zero after, read row by row:
    O(d^2 + d dim_apparatus).
    """
    p = as_state(psi)
    if p.dim != model.dim_system:
        raise DimMismatch(f"state dim {p.dim}, system dim {model.dim_system}")
    b = model.measured_basis
    d = model.dim_system
    m = np.zeros((d, model.apparatus.dim_apparatus), dtype=complex)
    m[:, :d] = b * (b.conj().T @ p.amplitudes)
    return StateVector(m.reshape(-1))


def premeasure_stack(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """premeasure for a stack of n cases with a minimal apparatus, on bare
    arrays: the (n, d, d) coefficient matrices B diag(c), c = B^dagger psi, of
    the premeasured composites, from the (n, d) states and (n, d, d) measured
    bases. A case's coefficients have the bits premeasure gives it when its
    basis is stored column-major, as a model's measured basis is."""
    c = (bases.conj().swapaxes(-1, -2) @ states[..., None])[..., 0]
    if c.shape[-1] > 1:
        return bases * c[..., None, :]
    # d = 1: premeasure multiplies a 1 x 1 basis by a broadcast c, which numpy
    # does with its scalar complex loop, but a stack of 1 x 1 slices is one
    # contiguous run for its vector loop, which rounds otherwise; so the
    # product is formed part by part, as the scalar loop forms it
    out = np.empty(bases.shape, dtype=complex)
    out.real = bases.real * c.real[..., None, :] - bases.imag * c.imag[..., None, :]
    out.imag = bases.real * c.imag[..., None, :] + bases.imag * c.real[..., None, :]
    return out


def collapse(rho, model: MeasurementModel) -> DensityMatrix:
    """Projective collapse: keep the diagonal of rho in the measured basis.

    Returns sum_n <b_n|rho|b_n> |b_n><b_n|, the post-measurement mixture
    when the outcome is not recorded. The basis is the model's, which its
    spectral measure already checked.
    """
    r = as_density(rho)
    if r.dim != model.dim_system:
        raise DimMismatch(f"state dim {r.dim}, system dim {model.dim_system}")
    return DensityMatrix._trusted(collapse_stack(r.matrix, model.measured_basis))


def collapse_stack(rhos: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The collapse sum_n <b_n|rho|b_n> |b_n><b_n| of one density matrix
    in one measured basis, or of stacks (..., d, d) of both."""
    adjoints = bases.conj().swapaxes(-1, -2)
    probs = np.real(np.diagonal(adjoints @ rhos @ bases, axis1=-2, axis2=-1))
    return (bases * probs[..., None, :]) @ adjoints


def apparatus_reduced_state(composite, dims: CompositeDims) -> DensityMatrix:
    """Reduced apparatus state of a composite pure state: with M the
    coefficient matrix of the composite, M^T conj(M), without forming the
    composite projector."""
    amp = as_state(composite).amplitudes
    if amp.size != dims.total:
        raise DimMismatch(
            f"state dim {amp.size} != {dims.dim_system} x {dims.dim_apparatus}"
        )
    m = amp.reshape(dims.dim_system, dims.dim_apparatus)
    return DensityMatrix._trusted(m.T @ m.conj())


def apparatus_reduced_density(rho, model: MeasurementModel) -> DensityMatrix:
    """Reduced apparatus state of a premeasured mixed system state:
    diag(p) padded with zeros to dim_apparatus, with p_j = <b_j|rho|b_j>.
    Tracing the system out of W rho W^dagger keeps only the terms with equal
    measured-basis index, since the b_j are orthonormal; O(d^3 +
    dim_apparatus^2), and no composite matrix is formed."""
    r = as_density(rho)
    if r.dim != model.dim_system:
        raise DimMismatch(f"state dim {r.dim}, system dim {model.dim_system}")
    b = model.measured_basis
    p = np.real(np.einsum("ij,ij->j", b.conj(), r.matrix @ b))
    w = np.zeros(model.apparatus.dim_apparatus, dtype=complex)
    w[: p.size] = p
    return DensityMatrix._trusted(np.diag(w))
