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
from .algebra import SpectralAlgebra, diagonal_algebra
from .linalg import default_cluster_tol, hermitian_eigendecompose
from .observables import Observable, as_observable
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
    the apparatus the controlled shift couples it to."""

    measured_pvm: SpectralAlgebra
    apparatus: ApparatusModel

    def __post_init__(self) -> None:
        d = self.measured_pvm.dim
        if self.apparatus.n_outcomes != d:
            raise DimMismatch(
                f"apparatus registers {self.apparatus.n_outcomes} outcomes, system dim is {d}"
            )
        for rank, char in zip(self.measured_pvm.multiplicities(), self.measured_pvm.characters):
            if rank != 1:
                raise DegenerateSpectrum(f"outcome {char[0]!r} has rank {rank}")

    @property
    def measured_basis(self) -> np.ndarray:
        """The measured basis: the basis columns in label order, column j
        the eigenvector of outcome j."""
        pvm = self.measured_pvm
        v = np.eye(pvm.dim, dtype=complex) if pvm.basis is None else pvm.basis
        return linalg.readonly(v[:, np.argsort(pvm.labels, kind="stable")])

    @property
    def dim_system(self) -> int:
        return self.measured_pvm.dim

    @property
    def dims(self) -> CompositeDims:
        return CompositeDims(self.dim_system, self.apparatus.dim_apparatus)


def build_coupling(
    measured_basis, apparatus: ApparatusModel, measured_values=None
) -> MeasurementModel:
    """Assemble the measurement model for an orthonormal measured basis.

    measured_values are the outcome values attached to the basis columns,
    strictly ascending; they default to the apparatus pointer values. The
    spectral measure built from the basis checks its orthonormality.
    """
    basis = linalg.require_square(measured_basis)
    d = basis.shape[0]
    if measured_values is None:
        vals = np.asarray(apparatus.pointer_values, dtype=float)
    else:
        vals = np.asarray(measured_values, dtype=float)
    if vals.ndim != 1 or vals.size != d:
        raise ValidationError(f"expected {d} measured values, got shape {vals.shape}")
    # one basis column per outcome; the type rejects a basis that is not
    # orthonormal and values that do not strictly ascend
    pvm = SpectralAlgebra(np.arange(d), vals[:, None], basis)
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

    The measured basis is the eigenbasis in ascending eigenvalue order, and
    the pointer values default to copies of the measured eigenvalues. A
    repeated eigenvalue (within the cluster tolerance) raises
    DegenerateSpectrum.
    """
    obs = as_observable(a)
    eig = hermitian_eigendecompose(obs.matrix)
    points = diagonal_algebra([eig.eigenvalues])
    if points.n_points != obs.dim:
        sizes = points.multiplicities().tolist()
        raise DegenerateSpectrum(
            f"spectrum splits into clusters of sizes {sizes}; need all distinct"
        )
    vals = eig.eigenvalues
    apparatus = build_apparatus(
        obs.dim, dim_apparatus, vals if pointer_values is None else pointer_values
    )
    return build_coupling(eig.eigenvectors, apparatus, measured_values=vals)


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


def premeasure_density(rho, model: MeasurementModel) -> DensityMatrix:
    """Mixed-state version of premeasure: W rho W^dagger with the ready-input
    isometry W = sum_j (b_j (x) e_j) b_j^dagger, equal to
    U (rho (x) |e_0><e_0|) U^dagger.

    An oracle: it is (d * dim_apparatus)^2. A run needs only its apparatus
    marginal, which apparatus_reduced_density gives in closed form; the
    tests hold the two against each other.
    """
    r = as_density(rho)
    if r.dim != model.dim_system:
        raise DimMismatch(f"state dim {r.dim}, system dim {model.dim_system}")
    b = model.measured_basis
    f = np.eye(model.apparatus.dim_apparatus, model.dim_system)
    # column j of the product array is b_j (x) e_j
    w = (b[:, None, :] * f[None, :, :]).reshape(-1, b.shape[1]) @ b.conj().T
    return DensityMatrix._trusted(w @ r.matrix @ w.conj().T)


def collapse(rho, model: MeasurementModel) -> DensityMatrix:
    """Projective collapse: keep the diagonal of rho in the measured basis.

    Returns sum_n <b_n|rho|b_n> |b_n><b_n|, the post-measurement mixture
    when the outcome is not recorded. The basis is the model's, which its
    spectral measure already checked.
    """
    r = as_density(rho)
    if r.dim != model.dim_system:
        raise DimMismatch(f"state dim {r.dim}, system dim {model.dim_system}")
    basis = model.measured_basis
    probs = np.real(np.diag(basis.conj().T @ r.matrix @ basis))
    return DensityMatrix._trusted((basis * probs) @ basis.conj().T)


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


def sample_outcome(
    psi, model: MeasurementModel, rng: np.random.Generator
) -> tuple[float, StateVector]:
    """Draw one outcome with probability |<b_j|psi>|^2.

    Consumes exactly one uniform variate from rng via the inverse CDF over
    outcomes in ascending order. The returned post-state is measured basis
    column j; reporting it is a labeling convention for the run record, not
    a claim about dynamics.
    """
    p = as_state(psi)
    if p.dim != model.dim_system:
        raise DimMismatch(f"state dim {p.dim}, system dim {model.dim_system}")
    amps = model.measured_basis.conj().T @ p.amplitudes
    cum = np.cumsum(np.abs(amps) ** 2)
    j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    j = min(j, amps.size - 1)
    return float(model.measured_pvm.characters[j, 0]), StateVector(model.measured_basis[:, j])
