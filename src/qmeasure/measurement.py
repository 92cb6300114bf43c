"""The measurement chain on bare arrays: measured basis, premeasurement,
pointer readout, collapse map.

A measurement is three plain values: the measured basis B, column j the
eigenvector of outcome j (model_for_observable gives it for an observable),
the apparatus dimension, and one real pointer value per outcome.
pointer_diagonal is the one check of the pointer values and the apparatus
dimension: it returns the pointer readout as its diagonal w, and
diagonal_algebra([w]) is the readout algebra, held in index form, so no
apparatus.dim^2 pointer matrix is formed.

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
composite: a pure state becomes sum_j c_j b_j (x) e_j, whose d x
dim_apparatus coefficient matrix is B diag(c) in its first d columns and
zero after. premeasure returns only that d x d block, for one state or a
stack of them; the zero columns and the (d * dim_apparatus)^2 matrix U are
never formed. A mixed state is premeasured through a factor rho = F F^dagger,
each column of F as one state of the stack, so no composite density matrix
is formed either.
The dense U is built only by coupling_matrix, the oracle the verify suite
and the tests hold the structured path against.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DegenerateSpectrum, TooSmall, ValidationError
from .algebra import SpectralAlgebra, generate_algebra
from .linalg import default_cluster_tol


def coupling_matrix(bases: np.ndarray, dim_apparatus: int) -> np.ndarray:
    """The dense controlled shift U = G Pi G^dagger on the full product
    space, for a measured basis B or a (..., d, d) stack of them: G = B (x) I
    has column j * dim_apparatus + k equal to b_j (x) e_k, and Pi relabels
    column (j, k) as (j, k + j mod dim_apparatus). One stacked product builds
    every U.

    An oracle: it is (d * dim_apparatus)^2, and premeasurement never builds
    it. The verify suite and the tests check that U is unitary and that
    premeasure agrees with it on ready inputs.
    """
    d, dm = bases.shape[-1], dim_apparatus
    n = d * dm
    g = (bases[..., :, None, :, None] * np.eye(dm)[:, None, :]).reshape(*bases.shape[:-2], n, n)
    j, k = np.divmod(np.arange(n), dm)
    g_pi = g[..., j * dm + (k + j) % dm]
    # G is not needed again: conjugating it in place saves one more (d * dm)^2
    # array per basis
    return g_pi @ np.conjugate(g, out=g).swapaxes(-1, -2)


def model_for_observable(a) -> tuple[SpectralAlgebra, np.ndarray]:
    """The measured spectral measure of a nondegenerate Hermitian observable
    and its basis in label order, column j the eigenvector of outcome j.

    The measure is generate_algebra([a]), the algebra the observable
    generates, which checks its basis once; its points are the eigenvalues
    in ascending order. Eigenvalues that share a point (within the cluster
    width) raise DegenerateSpectrum. The basis is a column-major copy, the
    layout in which premeasure gives a case the bits it gets in a stack.
    """
    pvm = generate_algebra([a])
    if pvm.n_points != pvm.dim:
        sizes = pvm.multiplicities().tolist()
        raise DegenerateSpectrum(
            f"spectrum splits into clusters of sizes {sizes}; need all distinct"
        )
    v = np.eye(pvm.dim, dtype=complex) if pvm.basis is None else pvm.basis
    return pvm, linalg.readonly(v[:, np.argsort(pvm.labels, kind="stable")])


def pointer_diagonal(pointer_values, dim_apparatus: int) -> np.ndarray:
    """The pointer readout of an apparatus of dim_apparatus as its diagonal
    w: pointer value j on e_j. This is the one check of the pointer values:
    a nonempty 1-d sequence, no more values than apparatus columns
    (TooSmall), all finite and spanning no more than the largest float, so
    that no gap between two of them overflows, and no two within the
    cluster width of w, where they would share a readout point; equal
    values are the plainest case.

    Columns past the last outcome, never reached from the ready state, share
    one idle value below the real values, so the readout stays a single
    observable on the full apparatus space. The idle value is min - 1 unless
    that is within reach of the least pointer value, where it would match
    that outcome (_match_outcomes) or merge with it (the cluster width of any
    values up to twice the largest); then it is twice that reach below."""
    vals = np.asarray(pointer_values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ValidationError("pointer_values must be a nonempty 1-d sequence")
    if vals.size > dim_apparatus:
        raise TooSmall(f"apparatus dim {dim_apparatus} cannot register {vals.size} outcomes")
    linalg.require_float_span(vals, "pointer values")
    low = float(vals.min())
    scale = max(1.0, float(np.max(np.abs(vals))))
    reach = max(linalg.POINTER_MATCH_RTOL * scale, 2 * default_cluster_tol(np.full(dim_apparatus, scale)))
    idle = low - 1.0 if low - (low - 1.0) > reach else low - 2 * reach
    w = np.full(dim_apparatus, idle)
    w[: vals.size] = vals
    linalg.require_float_span(w, "pointer values with the idle value below them")
    # the gaps between the values and one idle entry, if there is one
    gap = float(np.diff(np.sort(w[: vals.size + 1])).min(initial=np.inf))
    if gap <= (tol := default_cluster_tol(w)):
        raise ValidationError(
            f"pointer values {gap:.3e} apart fall in one readout point (cluster width {tol:.3e})"
        )
    return w


def premeasure(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Couple pure system states to the ready apparatus, on bare arrays.

    The output for a state psi is sum_j c_j b_j (x) e_j with c_j the overlap
    of psi with measured basis column j: nothing is discarded and no outcome
    is chosen. It is returned as the nonzero d x d block B diag(c) of its
    coefficient matrix, rows indexed by the system and columns by the pointer
    e_j, from a (..., d) stack of states and a (..., d, d) stack of measured
    bases, which broadcast against each other. A case's block has the same
    bits alone or in a stack when its basis is stored column-major, as
    model_for_observable and a checked stack store it.
    """
    c = (states.conj()[..., None, :] @ bases)[..., 0, :].conj()
    if c.shape[-1] > 1:
        return bases * c[..., None, :]
    # d = 1: numpy multiplies a lone 1 x 1 basis by a broadcast c with its
    # scalar complex loop, but a stack of 1 x 1 slices is one contiguous run
    # for its vector loop, which rounds otherwise; so the product is formed
    # part by part, as the scalar loop forms it
    out = np.empty(np.broadcast_shapes(bases.shape, c.shape[:-1] + (1, 1)), dtype=complex)
    out.real = bases.real * c.real[..., None, :] - bases.imag * c.imag[..., None, :]
    out.imag = bases.real * c.imag[..., None, :] + bases.imag * c.real[..., None, :]
    return out


def collapse(rhos: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Projective collapse on bare arrays: sum_n <b_n|rho|b_n> |b_n><b_n|,
    the post-measurement mixture when the outcome is not recorded, of one
    density matrix in one measured basis, or of stacks (..., d, d) of both.
    The caller holds checked bases, as model_for_observable's or a checked
    stack's are."""
    adjoints = bases.conj().swapaxes(-1, -2)
    probs = np.real(np.diagonal(adjoints @ rhos @ bases, axis1=-2, axis2=-1))
    return (bases * probs[..., None, :]) @ adjoints
