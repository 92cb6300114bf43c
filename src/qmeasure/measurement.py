"""The measurement chain on bare arrays: measured basis, premeasurement,
reduction to the apparatus, pointer readout, collapse map, and the readout
kernel that composes them.

A measurement is three plain values: the measured basis B, column j the
eigenvector of outcome j (model_for_observable gives it for an observable),
the apparatus dimension, and one real pointer value per outcome.
pointer_diagonal is the one check of the pointer values and the apparatus
dimension: it returns the pointer readout as its diagonal w, and
pointer_readout writes down the algebra w generates in index form, from
those guarantees, so no apparatus.dim^2 pointer matrix is formed.

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

One kernel, readout_weights, reads the composite for run, compare, the cat
and verify's chain check: it restricts the reduced apparatus state to a
commutative readout algebra and aligns its points to outcomes by pointer
value. The readout holds the pointer, whose values are distinct, so no
projector of it mixes two pointer columns: the kernel takes the state's
diagonal, from reduce for a stack of premeasured blocks, from
pointer_weights for a bare vector or, through the rows of one factor of it,
density matrix. collapse_diagonal reads the collapse on its diagonal too.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    DegenerateSpectrum,
    DimMismatch,
    NotOrthonormal,
    TooSmall,
    ValidationError,
)
from .algebra import SpectralAlgebra, generate_algebra
from .linalg import default_cluster_tol

# most elements of one stack of premeasured d x d blocks (compare's cases, a
# density's factor rows) or of pointer gaps: the timings are in the README
CASE_BLOCK = 2**16


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


def model_for_observable(a: np.ndarray) -> tuple[SpectralAlgebra, np.ndarray]:
    """The measured spectral measure of a nondegenerate observable, a
    Hermitian array as require_hermitian checks it, and its basis in label
    order, column j the eigenvector of outcome j.

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
    that outcome (match_outcomes) or merge with it (the cluster width of any
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


def pointer_readout(w: np.ndarray, n: int) -> SpectralAlgebra:
    """The readout algebra of the pointer diagonal w of n outcomes, in index
    form: generate_algebra([diag(w)]) written down from pointer_diagonal's
    guarantees, with no sort of the idle columns and no clustering. The n
    values are distinct and over a cluster width apart, so each is a point
    of one column that keeps its value; the idle value of the columns past
    n, if there are any, lies below them all, so it is point 0."""
    order = np.argsort(w[:n])
    idle = int(w.size > n)
    labels = np.zeros(w.size, dtype=np.intp)
    labels[order] = np.arange(idle, n + idle)
    return SpectralAlgebra(labels, np.concatenate((w[n : n + idle], w[order]))[:, None])


def match_outcomes(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per value, the index of the target closest to it if convincingly
    close, else -1; in runs of values holding at most CASE_BLOCK gaps."""
    tol = linalg.POINTER_MATCH_RTOL * max(1.0, float(np.abs(targets).max()))
    step = max(1, CASE_BLOCK // targets.size)
    out = np.empty(values.size, dtype=np.intp)
    for i in range(0, values.size, step):
        gaps = np.abs(values[i : i + step, None] - targets)
        out[i : i + step] = np.where(gaps.min(axis=1) <= tol, gaps.argmin(axis=1), -1)
    return out


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


def collapse_diagonal(rhos: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The collapse read on its diagonal in the measured basis, real
    diag(B^dagger collapse(rho, B) B), of one density matrix and basis or of
    stacks (..., d, d) of both."""
    adjoints = bases.conj().swapaxes(-1, -2)
    return np.real(np.diagonal(adjoints @ collapse(rhos, bases) @ bases, axis1=-2, axis2=-1))


def factor_rows(state: np.ndarray) -> np.ndarray:
    """Rows f_i with sum_i f_i f_i^dagger the state: a bare state vector is
    its one row, a density matrix the eigenvectors of its Hermitian part
    (eigh reads one triangle only) scaled by the roots of their positive
    eigenvalues. The density is checked already, by density_matrix, so it is
    not judged again: its Hermitian part is taken only where it is not
    exactly Hermitian, as require_hermitian takes it."""
    if state.ndim == 1:
        return state[None]
    if not np.array_equal(state, state.conj().T):
        state = linalg.hermitian_part(state)
    lam, v = np.linalg.eigh(state)
    keep = lam > 0
    return (v[:, keep] * np.sqrt(lam[keep])).T


def reduce(m: np.ndarray) -> np.ndarray:
    """The pointer-column weights of the reduced apparatus state of k
    premeasured rows (..., k, d): the real diagonal of M^T conj(M)."""
    return np.real(np.diagonal(m.swapaxes(-1, -2) @ m.conj(), axis1=-2, axis2=-1))


def pointer_weights(state: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The pointer-column weights of the apparatus after premeasuring a bare
    state vector or density matrix in the measured basis: its factor rows
    premeasured CASE_BLOCK elements at a time, and the diagonals
    sum_a |M_aj|^2 of their reduced states summed."""
    rows = factor_rows(state)
    step = max(1, CASE_BLOCK // basis.size)
    diag = np.zeros(basis.shape[0])
    for i in range(0, rows.shape[0], step):
        m = premeasure(rows[i : i + step], basis)
        diag += np.einsum("kaj,kaj->j", m.real, m.real) + np.einsum("kaj,kaj->j", m.imag, m.imag)
    return diag


def readout_weights(
    weights: np.ndarray, readout: SpectralAlgebra, pointer_values: np.ndarray, point_values=None
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict reduced apparatus states to a readout algebra and fold the
    result onto the measured outcomes.

    weights is a (..., d) stack of their real pointer-column weights, pointer
    column j registering outcome j, valued pointer_values[j]; the columns
    past d, never reached from the ready state, carry none. The callers pass
    d pointer values and a readout of dim d or more: a document's
    apparatus.dim is held to at least system_dim when it is parsed. An
    index-form readout sums the weights per point through the labels of the
    d pointer columns alone; a dense one with basis V sums w_j |V_jk|^2
    over the d rows of V that carry weight and then over each point's
    columns k. Each spectrum point carries the pointer value point_values
    (default: the readout's first character, for a readout generated by the
    pointer) and its weight goes to the outcome of that value; the points
    that match none must carry no weight in all.

    Returns the (..., n_points) weights on the readout and the (..., d)
    outcome weights, unchecked: the caller checks them, once per stack.
    """
    d = weights.shape[-1]
    if readout.basis is None:
        on_points = readout.point_sums(weights)
    else:
        v = readout.basis[:d]
        on_points = readout.point_sums(weights @ (v.real**2 + v.imag**2))
    if point_values is None:
        point_values = readout.characters[:, 0]
    outcome = match_outcomes(point_values, pointer_values)
    # column 0 gathers the points that match no outcome (-1), column j + 1
    # those of outcome j
    folded = on_points @ (outcome[:, None] == np.arange(-1, d))
    idle = float(folded[..., 0].max())
    if idle > linalg.ROUNDOFF_TOL:
        raise ValidationError(f"restriction puts weight {idle:.3e} outside the pointer range")
    return on_points, folded[..., 1:]


def checked_cases(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The checks state_vector and a measured spectral measure make on one
    case, run once on a stack of cases, each failing on a NaN: (n, d)
    states of unit norm and (n, d, d) orthonormal bases. Returns the bases
    copied column-major, the layout model_for_observable gives a measured
    basis, so that each case gets the bits it gets alone."""
    n, d = states.shape
    if bases.shape != (n, d, d):
        raise DimMismatch(f"{n} states of dim {d}, bases of shape {bases.shape}")
    linalg.require_normalized(states)
    defect = linalg.isometry_defect(bases).max()
    if not defect <= linalg.ROUNDOFF_TOL:
        raise NotOrthonormal(f"block columns are not orthonormal (defect {defect:.3e})")
    return np.ascontiguousarray(bases.swapaxes(-1, -2)).swapaxes(-1, -2)


def collapse_restriction_gaps(states: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """The collapse vs restriction equivalence on a stack of cases: per case,
    the largest gap between the collapse diagonal of states[i] in the
    measured basis bases[i] and the weights its premeasured apparatus state
    puts on the pointer readout of a minimal apparatus, pointer value j on
    column j, in index form. Each step is one stacked product, and the
    checks of one case (checked_cases, the weights' floor and sum) run once
    on the stack, each failing on a NaN, so each case's gap has the bits
    that case alone gets through a run."""
    d = states.shape[-1]
    readout = pointer_readout(np.arange(d, dtype=float), d)
    b = checked_cases(states, bases)
    weights, aligned = readout_weights(
        reduce(premeasure(states, b)), readout, readout.characters[:, 0]
    )
    linalg.require_weights(weights, stack=True)
    # the collapse of the projectors |psi><psi|, read on its diagonal
    projectors = states[:, :, None] * states.conj()[:, None, :]
    return np.max(np.abs(aligned - collapse_diagonal(projectors, b)), axis=-1)
