"""Test oracles: textbook or one-at-a-time forms of what the package computes
in a faster or structured way, and random inputs for the property tests.
Nothing in the package reaches them; the tests hold the package against them."""

from pathlib import Path

import numpy as np

from qmeasure.algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    _split_points,
    generate_algebra,
    joint_spectra,
    restrict_state,
)
from qmeasure.errors import DimMismatch
from qmeasure.linalg import default_cluster_tol, isometry_defect, require_hermitian
from qmeasure.measurement import (
    checked_cases,
    collapse,
    coupling_matrix,
    premeasure,
    readout_weights,
)
from qmeasure.randomness import haar_unitaries
from qmeasure.scenario import Scenario, parse_scenario
from qmeasure.states import partial_trace, projector_of, state_vector


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def rand_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix,
    one object at a time: the draws of one case of randomness.draw_cases."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return haar_unitaries(z)


def rand_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a Ginibre factor, full rank by default."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real


def projectors(algebra: SpectralAlgebra) -> tuple[np.ndarray, ...]:
    """Spectral projectors V_k V_k^dagger, one per spectrum point."""
    v = np.eye(algebra.dim, dtype=complex) if algebra.basis is None else algebra.basis
    blocks = (v[:, algebra.labels == k] for k in range(algebra.n_points))
    return tuple(b @ b.conj().T for b in blocks)


def spectrum_reference(gens) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The split loop of qmeasure.algebra._spectrum, on the same input, with
    an eigensolver call at every spectrum point, one-column points included,
    and every new point valued at the mean of its cluster, a lone value kept
    as it is. The package reads a one-column point's value off the compressed
    generator instead."""
    n = gens[0].shape[0]
    labels = np.zeros(n, dtype=np.intp)
    counts = np.array([n])
    chars = np.zeros((1, 0))
    basis = None
    for g in gens:
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
                    block = np.ix_(cols, cols)
                    values[cols], basis[block] = np.linalg.eigh(g[block])
                else:
                    v = basis[:, cols]
                    values[cols], u = np.linalg.eigh(v.conj().T @ g @ v)
                    basis[:, cols] = v @ u
        counts, parents, _ = _split_points(labels, counts, values, default_cluster_tol(values))
        means = np.empty(counts.size)
        for k in range(counts.size):
            cluster = np.sort(values[labels == k])
            means[k] = cluster[0] if cluster.size == 1 else cluster[0] + np.mean(cluster - cluster[0])
        chars = np.column_stack((chars[parents], means))
    return labels, chars, basis


def _column_major(basis: np.ndarray) -> np.ndarray:
    """A measured basis stored column-major, as model_for_observable and a
    checked stack store it, so that one case gets the bits of a stack."""
    return np.asfortranarray(basis, dtype=complex)


def premeasured_state(psi: np.ndarray, basis: np.ndarray, dim_apparatus: int) -> np.ndarray:
    """The premeasured composite sum_j c_j b_j (x) e_j on the whole product
    space: premeasure's d x d block padded with the zero columns past d,
    checked as a state vector."""
    d = basis.shape[1]
    m = np.zeros((d, dim_apparatus), dtype=complex)
    m[:, :d] = premeasure(psi, basis)
    return state_vector(m.reshape(-1))


def apparatus_reduced_state(composite: np.ndarray, dim_system: int, dim_apparatus: int) -> np.ndarray:
    """Reduced apparatus state of a composite pure state: with M the
    coefficient matrix of the composite, M^T conj(M), without forming the
    composite projector."""
    if composite.size != dim_system * dim_apparatus:
        raise DimMismatch(f"state dim {composite.size} != {dim_system} x {dim_apparatus}")
    m = composite.reshape(dim_system, dim_apparatus)
    return m.T @ m.conj()


def _pointer_column_weights(m: np.ndarray) -> np.ndarray:
    """The pointer-column weights sum_a |M_aj|^2 of one premeasured d x d
    block: the diagonal of its reduced state M^T conj(M), which is all a
    pointer readout reads of it."""
    return np.einsum("aj,aj->j", m.real, m.real) + np.einsum("aj,aj->j", m.imag, m.imag)


def collapse_restriction_gap(psi: np.ndarray, basis: np.ndarray) -> float:
    """One case of the collapse vs restriction equivalence, one object at a
    time: the largest gap between the collapse diagonal of psi in the
    measured basis and the weights its premeasured state, on a minimal
    apparatus, puts on the pointer readout. The package runs a stack of
    cases at once (measurement.collapse_restriction_gaps)."""
    d = basis.shape[1]
    b = _column_major(basis)
    readout = generate_algebra([np.diag(np.arange(d, dtype=float))])
    rho_app = np.diag(_pointer_column_weights(premeasure(psi, b)))
    weights = restrict_state(rho_app, readout).weights
    collapsed = collapse(projector_of(psi), b)
    diag = np.real(np.diag(basis.conj().T @ collapsed @ basis))
    return float(np.max(np.abs(weights - diag)))


def coupling_defects(basis: np.ndarray, psi: np.ndarray, dim_apparatus: int) -> tuple[float, float]:
    """Agreement and unitarity defects of one coupling, one case at a time:
    premeasure must give, without U, the composite the dense U makes of
    psi (x) e_0, its d x d block and zero columns after it, and U must be
    unitary. The package runs a stack of cases at once
    (verification.coupling_defects)."""
    b = _column_major(basis)
    u = coupling_matrix(b, dim_apparatus)
    ready = np.eye(dim_apparatus)[0]
    d = basis.shape[1]
    gap = (u @ np.outer(psi, ready).reshape(-1)).reshape(d, -1)
    gap[:, :d] -= premeasure(psi, b)
    return float(np.max(np.abs(gap))), float(isometry_defect(u))


def premeasure_density(rho: np.ndarray, basis: np.ndarray, dim_apparatus: int) -> np.ndarray:
    """Mixed-state premeasurement as the dense W rho W^dagger, with the
    ready-input isometry W = sum_j (b_j (x) e_j) b_j^dagger, equal to
    U (rho (x) |e_0><e_0|) U^dagger. It is (d * dim_apparatus)^2; a run
    premeasures a factor of rho instead and forms only the d x d reduced
    apparatus block."""
    d = basis.shape[1]
    if len(rho) != d:
        raise DimMismatch(f"state dim {len(rho)}, system dim {d}")
    f = np.eye(dim_apparatus, d)
    # column j of the product array is b_j (x) e_j
    w = (basis[:, None, :] * f[None, :, :]).reshape(-1, d) @ basis.conj().T
    return w @ rho @ w.conj().T


def sample_outcome(
    psi: np.ndarray, basis: np.ndarray, values: np.ndarray, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """Draw one outcome with probability |<b_j|psi>|^2, valued values[j]:
    the one-draw-at-a-time form of the scenario sampling.

    Consumes exactly one uniform variate from rng via the inverse CDF over
    outcomes in ascending order. The returned post-state is measured basis
    column j; reporting it is a labeling convention for the run record, not
    a claim about dynamics.
    """
    if psi.size != basis.shape[1]:
        raise DimMismatch(f"state dim {psi.size}, system dim {basis.shape[1]}")
    amps = basis.conj().T @ psi
    cum = np.cumsum(np.abs(amps) ** 2)
    j = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    j = min(j, amps.size - 1)
    return float(values[j]), state_vector(basis[:, j])


def joint_spectrum(family) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The raw spectrum of one commuting family: joint_spectra of a stack of
    one, the case's labels and basis taken out of the stack."""
    labels, chars, basis = joint_spectra([np.asarray(g)[None] for g in family])
    return labels[0], chars, None if basis is None else basis[0]


def spectral_axiom_defect(a: np.ndarray) -> float:
    """One case of the spectral measure axioms, one object at a time: for
    the square basis V of the raw joint spectrum of [a], the isometry
    defect of V and the defect of the eigenvalues reconstructing a. The
    package runs a stack of cases at once
    (verification.spectral_axiom_defects)."""
    labels, chars, basis = joint_spectrum([a])
    v = np.eye(labels.size) if basis is None else basis
    recon = float(np.max(np.abs((v * chars[labels, 0]) @ v.conj().T - a)))
    return max(float(isometry_defect(v)), recon)


def joint_diagonalization_defect(family) -> tuple[float, bool]:
    """One case of the joint diagonalization, one object at a time: the
    largest off-diagonal entry of any family member in the joint eigenbasis
    of the family, and whether the joint eigenspaces carry pairwise distinct
    characters. The package runs a stack of families at once
    (verification.joint_diagonalization_defects)."""
    labels, chars, basis = joint_spectrum(family)
    n = labels.size
    v = np.eye(n) if basis is None else basis
    off = np.abs(v.conj().T @ np.stack(family) @ v)
    off.reshape(-1, n * n)[:, :: n + 1] = 0
    distinct = len({tuple(char) for char in chars}) == len(chars)
    return float(off.max()), distinct


def evolve_one(psi: np.ndarray, generated: SpectralAlgebra, t: float) -> np.ndarray:
    """exp(-i t H) psi for one state, given the algebra generate_algebra([H]):
    the element of the algebra valued exp(-i t lambda) at each eigenvalue
    lambda, applied to psi. The package evolves a stack of states at once
    (algebra.evolve)."""
    phases = np.exp(-1j * float(t) * generated.characters[:, 0])
    return state_vector(generated.element(phases) @ psi)


def group_law_defects(h: np.ndarray, s: float, t: float, psi: np.ndarray) -> tuple[float, float]:
    """One case of the dynamics group law, one object at a time: the
    composition defect |e^{-isH} e^{-itH} psi - e^{-i(s+t)H} psi| and the
    worst norm drift of the two evolved states, all three evolutions on the
    algebra H generates, H checked as the package checks a stack of them.
    The package runs a stack of cases at once
    (verification.group_law_defects)."""
    generated = generate_algebra([require_hermitian(h)])
    stepwise = evolve_one(evolve_one(psi, generated, t), generated, s)
    direct = evolve_one(psi, generated, s + t)
    group = float(np.max(np.abs(stepwise - direct)))
    norm = max(abs(float(np.linalg.norm(x)) - 1.0) for x in (stepwise, direct))
    return group, norm


def proper_mixture_representative(
    measure: SpectralProbabilityMeasure, algebra: SpectralAlgebra
) -> np.ndarray:
    """The canonical density matrix carrying a spectral measure: the
    normalized projector of each point, weighted by the measure. The
    package forms it for a stack of measures at once
    (verification.round_trip_defects)."""
    if measure.n_points != algebra.n_points:
        raise DimMismatch(
            f"measure has {measure.n_points} points, algebra {algebra.n_points}"
        )
    return algebra.element(measure.weights / algebra.multiplicities())


def round_trip_defect(h: np.ndarray, raw: np.ndarray) -> float:
    """One case of the weight round trip, one object at a time: the measure
    of the leading raw weights, normalized, on the algebra h generates, h
    checked as the package checks a stack of them, against its proper
    mixture representative restricted to that algebra. The package runs a stack of cases at once
    (verification.round_trip_defects)."""
    algebra = generate_algebra([require_hermitian(h)])
    w = raw[: algebra.n_points]
    measure = SpectralProbabilityMeasure(w / w.sum(), algebra.characters)
    rho = proper_mixture_representative(measure, algebra)
    return float(np.max(np.abs(restrict_state(rho, algebra).weights - measure.weights)))


def chain_reduction_gap(
    psi: np.ndarray, basis: np.ndarray, copier: np.ndarray, algebra
) -> float:
    """One case of the chain reduction, one object at a time: the gap between
    the pointer weights after one premeasurement of the state psi in the
    measured basis, on a minimal apparatus (pointer value j on column j)
    read through algebra, and those a second such apparatus reads after
    copier, the dense coupling of the second apparatus to the first pointer,
    copies that pointer. The state and basis are checked as a stack of one
    case. The package runs a stack of cases at once
    (verification.chain_reduction_gaps)."""
    d = basis.shape[0]
    b = checked_cases(psi[None], basis[None])[0]
    m = premeasure(psi, b)
    single, _ = readout_weights(_pointer_column_weights(m), algebra, np.arange(d, dtype=float))
    r = np.eye(d)[0]
    # U (x) I on psi (x) e_0 (x) e_0, then I (x) U_copier
    u = coupling_matrix(b, d)
    first = u @ np.outer(np.outer(psi, r), r)
    final = first.reshape(d, -1) @ copier.T
    joint = projector_of(state_vector(final.reshape(-1)))
    rho_last = partial_trace(joint, d * d, d)
    two_stage = restrict_state(rho_last, algebra).weights
    return float(np.max(np.abs(single - two_stage)))
