"""Built-in invariant suite behind the CLI verify verb.

Each check is a fast, seeded, deterministic property run with its own pinned
tolerance; the CLI tolerance flag does not loosen these. A property's body
is a kernel taking one drawn case and returning its residuals; the acceptance
test suite runs the same kernels at larger sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    SpectralProbabilityMeasure,
    generate_algebra,
    joint_spectrum,
    proper_mixture_representative,
    restrict_state,
)
from .linalg import isometry_defect
from .measurement import (
    apparatus_reduced_state,
    build_apparatus,
    build_coupling,
    coupling_matrix,
    pointer_observable,
    premeasure,
)
from .observables import evolve
from .randomness import rand_hermitian, rand_state, rand_unitary, random_cases, substream
from .scenario import collapse_restriction_gaps, pointer_readout, run_cat, run_scenario
from .states import (
    CompositeDims,
    StateVector,
    mix,
    partial_trace,
    projector_of,
)

_SEED = 20240811


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str


def _result(name: str, worst: float, tol: float, detail: str) -> CheckResult:
    return CheckResult(name, bool(worst <= tol), float(worst), tol, detail)


def coupling_defects(basis: np.ndarray, psi: StateVector, apparatus) -> tuple[float, float, float]:
    """Amplitude, agreement and unitarity defects of one coupling: the dense
    U must take psi (x) e_0 to sum_j c_j b_j (x) e_j with c_j = <b_j|psi>,
    premeasure must give the same composite without U, and U must be unitary."""
    model = build_coupling(basis, apparatus)
    u = coupling_matrix(model)
    unitarity = isometry_defect(u)
    ready = np.eye(apparatus.dim_apparatus)[0]
    dense = u @ np.outer(psi.amplitudes, ready).reshape(-1)
    d = basis.shape[1]
    want = np.zeros((d, apparatus.dim_apparatus), dtype=complex)
    want[:, :d] = basis * (basis.conj().T @ psi.amplitudes)
    amplitude = float(np.max(np.abs(dense - want.reshape(-1))))
    agreement = float(np.max(np.abs(premeasure(psi, model).amplitudes - dense)))
    return amplitude, agreement, unitarity


def spectral_axiom_defect(a: np.ndarray) -> float:
    """Worst violation of the spectral measure axioms for the algebra a
    generates, read from its raw joint spectrum before a SpectralAlgebra
    validates it. For the square basis V, V^dagger V = I makes the blocks
    orthonormal, their projectors pairwise orthogonal and complete; and the
    eigenvalues must reconstruct a. It is the route by which
    model_for_observable builds every run's measured spectral measure."""
    labels, chars, basis = joint_spectrum([a])
    v = np.eye(labels.size) if basis is None else basis
    recon = float(np.max(np.abs((v * chars[labels, 0]) @ v.conj().T - a)))
    return max(isometry_defect(v), recon)


def joint_diagonalization_defect(family) -> tuple[float, bool]:
    """Largest off-diagonal entry of any family member in the joint eigenbasis
    of the family, and whether the joint eigenspaces carry pairwise distinct
    characters. Both are read from the raw joint spectrum, before a
    SpectralAlgebra could reject colliding characters."""
    labels, chars, basis = joint_spectrum(family)
    v = np.eye(labels.size) if basis is None else basis
    worst = 0.0
    for a in family:
        rotated = v.conj().T @ a @ v
        worst = max(worst, float(np.max(np.abs(rotated - np.diag(np.diag(rotated))))))
    distinct = len({tuple(char) for char in chars}) == len(chars)
    return worst, distinct


def group_law_defects(h: np.ndarray, s: float, t: float, psi: StateVector) -> tuple[float, float]:
    """Composition defect |e^{-isH} e^{-itH} psi - e^{-i(s+t)H} psi| and the
    worst norm drift of the two evolved states."""
    stepwise = evolve(evolve(psi, h, t), h, s)
    direct = evolve(psi, h, s + t)
    group = float(np.max(np.abs(stepwise.amplitudes - direct.amplitudes)))
    norm = max(abs(float(np.linalg.norm(x.amplitudes)) - 1.0) for x in (stepwise, direct))
    return group, norm


def chain_reduction_gap(psi: StateVector, basis: np.ndarray, apparatus, copier, algebra) -> float:
    """Gap between the pointer weights after one premeasurement and those a
    second apparatus reads after copier copies the first pointer."""
    d = basis.shape[0]
    model = build_coupling(basis, apparatus)
    single = restrict_state(
        apparatus_reduced_state(premeasure(psi, model), model.dims), algebra
    ).weights
    r = np.eye(apparatus.dim_apparatus)[0]
    # U_model (x) I on psi (x) e_0 (x) e_0, then I (x) U_copier
    first = coupling_matrix(model) @ np.outer(np.outer(psi.amplitudes, r), r)
    final = first.reshape(d, -1) @ coupling_matrix(copier).T
    joint = projector_of(StateVector(final.reshape(-1)))
    rho_last = partial_trace(joint, CompositeDims(d * d, d))
    two_stage = restrict_state(rho_last, algebra).weights
    return float(np.max(np.abs(single - two_stage)))


def check_collapse_restriction() -> CheckResult:
    """Collapse diagonal equals restriction weights for random pairs, one
    stack of cases per dimension."""
    worst = 0.0
    cases = 0
    for d in range(2, 7):
        states, bases = random_cases(d, _SEED, (10, d), range(40))
        gaps = collapse_restriction_gaps(states, bases, pointer_readout(d))
        worst = max(worst, float(gaps.max()))
        cases += gaps.size
    return _result("collapse vs restriction", worst, 1e-9, f"{cases} random cases, dims 2..6")


def check_coupling_fidelity() -> CheckResult:
    """Premeasured amplitudes sit on the correlated slots with value c_j,
    the structured premeasurement agrees with the dense coupling, and the
    coupling is unitary."""
    worst = 0.0
    cases = 0
    for d in range(2, 7):
        apparatus = build_apparatus(d)
        for i in range(30):
            rng = substream(_SEED, 11, d, i)
            basis = rand_unitary(d, rng)
            psi = StateVector(rand_state(d, rng))
            worst = max(worst, *coupling_defects(basis, psi, apparatus))
            cases += 1
    return _result("coupling fidelity", worst, 1e-10, f"{cases} random states, dims 2..6")


def check_spectral_axioms() -> CheckResult:
    """Spectral blocks are orthonormal, their projectors pairwise orthogonal
    and complete, and the eigenvalues reconstruct the observable."""
    worst = 0.0
    cases = 0
    for d in range(2, 9):
        for i in range(5):
            rng = substream(_SEED, 12, d, i)
            worst = max(worst, spectral_axiom_defect(rand_hermitian(d, rng)))
            cases += 1
    return _result("spectral measure axioms", worst, 1e-9, f"{cases} random Hermitians, dims 2..8")


def check_joint_diagonalization() -> CheckResult:
    """Commuting families become simultaneously diagonal with distinct characters."""
    worst = 0.0
    cases = 0
    for i in range(20):
        rng = substream(_SEED, 13, i)
        d = int(rng.integers(2, 9))
        h = rand_hermitian(d, rng)
        h = h / max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        coeffs = rng.uniform(-1, 1, size=(2, 4))
        family = [h]
        for row in coeffs:
            family.append(
                row[0] * np.eye(d) + row[1] * h + row[2] * h @ h + row[3] * h @ h @ h
            )
        off, distinct = joint_diagonalization_defect(family)
        worst = max(worst, off, 0.0 if distinct else 1.0)
        cases += 1
    return _result("joint diagonalization", worst, 1e-8, f"{cases} random commuting families")


def check_born_sampling() -> CheckResult:
    """Sampled frequencies stay inside 4 sigma of the spectral weights."""
    from .scenario import parse_scenario

    doc = """
    {
      "system_dim": 2,
      "initial_state": {"kind": "vector", "data": [[0.6, 0], [0.8, 0]]},
      "observable": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
      "apparatus": {"dim": 2},
      "trials": 20000,
      "seed": 7
    }
    """
    report = run_scenario(parse_scenario(doc))
    t = report.empirical.trials
    worst = 0.0
    for p, f in zip(report.born.probabilities, report.empirical.frequencies):
        sigma = np.sqrt(p * (1 - p) / t)
        worst = max(worst, abs(f - p) / (4 * sigma))
    return _result("sampling agreement", worst, 1.0, f"{t} trials against (0.36, 0.64), 4 sigma units")


def check_cat() -> CheckResult:
    """Branch cross terms vanish and weights split as |c1|^2, |c2|^2."""
    report = run_cat(0.6, 0.8j, chain_length=6)
    worst_cross = max(report.cross_terms) if report.cross_terms else 0.0
    w = report.restricted.weights
    weight_err = max(abs(w[-1] - 0.36), abs(w[0] - 0.64))
    worst = max(worst_cross, weight_err, report.max_deviation)
    return _result("cat branches", worst, 1e-10, "chain of 6 cells, c = (0.6, 0.8i)")


def check_simplex_contrast() -> CheckResult:
    """The maximally mixed qubit has two distinct pure decompositions, while
    a spectral measure is recovered from its proper mixture representative
    by restriction, on random algebras."""
    e0 = StateVector([1, 0])
    e1 = StateVector([0, 1])
    plus = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
    minus = StateVector([1 / np.sqrt(2), -1 / np.sqrt(2)])
    mix_z = mix([0.5, 0.5], [projector_of(e0), projector_of(e1)])
    mix_x = mix([0.5, 0.5], [projector_of(plus), projector_of(minus)])
    agree = float(np.max(np.abs(mix_z.matrix - mix_x.matrix)))
    distinct = float(np.max(np.abs(projector_of(e0).matrix - projector_of(plus).matrix)))
    worst = max(agree, 0.0 if distinct > 0.1 else 1.0)

    for i in range(10):
        rng = substream(_SEED, 14, i)
        algebra = generate_algebra([rand_hermitian(int(rng.integers(2, 6)), rng)])
        raw = rng.uniform(0.05, 1.0, size=algebra.n_points)
        measure = SpectralProbabilityMeasure(raw / raw.sum())
        rho = proper_mixture_representative(measure, algebra)
        recovered = restrict_state(rho, algebra).weights
        worst = max(worst, float(np.max(np.abs(recovered - measure.weights))))
    return _result(
        "simplex contrast",
        worst,
        1e-12,
        "two pure decompositions of the mixed qubit; weight round trip on 10 random algebras",
    )


def check_dynamics_group() -> CheckResult:
    """exp(-isH) exp(-itH) psi = exp(-i(s+t)H) psi and norms are preserved."""
    worst = 0.0
    for i in range(20):
        rng = substream(_SEED, 15, i)
        d = int(rng.integers(2, 9))
        h = rand_hermitian(d, rng)
        s, t = rng.uniform(-3, 3, size=2)
        psi = StateVector(rand_state(d, rng))
        worst = max(worst, *group_law_defects(h, s, t, psi))
    return _result("dynamics group law", worst, 1e-9, "20 random (H, s, t)")


def check_chain_reduction() -> CheckResult:
    """A second apparatus copying the first reads the same distribution."""
    d = 4
    worst = 0.0
    apparatus = build_apparatus(d)
    algebra = generate_algebra([pointer_observable(apparatus)])
    copier = build_coupling(np.eye(d, dtype=complex), apparatus)
    for i in range(20):
        rng = substream(_SEED, 16, i)
        basis = rand_unitary(d, rng)
        psi = StateVector(rand_state(d, rng))
        worst = max(worst, chain_reduction_gap(psi, basis, apparatus, copier, algebra))
    return _result("chain reduction", worst, 1e-10, "20 random states, dim 4, two-stage pointer")


ALL_CHECKS = (
    check_collapse_restriction,
    check_coupling_fidelity,
    check_spectral_axioms,
    check_joint_diagonalization,
    check_born_sampling,
    check_cat,
    check_simplex_contrast,
    check_dynamics_group,
    check_chain_reduction,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
