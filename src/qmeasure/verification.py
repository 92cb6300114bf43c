"""Built-in invariant suite behind the CLI verify verb.

Each check is a fast, seeded, deterministic property run with its own pinned
tolerance; the CLI tolerance flag does not loosen these. The acceptance test
suite exercises the same properties at larger sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    SpectralProbabilityMeasure,
    generate_algebra,
    proper_mixture_representative,
    restrict_state,
)
from .linalg import kronecker, unitary_exp
from .measurement import (
    apparatus_reduced_state,
    build_apparatus,
    build_coupling,
    collapse,
    pointer_observable,
    premeasure,
)
from .observables import Observable, joint_eigenbasis
from .randomness import rand_hermitian, rand_state, rand_unitary, substream
from .scenario import run_cat, run_scenario
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


def check_collapse_restriction() -> CheckResult:
    """Collapse diagonal equals restriction weights for random pairs."""
    worst = 0.0
    cases = 0
    for d in range(2, 7):
        apparatus = build_apparatus(d)
        algebra = generate_algebra([pointer_observable(apparatus)])
        for i in range(40):
            rng = substream(_SEED, 10, d, i)
            psi = StateVector(rand_state(d, rng))
            basis = rand_unitary(d, rng)
            model = build_coupling(basis, apparatus)
            rho_app = apparatus_reduced_state(premeasure(psi, model), model.dims)
            weights = restrict_state(rho_app, algebra).weights
            diag = np.real(
                np.diag(basis.conj().T @ collapse(projector_of(psi), basis).matrix @ basis)
            )
            worst = max(worst, float(np.max(np.abs(weights - diag))))
            cases += 1
    return _result("collapse vs restriction", worst, 1e-9, f"{cases} random cases, dims 2..6")


def check_coupling_fidelity() -> CheckResult:
    """Premeasured amplitudes sit on the correlated slots with value c_j."""
    worst = 0.0
    cases = 0
    for d in range(2, 7):
        apparatus = build_apparatus(d)
        for i in range(30):
            rng = substream(_SEED, 11, d, i)
            basis = rand_unitary(d, rng)
            model = build_coupling(basis, apparatus)
            u = model.coupling
            unit = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
            psi = StateVector(rand_state(d, rng))
            composite = premeasure(psi, model)
            c = basis.conj().T @ psi.amplitudes
            # amplitudes in the product basis b_j (x) F_k
            prod = np.kron(basis, apparatus.pointer_basis)
            coords = prod.conj().T @ composite.amplitudes
            coords = coords.reshape(d, apparatus.dim_apparatus)
            expected = np.zeros_like(coords)
            for j in range(d):
                expected[j, j % apparatus.dim_apparatus] = c[j]
            worst = max(worst, unit, float(np.max(np.abs(coords - expected))))
            cases += 1
    return _result("coupling fidelity", worst, 1e-10, f"{cases} random states, dims 2..6")


def check_spectral_axioms() -> CheckResult:
    """Spectral blocks are orthonormal, their projectors complete, and the
    eigenvalues reconstruct the observable."""
    worst = 0.0
    cases = 0
    for d in range(2, 9):
        for i in range(5):
            rng = substream(_SEED, 12, d, i)
            a = rand_hermitian(d, rng)
            pvm = generate_algebra([a])
            v = np.hstack(pvm.blocks)
            worst = max(worst, float(np.max(np.abs(v.conj().T @ v - np.eye(d)))))
            projs = pvm.projectors
            worst = max(worst, float(np.max(np.abs(sum(projs) - np.eye(d)))))
            recon = sum(o * p for o, p in zip(pvm.characters[:, 0], projs))
            worst = max(worst, float(np.max(np.abs(recon - a))))
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
        observables = [Observable(m) for m in family]
        jeb = joint_eigenbasis(observables)
        for obs in observables:
            rotated = jeb.basis.conj().T @ obs.matrix @ jeb.basis
            off = rotated - np.diag(np.diag(rotated))
            worst = max(worst, float(np.max(np.abs(off))))
        algebra = generate_algebra(observables)
        rows = [tuple(r) for r in algebra.characters]
        if len(set(rows)) != len(rows):
            worst = max(worst, 1.0)
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
    """exp(-isH) exp(-itH) = exp(-i(s+t)H) and norms are preserved."""
    worst = 0.0
    for i in range(20):
        rng = substream(_SEED, 15, i)
        d = int(rng.integers(2, 9))
        h = rand_hermitian(d, rng)
        s, t = rng.uniform(-3, 3, size=2)
        lhs = unitary_exp(h, s) @ unitary_exp(h, t)
        rhs = unitary_exp(h, s + t)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        psi = rand_state(d, rng)
        nrm = float(np.linalg.norm(unitary_exp(h, t) @ psi))
        worst = max(worst, abs(nrm - 1.0))
    return _result("dynamics group law", worst, 1e-9, "20 random (H, s, t)")


def check_chain_reduction() -> CheckResult:
    """A second apparatus copying the first reads the same distribution."""
    d = 4
    worst = 0.0
    apparatus = build_apparatus(d)
    algebra = generate_algebra([pointer_observable(apparatus)])
    for i in range(20):
        rng = substream(_SEED, 16, i)
        basis = rand_unitary(d, rng)
        psi = StateVector(rand_state(d, rng))
        model1 = build_coupling(basis, apparatus)
        single = restrict_state(
            apparatus_reduced_state(premeasure(psi, model1), model1.dims), algebra
        ).weights

        # second stage: an apparatus copying the first pointer basis
        model2 = build_coupling(np.eye(d, dtype=complex), apparatus)
        u_total = kronecker(np.eye(d), model2.coupling) @ kronecker(
            model1.coupling, np.eye(d)
        )
        start = np.kron(
            np.kron(psi.amplitudes, apparatus.ready_state()), apparatus.ready_state()
        )
        final = StateVector(u_total @ start)
        rho_last = partial_trace(
            projector_of(final), CompositeDims(d * d, d), "apparatus"
        )
        two_stage = restrict_state(rho_last, algebra).weights
        worst = max(worst, float(np.max(np.abs(single - two_stage))))
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
