"""Acceptance suite: the nine contract-level checks, full sizes, stated
tolerances. Each test prints one ACCEPTANCE line, bypassing capture so the
verdicts always land in the run log."""

import time
from pathlib import Path

import numpy as np

from qmeasure.algebra import generate_algebra
from qmeasure.measurement import build_apparatus, build_coupling, pointer_observable
from qmeasure.randomness import rand_hermitian, rand_state, rand_unitary, random_cases, substream
from qmeasure.report import emit_report
from qmeasure.scenario import collapse_restriction_gaps, pointer_readout, run_cat, run_scenario
from qmeasure.states import StateVector
from qmeasure.verification import (
    chain_reduction_gap,
    check_simplex_contrast,
    coupling_defects,
    group_law_defects,
    joint_diagonalization_defect,
    spectral_axiom_defect,
)

from oracles import load_scenario, projectors

_SEED = 20260819
_SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _announce(capsys, num: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {verdict} {name}: {detail}", flush=True)


def test_acceptance_1_collapse_restriction_equivalence(capsys):
    tol = 1e-9
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for d in range(2, 11):
        states, bases = random_cases(d, _SEED, (1, d), range(200))
        gaps = collapse_restriction_gaps(states, bases, pointer_readout(d))
        worst = max(worst, float(gaps.max()))
        cases += gaps.size
    elapsed = time.perf_counter() - t0
    passed = worst <= tol
    _announce(
        capsys,
        1,
        "collapse vs restriction",
        passed,
        f"worst {worst:.3e} (tol {tol:g}, {cases} cases dims 2..10, {elapsed:.2f}s)",
    )
    assert passed, f"worst deviation {worst:.3e} exceeds {tol:g}"


def test_acceptance_2_coupling_fidelity(capsys):
    tol = 1e-10
    t0 = time.perf_counter()
    worst_amp = 0.0
    worst_agree = 0.0
    worst_unitary = 0.0
    for i in range(100):
        rng = substream(_SEED, 2, i)
        d = 2 + i % 7  # dims 2..8
        basis = rand_unitary(d, rng)
        psi = StateVector(rand_state(d, rng))
        amp, agree, unitary = coupling_defects(basis, psi, build_apparatus(d))
        worst_amp = max(worst_amp, amp)
        worst_agree = max(worst_agree, agree)
        worst_unitary = max(worst_unitary, unitary)
    elapsed = time.perf_counter() - t0
    worst = max(worst_amp, worst_agree, worst_unitary)
    passed = worst <= tol
    _announce(
        capsys,
        2,
        "coupling fidelity",
        passed,
        f"amplitudes {worst_amp:.3e}, premeasure vs U {worst_agree:.3e}, "
        f"unitarity {worst_unitary:.3e} "
        f"(tol {tol:g}, 100 states dims 2..8, {elapsed:.2f}s)",
    )
    assert passed, f"worst defect {worst:.3e} exceeds {tol:g}"


def test_acceptance_3_born_rule_statistics(capsys):
    t0 = time.perf_counter()
    scenario = load_scenario(_SCENARIO_DIR / "qubit_0608.json")
    assert scenario.trials == 100_000
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    identical = emit_report(first, "json") == emit_report(second, "json")

    probs = np.array([0.36, 0.64])
    freqs = np.array(first.empirical.frequencies)
    sigma = np.sqrt(probs * (1 - probs) / scenario.trials)
    worst_sigmas = float(np.max(np.abs(freqs - probs) / sigma))
    elapsed = time.perf_counter() - t0
    passed = worst_sigmas <= 4.0 and identical
    _announce(
        capsys,
        3,
        "Born statistics",
        passed,
        f"worst {worst_sigmas:.2f} sigma of 4, rerun identical: {identical} "
        f"(T=100000, seed {scenario.seed}, {elapsed:.2f}s)",
    )
    assert worst_sigmas <= 4.0, f"frequencies off by {worst_sigmas:.2f} sigma"
    assert identical, "rerun report is not byte-identical"


def test_acceptance_4_spectral_measure_axioms(capsys):
    tol = 1e-9
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        rng = substream(_SEED, 4, i)
        d = 2 + i % 11  # dims 2..12
        worst = max(worst, spectral_axiom_defect(rand_hermitian(d, rng)))
    elapsed = time.perf_counter() - t0
    passed = worst <= tol
    _announce(
        capsys,
        4,
        "spectral measure axioms",
        passed,
        f"worst {worst:.3e} (tol {tol:g}, 100 matrices dims 2..12, {elapsed:.2f}s)",
    )
    assert passed, f"worst axiom defect {worst:.3e} exceeds {tol:g}"


def test_acceptance_5_joint_diagonalization(capsys):
    tol = 1e-8
    t0 = time.perf_counter()
    worst = 0.0
    all_distinct = True
    for i in range(100):
        rng = substream(_SEED, 5, i)
        d = 2 + i % 11  # dims 2..12
        h = rand_hermitian(d, rng)
        h = h / max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        family = [h]
        for row in rng.standard_normal((2, 4)):
            family.append(row[0] * np.eye(d) + row[1] * h + row[2] * h @ h + row[3] * h @ h @ h)
        off, distinct = joint_diagonalization_defect(family)
        worst = max(worst, off)
        all_distinct = all_distinct and distinct
    elapsed = time.perf_counter() - t0
    passed = worst <= tol and all_distinct
    _announce(
        capsys,
        5,
        "joint diagonalization",
        passed,
        f"worst off-diagonal {worst:.3e} (tol {tol:g}), tuples distinct: {all_distinct} "
        f"(100 families, {elapsed:.2f}s)",
    )
    assert worst <= tol, f"off-diagonal {worst:.3e} exceeds {tol:g}"
    assert all_distinct, "spectrum characters collide"


def test_acceptance_6_cat_scenario(capsys):
    tol_cross = 1e-12
    tol_weights = 1e-10
    t0 = time.perf_counter()
    length = 8
    report = run_cat(0.6, 0.8j, chain_length=length)
    weight_err = max(
        abs(float(report.restricted.weights[-1]) - 0.36),
        abs(float(report.restricted.weights[0]) - 0.64),
    )

    dim = 2**length
    readout = np.array([length - 2 * bin(b).count("1") for b in range(dim)], dtype=float)
    algebra = generate_algebra([np.diag(readout)])
    top = np.zeros(dim, dtype=complex)
    top[0] = 1.0  # all cells up, readout +length
    bottom = np.zeros(dim, dtype=complex)
    bottom[-1] = 1.0  # all cells down, readout -length
    psi = 0.6 * top + 0.8j * bottom

    rng = substream(_SEED, 6)
    worst_cross = 0.0
    worst_expect = 0.0
    for _ in range(50):
        coeffs = rng.standard_normal(algebra.n_points)
        a = sum(c * p for c, p in zip(coeffs, projectors(algebra)))
        worst_cross = max(worst_cross, abs(complex(top.conj() @ a @ bottom)))
        mixed = float((psi.conj() @ a @ psi).real)
        split = 0.36 * float((top.conj() @ a @ top).real) + 0.64 * float(
            (bottom.conj() @ a @ bottom).real
        )
        worst_expect = max(worst_expect, abs(mixed - split))
    elapsed = time.perf_counter() - t0
    passed = (
        worst_cross <= tol_cross
        and weight_err <= tol_weights
        and worst_expect <= tol_weights
        and report.max_deviation <= tol_weights
    )
    _announce(
        capsys,
        6,
        "cat chain",
        passed,
        f"cross {worst_cross:.3e} (tol {tol_cross:g}), weights off {weight_err:.3e}, "
        f"expectation split {worst_expect:.3e} (tol {tol_weights:g}, "
        f"50 algebra elements, {elapsed:.2f}s)",
    )
    assert worst_cross <= tol_cross
    assert weight_err <= tol_weights
    assert worst_expect <= tol_weights
    assert report.max_deviation <= tol_weights


def test_acceptance_7_simplex_contrast(capsys):
    t0 = time.perf_counter()
    result = check_simplex_contrast()
    elapsed = time.perf_counter() - t0
    passed = result.passed and result.worst <= 1e-12
    _announce(
        capsys,
        7,
        "simplex contrast",
        passed,
        f"worst {result.worst:.3e} (tol {result.tolerance:g}, {result.detail}, {elapsed:.2f}s)",
    )
    assert passed, f"simplex contrast check failed: {result}"


def test_acceptance_8_dynamics_group_law(capsys):
    tol_group = 1e-9
    tol_norm = 1e-10
    t0 = time.perf_counter()
    worst_group = 0.0
    worst_norm = 0.0
    for i in range(50):
        rng = substream(_SEED, 8, i)
        d = 2 + i % 7
        h = rand_hermitian(d, rng)
        s, t = rng.uniform(-2.0, 2.0, size=2)
        psi = StateVector(rand_state(d, rng))
        group, norm = group_law_defects(h, s, t, psi)
        worst_group = max(worst_group, group)
        worst_norm = max(worst_norm, norm)
    elapsed = time.perf_counter() - t0
    passed = worst_group <= tol_group and worst_norm <= tol_norm
    _announce(
        capsys,
        8,
        "dynamics group law",
        passed,
        f"composition {worst_group:.3e} (tol {tol_group:g}), norm {worst_norm:.3e} "
        f"(tol {tol_norm:g}, 50 cases, {elapsed:.2f}s)",
    )
    assert worst_group <= tol_group
    assert worst_norm <= tol_norm


def test_acceptance_9_chain_reduction(capsys):
    tol = 1e-10
    t0 = time.perf_counter()
    d = 4
    apparatus = build_apparatus(d)
    algebra = generate_algebra([pointer_observable(apparatus)])
    copier = build_coupling(np.eye(d, dtype=complex), apparatus)
    worst = 0.0
    for i in range(50):
        rng = substream(_SEED, 9, i)
        psi = StateVector(rand_state(d, rng))
        basis = rand_unitary(d, rng)
        worst = max(worst, chain_reduction_gap(psi, basis, apparatus, copier, algebra))
    elapsed = time.perf_counter() - t0
    passed = worst <= tol
    _announce(
        capsys,
        9,
        "chain reduction",
        passed,
        f"worst {worst:.3e} (tol {tol:g}, 50 states dim 4, {elapsed:.2f}s)",
    )
    assert passed, f"pointer distributions differ by {worst:.3e}"
