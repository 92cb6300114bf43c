"""Acceptance suite: the nine contract-level checks, full sizes, stated
tolerances. Each test prints one ACCEPTANCE line, bypassing capture so the
verdicts always land in the run log."""

import time
from pathlib import Path

import numpy as np

from qmeasure.algebra import generate_algebra
from qmeasure.measurement import collapse_restriction_gaps, coupling_matrix
from qmeasure.randomness import draw_cases, rand_hermitian, rand_state, substream, substreams
from qmeasure.report import emit_report
from qmeasure.scenario import run_cat, run_scenario
from qmeasure.verification import (
    _dim_keys,
    _stacks_by_dim,
    chain_reduction_gaps,
    check_simplex_contrast,
    coupling_defects,
    group_law_defects,
    joint_diagonalization_defects,
    spectral_axiom_defects,
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
    # keys (d, i) under tag 1 name the streams of tags (1, d), key i
    streams = substreams(_SEED, (1,), _dim_keys(range(2, 11), 200))
    for d in range(2, 11):
        states, bases = draw_cases(d, 200, streams, state_first=True)
        gaps = collapse_restriction_gaps(states, bases)
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
    worst_agree = 0.0
    worst_unitary = 0.0
    for d in range(2, 9):
        # case i has dim 2 + i % 7, and draws its basis and then its state
        cases = range(d - 2, 100, 7)
        streams = substreams(_SEED, (2,), cases)
        states, bases = draw_cases(d, len(cases), streams, state_first=False)
        agree, unitary = coupling_defects(states, bases, d)
        worst_agree = max(worst_agree, float(agree.max()))
        worst_unitary = max(worst_unitary, float(unitary.max()))
    elapsed = time.perf_counter() - t0
    worst = max(worst_agree, worst_unitary)
    passed = worst <= tol
    _announce(
        capsys,
        2,
        "coupling fidelity",
        passed,
        f"premeasure vs U {worst_agree:.3e}, unitarity {worst_unitary:.3e} "
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
    freqs = np.array(first.empirical.counts) / first.empirical.trials
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
    dims = [2 + i % 11 for i in range(100)]  # dims 2..12
    drawn = [rand_hermitian(d, substream(_SEED, 4, i)) for i, d in enumerate(dims)]
    worst = 0.0
    for (hermitians,) in _stacks_by_dim(dims, drawn):
        worst = max(worst, float(spectral_axiom_defects(hermitians).max()))
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
    dims = [2 + i % 11 for i in range(100)]  # dims 2..12
    families = []
    for i, d in enumerate(dims):
        rng = substream(_SEED, 5, i)
        h = rand_hermitian(d, rng)
        h = h / max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        family = [h]
        for row in rng.standard_normal((2, 4)):
            family.append(row[0] * np.eye(d) + row[1] * h + row[2] * h @ h + row[3] * h @ h @ h)
        families.append(np.stack(family))
    worst = 0.0
    all_distinct = True
    for (stacked,) in _stacks_by_dim(dims, families):
        off, distinct = joint_diagonalization_defects(list(stacked.swapaxes(0, 1)))
        worst = max(worst, float(off.max()))
        all_distinct = all_distinct and bool(distinct.all())
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
    dims = [2 + i % 7 for i in range(50)]
    hermitians, times, states = [], [], []
    for i, d in enumerate(dims):
        rng = substream(_SEED, 8, i)
        hermitians.append(rand_hermitian(d, rng))
        times.append(rng.uniform(-2.0, 2.0, size=2))
        states.append(rand_state(d, rng))
    worst_group = 0.0
    worst_norm = 0.0
    for h, st, psi in _stacks_by_dim(dims, hermitians, times, states):
        group, norm = group_law_defects(h, st[:, 0], st[:, 1], psi)
        worst_group = max(worst_group, float(group.max()))
        worst_norm = max(worst_norm, float(norm.max()))
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
    algebra = generate_algebra([np.diag(np.arange(d, dtype=float))])
    copier = coupling_matrix(np.eye(d, dtype=complex), d)
    states, bases = draw_cases(d, 50, substreams(_SEED, (9,), range(50)), state_first=True)
    worst = float(chain_reduction_gaps(states, bases, copier, algebra).max())
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
