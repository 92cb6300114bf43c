"""Each per-case kernel must be able to fail: a fault injected into the code
it checks has to push its verify check past the check's tolerance."""

import numpy as np
import pytest

from qmeasure import scenario, verification
from qmeasure.randomness import rand_hermitian, rand_state, rand_unitary, substream
from qmeasure.states import StateVector


def uncoupled(psi, model):
    """A premeasurement that forgets the coupling: psi (x) e_0."""
    return StateVector(np.kron(psi.amplitudes, np.eye(model.apparatus.dim_apparatus)[0]))


def uncoupled_stack(states, bases):
    """The stacked premeasurement forgetting the coupling: psi (x) e_0 per
    case, the coefficient matrix with psi in its ready column."""
    m = np.zeros(bases.shape, dtype=complex)
    m[..., 0] = states
    return m


def assert_fault_caught(check, module, name, replacement):
    assert check().passed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, replacement)
        result = check()
    assert not result.passed
    assert result.worst > result.tolerance


def test_collapse_restriction_gap_catches_missing_coupling():
    check = verification.check_collapse_restriction
    assert_fault_caught(check, scenario, "premeasure_stack", uncoupled_stack)


def test_coupling_defects_catch_phase_and_off_ready_faults():
    dense = verification.coupling_matrix
    check = verification.check_coupling_fidelity

    def scaled(factor):
        def coupling_faulty(model):
            u = dense(model)
            return u * factor(model, u)

        return coupling_faulty

    def off_ready_gain(model, u):
        # premeasurement reads only the ready columns, so only unitarity sees this
        col = np.arange(u.shape[1]) % model.apparatus.dim_apparatus
        return np.where(col == 0, 1.0, 1 + 1e-9)

    # a global phase keeps the coupling unitary, so only the amplitude and
    # agreement terms see it
    for factor in (lambda model, u: np.exp(1e-6j), off_ready_gain):
        assert_fault_caught(check, verification, "coupling_matrix", scaled(factor))


def test_coupling_defects_catch_shifted_pointer_column_in_premeasure():
    # outcome j lands on the pointer column of outcome j + 1: the structured
    # path no longer matches U, which only the agreement term compares
    def misregistered(psi, model):
        b = model.measured_basis
        f = np.roll(np.eye(model.apparatus.dim_apparatus, model.dim_system), -1, axis=1)
        m = (b * (b.conj().T @ psi.amplitudes)) @ f.T
        return StateVector(m.reshape(-1))

    check = verification.check_coupling_fidelity
    assert_fault_caught(check, verification, "premeasure", misregistered)
    rng = substream(67)
    basis = rand_unitary(3, rng)
    psi = StateVector(rand_state(3, rng))
    tol = 1e-10  # check 2's tolerance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "premeasure", misregistered)
        amplitude, agreement, unitarity = verification.coupling_defects(
            basis, psi, verification.build_apparatus(3)
        )
    assert agreement > tol
    assert max(amplitude, unitarity) <= tol


def test_spectral_axiom_defect_catches_shifted_eigenvalues():
    spectrum = verification.joint_spectrum

    def shifted(generators):
        labels, chars, basis = spectrum(generators)
        return labels, chars + 1e-6, basis

    assert_fault_caught(verification.check_spectral_axioms, verification, "joint_spectrum", shifted)


def test_spectral_axiom_defect_catches_a_non_orthonormal_raw_basis():
    # check 3 reads the basis before a SpectralAlgebra could reject it, so
    # a column stretched by 1e-9 reaches the check instead of raising
    spectrum = verification.joint_spectrum

    def stretched(generators):
        labels, chars, basis = spectrum(generators)
        basis = basis.copy()
        basis[:, 0] *= 1 + 1e-9
        return labels, chars, basis

    assert_fault_caught(verification.check_spectral_axioms, verification, "joint_spectrum", stretched)


def test_joint_diagonalization_defect_diagonalizes_family():
    rng = substream(61)
    h = rand_hermitian(6, rng)
    family = [h]
    for row in rng.standard_normal((2, 3)):
        family.append(row[0] * np.eye(6) + row[1] * h + row[2] * h @ h)
    off, distinct = verification.joint_diagonalization_defect(family)
    assert off < 1e-8
    assert distinct


def test_joint_diagonalization_defect_catches_wrong_basis_and_collided_characters():
    spectrum = verification.joint_spectrum

    def permuted(family):
        labels, chars, basis = spectrum(family)
        return labels, chars, np.roll(basis, 1, axis=0)

    def collided(family):
        labels, chars, basis = spectrum(family)
        return labels, np.zeros_like(chars), basis

    for fault in (permuted, collided):
        check = verification.check_joint_diagonalization
        assert_fault_caught(check, verification, "joint_spectrum", fault)


def test_group_law_defects_catch_time_offset():
    evolve = verification.evolve

    def late(psi, h, t):
        return evolve(psi, h, t + 1e-6)

    assert_fault_caught(verification.check_dynamics_group, verification, "evolve", late)


def test_chain_reduction_gap_catches_missing_coupling():
    assert_fault_caught(verification.check_chain_reduction, verification, "premeasure", uncoupled)


def test_run_all_forms_no_kronecker_product(monkeypatch):
    # the dense oracles are built as relabelled products and applied by
    # reshapes, so the suite never calls np.kron
    calls = []
    kron = np.kron

    def counted(a, b):
        calls.append((np.shape(a), np.shape(b)))
        return kron(a, b)

    monkeypatch.setattr(np, "kron", counted)
    assert all(r.passed for r in verification.run_all())
    assert calls == []
