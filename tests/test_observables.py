import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors
from qmeasure.algebra import SpectralAlgebra, generate_algebra, joint_spectrum
from qmeasure.observables import (
    Observable,
    OutcomeDistribution,
    born_distribution,
    commutes,
    evolve,
)
from qmeasure.randomness import rand_density, rand_hermitian, rand_state, substream
from qmeasure.states import StateVector, projector_of

from conftest import assert_close

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def test_observable_rejects_non_hermitian():
    with pytest.raises(errors.NotHermitian):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_decomposition_degenerate_diagonal():
    pvm = generate_algebra([np.diag([1.0, 1.0, 2.0])])
    assert_close(pvm.characters[:, 0], [1.0, 2.0])
    assert_close(pvm.projectors[0], np.diag([1.0, 1.0, 0.0]))
    assert_close(pvm.projectors[1], np.diag([0.0, 0.0, 1.0]))


def test_spectral_decomposition_pauli_x():
    pvm = generate_algebra([X])
    assert_close(pvm.characters[:, 0], [-1.0, 1.0])
    assert_close(pvm.projectors[0], [[0.5, -0.5], [-0.5, 0.5]])
    assert_close(pvm.projectors[1], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_spectral_decomposition_reconstructs(dim):
    a = rand_hermitian(dim, substream(53, dim))
    pvm = generate_algebra([a])
    recon = sum(lam * p for lam, p in zip(pvm.characters[:, 0], pvm.projectors))
    assert np.max(np.abs(recon - a)) < 1e-9


def test_spectral_decomposition_cluster_tol():
    # the cluster width here is 1e4 * 3 * eps * 1 = 6.7e-12
    merged = generate_algebra([np.diag([0.0, 1e-12, 1.0])])
    assert merged.n_points == 2
    split = generate_algebra([np.diag([0.0, 1e-10, 1.0])])
    assert split.n_points == 3


def test_pvm_constructor_rejects_bad_input():
    e0, e1 = np.eye(2)[:, 0], np.eye(2)[:, 1]
    labels = np.array([0, 1])
    outcomes = np.array([[1.0], [2.0]])
    with pytest.raises(errors.ValidationError, match="orthonormal"):
        SpectralAlgebra(labels, outcomes, np.column_stack((2 * e0, e1)))  # non-orthonormal block
    with pytest.raises(errors.ValidationError, match="orthonormal"):
        overlapping = np.column_stack((e0, (e0 + e1) / np.sqrt(2)))
        SpectralAlgebra(labels, outcomes, overlapping)
    with pytest.raises(errors.ValidationError, match="identity"):
        SpectralAlgebra(labels[:1], outcomes[:1], e0[:, None])  # incomplete blocks
    with pytest.raises(errors.ValidationError, match="lexicographic"):
        SpectralAlgebra(labels, outcomes[::-1], np.eye(2))  # descending outcomes


def test_commutes_basic_cases():
    assert commutes(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert not commutes(X, Z)
    with pytest.raises(errors.DimMismatch):
        commutes(X, np.eye(3))


def test_joint_spectrum_diagonal_refinement():
    a = np.diag([1.0, 1.0, 2.0])
    b = np.diag([3.0, 4.0, 5.0])
    labels, chars, basis = joint_spectrum([a, b])
    assert chars.tolist() == [[1.0, 3.0], [1.0, 4.0], [2.0, 5.0]]
    assert labels.tolist() == [0, 1, 2]
    assert basis is None  # one column per point, in index form


def test_joint_spectrum_rejects_non_commuting():
    with pytest.raises(errors.NotCommuting):
        joint_spectrum([X, Z])
    # a diagonal generator is checked against a later non-diagonal one
    with pytest.raises(errors.NotCommuting, match="observables 0 and 1"):
        joint_spectrum([Z, X])


def test_joint_single_observable_matches_spectral():
    a = rand_hermitian(4, substream(67))
    labels, chars, basis = joint_spectrum([a])
    w, v = np.linalg.eigh(a)
    assert_close(chars[:, 0], w)
    for k in range(4):
        block = basis[:, labels == k]
        assert_close(block @ block.conj().T, np.outer(v[:, k], v[:, k].conj()), atol=1e-9)


def test_born_distribution_qubit():
    psi = StateVector(np.array([0.6, 0.8]))
    pvm = generate_algebra([np.diag([0.0, 1.0])])
    dist = born_distribution(projector_of(psi), pvm)
    assert_close(dist.outcomes, [0.0, 1.0])
    assert_close(dist.probabilities, [0.36, 0.64])
    two_generators = generate_algebra([np.diag([0.0, 1.0]), np.eye(2)])
    with pytest.raises(errors.ValidationError, match="single observable"):
        born_distribution(projector_of(psi), two_generators)


@given(seed=st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_born_matches_projected_norms(seed):
    # for a pure state, Tr(|psi><psi| E_k) = ||E_k psi||^2
    rng = substream(seed, 71)
    dim = int(rng.integers(2, 7))
    psi = rand_state(dim, rng)
    pvm = generate_algebra([rand_hermitian(dim, rng)])
    dist = born_distribution(projector_of(psi), pvm)
    norms = [float(np.linalg.norm(p @ psi) ** 2) for p in pvm.projectors]
    assert_close(dist.probabilities, norms, atol=1e-12)


def test_outcome_distribution_validation():
    with pytest.raises(errors.ValidationError):
        OutcomeDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(errors.ValidationError):
        OutcomeDistribution(np.array([0.0, 1.0]), np.array([-0.1, 1.1]))
    with pytest.raises(errors.ValidationError):
        OutcomeDistribution(np.array([0.0]), np.array([0.5, 0.5]))


def test_evolve_preserves_norm_and_eigenstates():
    h = rand_hermitian(4, substream(79))
    psi = StateVector(np.eye(4)[:, 0])
    out = evolve(psi, np.diag([1.0, 2.0, 3.0, 4.0]), 0.3)
    # eigenstate only picks up a phase
    assert_close(projector_of(out).matrix, projector_of(psi).matrix, atol=1e-12)
    moved = evolve(rand_state(4, substream(80)), h, 1.7)
    assert abs(np.linalg.norm(moved.amplitudes) - 1) < 1e-12
