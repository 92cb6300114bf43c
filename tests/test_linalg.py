import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors, linalg
from qmeasure.algebra import _split_points, diagonal_algebra
from qmeasure.randomness import rand_hermitian, substream

from conftest import assert_close


def test_eigendecompose_diagonal_reorders():
    eig = linalg.hermitian_eigendecompose(np.diag([3.0, 1.0]))
    assert_close(eig.eigenvalues, [1.0, 3.0])
    # columns are the standard basis, reordered, up to phase
    assert_close(np.abs(eig.eigenvectors), [[0, 1], [1, 0]])


def test_eigendecompose_pauli_x():
    eig = linalg.hermitian_eigendecompose([[0, 1], [1, 0]])
    assert_close(eig.eigenvalues, [-1.0, 1.0])
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(minus @ eig.eigenvectors[:, 0]) - 1) < 1e-12
    assert abs(abs(plus @ eig.eigenvectors[:, 1]) - 1) < 1e-12


def test_eigendecompose_identity_degenerate():
    eig = linalg.hermitian_eigendecompose(np.eye(4))
    assert_close(eig.eigenvalues, np.ones(4))
    assert_close(eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(4))


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 12])
def test_eigendecompose_random_reconstructs(dim):
    rng = substream(101, dim)
    m = rand_hermitian(dim, rng)
    eig = linalg.hermitian_eigendecompose(m)
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    assert_close(eig.eigenvectors.conj().T @ eig.eigenvectors, np.eye(dim), atol=1e-10)
    recon = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)


def test_eigendecompose_rejects_non_hermitian():
    with pytest.raises(errors.NotHermitian):
        linalg.hermitian_eigendecompose([[0, 1], [0, 0]])


def test_eigendecompose_rejects_non_square():
    with pytest.raises(errors.NotSquare):
        linalg.hermitian_eigendecompose(np.zeros((2, 3)))


def test_eigendecompose_checks_reconstruction_near_the_float_limit(monkeypatch):
    # the Frobenius norm of a matrix with entries of 1e300 overflows; the
    # residual must still pass true eigenpairs without a warning and catch
    # eigenvectors that do not reconstruct the input
    m = 1e300 * np.array([[1.0, 2.0], [2.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = linalg.hermitian_eigendecompose(m)
    assert_close(eig.eigenvalues, [-np.sqrt(5) * 1e300, np.sqrt(5) * 1e300])
    eigh = np.linalg.eigh

    def permuted(a):
        w, v = eigh(a)
        return w, v[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", permuted)
    with pytest.raises(ArithmeticError):
        linalg.hermitian_eigendecompose(m)


@pytest.mark.parametrize(
    "m",
    [
        np.full((2, 2), 1.5e308),  # eigenvalue 3e308 overflows
        [[0.0, 1e308], [1e308, 1.0]],  # eigenvalues +-1e308: their gap overflows
    ],
)
def test_eigendecompose_rejects_a_spectrum_beyond_the_float_range(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ValidationError, match="finite|largest float"):
            linalg.hermitian_eigendecompose(m)


def test_eigendecompose_fails_a_nan_residual(monkeypatch):
    eigh = np.linalg.eigh

    def poisoned(a):
        w, v = eigh(a)
        v = v.copy()
        v[0, 0] = np.nan
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ArithmeticError):
            linalg.hermitian_eigendecompose(np.diag([1.0, 2.0]))


def test_unitary_exp_zero_time():
    h = rand_hermitian(3, substream(11))
    assert_close(linalg.unitary_exp(h, 0.0), np.eye(3))


def test_unitary_exp_pauli_x_quarter_turn():
    got = linalg.unitary_exp([[0, 1], [1, 0]], np.pi / 2)
    want = -1j * np.array([[0, 1], [1, 0]], dtype=complex)
    assert_close(got, want, atol=1e-10)


def test_unitary_exp_diagonal_phases():
    h = np.diag([1.0, 2.0])
    got = linalg.unitary_exp(h, 0.7)
    assert_close(np.diag(got), np.exp(-1j * 0.7 * np.array([1.0, 2.0])))


@pytest.mark.parametrize("case", range(5))
def test_unitary_exp_group_law(case):
    rng = substream(17, case)
    d = int(rng.integers(2, 7))
    h = rand_hermitian(d, rng)
    s, t = rng.uniform(-2, 2, size=2)
    lhs = linalg.unitary_exp(h, s) @ linalg.unitary_exp(h, t)
    assert np.max(np.abs(lhs - linalg.unitary_exp(h, s + t))) < 1e-9


def test_cluster_examples():
    # the width is default_cluster_tol, 1e4 * 3 * eps * 2 = 1.3e-11 here
    merged = diagonal_algebra([[1.0, 1.0 + 1e-12, 2.0]])
    assert merged.multiplicities().tolist() == [2, 1]
    assert diagonal_algebra([[1.0, 1.1, 2.0]]).n_points == 3
    # the values need not come sorted
    assert diagonal_algebra([[2.0, 1.0 + 1e-12, 1.0]]).labels.tolist() == [1, 0, 0]


@given(
    vals=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    tol=st.floats(0, 1),
)
@settings(max_examples=80, deadline=None)
def test_cluster_partitions_indices(vals, tol):
    # _split_points is the one clustering rule: from a single point, each
    # new point is a run of the sorted values, and a run ends exactly where
    # the gap to the next value exceeds tol
    values = np.array(vals)
    labels = np.zeros(values.size, dtype=np.intp)
    counts, parents, means = _split_points(labels, np.array([values.size]), values, tol)
    assert np.bincount(labels).tolist() == counts.tolist()
    assert (parents == 0).all()
    order = np.argsort(values, kind="stable")
    steps = np.diff(labels[order])
    assert set(steps.tolist()) <= {0, 1}
    assert ((steps == 1) == (np.diff(values[order]) > tol)).all()
    for k, mean in enumerate(means):
        members = values[labels == k]
        assert members.min() - 1e-12 <= mean <= members.max() + 1e-12


def test_returned_arrays_are_readonly():
    eig = linalg.hermitian_eigendecompose(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        eig.eigenvalues[0] = 5.0
