import warnings

import numpy as np
import pytest

from qmeasure import errors, linalg
from qmeasure.algebra import evolve, generate_algebra, generate_algebras
from qmeasure.randomness import rand_hermitian, rand_state, substream
from qmeasure.states import density_matrix, projector_of

from conftest import assert_close
from oracles import evolve_one, joint_spectrum, projectors, rand_unitary

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])


def test_observable_rejects_non_hermitian():
    with pytest.raises(errors.NotHermitian):
        linalg.require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("s", [1.0, 1e6, 1e12])
def test_observable_keeps_the_hermitian_part_of_a_one_ulp_asymmetry(s):
    a = np.array([[0, s], [np.nextafter(s, np.inf), 3 * s]], dtype=complex)
    m = linalg.require_hermitian(a)
    assert not np.array_equal(a, a.conj().T)
    assert np.array_equal(m, a / 2 + a.conj().T / 2)
    assert np.array_equal(m, m.conj().T)


def test_exactly_hermitian_input_keeps_its_bits():
    # the Hermitian part would halve the subnormal entry to zero
    tiny = 5e-324
    a = np.array([[tiny, 1 + 2j], [1 - 2j, -0.0]])
    assert linalg.require_hermitian(a).tobytes() == a.tobytes()
    # a density is judged, never replaced, so an inexact one keeps its bits too
    rho = np.array([[0.5, 0.25], [np.nextafter(0.25, 1), 0.5]], dtype=complex)
    assert density_matrix(rho).tobytes() == rho.tobytes()


def test_hermitian_part_near_the_float_limit_does_not_overflow():
    # the sum of the two off-diagonal entries is past the largest float
    big = np.finfo(float).max
    a = np.array([[0, big], [np.nextafter(big, 0), big]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = linalg.require_hermitian(a)
    assert np.isfinite(m).all()
    assert np.array_equal(m, m.conj().T)
    assert m[0, 1] == big / 2 + np.nextafter(big, 0) / 2


def test_spectral_decomposition_degenerate_diagonal():
    pvm = generate_algebra([np.diag([1.0, 1.0, 2.0])])
    assert_close(pvm.characters[:, 0], [1.0, 2.0])
    assert_close(projectors(pvm)[0], np.diag([1.0, 1.0, 0.0]))
    assert_close(projectors(pvm)[1], np.diag([0.0, 0.0, 1.0]))


def test_spectral_decomposition_pauli_x():
    pvm = generate_algebra([X])
    assert_close(pvm.characters[:, 0], [-1.0, 1.0])
    assert_close(projectors(pvm)[0], [[0.5, -0.5], [-0.5, 0.5]])
    assert_close(projectors(pvm)[1], [[0.5, 0.5], [0.5, 0.5]])


@pytest.mark.parametrize("dim", [2, 4, 7])
def test_spectral_decomposition_reconstructs(dim):
    a = rand_hermitian(dim, substream(53, dim))
    pvm = generate_algebra([a])
    recon = sum(lam * p for lam, p in zip(pvm.characters[:, 0], projectors(pvm)))
    assert np.max(np.abs(recon - a)) < 1e-9


def test_spectral_decomposition_cluster_tol():
    # the cluster width here is 1e4 * 3 * eps * 1 = 6.7e-12
    merged = generate_algebra([np.diag([0.0, 1e-12, 1.0])])
    assert merged.n_points == 2
    split = generate_algebra([np.diag([0.0, 1e-10, 1.0])])
    assert split.n_points == 3


def test_commutation_check_basic_cases():
    labels, _, _ = joint_spectrum([X, np.eye(2)])
    assert labels.size == 2
    with pytest.raises(errors.NotCommuting, match="observables 0 and 1"):
        joint_spectrum([X, Z])
    for family in ([X, np.eye(3)], [np.eye(3), X]):
        with pytest.raises(errors.DimMismatch):
            joint_spectrum(family)


def test_commutation_check_is_relative_to_the_size_of_the_matrices():
    # tiny matrices are scaled up, not compared with an absolute threshold
    with pytest.raises(errors.NotCommuting):
        joint_spectrum([1e-300 * X, 1e-300 * Z])
    joint_spectrum([1e-300 * X, 1e-300 * np.eye(2)])
    # a subnormal largest entry: its reciprocal would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        joint_spectrum([X, 5e-324 * np.eye(2)])
        with pytest.raises(errors.NotCommuting):
            joint_spectrum([5e-324 * X, Z])


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


def test_generated_algebra_checks_reproduction_near_the_float_limit(monkeypatch):
    # entries of 1e300, whose Frobenius norm would overflow: the reproduction
    # check must pass true eigenpairs without a warning and catch
    # eigenvectors that do not reproduce the generator
    m = 1e300 * np.array([[1.0, 2.0], [2.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pvm = generate_algebra([m])
    assert_close(pvm.characters[:, 0], [-np.sqrt(5) * 1e300, np.sqrt(5) * 1e300])
    eigh = np.linalg.eigh

    def permuted(a):
        w, v = eigh(a)
        return w, v[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", permuted)
    with pytest.raises(errors.ValidationError, match="not reproduced"):
        generate_algebra([m])


@pytest.mark.parametrize(
    "m",
    [
        np.full((2, 2), 1.5e308),  # eigenvalue 3e308 overflows
        [[0.0, 1e308], [1e308, 1.0]],  # eigenvalues +-1e308: their gap overflows
    ],
)
def test_generated_algebra_rejects_a_spectrum_beyond_the_float_range(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ValidationError, match="finite|largest float"):
            generate_algebra([linalg.require_hermitian(m)])


@pytest.mark.parametrize("poison", ["eigenvector", "eigenvalue"])
def test_generated_algebra_rejects_a_nan_from_the_eigensolver(monkeypatch, poison):
    eigh = np.linalg.eigh

    def poisoned(a):
        w, v = eigh(a)
        w, v = w.copy(), v.copy()
        (v if poison == "eigenvector" else w)[0] = np.nan
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ValidationError, match="non-finite|not all finite"):
            generate_algebra([X])


def test_generated_algebra_arrays_are_readonly():
    pvm = generate_algebra([X])
    for a in (pvm.labels, pvm.characters, pvm.basis):
        with pytest.raises(ValueError):
            a[0] = 5.0


def test_observable_rejects_non_square():
    with pytest.raises(errors.NotSquare):
        linalg.require_hermitian(np.zeros((2, 3)))


def evolve_case(psi, h, t):
    """evolve on a stack of one case: psi at time t under the Hamiltonian h."""
    states = np.asarray(psi, dtype=complex)[None]
    return evolve(states, generate_algebras([np.asarray(h)[None]]), np.array([t]))[0]


def test_evolve_preserves_norm_and_eigenstates():
    h = rand_hermitian(4, substream(79))
    psi = np.eye(4)[0]
    out = evolve_case(psi, np.diag([1.0, 2.0, 3.0, 4.0]), 0.3)
    # eigenstate only picks up a phase
    assert_close(projector_of(out), projector_of(psi), atol=1e-12)
    moved = evolve_case(rand_state(4, substream(80)), h, 1.7)
    assert abs(np.linalg.norm(moved) - 1) < 1e-12


def test_evolve_under_a_subnormal_generator_warns_nothing():
    # an eigendecomposition's residual check once divided by the subnormal entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evolve_case([1.0, 0.0], [[5e-324, 0.0], [0.0, 0.0]], 1.0)
    assert_close(out, np.array([1.0, 0.0]), atol=1e-12)


def test_evolve_at_zero_time_is_the_identity():
    h = rand_hermitian(3, substream(11))
    for psi in np.eye(3):
        assert_close(evolve_case(psi, h, 0.0), psi)


def test_evolve_pauli_x_quarter_turn():
    # exp(-i pi/2 X) = -i X
    for psi, flipped in zip(np.eye(2), np.eye(2)[::-1]):
        assert_close(evolve_case(psi, X, np.pi / 2), -1j * flipped, atol=1e-10)


def test_evolve_under_a_diagonal_generator_applies_phases():
    psi = np.array([0.6, 0.8])
    got = evolve_case(psi, np.diag([1.0, 2.0]), 0.7)
    assert_close(got, np.exp(-1j * 0.7 * np.array([1.0, 2.0])) * psi)


@pytest.mark.parametrize("case", range(5))
def test_evolve_group_law(case):
    rng = substream(17, case)
    d = int(rng.integers(2, 7))
    h = rand_hermitian(d, rng)
    s, t = rng.uniform(-2, 2, size=2)
    psi = rand_state(d, rng)
    stepwise = evolve_case(evolve_case(psi, h, t), h, s)
    assert np.max(np.abs(stepwise - evolve_case(psi, h, s + t))) < 1e-9


@pytest.mark.parametrize("kind", ["dense", "diagonal", "degenerate"])
def test_a_stack_evolves_each_case_at_its_own_time_as_that_case_alone(kind):
    # per-case times on dense, index-form and degenerate algebras, each case
    # with the bits of the one-case element product
    rng = substream(19, len(kind))
    n, d = 5, 4
    h = np.stack([rand_hermitian(d, rng) for _ in range(n)])
    if kind != "dense":
        values = np.array([0.0, 0.0, 1.5, -2.0]) * rng.uniform(0.5, 2.0, size=(n, 1))
        h = values[:, None, :] * np.eye(d)
        if kind == "degenerate":
            u = np.stack([rand_unitary(d, rng) for _ in range(n)])
            h = (u * values[:, None, :]) @ u.conj().mT
            h = h / 2 + h.conj().mT / 2
    states = np.stack([rand_state(d, rng) for _ in range(n)])
    times = rng.uniform(-3, 3, size=n)
    generated = generate_algebras([h])
    assert (generated[2] is None) == (kind == "diagonal")
    got = evolve(states, generated, times)
    for c in range(n):
        want = evolve_one(states[c], generate_algebra([h[c]]), times[c])
        assert np.array_equal(got[c], want)


def test_evolve_needs_the_algebra_of_one_generator_on_the_state_space():
    with pytest.raises(errors.ValidationError, match="single generator"):
        evolve(np.eye(2)[:1], generate_algebras([Z[None], np.eye(2)[None]]), np.ones(1))
    with pytest.raises(errors.DimMismatch):
        evolve(np.eye(3)[:1], generate_algebras([X[None]]), np.ones(1))
    with pytest.raises(errors.NotNormalized):
        evolve(np.eye(2)[:1] * 1.1, generate_algebras([X[None]]), np.ones(1))
