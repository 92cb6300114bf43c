import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors, verification
from qmeasure.algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    diagonal_algebra,
    generate_algebra,
    gelfand_transform,
    proper_mixture_representative,
    restrict_state,
)
from qmeasure.linalg import default_cluster_tol
from qmeasure.measurement import build_apparatus, pointer_observable
from qmeasure.randomness import (
    rand_density,
    rand_hermitian,
    rand_state,
    rand_unitary,
    substream,
)
from qmeasure.states import DensityMatrix, mix, projector_of

from conftest import assert_close


def test_generate_algebra_single_diagonal_generator():
    alg = generate_algebra([np.diag([1.0, 1.0, 2.0])])
    assert alg.n_points == 2
    assert_close(alg.characters, [[1.0], [2.0]])
    assert list(alg.multiplicities()) == [2, 1]
    assert_close(alg.projectors[0], np.diag([1.0, 1.0, 0.0]))


def test_generate_algebra_two_generators_refine():
    alg = generate_algebra([np.diag([1.0, 1.0, 2.0]), np.diag([3.0, 4.0, 5.0])])
    assert alg.n_points == 3
    assert_close(alg.characters, [[1.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
    assert list(alg.multiplicities()) == [1, 1, 1]


def test_generate_algebra_merges_equal_characters():
    # two separate eigenvectors of the same eigenvalue pair land in one point
    a = np.diag([1.0, 2.0, 1.0, 2.0])
    alg = generate_algebra([a])
    assert alg.n_points == 2
    assert list(alg.multiplicities()) == [2, 2]


@given(seed=st.integers(0, 10_000), mixed=st.booleans())
@settings(max_examples=60, deadline=None)
def test_index_form_matches_the_dense_path_in_a_rotated_basis(seed, mixed):
    # a diagonal family with repeated values takes the index path; the same
    # family in a random basis takes the eigensolver path, and both must see
    # one algebra: the same points, and the same restrictions and transforms.
    # A mixed family appends a non-diagonal generator that splits the
    # degenerate block of the first diagonal's leading value, as run_mixed's
    # splitter splits the idle block: the loop leaves the index form there
    rng = substream(seed, 167)
    n = int(rng.integers(2 if mixed else 1, 13))
    diags = rng.integers(-2, 3, size=(int(rng.integers(1, 4)), n)).astype(float)
    family = [np.diag(d) for d in diags]
    if mixed:
        diags[0, 1] = diags[0, 0]
        block = np.flatnonzero(diags[0] == diags[0, 0])
        splitter = np.zeros((n, n), dtype=complex)
        splitter[np.ix_(block, block)] = rand_hermitian(block.size, rng)
        family = [np.diag(diags[0]), splitter]
    u = rand_unitary(n, rng)
    index = generate_algebra(family)
    rotated = generate_algebra([u @ g @ u.conj().T for g in family])
    assert (index.basis is None) is not mixed
    assert_close(index.characters, rotated.characters)
    assert list(index.multiplicities()) == list(rotated.multiplicities())
    rho = rand_density(n, rng)
    assert_close(
        restrict_state(rho, index).weights,
        restrict_state(u @ rho @ u.conj().T, rotated).weights,
        atol=1e-12,
        rtol=0,
    )
    element = index.element(rng.standard_normal(index.n_points))
    assert_close(
        gelfand_transform(index, element),
        gelfand_transform(rotated, u @ element @ u.conj().T),
        atol=1e-12,
        rtol=0,
    )


def test_diagonal_family_needs_no_eigensolver(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolver called on a diagonal family")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    alg = generate_algebra([np.diag([2.0, 1.0, 2.0, 1.0]), np.diag([0.0, 0.0, 1.0, 0.0])])
    assert_close(alg.characters, [[1.0, 0.0], [2.0, 0.0], [2.0, 1.0]])
    assert list(alg.labels) == [1, 0, 2, 0]


def test_index_form_rejects_bad_labels():
    chars = [[0.0], [1.0]]
    with pytest.raises(errors.ValidationError, match="at least one"):
        SpectralAlgebra(np.array([0, 0, 0]), chars)  # point 1 is empty
    with pytest.raises(errors.ValidationError, match="name one of"):
        SpectralAlgebra(np.array([0, 2, 1]), chars)
    with pytest.raises(errors.ValidationError, match="integer"):
        SpectralAlgebra(np.array([0.0, 1.0]), chars)
    with pytest.raises(errors.ValidationError, match="lexicographic"):
        SpectralAlgebra(np.array([0, 1]), chars[::-1])


def test_algebra_constructor_rejects_disorder():
    labels, basis = np.array([0, 1]), np.eye(2)
    with pytest.raises(errors.ValidationError, match="lexicographic"):
        SpectralAlgebra(labels, np.array([[2.0, 0.0], [1.0, 5.0]]), basis)
    with pytest.raises(errors.ValidationError, match="distinct"):
        SpectralAlgebra(labels, np.array([[1.0, 3.0], [1.0, 3.0]]), basis)


def test_algebra_constructor_rejects_wrong_reconstruction():
    # 64 values, each gap 0.9 cluster widths: no gap splits them, so one
    # point at their mean misses the ends by 31.5 gaps, 4.0e-9 > 1e-9
    values = 1.0 + 0.9 * default_cluster_tol(np.ones(64)) * np.arange(64)
    with pytest.raises(errors.ValidationError, match="reproduced"):
        diagonal_algebra([values])
    with pytest.raises(errors.ValidationError, match=r"reproduced .*defect 4\.0"):
        generate_algebra([np.diag(values)])


def test_gelfand_transform_polynomial_oracle():
    # on polynomials of the generator, the transform is the same polynomial
    # applied to each character value
    rng = substream(139)
    h = rand_hermitian(5, rng)
    alg = generate_algebra([h])
    chars = alg.characters[:, 0]
    elem = 2.0 * np.eye(5) + 0.5 * h - 0.25 * h @ h
    got = gelfand_transform(alg, elem)
    assert_close(got, 2.0 + 0.5 * chars - 0.25 * chars**2, atol=1e-9)


def test_gelfand_transform_of_generator_is_identity_map():
    a = np.diag([-1.0, 0.0, 3.0])
    alg = generate_algebra([a])
    assert_close(gelfand_transform(alg, a), [-1.0, 0.0, 3.0])


def test_gelfand_transform_rejects_outside_element():
    alg = generate_algebra([np.diag([1.0, 1.0, 2.0])])
    stranger = np.diag([1.0, 5.0, 2.0])  # varies inside the first eigenspace
    with pytest.raises(errors.NotInAlgebra):
        gelfand_transform(alg, stranger)
    off_block = np.zeros((3, 3))
    off_block[0, 2] = off_block[2, 0] = 1.0
    with pytest.raises(errors.NotInAlgebra):
        gelfand_transform(alg, np.diag([1.0, 1.0, 2.0]) + 0.5 * off_block)


def test_restrict_point_mass():
    alg = generate_algebra([np.diag([0.0, 1.0])])
    m = restrict_state(projector_of([0.0, 1.0]), alg)
    assert_close(m.weights, [0.0, 1.0])


def test_restrict_superposition_gives_amplitude_squares():
    alg = generate_algebra([np.diag([0.0, 1.0])])
    m = restrict_state(projector_of([0.6, 0.8]), alg)
    assert_close(m.weights, [0.36, 0.64])


def test_restrict_to_trivial_algebra():
    # the identity generates the one-point algebra; every state restricts
    # to the unit mass
    alg = generate_algebra([np.eye(4)])
    assert alg.n_points == 1
    m = restrict_state(rand_density(4, substream(149)), alg)
    assert_close(m.weights, [1.0])


def test_restriction_determines_expectations_on_the_algebra():
    # Tr(rho a) = sum_k weight_k * gelfand(a)[k] for every algebra element
    rng = substream(151)
    h = rand_hermitian(6, rng)
    alg = generate_algebra([h])
    rho = rand_density(6, rng)
    w = restrict_state(rho, alg).weights
    for _ in range(50):
        coeffs = rng.standard_normal(alg.n_points)
        elem = sum(
            c * p for c, p in zip(coeffs, alg.projectors)
        )
        vals = gelfand_transform(alg, elem)
        lhs = float(np.trace(rho @ elem).real)
        assert abs(lhs - float(np.dot(w, vals))) < 1e-10


def test_proper_mixture_representative_round_trip():
    rng = substream(157)
    alg = generate_algebra([rand_hermitian(5, rng)])
    target = rng.uniform(0.1, 1.0, alg.n_points)
    target /= target.sum()
    measure = SpectralProbabilityMeasure(target)
    rho = proper_mixture_representative(measure, alg)
    assert_close(restrict_state(rho, alg).weights, target, atol=1e-12)


def test_proper_mixture_commutes_with_projectors():
    alg = generate_algebra([np.diag([1.0, 2.0, 2.0, 3.0])])
    rho = proper_mixture_representative(
        SpectralProbabilityMeasure(np.array([0.2, 0.5, 0.3])), alg
    )
    for p in alg.projectors:
        assert_close(rho.matrix @ p, p @ rho.matrix, atol=1e-12)


def test_simplex_contrast_fails_on_perturbed_recovery(monkeypatch):
    # the check compares the restricted weights against the measure it
    # started from, so a recovery off by 1e-9 must be reported
    restrict = verification.restrict_state

    def perturbed(rho, alg):
        w = restrict(rho, alg).weights.copy()
        w[0] += 1e-9
        w[-1] -= 1e-9
        return SpectralProbabilityMeasure(w)

    assert verification.check_simplex_contrast().passed
    monkeypatch.setattr(verification, "restrict_state", perturbed)
    result = verification.check_simplex_contrast()
    assert not result.passed
    assert result.worst > result.tolerance


def test_density_matrix_decompositions_are_not_unique():
    # the same density matrix from two different proper mixtures; restriction
    # to a pointer algebra is where uniqueness lives, not at the matrix level
    plus = projector_of(np.array([1.0, 1.0]) / np.sqrt(2))
    minus = projector_of(np.array([1.0, -1.0]) / np.sqrt(2))
    by_x = mix([0.5, 0.5], [plus, minus])
    by_z = mix([0.5, 0.5], [projector_of([1, 0]), projector_of([0, 1])])
    assert_close(by_x.matrix, by_z.matrix, atol=1e-12)
    alg = generate_algebra([np.diag([0.0, 1.0])])
    w_x = restrict_state(by_x, alg).weights
    w_z = restrict_state(by_z, alg).weights
    assert_close(w_x, w_z, atol=1e-12)


def test_refinement_keeps_coarse_projectors_recoverable():
    # adding a generator refines the spectrum; each refined projector sits
    # under exactly one coarse projector
    a = np.diag([1.0, 1.0, 2.0])
    b = np.diag([3.0, 4.0, 5.0])
    coarse = generate_algebra([a])
    fine = generate_algebra([a, b])
    for pf in fine.projectors:
        parents = [
            k
            for k, pc in enumerate(coarse.projectors)
            if np.max(np.abs(pc @ pf - pf)) < 1e-10
        ]
        assert len(parents) == 1


def test_restrict_rejects_dim_mismatch():
    alg = generate_algebra([np.diag([0.0, 1.0])])
    with pytest.raises(errors.DimMismatch):
        restrict_state(rand_density(3, substream(163)), alg)
    with pytest.raises(errors.DimMismatch):
        proper_mixture_representative(
            SpectralProbabilityMeasure(np.array([0.5, 0.3, 0.2])), alg
        )


def test_pointer_algebra_has_idle_point():
    app = build_apparatus(2, dim_apparatus=3, pointer_values=[4.0, 6.0])
    alg = generate_algebra([pointer_observable(app)])
    chars = alg.characters[:, 0]
    assert_close(sorted(chars), [3.0, 4.0, 6.0])  # idle value min - 1


def test_spectral_measure_validation():
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([0.5, 0.6]))
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([-0.2, 1.2]))
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([]))
