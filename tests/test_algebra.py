from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors, linalg, verification
from qmeasure.algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    _spectrum,
    _split_points,
    generate_algebra,
    generate_algebras,
    gelfand_transform,
    joint_spectra,
    restrict_state,
)
from qmeasure.linalg import default_cluster_tol, require_hermitian
from qmeasure.measurement import pointer_diagonal, pointer_readout
from qmeasure.randomness import rand_hermitian, rand_state, substream
from qmeasure.scenario import cat_readout
from qmeasure.states import mix, projector_of, state_vector

from conftest import assert_close, peak_bytes
from oracles import (
    projectors,
    proper_mixture_representative,
    rand_density,
    rand_unitary,
    spectrum_reference,
)


def test_generate_algebra_single_diagonal_generator():
    alg = generate_algebra([np.diag([1.0, 1.0, 2.0])])
    assert alg.n_points == 2
    assert_close(alg.characters, [[1.0], [2.0]])
    assert list(alg.multiplicities()) == [2, 1]
    assert_close(projectors(alg)[0], np.diag([1.0, 1.0, 0.0]))


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
    index = generate_algebra([require_hermitian(g) for g in family])
    rotated = generate_algebra([require_hermitian(u @ g @ u.conj().T) for g in family])
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
        gelfand_transform(rotated, require_hermitian(u @ element @ u.conj().T)),
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


# with signed zeros, so that -0.0 singletons and clusters of -0.0 and +0.0 occur
_SPLIT_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, 2.5])


def split_family(rng, n, n_diagonals, n_matrices):
    """A commuting family: diagonals, then matrices W diag(x) W^dagger with
    W a random unitary on each point the diagonals leave, so one-column and
    multi-column points mix in both the fresh and the rotated branch."""
    diagonals = [rng.choice(_SPLIT_VALUES, n) for _ in range(n_diagonals)]
    w = np.zeros((n, n), dtype=complex)
    keys = np.array(diagonals).T if diagonals else np.zeros((n, 1))
    for key in np.unique(keys, axis=0):
        cols = np.flatnonzero((keys == key).all(axis=1))
        w[np.ix_(cols, cols)] = rand_unitary(cols.size, rng)
    matrices = []
    for _ in range(n_matrices):
        g = (w * rng.choice(_SPLIT_VALUES, n)) @ w.conj().T
        matrices.append(g / 2 + g.conj().T / 2)
    return [d.astype(complex) for d in diagonals] + matrices


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    n_diagonals=st.integers(0, 2),
    n_matrices=st.integers(0, 3),
    n_cases=st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_split_loop_matches_an_eigensolver_at_every_point(
    seed, n, n_diagonals, n_matrices, n_cases
):
    # each case of a stack, split alone by the reference loop
    if n_diagonals + n_matrices == 0:
        n_matrices = 1
    rng = np.random.default_rng(seed)
    families = [split_family(rng, n, n_diagonals, n_matrices) for _ in range(n_cases)]
    labels, chars, basis = _spectrum([np.stack(g) for g in zip(*families)])
    starts = labels.min(axis=1)
    ends = np.append(starts[1:], len(chars))
    for c, family in enumerate(families):
        want_labels, want_chars, want_basis = spectrum_reference(family)
        assert np.array_equal(labels[c] - starts[c], want_labels)
        assert chars[starts[c] : ends[c]].tobytes() == want_chars.tobytes()
        assert chars[starts[c] : ends[c]].shape == want_chars.shape
        if basis is None:
            assert want_basis is None
        else:
            # equal elementwise: only the sign of a zero entry may differ
            assert np.array_equal(basis[c], want_basis)


def test_one_column_points_keep_a_signed_zero_value():
    alg = generate_algebra([np.diag([-0.0, 1.0])])
    assert alg.characters.tobytes() == np.array([[-0.0], [1.0]]).tobytes()
    # a cluster of -0.0 and +0.0 is valued +0.0, the mean of its offsets
    alg = generate_algebra([np.diag([0.0, -0.0, 1.0])])
    assert alg.characters.tobytes() == np.array([[0.0], [1.0]]).tobytes()


def offset_mean(cluster) -> np.ndarray:
    """A cluster's value by the offset-mean rule: its least entry plus the
    mean of its offsets from it. A single column keeps its value."""
    c = np.array(cluster)
    return c[0] if c.size == 1 else c[0] + np.mean(c - c[0])


def test_split_points_leaves_one_coordinate_points_whole():
    # every point has one coordinate: none splits, however close two values
    # are, and each keeps its value, -0.0 included, and its label
    values = np.array([2.0, -0.0, 5.0, 2.0 + 1e-15, -3.0])
    labels = np.array([3, 0, 4, 1, 2])
    relabelled = labels.copy()
    sizes, parents, means = _split_points(relabelled, np.ones(5, dtype=np.intp), values, 1.0)
    assert sizes.tolist() == [1] * 5
    assert parents.tolist() == list(range(5))
    assert means.tobytes() == values[np.argsort(labels)].tobytes()
    assert np.array_equal(relabelled, labels)


def test_split_points_values_equal_clusters_with_the_bits_of_the_offset_mean():
    # per old point, gap-separated clusters (tol 0.5): equal values, among
    # them -0.0 alone and mixed with +0.0, skip the mean; a cluster whose
    # values differ still averages; one-column points keep their value
    old_points = [
        [[-0.0, -0.0], [3.0, 3.0, 3.0], [7.0, 7.1, 7.3]],
        [[-5.0], [0.0, -0.0, 0.0], [4.0, 4.0]],
        [[-0.0], [2.5], [1e300, 1e300]],
    ]
    clusters = [c for point in old_points for c in point]
    values = np.array([x for c in clusters for x in c])
    counts = np.array([sum(map(len, point)) for point in old_points])
    labels = np.repeat(np.arange(counts.size), counts)
    rng = np.random.default_rng(5)
    shuffle = rng.permutation(values.size)  # the split may not lean on the input order
    labels, values = labels[shuffle], values[shuffle]

    sizes, parents, means = _split_points(labels, counts, values, 0.5)

    assert sizes.tolist() == [len(c) for c in clusters]
    assert parents.tolist() == [k for k, point in enumerate(old_points) for _ in point]
    for k, c in enumerate(clusters):
        # every order the sort may leave equal values in (+-0.0 compare equal)
        forms = {offset_mean(p).tobytes() for p in set(permutations(c)) if list(p) == sorted(p)}
        assert forms == {means[k].tobytes()}, c
        assert np.array_equal(np.sort(values[labels == k]), np.sort(c))
    assert not np.signbit(means[0]) and not np.signbit(means[4])
    assert np.signbit(means[6])
    assert means[2] != 7.0  # the differing cluster was averaged


def test_algebra_constructor_rejects_wrong_reconstruction():
    # 64 values, each gap 0.9 cluster widths: no gap splits them, so one
    # point at their mean misses the ends by 31.5 gaps, 4.0e-9 > 1e-9
    values = 1.0 + 0.9 * default_cluster_tol(np.ones(64)) * np.arange(64)
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
    a = require_hermitian(np.diag([-1.0, 0.0, 3.0]))
    alg = generate_algebra([a])
    assert_close(gelfand_transform(alg, a), [-1.0, 0.0, 3.0])


def test_gelfand_transform_rejects_outside_element():
    alg = generate_algebra([np.diag([1.0, 1.0, 2.0])])
    stranger = np.diag([1.0, 5.0, 2.0])  # varies inside the first eigenspace
    with pytest.raises(errors.NotInAlgebra):
        gelfand_transform(alg, require_hermitian(stranger))
    off_block = np.zeros((3, 3))
    off_block[0, 2] = off_block[2, 0] = 1.0
    with pytest.raises(errors.NotInAlgebra):
        gelfand_transform(alg, require_hermitian(np.diag([1.0, 1.0, 2.0]) + 0.5 * off_block))


@pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0])
def test_gelfand_transform_rejects_a_small_element_outside_the_algebra(s):
    # the defect is judged against the element's own size: an absolute floor
    # of 1e-9 once let 1e-12 X through as the element [0, 0]
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(errors.NotInAlgebra):
        gelfand_transform(generate_algebra([np.diag([0.0, 1.0])]), require_hermitian(s * x))


@pytest.mark.parametrize("s", [1e-12, 1e-320])
def test_gelfand_transform_of_a_small_element_in_the_algebra(s):
    alg = generate_algebra([np.diag([0.0, 1.0])])
    got = gelfand_transform(alg, require_hermitian(np.diag([0.0, s])))
    assert list(got) == [0.0, s]


def test_restrict_point_mass():
    alg = generate_algebra([np.diag([0.0, 1.0])])
    m = restrict_state(projector_of(state_vector([0.0, 1.0])), alg)
    assert_close(m.weights, [0.0, 1.0])


def test_restrict_superposition_gives_amplitude_squares():
    # Born's rule: on the algebra of one observable the measure's characters
    # are its outcomes, carried read-only with the weights
    alg = generate_algebra([np.diag([0.0, 1.0])])
    m = restrict_state(projector_of(state_vector([0.6, 0.8])), alg)
    assert_close(m.weights, [0.36, 0.64])
    assert m.characters.tolist() == [[0.0], [1.0]]
    for a in (m.weights, m.characters):
        with pytest.raises(ValueError):
            a[0] = 5.0


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
            c * p for c, p in zip(coeffs, projectors(alg))
        )
        vals = gelfand_transform(alg, elem)
        lhs = float(np.trace(rho @ elem).real)
        assert abs(lhs - float(np.dot(w, vals))) < 1e-10


def test_proper_mixture_representative_round_trip():
    rng = substream(157)
    alg = generate_algebra([rand_hermitian(5, rng)])
    target = rng.uniform(0.1, 1.0, alg.n_points)
    target /= target.sum()
    measure = SpectralProbabilityMeasure(target, alg.characters)
    rho = proper_mixture_representative(measure, alg)
    assert_close(restrict_state(rho, alg).weights, target, atol=1e-12)


def test_proper_mixture_commutes_with_projectors():
    alg = generate_algebra([np.diag([1.0, 2.0, 2.0, 3.0])])
    rho = proper_mixture_representative(
        SpectralProbabilityMeasure(np.array([0.2, 0.5, 0.3]), alg.characters), alg
    )
    for p in projectors(alg):
        assert_close(rho @ p, p @ rho, atol=1e-12)


def test_simplex_contrast_fails_on_perturbed_recovery(monkeypatch):
    # the check compares the restricted weights against the measure it
    # started from, so a representative that moves 1e-9 of weight from the
    # last column of each case to its first must be reported
    representative = verification.from_eigenbasis

    def perturbed(basis, values):
        values = values.copy()
        values[:, 0] += 1e-9
        values[:, -1] -= 1e-9
        return representative(basis, values)

    assert verification.check_simplex_contrast().passed
    monkeypatch.setattr(verification, "from_eigenbasis", perturbed)
    result = verification.check_simplex_contrast()
    assert not result.passed
    assert result.worst > result.tolerance


def test_density_matrix_decompositions_are_not_unique():
    # the same density matrix from two different proper mixtures; restriction
    # to a pointer algebra is where uniqueness lives, not at the matrix level
    plus = projector_of(state_vector(np.array([1.0, 1.0]) / np.sqrt(2)))
    minus = projector_of(state_vector(np.array([1.0, -1.0]) / np.sqrt(2)))
    by_x = mix([0.5, 0.5], [plus, minus])
    by_z = mix([0.5, 0.5], [projector_of(state_vector([1, 0])), projector_of(state_vector([0, 1]))])
    assert_close(by_x, by_z, atol=1e-12)
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
    for pf in projectors(fine):
        parents = [
            k
            for k, pc in enumerate(projectors(coarse))
            if np.max(np.abs(pc @ pf - pf)) < 1e-10
        ]
        assert len(parents) == 1


def test_restrict_rejects_dim_mismatch():
    alg = generate_algebra([np.diag([0.0, 1.0])])
    with pytest.raises(errors.DimMismatch):
        restrict_state(rand_density(3, substream(163)), alg)
    with pytest.raises(errors.DimMismatch):
        three = SpectralProbabilityMeasure(np.array([0.5, 0.3, 0.2]), np.arange(3.0)[:, None])
        proper_mixture_representative(three, alg)


def test_pointer_algebra_has_idle_point():
    w = pointer_diagonal([4.0, 6.0], 3)
    alg = pointer_readout(w, 2)
    chars = alg.characters[:, 0]
    assert_close(sorted(chars), [3.0, 4.0, 6.0])  # idle value min - 1
    # the algebra the pointer matrix generates, held the same way
    dense = generate_algebra([np.diag(w)])
    assert dense.basis is None and alg.basis is None
    assert np.array_equal(dense.labels, alg.labels)
    assert np.array_equal(dense.characters, alg.characters)


def _dense_family(diagonals, seed):
    # commuting Hermitian matrices V diag(a) V^dagger with one Haar basis V
    v = rand_unitary(len(diagonals[0]), substream(seed))
    return [require_hermitian((v * np.asarray(a, dtype=float)) @ v.conj().T) for a in diagonals]


PRODUCERS = {
    "index form, one generator": lambda: generate_algebra([np.diag([2.0, 0.0, 2.0, 1.0])]),
    "index form, two generators": lambda: generate_algebra(
        [np.diag([1.0, 1.0, 0.0, 1.0, 0.0]), np.diag([3.0, 2.0, 2.0, 3.0, 2.0])]
    ),
    "dense, one generator": lambda: generate_algebra(
        [require_hermitian(rand_hermitian(5, substream(199)))]
    ),
    "dense, degenerate": lambda: generate_algebra(_dense_family([[1, 3, 1, 2, 3, 3]], 211)),
    "dense, two generators": lambda: generate_algebra(
        _dense_family([[0, 0, 1, 1, 0], [-1, 2, -1, 2, 5]], 223)
    ),
    "pointer_readout, minimal": lambda: pointer_readout(np.arange(9.0), 9),
    "pointer_readout, idle columns": lambda: pointer_readout(
        pointer_diagonal([4.0, -1.0, 6.0], 7), 3
    ),
    "cat_readout": lambda: cat_readout(5),
}


@pytest.mark.parametrize("make", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_producers_meet_the_spectral_algebra_preconditions(make):
    # SpectralAlgebra checks nothing, so each of its producers must hand it
    # intp labels in range that use every point, a square unitary basis or
    # None, and distinct character tuples in ascending lexicographic order
    alg = make()
    labels, chars = alg.labels, alg.characters
    assert labels.dtype == np.intp and labels.ndim == 1 and labels.size > 0
    assert chars.dtype == float and chars.ndim == 2 and chars.size > 0
    assert 0 <= labels.min() and labels.max() < alg.n_points
    assert alg.multiplicities().tolist() == np.bincount(labels, minlength=alg.n_points).tolist()
    assert alg.multiplicities().all()
    rows = [tuple(row) for row in chars.tolist()]
    assert rows == sorted(set(rows))
    if alg.basis is not None:
        assert alg.basis.shape == (alg.dim, alg.dim)
        assert linalg.isometry_defect(alg.basis) <= linalg.ROUNDOFF_TOL
    assert not (labels.flags.writeable or chars.flags.writeable)


def test_spectral_measure_validation():
    two = np.array([[0.0], [1.0]])
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([0.5, 0.6]), two)
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([-0.2, 1.2]), two)
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([]), np.zeros((0, 1)))
    with pytest.raises(errors.ValidationError):
        SpectralProbabilityMeasure(np.array([np.nan, np.nan]), two)


@given(seed=st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_born_matches_projected_norms(seed):
    # for a pure state, Tr(|psi><psi| E_k) = ||E_k psi||^2
    rng = substream(seed, 71)
    dim = int(rng.integers(2, 7))
    psi = rand_state(dim, rng)
    pvm = generate_algebra([rand_hermitian(dim, rng)])
    born = restrict_state(projector_of(psi), pvm)
    norms = [float(np.linalg.norm(p @ psi) ** 2) for p in projectors(pvm)]
    assert_close(born.weights, norms, atol=1e-12)


@pytest.mark.parametrize("n_diagonals", [0, 1, 2])
def test_generated_algebras_are_the_algebras_of_each_case_alone(n_diagonals):
    rng = np.random.default_rng(211 + n_diagonals)
    families = []
    while len(families) < 5:
        family = split_family(rng, 6, n_diagonals, 2)
        # a case must lead with diagonals exactly as the stack does
        if not any(np.count_nonzero(g - np.diag(np.diag(g))) == 0 for g in family[n_diagonals:]):
            families.append([np.diag(g) if g.ndim == 1 else g for g in family])
    labels, chars, basis = generate_algebras([np.stack(g) for g in zip(*families)])
    starts = labels.min(axis=1).tolist()
    ends = starts[1:] + [len(chars)]
    for c, family in enumerate(families):
        want = generate_algebra(family)
        assert np.array_equal(labels[c] - starts[c], want.labels)
        assert chars[starts[c] : ends[c]].tobytes() == want.characters.tobytes()
        assert np.array_equal(basis[c], want.basis)


def test_each_case_of_a_stack_is_clustered_with_its_own_width():
    # the width is a multiple of eps times each case's largest value: a gap
    # of 1e-12 in a case of scale 1e-3 is wider than its width, 7e-15, but
    # narrower than the width of a stack holding a case of scale 1e6
    small = np.diag([1e-3, 1e-3 + 1e-12, 0.0])
    large = np.diag([1e6, 0.0, -1e6])
    labels, chars, basis = joint_spectra([np.stack([small, large])])
    assert basis is None
    assert labels.tolist() == [[1, 2, 0], [5, 4, 3]]
    assert np.array_equal(chars[:3, 0], [0.0, 1e-3, 1e-3 + 1e-12])


def test_one_column_points_copy_no_matrix_per_column():
    # B = A^2 meets A's 256 one-column points in A's eigenbasis: one 256 x 256
    # complex matrix is 1 MiB, and a copy of B per column would be 256 MiB
    def family(d):
        u = rand_unitary(d, substream(7, d))
        a = np.linspace(-1.0, 1.0, d)
        return [(u * a) @ u.conj().T, (u * a**2) @ u.conj().T]

    generate_algebra(family(4))  # warm-up
    alg, peak = peak_bytes(generate_algebra, family(256))
    assert alg.n_points == 256
    assert peak < 16 * 2**20


def test_a_stack_whose_cases_lead_with_different_diagonals_is_rejected():
    # case 0 is diagonal and would stay in index form alone, case 1 would not
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(errors.ValidationError, match="differ in which generators are diagonal"):
        generate_algebras([np.stack([np.eye(2), x])])
    with pytest.raises(errors.ValidationError, match="different numbers of cases"):
        joint_spectra([np.stack([x, x]), x[None]])
    with pytest.raises(errors.DimMismatch):
        joint_spectra([np.stack([x, x]), np.stack([np.eye(3)] * 2)])
    with pytest.raises(errors.NotHermitian):
        joint_spectra([np.stack([x, x + 1j * np.triu(x)])])
    for bad in (x, np.zeros((0, 2, 2))):
        with pytest.raises(errors.ValidationError, match="nonempty stack of matrices"):
            joint_spectra([bad])
    with pytest.raises(errors.NotSquare, match="2x3"):
        joint_spectra([np.zeros((2, 2, 3))])
    with pytest.raises(errors.ValidationError, match="non-finite"):
        joint_spectra([np.stack([x, x * np.nan])])


def test_records_keep_the_callers_arrays_writeable():
    # a record marks a read-only view of what it is handed, and copies nothing
    weights, characters = np.array([0.25, 0.75]), np.array([[0.0], [1.0]])
    labels, basis = np.array([1, 0]), np.eye(2, dtype=complex)
    measure = SpectralProbabilityMeasure(weights, characters)
    algebra = SpectralAlgebra(labels, characters, basis)
    for record, field, given in [
        (measure, "weights", weights),
        (measure, "characters", characters),
        (algebra, "labels", labels),
        (algebra, "characters", characters),
    ]:
        held = getattr(record, field)
        assert given.flags.writeable
        assert not held.flags.writeable
        assert np.shares_memory(held, given)
    weights[0] = 0.5
    labels[0] = 0
