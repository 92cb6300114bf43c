import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeasure import errors, linalg
from qmeasure.algebra import SpectralAlgebra, generate_algebra, restrict_state
from qmeasure.measurement import (
    collapse,
    coupling_matrix,
    factor_rows,
    model_for_observable,
    pointer_diagonal,
    pointer_readout,
    premeasure,
    readout_weights,
    reduce,
)
from qmeasure.randomness import rand_hermitian, rand_state, substream
from qmeasure.scenario import compare_collapse_vs_restriction
from qmeasure.states import density_matrix, partial_trace, projector_of, state_vector

from conftest import assert_close, peak_bytes
from oracles import (
    apparatus_reduced_state,
    premeasure_density,
    premeasured_state,
    rand_density,
    rand_unitary,
    sample_outcome,
)


def test_pointer_diagonal_of_an_oversized_apparatus():
    # outcome 1 registers on e_1 of the padded apparatus, whose idle columns
    # read one value below the pointer values
    assert_close(pointer_diagonal([10.0, 20.0], 5), [10.0, 20.0, 9.0, 9.0, 9.0])
    assert_close(
        premeasured_state(state_vector([0.0, 1.0]), np.eye(2), 5), np.kron([0.0, 1.0], np.eye(5)[:, 1])
    )


def test_pointer_diagonal_rejects_more_values_than_columns():
    # numpy would otherwise fail to broadcast them into the diagonal
    with pytest.raises(errors.TooSmall, match="apparatus dim 3 cannot register 4 outcomes"):
        pointer_diagonal(np.arange(4.0), 3)
    for values in (np.arange(0.0), np.zeros((1, 2)), 1.0):
        with pytest.raises(errors.ValidationError, match="nonempty 1-d"):
            pointer_diagonal(values, 2)


def test_pointer_diagonal_rejects_equal_values():
    with pytest.raises(errors.ValidationError, match="apart fall in one readout point"):
        pointer_diagonal([1.0, 1.0], 2)


@pytest.mark.parametrize(
    "values", [[0.0, np.inf], [np.nan, 1.0], [-1e308, 1e308], [-np.finfo(float).max, 1e300]]
)
def test_pointer_diagonal_rejects_values_beyond_the_float_range(values):
    with pytest.raises(errors.ValidationError, match="finite|largest float"):
        pointer_diagonal(values, 2)


def test_pointer_diagonal_accepts_values_spanning_the_float_range():
    top = np.finfo(float).max
    for values in ([-top / 2, top / 2], [0.0, top]):
        assert_close(pointer_diagonal(values, 2), values)


def test_qubit_coupling_is_cnot():
    _, basis = model_for_observable(np.diag([0.0, 1.0]))
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert_close(coupling_matrix(basis, 2), want)


def test_single_outcome_coupling_is_identity():
    _, basis = model_for_observable(np.array([[2.0]]))
    assert_close(coupling_matrix(basis, 1), np.eye(1))


def test_coupling_registers_every_basis_column():
    rng = substream(83)
    basis = rand_unitary(4, rng)
    for j in range(4):
        moved = coupling_matrix(basis, 6) @ np.kron(basis[:, j], np.eye(6)[:, 0])
        want = np.kron(basis[:, j], np.eye(6)[:, j])
        assert np.linalg.norm(moved - want) < 1e-10


def _coupling_by_outcome(basis, dm):
    """The controlled shift as the literal sum_j P_j (x) S^j, one Kronecker
    product per outcome, P_j the projector on basis column j and S cycling
    e_k -> e_{k+1 mod dm}."""
    cycle = np.roll(np.eye(dm), 1, axis=0)
    shift = np.eye(dm, dtype=complex)
    n = basis.shape[0] * dm
    u = np.zeros((n, n), dtype=complex)
    for b in basis.T:
        u += np.kron(np.outer(b, b.conj()), shift)
        shift = cycle @ shift
    return u


@pytest.mark.parametrize("d", range(1, 7))
def test_coupling_matrix_is_the_sum_of_per_outcome_shifts(d):
    for dm in (d, d + 3):
        rng = substream(163, d, dm)
        basis = rand_unitary(d, rng)
        assert_close(coupling_matrix(basis, dm), _coupling_by_outcome(basis, dm), atol=1e-12, rtol=0)


@pytest.mark.parametrize("d", range(1, 7))
def test_coupling_matrix_of_a_stack_is_each_basis_coupling(d):
    rng = substream(171, d)
    bases = np.stack([rand_unitary(d, rng) for _ in range(4)])
    for dm in (d, d + 3):
        stacked = coupling_matrix(bases, dm)
        assert stacked.shape == (4, d * dm, d * dm)
        for basis, u in zip(bases, stacked):
            assert np.array_equal(u, coupling_matrix(basis, dm))


@pytest.mark.parametrize("dense", [False, True])
def test_measured_basis_is_in_label_order(dense):
    # column j of the measured basis is the eigenvector of the j-th least
    # eigenvalue: a diagonal observable has permuted labels, and its basis
    # columns are standard basis vectors
    values = np.array([2.0, 0.0, 3.0, 1.0])
    v = rand_unitary(4, substream(167)) if dense else np.eye(4)
    a = (v * values) @ v.conj().T
    pvm, basis = model_for_observable(a)
    assert basis.flags.f_contiguous and not basis.flags.writeable
    assert_close(pvm.characters[:, 0], np.arange(4.0), atol=1e-12)
    assert_close(a @ basis, basis * np.arange(4.0), atol=1e-12)
    if not dense:
        assert np.array_equal(basis, np.eye(4)[:, [1, 3, 0, 2]])


def test_model_for_observable_checks_the_basis_once(monkeypatch):
    # the measured measure is generate_algebra([a]): one eigh and one
    # orthonormality check, of its stack of one, with no eigensolver of its own
    calls = []
    defect = linalg.isometry_defect

    def counted(v):
        calls.append(v.shape)
        return defect(v)

    monkeypatch.setattr(linalg, "isometry_defect", counted)
    model_for_observable(rand_hermitian(3, substream(173)))
    assert calls == [(1, 3, 3)]


def test_compare_checks_each_basis_once(monkeypatch):
    # each case's measured basis is checked once, in the check of its stack:
    # collapse trusts the checked bases, and the apparatus and the diagonal
    # pointer algebra have no basis to check
    calls = []
    defect = linalg.isometry_defect

    def counted(v):
        calls.append(v.shape)
        return defect(v)

    monkeypatch.setattr(linalg, "isometry_defect", counted)
    compare_collapse_vs_restriction(16, 100, 1)
    assert all(shape[-2:] == (16, 16) for shape in calls)
    assert sum(math.prod(shape[:-2]) for shape in calls) == 100


def test_coupling_permutes_off_ready_slots():
    # the cyclic extension shifts every pointer column, not just ready
    _, basis = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    d = 3
    for j in range(d):
        for k in range(d):
            src = np.kron(np.eye(d)[:, j], np.eye(d)[:, k])
            dst = np.kron(np.eye(d)[:, j], np.eye(d)[:, (k + j) % d])
            assert np.linalg.norm(coupling_matrix(basis, d) @ src - dst) < 1e-12


def test_alternative_extension_agrees_on_physical_inputs():
    # a controlled transposition (swap ready with slot j) extends the same
    # registration map differently off the ready column; premeasurement
    # output from ready cannot tell the two unitaries apart
    _, basis = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    d, dm = 3, 3
    u2 = np.zeros((d * dm, d * dm), dtype=complex)
    for j in range(d):
        swap = np.eye(dm)
        swap[[0, j]] = swap[[j, 0]]
        u2 += np.kron(np.outer(np.eye(d)[:, j], np.eye(d)[:, j]), swap)
    assert np.max(np.abs(u2.conj().T @ u2 - np.eye(d * dm))) < 1e-12
    u = coupling_matrix(basis, dm)
    assert np.max(np.abs(u2 - u)) > 0.5  # genuinely different unitary
    psi = rand_state(d, substream(89))
    joint = np.kron(psi, np.eye(dm)[:, 0])
    assert np.linalg.norm(u @ joint - u2 @ joint) < 1e-12


def test_model_rejects_degenerate_observable():
    with pytest.raises(errors.DegenerateSpectrum):
        model_for_observable(np.diag([1.0, 1.0, 2.0]))


def test_model_values_its_outcomes_at_the_eigenvalues():
    # a run's pointer values default to them
    pvm, _ = model_for_observable(np.diag([-2.0, 0.5, 7.0]))
    assert_close(pvm.characters[:, 0], [-2.0, 0.5, 7.0])


def test_premeasure_superposition():
    # the d x d coefficient block: rows the system, columns the pointer
    _, basis = model_for_observable(np.diag([0.0, 1.0]))
    out = premeasure(np.array([0.6, 0.8]), basis)
    assert_close(out, [[0.6, 0.0], [0.0, 0.8]])


def test_premeasure_eigenstate_is_product():
    _, basis = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    e1 = np.eye(3)[:, 1]
    out = premeasure(e1, basis)
    assert_close(out, np.outer(e1, e1))


def test_premeasure_density_matches_pure_case():
    _, basis = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    psi = rand_state(3, substream(97))
    pure = premeasured_state(psi, basis, 4)
    mixed = premeasure_density(projector_of(psi), basis, 4)
    assert_close(mixed, projector_of(pure), atol=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_structured_premeasurement_matches_dense_coupling(d):
    # random measured bases, on a minimal and on a padded apparatus
    for dm in (d, d + 3):
        rng = substream(139, d, dm)
        basis = rand_unitary(d, rng)
        u = coupling_matrix(basis, dm)
        r = np.eye(dm)[:, 0]
        psi = rand_state(d, rng)
        dense = u @ np.kron(psi, r)
        pure = premeasured_state(psi, basis, dm)
        assert_close(pure, dense, atol=1e-12, rtol=0)
        assert_close(
            apparatus_reduced_state(pure, d, dm),
            partial_trace(projector_of(dense), d, dm),
            atol=1e-12,
            rtol=0,
        )
        rho = rand_density(d, rng)
        want = u @ np.kron(rho, np.outer(r, r)) @ u.conj().T
        assert_close(premeasure_density(rho, basis, dm), want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("d", range(1, 7))
def test_apparatus_reduced_density_matches_dense_premeasurement(d):
    # the premeasured factor rows of rho, reduced to the apparatus and
    # restricted by the readout kernel, against the apparatus diagonal of
    # the (d * dm)^2 composite, on a minimal and on a padded apparatus,
    # through an index-form and a dense readout whose point k is column k
    for dm in (d, d + 3):
        rng = substream(151, d, dm)
        basis = rand_unitary(d, rng)
        rho = rand_density(d, rng)
        dense = partial_trace(premeasure_density(rho, basis, dm), d, dm)
        diagonal = np.real(np.diag(dense))
        m = premeasure(factor_rows(density_matrix(rho)), basis).reshape(-1, d)
        columns = np.arange(dm, dtype=float)
        for readout in (
            generate_algebra([np.diag(columns)]),
            SpectralAlgebra(np.arange(dm), columns[:, None], np.eye(dm, dtype=complex)),
        ):
            weights, aligned = readout_weights(reduce(m), readout, columns[:d])
            assert_close(weights, diagonal, atol=1e-12, rtol=0)
            assert_close(aligned, diagonal[:d], atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "ulps", [0, 1, -1], ids=["exactly Hermitian", "one ulp up", "one ulp down"]
)
def test_factor_rows_of_a_density_have_the_bits_of_its_hermitian_part(ulps):
    # density_matrix judges the density once and keeps its bits; eigh reads
    # one triangle, so factor_rows factors the Hermitian part, taken only
    # where the density is not exactly Hermitian: the bits of eigh of what
    # require_hermitian gives. Entry (3, 2) has an even last bit, so its mean
    # with either neighbour rounds back to it, and the part's lower triangle
    # is not the skewed density's
    def rows(m):
        lam, v = np.linalg.eigh(m)
        return (v[:, lam > 0] * np.sqrt(lam[lam > 0])).T.tobytes()

    rho = linalg.hermitian_part(rand_density(4, substream(197)))
    assert np.array_equal(rho, rho.conj().T)
    if ulps:
        rho[3, 2] = np.nextafter(rho[3, 2].real, ulps * np.inf) + 1j * rho[3, 2].imag
    assert (rows(rho) == rows(linalg.require_hermitian(rho))) == (ulps == 0)
    assert factor_rows(density_matrix(rho)).tobytes() == rows(linalg.require_hermitian(rho))


@pytest.mark.parametrize("stack", [(), (3,)], ids=["one state", "a stack of three"])
def test_dense_readout_forms_no_apparatus_square_matrix(stack):
    # a pointer diagonal and a splitter that mixes the idle columns: a
    # readout with a basis, read from its two pointer rows. A D x D complex
    # matrix alone is 1 MiB at D = 256; the weights against the block traces
    # of the diagonal matrices they make, built outside the traced call
    dim = 256
    w = pointer_diagonal([0.0, 1.0], dim)
    splitter = np.zeros((dim, dim))
    splitter[2:, 2:] = 1.0
    readout = generate_algebra([linalg.require_hermitian(np.diag(w)), linalg.require_hermitian(splitter)])
    assert readout.basis is not None
    p = np.linspace(0.2, 0.8, int(np.prod(stack))).reshape(*stack, 1)
    weights = np.concatenate([p, 1 - p], axis=-1)
    (on_points, aligned), peak = peak_bytes(readout_weights, weights, readout, w[:2])
    assert peak < 256 * 1024
    padded = np.zeros(stack + (dim, dim), dtype=complex)
    padded[..., [0, 1], [0, 1]] = weights
    traces = [readout.block_traces(m) for m in padded.reshape(-1, dim, dim)]
    assert_close(on_points, np.reshape(traces, on_points.shape), atol=1e-15, rtol=0)
    assert_close(aligned, weights, atol=1e-15, rtol=0)


@given(
    st.lists(st.integers(1, 99), min_size=1, max_size=8, unique=True),
    st.integers(0, 2**9 - 1),
    st.sampled_from([None, 0.0, -0.0]),
    st.floats(-300, 300),
    st.sampled_from([0, 1, 2, 5]),
)
@settings(max_examples=300, deadline=None)
def test_pointer_readout_is_the_algebra_its_pointer_diagonal_generates(
    magnitudes, bits, zero, exponent, extra
):
    # pointer values from 1e-300 to 1e302, a signed zero among them, on an
    # apparatus of n, n + 1 or more columns: the closed form against the
    # split loop on the pointer matrix, label for label and bit for bit
    values = np.array(magnitudes, dtype=float) * 10.0**exponent
    values[(bits >> np.arange(values.size)) & 1 == 1] *= -1
    if zero is not None:
        values = np.insert(values, bits % (values.size + 1), zero)
    try:
        w = pointer_diagonal(values, values.size + extra)
    except errors.ValidationError:
        # tiny values below an idle value near -1 fall in one readout point
        assume(False)
    closed = pointer_readout(w, values.size)
    split = generate_algebra([np.diag(w)])
    assert closed.basis is None and split.basis is None
    assert closed.labels.dtype == split.labels.dtype
    assert closed.labels.tobytes() == split.labels.tobytes()
    assert closed.characters.shape == split.characters.shape
    assert closed.characters.tobytes() == split.characters.tobytes()


def test_pointer_readout_is_read_only():
    readout = pointer_readout(pointer_diagonal([4.0, 6.0], 4), 2)
    for array in (readout.labels, readout.characters, readout.multiplicities()):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        readout.characters[0, 0] = 1.0


def test_point_sums_of_the_leading_columns_match_their_zero_padding():
    # the pointer columns' weights against the same weights padded with the
    # zeros of every other column: the same bits
    readout = generate_algebra([np.diag(np.arange(6.0) % 4)])
    weights = rand_density(3, substream(163)).real[:2, :3] ** 2
    padded = np.zeros((2, 6))
    padded[:, :3] = weights
    assert readout.point_sums(weights).tobytes() == readout.point_sums(padded).tobytes()


def test_collapse_diagonal_weights():
    rho = projector_of(state_vector([0.6, 0.8]))
    out = collapse(rho, np.eye(2))
    assert_close(out, np.diag([0.36, 0.64]))


def test_collapse_is_idempotent():
    rng = substream(101)
    basis = rand_unitary(4, rng)
    rho = rand_density(4, rng)
    once = collapse(rho, basis)
    twice = collapse(once, basis)
    assert_close(twice, once, atol=1e-12)


def test_collapse_of_a_stack_is_each_case_collapsed():
    rng = substream(113)
    bases = np.stack([rand_unitary(3, rng) for _ in range(4)])
    rhos = np.stack([rand_density(3, rng) for _ in range(4)])
    stacked = collapse(rhos, bases)
    for rho, basis, out in zip(rhos, bases, stacked):
        assert_close(out, collapse(rho, basis), atol=1e-15)


def test_collapse_fixes_basis_diagonal_states():
    basis = rand_unitary(3, substream(103))
    rho = (basis * [0.2, 0.3, 0.5]) @ basis.conj().T
    out = collapse(rho, basis)
    assert_close(out, rho, atol=1e-12)


def test_collapse_preserves_born_weights():
    rng = substream(107)
    basis = rand_unitary(5, rng)
    rho = rand_density(5, rng)
    out = collapse(rho, basis)
    for j in range(5):
        b = basis[:, j]
        before = float((b.conj() @ rho @ b).real)
        after = float((b.conj() @ out @ b).real)
        assert abs(before - after) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 10])
def test_reduced_apparatus_diagonal_equals_born(dim):
    rng = substream(109, dim)
    gaps = np.sort(rng.uniform(-3, 3, dim)) + np.arange(dim) * 1e-3
    pvm, basis = model_for_observable(np.diag(gaps))
    psi = rand_state(dim, rng)
    joint = premeasured_state(psi, basis, dim)
    reduced = apparatus_reduced_state(joint, dim, dim)
    born = restrict_state(projector_of(psi), pvm)
    pointer_diag = np.real(np.diag(reduced))
    # outcome j registers on pointer column e_j
    assert_close(pointer_diag, born.weights, atol=1e-10)


def test_two_stage_chain_keeps_pointer_statistics():
    # system couples to apparatus 1, then apparatus 2 copies apparatus 1;
    # the second pointer reads the same distribution as the first, and the
    # surviving (system, apparatus 1) pair keeps the same pointer diagonal
    d = 2
    _, basis = model_for_observable(np.diag([0.0, 1.0]))
    psi = rand_state(d, substream(113))
    stage1 = premeasured_state(psi, basis, d)
    first_diag = np.real(np.diag(apparatus_reduced_state(stage1, d, d)))

    u2 = coupling_matrix(basis, d)  # the same controlled shift, copying factor 2 to factor 3
    joint = np.kron(np.eye(d), u2) @ np.kron(stage1, np.eye(d)[:, 0])
    rho_last = partial_trace(projector_of(joint), d * d, d)
    assert_close(np.real(np.diag(rho_last)), first_diag, atol=1e-10)

    # factors (S, A1, A2) reordered to (A2, S, A1), so the trace keeps (S, A1)
    swapped = joint.reshape(d * d, d).T.reshape(-1)
    rho12 = partial_trace(projector_of(swapped), d, d * d)
    assert_close(
        np.real(np.diag(rho12)),
        np.real(np.diag(projector_of(stage1))),
        atol=1e-10,
    )


def test_sample_outcome_eigenstate_is_deterministic():
    pvm, basis = model_for_observable(np.diag([4.0, 9.0]))
    rng = substream(127)
    for _ in range(5):
        outcome, post = sample_outcome(
            state_vector(np.array([0.0, 1.0])), basis, pvm.characters[:, 0], rng
        )
        assert outcome == 9.0
        assert_close(np.abs(post), [0.0, 1.0])


def test_sample_outcome_frequencies_converge():
    pvm, basis = model_for_observable(np.diag([0.0, 1.0]))
    psi = state_vector(np.array([0.6, 0.8]))
    rng = substream(131)
    n = 20000
    hits = sum(sample_outcome(psi, basis, pvm.characters[:, 0], rng)[0] for _ in range(n))
    freq = hits / n
    # binomial 4 sigma band around 0.64
    assert abs(freq - 0.64) < 4 * np.sqrt(0.64 * 0.36 / n)


def test_sample_outcome_is_seed_reproducible():
    pvm, basis = model_for_observable(np.diag([0.0, 1.0]))
    psi = state_vector(np.array([0.6, 0.8]))
    values = pvm.characters[:, 0]
    a = [sample_outcome(psi, basis, values, substream(137, t))[0] for t in range(50)]
    b = [sample_outcome(psi, basis, values, substream(137, t))[0] for t in range(50)]
    assert a == b


def test_pointer_diagonal_idle_value():
    assert_close(pointer_diagonal([3.0, 5.0], 4), [3.0, 5.0, 2.0, 2.0])


@pytest.mark.parametrize(
    "values", [[1e13, 2e13], [1e17, 2e17], [-1.79e308, -1.7e308], [1.7e308, 1.79e308]]
)
def test_pointer_diagonal_idle_value_stays_out_of_reach(values):
    # min - 1 would round to min, or lie within the radius at which a
    # pointer value matches outcome 0; the idle value moves further below
    idle = pointer_diagonal(values, 3)[2]
    assert np.isfinite(idle)
    assert min(values) - idle > linalg.POINTER_MATCH_RTOL * max(np.abs(values))


def test_pointer_diagonal_minimal_apparatus():
    assert_close(pointer_diagonal([-1.0, 0.0, 1.0], 3), [-1.0, 0.0, 1.0])
    assert_close(pointer_diagonal(np.arange(3.0), 3), [0.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "values, dim",
    [([1.0, 1.0000000000001], 2), ([0.0, 1e-300], 7), ([0.0, 1e-300, 1.0], 3)],
)
def test_pointer_diagonal_rejects_values_the_readout_merges(values, dim):
    # distinct values within the cluster width of the pointer diagonal, the
    # idle value included, would fall in one readout point
    with pytest.raises(errors.ValidationError, match="apart fall in one readout point"):
        pointer_diagonal(values, dim)
    # the same two values alone, with no idle value to widen the width
    if dim == 7:
        pointer_diagonal(values, 2)
