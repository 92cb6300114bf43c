import math

import numpy as np
import pytest

from qmeasure import errors, linalg
from qmeasure.algebra import SpectralAlgebra
from qmeasure.measurement import (
    ApparatusModel,
    MeasurementModel,
    apparatus_reduced_density,
    build_apparatus,
    build_coupling,
    collapse,
    coupling_matrix,
    apparatus_reduced_state,
    model_for_observable,
    pointer_observable,
    premeasure,
)
from qmeasure.observables import born_distribution
from qmeasure.randomness import rand_hermitian, rand_state, rand_unitary, substream
from qmeasure.scenario import compare_collapse_vs_restriction
from qmeasure.states import (
    CompositeDims,
    StateVector,
    partial_trace,
    projector_of,
)

from conftest import assert_close
from oracles import premeasure_density, projectors, rand_density, sample_outcome


def _model(basis):
    """Measurement model of an orthonormal basis on a minimal apparatus."""
    return build_coupling(basis, build_apparatus(basis.shape[0]))


def test_build_apparatus_defaults():
    app = build_apparatus(3)
    assert app.dim_apparatus == 3
    assert_close(app.pointer_values, [0.0, 1.0, 2.0])


def test_build_apparatus_oversized():
    app = build_apparatus(2, dim_apparatus=5, pointer_values=[10.0, 20.0])
    assert app.dim_apparatus == 5
    assert app.n_outcomes == 2
    # outcome 1 registers on e_1 of the padded apparatus
    model = build_coupling(np.eye(2), app)
    assert_close(premeasure([0.0, 1.0], model).amplitudes, np.kron([0.0, 1.0], np.eye(5)[:, 1]))


def test_build_apparatus_too_small():
    with pytest.raises(errors.TooSmall):
        build_apparatus(4, dim_apparatus=3)


def test_apparatus_rejects_duplicate_pointer_values():
    with pytest.raises(errors.ValidationError, match="distinct"):
        ApparatusModel(2, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "values", [[0.0, np.inf], [np.nan, 1.0], [-1e308, 1e308], [-np.finfo(float).max, 1e300]]
)
def test_apparatus_rejects_pointer_values_beyond_the_float_range(values):
    with pytest.raises(errors.ValidationError, match="finite|largest float"):
        ApparatusModel(2, np.array(values))


def test_apparatus_accepts_pointer_values_spanning_the_float_range():
    top = np.finfo(float).max
    ApparatusModel(2, np.array([-top / 2, top / 2]))
    ApparatusModel(2, np.array([0.0, top]))


def test_qubit_coupling_is_cnot():
    model = model_for_observable(np.diag([0.0, 1.0]))
    want = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert_close(coupling_matrix(model), want)


def test_single_outcome_coupling_is_identity():
    model = model_for_observable(np.array([[2.0]]))
    assert_close(coupling_matrix(model), np.eye(1))


def test_coupling_registers_every_basis_column():
    rng = substream(83)
    basis = rand_unitary(4, rng)
    app = build_apparatus(4, dim_apparatus=6)
    model = build_coupling(basis, app)
    for j in range(4):
        moved = coupling_matrix(model) @ np.kron(basis[:, j], np.eye(6)[:, 0])
        want = np.kron(basis[:, j], np.eye(6)[:, j])
        assert np.linalg.norm(moved - want) < 1e-10


def _coupling_by_outcome(model):
    """The controlled shift as the literal sum_j P_j (x) S^j, one Kronecker
    product per outcome, S cycling e_k -> e_{k+1 mod dm}."""
    dm = model.apparatus.dim_apparatus
    cycle = np.roll(np.eye(dm), 1, axis=0)
    shift = np.eye(dm, dtype=complex)
    n = model.dim_system * dm
    u = np.zeros((n, n), dtype=complex)
    for proj in projectors(model.measured_pvm):
        u += np.kron(proj, shift)
        shift = cycle @ shift
    return u


@pytest.mark.parametrize("d", range(1, 7))
def test_coupling_matrix_is_the_sum_of_per_outcome_shifts(d):
    for dm in (d, d + 3):
        rng = substream(163, d, dm)
        model = build_coupling(rand_unitary(d, rng), build_apparatus(d, dim_apparatus=dm))
        assert_close(coupling_matrix(model), _coupling_by_outcome(model), atol=1e-12, rtol=0)


@pytest.mark.parametrize("dense", [False, True])
def test_measured_basis_is_the_blocks_side_by_side(dense):
    # permuted labels: column j of the measured basis is the basis column
    # labelled j, in index form a standard basis vector
    labels = np.array([2, 0, 3, 1])
    basis = rand_unitary(4, substream(167)) if dense else None
    pvm = SpectralAlgebra(labels, np.arange(4.0)[:, None], basis)
    model = MeasurementModel(pvm, build_apparatus(4))
    v = np.eye(4) if basis is None else basis
    assert np.array_equal(model.measured_basis, v[:, [1, 3, 0, 2]])


def test_build_coupling_checks_the_basis_once(monkeypatch):
    calls = []
    defect = linalg.isometry_defect

    def counted(v):
        calls.append(v.shape)
        return defect(v)

    app = build_apparatus(3)
    basis = rand_unitary(3, substream(151))
    monkeypatch.setattr(linalg, "isometry_defect", counted)
    build_coupling(basis, app)
    assert calls == [(3, 3)]


def test_model_for_observable_checks_the_basis_once(monkeypatch):
    # the measured measure is generate_algebra([a]): one eigh and one
    # orthonormality check, by SpectralAlgebra, with no eigensolver of its own
    calls = []
    defect = linalg.isometry_defect

    def counted(v):
        calls.append(v.shape)
        return defect(v)

    monkeypatch.setattr(linalg, "isometry_defect", counted)
    model_for_observable(rand_hermitian(3, substream(173)))
    assert calls == [(3, 3)]


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


def test_build_coupling_rejects_nonsquare_basis():
    with pytest.raises(errors.ValidationError, match="cannot resolve the identity"):
        build_coupling(np.eye(3)[:, :2], build_apparatus(2))


def test_coupling_permutes_off_ready_slots():
    # the cyclic extension shifts every pointer column, not just ready
    model = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    d = 3
    for j in range(d):
        for k in range(d):
            src = np.kron(np.eye(d)[:, j], np.eye(d)[:, k])
            dst = np.kron(np.eye(d)[:, j], np.eye(d)[:, (k + j) % d])
            assert np.linalg.norm(coupling_matrix(model) @ src - dst) < 1e-12


def test_alternative_extension_agrees_on_physical_inputs():
    # a controlled transposition (swap ready with slot j) extends the same
    # registration map differently off the ready column; premeasurement
    # output from ready cannot tell the two unitaries apart
    model = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    d, dm = 3, 3
    u2 = np.zeros((d * dm, d * dm), dtype=complex)
    for j in range(d):
        swap = np.eye(dm)
        swap[[0, j]] = swap[[j, 0]]
        u2 += np.kron(np.outer(np.eye(d)[:, j], np.eye(d)[:, j]), swap)
    assert np.max(np.abs(u2.conj().T @ u2 - np.eye(d * dm))) < 1e-12
    u = coupling_matrix(model)
    assert np.max(np.abs(u2 - u)) > 0.5  # genuinely different unitary
    psi = rand_state(d, substream(89))
    joint = np.kron(psi, np.eye(dm)[:, 0])
    assert np.linalg.norm(u @ joint - u2 @ joint) < 1e-12


def test_model_rejects_degenerate_observable():
    with pytest.raises(errors.DegenerateSpectrum):
        model_for_observable(np.diag([1.0, 1.0, 2.0]))


def test_model_pointer_values_copy_eigenvalues():
    model = model_for_observable(np.diag([-2.0, 0.5, 7.0]))
    assert_close(model.apparatus.pointer_values, [-2.0, 0.5, 7.0])
    assert_close(model.measured_pvm.characters[:, 0], [-2.0, 0.5, 7.0])


def test_premeasure_superposition():
    model = model_for_observable(np.diag([0.0, 1.0]))
    out = premeasure(StateVector(np.array([0.6, 0.8])), model)
    assert_close(out.amplitudes, [0.6, 0.0, 0.0, 0.8])


def test_premeasure_eigenstate_is_product():
    model = model_for_observable(np.diag([0.0, 1.0, 2.0]))
    e1 = StateVector(np.eye(3)[:, 1])
    out = premeasure(e1, model)
    want = np.kron(e1.amplitudes, np.eye(3)[:, 1])
    assert_close(out.amplitudes, want)


def test_premeasure_density_matches_pure_case():
    model = model_for_observable(np.diag([0.0, 1.0, 2.0]), dim_apparatus=4)
    psi = rand_state(3, substream(97))
    pure = premeasure(psi, model)
    mixed = premeasure_density(projector_of(psi), model)
    assert_close(mixed.matrix, projector_of(pure).matrix, atol=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_structured_premeasurement_matches_dense_coupling(d):
    # random measured bases, on a minimal and on a padded apparatus
    for dm in (d, d + 3):
        rng = substream(139, d, dm)
        model = build_coupling(rand_unitary(d, rng), build_apparatus(d, dim_apparatus=dm))
        u = coupling_matrix(model)
        r = np.eye(dm)[:, 0]
        psi = rand_state(d, rng)
        dense = u @ np.kron(psi, r)
        pure = premeasure(psi, model)
        assert_close(pure.amplitudes, dense, atol=1e-12, rtol=0)
        assert_close(
            apparatus_reduced_state(pure, model.dims).matrix,
            partial_trace(projector_of(dense), model.dims).matrix,
            atol=1e-12,
            rtol=0,
        )
        rho = rand_density(d, rng)
        want = u @ np.kron(rho, np.outer(r, r)) @ u.conj().T
        assert_close(premeasure_density(rho, model).matrix, want, atol=1e-12, rtol=0)


@pytest.mark.parametrize("d", range(1, 7))
def test_apparatus_reduced_density_matches_dense_premeasurement(d):
    # the closed form diag(p) against tracing the system out of the
    # (d * dm)^2 composite, on a minimal and on a padded apparatus
    for dm in (d, d + 3):
        rng = substream(151, d, dm)
        model = build_coupling(rand_unitary(d, rng), build_apparatus(d, dim_apparatus=dm))
        rho = rand_density(d, rng)
        dense = partial_trace(premeasure_density(rho, model), model.dims)
        assert_close(
            apparatus_reduced_density(rho, model).matrix, dense.matrix, atol=1e-12, rtol=0
        )


def test_apparatus_reduced_density_rejects_wrong_size():
    model = model_for_observable(np.diag([0.0, 1.0]), dim_apparatus=3)
    with pytest.raises(errors.DimMismatch):
        apparatus_reduced_density(rand_density(3, substream(157)), model)


def test_apparatus_reduced_state_rejects_wrong_size():
    with pytest.raises(errors.DimMismatch):
        apparatus_reduced_state(rand_state(6, substream(149)), CompositeDims(2, 2))


def test_collapse_diagonal_weights():
    rho = projector_of([0.6, 0.8])
    out = collapse(rho, _model(np.eye(2)))
    assert_close(out.matrix, np.diag([0.36, 0.64]))


def test_collapse_is_idempotent():
    rng = substream(101)
    basis = rand_unitary(4, rng)
    rho = rand_density(4, rng)
    model = _model(basis)
    once = collapse(rho, model)
    twice = collapse(once, model)
    assert_close(twice.matrix, once.matrix, atol=1e-12)


def test_collapse_fixes_basis_diagonal_states():
    basis = rand_unitary(3, substream(103))
    rho = (basis * [0.2, 0.3, 0.5]) @ basis.conj().T
    out = collapse(rho, _model(basis))
    assert_close(out.matrix, rho, atol=1e-12)


def test_collapse_preserves_born_weights():
    rng = substream(107)
    basis = rand_unitary(5, rng)
    rho = rand_density(5, rng)
    out = collapse(rho, _model(basis))
    for j in range(5):
        b = basis[:, j]
        before = float((b.conj() @ rho @ b).real)
        after = float((b.conj() @ out.matrix @ b).real)
        assert abs(before - after) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 10])
def test_reduced_apparatus_diagonal_equals_born(dim):
    rng = substream(109, dim)
    gaps = np.sort(rng.uniform(-3, 3, dim)) + np.arange(dim) * 1e-3
    model = model_for_observable(np.diag(gaps))
    psi = rand_state(dim, rng)
    joint = premeasure(psi, model)
    reduced = apparatus_reduced_state(joint, model.dims)
    dist = born_distribution(projector_of(psi), model.measured_pvm)
    pointer_diag = np.real(np.diag(reduced.matrix))
    # outcome j registers on pointer column e_j
    assert_close(pointer_diag, dist.probabilities, atol=1e-10)


def test_two_stage_chain_keeps_pointer_statistics():
    # system couples to apparatus 1, then apparatus 2 copies apparatus 1;
    # the second pointer reads the same distribution as the first, and the
    # surviving (system, apparatus 1) pair keeps the same pointer diagonal
    d = 2
    m1 = model_for_observable(np.diag([0.0, 1.0]))
    psi = rand_state(d, substream(113))
    stage1 = premeasure(psi, m1)
    first_diag = np.real(
        np.diag(apparatus_reduced_state(stage1, m1.dims).matrix)
    )

    u2 = coupling_matrix(m1)  # same controlled shift, now copying factor 2 to factor 3
    joint = np.kron(np.eye(d), u2) @ np.kron(stage1.amplitudes, np.eye(d)[:, 0])
    rho_last = partial_trace(projector_of(joint), CompositeDims(d * d, d))
    assert_close(np.real(np.diag(rho_last.matrix)), first_diag, atol=1e-10)

    # factors (S, A1, A2) reordered to (A2, S, A1), so the trace keeps (S, A1)
    swapped = joint.reshape(d * d, d).T.reshape(-1)
    rho12 = partial_trace(projector_of(swapped), CompositeDims(d, d * d))
    assert_close(
        np.real(np.diag(rho12.matrix)),
        np.real(np.diag(projector_of(stage1).matrix)),
        atol=1e-10,
    )


def test_sample_outcome_eigenstate_is_deterministic():
    model = model_for_observable(np.diag([4.0, 9.0]))
    rng = substream(127)
    for _ in range(5):
        outcome, post = sample_outcome(StateVector(np.array([0.0, 1.0])), model, rng)
        assert outcome == 9.0
        assert_close(np.abs(post.amplitudes), [0.0, 1.0])


def test_sample_outcome_frequencies_converge():
    model = model_for_observable(np.diag([0.0, 1.0]))
    psi = StateVector(np.array([0.6, 0.8]))
    rng = substream(131)
    n = 20000
    hits = sum(sample_outcome(psi, model, rng)[0] for _ in range(n))
    freq = hits / n
    # binomial 4 sigma band around 0.64
    assert abs(freq - 0.64) < 4 * np.sqrt(0.64 * 0.36 / n)


def test_sample_outcome_is_seed_reproducible():
    model = model_for_observable(np.diag([0.0, 1.0]))
    psi = StateVector(np.array([0.6, 0.8]))
    a = [sample_outcome(psi, model, substream(137, t))[0] for t in range(50)]
    b = [sample_outcome(psi, model, substream(137, t))[0] for t in range(50)]
    assert a == b


def test_pointer_observable_idle_value():
    app = build_apparatus(2, dim_apparatus=4, pointer_values=[3.0, 5.0])
    obs = pointer_observable(app)
    assert_close(np.diag(obs.matrix), [3.0, 5.0, 2.0, 2.0])


@pytest.mark.parametrize(
    "values", [[1e13, 2e13], [1e17, 2e17], [-1.79e308, -1.7e308], [1.7e308, 1.79e308]]
)
def test_pointer_observable_idle_value_stays_out_of_reach(values):
    # min - 1 would round to min, or lie within the radius at which a
    # pointer value matches outcome 0; the idle value moves further below
    app = build_apparatus(2, dim_apparatus=3, pointer_values=values)
    idle = np.real(np.diag(pointer_observable(app).matrix))[2]
    assert np.isfinite(idle)
    assert min(values) - idle > linalg.POINTER_MATCH_RTOL * max(np.abs(values))


def test_pointer_observable_minimal_apparatus():
    app = build_apparatus(3, pointer_values=[-1.0, 0.0, 1.0])
    obs = pointer_observable(app)
    assert_close(obs.matrix, np.diag([-1.0, 0.0, 1.0]))
