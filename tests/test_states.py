import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors
from qmeasure.algebra import (
    SpectralProbabilityMeasure,
    generate_algebra,
)
from qmeasure.measurement import collapse
from qmeasure.randomness import rand_hermitian, rand_state, substream
from qmeasure.states import density_matrix, mix, partial_trace, projector_of, state_vector

from conftest import assert_close
from oracles import (
    apparatus_reduced_state,
    premeasure_density,
    premeasured_state,
    proper_mixture_representative,
    rand_density,
    rand_unitary,
)


def test_state_vector_requires_unit_norm():
    with pytest.raises(errors.NotNormalized):
        state_vector(np.array([1.0, 1.0]))
    with pytest.raises(errors.NotNormalized):
        state_vector([0, 0])


def test_state_vector_is_immutable():
    psi = state_vector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi[0] = 0.0


@pytest.mark.parametrize(
    "check,data,error",
    [
        (state_vector, [1e200, 1e200], errors.NotNormalized),
        (density_matrix, np.diag([1e308, 1e308]), errors.TraceNotOne),
    ],
)
def test_an_overflowing_norm_or_trace_fails_its_check_without_a_warning(check, data, error):
    # pytest turns warnings into errors here, so numpy's overflow warning would fail first
    with pytest.raises(error, match="inf"):
        check(data)


def test_projector_of_superposition():
    p = projector_of(state_vector(np.array([0, 1, 1]) / np.sqrt(2)))
    want = np.zeros((3, 3))
    want[1:, 1:] = 0.5
    assert_close(p, want)


@given(phase=st.floats(0, 2 * np.pi))
@settings(max_examples=30, deadline=None)
def test_projector_phase_invariant(phase):
    psi = rand_state(4, substream(5))
    rotated = np.exp(1j * phase) * psi
    assert_close(projector_of(rotated), projector_of(psi), atol=1e-12)


def test_density_matrix_validation_order():
    with pytest.raises(errors.NotHermitian):
        density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(errors.NotPositive):
        density_matrix(np.diag([2.0, -1.0]))
    with pytest.raises(errors.TraceNotOne):
        density_matrix(np.diag([0.6, 0.6]))


def test_density_matrix_passes_good_state():
    rho = density_matrix(np.diag([0.25, 0.75]))
    assert_close(rho, np.diag([0.25, 0.75]))


def test_validators_return_read_only_complex_arrays():
    for checked in (state_vector([0, 1j]), density_matrix(np.eye(3) / 3)):
        assert checked.dtype == complex and not checked.flags.writeable
    assert_close(state_vector([0, 1j]), [0, 1j])


def test_projector_from_raw_amplitudes():
    rho = projector_of(state_vector([0.6, 0.8]))
    assert_close(rho, [[0.36, 0.48], [0.48, 0.64]])


def test_mix_two_pure_states():
    up = projector_of(state_vector([1, 0]))
    down = projector_of(state_vector([0, 1]))
    rho = mix([0.36, 0.64], [up, down])
    assert_close(rho, np.diag([0.36, 0.64]))


def test_mix_accepts_raw_matrices():
    rho = mix([0.5, 0.5], [np.eye(2) / 2, np.diag([1.0, 0.0])])
    assert_close(rho, np.diag([0.75, 0.25]))


def test_mix_rejects_bad_weights():
    up = projector_of(state_vector([1, 0]))
    with pytest.raises(errors.BadWeights):
        mix([0.5, 0.6], [up, up])
    with pytest.raises(errors.BadWeights):
        mix([1.5, -0.5], [up, up])
    with pytest.raises(errors.BadWeights):
        mix([], [])
    with pytest.raises(errors.BadWeights):
        mix([0.5, 0.5], [up])


def test_mix_rejects_dimension_mismatch():
    with pytest.raises(errors.DimMismatch):
        mix([0.5, 0.5], [projector_of(state_vector([1, 0])), projector_of(state_vector([1, 0, 0]))])


@given(w=st.floats(0.01, 0.99))
@settings(max_examples=30, deadline=None)
def test_mix_trace_is_one(w):
    rng = substream(23)
    rho = mix([w, 1 - w], [rand_density(3, rng), rand_density(3, rng)])
    assert abs(np.trace(rho) - 1) < 1e-12


def test_tensor_state_ordering():
    # system index is the slow factor
    sys = state_vector(np.array([1, 1]) / np.sqrt(2))
    app = state_vector(np.array([1.0, 0.0]))
    joint = np.kron(sys, app)
    assert_close(joint, np.array([1, 0, 1, 0]) / np.sqrt(2))


def test_partial_trace_bell_state():
    bell = projector_of(state_vector(np.array([1, 0, 0, 1]) / np.sqrt(2)))
    assert_close(partial_trace(bell, 2, 2), np.eye(2) / 2)


def test_partial_trace_product_state():
    sys = rand_state(3, substream(31))
    app = rand_state(2, substream(32))
    joint = projector_of(np.kron(sys, app))
    rho_a = partial_trace(joint, 3, 2)
    assert_close(rho_a, projector_of(app), atol=1e-12)


@pytest.mark.parametrize("case", range(6))
def test_partial_trace_defining_property(case):
    # Tr(rho_A Y) must equal Tr(rho (I (x) Y)) for every apparatus observable Y
    rng = substream(37, case)
    ds, da = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    rho = rand_density(ds * da, rng)
    reduced = partial_trace(rho, ds, da)
    for _ in range(4):
        y = rand_hermitian(da, rng)
        lifted = np.kron(np.eye(ds), y)
        assert abs(np.trace(reduced @ y) - np.trace(rho @ lifted)) < 1e-10


def test_partial_trace_rejects_wrong_dims():
    rho = rand_density(6, substream(41))
    with pytest.raises(errors.DimMismatch):
        partial_trace(rho, 2, 2)


def test_partial_trace_rejects_nonpositive_dims():
    rho = rand_density(2, substream(43))
    for dims in ((0, 2), (2, 0), (-1, -2)):
        with pytest.raises(errors.ValidationError, match="positive"):
            partial_trace(rho, *dims)


@pytest.mark.parametrize("d", range(1, 9))
def test_trusted_results_pass_the_public_checks(d):
    # these seven functions (three of them test oracles) return their results without
    # validating them; each must still be a density matrix the public validator accepts as it is
    rng = substream(157, d)
    psi = state_vector(rand_state(d, rng))
    rho = rand_density(d, rng)
    basis = rand_unitary(d, rng)
    composite = rand_density(2 * d, rng)
    algebra = generate_algebra([rand_hermitian(d, rng)])
    raw = rng.uniform(0.05, 1.0, size=algebra.n_points)
    w = float(rng.uniform())
    results = [
        projector_of(psi),
        mix([w, 1 - w], [rho, projector_of(psi)]),
        apparatus_reduced_state(premeasured_state(psi, basis, d + 2), d, d + 2),
        premeasure_density(rho, basis, d + 2),
        proper_mixture_representative(
            SpectralProbabilityMeasure(raw / raw.sum(), algebra.characters), algebra
        ),
    ]
    for result in results[:2]:
        assert not result.flags.writeable
    for result in results + [collapse(rho, basis), partial_trace(composite, 2, d)]:
        assert_close(density_matrix(result), result, atol=0, rtol=0)
