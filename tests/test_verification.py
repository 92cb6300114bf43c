"""Each verify kernel must be able to fail: a fault injected into the code
it checks has to push its verify check past the check's tolerance. A
stacked kernel must also give every case the bits of its per-case oracle
and make the checks of every case's objects."""

import re

import numpy as np
import pytest

from qmeasure import errors, linalg, measurement, verification
from qmeasure.measurement import coupling_matrix, pointer_readout
from qmeasure.randomness import draw_cases, rand_hermitian, rand_state, substream, substreams

from conftest import misregistered, nan_state, stretch_a_basis, stretch_a_state
from oracles import (
    chain_reduction_gap,
    coupling_defects,
    group_law_defects,
    joint_diagonalization_defect,
    rand_unitary,
    round_trip_defect,
    spectral_axiom_defect,
)


def uncoupled(states, bases):
    """A premeasurement that forgets the coupling: psi (x) e_0 per state,
    the coefficient block with psi in its ready column."""
    m = np.zeros(np.broadcast_shapes(bases.shape, states.shape + (1,)), dtype=complex)
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
    assert_fault_caught(check, measurement, "premeasure", uncoupled)


def test_a_failing_collapse_restriction_check_names_its_route_and_worst_case():
    # the fault catalogue's reversed collapse diagonal; a pass keeps the
    # plain count as its detail
    assert verification.check_collapse_restriction().detail == "200 random cases, dims 2..6"
    diagonal = measurement.collapse_diagonal
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measurement, "collapse_diagonal", lambda r, b: diagonal(r, b)[..., ::-1])
        result = verification.check_collapse_restriction()
        detail = re.fullmatch(
            r"200 random cases, dims 2\.\.6; collapse-vs-restrict at dim (\d), case (\d+), "
            r"outcome (\d)",
            result.detail,
        )
        assert not result.passed and detail, result.detail
        # the named case, drawn alone from its stream, peaks there with the worst gap
        d, case, outcome = map(int, detail.groups())
        streams = substreams(verification._SEED, (10, d), [case])
        residuals = measurement.collapse_restriction_gaps(*draw_cases(d, 1, streams, True))
    (gap, at) = residuals["collapse-vs-restrict"]
    assert (gap.tolist(), at.tolist()) == ([result.worst], [outcome])


def test_coupling_defects_catch_phase_and_off_ready_faults():
    dense = verification.coupling_matrix
    check = verification.check_coupling_fidelity

    def scaled(factor):
        def coupling_faulty(bases, dim_apparatus):
            u = dense(bases, dim_apparatus)
            return u * factor(dim_apparatus, u)

        return coupling_faulty

    def off_ready_gain(dim_apparatus, u):
        # premeasurement reads only the ready columns, so only unitarity sees this
        col = np.arange(u.shape[-1]) % dim_apparatus
        return np.where(col == 0, 1.0, 1 + 1e-9)

    # a global phase keeps the coupling unitary, so only the amplitude and
    # agreement terms see it
    for factor in (lambda dim_apparatus, u: np.exp(1e-6j), off_ready_gain):
        assert_fault_caught(check, verification, "coupling_matrix", scaled(factor))


def test_coupling_defects_catch_shifted_pointer_column_in_premeasure():
    # outcome j lands on the pointer column of outcome j + 1: the structured
    # path no longer matches U, which only the agreement term compares
    check = verification.check_coupling_fidelity
    assert_fault_caught(check, verification, "premeasure", misregistered)
    states, bases = draw_cases(3, 4, substreams(67, (), range(4)), state_first=True)
    tol = 1e-10  # check 2's tolerance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "premeasure", misregistered)
        agreement, unitarity = verification.coupling_defects(states, bases, 3)
    assert agreement.min() > tol
    assert unitarity.max() <= tol


@pytest.mark.parametrize("d", range(1, 9))
def test_stacked_coupling_defects_have_the_bits_of_the_per_case_oracle(d):
    # d = 1 takes more cases, as the collapse vs restriction stack does
    cases = range(400 if d == 1 else 30)
    for dm in (d, d + 2):
        states, bases = draw_cases(d, len(cases), substreams(71, (dm,), cases), state_first=True)
        agreement, unitarity = verification.coupling_defects(states, bases, dm)
        for k, (psi, basis) in enumerate(zip(states, bases)):
            want = coupling_defects(basis, psi, dm)
            assert (agreement[k], unitarity[k]) == want


@pytest.mark.parametrize(
    "fault, error",
    [
        (stretch_a_basis, errors.NotOrthonormal),
        (stretch_a_state, errors.NotNormalized),
        (nan_state, errors.NotNormalized),
    ],
)
def test_stacked_coupling_defects_check_every_case(fault, error):
    states, bases = draw_cases(3, 5, substreams(37, (2,), range(5)), state_first=True)
    fault(states, bases)
    with pytest.raises(error):
        verification.coupling_defects(states, bases, 3)


def test_stacked_coupling_defects_reject_a_small_apparatus():
    states, bases = draw_cases(3, 5, substreams(37, (2,), range(5)), state_first=True)
    with pytest.raises(errors.TooSmall):
        verification.coupling_defects(states, bases, 2)


KINDS = ("random", "degenerate", "diagonal")


def hermitian_stack(kind: str, d: int, n: int, rng) -> np.ndarray:
    """n Hermitians of dim d: random ones, ones whose eigenvalues repeat,
    or diagonal ones, whose repeated values leave multi-column points."""
    if kind == "random":
        return np.stack([rand_hermitian(d, rng) for _ in range(n)])
    values = rng.choice([-1.0, 0.0, 2.5], size=(n, d))
    # every case has the same leading values, two equal ones and, from d = 3
    # on, one that differs, so that the cases agree on being diagonal: a
    # case that is a multiple of the identity would be, and the others not
    values[:, 1:2] = values[:, :1] = 0.0
    values[:, 2:3] = 2.5
    if kind == "diagonal":
        return values[:, None, :] * np.eye(d, dtype=complex)
    u = np.stack([rand_unitary(d, rng) for _ in range(n)])
    m = (u * values[:, None, :]) @ u.conj().mT
    return m / 2 + m.conj().mT / 2


def family_stack(kind: str, d: int, n: int, rng) -> list[np.ndarray]:
    """A stack of n commuting families of dim d, one (n, d, d) stack per
    member: a Hermitian of hermitian_stack and two polynomials in it, or,
    for "diagonal", a diagonal with repeated values followed by matrices
    that mix the columns each of its values shares."""
    h = hermitian_stack(kind, d, n, rng)
    if kind == "diagonal":
        w = np.zeros((n, d, d), dtype=complex)
        for c in range(n):
            for value in np.unique(h[c].diagonal()):
                cols = np.flatnonzero(h[c].diagonal() == value)
                w[c][np.ix_(cols, cols)] = rand_unitary(cols.size, rng)
        later = []
        for _ in range(2):
            m = (w * rng.uniform(-1, 1, size=(n, 1, d))) @ w.conj().mT
            later.append(m / 2 + m.conj().mT / 2)
        return [h, *later]
    coeffs = rng.uniform(-1, 1, size=(2, 3))
    return [h, *(a * np.eye(d) + b * h + c * h @ h for a, b, c in coeffs)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", range(1, 13))
def test_stacked_spectral_kernels_have_the_bits_of_the_per_case_oracles(d, kind):
    rng = substream(89, d, KINDS.index(kind))
    n = 6
    hermitians = hermitian_stack(kind, d, n, rng)
    got = verification.spectral_axiom_defects(hermitians)
    assert np.array_equal(got, [spectral_axiom_defect(h) for h in hermitians])

    family = family_stack(kind, d, n, rng)
    off, distinct = verification.joint_diagonalization_defects(family)
    want = [joint_diagonalization_defect([m[c] for m in family]) for c in range(n)]
    assert np.array_equal(off, [w[0] for w in want])
    assert np.array_equal(distinct, [w[1] for w in want])

    s, t = rng.uniform(-3, 3, size=(2, n))
    states = np.stack([rand_state(d, rng) for _ in range(n)])
    group, norm = verification.group_law_defects(hermitians, s, t, states)
    want = [
        group_law_defects(h, s[c], t[c], states[c])
        for c, h in enumerate(hermitians)
    ]
    assert np.array_equal(group, [w[0] for w in want])
    assert np.array_equal(norm, [w[1] for w in want])

    raw = rng.uniform(0.05, 1.0, size=(n, d))
    gaps = verification.round_trip_defects(hermitians, raw)
    assert np.array_equal(gaps, [round_trip_defect(h, w) for h, w in zip(hermitians, raw)])

    # the chain's dense stage holds a d^3 x d^3 joint projector per case, so
    # past d = 8 two cases; the measured bases are the Hermitians'
    # eigenbases, dense or, for "diagonal", columns of the identity
    m = n if d <= 8 else 2
    bases = np.linalg.eigh(hermitians[:m])[1]
    copier = coupling_matrix(np.eye(d, dtype=complex), d)
    readout = pointer_readout(np.arange(d, dtype=float), d)
    gaps = verification.chain_reduction_gaps(states[:m], bases, copier, readout)
    want = [chain_reduction_gap(psi, b, copier, readout) for psi, b in zip(states, bases)]
    assert np.array_equal(gaps, want)


@pytest.mark.parametrize(
    "poison, message",
    [
        (np.nan, "non-finite"),
        (1.5e308, "not all finite"),  # an eigenvalue of 3e308 overflows
    ],
)
def test_a_stack_with_one_bad_case_raises_as_that_case_alone(poison, message):
    hermitians = hermitian_stack("random", 2, 5, substream(97))
    hermitians[3] = poison

    def round_trips(h):
        return verification.round_trip_defects(h, np.ones((5, 2)))

    def round_trip(h):
        return round_trip_defect(h, np.ones(2))

    for kernel, oracle in [
        (verification.spectral_axiom_defects, spectral_axiom_defect),
        (round_trips, round_trip),
    ]:
        with pytest.raises(errors.ValidationError, match=message):
            kernel(hermitians)
        with pytest.raises(errors.ValidationError, match=message):
            oracle(hermitians[3])
        for c in (0, 1, 2, 4):
            oracle(hermitians[c])


def test_check_3_and_check_4_run_one_eigensolver_call_per_dimension_stack(monkeypatch):
    # check 3 draws 5 Hermitians for each dim 2..8, check 4 one family per
    # case with its dim drawn first; a random Hermitian has distinct
    # eigenvalues, so each stack splits into one-column points at its first
    # generator, all in one stacked eigh, and later generators read those
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert verification.check_spectral_axioms().passed
    assert calls == [(5, d, d) for d in range(2, 9)]
    calls.clear()
    dims = [int(rng.integers(2, 9)) for rng in substreams(verification._SEED, (13,), range(20))]
    assert verification.check_joint_diagonalization().passed
    assert calls == [(dims.count(d), d, d) for d in dict.fromkeys(dims)]


def test_spectral_axiom_defect_catches_shifted_eigenvalues():
    spectrum = verification.joint_spectra

    def shifted(generators):
        labels, chars, basis = spectrum(generators)
        return labels, chars + 1e-6, basis

    assert_fault_caught(verification.check_spectral_axioms, verification, "joint_spectra", shifted)


def test_spectral_axiom_defect_catches_a_non_orthonormal_raw_basis():
    # check 3 reads the basis before validation could reject it, so a column
    # of one case stretched by 1e-9 reaches the check instead of raising
    spectrum = verification.joint_spectra

    def stretched(generators):
        labels, chars, basis = spectrum(generators)
        basis = basis.copy()
        basis[-1, :, 0] *= 1 + 1e-9
        return labels, chars, basis

    check = verification.check_spectral_axioms
    assert_fault_caught(check, verification, "joint_spectra", stretched)


def test_joint_diagonalization_defect_diagonalizes_family():
    rng = substream(61)
    h = rand_hermitian(6, rng)
    family = [h]
    for row in rng.standard_normal((2, 3)):
        family.append(row[0] * np.eye(6) + row[1] * h + row[2] * h @ h)
    off, distinct = verification.joint_diagonalization_defects([m[None] for m in family])
    assert off.shape == distinct.shape == (1,)
    assert off[0] < 1e-8
    assert distinct[0]


def test_joint_diagonalization_defect_catches_wrong_basis_and_collided_characters():
    spectrum = verification.joint_spectra

    def permuted(family):
        labels, chars, basis = spectrum(family)
        return labels, chars, np.roll(basis, 1, axis=1)

    def collided(family):
        labels, chars, basis = spectrum(family)
        return labels, np.zeros_like(chars), basis

    for fault in (permuted, collided):
        check = verification.check_joint_diagonalization
        assert_fault_caught(check, verification, "joint_spectra", fault)


def test_group_law_defects_catch_time_offset():
    evolve = verification.evolve

    def late(psi, h, t):
        return evolve(psi, h, t + 1e-6)

    assert_fault_caught(verification.check_dynamics_group, verification, "evolve", late)


def test_chain_reduction_gap_catches_missing_coupling():
    # the single stage reads the chain through measurement.route_weights
    assert_fault_caught(verification.check_chain_reduction, measurement, "premeasure", uncoupled)


def test_chain_reduction_gaps_check_their_states_and_bases_once(monkeypatch):
    # once for the stack, through the check compare's stacks get; the
    # pointer readout is diagonal and has no basis to check
    d = 3
    states, bases = draw_cases(d, 5, substreams(151, (), range(5)), state_first=True)
    copier = coupling_matrix(np.eye(d, dtype=complex), d)
    algebra = pointer_readout(np.arange(d, dtype=float), d)
    calls = []
    defect = linalg.isometry_defect

    def counted(v):
        calls.append(v.shape)
        return defect(v)

    monkeypatch.setattr(linalg, "isometry_defect", counted)
    assert verification.chain_reduction_gaps(states, bases, copier, algebra).max() <= 1e-12
    assert calls == [(5, d, d)]
    for fault, error in [
        (stretch_a_basis, errors.NotOrthonormal),
        (stretch_a_state, errors.NotNormalized),
        (nan_state, errors.NotNormalized),
    ]:
        faulty = states.copy(), bases.copy()
        fault(*faulty)
        with pytest.raises(error):
            verification.chain_reduction_gaps(*faulty, copier, algebra)


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


def test_run_all_builds_each_dense_coupling_once_per_stack(monkeypatch):
    # check 2 builds one stack of 30 couplings per dimension 2..6; check 9
    # builds its copier once and then the first stages of its 20 cases as
    # one stack
    calls = []
    dense = verification.coupling_matrix

    def counted(bases, dim_apparatus):
        calls.append((bases.shape, bool(np.array_equal(bases, np.eye(bases.shape[-1])))))
        return dense(bases, dim_apparatus)

    monkeypatch.setattr(verification, "coupling_matrix", counted)
    assert all(r.passed for r in verification.run_all())
    check_2 = [((30, d, d), False) for d in range(2, 7)]
    check_9 = [((4, 4), True), ((20, 4, 4), False)]
    assert calls == check_2 + check_9


def test_run_all_makes_one_qr_call_per_drawn_stack(monkeypatch):
    # checks 1, 2 and 9 draw Haar unitaries, one stacked QR per dimension's
    # stack: check 9 makes one call for its 20 cases, not 20
    calls = []
    qr = np.linalg.qr

    def counted(a):
        calls.append(a.shape)
        return qr(a)

    monkeypatch.setattr(np.linalg, "qr", counted)
    assert all(r.passed for r in verification.run_all())
    check_1 = [(40, d, d) for d in range(2, 7)]
    check_2 = [(30, d, d) for d in range(2, 7)]
    assert calls == check_1 + check_2 + [(20, 4, 4)]
