"""Built-in invariant suite behind the CLI verify verb.

Each check is a fast, seeded, deterministic property run with its own pinned
tolerance; the CLI tolerance flag does not loosen these. A property's body
is a kernel returning the residuals of its drawn cases, one per case of a
stack. Every case draws from its own stream, dimension included, and the
drawn cases run as one stack per dimension, checked once per stack; only
chain reduction runs one case at a time. The acceptance test suite runs
the same kernels at larger sample sizes.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    SpectralProbabilityMeasure,
    generate_algebras,
    joint_spectra,
    proper_mixture_representative,
    restrict_state,
)
from .errors import TooSmall
from .linalg import isometry_defect
from .measurement import (
    checked_cases,
    collapse_restriction_gaps,
    coupling_matrix,
    minimal_readout,
    premeasure,
    readout_weights,
    reduce,
)
from .observables import evolve
from .randomness import draw_cases, rand_hermitian, rand_state, rand_unitary, substreams
from .report import CheckResult
from .scenario import parse_scenario, run_cat, run_scenario
from .states import StateVector, mix, partial_trace, projector_of

_SEED = 20240811


def _result(name: str, worst: float, tol: float, detail: str) -> CheckResult:
    return CheckResult(name, bool(worst <= tol), float(worst), tol, detail)


def coupling_defects(
    states: np.ndarray, bases: np.ndarray, dim_apparatus: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per case of a stack of (n, d) states and (n, d, d) measured bases, the
    agreement and unitarity defects of its coupling to an apparatus of
    dim_apparatus: premeasure must give, without U, the composite the dense
    U makes of psi (x) e_0, its d x d block and zero columns after it, and U
    must be unitary. The checks one case's objects would make run once on
    the stack, and one stacked product builds every U; each case's defects
    have the bits that case alone gets."""
    b = checked_cases(states, bases)
    n, d = states.shape
    if dim_apparatus < d:
        raise TooSmall(f"apparatus dim {dim_apparatus} cannot register {d} outcomes")
    u = coupling_matrix(b, dim_apparatus)
    ready = np.zeros((n, d, dim_apparatus), dtype=complex)
    ready[..., 0] = states
    gap = (u @ ready.reshape(n, -1, 1)).reshape(n, d, -1)
    gap[..., :d] -= premeasure(states, b)
    gram = u.conj().swapaxes(-1, -2) @ u
    gram.reshape(n, -1)[:, :: d * dim_apparatus + 1] -= 1
    return np.abs(gap).max(axis=(-2, -1)), np.abs(gram).max(axis=(-2, -1))


def spectral_axiom_defects(hermitians: np.ndarray) -> np.ndarray:
    """Per case of an (n, d, d) stack of Hermitians, the worst violation of
    the spectral measure axioms for the algebra it generates, read from the
    raw joint spectra before they are validated. For the square basis V,
    V^dagger V = I makes the blocks orthonormal, their projectors pairwise
    orthogonal and complete; and the eigenvalues must reconstruct the
    Hermitian. It is the route by which model_for_observable builds every
    run's measured spectral measure."""
    labels, chars, basis = joint_spectra([hermitians])
    v = np.eye(labels.shape[1]) if basis is None else basis
    rebuilt = (v * chars[labels, 0][:, None, :]) @ v.conj().mT
    recon = np.abs(rebuilt - hermitians).max(axis=(1, 2))
    return np.maximum(isometry_defect(v), recon)


def joint_diagonalization_defects(family) -> tuple[np.ndarray, np.ndarray]:
    """Per case of a stack of commuting families, each member an (n, d, d)
    stack: the largest off-diagonal entry of any member in the joint
    eigenbasis of its family, and whether the joint eigenspaces carry
    pairwise distinct characters. Both are read from the raw joint spectra,
    before validation could reject colliding characters."""
    labels, chars, basis = joint_spectra(family)
    n, d = labels.shape
    v = np.eye(d) if basis is None else basis[:, None]
    # one product per member and case, as a stack; the diagonal entries are cleared
    off = np.abs(v.conj().mT @ np.stack(family, axis=1) @ v)
    off.reshape(n, -1, d * d)[..., :: d + 1] = 0
    starts = labels.min(axis=1).tolist()
    ends = starts[1:] + [len(chars)]
    distinct = [
        len({tuple(char) for char in chars[a:b].tolist()}) == b - a for a, b in zip(starts, ends)
    ]
    return off.max(axis=(1, 2, 3)), np.array(distinct)


def group_law_defects(
    hermitians: np.ndarray, s: np.ndarray, t: np.ndarray, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per case of a stack of (n, d, d) Hamiltonians H, times s and t and
    (n, d) states psi: the composition defect |e^{-isH} e^{-itH} psi -
    e^{-i(s+t)H} psi| and the worst norm drift of the two evolved states.
    The algebras are generated as one stack; each case's algebra serves its
    three evolutions."""
    group, norm = np.empty(len(states)), np.empty(len(states))
    for c, generated in enumerate(generate_algebras([hermitians])):
        psi = StateVector(states[c])
        stepwise = evolve(evolve(psi, generated, t[c]), generated, s[c])
        direct = evolve(psi, generated, s[c] + t[c])
        group[c] = np.max(np.abs(stepwise.amplitudes - direct.amplitudes))
        norm[c] = max(abs(float(np.linalg.norm(x.amplitudes)) - 1.0) for x in (stepwise, direct))
    return group, norm


def round_trip_defects(hermitians: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Per case of a stack of (n, d, d) Hermitians and (n, d) positive raw
    weights: a spectral measure on the algebra the Hermitian generates, the
    leading raw weights normalized, one per point, must be recovered by
    restricting its proper mixture representative to that algebra. The
    algebras are generated as one stack."""
    gaps = np.empty(len(raw))
    for c, algebra in enumerate(generate_algebras([hermitians])):
        w = raw[c, : algebra.n_points]
        measure = SpectralProbabilityMeasure(w / w.sum(), algebra.characters)
        rho = proper_mixture_representative(measure, algebra)
        gaps[c] = np.max(np.abs(restrict_state(rho, algebra).weights - measure.weights))
    return gaps


def _stacks_by_dim(dims, *columns):
    """Per dimension, in order of first appearance, each column's entries
    for the cases of that dimension, in case order, as one stack."""
    for d in dict.fromkeys(dims):
        cases = [k for k, dk in enumerate(dims) if dk == d]
        yield tuple(np.stack([column[k] for k in cases]) for column in columns)


def chain_reduction_gap(
    psi: np.ndarray, basis: np.ndarray, copier: np.ndarray, algebra
) -> float:
    """Gap between the pointer weights after one premeasurement of the state
    psi in the measured basis, on a minimal apparatus (pointer value j on
    column j) read through algebra, and those a second such apparatus reads
    after copier, the dense coupling of the second apparatus to the first
    pointer, copies that pointer. The state and basis are checked once, as a
    stack of one case."""
    d = basis.shape[0]
    b = checked_cases(psi[None], basis[None])[0]
    m = premeasure(psi, b)
    single, _ = readout_weights(reduce(m), algebra, np.arange(d, dtype=float))
    r = np.eye(d)[0]
    # U (x) I on psi (x) e_0 (x) e_0, then I (x) U_copier
    u = coupling_matrix(b, d)
    first = u @ np.outer(np.outer(psi, r), r)
    final = first.reshape(d, -1) @ copier.T
    joint = projector_of(StateVector(final.reshape(-1)))
    rho_last = partial_trace(joint, d * d, d)
    two_stage = restrict_state(rho_last, algebra).weights
    return float(np.max(np.abs(single - two_stage)))


def check_collapse_restriction() -> CheckResult:
    """Collapse diagonal equals restriction weights for random pairs, one
    stack of cases per dimension."""
    worst = 0.0
    cases = 0
    for d in range(2, 7):
        states, bases = draw_cases(d, _SEED, (10, d), range(40), state_first=True)
        gaps = collapse_restriction_gaps(states, bases)
        worst = max(worst, float(gaps.max()))
        cases += gaps.size
    return _result("collapse vs restriction", worst, 1e-9, f"{cases} random cases, dims 2..6")


def check_coupling_fidelity() -> CheckResult:
    """The structured premeasurement agrees with the dense coupling, on the
    correlated slots and off them, and the coupling is unitary, one stack of
    cases per dimension. Each case draws its basis and then its state."""
    worst = 0.0
    cases = 0
    for d in range(2, 7):
        states, bases = draw_cases(d, _SEED, (11, d), range(30), state_first=False)
        agreement, unitarity = coupling_defects(states, bases, d)
        worst = max(worst, float(agreement.max()), float(unitarity.max()))
        cases += agreement.size
    return _result("coupling fidelity", worst, 1e-10, f"{cases} random states, dims 2..6")


def check_spectral_axioms() -> CheckResult:
    """Spectral blocks are orthonormal, their projectors pairwise orthogonal
    and complete, and the eigenvalues reconstruct the observable, one stack
    of cases per dimension."""
    keys = [(d, i) for d in range(2, 9) for i in range(5)]
    drawn = [rand_hermitian(d, rng) for (d, _), rng in zip(keys, substreams(_SEED, (12,), keys))]
    worst = 0.0
    for (hermitians,) in _stacks_by_dim([d for d, _ in keys], drawn):
        worst = max(worst, float(spectral_axiom_defects(hermitians).max()))
    return _result(
        "spectral measure axioms", worst, 1e-9, f"{len(keys)} random Hermitians, dims 2..8"
    )


def check_joint_diagonalization() -> CheckResult:
    """Commuting families become simultaneously diagonal with distinct
    characters. Every case draws its dimension and family from its own
    stream; the cases then run as one stack per dimension."""
    dims, families = [], []
    for rng in substreams(_SEED, (13,), range(20)):
        d = int(rng.integers(2, 9))
        h = rand_hermitian(d, rng)
        h = h / max(1.0, float(np.max(np.abs(np.linalg.eigvalsh(h)))))
        coeffs = rng.uniform(-1, 1, size=(2, 4))
        family = [h]
        for row in coeffs:
            family.append(
                row[0] * np.eye(d) + row[1] * h + row[2] * h @ h + row[3] * h @ h @ h
            )
        dims.append(d)
        families.append(np.stack(family))
    worst = 0.0
    for (stacked,) in _stacks_by_dim(dims, families):
        off, distinct = joint_diagonalization_defects(list(stacked.swapaxes(0, 1)))
        worst = max(worst, float(off.max()), 0.0 if distinct.all() else 1.0)
    return _result("joint diagonalization", worst, 1e-8, f"{len(dims)} random commuting families")


def check_born_sampling() -> CheckResult:
    """Sampled frequencies stay inside 4 sigma of the spectral weights."""
    doc = """
    {
      "system_dim": 2,
      "initial_state": {"kind": "vector", "data": [[0.6, 0], [0.8, 0]]},
      "observable": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
      "apparatus": {"dim": 2},
      "trials": 20000,
      "seed": 7
    }
    """
    report = run_scenario(parse_scenario(doc))
    t = report.empirical.trials
    worst = 0.0
    for p, f in zip(report.born.weights, report.empirical.frequencies):
        sigma = np.sqrt(p * (1 - p) / t)
        worst = max(worst, abs(f - p) / (4 * sigma))
    return _result("sampling agreement", worst, 1.0, f"{t} trials against (0.36, 0.64), 4 sigma units")


def check_cat() -> CheckResult:
    """Branch cross terms vanish and weights split as |c1|^2, |c2|^2. The
    cat's readout is diagonal, so its cross terms are a structural zero."""
    report = run_cat(0.6, 0.8j, chain_length=6)
    worst_cross = max(report.cross_terms)
    w = report.restricted.weights
    weight_err = max(abs(w[-1] - 0.36), abs(w[0] - 0.64))
    worst = max(worst_cross, weight_err, report.max_deviation)
    return _result("cat branches", worst, 1e-10, "chain of 6 cells, c = (0.6, 0.8i)")


def check_simplex_contrast() -> CheckResult:
    """The maximally mixed qubit has two distinct pure decompositions, while
    a spectral measure is recovered from its proper mixture representative
    by restriction, on random algebras."""
    e0 = StateVector([1, 0])
    e1 = StateVector([0, 1])
    plus = StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
    minus = StateVector([1 / np.sqrt(2), -1 / np.sqrt(2)])
    mix_z = mix([0.5, 0.5], [projector_of(e0), projector_of(e1)])
    mix_x = mix([0.5, 0.5], [projector_of(plus), projector_of(minus)])
    agree = float(np.max(np.abs(mix_z.matrix - mix_x.matrix)))
    distinct = float(np.max(np.abs(projector_of(e0).matrix - projector_of(plus).matrix)))
    worst = max(agree, 0.0 if distinct > 0.1 else 1.0)

    dims, hermitians, raws = [], [], []
    for rng in substreams(_SEED, (14,), range(10)):
        d = int(rng.integers(2, 6))
        hermitians.append(rand_hermitian(d, rng))
        # one uniform per point: the leading n_points of d uniforms are the
        # n_points uniforms the stream would give, so d of them may be drawn
        # before the algebra says how many points it has
        raws.append(rng.uniform(0.05, 1.0, size=d))
        dims.append(d)
    for stacked in _stacks_by_dim(dims, hermitians, raws):
        worst = max(worst, float(round_trip_defects(*stacked).max()))
    return _result(
        "simplex contrast",
        worst,
        1e-12,
        "two pure decompositions of the mixed qubit; weight round trip on 10 random algebras",
    )


def check_dynamics_group() -> CheckResult:
    """exp(-isH) exp(-itH) psi = exp(-i(s+t)H) psi and norms are preserved,
    one stack of cases per dimension, each case drawn from its own stream."""
    dims, hermitians, times, states = [], [], [], []
    for rng in substreams(_SEED, (15,), range(20)):
        d = int(rng.integers(2, 9))
        hermitians.append(rand_hermitian(d, rng))
        times.append(rng.uniform(-3, 3, size=2))
        states.append(rand_state(d, rng))
        dims.append(d)
    worst = 0.0
    for h, st, psi in _stacks_by_dim(dims, hermitians, times, states):
        group, norm = group_law_defects(h, st[:, 0], st[:, 1], psi)
        worst = max(worst, float(group.max()), float(norm.max()))
    return _result("dynamics group law", worst, 1e-9, f"{len(dims)} random (H, s, t)")


def check_chain_reduction() -> CheckResult:
    """A second apparatus copying the first reads the same distribution."""
    d = 4
    worst = 0.0
    algebra = minimal_readout(d)
    copier = coupling_matrix(np.eye(d, dtype=complex), d)
    for rng in substreams(_SEED, (16,), range(20)):
        basis = rand_unitary(d, rng)
        psi = rand_state(d, rng)
        worst = max(worst, chain_reduction_gap(psi, basis, copier, algebra))
    return _result("chain reduction", worst, 1e-10, "20 random states, dim 4, two-stage pointer")


ALL_CHECKS = (
    check_collapse_restriction,
    check_coupling_fidelity,
    check_spectral_axioms,
    check_joint_diagonalization,
    check_born_sampling,
    check_cat,
    check_simplex_contrast,
    check_dynamics_group,
    check_chain_reduction,
)


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
