"""Built-in invariant suite behind the CLI verify verb.

Each check is a fast, seeded, deterministic property run with its own pinned
tolerance; the CLI tolerance flag does not loosen these. A property's body
is a kernel returning the residuals of its drawn cases, one per case of a
stack. Every case draws from its own stream, dimension included, and the
drawn cases run as one stack per dimension, checked once per stack; no
kernel loops over the cases of a stack. The acceptance test suite runs
the same kernels at larger sample sizes.
"""

from __future__ import annotations

import numpy as np

from .algebra import evolve, generate_algebras, joint_spectra
from .errors import TooSmall
from .linalg import from_eigenbasis, isometry_defect, require_normalized, require_weights, row_norms
from .measurement import (
    checked_cases,
    collapse_restriction_gaps,
    coupling_matrix,
    pointer_readout,
    premeasure,
    route_weights,
)
from .randomness import draw_cases, rand_hermitian, rand_state, substreams
from .report import CheckResult
from .scenario import parse_scenario, run_cat, run_scenario
from .states import partial_trace, projector_of, state_vector

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
    recon = np.abs(from_eigenbasis(basis, chars[labels, 0]) - hermitians).max(axis=(1, 2))
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
    The algebras are generated as one stack, which serves all three
    evolutions of every case."""
    generated = generate_algebras([hermitians])
    stepwise = evolve(evolve(states, generated, t), generated, s)
    direct = evolve(states, generated, s + t)
    drift = [np.abs(row_norms(x) - 1.0) for x in (stepwise, direct)]
    return np.abs(stepwise - direct).max(axis=1), np.maximum(*drift)


def round_trip_defects(hermitians: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """Per case of a stack of (n, d, d) Hermitians and (n, d) positive raw
    weights: a spectral measure on the algebra the Hermitian generates, the
    leading raw weights normalized, one per point, must be recovered by
    restricting its proper mixture representative (each point's projector
    over its multiplicity, weighted by the measure) to that algebra. The
    algebras are generated as one stack, and the representatives and their
    restrictions are one stacked product each, over the points of the whole
    stack."""
    labels, chars, basis = generate_algebras([hermitians])
    n, d = labels.shape
    starts = labels.min(axis=1)
    counts = np.diff(starts, append=len(chars))
    sums = np.empty(n)
    for k in set(counts.tolist()):
        # numpy's sum associates by the count of its values, so the cases of
        # k points sum their k leading weights together, each as it alone would
        sums[counts == k] = raw[counts == k, :k].sum(axis=1)
    slots = np.arange(d) < counts[:, None]
    weights = (raw / sums[:, None])[slots]
    points = labels.reshape(-1)
    rho = from_eigenbasis(basis, (weights / np.bincount(points))[labels])
    if basis is None:
        on_columns = np.diagonal(rho, axis1=1, axis2=2)
    else:
        on_columns = np.einsum("nij,nij->nj", basis.conj(), rho @ basis)
    restricted = np.bincount(points, weights=np.real(on_columns).reshape(-1))
    padded = np.zeros((n, d))
    padded[slots] = restricted
    require_weights(padded, stack=True)
    return np.maximum.reduceat(np.abs(restricted - weights), starts)


def _dim_keys(dims: range, n: int) -> np.ndarray:
    """The stream keys (d, i) for each d of dims and i < n, d-major, as one
    (len(dims) * n, 2) array."""
    return np.column_stack((np.repeat(dims, n), np.tile(np.arange(n), len(dims))))


def _stacks_by_dim(dims, *columns):
    """Per dimension, in order of first appearance, each column's entries
    for the cases of that dimension, in case order, as one stack."""
    for d in dict.fromkeys(dims):
        cases = [k for k, dk in enumerate(dims) if dk == d]
        yield tuple(np.stack([column[k] for k in cases]) for column in columns)


def chain_reduction_gaps(
    states: np.ndarray, bases: np.ndarray, copier: np.ndarray, algebra
) -> np.ndarray:
    """Per case of (n, d) states and (n, d, d) measured bases: the gap
    between the pointer weights after one premeasurement of the state, on a
    minimal apparatus (pointer value j on column j) read through algebra by
    route_weights, and those a second such apparatus reads after copier,
    the dense coupling of the second apparatus to the first pointer, copies
    that pointer. The second stage is dense and shares nothing with premeasure:
    the couplings U (x) I act on psi (x) e_0 (x) e_0, then I (x) U_copier,
    and the last apparatus is the partial trace of the joint projector,
    restricted to algebra. Each step is one stacked product, and the checks
    of one case (its state and basis, the final norm, the weights' floor
    and sum) run once on the stack."""
    n, d = states.shape
    b = checked_cases(states, bases)
    projectors = states[:, :, None] * states.conj()[:, None, :]
    _, single, _ = route_weights(states, projectors, b, algebra, np.arange(d, dtype=float))
    ready = np.zeros((n, d * d, d), dtype=complex)
    ready[:, ::d, 0] = states
    first = coupling_matrix(b, d) @ ready
    final = require_normalized((first.reshape(n, d, -1) @ copier.T).reshape(n, -1))
    joint = final[:, :, None] * final.conj()[:, None, :]
    two_stage = require_weights(algebra.block_traces(partial_trace(joint, d * d, d)), stack=True)
    return np.abs(single - two_stage).max(axis=1)


def check_collapse_restriction() -> CheckResult:
    """Collapse diagonal equals restriction weights for random pairs, one
    stack of cases per dimension. A failure names the route and the
    dimension, case and outcome of its worst gap."""
    worst, where = 0.0, ""
    cases = 0
    # keys (d, i) under tag 10 name the streams of tags (10, d), key i
    streams = substreams(_SEED, (10,), _dim_keys(range(2, 7), 40))
    for d in range(2, 7):
        states, bases = draw_cases(d, 40, streams, state_first=True)
        ((route, (gaps, outcomes)),) = collapse_restriction_gaps(states, bases).items()
        i = int(gaps.argmax())
        if gaps[i] > worst:
            worst, where = float(gaps[i]), f"{route} at dim {d}, case {i}, outcome {outcomes[i]}"
        cases += gaps.size
    tol = 1e-9
    detail = f"{cases} random cases, dims 2..6"
    if not worst <= tol:
        detail += f"; {where}"
    return _result("collapse vs restriction", worst, tol, detail)


def check_coupling_fidelity() -> CheckResult:
    """The structured premeasurement agrees with the dense coupling, on the
    correlated slots and off them, and the coupling is unitary, one stack of
    cases per dimension. Each case draws its basis and then its state."""
    worst = 0.0
    cases = 0
    streams = substreams(_SEED, (11,), _dim_keys(range(2, 7), 30))
    for d in range(2, 7):
        states, bases = draw_cases(d, 30, streams, state_first=False)
        agreement, unitarity = coupling_defects(states, bases, d)
        worst = max(worst, float(agreement.max()), float(unitarity.max()))
        cases += agreement.size
    return _result("coupling fidelity", worst, 1e-10, f"{cases} random states, dims 2..6")


def check_spectral_axioms() -> CheckResult:
    """Spectral blocks are orthonormal, their projectors pairwise orthogonal
    and complete, and the eigenvalues reconstruct the observable, one stack
    of cases per dimension."""
    keys = _dim_keys(range(2, 9), 5)
    dims = keys[:, 0].tolist()
    drawn = [rand_hermitian(d, rng) for d, rng in zip(dims, substreams(_SEED, (12,), keys))]
    worst = 0.0
    for (hermitians,) in _stacks_by_dim(dims, drawn):
        worst = max(worst, float(spectral_axiom_defects(hermitians).max()))
    return _result(
        "spectral measure axioms", worst, 1e-9, f"{len(keys)} random Hermitians, dims 2..8"
    )


def check_joint_diagonalization() -> CheckResult:
    """Commuting families become simultaneously diagonal with distinct
    characters. Every case draws its dimension, Hermitian and coefficients
    from its own stream; per dimension, the cases' Hermitians are rescaled
    into [-1, 1] and their families built as one stack."""
    dims, hermitians, coeffs = [], [], []
    for rng in substreams(_SEED, (13,), range(20)):
        d = int(rng.integers(2, 9))
        hermitians.append(rand_hermitian(d, rng))
        coeffs.append(rng.uniform(-1, 1, size=(2, 4)))
        dims.append(d)
    worst = 0.0
    for h, c in _stacks_by_dim(dims, hermitians, coeffs):
        h = h / np.maximum(1.0, np.abs(np.linalg.eigvalsh(h)).max(axis=1))[:, None, None]
        family = [h]
        for row in c.transpose(1, 2, 0)[..., None, None]:
            # row[2] * h @ h is (row[2] * h) @ h, as Python reads it
            family.append(
                row[0] * np.eye(h.shape[-1]) + row[1] * h + row[2] * h @ h + row[3] * h @ h @ h
            )
        off, distinct = joint_diagonalization_defects(family)
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
    for p, count in zip(report.born.weights, report.empirical.counts):
        sigma = np.sqrt(p * (1 - p) / t)
        worst = max(worst, abs(count / t - p) / (4 * sigma))
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
    e0 = state_vector([1, 0])
    e1 = state_vector([0, 1])
    plus = state_vector([1 / np.sqrt(2), 1 / np.sqrt(2)])
    minus = state_vector([1 / np.sqrt(2), -1 / np.sqrt(2)])
    mix_z = 0.5 * projector_of(e0) + 0.5 * projector_of(e1)
    mix_x = 0.5 * projector_of(plus) + 0.5 * projector_of(minus)
    agree = float(np.max(np.abs(mix_z - mix_x)))
    distinct = float(np.max(np.abs(projector_of(e0) - projector_of(plus))))
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
    """A second apparatus copying the first reads the same distribution.
    Each case draws its basis and then its state."""
    d = 4
    copier = coupling_matrix(np.eye(d, dtype=complex), d)
    states, bases = draw_cases(d, 20, substreams(_SEED, (16,), range(20)), state_first=False)
    readout = pointer_readout(np.arange(d, dtype=float), d)
    worst = float(chain_reduction_gaps(states, bases, copier, readout).max())
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
