"""Scenario ingestion and experiment orchestration.

A scenario file is a single JSON object with exactly these fields:

    {
      "system_dim": 2,
      "initial_state": {"kind": "vector", "data": [[0.6, 0], [0.8, 0]],
                        "normalize": false},
      "observable": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
      "apparatus": {"dim": 2, "pointer_values": [0, 1]},
      "algebra_generators": [ ... ],
      "trials": 100000,
      "seed": 7
    }

Complex scalars are [re, im] pairs, matrices are row-major nested lists of
them. initial_state.kind is "vector" or "density"; the optional normalize
flag rescales the data (unit norm for vectors, unit trace for densities)
before validation. apparatus.pointer_values and algebra_generators are
optional; generators act on the apparatus space and default to the pointer
readout alone. Unknown fields anywhere are rejected.

Running a scenario computes the outcome statistics three ways and reports
the worst disagreement: the spectral probabilities of the measured
observable, the diagonal kept by the collapse map, and the weights the
premeasured composite induces on the commutative readout algebra after the
system is traced out. With trials > 0 the report also carries sampled
counts; trial t consumes the t-th variate of a dedicated substream, so the
counts depend only on (seed, trials). They are counted without looking each
trial up on its own, and give the same counts: one pass over the draws per
outcome boundary when there are few boundaries and many draws, else one
sort of the draws (see _sample_counts for where the two cross).

No array of a run may need more than MAX_ARRAY_ELEMENTS elements: the
apparatus.dim^2 readout matrices and reduced apparatus state (apparatus.dim
>= system_dim, and no composite state matrix is formed for either kind of
initial state), and the trials draws. A document over that limit fails
validation before anything is built, and so does a randomized comparison
asking for more cases. The cat run is held to the same limit: its largest
arrays are the 2^chain_length readout values and point labels, since its
readout algebra is in index form, so the chain may have up to MAX_CHAIN = 24
cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    diagonal_algebra,
    generate_algebra,
    gelfand_transform,
    restrict_state,
)
from .errors import (
    BadAmplitudes,
    DimMismatch,
    NotInAlgebra,
    NotNormalized,
    NotOrthonormal,
    ParseError,
    QmError,
    ValidationError,
)
from .measurement import (
    apparatus_reduced_density,
    apparatus_reduced_state,
    build_apparatus,
    collapse,
    collapse_stack,
    model_for_observable,
    pointer_observable,
    premeasure,
    premeasure_stack,
)
from .observables import Observable, OutcomeDistribution, born_distribution
from .randomness import random_cases, substream
from .report import ComparisonSummary, EmpiricalCounts, Report
from .states import DensityMatrix, StateVector, projector_of

_TRIALS_TAG = 1
_COMPARE_TAG = 2

_MAX_SEED = 2**64

# where _sample_counts switches from sorting the draws to one pass per outcome
# boundary: the timed crossover of the two, listed in the README's
# "Reproducibility" section
_PASS_BOUNDARIES = 11
_PASS_TRIALS = 2**13

# most elements of one (cases, d, d) stack of compare's kernel, so at least
# _CASE_BLOCK // d^2 cases per stack: the timings behind it are in the README
_CASE_BLOCK = 2**16

# largest number of elements any one array of a run may need; documents whose
# sizes imply more are rejected at parse time, before anything is allocated
MAX_ARRAY_ELEMENTS = 2**24
# longest cat chain: its 2**chain_length readout values and point labels are
# the largest arrays of a cat run
MAX_CHAIN = MAX_ARRAY_ELEMENTS.bit_length() - 1


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed and validated run description."""

    system_dim: int
    initial_state: StateVector | DensityMatrix
    measured_observable: Observable
    apparatus_dim: int
    pointer_values: tuple[float, ...] | None
    algebra_generators: tuple[Observable, ...] | None
    trials: int
    seed: int


def _check_fields(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    for key in doc:
        if key not in required and key not in optional:
            raise ParseError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in doc:
            raise ParseError(f"{where}: missing field {key!r}")


def _int_field(doc: dict, key: str, where: str) -> int:
    val = doc[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ParseError(f"{where}.{key}: expected an integer")
    return val


def _float(x, where: str) -> float:
    try:
        return float(x)
    except OverflowError:
        raise ParseError(f"{where}: number too large for a float") from None


def _complex_entry(x, where: str) -> complex:
    if (
        not isinstance(x, list)
        or len(x) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in x)
    ):
        raise ParseError(f"{where}: complex entries are [re, im] pairs, got {x!r}")
    return complex(_float(x[0], where), _float(x[1], where))


def _pair_array(x, axes: int) -> np.ndarray | None:
    """x as a complex array with `axes` axes, converted in one numpy call, if
    it is a rectangular nonempty nested list of [re, im] number pairs; None
    for anything else, which the entry-by-entry walk then names."""
    try:
        arr = np.array(x, dtype=object)
    except ValueError:
        return None
    if arr.ndim != axes + 1 or arr.shape[-1] != 2 or 0 in arr.shape:
        return None
    # exact types: json gives bool for true/false, and bool is an int
    if not set(map(type, arr.flat)) <= {int, float}:
        return None
    try:
        return arr.astype(float).view(complex)[..., 0]
    except OverflowError:
        return None


def _complex_vector(x, where: str) -> np.ndarray:
    arr = _pair_array(x, 1)
    if arr is not None:
        return arr
    if not isinstance(x, list) or not x:
        raise ParseError(f"{where}: expected a nonempty list")
    return np.array([_complex_entry(v, f"{where}[{i}]") for i, v in enumerate(x)])


def _complex_matrix(x, where: str) -> np.ndarray:
    arr = _pair_array(x, 2)
    if arr is not None:
        return arr
    if not isinstance(x, list) or not x:
        raise ParseError(f"{where}: expected a nonempty list of rows")
    rows = [_complex_vector(row, f"{where}[{i}]") for i, row in enumerate(x)]
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise ParseError(f"{where}: rows differ in length")
    return np.array(rows)


def _check_budget(where: str, elements: int) -> None:
    if elements > MAX_ARRAY_ELEMENTS:
        raise ValidationError(
            f"{where}: needs an array of {elements} elements, over the limit of "
            f"{MAX_ARRAY_ELEMENTS}"
        )


def _wrap(where: str, build):
    """Run a constructor, renaming any package error to a ValidationError
    that names the violated invariant and the offending field."""
    try:
        return build()
    except QmError as err:
        raise ValidationError(f"{where}: {type(err).__name__}: {err}") from err


def _parse_initial_state(doc, system_dim: int) -> StateVector | DensityMatrix:
    where = "initial_state"
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    _check_fields(doc, {"kind", "data"}, {"normalize"}, where)
    kind = doc["kind"]
    if kind not in ("vector", "density"):
        raise ParseError(f"{where}.kind: expected 'vector' or 'density', got {kind!r}")
    normalize = doc.get("normalize", False)
    if not isinstance(normalize, bool):
        raise ParseError(f"{where}.normalize: expected a boolean")
    if kind == "vector":
        data = _complex_vector(doc["data"], f"{where}.data")
        if data.size != system_dim:
            raise ValidationError(
                f"{where}.data: length {data.size} does not match system_dim {system_dim}"
            )
        if normalize:
            return _wrap(where, lambda: StateVector.normalized(data))
        return _wrap(where, lambda: StateVector(data))
    data = _complex_matrix(doc["data"], f"{where}.data")
    if data.shape != (system_dim, system_dim):
        raise ValidationError(
            f"{where}.data: shape {data.shape} does not match system_dim {system_dim}"
        )
    if normalize:
        tr = float(np.trace(data).real)
        if tr <= 0:
            raise ValidationError(f"{where}.data: cannot normalize trace {tr!r}")
        data = data / tr
    return _wrap(where, lambda: DensityMatrix(data))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Malformed structure raises ParseError with the line or field; documents
    that parse but break an invariant raise ValidationError naming it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")
    _check_fields(
        doc,
        {"system_dim", "initial_state", "observable", "apparatus", "trials", "seed"},
        {"algebra_generators"},
        "top level",
    )

    system_dim = _int_field(doc, "system_dim", "top level")
    if system_dim < 1:
        raise ValidationError(f"system_dim must be positive, got {system_dim}")

    state = _parse_initial_state(doc["initial_state"], system_dim)

    obs_data = _complex_matrix(doc["observable"], "observable")
    if obs_data.shape != (system_dim, system_dim):
        raise ValidationError(
            f"observable: shape {obs_data.shape} does not match system_dim {system_dim}"
        )
    observable = _wrap("observable", lambda: Observable(obs_data))

    app = doc["apparatus"]
    if not isinstance(app, dict):
        raise ParseError("apparatus: expected an object")
    _check_fields(app, {"dim"}, {"pointer_values"}, "apparatus")
    apparatus_dim = _int_field(app, "dim", "apparatus")
    if apparatus_dim < system_dim:
        raise ValidationError(
            f"apparatus.dim: {apparatus_dim} cannot register {system_dim} outcomes"
        )
    _check_budget("apparatus.dim", apparatus_dim**2)  # apparatus.dim >= system_dim
    pointer_values: tuple[float, ...] | None = None
    if "pointer_values" in app:
        pv = app["pointer_values"]
        if (
            not isinstance(pv, list)
            or not pv
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in pv)
        ):
            raise ParseError("apparatus.pointer_values: expected a list of numbers")
        if len(pv) != system_dim:
            raise ValidationError(
                f"apparatus.pointer_values: need one value per outcome ({system_dim})"
            )
        pointer_values = tuple(_float(v, "apparatus.pointer_values") for v in pv)
        if not all(math.isfinite(v) for v in pointer_values):
            raise ValidationError("apparatus.pointer_values: values must be finite")

    generators: tuple[Observable, ...] | None = None
    if "algebra_generators" in doc:
        gen_docs = doc["algebra_generators"]
        if not isinstance(gen_docs, list) or not gen_docs:
            raise ParseError("algebra_generators: expected a nonempty list of matrices")
        parsed = []
        for i, g in enumerate(gen_docs):
            where = f"algebra_generators[{i}]"
            mat = _complex_matrix(g, where)
            if mat.shape != (apparatus_dim, apparatus_dim):
                raise ValidationError(
                    f"{where}: shape {mat.shape} does not match apparatus.dim {apparatus_dim}"
                )
            parsed.append(_wrap(where, lambda m=mat: Observable(m)))
        generators = tuple(parsed)

    trials = _int_field(doc, "trials", "top level")
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    _check_budget("trials", trials)
    seed = _int_field(doc, "seed", "top level")
    if not 0 <= seed < _MAX_SEED:
        raise ValidationError("seed must fit in 64 bits")

    return Scenario(
        system_dim=system_dim,
        initial_state=state,
        measured_observable=observable,
        apparatus_dim=apparatus_dim,
        pointer_values=pointer_values,
        algebra_generators=generators,
        trials=trials,
        seed=seed,
    )


def _sample_counts(probabilities: np.ndarray, seed: int, trials: int) -> EmpiricalCounts:
    """Inverse-CDF sampling; trial t consumes the t-th uniform of the
    (seed, 1) substream, identical to t sequential draws.

    Trial t lands on the first outcome whose cumulative weight exceeds its
    scaled variate, the last outcome taking the rest. Counts do not depend
    on the order of the trials: the count of outcome j is the number of
    variates below its upper cumulative weight less the number below its
    lower one. With n outcomes there are n - 1 such boundaries. Each pass
    over the variates costs a fixed call overhead plus a vectorized
    comparison per variate, so n - 1 passes beat one in-place sort and search
    only for few boundaries and many variates: up to _PASS_BOUNDARIES of them
    from _PASS_TRIALS variates on. Otherwise the variates are sorted in place
    and each boundary is searched. Both give the same counts, and neither
    allocates more than one byte per trial beside the variates.
    """
    rng = substream(seed, _TRIALS_TAG)
    # a running maximum leaves a weight floored just below zero an empty
    # interval, so no count can go negative; for weights >= 0 it changes nothing
    cum = np.maximum.accumulate(np.cumsum(probabilities))
    bounds = cum[:-1]
    u = rng.random(trials)
    u *= cum[-1]
    if bounds.size <= _PASS_BOUNDARIES and trials >= _PASS_TRIALS:
        below = np.fromiter(
            (np.count_nonzero(u < c) for c in bounds), dtype=np.intp, count=bounds.size
        )
    else:
        u.sort()
        below = np.searchsorted(u, bounds, side="left")
    counts = np.diff(below, prepend=0, append=trials)
    return EmpiricalCounts(
        counts=tuple(int(c) for c in counts),
        frequencies=tuple(float(c) / trials for c in counts),
        trials=trials,
    )


def _match_outcome(value: float, targets: np.ndarray) -> int | None:
    """Index of the target closest to value, if convincingly close."""
    gaps = np.abs(targets - value)
    j = int(np.argmin(gaps))
    scale = max(1.0, float(np.max(np.abs(targets))))
    if gaps[j] <= linalg.POINTER_MATCH_RTOL * scale:
        return j
    return None


def run_scenario(s: Scenario) -> Report:
    """Execute one scenario and cross-check the three analytic routes."""
    model = model_for_observable(
        s.measured_observable,
        dim_apparatus=s.apparatus_dim,
        pointer_values=s.pointer_values,
    )
    pure = isinstance(s.initial_state, StateVector)
    rho = projector_of(s.initial_state) if pure else s.initial_state

    born = born_distribution(rho, model.measured_pvm)
    collapsed = collapse(rho, model)
    basis = model.measured_basis
    collapsed_diag = np.real(np.diag(basis.conj().T @ collapsed.matrix @ basis))

    pointer = pointer_observable(model.apparatus)
    generators = s.algebra_generators if s.algebra_generators else (pointer,)
    algebra = generate_algebra(generators)
    try:
        pointer_chars = gelfand_transform(algebra, pointer)
    except NotInAlgebra as err:
        raise ValidationError(
            "algebra_generators: the generated algebra does not contain the "
            f"pointer readout ({err})"
        ) from err

    if pure:
        composite = premeasure(s.initial_state, model)
        rho_app = apparatus_reduced_state(composite, model.dims)
    else:
        rho_app = apparatus_reduced_density(rho, model)
    restricted = restrict_state(rho_app, algebra)

    # fold restriction weights back onto measured outcomes via the pointer
    # value each spectrum point carries; idle points must carry no weight
    n = born.outcomes.size
    aligned = np.zeros(n)
    values = model.apparatus.pointer_values
    for k, char in enumerate(pointer_chars):
        j = _match_outcome(float(char), values)
        if j is not None:
            aligned[j] += restricted.weights[k]
        elif restricted.weights[k] > linalg.ROUNDOFF_TOL:
            raise ValidationError(
                f"restriction puts weight {restricted.weights[k]:.3e} outside the pointer range"
            )

    empirical = None
    if s.trials > 0:
        empirical = _sample_counts(born.probabilities, s.seed, s.trials)

    return _report(
        born,
        collapsed_diag,
        restricted,
        algebra,
        _branch_cross_terms(generators, n),
        [
            float(np.max(np.abs(born.probabilities - collapsed_diag))),
            float(np.max(np.abs(born.probabilities - aligned))),
        ],
        empirical,
    )


def _report(
    born, collapsed, restricted, algebra, cross_terms, residuals, empirical=None
) -> Report:
    """Assemble a run report; max_deviation is the largest listed residual."""
    return Report(
        born=born,
        collapsed_diag=tuple(float(x) for x in collapsed),
        restricted=restricted,
        restricted_characters=tuple(
            tuple(float(x) for x in row) for row in algebra.characters
        ),
        empirical=empirical,
        max_deviation=max(residuals),
        cross_terms=cross_terms,
    )


def _branch_cross_terms(generators, n: int) -> tuple[float, ...]:
    """Largest |<e_j| g |e_k>|, j != k < n, per generator: the pointer
    branches are the first n standard columns, so these are the
    off-diagonal entries of the leading n x n block."""
    off = ~np.eye(n, dtype=bool)
    return tuple(
        float(np.max(np.abs(g.matrix[:n, :n][off]), initial=0.0)) for g in generators
    )


def run_cat(c1, c2, chain_length: int) -> Report:
    """Superpose two macroscopically distinct branches and read them through
    a commutative readout.

    The space is a chain of chain_length two-level cells; branch 1 is all
    cells up (total readout +L), branch 2 all cells down (-L), and the
    readout algebra is generated by the total of the per-cell values. c1
    carries branch 1 (the highest readout value), c2 branch 2 (the lowest):
    any "alive"/"dead" naming of those two is report metadata, the logic
    only keys on outcome values.

    The readout is diagonal in the product basis, so everything is read off
    the amplitude vector and the readout diagonal, O(2^L), with no
    2^L x 2^L matrix. The spectral projectors, the collapse basis and the
    restriction all act on coordinates, so the Born, collapsed and restricted
    weight of a readout value is the same sum of |a_i|^2 over its
    coordinates. The report's max_deviation is the residual of the branch
    expectation decomposition <Psi|g|Psi> = |c1|^2 <Psi1|g|Psi1> +
    |c2|^2 <Psi2|g|Psi2> for the readout g.
    """
    c1, c2 = complex(c1), complex(c2)
    total = abs(c1) ** 2 + abs(c2) ** 2
    if abs(total - 1.0) > linalg.ROUNDOFF_TOL:
        raise BadAmplitudes(f"|c1|^2 + |c2|^2 = {total!r}")
    if not 1 <= chain_length <= MAX_CHAIN:
        raise ValidationError(f"chain_length must be between 1 and {MAX_CHAIN}")

    dim = 2**chain_length
    # basis label b has a down cell per set bit: readout L - 2 popcount(b)
    readout = np.bitwise_count(np.arange(dim, dtype=np.uint32)).astype(float)
    readout *= -2.0
    readout += chain_length
    # the state's nonzero amplitudes: c1 on all-up (+L), c2 on all-down (-L)
    branches = np.array([0, dim - 1])
    amps = np.array([c1, c2])
    algebra = diagonal_algebra([readout])

    weights = np.zeros(dim)
    weights[branches] = np.real(amps * amps.conj())
    per_point = algebra.point_sums(weights)
    born = OutcomeDistribution(algebra.characters[:, 0], per_point)

    # <Psi|g|Psi> = sum_i |a_i|^2 r_i, over the nonzero amplitudes
    mixed = float(np.sum(weights[branches] * readout[branches]))
    split = abs(c1) ** 2 * readout[branches[0]] + abs(c2) ** 2 * readout[branches[1]]

    # <e_i| diag(r) |e_j> is r_i when i == j and 0 otherwise
    elements = np.where(branches[:, None] == branches, readout[branches][:, None], 0.0)
    cross = float(np.max(np.abs(elements[~np.eye(branches.size, dtype=bool)])))

    return _report(
        born,
        per_point,
        SpectralProbabilityMeasure(per_point),
        algebra,
        (cross,),
        [abs(mixed - float(split))],
    )


def pointer_readout(dim: int) -> SpectralAlgebra:
    """The readout algebra of a minimal apparatus registering dim outcomes:
    the diagonal algebra of its pointer values 0..dim-1, held in index form,
    whose point j is pointer column j."""
    return diagonal_algebra([build_apparatus(dim).pointer_values])


def collapse_restriction_gaps(
    states: np.ndarray, bases: np.ndarray, readout: SpectralAlgebra
) -> np.ndarray:
    """The collapse vs restriction equivalence on a stack of cases: per case,
    the largest gap between the collapse diagonal of states[i] in the
    measured basis bases[i] and the weights its premeasured apparatus state
    puts on readout, the pointer_readout of a minimal apparatus.

    Every step is one stacked product, and the checks the objects of one
    case would make run once on the stack, each written so that a NaN fails
    it: the state norms, the bases' orthonormality, the composite norms and
    the weights' floor and sum. The bases are copied column-major, the
    layout of a model's measured basis, so each case's gap has the bits that
    case alone gets through the objects of a run.
    """
    n, d = states.shape
    if bases.shape != (n, d, d):
        raise DimMismatch(f"{n} states of dim {d}, bases of shape {bases.shape}")
    norm_gap = float(np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)))
    if not norm_gap <= linalg.ROUNDOFF_TOL:
        raise NotNormalized(f"a state's norm is off by {norm_gap:.3e}")
    defect = linalg.isometry_defect(bases)
    if not defect <= linalg.ROUNDOFF_TOL:
        raise NotOrthonormal(f"block columns are not orthonormal (defect {defect:.3e})")
    b = np.ascontiguousarray(bases.swapaxes(-1, -2)).swapaxes(-1, -2)

    # premeasure and reduce: the composite's d x d coefficient matrices M, and
    # the reduced apparatus states M^T conj(M), restricted to the readout
    m = premeasure_stack(states, b)
    norm_gap = float(np.max(np.abs(np.linalg.norm(m.reshape(n, -1), axis=-1) - 1.0)))
    if not norm_gap <= linalg.ROUNDOFF_TOL:
        raise NotNormalized(f"a premeasured composite's norm is off by {norm_gap:.3e}")
    weights = readout.block_traces(m.swapaxes(-1, -2) @ m.conj())
    low = float(weights.min())
    if not low >= -linalg.WEIGHT_FLOOR:
        raise ValidationError(f"weights: entry {low:.3e} below the roundoff floor")
    sum_gap = float(np.max(np.abs(weights.sum(axis=-1) - 1.0)))
    if not sum_gap <= linalg.ROUNDOFF_TOL:
        raise ValidationError(f"weights: a sum is off from 1 by {sum_gap:.3e}")

    # collapse the projectors |psi><psi| and read the diagonal back
    projectors = states[:, :, None] * states.conj()[:, None, :]
    collapsed = collapse_stack(projectors, b)
    diag = np.real(np.diagonal(b.conj().swapaxes(-1, -2) @ collapsed @ b, axis1=-2, axis2=-1))
    return np.max(np.abs(weights - diag), axis=-1)


def compare_collapse_vs_restriction(dim: int, n_random: int, seed: int) -> ComparisonSummary:
    """Randomized agreement check at system dimension dim.

    Each case draws a state and a measured basis from its own substream
    (seed, 2, case_index), runs both routes with a minimal apparatus, and
    records the worst elementwise gap. The cases run in stacks of at most
    _CASE_BLOCK elements each, so memory does not grow with n_random.
    Bit-for-bit reproducible for a given (dim, n_random, seed).
    """
    if n_random < 1:
        raise ValidationError("n_random must be positive")
    _check_budget("n_random", n_random)
    readout = pointer_readout(dim)
    per_block = max(1, _CASE_BLOCK // dim**2)
    devs = np.empty(n_random)
    for start in range(0, n_random, per_block):
        cases = range(start, min(start + per_block, n_random))
        states, bases = random_cases(dim, seed, (_COMPARE_TAG,), cases)
        devs[start : cases.stop] = collapse_restriction_gaps(states, bases, readout)
    worst_index = int(np.argmax(devs))
    return ComparisonSummary(
        dim=dim,
        n_random=n_random,
        seed=seed,
        worst=float(devs[worst_index]),
        mean=float(devs.mean()),
        worst_index=worst_index,
        worst_case_key=(seed, _COMPARE_TAG, worst_index),
    )
