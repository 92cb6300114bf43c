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
premeasured composite puts on the commutative readout algebra after the
system is traced out, through the readout kernel of the measurement module.
With trials > 0 the report also carries sampled counts; trial t consumes the
t-th variate of a dedicated substream, so the counts depend only on (seed,
trials). They are counted without looking each trial up on its own, and
give the same counts: one pass over the draws per outcome boundary when
there are few boundaries and many draws, else one sort of the draws (see
_sample_counts for where the two cross).

No array of a run may need more than MAX_ARRAY_ELEMENTS elements: the
apparatus.dim^2 matrices of algebra_generators, a bound every document is
held to (the default readout is the pointer's diagonal; no composite state
matrix is formed for either kind of initial state, nor more than one d x d
premeasured block at a time from d = 256 on), and the trials draws. A
document over that limit fails validation before anything is built, and so
does a randomized comparison whose n_random cases of d x d blocks need more
than it between them (n_random * system_dim^2), since its time grows with
that work. The cat run is held to the same limit: its largest array is the
2^chain_length point labels of its readout algebra, held in index form, so
the chain may have up to MAX_CHAIN = 24 cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    gelfand_transform,
    generate_algebra,
    restrict_state,
)
from .errors import BadAmplitudes, NotInAlgebra, NotNormalized, ParseError, QmError, ValidationError
from .measurement import (
    CASE_BLOCK,
    collapse_diagonal,
    collapse_restriction_gaps,
    model_for_observable,
    pointer_diagonal,
    pointer_readout,
    pointer_weights,
    premeasure,
    readout_weights,
    reduce,
)
from .randomness import check_seed, draw_cases, substream, substreams
from .report import ComparisonSummary, EmpiricalCounts, Report
from .states import density_matrix, projector_of, state_vector

_TRIALS_TAG = 1
_COMPARE_TAG = 2

# where _sample_counts switches from sorting the draws to one pass per outcome
# boundary: the timed crossover of the two, listed in the README's
# "Reproducibility" section
_PASS_BOUNDARIES = 11
_PASS_TRIALS = 2**13

# largest number of elements any one array of a run may need; documents whose
# sizes imply more are rejected at parse time, before anything is allocated
MAX_ARRAY_ELEMENTS = 2**24
# longest cat chain: the 2**chain_length point labels of its readout are the
# largest array of a cat run
MAX_CHAIN = MAX_ARRAY_ELEMENTS.bit_length() - 1


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed and validated run description, its matrices and vectors
    checked read-only arrays."""

    system_dim: int
    # a state vector (1-d) or a density matrix (2-d)
    initial_state: np.ndarray
    measured_observable: np.ndarray
    apparatus_dim: int
    # the checked pointer diagonal (pointer_diagonal) of the document's
    # pointer values, or None to value the pointer at the eigenvalues
    pointer: np.ndarray | None
    algebra_generators: tuple[np.ndarray, ...] | None
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
    """Run a validator, renaming any package error to a ValidationError
    that names the violated invariant and the offending field."""
    try:
        return build()
    except QmError as err:
        raise ValidationError(f"{where}: {type(err).__name__}: {err}") from err


def _unit_norm(data: np.ndarray) -> np.ndarray:
    """A finite nonzero vector scaled to unit norm; one whose norm overflows
    scales to zero, which state_vector rejects."""
    amp = linalg.as_vector(data)
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(amp))
    if nrm == 0.0:
        raise NotNormalized("cannot normalize the zero vector")
    return amp / nrm


def _parse_initial_state(doc, system_dim: int) -> np.ndarray:
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
            data = _wrap(where, lambda: _unit_norm(data))
        return _wrap(where, lambda: state_vector(data))
    data = _complex_matrix(doc["data"], f"{where}.data")
    if data.shape != (system_dim, system_dim):
        raise ValidationError(
            f"{where}.data: shape {data.shape} does not match system_dim {system_dim}"
        )
    if normalize:
        # a trace that overflows scales the data to zero, and a NaN one makes
        # it NaN, which density_matrix rejects
        with np.errstate(over="ignore", invalid="ignore"):
            tr = float(np.trace(data).real)
            if tr <= 0:
                raise ValidationError(f"{where}.data: cannot normalize trace {tr!r}")
            data = data / tr
    return _wrap(where, lambda: density_matrix(data))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Malformed structure raises ParseError with the line or field; documents
    that parse but break an invariant raise ValidationError naming it.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"line {err.lineno}, column {err.colno}: {err.msg}") from err
    except ValueError:
        # json raises a plain ValueError for an integer literal with more
        # digits than Python converts to an int
        raise ParseError("an integer literal has too many digits") from None
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None
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
    observable = _wrap("observable", lambda: linalg.require_hermitian(obs_data))

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
    pointer = None
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
        values = [_float(v, "apparatus.pointer_values") for v in pv]
        pointer = linalg.readonly(
            _wrap("apparatus.pointer_values", lambda: pointer_diagonal(values, apparatus_dim))
        )

    generators: tuple[np.ndarray, ...] | None = None
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
            parsed.append(_wrap(where, lambda m=mat: linalg.require_hermitian(m)))
        generators = tuple(parsed)

    trials = _int_field(doc, "trials", "top level")
    if trials < 0:
        raise ValidationError(f"trials must be nonnegative, got {trials}")
    _check_budget("trials", trials)
    seed = _int_field(doc, "seed", "top level")
    # a run with no trials draws nothing, so the seed is checked here
    check_seed(seed)

    return Scenario(
        system_dim=system_dim,
        initial_state=state,
        measured_observable=observable,
        apparatus_dim=apparatus_dim,
        pointer=pointer,
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
    return EmpiricalCounts(counts=tuple(int(c) for c in counts), trials=trials)


def run_scenario(s: Scenario) -> Report:
    """Execute one scenario and cross-check the three analytic routes. An
    algebra that cannot be built fails with its error's type, the message
    naming the document field it was built from, as a parse error does."""
    # the pointer diagonal of a document's values is checked at parse time;
    # the eigenvalues that stand in for absent ones are checked here, against
    # the apparatus they fill
    try:
        pvm, basis = model_for_observable(s.measured_observable)
        w = s.pointer
        if w is None:
            w = pointer_diagonal(pvm.characters[:, 0], s.apparatus_dim)
    except QmError as err:
        raise type(err)(f"observable: {err}") from err
    state = s.initial_state
    rho = projector_of(state) if state.ndim == 1 else state

    born = restrict_state(rho, pvm)
    collapsed_diag = collapse_diagonal(rho, basis)

    if s.algebra_generators:
        try:
            algebra = generate_algebra(s.algebra_generators)
        except QmError as err:
            raise type(err)(f"algebra_generators: {err}") from err
        try:
            point_values = gelfand_transform(algebra, np.diag(w.astype(complex)))
        except NotInAlgebra as err:
            raise ValidationError(
                "algebra_generators: the generated algebra does not contain the "
                f"pointer readout ({err})"
            ) from err
        cross_terms = _branch_cross_terms(s.algebra_generators, basis.shape[0])
    else:
        # the pointer alone: its points carry their own values, its diagonal no cross terms
        algebra, point_values, cross_terms = pointer_readout(w, basis.shape[0]), None, (0.0,)

    weights, aligned = readout_weights(
        pointer_weights(state, basis), algebra, w[: basis.shape[0]], point_values
    )

    empirical = None
    if s.trials > 0:
        empirical = _sample_counts(born.weights, s.seed, s.trials)

    return _report(
        born,
        collapsed_diag,
        SpectralProbabilityMeasure(weights, algebra.characters),
        cross_terms,
        [
            float(np.max(np.abs(born.weights - collapsed_diag))),
            float(np.max(np.abs(born.weights - aligned))),
        ],
        empirical,
    )


def _report(born, collapsed, restricted, cross_terms, residuals, empirical=None) -> Report:
    """Assemble a run report; max_deviation is the largest listed residual."""
    return Report(
        born=born,
        collapsed_diag=tuple(collapsed.tolist()),
        restricted=restricted,
        empirical=empirical,
        max_deviation=max(residuals),
        cross_terms=cross_terms,
    )


def _branch_cross_terms(generators, n: int) -> tuple[float, ...]:
    """Largest |<e_j| g |e_k>|, j != k < n, per generator: the pointer
    branches are the first n standard columns, so these are the
    off-diagonal entries of the leading n x n block."""
    off = ~np.eye(n, dtype=bool)
    return tuple(float(np.max(np.abs(g[:n, :n][off]), initial=0.0)) for g in generators)


def cat_readout(chain_length: int) -> SpectralAlgebra:
    """The cat's readout algebra in index form, written down in closed form:
    the algebra that the total of the per-cell values of a chain of L =
    chain_length two-level cells generates. Column b has a down cell per set
    bit and reads L minus twice their count, down(b), once columns 1 and
    2^L - 1 trade places so that column 1, which registers outcome 1, reads
    -L (all down). Point k reads -L + 2k, so column b is on point
    L - down(b): nothing is sorted or split, and the labels and characters
    are those generate_algebra gives the diagonal matrix of those readings."""
    down = np.bitwise_count(np.arange(2**chain_length, dtype=np.uint32))
    down[[1, -1]] = down[[-1, 1]]
    return SpectralAlgebra(
        np.subtract(chain_length, down, dtype=np.intp),
        np.arange(-chain_length, chain_length + 1, 2, dtype=float)[:, None],
    )


def run_cat(c1, c2, chain_length: int) -> Report:
    """The Schrodinger cat as premeasured pointer branches: the qubit
    c1|0> + c2|1>, measured in the z basis by a chain of chain_length
    two-level cells, read through the commutative readout cat_readout by
    the kernel of a run. Outcome 0 registers on pointer column 0, all cells
    up (+L), and outcome 1 on column 1, all down (-L). So c1 carries the
    highest readout value and c2 the lowest: any "alive"/"dead" naming of
    those two is report metadata.

    The report gives the qubit's Born weights, its collapse diagonal and the
    restriction per readout point, and max_deviation the larger of the
    born-vs-collapse and born-vs-restriction residuals. Only the readout's
    2^L point labels grow with the chain.
    """
    c1, c2 = complex(c1), complex(c2)
    # products, not powers: a float power raises where a product overflows to inf
    total = abs(c1) * abs(c1) + abs(c2) * abs(c2)
    # written so that a NaN amplitude fails
    if not abs(total - 1.0) <= linalg.ROUNDOFF_TOL:
        raise BadAmplitudes(f"|c1|^2 + |c2|^2 = {total!r}")
    if not 1 <= chain_length <= MAX_CHAIN:
        raise ValidationError(f"chain_length must be between 1 and {MAX_CHAIN}")

    algebra = cat_readout(chain_length)
    # the pointer values of the two outcomes' columns, +L and -L
    pointer_values = algebra.characters[algebra.labels[:2], 0]

    qubit = np.array([c1, c2])
    z = np.eye(2, dtype=complex)
    born = (qubit * qubit.conj()).real
    collapsed = collapse_diagonal(qubit[:, None] * qubit.conj(), z)
    weights, aligned = readout_weights(reduce(premeasure(qubit, z)), algebra, pointer_values)

    # the two outcomes' Born and collapse weights, on their pointer columns' points
    on_points = np.zeros((2, algebra.n_points))
    on_points[:, algebra.labels[:2]] = born, collapsed

    return _report(
        SpectralProbabilityMeasure(on_points[0], algebra.characters),
        on_points[1],
        SpectralProbabilityMeasure(weights, algebra.characters),
        # the readout is diagonal, so it has no cross terms
        (0.0,),
        [float(np.abs(born - collapsed).max()), float(np.abs(born - aligned).max())],
    )


def compare_collapse_vs_restriction(dim: int, n_random: int, seed: int) -> ComparisonSummary:
    """Randomized agreement check at system dimension dim.

    Each case draws a state and a measured basis from its own substream
    (seed, 2, case_index), runs both routes with a minimal apparatus, and
    records the worst elementwise gap. The cases run in stacks of at most
    CASE_BLOCK elements each, so memory does not grow with n_random.
    Bit-for-bit reproducible for a given (dim, n_random, seed).
    """
    if n_random < 1:
        raise ValidationError("n_random must be positive")
    if n_random * dim**2 > MAX_ARRAY_ELEMENTS:
        raise ValidationError(
            f"n_random: {n_random} cases at dimension {dim} need {n_random * dim**2} "
            f"elements, over the limit of {MAX_ARRAY_ELEMENTS}"
        )
    per_block = max(1, CASE_BLOCK // dim**2)
    devs = np.empty(n_random)
    for start in range(0, n_random, per_block):
        cases = range(start, min(start + per_block, n_random))
        streams = substreams(seed, (_COMPARE_TAG,), cases)
        states, bases = draw_cases(dim, len(cases), streams, state_first=True)
        devs[start : cases.stop] = collapse_restriction_gaps(states, bases)
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
