import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors, linalg, scenario
from qmeasure.algebra import generate_algebra
from qmeasure.measurement import (
    CASE_BLOCK,
    collapse_restriction_gaps,
    match_outcomes,
    model_for_observable,
    pointer_diagonal,
)
from qmeasure.randomness import draw_cases, rand_hermitian, rand_state, substream, substreams
from qmeasure.report import (
    ComparisonSummary,
    dumps,
    emit_report,
    report_payload,
    sig12,
)
from qmeasure.scenario import (
    MAX_ARRAY_ELEMENTS,
    Scenario,
    _sample_counts,
    cat_readout,
    compare_collapse_vs_restriction,
    parse_scenario,
    run_cat,
    run_scenario,
)
from qmeasure.states import density_matrix, state_vector

from conftest import assert_close, nan_state, peak_bytes, stretch_a_basis, stretch_a_state
from oracles import (
    collapse_restriction_gap,
    load_scenario,
    rand_density,
    rand_unitary,
    sample_outcome,
)

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def doc_qubit(**overrides) -> str:
    doc = {
        "system_dim": 2,
        "initial_state": {"kind": "vector", "data": [[0.6, 0], [0.8, 0]]},
        "observable": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        "apparatus": {"dim": 2},
        "trials": 0,
        "seed": 11,
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_scenario():
    s = parse_scenario(doc_qubit())
    assert s.system_dim == 2
    assert s.initial_state.ndim == 1
    assert s.apparatus_dim == 2
    assert s.pointer is None
    assert s.algebra_generators is None
    assert s.trials == 0 and s.seed == 11


def test_parse_holds_pointer_values_as_the_checked_pointer_diagonal():
    s = parse_scenario(doc_qubit(apparatus={"dim": 3, "pointer_values": [4, 6]}))
    assert np.array_equal(s.pointer, [4.0, 6.0, 3.0])
    assert not s.pointer.flags.writeable


def test_parse_rejects_unknown_field():
    with pytest.raises(errors.ParseError, match="unknown field"):
        parse_scenario(doc_qubit(extra=1))


def test_parse_rejects_missing_field():
    doc = json.loads(doc_qubit())
    del doc["seed"]
    with pytest.raises(errors.ParseError, match="missing field 'seed'"):
        parse_scenario(json.dumps(doc))


def test_parse_rejects_malformed_json_with_location():
    with pytest.raises(errors.ParseError, match=r"line \d+, column \d+"):
        parse_scenario("{ not json")


def test_parse_rejects_bad_complex_entry():
    with pytest.raises(errors.ParseError, match=r"\[re, im\]"):
        parse_scenario(
            doc_qubit(initial_state={"kind": "vector", "data": [[0.6], [0.8, 0]]})
        )


_PAIR_MESSAGE = "complex entries are [re, im] pairs, got "

# (a bad list of [re, im] entries, the index path below it that the error
# names, the message); it stands as the whole vector, or as row 1 of a matrix
_BAD_ENTRIES = {
    "bool": ([[0.6, 0], [True, 0]], "[1]", _PAIR_MESSAGE + "[True, 0]"),
    "string": ([[0.6, 0], ["0.8", 0]], "[1]", _PAIR_MESSAGE + "['0.8', 0]"),
    "none": ([[0.6, 0], None], "[1]", _PAIR_MESSAGE + "None"),
    "re only": ([[0.6, 0], [0.8]], "[1]", _PAIR_MESSAGE + "[0.8]"),
    "re im extra": ([[0.6, 0], [0.8, 0, 0]], "[1]", _PAIR_MESSAGE + "[0.8, 0, 0]"),
    "ragged row": ([[0.6, 0], [[0.8, 0], [0]]], "[1]", _PAIR_MESSAGE + "[[0.8, 0], [0]]"),
    "empty row": ([], "", "expected a nonempty list"),
    "four deep": ([[[0.6, 0]], [[0.8, 0]]], "[0]", _PAIR_MESSAGE + "[[0.6, 0]]"),
}


@pytest.mark.parametrize("position", ["vector", "matrix"])
@pytest.mark.parametrize("case", list(_BAD_ENTRIES))
def test_parse_names_the_bad_entry(case, position):
    entries, path, message = _BAD_ENTRIES[case]
    if position == "vector":
        doc = doc_qubit(initial_state={"kind": "vector", "data": entries})
        where = "initial_state.data"
    else:
        doc = doc_qubit(observable=[[[0, 0], [0, 0]], entries])
        where = "observable[1]"
    with pytest.raises(errors.ParseError) as err:
        parse_scenario(doc)
    assert str(err.value) == f"{where}{path}: {message}"


def test_parse_rejects_rows_of_different_lengths():
    with pytest.raises(errors.ParseError, match=r"^observable: rows differ in length$"):
        parse_scenario(doc_qubit(observable=[[[0, 0], [0, 0]], [[1, 0]]]))


def test_parse_keeps_every_bit_of_the_pairs():
    data = [[-0.0, 0.6], [0.8, -0.0]]
    s = parse_scenario(doc_qubit(initial_state={"kind": "vector", "data": data}))
    want = np.array([complex(-0.0, 0.6), complex(0.8, -0.0)])
    assert s.initial_state.tobytes() == want.tobytes()


def test_parse_rejects_bool_dims():
    with pytest.raises(errors.ParseError, match="expected an integer"):
        parse_scenario(doc_qubit(system_dim=True))


def test_parse_validation_names_the_invariant():
    bad = doc_qubit(observable=[[[0, 0], [1, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(errors.ValidationError, match="NotHermitian"):
        parse_scenario(bad)


def test_parse_rejects_unnormalized_vector():
    with pytest.raises(errors.ValidationError, match="NotNormalized"):
        parse_scenario(doc_qubit(initial_state={"kind": "vector", "data": [[1, 0], [1, 0]]}))


def test_parse_normalize_flag_rescales():
    s = parse_scenario(
        doc_qubit(initial_state={"kind": "vector", "data": [[3, 0], [4, 0]], "normalize": True})
    )
    assert_close(s.initial_state, [0.6, 0.8])


@pytest.mark.parametrize(
    "kind, data, message",
    [
        ("vector", [[0, 0], [0, 0]], "initial_state: NotNormalized: cannot normalize the zero vector"),
        ("density", [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "initial_state.data: cannot normalize trace 0.0"),
    ],
)
def test_parse_normalize_flag_rejects_data_it_cannot_scale(kind, data, message):
    doc = doc_qubit(initial_state={"kind": kind, "data": data, "normalize": True})
    with pytest.raises(errors.ValidationError) as err:
        parse_scenario(doc)
    assert str(err.value) == message


def test_parse_density_state():
    s = parse_scenario(
        doc_qubit(
            initial_state={
                "kind": "density",
                "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            }
        )
    )
    assert s.initial_state.ndim == 2
    assert_close(s.initial_state, np.eye(2) / 2)


def test_parse_rejects_small_apparatus():
    with pytest.raises(errors.ValidationError, match="apparatus.dim"):
        parse_scenario(doc_qubit(apparatus={"dim": 1}))


def test_parse_rejects_negative_trials_and_bad_seed():
    with pytest.raises(errors.ValidationError, match="trials"):
        parse_scenario(doc_qubit(trials=-1))
    with pytest.raises(errors.ValidationError, match="seed"):
        parse_scenario(doc_qubit(seed=-3))
    with pytest.raises(errors.ValidationError, match="seed"):
        parse_scenario(doc_qubit(seed=2**64))


def test_parse_enforces_array_budget_at_its_boundary():
    assert MAX_ARRAY_ELEMENTS == 2**24
    # pointer matrices: apparatus.dim^2
    assert parse_scenario(doc_qubit(apparatus={"dim": 4096})).apparatus_dim == 4096
    with pytest.raises(errors.ValidationError, match="apparatus.dim"):
        parse_scenario(doc_qubit(apparatus={"dim": 4097}))
    # a density initial state forms no composite matrix: the same dim^2 budget
    density = {"kind": "density", "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
    assert parse_scenario(doc_qubit(initial_state=density, apparatus={"dim": 4096}))
    with pytest.raises(errors.ValidationError, match="apparatus.dim"):
        parse_scenario(doc_qubit(initial_state=density, apparatus={"dim": 4097}))
    assert parse_scenario(doc_qubit(trials=2**24)).trials == 2**24
    with pytest.raises(errors.ValidationError, match="trials"):
        parse_scenario(doc_qubit(trials=2**24 + 1))


def test_run_scenario_eigenstate_is_sharp():
    s = parse_scenario(
        doc_qubit(initial_state={"kind": "vector", "data": [[1, 0], [0, 0]]})
    )
    r = run_scenario(s)
    assert_close(r.born.weights, [1.0, 0.0])
    assert_close(r.collapsed_diag, [1.0, 0.0])
    assert r.max_deviation < 1e-12


def test_run_scenario_superposition_agrees_three_ways():
    r = run_scenario(parse_scenario(doc_qubit()))
    assert_close(r.born.weights, [0.36, 0.64])
    assert_close(r.collapsed_diag, [0.36, 0.64], atol=1e-12)
    assert_close(r.restricted.weights, [0.36, 0.64], atol=1e-12)
    assert r.max_deviation < 1e-12
    assert r.empirical is None


def test_run_scenario_mixed_state_route():
    s = parse_scenario(
        doc_qubit(
            initial_state={
                "kind": "density",
                "data": [[[0.3, 0], [0.1, 0.05]], [[0.1, -0.05], [0.7, 0]]],
            }
        )
    )
    r = run_scenario(s)
    assert_close(r.born.weights, [0.3, 0.7], atol=1e-12)
    assert r.max_deviation < 1e-10


def test_run_scenario_oversized_apparatus_idle_weight_zero():
    s = parse_scenario(doc_qubit(apparatus={"dim": 4}))
    r = run_scenario(s)
    assert len(r.restricted.weights) == 3  # idle point joins the two live ones
    assert_close(sorted(r.restricted.weights), [0.0, 0.36, 0.64], atol=1e-12)
    assert r.max_deviation < 1e-12


def test_run_scenario_trials_attach_counts():
    s = parse_scenario(doc_qubit(trials=5000))
    r = run_scenario(s)
    assert r.empirical is not None
    assert sum(r.empirical.counts) == 5000
    freq = r.empirical.counts[1] / r.empirical.trials
    assert abs(freq - 0.64) < 4 * np.sqrt(0.64 * 0.36 / 5000)


def test_run_scenario_sampling_is_reproducible():
    s = parse_scenario(doc_qubit(trials=2000))
    a = run_scenario(s).empirical.counts
    b = run_scenario(s).empirical.counts
    assert a == b


def test_sample_counts_match_sequential_draws():
    # the vectorized path must consume the stream exactly like t sequential
    # single-outcome draws from the same substream
    s = parse_scenario(doc_qubit(trials=200))
    r = run_scenario(s)
    pvm, basis = model_for_observable(np.diag([0.0, 1.0]))
    rng = substream(s.seed, 1)
    psi = state_vector(np.array([0.6, 0.8]))
    seq = [sample_outcome(psi, basis, pvm.characters[:, 0], rng)[0] for _ in range(200)]
    counts = [seq.count(0.0), seq.count(1.0)]
    assert list(r.empirical.counts) == counts


def _per_trial_counts(p, seed, trials):
    # one search per trial into the cumulative weights, then a tally
    cum = np.cumsum(p)
    u = substream(seed, 1).random(trials) * cum[-1]
    idx = np.minimum(np.searchsorted(cum, u, side="right"), p.size - 1)
    return tuple(int(c) for c in np.bincount(idx, minlength=p.size))


@given(
    n=st.integers(1, 64),
    trials=st.integers(1, 5000),
    seed=st.integers(0, 2**64 - 1),
    ties=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_sample_counts_match_the_per_trial_search(n, trials, seed, ties, data):
    if ties:
        # cumulative weights placed exactly on drawn variates: the variates
        # and their differences are multiples of 2^-53, so the weights sum
        # back to those cuts and to 1 exactly, and a tie goes to the upper outcome
        u = substream(seed, 1).random(trials)
        picks = data.draw(st.lists(st.integers(0, trials - 1), min_size=n - 1, max_size=n - 1))
        p = np.diff(np.sort(u[picks]), prepend=0.0, append=1.0)
    else:
        weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
        p = np.array(data.draw(st.lists(weight, min_size=n, max_size=n)))
    assert _sample_counts(p, seed, trials).counts == _per_trial_counts(p, seed, trials)


def test_sample_counts_give_a_weight_just_below_zero_no_trials():
    # outcome 1 carries -1e-13 and a drawn variate sits inside the dip of
    # the cumulative weights it leaves
    seed, trials, delta = 5, 1000, 5e-14
    a = substream(seed, 1).random(trials)[0]
    p = np.array([a + delta, -2 * delta, 1.0 - a + delta])
    counts = _sample_counts(p, seed, trials).counts
    assert min(counts) >= 0 and sum(counts) == trials
    assert counts[1] == 0


@pytest.mark.parametrize(
    "trials, n",
    [(1, 2), (999, 3), (8192, 2)],
    ids=["one trial", "sorted variates", "one pass per boundary"],
)
def test_sample_counts_are_one_int_per_outcome_that_sum_to_trials(trials, n):
    # EmpiricalCounts checks nothing, so the sampler makes its record whole:
    # a Python int per outcome, none negative, adding up to the trial count
    p = substream(227).random(n)
    record = _sample_counts(p / p.sum(), 7, trials)
    assert record.trials == trials
    assert len(record.counts) == n
    assert all(type(c) is int and c >= 0 for c in record.counts)
    assert sum(record.counts) == trials


@pytest.mark.parametrize(
    "trials, boundaries, sorts",
    [
        (8192, 11, False),
        (8192, 12, True),
        (8191, 11, True),
        (100_000, 11, False),
        (100_000, 12, True),
        (100, 1, True),
    ],
)
def test_sample_counts_sort_past_eleven_boundaries_or_under_8192_trials(
    monkeypatch, trials, boundaries, sorts
):
    # n - 1 outcome boundaries: one pass over the draws each for at most 11
    # of them and at least 8192 draws, a sort and a search otherwise
    n = boundaries + 1
    p = substream(trials, n).uniform(0.0, 1.0, n)
    p[::3] = 0.0
    p /= p.sum()
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(1) or search(*a, **k))
    counts = _sample_counts(p, 9, trials).counts
    assert len(searches) == sorts
    assert counts == _per_trial_counts(p, 9, trials)


def test_sample_counts_peak_under_one_and_a_half_times_the_draws():
    # three outcomes count by passes over the draws, 64 by sorting them in
    # place; either way the draws themselves are 8 bytes per trial
    trials = 2**20
    for p in (np.array([0.25, 0.25, 0.5]), np.full(64, 1 / 64)):
        _sample_counts(p, 3, 1000)  # warm-up
        _, peak = peak_bytes(_sample_counts, p, 3, trials)
        assert peak < 1.5 * 8 * trials


def test_mixed_run_calls_the_eigensolver_only_on_multi_column_points(monkeypatch):
    # the measured observable's one block, the idle block the splitter
    # splits and the density's factor; the twelve one-column pointer points
    # need no eigensolver
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    run_scenario(load_scenario(_SCENARIOS / "mixed_splitter.json"))
    assert len(calls) == 3


@pytest.mark.parametrize("idle", [0, 4])
def test_full_rank_density_run_peaks_at_a_few_apparatus_matrices(idle):
    # the run holds about ten dim x dim complex matrices (the observable,
    # the density, their eigenvectors, the collapse, the readout): 10.1 and
    # 11.3 of them at numpy 2.4. Its 256 factor rows are premeasured one
    # 256 x 256 block, 1 MiB, at a time, where all of them at once would be
    # 256 MiB. With idle columns a splitter on them makes the readout dense
    d = 256
    dim = d + idle
    rng = substream(163, idle)
    observable = linalg.require_hermitian(rand_hermitian(d, rng))
    generators = ()
    if idle:
        pvm, _ = model_for_observable(observable)
        splitter = np.zeros((dim, dim), dtype=complex)
        splitter[d:, d:] = 1.0
        pointer = linalg.require_hermitian(np.diag(pointer_diagonal(pvm.characters[:, 0], dim)))
        generators = (pointer, linalg.require_hermitian(splitter))
    s = Scenario(
        system_dim=d,
        initial_state=density_matrix(rand_density(d, rng)),
        measured_observable=observable,
        apparatus_dim=dim,
        pointer=None,
        algebra_generators=generators,
        trials=0,
        seed=1,
    )
    report, peak = peak_bytes(run_scenario, s)
    assert report.max_deviation < 1e-12
    assert peak < 16 * 16 * dim**2


def _run(observable, state, apparatus_dim, pointer_values=None):
    pointer = None
    if pointer_values is not None:
        pointer = linalg.readonly(pointer_diagonal(pointer_values, apparatus_dim))
    return run_scenario(
        Scenario(
            system_dim=observable.shape[0],
            initial_state=state,
            measured_observable=linalg.require_hermitian(observable),
            apparatus_dim=apparatus_dim,
            pointer=pointer,
            algebra_generators=None,
            trials=0,
            seed=1,
        )
    )


def _assert_same_statistics(before, after):
    # both runs agree across their routes, and with each other
    tol = linalg.DEVIATION_TOL
    for r in (before, after):
        assert r.max_deviation <= tol
    assert_close(after.born.weights, before.born.weights, atol=tol, rtol=0)
    assert_close(after.collapsed_diag, before.collapsed_diag, atol=tol, rtol=0)
    assert_close(after.restricted.weights, before.restricted.weights, atol=tol, rtol=0)


@given(
    seed=st.integers(0, 2**16),
    scale=st.floats(0.125, 8.0),
    shift=st.floats(-8.0, 8.0),
    idle=st.integers(0, 2),
    density=st.booleans(),
    ulps=st.sampled_from([0, 1, -1]),
)
@settings(max_examples=30, deadline=None)
def test_run_statistics_do_not_change_under_an_affine_observable(
    seed, scale, shift, idle, density, ulps
):
    # A -> scale * A + shift keeps each eigenvector and moves its outcome to
    # scale * lambda + shift, the order of the outcomes included; with ulps,
    # A is Hermitian only to one ulp of one lower entry
    rng = substream(seed, 173)
    d = int(rng.integers(2, 6))
    a = rand_hermitian(d, rng)
    if ulps:
        a[1, 0] = np.nextafter(a[1, 0].real, ulps * np.inf) + 1j * a[1, 0].imag
    assert np.array_equal(a, a.conj().T) == (ulps == 0)
    state = density_matrix(rand_density(d, rng)) if density else state_vector(rand_state(d, rng))
    before = _run(a, state, d + idle)
    after = _run(scale * a + shift * np.eye(d), state, d + idle)
    _assert_same_statistics(before, after)
    outcomes = scale * before.born.characters[:, 0] + shift
    assert_close(after.born.characters[:, 0], outcomes, atol=1e-9 * max(1.0, *np.abs(outcomes)))


@given(seed=st.integers(0, 2**16), phase=st.floats(0.0, 2 * math.pi), idle=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_run_statistics_do_not_change_under_a_global_phase(seed, phase, idle):
    rng = substream(seed, 179)
    d = int(rng.integers(2, 6))
    a = rand_hermitian(d, rng)
    psi = rand_state(d, rng)
    before = _run(a, state_vector(psi), d + idle)
    after = _run(a, state_vector(np.exp(1j * phase) * psi), d + idle)
    _assert_same_statistics(before, after)


@given(seed=st.integers(0, 2**16), idle=st.integers(0, 2), density=st.booleans())
@settings(max_examples=30, deadline=None)
def test_run_statistics_do_not_change_under_a_joint_change_of_basis(seed, idle, density):
    # conjugating the state and the observable by one Haar unitary U moves
    # each eigenvector with the state, so no overlap and no outcome changes
    rng = substream(seed, 181)
    d = int(rng.integers(2, 6))
    a = rand_hermitian(d, rng)
    u = rand_unitary(d, rng)
    if density:
        rho = rand_density(d, rng)
        state, turned = density_matrix(rho), density_matrix(u @ rho @ u.conj().T)
    else:
        psi = rand_state(d, rng)
        state, turned = state_vector(psi), state_vector(u @ psi)
    before = _run(a, state, d + idle)
    after = _run(u @ a @ u.conj().T, turned, d + idle)
    _assert_same_statistics(before, after)


@given(seed=st.integers(0, 2**16), idle=st.integers(0, 2), density=st.booleans())
@settings(max_examples=30, deadline=None)
def test_run_statistics_do_not_change_when_the_pointer_values_are_permuted(seed, idle, density):
    # outcome j's pointer column reads values[j], then values[perm[j]]: the
    # Born, collapse and aligned weights stay, and each outcome's restricted
    # weight moves with its value to that value's readout point
    rng = substream(seed, 191)
    d = int(rng.integers(2, 6))
    a = rand_hermitian(d, rng)
    state = density_matrix(rand_density(d, rng)) if density else state_vector(rand_state(d, rng))
    values = rng.choice(np.arange(-8.0, 9.0), size=d, replace=False)
    perm = rng.permutation(d)
    before = _run(a, state, d + idle, values)
    after = _run(a, state, d + idle, values[perm])
    tol = linalg.DEVIATION_TOL
    for r in (before, after):
        assert r.max_deviation <= tol
    assert_close(after.born.weights, before.born.weights, atol=tol, rtol=0)
    assert_close(after.collapsed_diag, before.collapsed_diag, atol=tol, rtol=0)
    assert np.array_equal(after.restricted.characters, before.restricted.characters)

    def on_outcomes(report, pointer_values):
        points = np.searchsorted(report.restricted.characters[:, 0], pointer_values)
        return report.restricted.weights[points]

    assert_close(on_outcomes(after, values[perm]), on_outcomes(before, values), atol=tol, rtol=0)


def test_vector_run_forms_no_apparatus_matrix():
    # the default readout is the pointer's diagonal: the dense 2048 x 2048
    # pointer observable and its Gelfand transform peaked at 321 MiB here
    s = parse_scenario(doc_qubit(apparatus={"dim": 2048}))
    run_scenario(s)  # warm-up
    report, peak = peak_bytes(run_scenario, s)
    assert report.max_deviation < 1e-12
    assert peak < 2**20


def test_match_outcomes_in_runs_gives_the_broadcast_rule():
    # 4096 values against 64 targets take four runs of 1024; the one
    # broadcast over all of them would match each value the same way
    rng = substream(167)
    targets = rng.permutation(64).astype(float)
    values = np.concatenate([targets, rng.uniform(-1, 64, 4096 - 64)])
    values[::7] += 1e-7
    gaps = np.abs(values[:, None] - targets)
    tol = linalg.POINTER_MATCH_RTOL * 63
    want = np.where(gaps.min(axis=1) <= tol, gaps.argmin(axis=1), -1)
    got = match_outcomes(values, targets)
    assert np.array_equal(got, want)
    assert (got >= 0).sum() >= 64
    # 4096 values against 4096 targets: runs of 16, where one broadcast
    # would hold 2^24 gaps, 128 MiB
    points = np.arange(4096.0)
    got, peak = peak_bytes(match_outcomes, points, points)
    assert np.array_equal(got, np.arange(4096))
    assert peak < 2**22


def test_run_scenario_custom_generators_must_contain_pointer():
    # a generator family that cannot express the pointer readout is rejected
    bad = doc_qubit(
        algebra_generators=[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]  # identity only
    )
    with pytest.raises(errors.ValidationError, match="pointer"):
        run_scenario(parse_scenario(bad))


def test_run_scenario_explicit_pointer_generator_ok():
    good = doc_qubit(
        algebra_generators=[[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
    )
    r = run_scenario(parse_scenario(good))
    assert r.max_deviation < 1e-12


def test_load_scenario_from_file(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(doc_qubit())
    s = load_scenario(p)
    assert s.system_dim == 2


def test_run_cat_chain_weights():
    r = run_cat(0.6, 0.8j, chain_length=8)
    # highest readout (+8) carries |c1|^2, lowest (-8) carries |c2|^2
    assert_close(r.restricted.weights[-1], 0.36, atol=1e-12)
    assert_close(r.restricted.weights[0], 0.64, atol=1e-12)
    assert r.max_deviation < 1e-12
    assert max(r.cross_terms) < 1e-12
    assert r.empirical is None


def test_run_cat_chain_characters_are_readout_totals():
    r = run_cat(0.6, 0.8, chain_length=3)
    assert r.restricted.characters[:, 0].tolist() == [-3.0, -1.0, 1.0, 3.0]


def test_run_cat_rejects_bad_amplitudes(monkeypatch):
    # before any readout is built
    def build(chain_length):
        raise AssertionError(f"readout of chain {chain_length} built")

    monkeypatch.setattr(scenario, "cat_readout", build)
    with pytest.raises(errors.BadAmplitudes):
        run_cat(0.6, 0.9, chain_length=8)
    for chain_length in (0, 25):
        with pytest.raises(errors.ValidationError):
            run_cat(0.6, 0.8, chain_length=chain_length)


def test_cat_readout_is_the_algebra_its_readout_generates():
    # the readout the split loop clusters: L - 2 popcount(b), with the
    # columns of all down and of the last cell up swapped
    for chain_length in range(1, 13):
        readout = np.bitwise_count(np.arange(2**chain_length)) * -2.0 + chain_length
        readout[[1, -1]] = readout[[-1, 1]]
        split = generate_algebra([np.diag(readout)])
        closed = cat_readout(chain_length)
        assert np.array_equal(closed.labels, split.labels)
        assert np.array_equal(closed.characters, split.characters)


def test_cat_readout_is_read_only():
    readout = cat_readout(7)
    for array in (readout.labels, readout.characters, readout.multiplicities()):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        readout.labels[0] = 0


def test_cat_allocates_no_dense_matrix():
    # one dense 1024^2 complex matrix is 16 MiB; the chain of 10 needs
    # only arrays of 2^10 entries
    run_cat(0.6, 0.8j, chain_length=10)  # warm-up
    _, peak = peak_bytes(run_cat, 0.6, 0.8j, 10)
    assert peak < 2**20


def test_cat_forms_no_coefficient_matrix_over_the_chain():
    # the cat's memory bound: at a chain of 20 the 8 MiB of intp point
    # labels dominate, 9.1 MiB at numpy 2.4, and 16 times the bound stays
    # under the 400 MiB allowed at chain 24. Reading all 2^20 columns in the
    # kernel instead of the two pointer columns, or copying the labels, adds
    # 8 MiB; the premeasured qubit adds only its 2 x 2 block, where a
    # 2 x 2^20 complex coefficient matrix would add 32 MiB
    run_cat(0.6, 0.8j, chain_length=3)  # warm-up
    _, peak = peak_bytes(run_cat, 0.6, 0.8j, 20)
    assert peak < 12 * 2**20


def test_compare_collapse_vs_restriction_deterministic():
    a = compare_collapse_vs_restriction(2, 20, 5)
    b = compare_collapse_vs_restriction(2, 20, 5)
    assert a == b
    assert a.worst < 1e-10
    assert a.n_random == 20 and a.dim == 2
    assert 0 <= a.worst_index < 20


def test_compare_allocates_no_composite_matrix():
    # one dense (32 * 32)^2 complex matrix is 16 MiB; the structured path
    # needs well under one
    compare_collapse_vs_restriction(32, 4, 5)  # warm-up
    _, peak = peak_bytes(compare_collapse_vs_restriction, 32, 4, 5)
    assert peak < 4 * 2**20


def per_case_gaps(states, bases) -> np.ndarray:
    """The gaps of the one-case-at-a-time kernel."""
    return np.array(
        [collapse_restriction_gap(state_vector(psi), basis) for psi, basis in zip(states, bases)]
    )


@pytest.mark.parametrize("d", [*range(1, 13), 16, 32])
def test_stacked_gaps_have_the_bits_of_the_per_case_kernel(d):
    # at d = 1 a plain stacked product rounds differently in about 45% of
    # the cases, so 400 of them
    n = 400 if d == 1 else 40
    states, bases = draw_cases(d, n, substreams(29, (2,), range(n)), state_first=True)
    gaps = collapse_restriction_gaps(states, bases)
    assert np.array_equal(gaps, per_case_gaps(states, bases))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_compare_across_a_block_boundary_has_the_per_case_bits(offset):
    d, seed = 32, 31
    n_random = CASE_BLOCK // d**2 + offset
    streams = substreams(seed, (2,), range(n_random))
    devs = per_case_gaps(*draw_cases(d, n_random, streams, state_first=True))
    worst_index = int(np.argmax(devs))
    assert compare_collapse_vs_restriction(d, n_random, seed) == ComparisonSummary(
        dim=d,
        n_random=n_random,
        seed=seed,
        worst=float(devs[worst_index]),
        mean=float(devs.mean()),
        worst_index=worst_index,
        worst_case_key=(seed, 2, worst_index),
    )


def test_compare_memory_does_not_grow_with_n_random():
    # at d = 64 one stack of 256 cases is 16 MiB; the cases run in blocks of
    # CASE_BLOCK elements, so the peak stays that of one block
    per_block = CASE_BLOCK // 64**2
    peaks = []
    for n_random in (per_block, 256):
        compare_collapse_vs_restriction(64, n_random, 5)  # warm-up
        _, peak = peak_bytes(compare_collapse_vs_restriction, 64, n_random, 5)
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 2**16
    assert peaks[1] < 16 * 2**20


@pytest.mark.parametrize(
    "fault, error",
    [
        (stretch_a_basis, errors.NotOrthonormal),
        (stretch_a_state, errors.NotNormalized),
        (nan_state, errors.NotNormalized),
    ],
)
def test_stacked_kernel_checks_every_case(fault, error):
    states, bases = draw_cases(3, 5, substreams(37, (2,), range(5)), state_first=True)
    fault(states, bases)
    with pytest.raises(error):
        collapse_restriction_gaps(states, bases)


def test_report_json_round_trips_byte_identically():
    r = run_scenario(parse_scenario(doc_qubit(trials=500)))
    text = emit_report(r, "json")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


_JSON_FLOATS = st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf])
_JSON_TEXT = st.text(
    st.sampled_from('"\\/\n\x00\u00e9\u2028\U0001f431') | st.characters(), max_size=4
)
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | _JSON_FLOATS | _JSON_TEXT


@given(
    st.recursive(
        _JSON_SCALARS | st.lists(_JSON_FLOATS | st.integers()),
        lambda inner: st.lists(inner) | st.dictionaries(_JSON_TEXT, inner),
        max_leaves=20,
    )
)
@settings(max_examples=150, deadline=None)
def test_json_emitter_writes_the_bytes_of_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        json.loads((Path(__file__).parent / "golden" / "verify.json").read_text()),
        {"a": [True, None, {"b": False, "c": [None, [True, 1, 0.5]]}], "d": None, "e": []},
        [False, True, None, 0, 1, {}],
    ],
    ids=["verify payload", "nested literals", "literals beside numbers"],
)
def test_json_emitter_writes_literals_with_the_bytes_of_json_dumps(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


def test_report_payload_fixed_keys():
    r = run_scenario(parse_scenario(doc_qubit()))
    payload = report_payload(r)
    assert set(payload) == {
        "born",
        "collapsed_diag",
        "restricted",
        "empirical",
        "max_deviation",
        "cross_terms",
    }
    assert payload["empirical"] is None


def test_report_table_sections():
    r = run_scenario(parse_scenario(doc_qubit()))
    text = emit_report(r, "table")
    assert "born vs collapse (outcomes ascending):" in text
    assert "restricted measure:" in text
    assert "empirical" not in text
    assert "max deviation:" in text
    assert not any(line != line.rstrip() for line in text.splitlines())


def test_report_table_includes_empirical_when_sampled():
    r = run_scenario(parse_scenario(doc_qubit(trials=100)))
    assert "empirical (trials=100):" in emit_report(r, "table")


def test_report_born_is_the_measure_of_a_single_observable():
    # born is a state restricted to the measured observable's algebra: one
    # character column, printed as the outcomes
    r = run_scenario(parse_scenario(doc_qubit()))
    assert r.born.characters.shape == (2, 1)
    assert report_payload(r)["born"]["outcomes"] == r.born.characters[:, 0].tolist()


def test_report_rejects_unknown_format():
    r = run_scenario(parse_scenario(doc_qubit()))
    with pytest.raises(errors.UnknownFormat):
        emit_report(r, "yaml")


def test_sig12_rounds_to_printed_precision():
    assert sig12(0.1 + 0.2) == 0.3
    assert sig12(1.0) == 1.0
    assert json.dumps(sig12(2 / 3)) == "0.666666666667"


@pytest.mark.parametrize("trials", [1000, 10000, 100000])
def test_empirical_frequencies_within_binomial_band(trials):
    s = parse_scenario(doc_qubit(trials=trials, seed=7))
    r = run_scenario(s)
    sigma = np.sqrt(0.64 * 0.36 / trials)
    assert abs(r.empirical.counts[1] / trials - 0.64) < 4 * sigma
