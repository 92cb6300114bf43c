import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors
from qmeasure.algebra import generate_algebra
from qmeasure.measurement import build_apparatus, model_for_observable, pointer_observable
from qmeasure.randomness import random_cases, substream
from qmeasure.report import ComparisonSummary, emit_report, report_payload, sig12
from qmeasure.scenario import (
    _CASE_BLOCK,
    MAX_ARRAY_ELEMENTS,
    Scenario,
    _sample_counts,
    collapse_restriction_gaps,
    compare_collapse_vs_restriction,
    parse_scenario,
    pointer_readout,
    run_cat,
    run_scenario,
)
from qmeasure.states import DensityMatrix, StateVector

from conftest import assert_close
from oracles import collapse_restriction_gap, load_scenario, sample_outcome

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
    assert isinstance(s.initial_state, StateVector)
    assert s.apparatus_dim == 2
    assert s.pointer_values is None
    assert s.algebra_generators is None
    assert s.trials == 0 and s.seed == 11


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
    assert s.initial_state.amplitudes.tobytes() == want.tobytes()


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
    assert_close(s.initial_state.amplitudes, [0.6, 0.8])


def test_parse_density_state():
    s = parse_scenario(
        doc_qubit(
            initial_state={
                "kind": "density",
                "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            }
        )
    )
    assert isinstance(s.initial_state, DensityMatrix)
    assert_close(s.initial_state.matrix, np.eye(2) / 2)


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
    assert_close(r.born.probabilities, [1.0, 0.0])
    assert_close(r.collapsed_diag, [1.0, 0.0])
    assert r.max_deviation < 1e-12


def test_run_scenario_superposition_agrees_three_ways():
    r = run_scenario(parse_scenario(doc_qubit()))
    assert_close(r.born.probabilities, [0.36, 0.64])
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
    assert_close(r.born.probabilities, [0.3, 0.7], atol=1e-12)
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
    freq = r.empirical.frequencies[1]
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
    model = model_for_observable(np.diag([0.0, 1.0]), dim_apparatus=2)
    rng = substream(s.seed, 1)
    psi = StateVector(np.array([0.6, 0.8]))
    seq = [sample_outcome(psi, model, rng)[0] for _ in range(200)]
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
        tracemalloc.start()
        try:
            _sample_counts(p, 3, trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * trials


def test_mixed_run_calls_the_eigensolver_only_on_multi_column_points(monkeypatch):
    # the measured observable's one block and the idle block the splitter
    # splits; the twelve one-column pointer points need no eigensolver
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    run_scenario(load_scenario(_SCENARIOS / "mixed_splitter.json"))
    assert len(calls) == 2


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
    chars = [ch[0] for ch in r.restricted_characters]
    assert chars == [-3.0, -1.0, 1.0, 3.0]


def test_run_cat_rejects_bad_amplitudes():
    with pytest.raises(errors.BadAmplitudes):
        run_cat(0.6, 0.9, chain_length=8)
    with pytest.raises(errors.ValidationError):
        run_cat(0.6, 0.8, chain_length=25)


def test_cat_allocates_no_dense_matrix():
    # one dense 1024^2 complex matrix is 16 MiB; the chain of 10 needs
    # only arrays of 2^10 entries
    run_cat(0.6, 0.8j, chain_length=10)  # warm-up
    tracemalloc.start()
    try:
        run_cat(0.6, 0.8j, chain_length=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    tracemalloc.start()
    try:
        compare_collapse_vs_restriction(32, 4, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def per_case_gaps(d: int, states, bases) -> np.ndarray:
    """The gaps of the one-case-at-a-time kernel, with the readout algebra
    generated by the dense pointer observable."""
    apparatus = build_apparatus(d)
    algebra = generate_algebra([pointer_observable(apparatus)])
    return np.array(
        [
            collapse_restriction_gap(StateVector(psi), basis, apparatus, algebra)
            for psi, basis in zip(states, bases)
        ]
    )


@pytest.mark.parametrize("d", [*range(1, 13), 16, 32])
def test_stacked_gaps_have_the_bits_of_the_per_case_kernel(d):
    # at d = 1 a plain stacked product rounds differently in about 45% of
    # the cases, so 400 of them
    states, bases = random_cases(d, 29, (2,), range(400 if d == 1 else 40))
    gaps = collapse_restriction_gaps(states, bases, pointer_readout(d))
    assert np.array_equal(gaps, per_case_gaps(d, states, bases))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_compare_across_a_block_boundary_has_the_per_case_bits(offset):
    d, seed = 32, 31
    n_random = _CASE_BLOCK // d**2 + offset
    devs = per_case_gaps(d, *random_cases(d, seed, (2,), range(n_random)))
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
    # _CASE_BLOCK elements, so the peak stays that of one block
    per_block = _CASE_BLOCK // 64**2
    peaks = []
    for n_random in (per_block, 256):
        compare_collapse_vs_restriction(64, n_random, 5)  # warm-up
        tracemalloc.start()
        try:
            compare_collapse_vs_restriction(64, n_random, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 2**16
    assert peaks[1] < 16 * 2**20


def stretch_a_basis(states, bases):
    bases[2, :, 0] *= 1 + 1e-9


def stretch_a_state(states, bases):
    states[3] *= 1 + 1e-9


def nan_state(states, bases):
    states[1, 0] = np.nan


@pytest.mark.parametrize(
    "fault, error",
    [
        (stretch_a_basis, errors.NotOrthonormal),
        (stretch_a_state, errors.NotNormalized),
        (nan_state, errors.NotNormalized),
    ],
)
def test_stacked_kernel_checks_every_case(fault, error):
    states, bases = random_cases(3, 37, (2,), range(5))
    fault(states, bases)
    with pytest.raises(error):
        collapse_restriction_gaps(states, bases, pointer_readout(3))


def test_report_json_round_trips_byte_identically():
    r = run_scenario(parse_scenario(doc_qubit(trials=500)))
    text = emit_report(r, "json")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


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
    assert abs(r.empirical.frequencies[1] - 0.64) < 4 * sigma
