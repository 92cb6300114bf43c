"""A stack of random cases draws each case's normals in one call, and must
keep the bits of the one-object draws from the same streams, whether its
streams are seeded one by one or in one pass."""

import numpy as np
import pytest

from qmeasure.linalg import row_norms
from qmeasure.randomness import (
    _VECTOR_SEEDING_CASES,
    _case_words,
    _pcg64_states,
    draw_cases,
    rand_state,
    substream,
    substreams,
)
from qmeasure.verification import _dim_keys

from oracles import rand_unitary


def one_at_a_time(dim, seed, tags, cases, state_first):
    states, unitaries = [], []
    for i in cases:
        rng = substream(seed, *tags, i)
        if state_first:
            states.append(rand_state(dim, rng))
        unitaries.append(rand_unitary(dim, rng))
        if not state_first:
            states.append(rand_state(dim, rng))
    return np.array(states), np.array(unitaries)


CASE_RANGES = [range(40), range(7, 19), range(3, 100, 7)]


@pytest.mark.parametrize("cases", CASE_RANGES, ids=str)
@pytest.mark.parametrize("d", [*range(1, 9), 16, 32])
def test_random_cases_keep_the_bits_of_rand_state_then_rand_unitary(d, cases):
    states, unitaries = draw_cases(d, len(cases), substreams(53, (d,), cases), state_first=True)
    want_states, want_unitaries = one_at_a_time(d, 53, (d,), cases, state_first=True)
    assert np.array_equal(states, want_states)
    assert np.array_equal(unitaries, want_unitaries)


@pytest.mark.parametrize("cases", CASE_RANGES, ids=str)
@pytest.mark.parametrize("d", [*range(1, 9), 16, 32])
def test_unitary_first_cases_keep_the_bits_of_rand_unitary_then_rand_state(d, cases):
    # the draw order of the coupling fidelity check
    streams = substreams(59, (11, d), cases)
    states, unitaries = draw_cases(d, len(cases), streams, state_first=False)
    want_states, want_unitaries = one_at_a_time(d, 59, (11, d), cases, state_first=False)
    assert np.array_equal(states, want_states)
    assert np.array_equal(unitaries, want_unitaries)


SEEDS = [0, 2**32 - 1, 2**32, 2**63 + 5]
TAGS = [(), (7,), (3, 2**32 + 9)]
STACKS = [1, _VECTOR_SEEDING_CASES - 1, _VECTOR_SEEDING_CASES, 1000]


@pytest.mark.parametrize("n", STACKS)
@pytest.mark.parametrize("tags", TAGS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_one_pass_gives_the_pcg64_states_of_substream(seed, tags, n):
    # the last stack ends at the largest case index the pass takes
    for cases in (range(n), range(2**32 - n, 2**32)):
        want = [substream(seed, *tags, i).bit_generator.state["state"] for i in cases]
        got = _pcg64_states(seed, tags, _case_words(cases))
        assert got == [(s["state"], s["inc"]) for s in want]


@pytest.mark.parametrize("tags", TAGS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_one_pass_gives_the_pcg64_states_of_keys_that_vary_in_two_words(seed, tags):
    # the keys of the spectral axioms check, (12, d, i), and keys whose
    # varying words reach the last 32-bit word
    for keys in (
        [(d, i) for d in range(2, 9) for i in range(5)],
        [(2**32 - 1 - i, i) for i in range(12)],
    ):
        want = [substream(seed, *tags, *key).bit_generator.state["state"] for key in keys]
        got = _pcg64_states(seed, tags, _case_words(keys))
        assert got == [(s["state"], s["inc"]) for s in want]


@pytest.mark.parametrize(
    "keys",
    [
        [(d, i) for d in range(2, 9) for i in range(5)],
        [(d, 2**32 + i) for d in range(3) for i in range(4)],  # a word past 2^32 - 1
        [(2**40, i) for i in range(_VECTOR_SEEDING_CASES)],
        [(d, i) for d in range(2) for i in range(3)],  # below the seeding threshold
        # verify's keys as one integer array, a row per case
        _dim_keys(range(2, 7), 40),
        _dim_keys(range(2, 4), 2),
    ],
    ids=["check-3", "past-32-bits", "wide-first-word", "few", "array", "few-array"],
)
def test_substreams_of_two_word_keys_draw_what_substream_draws(keys):
    # keys with a word past 2^32 - 1 are seeded one by one, through substream
    got = [rng.standard_normal(3).tolist() for rng in substreams(73, (12,), keys)]
    assert got == [substream(73, 12, *key).standard_normal(3).tolist() for key in keys]
    assert (_case_words(keys) is None) == any(w > 2**32 - 1 for key in keys for w in key)


@pytest.mark.parametrize("state_first", [True, False])
@pytest.mark.parametrize("n", STACKS)
@pytest.mark.parametrize("tags", TAGS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_cases_keep_the_bits_of_substream_on_either_side_of_the_seeding_threshold(
    seed, tags, n, state_first
):
    got = draw_cases(2, n, substreams(seed, tags, range(n)), state_first)
    want = one_at_a_time(2, seed, tags, range(n), state_first)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("n", STACKS)
def test_substreams_draw_what_substream_draws(n):
    # an odd count of bounded integers leaves half a 64-bit word buffered,
    # which must not carry over into the next case
    def draws(rng):
        return (
            rng.integers(2, 9, size=3).tolist(),
            rng.standard_normal(3).tolist(),
            rng.uniform(-1, 1, size=2).tolist(),
        )

    got = [draws(rng) for rng in substreams(71, (13,), range(n))]
    assert got == [draws(substream(71, 13, i)) for i in range(n)]


def test_cases_past_the_last_32_bit_index_keep_the_bits_of_substream():
    cases = range(2**32 - 5, 2**32 + 2 * _VECTOR_SEEDING_CASES)
    got = draw_cases(2, len(cases), substreams(61, (4,), cases), state_first=True)
    want = one_at_a_time(2, 61, (4,), cases, state_first=True)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("d", range(1, 41))
def test_row_norms_keep_the_bits_of_np_linalg_norm(d):
    rng = substream(67, d)
    for n in (1, 2, 5, 16, 63, 200):
        vectors = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        assert np.array_equal(row_norms(vectors), [np.linalg.norm(v) for v in vectors])
