"""A stack of random cases draws each case's normals in one call, and must
keep the bits of the one-object draws from the same streams."""

import numpy as np
import pytest

from qmeasure.randomness import _draw_cases, rand_state, rand_unitary, random_cases, substream


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
    states, unitaries = random_cases(d, 53, (d,), cases)
    want_states, want_unitaries = one_at_a_time(d, 53, (d,), cases, state_first=True)
    assert np.array_equal(states, want_states)
    assert np.array_equal(unitaries, want_unitaries)


@pytest.mark.parametrize("cases", CASE_RANGES, ids=str)
@pytest.mark.parametrize("d", [*range(1, 9), 16, 32])
def test_unitary_first_cases_keep_the_bits_of_rand_unitary_then_rand_state(d, cases):
    # the draw order of the coupling fidelity check
    states, unitaries = _draw_cases(d, 59, (11, d), cases, state_first=False)
    want_states, want_unitaries = one_at_a_time(d, 59, (11, d), cases, state_first=False)
    assert np.array_equal(states, want_states)
    assert np.array_equal(unitaries, want_unitaries)
