import tracemalloc

import numpy as np

from qmeasure.measurement import premeasure

ATOL = 1e-12
RTOL = 1e-9


def assert_close(actual, desired, atol=ATOL, rtol=RTOL):
    np.testing.assert_allclose(np.asarray(actual), np.asarray(desired), atol=atol, rtol=rtol)


def peak_bytes(fn, *args):
    """fn(*args) and the tracemalloc peak of that one call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def misregistered(states, bases):
    """A faulty premeasurement: outcome j registers on pointer column
    j + 1 (mod d) of its coefficient block instead of column j."""
    return np.roll(premeasure(states, bases), 1, axis=-1)


# faults of one case in a stack of five, which a stacked kernel must catch
def stretch_a_basis(states, bases):
    bases[2, :, 0] *= 1 + 1e-9


def stretch_a_state(states, bases):
    states[3] *= 1 + 1e-9


def nan_state(states, bases):
    states[1, 0] = np.nan
