import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import errors, linalg
from qmeasure.algebra import _split_points, generate_algebra


def test_require_weights_rejects_a_nan():
    # a NaN compares False both ways, so each check is written to fail on it
    with pytest.raises(errors.ValidationError):
        linalg.require_weights([np.nan, 1.0])


def test_require_weights_formats_a_bad_sum_as_the_other_messages_do():
    # numpy 2's repr of a float64 scalar reads np.float64(...)
    with pytest.raises(errors.ValidationError) as err:
        linalg.require_weights([0.1, 0.1])
    assert "np.float64" not in str(err.value)
    assert str(err.value) == "weights: a sum is off from 1 by 8.000e-01"
    with pytest.raises(errors.ValidationError, match="by 8.000e-01$"):
        linalg.require_weights([[0.5, 0.5], [0.1, 0.1]], stack=True)


def test_cluster_examples():
    # the width is default_cluster_tol, 1e4 * 3 * eps * 2 = 1.3e-11 here
    merged = generate_algebra([np.diag([1.0, 1.0 + 1e-12, 2.0])])
    assert merged.multiplicities().tolist() == [2, 1]
    assert generate_algebra([np.diag([1.0, 1.1, 2.0])]).n_points == 3
    # the values need not come sorted
    assert generate_algebra([np.diag([2.0, 1.0 + 1e-12, 1.0])]).labels.tolist() == [1, 0, 0]


@given(
    vals=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    tol=st.floats(0, 1),
)
@settings(max_examples=80, deadline=None)
def test_cluster_partitions_indices(vals, tol):
    # _split_points is the one clustering rule: from a single point, each
    # new point is a run of the sorted values, and a run ends exactly where
    # the gap to the next value exceeds tol
    values = np.array(vals)
    labels = np.zeros(values.size, dtype=np.intp)
    counts, parents, means = _split_points(labels, np.array([values.size]), values, tol)
    assert np.bincount(labels).tolist() == counts.tolist()
    assert (parents == 0).all()
    order = np.argsort(values, kind="stable")
    steps = np.diff(labels[order])
    assert set(steps.tolist()) <= {0, 1}
    assert ((steps == 1) == (np.diff(values[order]) > tol)).all()
    for k, mean in enumerate(means):
        members = values[labels == k]
        assert members.min() - 1e-12 <= mean <= members.max() + 1e-12

