"""The package's tolerances live in one policy in `qmeasure.linalg`.

Two kinds of test pin it. Each validator accepts a defect of half its
tolerance and rejects twice it with its usual error; the tolerances are
written out here as numbers, so a change of value fails as surely as a
validator that stops reading the policy. A source lint keeps tolerance
literals from reappearing outside the policy module and the verify checks,
whose pinned tolerances are part of the acceptance spec.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from qmeasure import errors
from qmeasure.algebra import (
    SpectralAlgebra,
    SpectralProbabilityMeasure,
    gelfand_transform,
    generate_algebra,
)
from qmeasure.measurement import build_apparatus, build_coupling
from qmeasure.observables import Observable, OutcomeDistribution
from qmeasure.states import DensityMatrix, StateVector, mix, projector_of

_SRC = Path(__file__).resolve().parent.parent / "src" / "qmeasure"
_POLICY_FILES = {"linalg.py", "verification.py"}
_LARGEST_TOLERANCE_LITERAL = 1e-5


def _stretched(d):
    """2x2 matrix whose first column has squared norm 1 + d: max|V^dagger V - I| = d."""
    return np.diag([np.sqrt(1 + d), 1.0])


def _measured_basis(d):
    return build_coupling(_stretched(d), build_apparatus(2))


def _algebra(d):
    v = _stretched(d)
    return SpectralAlgebra(np.arange(2), [[0.0], [1.0]], v)


def _element_off_block(d):
    # entries 0 and 2d on the degenerate block: its mean d misses both by d,
    # against the scale max(1, max entry) = 1
    alg = generate_algebra([np.diag([0.0, 0.0, 1.0])])
    return gelfand_transform(alg, np.diag([0.0, 2 * d, 1.0]))


def _mix(weights):
    return mix(weights, [projector_of([1, 0]), projector_of([0, 1])])


# name: (build with defect d, the tolerance d is measured against, error)
BOUNDARIES = {
    "state norm": (lambda d: StateVector([1 + d, 0]), 1e-10, errors.NotNormalized),
    "density hermiticity": (
        lambda d: DensityMatrix([[0.5, d], [0, 0.5]]),
        1e-10,
        errors.NotHermitian,
    ),
    "density positivity": (
        lambda d: DensityMatrix(np.diag([1 + d, -d])),
        1e-10,
        errors.NotPositive,
    ),
    "density trace": (
        lambda d: DensityMatrix(np.diag([0.5, 0.5 + d])),
        1e-10,
        errors.TraceNotOne,
    ),
    "observable hermiticity": (
        lambda d: Observable([[0, d], [0, 0]]),
        1e-10,
        errors.NotHermitian,
    ),
    "algebra isometry": (_algebra, 1e-10, errors.ValidationError),
    "measured basis": (_measured_basis, 1e-10, errors.NotOrthonormal),
    "outcome floor": (
        lambda d: OutcomeDistribution([0, 1], [-d, 1 + d]),
        1e-12,
        errors.ValidationError,
    ),
    "outcome sum": (
        lambda d: OutcomeDistribution([0, 1], [0.5, 0.5 + d]),
        1e-10,
        errors.ValidationError,
    ),
    "measure floor": (
        lambda d: SpectralProbabilityMeasure([-d, 1 + d]),
        1e-12,
        errors.ValidationError,
    ),
    "measure sum": (
        lambda d: SpectralProbabilityMeasure([0.5, 0.5 + d]),
        1e-10,
        errors.ValidationError,
    ),
    "mix floor": (lambda d: _mix([-d, 1 + d]), 1e-12, errors.BadWeights),
    "mix sum": (lambda d: _mix([0.5, 0.5 + d]), 1e-10, errors.BadWeights),
    "gelfand element": (_element_off_block, 1e-9, errors.NotInAlgebra),
}


@pytest.mark.parametrize("name", list(BOUNDARIES))
def test_validator_accepts_half_and_rejects_twice_its_tolerance(name):
    build, tol, error = BOUNDARIES[name]
    build(0.5 * tol)
    with pytest.raises(error):
        build(2 * tol)


def tolerance_literals(source: str) -> list[tuple[int, float]]:
    """(line, value) of every float literal in (0, 1e-5] in a module's
    source, in line order."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value <= _LARGEST_TOLERANCE_LITERAL
    )


def test_lint_finds_tolerance_literals():
    found = tolerance_literals("x = 1e-10\nif y > 2.5e-6 * z: pass\nw = -1e-12\nk = 0.5\n")
    assert found == [(1, 1e-10), (2, 2.5e-6), (3, 1e-12)]


def test_no_tolerance_literal_outside_the_policy():
    modules = sorted(_SRC.glob("*.py"))
    assert {p.name for p in modules} >= _POLICY_FILES | {"states.py", "cli.py"}
    offenders = [
        f"{path.name}:{line}: {value!r}"
        for path in modules
        if path.name not in _POLICY_FILES
        for line, value in tolerance_literals(path.read_text())
    ]
    assert offenders == [], "tolerance literals outside qmeasure.linalg: " + ", ".join(offenders)
