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
    SpectralProbabilityMeasure,
    gelfand_transform,
    generate_algebra,
    restrict_state,
)
from qmeasure.measurement import checked_cases
from qmeasure.linalg import require_hermitian
from qmeasure.states import density_matrix, state_vector

_SRC = Path(__file__).resolve().parent.parent / "src" / "qmeasure"
_POLICY_FILES = {"linalg.py", "verification.py"}
_LARGEST_TOLERANCE_LITERAL = 1e-5


def _stretched(d):
    """2x2 matrix whose first column has squared norm 1 + d: max|V^dagger V - I| = d."""
    return np.diag([np.sqrt(1 + d), 1.0])


def _measured_basis(d):
    # the check a measured basis that comes as input gets: compare's and
    # verify's random bases, one stack at a time
    return checked_cases(np.array([[1.0, 0.0]]), _stretched(d)[None])


def _element_off_block(d):
    # entries 0 and 2d on the degenerate block: its mean d misses both by d,
    # against the largest entry, 1
    alg = generate_algebra([np.diag([0.0, 0.0, 1.0])])
    return gelfand_transform(alg, require_hermitian(np.diag([0.0, 2 * d, 1.0])))


def _born(d):
    rho = density_matrix(np.diag([-d, 1 + d]))
    return restrict_state(rho, generate_algebra([np.diag([0.0, 1.0])]))


# name: (build with defect d, the tolerance d is measured against, error)
BOUNDARIES = {
    "state norm": (lambda d: state_vector([1 + d, 0]), 1e-10, errors.NotNormalized),
    # Hermiticity is judged in units of the largest entry, here 1
    "density hermiticity": (
        lambda d: density_matrix([[1, d], [0, 0]]),
        1e-10,
        errors.NotHermitian,
    ),
    "density positivity": (
        lambda d: density_matrix(np.diag([1 + d, -d])),
        1e-10,
        errors.NotPositive,
    ),
    "density trace": (
        lambda d: density_matrix(np.diag([0.5, 0.5 + d])),
        1e-10,
        errors.TraceNotOne,
    ),
    "observable hermiticity": (
        lambda d: require_hermitian([[1, d], [0, 1]]),
        1e-10,
        errors.NotHermitian,
    ),
    "measured basis": (_measured_basis, 1e-10, errors.NotOrthonormal),
    # Born's distribution: a density that passes its own checks, restricted
    # to the algebra of one observable, whose weights dip below zero by d
    "outcome floor": (_born, 1e-12, errors.ValidationError),
    "measure floor": (
        lambda d: SpectralProbabilityMeasure([-d, 1 + d], np.array([[0.0], [1.0]])),
        1e-12,
        errors.ValidationError,
    ),
    "measure sum": (
        lambda d: SpectralProbabilityMeasure([0.5, 0.5 + d], np.array([[0.0], [1.0]])),
        1e-10,
        errors.ValidationError,
    ),
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
