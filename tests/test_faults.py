"""The fault catalogue: each row is one fault, made by one monkeypatch, and
names what must catch it: verify checks that must fail, and exit codes that
`run` must return on the scenario files, or `cat` and `compare` on one input
each. A row that stops being caught fails here. A row that nothing catches
yet is an expected failure that says why, and fails as an unexpected pass
once something catches it."""

import contextlib
import io
from pathlib import Path

import numpy as np
import pytest

from qmeasure import algebra, measurement, scenario, verification
from qmeasure.cli import main

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def shift_matched_outcomes(mp):
    match = measurement.match_outcomes

    def shifted(values, targets):
        matched = match(values, targets)
        return np.where(matched >= 0, (matched + 1) % targets.size, matched)

    mp.setattr(measurement, "match_outcomes", shifted)


def drop_overlap_phases(mp):
    def phaseless(states, bases):
        c = (states.conj()[..., None, :] @ bases)[..., 0, :].conj()
        return bases * np.abs(c)[..., None, :]

    mp.setattr(measurement, "premeasure", phaseless)
    mp.setattr(verification, "premeasure", phaseless)


def keep_one_factor_row(mp):
    factor_rows = measurement.factor_rows
    mp.setattr(measurement, "factor_rows", lambda state: factor_rows(state)[:1])


def swap_basis_columns_across_cases(mp):
    spectrum = algebra._spectrum

    def swapped(gens):
        labels, chars, basis = spectrum(gens)
        if basis is not None and len(basis) > 1:
            basis[[0, 1], :, 0] = basis[[1, 0], :, 0]
        return labels, chars, basis

    mp.setattr(algebra, "_spectrum", swapped)


def roll_stacked_couplings(mp):
    dense = verification.coupling_matrix

    def rolled(bases, dim_apparatus):
        u = dense(bases, dim_apparatus)
        return u if u.ndim == 2 else np.roll(u, 1, axis=0)

    mp.setattr(verification, "coupling_matrix", rolled)


def widen_one_case_to_the_stack(mp):
    width = algebra.default_cluster_tol

    def stack_wide(values):
        tol = width(values).copy()
        tol[0] = width(values.reshape(-1))
        return tol

    mp.setattr(algebra, "default_cluster_tol", stack_wide)


def swap_first_two_readout_columns(mp):
    readout = measurement.pointer_readout

    def swapped(w, n):
        alg = readout(w, n)
        labels = alg.labels.copy()
        labels[[0, 1]] = labels[[1, 0]]
        return algebra.SpectralAlgebra(labels, alg.characters)

    for module in (measurement, scenario, verification):
        mp.setattr(module, "pointer_readout", swapped)


def reverse_collapse_outcomes(mp):
    diagonal = measurement.collapse_diagonal
    mp.setattr(
        measurement, "collapse_diagonal", lambda rhos, bases: diagonal(rhos, bases)[..., ::-1]
    )


def collapse_to_its_input(mp):
    mp.setattr(measurement, "collapse", lambda rhos, bases: rhos)


# the argv of a row's other verbs; any other name is `run` on that scenario file
_VERBS = {
    "cat": ["cat", "--chain", "7", "--c1", "0.6,0", "--c2", "0,0.8"],
    "compare": ["compare", str(_SCENARIOS / "qutrit_mixed.json"), "--random", "20"],
}


def run_codes(names) -> dict[str, int]:
    codes = {}
    for name in names:
        argv = _VERBS.get(name, ["run", str(_SCENARIOS / f"{name}.json")])
        with contextlib.redirect_stdout(io.StringIO()):
            codes[name] = main([*argv, "--format", "json"])
    return codes


def failing_checks(numbers) -> set[int]:
    return {k for k in numbers if not verification.ALL_CHECKS[k - 1]().passed}


_ALL_RUNS = {p.stem: 2 for p in _SCENARIOS.glob("*.json")}

# fault, verify checks that must fail, run exit codes
ROWS = {
    "match_outcomes shifted by one outcome": (shift_matched_outcomes, {1, 6}, _ALL_RUNS),
    "premeasure drops the phases of its overlaps": (drop_overlap_phases, {2}, {}),
    # the kept row carries only part of the trace, so the weights are rejected
    "factor_rows keeps one row of a density": (
        keep_one_factor_row,
        set(),
        {"qutrit_mixed": 1, "mixed_splitter": 1},
    ),
    "one case's basis columns swapped with another case's": (
        swap_basis_columns_across_cases,
        {3, 4},
        {},
    ),
    # a single U, check 9's copier, is left alone
    "coupling_matrix gives each case of a stack another case's U": (
        roll_stacked_couplings,
        {2, 9},
        {},
    ),
    "one case's cluster width taken from the whole stack": (
        widen_one_case_to_the_stack,
        {3, 4},
        {},
    ),
    # mixed_splitter builds its readout from its generators, and check 9
    # reads one readout in both of its stages, so neither sees the swap
    "pointer_readout puts the first two outcome columns on each other's points": (
        swap_first_two_readout_columns,
        {1},
        {name: 2 for name in ("dense_ququart", "eigenstate", "qubit_0608", "qutrit_mixed")},
    ),
    "collapse_diagonal returns its outcomes reversed": (
        reverse_collapse_outcomes,
        {1, 6},
        {**_ALL_RUNS, "cat": 2, "compare": 2},
    ),
    # collapse(rho) = rho is what a run would see if the map were never applied
    "collapse returns its input": (collapse_to_its_input, {1}, {"qubit_0608": 2}),
}

# rows that no check or exit code sees yet, with the reason
UNCAUGHT = {
    "one case's cluster width taken from the whole stack": (
        "not caught: checks 3 and 4 draw spectra whose gaps are far wider than "
        "any cluster width, and a merge of near-equal eigenvalues keeps their "
        "residuals within tolerance (CHANGES.md, FOUND); "
        "test_algebra.py::test_each_case_of_a_stack_is_clustered_with_its_own_width "
        "holds the per-case width"
    ),
    "collapse returns its input": (
        "not caught: every route reads the collapse only through its diagonal in "
        "the measured basis, which the identity map leaves as Born's weights, so "
        "all nine checks pass and every run, cat and compare exits 0 (ROADMAP item 2)"
    ),
}


@pytest.mark.parametrize(
    "row",
    [
        pytest.param(row, marks=pytest.mark.xfail(strict=True, reason=UNCAUGHT[row]))
        if row in UNCAUGHT
        else row
        for row in ROWS
    ],
)
def test_each_fault_is_caught(row):
    fault, checks, codes = ROWS[row]
    assert failing_checks(checks) == set()
    assert run_codes(codes) == dict.fromkeys(codes, 0)
    with pytest.MonkeyPatch.context() as mp:
        fault(mp)
        assert failing_checks(checks) == checks
        assert run_codes(codes) == codes
