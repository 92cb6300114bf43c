import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmeasure
from qmeasure.cli import main

_MAIN = "import sys; from qmeasure.cli import main; sys.exit(main(sys.argv[1:]))"


def write_qubit_scenario(tmp_path, **overrides):
    doc = {
        "system_dim": 2,
        "initial_state": {"kind": "vector", "data": [[0.6, 0], [0.8, 0]]},
        "observable": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
        "apparatus": {"dim": 2},
        "trials": 0,
        "seed": 11,
    }
    doc.update(overrides)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_run_table_exit_zero(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path, trials=1000)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "born vs collapse" in out
    assert "empirical (trials=1000):" in out


def test_run_json_output(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path)
    assert main(["run", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["born"]["probabilities"] == [0.36, 0.64]
    assert payload["empirical"] is None
    assert payload["max_deviation"] <= 1e-12


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_invalid_document_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ broken")
    assert main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err


def test_run_validation_failure_exits_one(tmp_path, capsys):
    path = write_qubit_scenario(
        tmp_path, initial_state={"kind": "vector", "data": [[1, 0], [1, 0]]}
    )
    assert main(["run", path]) == 1
    assert "NotNormalized" in capsys.readouterr().err


def test_run_impossible_tol_exits_two(tmp_path, capsys):
    # a non-diagonal observable leaves a roundoff-level but strictly positive
    # deviation between the routes; --tol 0 turns that into exit code 2
    path = write_qubit_scenario(
        tmp_path,
        observable=[[[1, 0], [0, -0.5]], [[0, 0.5], [2, 0]]],
    )
    code = main(["run", path, "--tol", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "exceeds --tol" in captured.err


def test_run_shifted_observable_exits_zero(tmp_path, capsys):
    # a gap of 1 on top of 1e9 is far above eigensolver roundoff, so the
    # spectrum must not be clustered as degenerate
    path = write_qubit_scenario(
        tmp_path, observable=[[[1e9, 0], [0, 0]], [[0, 0], [1e9 + 1, 0]]]
    )
    assert main(["run", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["born"]["probabilities"] == [0.36, 0.64]


def test_run_oversized_apparatus_exits_one(tmp_path, capsys):
    # a few hundred bytes asking for 10^6 x 10^6 pointer matrices
    path = write_qubit_scenario(tmp_path, apparatus={"dim": 1_000_000})
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err
    assert "apparatus.dim" in err


def test_run_oversized_trials_exits_one(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path, trials=10**12)
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err
    assert "trials" in err


# an integer literal too large for any float
_HUGE = 10**401

_HUGE_LITERALS = {
    "observable": (
        {"observable": [[[0, 0], [0, 0]], [[0, 0], [_HUGE, 0]]]},
        "observable[1][1]",
    ),
    "vector state": (
        {"initial_state": {"kind": "vector", "data": [[0.6, _HUGE], [0.8, 0]]}},
        "initial_state.data[0]",
    ),
    "density state": (
        {
            "initial_state": {
                "kind": "density",
                "data": [[[_HUGE, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            }
        },
        "initial_state.data[0][0]",
    ),
    "pointer values": (
        {"apparatus": {"dim": 2, "pointer_values": [0, _HUGE]}},
        "apparatus.pointer_values",
    ),
}


@pytest.mark.parametrize("field", list(_HUGE_LITERALS))
def test_run_huge_integer_literal_exits_one(tmp_path, capsys, field):
    overrides, where = _HUGE_LITERALS[field]
    assert main(["run", write_qubit_scenario(tmp_path, **overrides)]) == 1
    err = capsys.readouterr().err
    assert f"ParseError: {where}: number too large for a float" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_run_nonfinite_pointer_values_exit_one_naming_the_field(tmp_path, capsys, value):
    path = write_qubit_scenario(tmp_path, apparatus={"dim": 2, "pointer_values": [0, value]})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "ValidationError: apparatus.pointer_values" in err
    assert "Warning" not in err
    assert caught == []


def test_run_observable_entry_near_the_float_limit_warns_nothing(tmp_path, capsys):
    # the eigendecomposition check once took the Frobenius norm of this
    # observable, which overflows
    path = write_qubit_scenario(tmp_path, observable=[[[0, 0], [0, 0]], [[0, 0], [1e308, 0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["born"]["outcomes"] == [0.0, 1e308]


@pytest.mark.parametrize(
    "overrides",
    [
        {"observable": [[[1.5e308, 0]] * 2] * 2},
        {"observable": [[[0, 0], [1e308, 0]], [[1e308, 0], [1, 0]]]},
        {"apparatus": {"dim": 2, "pointer_values": [-1e308, 1e308]}},
    ],
    ids=["infinite eigenvalue", "eigenvalue gap", "pointer value span"],
)
def test_run_rejects_spectra_beyond_the_float_range(tmp_path, capsys, overrides):
    path = write_qubit_scenario(tmp_path, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err
    assert "largest float" in err or "not all finite" in err


def run_strict(argv):
    """The CLI in a fresh interpreter that turns every warning into an error."""
    env = {**os.environ, "PYTHONPATH": str(Path(qmeasure.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", _MAIN, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "generators, message",
    [
        ([[[[-1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]], "generator 0 values span"),
        ([[[[0, 0], [1e308, 0]], [[1e308, 0], [1, 0]]]], "generator 0 values span"),
        # eigenvalues 0 and 2e308 of the second, reached in the first's eigenbasis
        (
            [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]], [[[1e308, 0], [1e308, 0]]] * 2],
            "generator 1 overflows in its eigenbasis",
        ),
    ],
    ids=["diagonal", "non-diagonal", "second generator"],
)
def test_run_rejects_generator_values_beyond_the_float_range(
    tmp_path, capsys, generators, message
):
    path = write_qubit_scenario(tmp_path, algebra_generators=generators)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path]) == 1
    assert f"ValidationError: {message}" in capsys.readouterr().err
    strict = run_strict(["run", path])
    assert strict.returncode == 1, strict.stderr
    assert message in strict.stderr


def test_run_accepts_commuting_generators_with_entries_near_1e200(tmp_path, capsys):
    # the commutator of these overflows unless it is taken in units of the
    # largest entries; the algebra they generate holds the pointer readout
    x_idle = np.zeros((4, 4))
    x_idle[2, 3] = x_idle[3, 2] = 1e200
    generators = [x_idle, np.diag([0.0, 1e200, 2e200, 2e200])]
    path = write_qubit_scenario(
        tmp_path,
        apparatus={"dim": 4},
        algebra_generators=[[[[float(x), 0] for x in row] for row in g] for g in generators],
    )
    strict = run_strict(["run", path, "--format", "json"])
    assert strict.returncode == 0, strict.stderr
    assert len(json.loads(strict.stdout)["restricted"]["characters"]) == 4


def report_shape(node):
    """The report with every number replaced by its type: its keys and the
    lengths of its lists."""
    if isinstance(node, dict):
        return {key: report_shape(value) for key, value in node.items()}
    if isinstance(node, list):
        return [report_shape(value) for value in node]
    return type(node).__name__


def test_report_shape_does_not_depend_on_the_size_of_the_pointer_values(tmp_path, capsys):
    # the idle column once took min - 1 = 1e17 and merged with outcome 0
    shapes = []
    for values in ([10, 20], [1e17, 2e17]):
        path = write_qubit_scenario(tmp_path, apparatus={"dim": 3, "pointer_values": values})
        assert main(["run", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["restricted"]["characters"]) == 3
        shapes.append(report_shape(report))
    assert shapes[0] == shapes[1]


@pytest.mark.parametrize(
    "apparatus",
    [
        {"dim": 3, "pointer_values": [-1.79e308, -1.7e308]},
        {"dim": 4, "pointer_values": [-1.79e308, -1.7e308]},
        {"dim": 4, "pointer_values": [-1.7976931348623157e308, -1e308]},
    ],
    ids=["one idle column", "two idle columns", "no room below"],
)
def test_run_pointer_values_near_the_float_limit_exit_zero_or_one(tmp_path, apparatus):
    path = write_qubit_scenario(tmp_path, apparatus=apparatus)
    strict = run_strict(["run", path])
    assert strict.returncode in (0, 1), strict.stderr
    assert "Warning" not in strict.stderr


def test_cat_table_mentions_branches(capsys):
    assert main(["cat", "--c1", "0.6", "--c2", "0,0.8", "--chain", "4"]) == 0
    out = capsys.readouterr().out
    assert "branch 1 (alive)" in out
    assert "max deviation:" in out


def test_cat_json_has_no_legend(capsys):
    assert main(["cat", "--c1", "0.6", "--c2", "0,0.8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["restricted"]["weights"][0] == 0.64
    assert payload["restricted"]["weights"][-1] == 0.36


def test_cat_bad_amplitudes_exit_one(capsys):
    assert main(["cat", "--c1", "1", "--c2", "1"]) == 1
    assert "BadAmplitudes" in capsys.readouterr().err


@pytest.mark.parametrize("chain", ["0", "25"])
def test_cat_chain_outside_the_cap_exits_one(capsys, chain):
    assert main(["cat", "--c1", "0.6", "--c2", "0,0.8", "--chain", chain]) == 1
    assert "chain_length must be between 1 and 24" in capsys.readouterr().err


def test_cat_malformed_amplitude_is_usage_error(capsys):
    assert main(["cat", "--c1", "zebra", "--c2", "0.8"]) == 1
    assert "error" in capsys.readouterr().err


def test_compare_exit_zero(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", "10", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "worst" in out


def test_compare_json_deterministic(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", "10", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["compare", path, "--random", "10", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_compare_uses_scenario_seed_by_default(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11


def test_compare_impossible_tol_exits_two(tmp_path, capsys):
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", "5", "--tol", "0"]) == 2
    assert "exceeds --tol" in capsys.readouterr().err


def test_compare_oversized_random_exits_one(tmp_path, capsys):
    # one case over the array budget: rejected before the per-case array exists
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", "16777217"]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err
    assert "n_random" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("verb", ["run", "cat", "compare"])
def test_nonfinite_or_negative_tol_is_usage_error(tmp_path, capsys, verb, tol):
    # a NaN tolerance would compare false against every deviation and so
    # silently disable exit code 2
    args = {
        "run": ["run", write_qubit_scenario(tmp_path)],
        "cat": ["cat", "--c1", "0.6", "--c2", "0,0.8", "--chain", "3"],
        "compare": ["compare", write_qubit_scenario(tmp_path), "--random", "2"],
    }[verb]
    assert main([*args, f"--tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance" in captured.err


def test_verify_exit_zero(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_verify_json_payload(capsys):
    assert main(["verify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 9
    assert all(entry["passed"] for entry in payload)
    assert all(entry["worst"] <= entry["tolerance"] for entry in payload)


# every check's name, pinned tolerance and case count: verify may get
# faster, but not by drawing fewer cases or loosening a tolerance
VERIFY_CHECKS = [
    ("collapse vs restriction", 1e-09, "200 random cases, dims 2..6"),
    ("coupling fidelity", 1e-10, "150 random states, dims 2..6"),
    ("spectral measure axioms", 1e-09, "35 random Hermitians, dims 2..8"),
    ("joint diagonalization", 1e-08, "20 random commuting families"),
    ("sampling agreement", 1.0, "20000 trials against (0.36, 0.64), 4 sigma units"),
    ("cat branches", 1e-10, "chain of 6 cells, c = (0.6, 0.8i)"),
    (
        "simplex contrast",
        1e-12,
        "two pure decompositions of the mixed qubit; weight round trip on 10 random algebras",
    ),
    ("dynamics group law", 1e-09, "20 random (H, s, t)"),
    ("chain reduction", 1e-10, "20 random states, dim 4, two-stage pointer"),
]


def test_verify_json_pins_names_tolerances_and_case_counts(capsys):
    assert main(["verify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(e["name"], e["tolerance"], e["detail"]) for e in payload] == VERIFY_CHECKS


def test_usage_error_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out
