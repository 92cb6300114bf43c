import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmeasure
from qmeasure import cli, linalg, measurement, scenario
from qmeasure.cli import main
from qmeasure.randomness import rand_hermitian, rand_state, substream

from conftest import misregistered

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
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


@pytest.mark.parametrize(
    "text",
    [
        '{"seed": ' + "7" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["5000_digit_integer", "100000_nested_brackets"],
)
def test_run_hostile_json_exits_one(tmp_path, capsys, text):
    # json.loads raises a plain ValueError and a RecursionError on these
    p = tmp_path / "hostile.json"
    p.write_text(text)
    assert main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err
    assert "internal error" not in err


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_a_scenario_file_that_is_not_utf8_exits_one(tmp_path, capsys, verb):
    # reading it raises UnicodeDecodeError, a ValueError and no QmError
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"seed": "\xff\xfe"}')
    assert main([verb, str(p)]) == 1
    err = capsys.readouterr().err
    assert "ParseError" in err and "not UTF-8" in err
    assert "internal error" not in err


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


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize(
    "kind, data, error",
    [
        ("vector", [[1e200, 0], [1e200, 0]], "NotNormalized"),
        ("density", [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]], "TraceNotOne"),
        ("density", [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]], "non-finite entries"),
    ],
)
def test_run_state_whose_norm_or_trace_is_not_finite_exits_one_warning_nothing(
    tmp_path, capsys, kind, data, error, normalize
):
    # the norm or the trace overflows to inf, or normalizing by it scales the
    # data to zero, or a NaN entry makes the trace NaN; each fails the state's
    # own check, with no numpy warning
    state = {"kind": kind, "data": data, "normalize": normalize}
    path = write_qubit_scenario(tmp_path, initial_state=state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path]) == 1
    assert error in capsys.readouterr().err


def test_run_observable_with_a_subnormal_entry_exits_zero(tmp_path, capsys):
    # the largest entry is subnormal, so nothing may scale by its reciprocal
    path = write_qubit_scenario(tmp_path, observable=[[[5e-324, 0], [0, 0]], [[0, 0], [0, 0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["born"]["outcomes"] == [0.0, 5e-324]


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


def run_strict(argv, script=_MAIN):
    """The CLI in a fresh interpreter that turns every warning into an error."""
    env = {**os.environ, "PYTHONPATH": str(Path(qmeasure.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(_SCENARIOS / "eigenstate.json")],
        ["run", str(_SCENARIOS / "mixed_splitter.json")],
        ["cat", "--c1", "0.6", "--c2", "0,0.8", "--chain", "7"],
        ["compare", str(_SCENARIOS / "qubit_0608.json"), "--random", "20"],
        ["verify"],
    ],
    ids=["run, default readout", "run, generators", "cat", "compare", "verify"],
)
def test_no_verb_imports_numpy_ma(argv):
    # np.unique imports numpy.ma, about 20 ms and 0.5 MB of every start
    script = (
        "import sys; from qmeasure.cli import main; code = main(sys.argv[1:]); "
        "print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    result = run_strict(argv, script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


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
    assert f"ValidationError: algebra_generators: {message}" in capsys.readouterr().err
    strict = run_strict(["run", path])
    assert strict.returncode == 1, strict.stderr
    assert message in strict.stderr


_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
_Z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]


@pytest.mark.parametrize(
    "overrides, line",
    [
        (
            {"observable": [[[0, 0], [1e308, 0]], [[1e308, 0], [0, 0]]]},
            "ValidationError: observable: generator 0 values span more than the largest float",
        ),
        (
            {"algebra_generators": [_X, _Z]},
            "NotCommuting: algebra_generators: observables 0 and 1 do not commute",
        ),
        # with no pointer_values the eigenvalues stand in for them, and the
        # idle value below -1.7976931348623157e308 is not finite
        (
            {
                "observable": [[[-1.7976931348623157e308, 0], [0, 0]], [[0, 0], [0, 0]]],
                "apparatus": {"dim": 3},
            },
            "ValidationError: observable: pointer values with the idle value below them "
            "are not all finite",
        ),
    ],
    ids=["observable", "algebra_generators", "eigenvalues as pointer values"],
)
def test_run_names_the_field_an_algebra_cannot_be_built_from(tmp_path, capsys, overrides, line):
    # the algebra is built when the document runs, not when it is parsed, and
    # its error keeps its type but names the field, as a parse error does
    assert main(["run", write_qubit_scenario(tmp_path, **overrides)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


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


def test_run_accepts_commuting_generators_with_a_subnormal_largest_entry(tmp_path):
    # the second generator's largest entry is subnormal: a commutator taken in
    # units of its reciprocal overflows and reports a false NotCommuting
    x_idle = np.zeros((4, 4))
    x_idle[2, 3] = x_idle[3, 2] = 1.0
    generators = [np.diag([0.0, 1.0, -1.0, -1.0]), np.diag([5e-324, 0.0, 0.0, 0.0]), x_idle]
    path = write_qubit_scenario(
        tmp_path,
        apparatus={"dim": 4},
        algebra_generators=[[[[float(x), 0] for x in row] for row in g] for g in generators],
    )
    strict = run_strict(["run", path, "--format", "json"])
    assert strict.returncode == 0, strict.stderr
    assert len(json.loads(strict.stdout)["restricted"]["characters"]) == 4


def test_run_judges_a_small_pointer_readout_by_its_own_size(tmp_path):
    # the identity generates no algebra that holds the readout [0, 1e-12], as
    # it holds none for [0, 1]; an absolute floor of 1e-9 on the transform's
    # defect once let the small readout in, and run exited 2 on a deviation
    # of 0.64 between the routes
    messages = []
    for values in ([0, 1e-12], [0, 1]):
        path = write_qubit_scenario(
            tmp_path,
            apparatus={"dim": 2, "pointer_values": values},
            algebra_generators=[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        )
        strict = run_strict(["run", path])
        assert strict.returncode == 1, strict.stderr
        messages.append(strict.stderr.split("(defect")[0])
    assert messages[0] == messages[1]
    assert "the generated algebra does not contain the pointer readout" in messages[0]


@pytest.mark.parametrize(
    "values, dim", [([1.0, 1.0000000000001], 2), ([0, 1e-300], 7)], ids=["close", "idle"]
)
def test_run_rejects_pointer_values_the_readout_merges(tmp_path, values, dim):
    # distinct values within the pointer readout's cluster width fall in one
    # point, and the run once exited 2 on a deviation of 0.64; at dim 7 the
    # idle value -1 widens the width past the gap that dim 2 resolves
    path = write_qubit_scenario(tmp_path, apparatus={"dim": dim, "pointer_values": values})
    strict = run_strict(["run", path])
    assert strict.returncode == 1, strict.stderr
    assert "ValidationError: pointer values" in strict.stderr
    assert "apart fall in one readout point" in strict.stderr
    if dim == 7:
        path = write_qubit_scenario(tmp_path, apparatus={"dim": 2, "pointer_values": values})
        assert run_strict(["run", path]).returncode == 0


@pytest.mark.parametrize(
    "values", [[1, 1], [1.7e308, -1.7e308], [1.0, 1.0000000000001]], ids=["equal", "span", "merged"]
)
@pytest.mark.parametrize("verb", ["run", "compare"])
def test_pointer_values_the_readout_cannot_take_exit_one_from_run_and_compare(
    tmp_path, capsys, verb, values
):
    # compare reads only system_dim and seed, but validates the whole document
    path = write_qubit_scenario(tmp_path, apparatus={"dim": 2, "pointer_values": values})
    assert main([verb, path]) == 1
    assert "ValidationError: apparatus.pointer_values" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "compare"])
def test_pointer_values_are_checked_once_per_verb(tmp_path, monkeypatch, verb):
    calls = []
    check = scenario.pointer_diagonal

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(scenario, "pointer_diagonal", counted)
    path = write_qubit_scenario(tmp_path, apparatus={"dim": 3, "pointer_values": [4, 6]})
    assert main([verb, path]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, eigvalsh_calls, judge_calls",
    # mixed_splitter: the density, the observable and the two generators, all
    # at parse time; never the density's factor rows or the pointer readout
    # the run builds
    [("mixed_splitter.json", 1, 4), ("dense_ququart.json", 0, 1)],
)
def test_run_checks_each_document_value_once(monkeypatch, capsys, name, eigvalsh_calls, judge_calls):
    calls = {"eigvalsh": 0, "judge": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(linalg, "judge_hermitian", counted("judge", linalg.judge_hermitian))
    assert main(["run", str(_SCENARIOS / name)]) == 0
    assert (calls["eigvalsh"], calls["judge"]) == (eigvalsh_calls, judge_calls)


@pytest.mark.parametrize("seed, code", [(2**64, 1), (2**64 - 1, 0), (-1, 1)])
def test_compare_seed_takes_the_document_seed_range(tmp_path, capsys, seed, code):
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", "5", f"--seed={seed}"]) == code
    from_argv = capsys.readouterr().err
    path = write_qubit_scenario(tmp_path, seed=seed)
    assert main(["compare", path, "--random", "5"]) == code
    assert capsys.readouterr().err == from_argv
    if code:
        assert "seed must fit in 64 bits" in from_argv


@pytest.mark.parametrize("scale", [1e-315, 1e-320])
def test_run_accepts_a_subnormal_splitter_on_the_idle_block(tmp_path, scale):
    # an eigensolver returns subnormal values to no relative accuracy, so a
    # generator's reproduction defect is judged no finer than the least normal
    # float; judged against its own subnormal size, this splitter fails
    splitter = np.zeros((6, 6), dtype=complex)
    splitter[2:, 2:] = scale * rand_hermitian(4, substream(181))
    generators = [np.diag([0.0, 1.0, -1.0, -1.0, -1.0, -1.0]), splitter]
    path = write_qubit_scenario(
        tmp_path,
        apparatus={"dim": 6},
        algebra_generators=[
            [[[float(x.real), float(x.imag)] for x in row] for row in g] for g in generators
        ],
    )
    strict = run_strict(["run", path])
    assert strict.returncode == 0, strict.stderr


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e12])
def test_run_judges_hermiticity_in_units_of_the_largest_entry(tmp_path, scale):
    # one ulp of asymmetry in the off-diagonal entry is roundoff at any scale;
    # an antisymmetric one is not Hermitian at any scale
    next_up = float(np.nextafter(scale, np.inf))
    for lower, code in ((next_up, 0), (-scale, 1)):
        observable = [[[0.0, 0], [scale, 0]], [[lower, 0], [3 * scale, 0]]]
        strict = run_strict(["run", write_qubit_scenario(tmp_path, observable=observable)])
        assert strict.returncode == code, strict.stderr
        if code:
            assert "NotHermitian" in strict.stderr


def _pairs(a):
    """A complex array as nested [re, im] pairs."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1.0, 1e18),
    trials=st.sampled_from([0, 100]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_run_statistics_do_not_change_when_the_apparatus_is_padded(d, seed, scale, trials, data):
    # pointer values on a grid of scale / 1000, so at least 1e-3 of the
    # largest of 1 and their magnitudes apart; apparatus.dim = d + k
    grid = data.draw(st.lists(st.integers(-1000, 1000), min_size=d, max_size=d, unique=True))
    rng = substream(seed)
    doc = {
        "system_dim": d,
        "initial_state": {"kind": "vector", "data": _pairs(rand_state(d, rng))},
        "observable": _pairs(rand_hermitian(d, rng)),
        "apparatus": {"pointer_values": [g * scale / 1000 for g in grid]},
        "trials": trials,
        "seed": 3,
    }
    payloads = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        for k in (0, 1, 7, 200):
            doc["apparatus"]["dim"] = d + k
            path.write_text(json.dumps(doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["run", str(path), "--format", "json"]) == 0, k
            payloads.append(json.loads(out.getvalue()))
    bare = payloads[0]
    for padded in payloads[1:]:
        for key in ("born", "collapsed_diag", "empirical", "max_deviation"):
            assert padded[key] == bare[key], key
        # one idle point of weight 0 below the pointer values' points
        chars, weights = padded["restricted"]["characters"], padded["restricted"]["weights"]
        assert chars[1:] == bare["restricted"]["characters"]
        assert weights == [0.0, *bare["restricted"]["weights"]]
        assert chars[0] < chars[1]


@pytest.mark.xfail(
    strict=True,
    reason="padding rejects tiny pointer values (CHANGES.md, FOUND on apparatus padding): "
    "the idle value sits near -1, so the cluster width of the padded diagonal dwarfs "
    "their gap; ROADMAP item 5",
)
def test_padding_accepts_pointer_values_near_the_smallest_float(tmp_path):
    # pointer values 1e-300 apart, far below the padding property's grid
    codes = []
    for dim in (2, 3):
        apparatus = {"dim": dim, "pointer_values": [1e-300, 2e-300]}
        path = write_qubit_scenario(tmp_path, apparatus=apparatus)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(["run", path, "--format", "json"]))
    assert codes == [0, 0]


def test_run_factors_the_hermitian_part_of_a_density(tmp_path, capsys):
    # a density skewed on its lower triangle by just under the Hermiticity
    # tolerance, 5e-11 at a largest entry of 1/2; eigh reads one triangle,
    # and through it the uniform Fourier column would get 63 x 4.9e-11 / 2 =
    # 1.5e-9 more weight than the Born and collapse routes give it
    d = 64
    rho = np.diag(np.r_[0.5, np.full(d - 1, 0.5 / (d - 1))]).astype(complex)
    rho[np.tril_indices(d, -1)] += 4.9e-11
    f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    observable = f @ np.diag(np.arange(d, dtype=float)) @ f.conj().T

    def pairs(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    path = write_qubit_scenario(
        tmp_path,
        system_dim=d,
        initial_state={"kind": "density", "data": pairs(rho)},
        observable=pairs(observable),
        apparatus={"dim": d},
    )
    assert main(["run", path]) == 0


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
    "apparatus, code",
    [
        ({"dim": 3, "pointer_values": [-1.79e308, -1.7e308]}, 0),
        # two idle columns near the limit: their point's trace must not overflow
        ({"dim": 4, "pointer_values": [-1.79e308, -1.7e308]}, 0),
        ({"dim": 4, "pointer_values": [1.7e308, 1.79e308]}, 0),
        # the idle value would have to lie below the least float
        ({"dim": 4, "pointer_values": [-1.7976931348623157e308, -1e308]}, 1),
    ],
    ids=["one idle column", "two idle columns", "two idle columns near +max", "no room below"],
)
def test_run_pointer_values_near_the_float_limit_exit_zero_or_one(tmp_path, apparatus, code):
    path = write_qubit_scenario(tmp_path, apparatus=apparatus)
    strict = run_strict(["run", path])
    assert strict.returncode == code, strict.stderr
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


def test_cat_deviation_above_tol_exits_two(capsys, monkeypatch):
    # the cat's routes agree to the bit, so even --tol 0 passes; a
    # premeasurement that swaps the two pointer columns puts the restriction
    # 0.64 - 0.36 = 0.28 off the Born weights
    argv = ["cat", "--c1", "0.6", "--c2", "0,0.8", "--chain", "3"]
    assert main(argv + ["--tol", "0"]) == 0
    monkeypatch.setattr(measurement, "premeasure", misregistered)
    assert main(argv + ["--tol", "0.3"]) == 0
    assert main(argv) == 2
    assert "born-vs-restrict deviation 2.800e-01 at outcome 0 exceeds --tol" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["run", str(_SCENARIOS / "qutrit_mixed.json")],
        ["cat", "--chain", "7", "--c1", "0.6,0", "--c2", "0,0.8"],
    ],
    ids=["run_mixed", "cat"],
)
def test_a_misregistering_premeasure_exits_two(capsys, monkeypatch, argv):
    # outcome j registers on pointer column j + 1 (mod d): both routes
    # premeasure, so the restriction moves off the Born weights, which are
    # unequal here so that the swap shows; both read the state through
    # measurement.route_weights, so exit 2 names that route and outcome
    assert main(argv) == 0
    monkeypatch.setattr(measurement, "premeasure", misregistered)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: born-vs-restrict deviation" in err
    assert "at outcome 0 exceeds --tol" in err


def test_cat_bad_amplitudes_exit_one(capsys):
    assert main(["cat", "--c1", "1", "--c2", "1"]) == 1
    assert "BadAmplitudes" in capsys.readouterr().err


@pytest.mark.parametrize("c1, c2", [("nan,0", "1,0"), ("1,0", "0,nan")])
def test_cat_nan_amplitude_exits_one(capsys, c1, c2):
    assert main(["cat", "--chain", "3", "--c1", c1, "--c2", c2]) == 1
    assert "BadAmplitudes" in capsys.readouterr().err


@pytest.mark.parametrize("c1", ["1e308", "1e308,1e308"])
def test_cat_amplitude_whose_square_overflows_exits_one(capsys, c1):
    # |c1|^2 overflows to inf, which fails the amplitude check like any other bad total
    assert main(["cat", "--chain", "3", "--c1", c1, "--c2", "0"]) == 1
    err = capsys.readouterr().err
    assert "BadAmplitudes" in err and "internal error" not in err


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
    err = capsys.readouterr().err
    assert "error: collapse-vs-restrict deviation" in err
    assert "at case 3 (stream key [11, 2, 3]) exceeds --tol" in err


# 2^24 + 1 is one case over the array budget: rejected before the per-case
# array exists
@pytest.mark.parametrize("n_random", ["0", "16777217"])
def test_compare_oversized_random_exits_one(tmp_path, capsys, n_random):
    path = write_qubit_scenario(tmp_path)
    assert main(["compare", path, "--random", n_random]) == 1
    err = capsys.readouterr().err
    assert "ValidationError" in err
    assert "n_random" in err


class _Drawn(Exception):
    pass


def _refuse_draws(*args, **kwargs):
    raise _Drawn


@pytest.mark.parametrize("d, n_random", [(2, 2**22 + 1), (64, 2**12 + 1)])
def test_compare_work_over_the_budget_exits_one_before_drawing(
    tmp_path, capsys, monkeypatch, d, n_random
):
    # n_random * d^2 past MAX_ARRAY_ELEMENTS: a case drawn would exit 3
    monkeypatch.setattr(scenario, "draw_cases", _refuse_draws)
    diagonal = [[[float(i) if i == j else 0.0, 0] for j in range(d)] for i in range(d)]
    path = write_qubit_scenario(
        tmp_path,
        system_dim=d,
        initial_state={"kind": "vector", "data": [[1, 0]] + [[0, 0]] * (d - 1)},
        observable=diagonal,
        apparatus={"dim": d},
    )
    assert main(["compare", path, "--random", str(n_random)]) == 1
    assert capsys.readouterr().err == (
        f"error: ValidationError: n_random: {n_random} cases at dimension {d} need "
        f"{n_random * d * d} elements, over the limit of {scenario.MAX_ARRAY_ELEMENTS}\n"
    )
    # at the limit the cases are drawn
    with pytest.raises(_Drawn):
        scenario.compare_collapse_vs_restriction(d, n_random - 1, 1)


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
    assert main(["cat", "--no-such-flag"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_the_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    path = write_qubit_scenario(tmp_path)
    calls = [
        ["run", path],
        ["cat", "--c1", "0.6", "--c2", "0,0.8", "--chain", "2"],
        ["compare", path, "--random", "2"],
        ["verify"],
    ]
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert [main(argv) for argv in calls] == [0, 0, 0, 0]
    assert len(built) > 0
    del built[:]
    assert [main(argv) for argv in calls] == [0, 0, 0, 0]
    assert built == []


def test_in_process_calls_share_no_state(tmp_path, capsys):
    # the same observable as test_run_impossible_tol_exits_two: a strictly
    # positive roundoff deviation, so --tol 0 exits 2 and the default exits 0
    path = write_qubit_scenario(tmp_path, observable=[[[1, 0], [0, -0.5]], [[0, 0.5], [2, 0]]])
    assert main(["cat", "--chain", "x", "--c1", "0.6", "--c2", "0,0.8"]) == 1
    assert main(["--help"]) == 0
    assert main(["run", path, "--tol", "0"]) == 2
    assert main(["cat", "--c1", "1", "--c2", "1"]) == 1
    capsys.readouterr()
    golden = Path(__file__).resolve().parent / "golden" / "cat_chain7.json"
    argv = ["cat", "--chain", "7", "--c1", "0.6,0", "--c2", "0,0.8", "--format", "json"]
    assert main(argv) == 0
    assert capsys.readouterr().out == golden.read_text()
    assert main(["run", path]) == 0


# markers json.dumps writes as strings, replaced in the text by what no
# json.dumps writes: an integer literal past Python's 4300-digit limit and
# brackets nested past the recursion limit
_RAW_TEXT = {"__huge_literal__": "9" * 5000, "__deep__": "[" * 5000 + "]" * 5000}
_PLAIN = st.one_of(st.integers(-3, 3), st.floats(-4, 4))
_EXTREME = st.one_of(
    st.floats(),
    st.sampled_from([1e308, -1e308, 1.5e308, 1e200, 5e-324, -5e-324, 1e-300, 2**64, 10**400]),
)
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([[], {}, [[]], [[0, 0]], {"kind": "vector"}]),
    st.lists(st.integers(-1, 1), max_size=3),
)
_SIZES = st.sampled_from([0, 1, 2, 3, 50, -1, 2**24 + 1, 10**30, 1.5, True])


@st.composite
def _scenario_texts(draw):
    """A scenario document's text: the right structure, of system dim 1 to 3,
    its vectors and Hermitian or diagonal matrices of plain numbers or of
    numbers of any size, NaN and infinities included, a density's diagonal
    not negative; and up to three of its fields swapped for wrong types or
    sizes, dropped, or added."""
    numbers = draw(st.sampled_from([_PLAIN, st.one_of(_PLAIN, _EXTREME)]))
    d = draw(st.integers(1, 3))
    dim = d + draw(st.integers(0, 2))

    def pair():
        return [draw(numbers), draw(numbers)]

    def matrix(n, positive=False):
        m = [[[0, 0] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][i] = [abs(draw(numbers)) if positive else draw(numbers), 0]
        if draw(st.booleans()):  # else diagonal
            for i in range(n):
                for j in range(i + 1, n):
                    m[i][j] = pair()
                    m[j][i] = [m[i][j][0], -m[i][j][1]]
        return m

    kind = draw(st.sampled_from(["vector", "density"]))
    doc = {
        "system_dim": d,
        "initial_state": {
            "kind": kind,
            "data": [pair() for _ in range(d)] if kind == "vector" else matrix(d, True),
            "normalize": draw(st.sampled_from([True, True, True, False])),
        },
        "observable": matrix(d),
        "apparatus": {"dim": dim},
        "trials": draw(_SIZES),
        "seed": draw(st.sampled_from([0, 7, -1, 2**64 - 1, 2**64, 1.5])),
    }
    if draw(st.booleans()):
        doc["apparatus"]["pointer_values"] = [draw(numbers) for _ in range(d)]
    if draw(st.booleans()):
        doc["algebra_generators"] = [matrix(dim) for _ in range(draw(st.integers(1, 2)))]
    fields = [
        (doc, "system_dim"),
        (doc, "observable"),
        (doc, "apparatus"),
        (doc, "trials"),
        (doc, "seed"),
        (doc, "extra"),
        (doc["initial_state"], "data"),
        (doc["initial_state"], "kind"),
        (doc["initial_state"], "normalize"),
        (doc["apparatus"], "dim"),
        (doc["apparatus"], "pointer_values"),
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        where, key = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            markers = st.sampled_from(list(_RAW_TEXT))
            where[key] = draw(st.one_of(_JUNK, _EXTREME, _SIZES, markers))
        else:
            where.pop(key, None)
    text = json.dumps(doc)
    for marker, raw in _RAW_TEXT.items():
        text = text.replace(f'"{marker}"', raw)
    return text


_AMPLITUDES = ["0.6", "0,0.8", "1", "0", "1e308", "1e308,1e308", "nan,0", "1,2,3", "x", ""]
# each option with values it takes and values it rejects
_OPTIONS = {
    "--format": ["json", "table", "yaml"],
    "--tol": ["0", "1e-9", "-1", "nan", "inf", "1e308"],
    "--c1": _AMPLITUDES,
    "--c2": _AMPLITUDES,
    "--chain": ["1", "3", "0", "25", "-1", "9" * 5000],
    "--random": ["1", "3", "0", "-1", str(2**24 + 1), "9" * 5000],
    "--seed": ["0", "-1", str(2**64 - 1), str(2**64)],
}
_VERB_OPTIONS = {"cat": ["--chain"], "compare": ["--random", "--seed"]}


@st.composite
def _argvs(draw, path):
    """An argv list: a verb, the scenario path where the verb takes one, up
    to three of the verb's options with drawn values, and one time in ten a
    stray token."""
    verb = draw(st.sampled_from(["run", "run", "run", "compare", "cat", "verify", "frobnicate"]))
    argv = [verb, path] if verb in ("run", "compare") else [verb]
    flags = ["--c1", "--c2"] if verb == "cat" else []
    takes = ["--format", "--tol", *_VERB_OPTIONS.get(verb, ())]
    flags += draw(st.lists(st.sampled_from(takes), max_size=3))
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_OPTIONS[flag]))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--help", "", "x", path])))
    return argv


@given(text=_scenario_texts(), data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_document_or_argv_exits_three(text, data):
    # exit 3 is an internal error: every input, however malformed or extreme,
    # must exit 0, 1 or 2; warnings are errors here, so a RuntimeWarning in
    # the package also exits 3. Sizes stay far below MAX_ARRAY_ELEMENTS, and
    # main runs in this process
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        argv = data.draw(_argvs(str(path)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, text[:2000], err.getvalue())
