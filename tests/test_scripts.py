"""Exit codes of scripts/equivalence_sweep.py and scripts/cat_demo.py follow
the CLI: 0 agreement, 1 usage or validation error, 2 a gap above --tol."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main_of(name: str):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.fixture(scope="module")
def sweep():
    return _main_of("equivalence_sweep")


@pytest.fixture(scope="module")
def cat_demo():
    return _main_of("cat_demo")


_SMALL = ["--dims", "2", "3", "--random", "3"]


def test_small_sweep_exits_zero(sweep, capsys):
    assert sweep(_SMALL) == 0
    assert "overall worst" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        _SMALL + ["--tol", "nan"],
        _SMALL + ["--tol", "inf"],
        _SMALL + ["--tol", "-1"],
        ["--dims", "2", "3", "--random", "0"],
        ["--dims", "0", "1", "--random", "3"],
        ["--dims", "3", "2"],
        ["--no-such-flag"],
    ],
)
def test_usage_and_validation_errors_exit_one(sweep, capsys, argv):
    assert sweep(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_gap_above_tol_exits_two(sweep, capsys):
    # the routes agree to roundoff, not exactly, so --tol 0 trips the gate
    assert sweep(_SMALL + ["--tol", "0"]) == 2
    assert "equivalence violated" in capsys.readouterr().err


def test_cat_demo_exits_zero(cat_demo, capsys):
    assert cat_demo(["--max-chain", "3"]) == 0
    assert capsys.readouterr().out.count("\n") == 5  # weights, header, 3 rows


@pytest.mark.parametrize(
    "argv",
    [
        ["--max-chain", "25"],
        ["--max-chain", "0"],
        ["--c1", "0.6", "--c2", "0.9", "--max-chain", "3"],
        ["--c1", "zebra"],
        ["--tol", "nan"],
        ["--no-such-flag"],
    ],
)
def test_cat_demo_usage_and_validation_errors_exit_one(cat_demo, capsys, argv):
    assert cat_demo(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cat_demo_deviation_above_tol_exits_two(cat_demo, capsys):
    # |c1|^2 L + |c2|^2 (-L) misses the branch split by one ulp here
    argv = ["--c1", "0.5,0.5", "--c2", "0.7071067811865475", "--max-chain", "1"]
    assert cat_demo(argv) == 0
    assert cat_demo(argv + ["--tol", "0"]) == 2
    assert "exceeds --tol" in capsys.readouterr().err
