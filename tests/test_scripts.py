"""Exit codes of scripts/equivalence_sweep.py follow the CLI: 0 agreement,
1 usage or validation error, 2 a gap above --tol."""

import importlib.util
from pathlib import Path

import pytest

_SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "equivalence_sweep.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("equivalence_sweep", _SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


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
