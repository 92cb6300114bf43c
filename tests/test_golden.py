"""Exact output bytes of the JSON reports, pinned against committed files.

Each case runs one CLI invocation in process and compares its stdout with
tests/golden/<name>.json byte for byte, so a change that moves any printed
digit fails here. To regenerate the files after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qmeasure.cli import main

_ROOT = Path(__file__).resolve().parent.parent
_GOLDEN = Path(__file__).resolve().parent / "golden"
_SCENARIOS = _ROOT / "scenarios"

# name of the expected-output file: CLI arguments
CASES = {
    "run_qubit_0608": ["run", str(_SCENARIOS / "qubit_0608.json")],
    "run_qutrit_mixed": ["run", str(_SCENARIOS / "qutrit_mixed.json")],
    "run_eigenstate": ["run", str(_SCENARIOS / "eigenstate.json")],
    "run_dense_ququart": ["run", str(_SCENARIOS / "dense_ququart.json")],
    "run_mixed_splitter": ["run", str(_SCENARIOS / "mixed_splitter.json")],
    "compare_qubit_0608": ["compare", str(_SCENARIOS / "qubit_0608.json")],
    "compare_qutrit_mixed": [
        "compare", str(_SCENARIOS / "qutrit_mixed.json"), "--random", "50", "--seed", "3",
    ],
    "compare_eigenstate": ["compare", str(_SCENARIOS / "eigenstate.json"), "--random", "50"],
    **{
        f"cat_chain{n}": ["cat", "--chain", str(n), "--c1", "0.6,0", "--c2", "0,0.8"]
        for n in (3, 7, 10, 16)
    },
    "verify": ["verify"],
}


def json_output(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_the_golden_bytes(name):
    code, out = json_output(CASES[name])
    assert code == 0
    assert out == (_GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    _GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = json_output(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (_GOLDEN / f"{name}.json").write_text(out)
