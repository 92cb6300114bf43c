"""Command line interface.

Verbs: run <scenario-file>, cat, compare <scenario-file>, verify.
Exit codes: 0 success, 1 parse or validation failure, 2 a numerical
invariant was violated, 3 internal error.
main(argv) may be called repeatedly in one process; the parser is built on
the first call and reused.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from .errors import ParseError, QmError
from .linalg import DEVIATION_TOL
from .report import emit_checks, emit_report, emit_summary
from .scenario import (
    MAX_CHAIN,
    compare_collapse_vs_restriction,
    parse_scenario,
    run_cat,
    run_scenario,
)
from .verification import run_all


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on usage errors; route them through
    # the package's error mapping instead (bad usage is an input problem)
    def error(self, message):
        raise ParseError(message)


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise argparse.ArgumentTypeError("expected re or re,im")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}")
    return complex(re, im)


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}")
    # a NaN tolerance would make every deviation comparison false
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


# argparse keeps no per-parse state on the parser, so one serves every call
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="qmeasure", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    common.add_argument(
        "--tol",
        type=_tol_arg,
        default=DEVIATION_TOL,
        help="largest tolerated analytic deviation before exit code 2",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", parents=[common], help="run a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON document")

    p_cat = sub.add_parser(
        "cat", parents=[common], help="superpose two macroscopic branches"
    )
    p_cat.add_argument("--c1", type=_complex_arg, required=True, help="amplitude re,im of branch 1")
    p_cat.add_argument("--c2", type=_complex_arg, required=True, help="amplitude re,im of branch 2")
    p_cat.add_argument(
        "--chain", type=int, default=8, help=f"number of two-level cells, 1 to {MAX_CHAIN}"
    )

    p_cmp = sub.add_parser(
        "compare",
        parents=[common],
        help="randomized collapse vs restriction check",
        description="Randomized collapse vs restriction check at the scenario's "
        "dimension. Of the scenario document only system_dim and seed are used; "
        "the whole document is still validated.",
    )
    p_cmp.add_argument(
        "scenario", help="path to a scenario JSON document (only system_dim and seed are used)"
    )
    p_cmp.add_argument("--random", type=int, default=100, help="number of random cases")
    p_cmp.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    sub.add_parser("verify", parents=[common], help="run the built-in invariant suite")
    return parser


def _gate(what: str, deviation: float, tol: float) -> int:
    """Exit code 2 when an analytic deviation exceeds --tol, else 0."""
    if deviation > tol:
        sys.stderr.write(f"error: {what} deviation {deviation:.3e} exceeds --tol {tol:.3e}\n")
        return 2
    return 0


def _read_scenario(path: str):
    """Parse the scenario file at path; a file that is not UTF-8 text is a
    parse failure, like any other malformed document."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    return parse_scenario(text)


def _cmd_run(args) -> int:
    scenario = _read_scenario(args.scenario)
    report = run_scenario(scenario)
    sys.stdout.write(emit_report(report, args.format))
    return _gate("max", report.max_deviation, args.tol)


def _cmd_cat(args) -> int:
    report = run_cat(args.c1, args.c2, chain_length=args.chain)
    if args.format == "table":
        sys.stdout.write(
            f"cat run: chain of {args.chain} cells, branch 1 (alive) at readout "
            f"+{args.chain}, branch 2 (dead) at -{args.chain}\n"
        )
    sys.stdout.write(emit_report(report, args.format))
    return _gate("max", report.max_deviation, args.tol)


def _cmd_compare(args) -> int:
    scenario = _read_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    summary = compare_collapse_vs_restriction(scenario.system_dim, args.random, seed)
    sys.stdout.write(emit_summary(summary, args.format))
    return _gate("worst", summary.worst, args.tol)


def _cmd_verify(args) -> int:
    results = run_all()
    sys.stdout.write(emit_checks(results, args.format))
    return 0 if all(r.passed for r in results) else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    except ParseError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "cat":
            return _cmd_cat(args)
        if args.verb == "compare":
            return _cmd_compare(args)
        return _cmd_verify(args)
    except QmError as err:
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1
    except OSError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except Exception as err:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {type(err).__name__}: {err}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
