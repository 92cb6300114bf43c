"""Sweep the collapse vs restriction comparison across system dimensions.

For each dimension the sweep draws random (state, measured basis) pairs,
runs the collapse route and the premeasure-then-restrict route, and prints
the worst and mean elementwise gap. Exit codes follow the CLI: 1 for a
usage or validation error, 2 if any gap exceeds --tol.
"""

import sys

from qmeasure.cli import _Parser, _tol_arg
from qmeasure.errors import QmError
from qmeasure.linalg import DEVIATION_TOL
from qmeasure.scenario import compare_collapse_vs_restriction


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs=2, default=(2, 10), metavar=("LO", "HI"))
    parser.add_argument("--random", type=int, default=200, help="cases per dimension")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=_tol_arg, default=DEVIATION_TOL)
    try:
        args = parser.parse_args(argv)
        lo, hi = args.dims
        if lo > hi:
            parser.error(f"--dims: LO {lo} exceeds HI {hi}")
        print(f"{'dim':>4} {'cases':>6} {'worst':>12} {'mean':>12}")
        overall = 0.0
        for dim in range(lo, hi + 1):
            summary = compare_collapse_vs_restriction(dim, args.random, args.seed)
            overall = max(overall, summary.worst)
            print(
                f"{dim:>4} {summary.n_random:>6} {summary.worst:>12.3e} {summary.mean:>12.3e}"
            )
    except QmError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(f"overall worst: {overall:.3e} (tol {args.tol:g})")
    if overall > args.tol:
        print("equivalence violated", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
