"""Grow a two-branch superposition cell by cell and watch the readout.

At every chain length the restricted measure keeps all its weight on the
two extreme readout values with nothing in between, the interference terms
between the branches stay at zero, and the analytic routes agree to
roundoff, while the Hilbert space dimension doubles each step. Exit codes
follow the CLI: 1 for a usage or validation error, 2 if a deviation
exceeds --tol.
"""

import sys

from qmeasure.cli import _complex_arg, _Parser, _tol_arg
from qmeasure.errors import QmError
from qmeasure.linalg import DEVIATION_TOL
from qmeasure.scenario import MAX_CHAIN, run_cat


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    # the = form (--c2=0,-0.8) keeps argparse from reading a negative part as an option
    parser.add_argument("--c1", type=_complex_arg, default=complex(0.6))
    parser.add_argument("--c2", type=_complex_arg, default=0.8j)
    parser.add_argument("--max-chain", type=int, default=10)
    parser.add_argument("--tol", type=_tol_arg, default=DEVIATION_TOL)
    worst = 0.0
    try:
        args = parser.parse_args(argv)
        if not 1 <= args.max_chain <= MAX_CHAIN:
            parser.error(f"--max-chain must be between 1 and {MAX_CHAIN}")
        w1, w2 = abs(args.c1) ** 2, abs(args.c2) ** 2
        print(f"branch weights |c1|^2 = {w1:.6g}, |c2|^2 = {w2:.6g}")
        print(f"{'cells':>6} {'dim':>9} {'w(top)':>10} {'w(bottom)':>10} "
              f"{'middle':>10} {'cross':>10} {'deviation':>10}")
        for cells in range(1, args.max_chain + 1):
            r = run_cat(args.c1, args.c2, chain_length=cells)
            weights = r.restricted.weights
            middle = float(sum(weights[1:-1])) if len(weights) > 2 else 0.0
            worst = max(worst, r.max_deviation)
            print(
                f"{cells:>6} {2**cells:>9} {float(weights[-1]):>10.6f} "
                f"{float(weights[0]):>10.6f} {middle:>10.3e} "
                f"{max(r.cross_terms):>10.3e} {r.max_deviation:>10.3e}"
            )
    except QmError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if worst > args.tol:
        print(f"deviation {worst:.3e} exceeds --tol {args.tol:g}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
