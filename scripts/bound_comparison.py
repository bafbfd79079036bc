#!/usr/bin/env python3
"""Tabulate the classical network-coupled stepsize bound against the
network-free curvature guard.

The classical admissibility condition couples the stepsize to the network
through ||I - W_tilde||; bounding that norm by its worst case (2) gives the
conservative value practitioners would have to use without spectral
knowledge. The curvature guard, stepsize.curvature_guard at c1 = 1, that is
1/(sqrt(L^2 + 2 sigma) + L), needs no network quantity at all. The two
certify descent of different Lyapunov functions, so the table is a
conservativeness comparison, not an inequality claim.

    python scripts/bound_comparison.py --graph-m 20 --graph-p 0.9
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from decopt.diagnostics import classical_stepsize_bound  # noqa: E402
from decopt.stepsize import curvature_guard  # noqa: E402
from decopt.topology import make_erdos_renyi, metropolis_hastings  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graph-m", type=int, default=20)
    parser.add_argument("--graph-p", type=float, default=0.9)
    parser.add_argument("--graph-seed", type=int, default=0)
    parser.add_argument("--sigma", type=float, nargs="+", default=[0.1, 1.0, 10.0])
    parser.add_argument("--smoothness", type=float, nargs="+",
                        default=[0.5, 2.0, 10.0, 50.0])
    args = parser.parse_args()

    w_tilde = metropolis_hastings(make_erdos_renyi(args.graph_m, args.graph_p, args.graph_seed))
    actual_norm = float(np.linalg.norm(np.eye(args.graph_m) - w_tilde, 2))
    print(f"graph: G({args.graph_m}, {args.graph_p}), ||I - W_tilde|| = {actual_norm:.3f} "
          f"(worst case 2.0)\n")
    header = (f"{'L':>8} {'sigma':>8} {'classical(exact norm)':>22} "
              f"{'classical(norm<=2)':>19} {'curvature guard':>16}")
    print(header)
    print("-" * len(header))
    for l_const in args.smoothness:
        for sigma in args.sigma:
            exact = classical_stepsize_bound(l_const, sigma, actual_norm)
            worst = classical_stepsize_bound(l_const, sigma, 2.0)
            guard = curvature_guard(l_const, sigma, 1.0)
            print(f"{l_const:>8.2f} {sigma:>8.2f} {exact:>22.5f} {worst:>19.5f} {guard:>16.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
