#!/usr/bin/env python3
"""Run the benchmark figure presets and collect plot-ready data.

Each preset compares the shared-stepsize adaptive solver, the per-agent
variant, and grid-searched EXTRA on one fixed instance (m=20 agents,
Metropolis-Hastings weights) over a line graph or a random graph. Outputs
land in one directory per preset: per-run CSV traces, a tidy long-format
CSV, a gnuplot block file, and a summary table.

Examples:
    python scripts/reproduce_figures.py --family fig2 --out results/
    python scripts/reproduce_figures.py --family fig1 --synthetic-logistic
    python scripts/reproduce_figures.py --preset fig2_er09
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from decopt.runner import PRESET_NAMES, compare, figure_preset, preset_metric  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", choices=PRESET_NAMES, default=None,
                        help="run a single preset")
    parser.add_argument("--family", choices=("fig1", "fig2"), default=None,
                        help="run all graph variants of one figure family")
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--synthetic-logistic", action="store_true",
                        help="fig1 only: use synthetic data instead of MNIST")
    parser.add_argument("--mnist-images", type=Path, default=None)
    parser.add_argument("--mnist-labels", type=Path, default=None)
    parser.add_argument("--master-seed", type=int, default=0)
    args = parser.parse_args()

    if args.preset:
        names = [args.preset]
    elif args.family:
        names = [n for n in PRESET_NAMES if n.startswith(args.family)]
    else:
        names = list(PRESET_NAMES)

    for name in names:
        configs = figure_preset(
            name,
            synthetic_logistic=args.synthetic_logistic,
            mnist_images=str(args.mnist_images) if args.mnist_images else None,
            mnist_labels=str(args.mnist_labels) if args.mnist_labels else None,
            master_seed=args.master_seed,
        )
        out = args.out / name
        metric = preset_metric(name)
        print(f"== {name} ({metric}) -> {out}")
        start = time.time()
        result = compare(configs, out_dir=out, metric=metric, label=name)
        print(result.summary_table(), end="")
        print(f"   done in {time.time() - start:.0f}s; data: {result.long_path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
