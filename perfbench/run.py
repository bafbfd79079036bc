#!/usr/bin/env python3
"""Benchmark of decopt's figure presets, end to end and layer by layer.

Run from the root of a decopt checkout:

    python3 perfbench/run.py --workload fig2_er09 --seed 0 --seconds 15 --trace 0

One process, one caller, closed loop: each repetition is one
``runner.compare`` call on the workload's config set (the work of
``decopt preset``), writing every output file to a scratch directory under
``.perfbench/``, and the next starts when it returns. Repetitions continue
while another one fits in ``--seconds``; at least three run, and every run's
trace CSV must be byte-identical across them. With ``--trace 1`` one more
repetition runs with every layer boundary wrapped, and the per-layer
metrics come from it alone.

Every run passes through the correctness gate in workloads.py and the
phase-coverage check below; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("fig2_er09", "ridge_trace_dense", "logistic_mnist_shape")

# Byte-exact traces hold only at a fixed BLAS thread count (fig2_er09's final
# distance_sq changes in the 10th significant digit between 1 and 2 OpenBLAS
# threads).
# One thread: on a 2-CPU machine, 1-second chunks of fig2_er09 iterations
# ran about 12% faster with 2 threads but spread 15-20% (quartile distance
# over median) against 4-7% with 1.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="master_seed of the instance")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the measured repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced repetition")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    spec_path, src = root / "BENCHMARK.json", root / "src"
    if not (src / "decopt" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a decopt checkout "
              "(needs src/decopt and BENCHMARK.json)", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import decopt  # imports numpy, so only after the thread count is fixed

    if not Path(decopt.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported decopt from {decopt.__file__}, not {src}", file=sys.stderr)
        return 2
    import measure

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = measure.benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               work=root / ".perfbench")
    values = result.pop("metrics")
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(
            f"metrics {sorted(values)} do not match BENCHMARK.json {[m['name'] for m in declared]}"
        )
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
