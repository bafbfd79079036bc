#!/usr/bin/env python3
"""Check that this tree writes the same bytes as another revision of decopt.

    python scripts/parent_diff.py REV OUT

exports REV with `git archive` into OUT/tree (no worktree, no network), then
runs, in that tree and in this one, the six figure presets (fig1 with
--synthetic-logistic) and CI's batched-trace-row, MNIST-format and lone
EXTRA grid configs, each process at one BLAS thread, into OUT/parent and
OUT/change: 81 files a tree. The MNIST format runs on one synthetic IDX pair
in OUT/data, written by this tree's scripts/synthetic_idx.py. The lone grid
(no stop threshold, three blocks of four stepsizes at the fig2 shape) is the
one grid search that `decopt run` makes, outside compare. Exits 1 unless
`trace_diff.py --exact` finds every output file byte-identical and every
pair of manifests equal apart from when and where it was written. OUT must
not exist or be empty. On a 2-CPU VM the two trees take about 50 s.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
from pathlib import Path

from trace_diff import compare_exact

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("fig1_line", "fig1_er01", "fig1_er09", "fig2_line", "fig2_er01", "fig2_er09")
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# runs decopt's CLI from the tree given first, and fails if decopt is imported from elsewhere
CLI = ("import sys, decopt; from decopt import cli\n"
       "if not decopt.__file__.startswith(sys.argv[1]):\n"
       "    sys.exit(f'decopt imported from {decopt.__file__}')\n"
       "sys.exit(cli.main(sys.argv[2:]))")
# CI's "Batched trace rows" config
BATCH = """\
problem: {kind: ridge, m: 20, n: 20, d: 500}
graph: {kind: erdos_renyi, m: 20, p: 0.9}
algorithm: {kind: adolf, mode: strongly_convex, alpha0: 1.0e-3, sigma: 0.2}
init: {kind: zeros}
stop: {max_iter: 400, metric: merit, threshold: 1.0e-6, cadence: 7}
diagnostics: {cadence: 1, saddle: true}
name: batch_rows
master_seed: 0
"""
# CI's "EXTRA grid" config: a lone grid search under `decopt run`
GRID = """\
problem: {kind: ridge, m: 20, n: 20, d: 500}
graph: {kind: erdos_renyi, m: 20, p: 0.9}
algorithm: {kind: extra, budget: 200,
            grid: [1.0e-5, 3.5e-5, 1.2e-4, 4.3e-4, 1.5e-3, 5.3e-3, 1.9e-2, 6.6e-2,
                   0.23, 0.82, 2.9, 10.0]}
init: {kind: zeros}
stop: {max_iter: 200}
diagnostics: {cadence: 10, saddle: true}
name: lone_grid
master_seed: 0
"""
# CI's "MNIST-format run" config, on the IDX pair in {data}
MNIST = """\
problem: {{kind: mnist, m: 20, images_path: {data}/train-images-idx3-ubyte,
          labels_path: {data}/train-labels-idx1-ubyte}}
graph: {{kind: erdos_renyi, m: 20, p: 0.3}}
algorithm: {{kind: adolf_local, mode: convex}}
stop: {{max_iter: 30}}
diagnostics: {{saddle: true, cadence: 1}}
name: mnist_lanes
master_seed: 0
"""


def export(rev: str, dest: Path) -> None:
    """Write the files of rev into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def run_all(tree: Path, out: Path, configs: Path) -> None:
    """Every preset and config, run by decopt from tree/src, into out."""
    src = str(tree / "src")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": src}
    commands = [["preset", name, "--out", str(out / "presets")]
                + (["--synthetic-logistic"] if name.startswith("fig1") else [])
                for name in PRESETS]
    commands += [["run", str(configs / f"{name}.yaml"), "--out", str(out / name)]
                 for name in ("batch", "grid", "mnist")]
    for command in commands:
        print(f"{out.name}: decopt {' '.join(command)}", flush=True)
        subprocess.run([sys.executable, "-c", CLI, src, *command], env=env, check=True,
                       stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="the revision to compare with, e.g. HEAD^")
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    tree, data, configs = out / "tree", out / "data", out / "configs"
    tree.mkdir(parents=True)
    configs.mkdir()
    export(args.rev, tree)
    subprocess.run([sys.executable, str(ROOT / "scripts" / "synthetic_idx.py"), str(data)],
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True)
    (configs / "batch.yaml").write_text(BATCH)
    (configs / "grid.yaml").write_text(GRID)
    (configs / "mnist.yaml").write_text(MNIST.format(data=data))
    run_all(tree, out / "parent", configs)
    run_all(ROOT, out / "change", configs)
    report, problems = compare_exact(out / "parent", out / "change")
    print("\n".join(report))
    for line in problems:
        print(f"FAIL {line}")
    print(f"{'FAIL' if problems else 'PASS'}: {len(report)} files of {args.rev} and this tree "
          f"compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
