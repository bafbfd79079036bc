#!/usr/bin/env python3
"""Check that this tree writes the same bytes as another revision of decopt, and
the same bytes on one CPU as on all of them.

    python scripts/parent_diff.py REV OUT

exports REV with `git archive` into OUT/tree (no worktree, no network), then
runs the run set in that tree into OUT/parent, in this one into OUT/change,
and in this one again pinned to one CPU (as `taskset -c 0` pins it) into
OUT/one_cpu: 102 files a pass. The run set is the six figure presets (fig1
with --synthetic-logistic) and the configs of run_set, each run a process of
its own at one BLAS thread with RuntimeWarnings as errors. The MNIST format
runs on one synthetic IDX pair in OUT/data, written by this tree's
scripts/synthetic_idx.py.

Exits 1 unless `trace_diff.py --exact` passes on both comparisons, parent
against change and all CPUs against one: every output file byte-identical,
and every pair of manifests equal apart from when and where it was written
and, between CPU counts, its `lanes`, the agent lanes its evaluators ran.
OUT must not exist or be empty. On a 2-CPU VM the three passes take about
60 s.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
from pathlib import Path

import yaml
from trace_diff import EXACT_EXEMPT, compare_exact

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ("fig1_line", "fig1_er01", "fig1_er09", "fig2_line", "fig2_er01", "fig2_er09")
RUN_ENV = {"PYTHONWARNINGS": "error::RuntimeWarning",
           **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
# runs decopt's CLI from the tree given first, and fails if decopt is imported from elsewhere
CLI = ("import sys, decopt; from decopt import cli\n"
       "if not decopt.__file__.startswith(sys.argv[1]):\n"
       "    sys.exit(f'decopt imported from {decopt.__file__}')\n"
       "sys.exit(cli.main(sys.argv[2:]))")
# the fig2 shape, and fig2's constants of the strongly convex adaptive kinds
FIG2 = {"problem": {"kind": "ridge", "m": 20, "n": 20, "d": 500},
        "graph": {"kind": "erdos_renyi", "m": 20, "p": 0.9}, "init": {"kind": "zeros"},
        "diagnostics": {"cadence": 1, "saddle": True}, "master_seed": 0}
STRONGLY_CONVEX = {"mode": "strongly_convex", "alpha0": 1.0e-3, "sigma": 0.2}
GRID = [1.0e-5, 3.5e-5, 1.2e-4, 4.3e-4, 1.5e-3, 5.3e-3, 1.9e-2, 6.6e-2, 0.23, 0.82, 2.9, 10.0]
COMPARE_METRICS = {"ahead": "distance_sq", "laned": "objective_gap", "fixed": "distance_sq"}
ONE_CPU_EXEMPT = EXACT_EXEMPT + ("lanes",)  # a manifest's agent lanes follow the CPU count


def run_set(data: Path) -> dict[str, list[dict]]:
    """Output directory -> the config of its `decopt run`, or the pair of its `decopt
    compare` (metric in COMPARE_METRICS); the mnist kind reads the IDX pair in data."""
    mnist = {"problem": {"kind": "mnist", "m": 20, "images_path": f"{data}/train-images-idx3-ubyte",
                         "labels_path": f"{data}/train-labels-idx1-ubyte"},
             "graph": {"kind": "erdos_renyi", "m": 20, "p": 0.3}, "stop": {"max_iter": 30},
             "diagnostics": {"saddle": True, "cadence": 1}, "master_seed": 0}
    return {
        # trace rows in batches: a merit stop tested every 7 rounds, which it never
        # meets, and a 400-round budget that ends mid-batch
        "batch": [{**FIG2, "name": "batch_rows", "algorithm": {"kind": "adolf", **STRONGLY_CONVEX},
                   "stop": {"max_iter": 400, "metric": "merit", "threshold": 1.0e-6,
                            "cadence": 7}}],
        # the one grid search outside compare; with no stop threshold, its three
        # blocks of four stepsizes all run to the budget
        "grid": [{**FIG2, "name": "lone_grid", "stop": {"max_iter": 200},
                  "algorithm": {"kind": "extra", "budget": 200, "grid": GRID},
                  "diagnostics": {"cadence": 10, "saddle": True}}],
        # a 10 MB feature slab, above the lane cutoff: the saddle's reference solve
        # runs the laned gradient, Hessians and chord steps
        "mnist": [{**mnist, "name": "mnist_lanes",
                   "algorithm": {"kind": "adolf_local", "mode": "convex"}}],
        # no grid: on more than one CPU adolf_local runs ahead in a forked child
        "ahead": [{**FIG2, "name": f"ahead_{kind}", "stop": {"max_iter": 400},
                   "algorithm": {"kind": kind, **STRONGLY_CONVEX}}
                  for kind in ("adolf", "adolf_local")],
        # laned: compare stops the reference solve's lane threads before it forks
        "laned": [{**mnist, "name": f"laned_{kind}", "algorithm": {"kind": kind, "mode": "convex"}}
                  for kind in ("adolf", "adolf_local")],
        # fixed stepsizes: on more than one CPU EXTRA's whole run goes ahead, with its
        # alpha from the config (condat_vu diverges at 0.03 on this shape)
        "fixed": [{**FIG2, "name": f"fixed_{algorithm['kind']}", "stop": {"max_iter": 300},
                   "algorithm": algorithm, "diagnostics": {"cadence": 10, "saddle": True}}
                  for algorithm in ({"kind": "condat_vu", "alpha": 0.01},
                                    {"kind": "extra", "alpha": 0.0144})],
    }


def export(rev: str, dest: Path) -> None:
    """Write the files of rev into dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_all(tree: Path, out: Path, runs: dict, configs: Path, pinned: bool = False) -> None:
    """Every preset and config, run by decopt from tree/src, into out; on one CPU if
    pinned."""
    src = str(tree / "src")
    env = {**os.environ, **RUN_ENV, "PYTHONPATH": src}
    commands = [["preset", name, "--out", str(out / "presets")]
                + (["--synthetic-logistic"] if name.startswith("fig1") else [])
                for name in PRESETS]
    for name, group in runs.items():
        paths = [str(configs / f"{config['name']}.yaml") for config in group]
        commands.append(["run", *paths] if len(group) == 1 else
                        ["compare", *paths, "--metric", COMPARE_METRICS[name], "--label", name])
        commands[-1] += ["--out", str(out / name)]
    for command in commands:
        print(f"{out.name}: decopt {' '.join(command)}", flush=True)
        subprocess.run([sys.executable, "-c", CLI, src, *command], env=env, check=True,
                       stdout=subprocess.DEVNULL, preexec_fn=pin_to_one_cpu if pinned else None)


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
    runs = run_set(data)
    for config in (config for group in runs.values() for config in group):
        (configs / f"{config['name']}.yaml").write_text(yaml.safe_dump(config))
    run_all(tree, out / "parent", runs, configs)
    run_all(ROOT, out / "change", runs, configs)
    run_all(ROOT, out / "one_cpu", runs, configs, pinned=True)
    failed = False
    for title, first, second, exempt in (
            (f"{args.rev} against this tree", "parent", "change", EXACT_EXEMPT),
            ("all CPUs against one", "change", "one_cpu", ONE_CPU_EXEMPT)):
        report, problems = compare_exact(out / first, out / second, exempt)
        print("\n".join(report))
        for line in problems:
            print(f"FAIL {title}: {line}")
        print(f"{'FAIL' if problems else 'PASS'} {title}: {len(report)} files compared, "
              f"{len(problems)} problems")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
