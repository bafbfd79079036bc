"""The benchmark's workloads and the correctness gate applied to their runs.

A workload is one ``runner.compare`` call on a config set, built from the
workload seed (``master_seed``), as ``decopt preset`` would run it. Why each
workload exists, and which layers it stresses:

fig2_er09
    The fig2_er09 preset as shipped: ridge, m=20, n=20, d=500, ER(0.9).
    adolf and adolf_local run to distance_sq <= 1e-10; EXTRA runs a
    20-point stepsize grid with a 3000-iteration budget, then a final run.
    The grid is most of the time and the ridge stacked gradient dominates
    each iteration, so grid batching and GEMM-shaped kernels show here.
ridge_trace_dense
    The fig2_er09 instance with adolf and adolf_local only and a row every
    iteration, as a Lyapunov-descent check needs. No grid, so a grid
    optimisation predicts no change; per-row metrics and CSV, long-format
    and gnuplot writing dominate. The runs take a fixed budget rather than
    running to 1e-10: iterations-to-threshold vary by up to 27% between
    seeds, which would hide a regression of that size.
logistic_mnist_shape
    Synthetic logistic at the shape of the MNIST 0/1 split (m=20, n=600,
    d=784) on ER(0.1); adolf and adolf_local in convex mode with a fixed
    budget and a row every 10 iterations; no EXTRA, so a grid optimisation
    predicts no change here. The logistic gradient and the per-row
    ``cross_values`` behind objective_gap dominate, and the iterative
    reference solve is most of the workspace build.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from decopt import runner
from decopt.config import ProblemConfig, StopConfig

RIDGE_TRACE_BUDGET = 400
MNIST_SHAPE_BUDGET = 60
# objective_gap is measured against a reference solved to a gradient norm of
# 1e-10, so a converged run can land a little below zero (the
# fig1_er01 --synthetic-logistic preset ends at -5.6e-17 at seed 0)
GAP_TOL = 1e-12
# a budget run on ridge_trace_dense must shrink distance_sq by this factor;
# at 400 iterations adolf reaches below 1e-6 and adolf_local below 6e-4 (seeds 0-7)
RIDGE_TRACE_PROGRESS = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    metric: str  # comparison metric passed to compare, checked by the gate
    status: str  # status every run must end with


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig2_er09", "distance_sq", "converged"),
        Workload("ridge_trace_dense", "distance_sq", "budget"),
        Workload("logistic_mnist_shape", "objective_gap", "budget"),
    )
}


def configs(workload: str, seed: int) -> list:
    """The config set one repetition of the workload compares."""
    if workload == "fig2_er09":
        return runner.figure_preset("fig2_er09", master_seed=seed)
    if workload == "ridge_trace_dense":
        return [
            dataclasses.replace(
                cfg, name=cfg.name.replace("fig2_er09", workload),
                stop=StopConfig(max_iter=RIDGE_TRACE_BUDGET),
                diagnostics=dataclasses.replace(cfg.diagnostics, cadence=1),
            )
            for cfg in runner.figure_preset("fig2_er09", master_seed=seed)[:2]
        ]
    if workload == "logistic_mnist_shape":
        problem = ProblemConfig(kind="logistic_synthetic", m=20, n=600, d=784, noise=0.1)
        return [
            dataclasses.replace(
                cfg, name=cfg.name.replace("fig1_er01", workload), problem=problem,
                stop=StopConfig(max_iter=MNIST_SHAPE_BUDGET),
            )
            for cfg in runner.figure_preset("fig1_er01", synthetic_logistic=True,
                                            master_seed=seed)[:2]
        ]
    raise KeyError(workload)


def check_run(workload: Workload, cfg, trace, best_alpha: float | None) -> list[str]:
    """Why one run's trace fails the gate; empty when it passes."""
    problems = []
    final, first = trace.final, trace.records[0]
    value = getattr(final, workload.metric)
    if trace.status != workload.status:
        problems.append(f"status {trace.status}, expected {workload.status}")
    if value is None or not math.isfinite(value):
        problems.append(f"final {workload.metric} is {value}")
        return problems
    if trace.status == "converged" and value > cfg.stop.threshold:
        problems.append(f"converged at {workload.metric}={value!r} above {cfg.stop.threshold}")
    if workload.metric == "objective_gap":
        if value < -GAP_TOL:
            problems.append(f"objective_gap {value!r} below -{GAP_TOL}")
        if not value < first.objective_gap:
            problems.append(f"objective_gap {value!r} did not fall from {first.objective_gap!r}")
    elif workload.status == "budget" and not value <= RIDGE_TRACE_PROGRESS * first.distance_sq:
        problems.append(
            f"distance_sq fell only from {first.distance_sq!r} to {value!r} "
            f"(needs a factor {RIDGE_TRACE_PROGRESS})"
        )
    grid = cfg.algorithm.grid
    if cfg.algorithm.kind == "extra" and grid is not None and best_alpha not in grid:
        problems.append(f"EXTRA stepsize {best_alpha!r} is not a grid point")
    return problems
