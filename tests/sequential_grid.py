"""Test helper: the EXTRA grid search replayed one stepsize at a time.

extra_grid_search advances its stepsizes together as column blocks. This
helper is the sequential reference: it drives run("extra", ...) at each grid
stepsize with a fresh TraceRecorder, reads status, final round and terminal
metric from each trace, and ranks them the same way (smallest metric wins,
ties go to the larger stepsize, diverged and non-finite points are skipped).
"""

import numpy as np

from decopt.diagnostics import TraceRecorder
from decopt.solvers import ExtraParams, GridPoint, StopRule, run
from decopt.topology import graph_laplacian_sqrt


def sequential_grid_search(problem, gossip, grid, budget, saddle, metric, x0):
    """(chosen stepsize or None, one GridPoint per stepsize in ascending order)."""
    l_op = graph_laplacian_sqrt(gossip)
    points = []
    for alpha in sorted(float(a) for a in grid):
        recorder = TraceRecorder(problem, l_op, saddle, cadence=max(budget, 1))
        trace = run("extra", problem, gossip, ExtraParams(alpha), StopRule(max_iter=budget),
                    recorder, x0)
        value = None if trace.status == "diverged" else trace.final.metric(metric)
        if value is not None and not np.isfinite(value):
            value = None
        points.append(GridPoint(alpha, trace.status, trace.final.k, value))
    best, best_value = None, np.inf
    for point in points:
        if point.value is not None and point.value <= best_value:
            best, best_value = point.alpha, point.value
    return best, points
