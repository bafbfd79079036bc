"""Test helper: the EXTRA grid search replayed one stepsize at a time.

extra_grid_search advances its stepsizes together as column blocks. This
helper is the sequential reference: from the largest stepsize down, it drives
run("extra", ...) at each one with a fresh TraceRecorder under
StopRule(max_iter=cap, metric, threshold, cadence), where the cap is the
budget or the smallest round at which a larger stepsize converged. It reads
status, final round and final metric from each trace and ranks them the same
way: converged points first, by (rounds, value, larger stepsize); without
one, the smallest value wins, ties go to the larger stepsize, and diverged
and non-finite points are skipped.
"""

import numpy as np

from decopt.diagnostics import TraceRecorder
from decopt.solvers import ExtraParams, GridPoint, StopRule, run


def sequential_grid_search(problem, gossip, grid, budget, saddle, metric, x0, threshold=None,
                           cadence=1):
    """(chosen stepsize or None, one GridPoint per stepsize in ascending order)."""
    points, cap = [], budget
    for alpha in sorted((float(a) for a in grid), reverse=True):
        stop = (StopRule(max_iter=cap, cadence=cadence) if threshold is None
                else StopRule(max_iter=cap, metric=metric, threshold=threshold, cadence=cadence))
        recorder = TraceRecorder(problem, gossip, saddle, cadence=max(cap, 1))
        trace = run("extra", problem, gossip, ExtraParams(alpha), stop, recorder, x0)
        value = None if trace.status == "diverged" else trace.final.metric(metric)
        if value is not None and not np.isfinite(value):
            value = None
        points.insert(0, GridPoint(alpha, trace.status, trace.final.k, value))
        if trace.status == "converged":
            cap = min(cap, trace.final.k)
    converged = [p for p in points if p.status == "converged"]
    if converged:
        return min(converged, key=lambda p: (p.rounds, p.value, -p.alpha)).alpha, points
    best, best_value = None, np.inf
    for point in points:
        if point.value is not None and point.value <= best_value:
            best, best_value = point.alpha, point.value
    return best, points
