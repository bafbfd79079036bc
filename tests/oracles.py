"""Test helper: the oracles that the acceptance suite and the unit tests check
the package against, and which no run of the package uses.

primal_gap, merit and lyapunov are the primal gap, the merit and the
trajectory Lyapunov value from their definitions, with F summed agent by
agent from local_losses.local_value and no code of the recorder's: its rows
must match them. rate_fit fits a trace's metric tail for the sublinear and
linear rate criteria; gamma_ratio_bound is the fixed point that bounds every
gamma_k; average_value is f(x) alone, and diameter the graph's diameter,
the rounds that min-consensus needs to spread a minimum to every agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from decopt.diagnostics import SaddlePoint, Trace
from decopt.errors import DecoptError
from decopt.objectives import ProblemInstance
from decopt.topology import Graph, _bfs_distances
from local_losses import local_value


class InsufficientDataError(DecoptError, ValueError):
    """Not enough points/samples for the requested computation."""


def average_value(problem: ProblemInstance, x) -> float:
    """f(x), as average_value_and_gradient computes it."""
    return problem.average_value_and_gradient(x)[0]


def diameter(graph: Graph) -> int:
    """Longest shortest path, by BFS from every agent."""
    best = 0
    for src in range(graph.m):
        dist = _bfs_distances(graph.m, graph.neighbor_lists, src)
        best = max(best, int(max(dist)))
    return best


def gamma_ratio_bound(c2: float) -> float:
    """Fixed point of g -> sqrt(1 + c2 g): (c2 + sqrt(c2^2 + 4)) / 2.

    Upper bound for every gamma_k reachable from gamma_0 = 1.
    """
    return 0.5 * (c2 + math.sqrt(c2 * c2 + 4.0))


def stacked_value(problem: ProblemInstance, x_stack) -> float:
    """F(X) = sum_i f_i(x_i), one agent at a time."""
    return sum(local_value(problem, i, x) for i, x in enumerate(x_stack))


def primal_gap(problem: ProblemInstance, x_stack, saddle: SaddlePoint, l_op) -> float:
    """The Lagrangian gap F(X) - F(X*) + <L_op Y*, X - X*>."""
    linear = np.vdot(l_op @ saddle.y_star, x_stack - saddle.x_stack)
    return float(stacked_value(problem, x_stack) - stacked_value(problem, saddle.x_stack) + linear)


def merit(problem: ProblemInstance, x_stack, saddle: SaddlePoint, l_op) -> float:
    """The primal gap plus the consensus penalty ||L_op X||^2."""
    lx = l_op @ x_stack
    return primal_gap(problem, x_stack, saddle, l_op) + float(np.sum(lx * lx))


def lyapunov(
    problem: ProblemInstance,
    x_now: np.ndarray,
    x_prev: np.ndarray,
    y: np.ndarray,
    saddle: SaddlePoint,
    l_op: np.ndarray,
    sigma_k: float,
    gamma_k: float,
    alpha_k: float,
) -> float:
    """Trajectory Lyapunov value at index k:
    ||X^k - X*||^2 + ||Y^k - Y*||^2 / sigma_k + ||X^k - X^{k-1}||^2 / 2
    + 2 gamma_k alpha_k gap(X^{k-1}).
    """
    dx, dy, step = x_now - saddle.x_stack, y - saddle.y_star, x_now - x_prev
    return float(np.sum(dx * dx) + np.sum(dy * dy) / sigma_k + np.sum(step * step) / 2.0
                 + 2.0 * gamma_k * alpha_k * primal_gap(problem, x_prev, saddle, l_op))


@dataclass(frozen=True)
class RateFit:
    """Log-linear and log-log fits of a metric tail."""

    kind: str  # "linear" (geometric) or "sublinear" (power)
    geometric_slope: float
    geometric_r2: float
    power_slope: float
    power_r2: float

    @property
    def coefficient(self) -> float:
        return self.geometric_slope if self.kind == "linear" else self.power_slope


def _least_squares_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def rate_fit(trace: "Trace", metric: str, window: tuple[int, int]) -> RateFit:
    """Fit log(metric) against k and against log(k) over a window of iterations.

    Uses only records with k inside the window and a strictly positive
    metric value; needs at least three such points.
    """
    lo, hi = window
    ks, vals = [], []
    for rec in trace.records:
        v = getattr(rec, metric)
        if v is not None and lo <= rec.k <= hi and v > 0.0:
            ks.append(rec.k)
            vals.append(v)
    if len(ks) < 3:
        raise InsufficientDataError(
            f"need at least 3 positive {metric} points in [{lo}, {hi}], got {len(ks)}"
        )
    ks_arr = np.asarray(ks, dtype=float)
    log_vals = np.log(np.asarray(vals))
    geo_slope, geo_r2 = _least_squares_fit(ks_arr, log_vals)
    pos = ks_arr > 0
    if np.count_nonzero(pos) >= 3:
        pow_slope, pow_r2 = _least_squares_fit(np.log(ks_arr[pos]), log_vals[pos])
    else:
        pow_slope, pow_r2 = 0.0, -np.inf
    kind = "linear" if geo_r2 >= pow_r2 else "sublinear"
    return RateFit(kind, geo_slope, geo_r2, pow_slope, pow_r2)
