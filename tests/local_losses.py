"""Test helper: each agent's loss evaluated alone, from its rows of the slabs.

ProblemInstance evaluates all agents at once, with batched products over the
(m, n, d) feature slab. These are the per-agent formulas it must match: f_i,
its gradient and its Hessian at one point, from a[i], b[i] and, for ridge,
gammas[i].
"""

import numpy as np
from scipy.special import expit


def local_value(problem, i, x):
    """f_i(x): ridge (1/n)||A_i x - b_i||^2 + (gamma_i/2)||x||^2, or the logistic mean."""
    a, b = problem.a[i], problem.b[i]
    if problem.loss == "ridge":
        r = a @ x - b
        return float(r @ r / problem.n + 0.5 * problem.gammas[i] * (x @ x))
    # log(1 + exp(-t)) computed as logaddexp(0, -t): no overflow for any t
    return float(np.mean(np.logaddexp(0.0, -b * (a @ x))))


def local_gradient(problem, i, x):
    """grad f_i(x)."""
    a, b = problem.a[i], problem.b[i]
    if problem.loss == "ridge":
        return (2.0 / problem.n) * (a.T @ (a @ x - b)) + problem.gammas[i] * x
    return -(a.T @ (b * expit(-b * (a @ x)))) / problem.n


def local_hessian(problem, i, x):
    """The Hessian of f_i at x, in float64."""
    a, b = problem.a[i], problem.b[i]
    if problem.loss == "ridge":
        return (2.0 / problem.n) * (a.T @ a) + problem.gammas[i] * np.eye(problem.d)
    p = expit(b * (a @ x))
    return (a.T * (p * (1.0 - p))) @ a / problem.n


def loop_stacked_gradient(problem, x_stack):
    """Row i: grad f_i at row i of the stack."""
    return np.stack([local_gradient(problem, i, x) for i, x in enumerate(x_stack)])


def loop_average_value(problem, x):
    """(1/m) sum_i f_i(x)."""
    return float(np.mean([local_value(problem, i, x) for i in range(problem.m)]))


def loop_average_gradient(problem, x):
    """(1/m) sum_i grad f_i(x)."""
    return np.mean([local_gradient(problem, i, x) for i in range(problem.m)], axis=0)


def loop_average_hessian(problem, x):
    """(1/m) sum_i Hessian of f_i at x."""
    return np.mean([local_hessian(problem, i, x) for i in range(problem.m)], axis=0)
