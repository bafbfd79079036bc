"""Test helper: a problem whose gradient turns NaN, to check divergence handling."""

import numpy as np

from decopt.objectives import LocalObjective, ProblemInstance, synth_ridge


class NanGradient(LocalObjective):
    """Wraps a local objective; its gradient is NaN from call number `start` on.

    A wrapper rather than a RidgeObjective subclass, so the problem falls back
    to the per-objective loop instead of the batch evaluator.
    """

    def __init__(self, inner: LocalObjective, start: int):
        self.inner = inner
        self.start = start
        self.calls = 0

    @property
    def d(self) -> int:
        return self.inner.d

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        self.calls += 1
        grad = self.inner.gradient(x)
        return grad * np.nan if self.calls > self.start else grad


def nan_gradient_problem(start: int) -> ProblemInstance:
    """synth_ridge(4, 5, 3) whose agent 0 returns NaN gradients from call `start` on."""
    prob = synth_ridge(m=4, n=5, d=3, seed=28)
    return ProblemInstance((NanGradient(prob.objectives[0], start),) + prob.objectives[1:], prob.d)



class NanOutsideBall(LocalObjective):
    """Wraps a local objective; its gradient is NaN wherever ||x|| > radius.

    The fault depends only on the point, not on how many calls came before,
    so one run sees it at the same round however many runs share the problem.
    With radius = inf it is a plain wrapper that bypasses the batch evaluator.
    """

    def __init__(self, inner: LocalObjective, radius: float):
        self.inner = inner
        self.radius = radius

    @property
    def d(self) -> int:
        return self.inner.d

    def value(self, x):
        return self.inner.value(x)

    def gradient(self, x):
        grad = self.inner.gradient(x)
        return grad * np.nan if np.linalg.norm(x) > self.radius else grad


def wrapped_problem(problem: ProblemInstance, radius: float = np.inf) -> ProblemInstance:
    """problem with every objective wrapped in NanOutsideBall(radius)."""
    return ProblemInstance(tuple(NanOutsideBall(o, radius) for o in problem.objectives),
                           problem.d)
