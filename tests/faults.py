"""Test helper: problems whose gradient turns NaN or raises, to check failure handling.

A fault ``Fault(problem, **fields)`` is a copy of the wrapped problem, of a
subclass of the fault and of the problem's own class, so it shares the
problem's data and kernels and adds the fault's fields. The NaN problems
evaluate as the problem does and then overwrite rows of the stacked gradient
(``stacked_gradient``) or of the column gradients (``column_gradients``, one
call per column) with NaN. ``RaiseOutsideBall`` raises from
``column_gradients`` instead. Values and the averaged evaluations are left
exact.
"""

import itertools

import numpy as np

from decopt.objectives import ProblemInstance, synth_ridge


class _Fault:
    """Base of the faults: the instance is built by __new__ from the wrapped problem."""

    def __new__(cls, problem: ProblemInstance, **fields):
        fault = object.__new__(type(cls.__name__, (cls, type(problem)), {}))
        vars(fault).update(vars(problem), **fields)
        return fault

    def __init__(self, *args, **kwargs):
        pass  # __new__ copied the problem; its class's __init__ takes data slabs


class NanGradient(_Fault):
    """problem whose agent 0 gradient is NaN from call number `start` on.

    The count spans every caller, so in a grid search the round at which a
    block meets the fault depends on the blocks run before it.
    """

    def __new__(cls, problem: ProblemInstance, start: int):
        return super().__new__(cls, problem, start=start, calls=itertools.count(1))

    def _poison(self, agent0_rows):
        for row in agent0_rows:
            if next(self.calls) > self.start:
                row[:] = np.nan

    def stacked_gradient(self, x_stack):
        grad = super().stacked_gradient(x_stack)
        self._poison(grad[:1])
        return grad

    def column_gradients(self, x_cols):
        grad = super().column_gradients(x_cols)
        self._poison(grad[0])
        return grad


def nan_gradient_problem(start: int) -> ProblemInstance:
    """synth_ridge(4, 5, 3) whose agent 0 returns NaN gradients from call `start` on."""
    return NanGradient(synth_ridge(m=4, n=5, d=3, seed=28), start)


class NanOutsideBall(_Fault):
    """problem whose gradient is NaN at every row with ||x_i|| > radius.

    The fault depends only on the point, not on how many calls came before,
    so one run sees it at the same round however many runs share the problem.
    """

    def stacked_gradient(self, x_stack):
        grad = super().stacked_gradient(x_stack)
        grad[np.linalg.norm(x_stack, axis=-1) > self.radius] = np.nan
        return grad

    def column_gradients(self, x_cols):
        grad = super().column_gradients(x_cols)
        grad[np.linalg.norm(x_cols, axis=-1) > self.radius] = np.nan
        return grad


class RaiseOutsideBall(_Fault):
    """problem whose column gradients raise FloatingPointError at any row with ||x_i|| > radius.

    Like NanOutsideBall the fault depends only on the point, so a grid block
    meets it at the same round whatever ran before; the message names the
    call's largest row norm, so the raising calls of different blocks tell
    apart.
    """

    def column_gradients(self, x_cols):
        norm = np.max(np.linalg.norm(x_cols, axis=-1))
        if norm > self.radius:
            raise FloatingPointError(f"row norm {norm!r} outside the ball")
        return super().column_gradients(x_cols)
