"""Test helper: problems whose gradient turns NaN or raises, to check failure handling.

The NaN problems evaluate on the wrapped instance's own kernel and then
overwrite rows of the stacked gradient (``stacked_gradient``) or of the
column gradients (``column_gradients``, one call per column) with NaN.
``RaiseOutsideBall`` raises from ``column_gradients`` instead. Values and
the averaged evaluations are left exact.
"""

import numpy as np

from decopt.objectives import ProblemInstance, synth_ridge


class NanGradient(ProblemInstance):
    """problem whose agent 0 gradient is NaN from call number `start` on.

    The count spans every caller, so in a grid search the round at which a
    block meets the fault depends on the blocks run before it.
    """

    def __init__(self, problem: ProblemInstance, start: int):
        super().__init__(problem._kernel)
        self.start = start
        self.calls = 0

    def _poison(self, agent0_rows):
        for row in agent0_rows:
            self.calls += 1
            if self.calls > self.start:
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


class NanOutsideBall(ProblemInstance):
    """problem whose gradient is NaN at every row with ||x_i|| > radius.

    The fault depends only on the point, not on how many calls came before,
    so one run sees it at the same round however many runs share the problem.
    """

    def __init__(self, problem: ProblemInstance, radius: float):
        super().__init__(problem._kernel)
        self.radius = radius

    def stacked_gradient(self, x_stack):
        grad = super().stacked_gradient(x_stack)
        grad[np.linalg.norm(x_stack, axis=-1) > self.radius] = np.nan
        return grad

    def column_gradients(self, x_cols):
        grad = super().column_gradients(x_cols)
        grad[np.linalg.norm(x_cols, axis=-1) > self.radius] = np.nan
        return grad


class RaiseOutsideBall(ProblemInstance):
    """problem whose column gradients raise FloatingPointError at any row with ||x_i|| > radius.

    Like NanOutsideBall the fault depends only on the point, so a grid block
    meets it at the same round whatever ran before; the message names the
    call's largest row norm, so the raising calls of different blocks tell
    apart.
    """

    def __init__(self, problem: ProblemInstance, radius: float):
        super().__init__(problem._kernel)
        self.radius = radius

    def column_gradients(self, x_cols):
        norm = np.max(np.linalg.norm(x_cols, axis=-1))
        if norm > self.radius:
            raise FloatingPointError(f"row norm {norm!r} outside the ball")
        return super().column_gradients(x_cols)

