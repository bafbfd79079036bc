"""Test helper: the adaptive solvers' dual D is L_op Y for Y = pinv(L_op) D.

adolf and adolf_local carry only D = L_op Y, and the trace recorder reads
Y back as pinv(L_op) D. This helper replays a run through the public
init/step functions, integrates the Condat-Vu dual Y from the same
increments as D, and checks at every iteration that L_op Y matches D and
that pinv(L_op) D recovers Y.
"""

import numpy as np

from decopt.solvers import adolf_init, adolf_local_init, adolf_local_step, adolf_step
from decopt.stepsize import sigma_value
from decopt.topology import graph_laplacian_sqrt, laplacian_pinv_sqrt

SHADOW_TOL = 1e-8


def _rows(v) -> np.ndarray:
    """A scalar or per-agent vector as a column that scales the rows of a stack."""
    return np.reshape(np.asarray(v, dtype=float), (-1, 1))


def shadow_dual_residuals(algorithm, problem, gossip, params, x0, iterations):
    """Worst relative ||L_op Y - D|| and ||Y - pinv(L_op) D|| over a replayed run.

    algorithm is "adolf" or "adolf_local" with StepsizeParams; the replay
    runs iterations rounds from X^0 = X^-1 = x0. Both residuals are asserted
    to stay within SHADOW_TOL and returned for reporting.
    """
    l_op = graph_laplacian_sqrt(gossip)
    pinv = laplacian_pinv_sqrt(gossip)
    x_now = x_prev = np.asarray(x0, dtype=float)
    if algorithm == "adolf":
        state = adolf_init(problem, gossip, x_now, None, params.alpha0, params.sigma0())
        step = adolf_step
    else:
        state = adolf_local_init(problem, gossip, x_now, None, params)
        step = adolf_local_step
    y = np.zeros_like(x_now)
    worst_lift = worst_pinv = 0.0
    while True:
        # the step that produced state scaled row i of the dual increment by sigma_i alpha_i
        sigma_alpha = _rows(sigma_value(params.sigma, state.alpha) * state.alpha)
        gamma = _rows(state.gamma)
        y = y + l_op @ (sigma_alpha * ((1.0 + gamma) * x_now - gamma * x_prev))
        d_norm = 1.0 + np.linalg.norm(state.dual)
        lift = np.linalg.norm(l_op @ y - state.dual) / d_norm
        recovered = np.linalg.norm(y - pinv @ state.dual) / (1.0 + np.linalg.norm(y))
        worst_lift = max(worst_lift, float(lift))
        worst_pinv = max(worst_pinv, float(recovered))
        assert lift <= SHADOW_TOL, f"||L_op Y - D|| = {lift:.2e} at k={state.k}"
        assert recovered <= SHADOW_TOL, f"||Y - pinv(L_op) D|| = {recovered:.2e} at k={state.k}"
        if state.k >= iterations:
            return worst_lift, worst_pinv
        x_now, x_prev = state.x_now, state.x_prev
        state = step(state, problem, gossip, params)
