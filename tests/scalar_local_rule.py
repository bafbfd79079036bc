"""Test helper: the local stepsize rule replayed one agent at a time.

adolf_local_step runs the local rule over all agents at once on per-agent
arrays. This helper is the scalar reference it must match bit for bit: for
each agent, the closed-form (strongly convex) or curvature-guard (convex)
candidate, None where an idle agent has no candidate; the eta-shrink or
grow correction under the additive growth cap; then the minimum over the
closed neighborhood. Every operation is on Python floats with the math
module.
"""

import math


def scalar_candidate(l_i: float, params) -> float | None:
    if params.strongly_convex_sigma:
        return None if l_i == 0.0 else (0.5 - params.sigma.sigma / params.c1) / l_i
    return 1.0 / (math.sqrt(l_i * l_i + 2.0 * params.sigma.sigma_bar / params.c1) + l_i)


def scalar_cap(alpha_prev_i: float, params, k: int) -> float:
    return alpha_prev_i + params.growth.a / float(k) ** 2


def scalar_tilde(hat: float | None, alpha_prev_i: float, gamma_prev_i: float, params,
                 k: int) -> float:
    cap = scalar_cap(alpha_prev_i, params, k)
    if hat is not None and hat <= cap:
        return min(params.eta * alpha_prev_i, hat)
    return min(cap, math.sqrt(1.0 + params.c2 * gamma_prev_i) * alpha_prev_i)


def scalar_local_rule(l_vec, alpha_prev, gamma_prev, mask, params, k):
    """(tilde, alpha, gamma) as lists of floats, one entry per agent."""
    m = len(l_vec)
    tilde = [
        scalar_tilde(scalar_candidate(float(l_vec[i]), params), float(alpha_prev[i]),
                     float(gamma_prev[i]), params, k)
        for i in range(m)
    ]
    alpha = [min(tilde[j] for j in range(m) if mask[i][j]) for i in range(m)]
    gamma = [tilde[i] / float(alpha_prev[i]) for i in range(m)]
    return tilde, alpha, gamma
