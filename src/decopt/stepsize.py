"""Adaptive stepsize selection from trajectory curvature.

The selection rule keeps, at every iteration, the largest stepsize that
certifies descent of the trajectory Lyapunov function. Its three guards:

* a curvature guard 1 / (sqrt(L_k^2 + 2 sigma_k / c1) + L_k) built from the
  secant estimate L_k of the local Lipschitz constant,
* a ratio guard sqrt(1 + c2 gamma_prev) * alpha_prev limiting growth between
  consecutive iterations,
* an optional growth policy pi_k capping the raw increase (required for the
  linear-rate regime and for the fully local variant).

The strongly convex regime ties sigma to the stepsize (sigma_k =
sigma / alpha_k^2), which collapses the curvature guard to the closed form
(1/2 - sigma/c1) / L_k computable without knowing sigma_k in advance.

The local variant gives each agent its own stepsize: a per-agent curvature
candidate, a sufficient-decrease correction, and a min-consensus step over
the closed neighborhood that equalizes stepsizes in finite time.

Everything here is a pure function of explicit state; infinite guard values
are represented by absent terms, never stored as floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

__all__ = [
    "GrowthPolicy",
    "SigmaSchedule",
    "StepsizeParams",
    "StepsizeState",
    "LocalStepsizeState",
    "curvature_global",
    "curvature_local",
    "curvature_guard",
    "select_alpha_convex",
    "select_alpha_strongly_convex",
    "local_candidate_strongly_convex",
    "local_tilde",
    "local_min_consensus",
    "sigma_value",
    "gamma_ratio_bound",
]

MODE_CONVEX = "convex_global"
MODE_STRONGLY_CONVEX = "strongly_convex_global"
MODE_LOCAL = "local"

GROWTH_UNBOUNDED = "unbounded"
GROWTH_ADDITIVE = "additive"
GROWTH_RATIO_POWER = "ratio_power"

SIGMA_CONSTANT = "constant"
SIGMA_INVERSE_ALPHA_SQ = "inverse_alpha_sq"

# default additive increment: sum over k of (6/pi^2)/k^2 equals 1
DEFAULT_ADDITIVE_INCREMENT = 6.0 / math.pi**2


@dataclass(frozen=True)
class GrowthPolicy:
    """Per-iteration cap pi_k on stepsize increases.

    unbounded    -- no cap (valid in the merely convex regime only);
    additive     -- pi_k(x) = x + a / k^2, summable increments;
    ratio_power  -- pi_k(x) = ((k + beta1) / (k + 1))^beta2 * x.
    """

    kind: str = GROWTH_UNBOUNDED
    a: float = DEFAULT_ADDITIVE_INCREMENT
    beta1: float = 10.0
    beta2: float = 1.0

    def __post_init__(self):
        if self.kind not in (GROWTH_UNBOUNDED, GROWTH_ADDITIVE, GROWTH_RATIO_POWER):
            raise ParameterError(
                f"kind must be unbounded, additive, or ratio_power, got {self.kind!r}")
        if self.kind == GROWTH_ADDITIVE and not self.a > 0:
            raise ParameterError(f"a must be positive, got {self.a}")
        if self.kind == GROWTH_RATIO_POWER:
            if not self.beta1 >= 1.0:
                raise ParameterError(
                    f"beta1 must be >= 1 so the cap never shrinks, got {self.beta1}")
            if not self.beta2 > 0.0:
                raise ParameterError(f"beta2 must be positive for ratio_power, got {self.beta2}")

    def cap(self, x: float, k: int) -> float | None:
        """pi_k(x), or None when the policy imposes no cap."""
        if self.kind == GROWTH_UNBOUNDED:
            return None
        if k < 1:
            raise ParameterError(f"growth policy evaluated at iteration {k} < 1")
        if self.kind == GROWTH_ADDITIVE:
            return x + self.a / float(k) ** 2
        return ((k + self.beta1) / (k + 1.0)) ** self.beta2 * x


@dataclass(frozen=True)
class SigmaSchedule:
    """Dual scaling sequence: a constant, or sigma / alpha^2."""

    kind: str = SIGMA_CONSTANT
    sigma_bar: float = 1.0
    sigma: float = 0.2

    def __post_init__(self):
        if self.kind not in (SIGMA_CONSTANT, SIGMA_INVERSE_ALPHA_SQ):
            raise ParameterError(f"unknown sigma schedule kind {self.kind!r}")
        if self.kind == SIGMA_CONSTANT and not self.sigma_bar > 0:
            raise ParameterError(f"sigma_bar must be positive, got {self.sigma_bar}")
        if self.kind == SIGMA_INVERSE_ALPHA_SQ and not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


def sigma_value(schedule: SigmaSchedule, alpha: float) -> float:
    """sigma_k for the given schedule, evaluated at the current stepsize."""
    if schedule.kind == SIGMA_CONSTANT:
        return schedule.sigma_bar
    return schedule.sigma / alpha**2


@dataclass(frozen=True)
class StepsizeParams:
    """Slack constants, initial stepsize, and policy choices for a run."""

    mode: str = MODE_CONVEX
    c1: float = 0.99
    c2: float = 0.99
    alpha0: float = 1e-3
    eta: float = 0.9
    growth: GrowthPolicy = GrowthPolicy()
    sigma: SigmaSchedule = SigmaSchedule()

    def __post_init__(self):
        if self.mode not in (MODE_CONVEX, MODE_STRONGLY_CONVEX, MODE_LOCAL):
            raise ParameterError(f"unknown stepsize mode {self.mode!r}")
        if not (0.0 < self.c1 <= 1.0):
            raise ParameterError(f"c1 must lie in (0, 1], got {self.c1}")
        if not (0.0 < self.c2 <= 1.0):
            raise ParameterError(f"c2 must lie in (0, 1], got {self.c2}")
        if not 0 < self.alpha0 < np.inf:
            raise ParameterError(f"alpha0 must be positive and finite, got {self.alpha0}")
        if self.mode == MODE_LOCAL:
            if not (0.0 < self.eta < 1.0):
                raise ParameterError(f"eta must lie in (0, 1), got {self.eta}")
            if self.growth.kind != GROWTH_ADDITIVE:
                raise ParameterError("growth.kind must be additive in local mode (summable "
                                     f"increments), got {self.growth.kind!r}")
        if self.strongly_convex_sigma:
            if self.sigma.kind != SIGMA_INVERSE_ALPHA_SQ:
                raise ParameterError(
                    "strongly convex mode needs the inverse_alpha_sq sigma schedule"
                )
            if not (0.0 < self.sigma.sigma < self.c1 / 2.0):
                raise ParameterError(
                    f"sigma must lie in (0, c1/2) = (0, {self.c1 / 2}) in strongly convex mode, "
                    f"got {self.sigma.sigma}"
                )
        elif self.sigma.kind != SIGMA_CONSTANT and self.mode == MODE_CONVEX:
            raise ParameterError("convex mode needs a constant (bounded) sigma schedule")

    @property
    def strongly_convex_sigma(self) -> bool:
        if self.mode == MODE_STRONGLY_CONVEX:
            return True
        return self.mode == MODE_LOCAL and self.sigma.kind == SIGMA_INVERSE_ALPHA_SQ

    def sigma0(self) -> float:
        """sigma at iteration 0, before any stepsize is selected."""
        return sigma_value(self.sigma, self.alpha0)


@dataclass(frozen=True)
class StepsizeState:
    """(alpha_prev, gamma_prev) with the index k of the upcoming selection."""

    alpha_prev: float
    gamma_prev: float = 1.0
    k: int = 1

    def __post_init__(self):
        if not (self.alpha_prev > 0 and np.isfinite(self.alpha_prev)):
            raise ParameterError(f"alpha_prev must be positive finite, got {self.alpha_prev}")
        if not (self.gamma_prev > 0 and np.isfinite(self.gamma_prev)):
            raise ParameterError(f"gamma_prev must be positive finite, got {self.gamma_prev}")


@dataclass(frozen=True)
class LocalStepsizeState:
    """Per-agent (alpha_prev, gamma_prev) vectors with the upcoming index."""

    alpha_prev: np.ndarray
    gamma_prev: np.ndarray
    k: int = 1

    def __post_init__(self):
        a = np.asarray(self.alpha_prev, dtype=float)
        g = np.asarray(self.gamma_prev, dtype=float)
        if a.shape != g.shape or a.ndim != 1:
            raise ParameterError("per-agent stepsize vectors must be 1-d and equal length")
        if not (np.all(a > 0) and np.all(np.isfinite(a)) and np.all(g > 0) and np.all(np.isfinite(g))):
            raise ParameterError("per-agent stepsize entries must be positive finite")
        a = a.copy()
        g = g.copy()
        a.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "alpha_prev", a)
        object.__setattr__(self, "gamma_prev", g)

    @classmethod
    def uniform(cls, m: int, alpha0: float) -> "LocalStepsizeState":
        return cls(np.full(m, alpha0), np.ones(m), k=1)


def curvature_global(grad_now, grad_prev, x_now, x_prev) -> tuple[float, float | None]:
    """Both secant estimates of the stacked gradient field, from one pair.

    Returns (L_k, mu_k): the Lipschitz proxy L_k = ||dG|| / ||dX||
    (Frobenius norms, so the square root of sum_i ||dg_i||^2 / sum_i
    ||dx_i||^2) and the strong-convexity proxy mu_k = <dG, dX> / ||dX||^2.
    Zero displacement maps to (0, None). A non-finite entry makes a sum of
    squares non-finite, so checking the two sums checks every entry.
    """
    dx = np.asarray(x_now, dtype=float) - np.asarray(x_prev, dtype=float)
    dg = np.asarray(grad_now, dtype=float) - np.asarray(grad_prev, dtype=float)
    if dx.shape != dg.shape:
        raise ParameterError(f"mismatched shapes {dx.shape} vs {dg.shape}")
    dx, dg = dx.ravel(), dg.ravel()
    dxx, dgg = float(dx.dot(dx)), float(dg.dot(dg))
    if not (math.isfinite(dxx) and math.isfinite(dgg)):
        raise NumericError("curvature proxy received non-finite inputs")
    if dxx == 0.0:
        return 0.0, None
    return math.sqrt(dgg) / math.sqrt(dxx), float(dg.dot(dx)) / dxx


def curvature_local(grad_now, grad_prev, x_now, x_prev) -> np.ndarray:
    """Per-agent secant proxies ||dg_i|| / ||dx_i||, 0 on zero displacement."""
    dx = np.asarray(x_now, dtype=float) - np.asarray(x_prev, dtype=float)
    dg = np.asarray(grad_now, dtype=float) - np.asarray(grad_prev, dtype=float)
    if dx.shape != dg.shape:
        raise ParameterError(f"mismatched shapes {dx.shape} vs {dg.shape}")
    if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dg))):
        raise NumericError("curvature proxy received non-finite inputs")
    dx_norm = np.linalg.norm(dx, axis=1)
    dg_norm = np.linalg.norm(dg, axis=1)
    out = np.zeros(dx.shape[0])
    moved = dx_norm > 0.0
    out[moved] = dg_norm[moved] / dx_norm[moved]
    return out


def curvature_guard(l_k: float, sigma_k: float, c1: float) -> float:
    """1 / (sqrt(L_k^2 + 2 sigma_k / c1) + L_k); finite for sigma_k > 0."""
    return 1.0 / (math.sqrt(l_k * l_k + 2.0 * sigma_k / c1) + l_k)


def select_alpha_convex(
    l_k: float, sigma_k: float, state: StepsizeState, params: StepsizeParams
) -> tuple[float, float]:
    """Largest stepsize passing curvature, ratio, and growth guards.

    Returns (alpha_k, gamma_k) with gamma_k = alpha_k / alpha_prev.
    """
    if l_k < 0 or not np.isfinite(l_k):
        raise ParameterError(f"curvature proxy must be a nonnegative float, got {l_k}")
    if sigma_k <= 0:
        raise ParameterError(f"sigma_k must be positive, got {sigma_k}")
    alpha = min(
        curvature_guard(l_k, sigma_k, params.c1),
        math.sqrt(1.0 + params.c2 * state.gamma_prev) * state.alpha_prev,
    )
    cap = params.growth.cap(state.alpha_prev, state.k)
    if cap is not None:
        alpha = min(alpha, cap)
    return alpha, alpha / state.alpha_prev


def select_alpha_strongly_convex(
    l_k: float, state: StepsizeState, params: StepsizeParams
) -> tuple[float, float]:
    """Closed-form selection for sigma_k = sigma / alpha_k^2.

    The curvature guard becomes (1/2 - sigma/c1) / L_k and drops out when
    L_k = 0. Requires the strongly convex configuration.
    """
    if not params.strongly_convex_sigma or params.mode != MODE_STRONGLY_CONVEX:
        raise ParameterError("selection rule requires strongly_convex_global mode")
    if l_k < 0 or not np.isfinite(l_k):
        raise ParameterError(f"curvature proxy must be a nonnegative float, got {l_k}")
    alpha = math.sqrt(1.0 + params.c2 * state.gamma_prev) * state.alpha_prev
    if l_k > 0.0:
        alpha = min(alpha, (0.5 - params.sigma.sigma / params.c1) / l_k)
    cap = params.growth.cap(state.alpha_prev, state.k)
    if cap is not None:
        alpha = min(alpha, cap)
    return alpha, alpha / state.alpha_prev


def local_candidate_strongly_convex(l_ki: float, sigma: float, c1: float) -> float | None:
    """Closed-form per-agent candidate; None (no cap) when the agent is idle."""
    if l_ki < 0:
        raise ParameterError(f"curvature proxy must be nonnegative, got {l_ki}")
    if l_ki == 0.0:
        return None
    return (0.5 - sigma / c1) / l_ki


def local_tilde(
    alpha_hat_i: float | None,
    alpha_prev_i: float,
    gamma_prev_i: float,
    params: StepsizeParams,
    k: int,
) -> float:
    """Sufficient-decrease correction of the raw candidate.

    When the curvature candidate falls at or below the growth cap, shrink by
    eta (bounding how often that can happen); otherwise grow under both the
    cap and the ratio guard. alpha_hat_i None means an absent candidate.
    """
    cap = params.growth.cap(alpha_prev_i, k)
    if cap is None:
        raise ParameterError("local rule needs a capped growth policy")
    if alpha_hat_i is not None and alpha_hat_i <= cap:
        return min(params.eta * alpha_prev_i, alpha_hat_i)
    return min(cap, math.sqrt(1.0 + params.c2 * gamma_prev_i) * alpha_prev_i)


def local_min_consensus(
    alpha_tilde: np.ndarray, neighbor_mask: np.ndarray, alpha_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One neighbor round: alpha_i = min over closed neighborhood of tilde.

    gamma_i keeps the agent's own ratio tilde_i / alpha_prev_i. The mask must
    include the diagonal (an agent is in its own neighborhood).
    """
    tilde = np.asarray(alpha_tilde, dtype=float)
    if np.any(tilde <= 0) or not np.all(np.isfinite(tilde)):
        raise ParameterError("tilde stepsizes must be positive finite")
    if not np.all(np.diag(neighbor_mask)):
        raise ParameterError("neighbor mask must include every agent itself")
    spread = np.where(neighbor_mask, tilde[None, :], np.inf)
    alpha = spread.min(axis=1)
    gamma = tilde / np.asarray(alpha_prev, dtype=float)
    return alpha, gamma


def gamma_ratio_bound(c2: float) -> float:
    """Fixed point of g -> sqrt(1 + c2 g): (c2 + sqrt(c2^2 + 4)) / 2.

    Upper bound for every gamma_k reachable from gamma_0 = 1.
    """
    return 0.5 * (c2 + math.sqrt(c2 * c2 + 4.0))
