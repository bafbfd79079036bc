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

Everything here is a pure function of explicit state. The local rule runs
over all agents at once on per-agent arrays, where an absent guard is an
infinite entry; the scalar rules represent it by an absent term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

__all__ = [
    "GrowthPolicy",
    "StepsizeParams",
    "curvature_global",
    "curvature_local",
    "curvature_guard",
    "select_alpha_convex",
    "select_alpha_strongly_convex",
    "local_candidate_strongly_convex",
    "local_tilde",
    "local_min_consensus",
]

GROWTH_UNBOUNDED = "unbounded"
GROWTH_ADDITIVE = "additive"
GROWTH_RATIO_POWER = "ratio_power"

# default additive increment: sum over k of (6/pi^2)/k^2 equals 1
DEFAULT_ADDITIVE_INCREMENT = 6.0 / math.pi**2


@dataclass(frozen=True)
class GrowthPolicy:
    """Per-iteration cap pi_k on stepsize increases at round k >= 1, every rule's;
    PAPER.md holds only the abstract, so this indexing is unchecked against it.

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
        if self.kind == GROWTH_ADDITIVE and not 0 < self.a < math.inf:
            raise ParameterError(f"a must be positive and finite, got {self.a}")
        if self.kind == GROWTH_RATIO_POWER:
            if not 1.0 <= self.beta1 < math.inf:
                raise ParameterError(
                    f"beta1 must be >= 1 (so the cap never shrinks) and finite, got {self.beta1}")
            if not 0.0 < self.beta2 < math.inf:
                raise ParameterError(
                    f"beta2 must be positive and finite for ratio_power, got {self.beta2}")
            try:  # the cap's factor at k = 1, its largest, since it falls with k for beta1 >= 1
                ((1.0 + self.beta1) / 2.0) ** self.beta2
            except OverflowError:
                raise ParameterError(
                    f"beta2 = {self.beta2} with beta1 = {self.beta1} overflows the cap's first "
                    "factor ((1 + beta1) / 2) ** beta2") from None

    def cap(self, x: float, k: int) -> float | None:
        """pi_k(x), elementwise over an array x; None for no cap."""
        if self.kind == GROWTH_UNBOUNDED:
            return None
        if self.kind == GROWTH_ADDITIVE:
            return x + self.a / float(k) ** 2
        return ((k + self.beta1) / (k + 1.0)) ** self.beta2 * x


@dataclass(frozen=True)
class StepsizeParams:
    """The stepsize rule's regime and constants for a run.

    strongly_convex ties the dual scale to the stepsize, sigma_k = sigma /
    alpha_k^2; otherwise it is the constant sigma_bar. local gives every
    agent its own stepsize (adolf_local) instead of one shared stepsize
    (adolf). The slack constants c1 and c2, the initial stepsize alpha0, the
    local shrink factor eta and the growth policy complete the rule.
    """

    strongly_convex: bool = False
    local: bool = False
    c1: float = 0.99
    c2: float = 0.99
    alpha0: float = 1e-3
    eta: float = 0.9
    growth: GrowthPolicy = GrowthPolicy()
    sigma: float = 0.2
    sigma_bar: float = 1.0

    def __post_init__(self):
        if self.strongly_convex and not 0 < self.sigma < math.inf:
            raise ParameterError(f"sigma must be positive and finite, got {self.sigma}")
        if not self.strongly_convex and not 0 < self.sigma_bar < math.inf:
            raise ParameterError(f"sigma_bar must be positive and finite, got {self.sigma_bar}")
        if not (0.0 < self.c1 <= 1.0):
            raise ParameterError(f"c1 must lie in (0, 1], got {self.c1}")
        if not (0.0 < self.c2 <= 1.0):
            raise ParameterError(f"c2 must lie in (0, 1], got {self.c2}")
        if not 0 < self.alpha0 < np.inf:
            raise ParameterError(f"alpha0 must be positive and finite, got {self.alpha0}")
        try:
            sigma0 = self.sigma0()
        except ArithmeticError:  # alpha0**2 overflows, or underflows to 0
            sigma0 = math.nan
        if not 0 < sigma0 < math.inf:
            raise ParameterError("alpha0 must keep sigma / alpha0^2 positive and finite, "
                                 f"got alpha0 = {self.alpha0}")
        if self.local:
            if not (0.0 < self.eta < 1.0):
                raise ParameterError(f"eta must lie in (0, 1), got {self.eta}")
            if self.growth.kind != GROWTH_ADDITIVE:
                raise ParameterError("growth.kind must be additive in local mode (summable "
                                     f"increments), got {self.growth.kind!r}")
        if self.strongly_convex and self.growth.kind == GROWTH_UNBOUNDED:
            raise ParameterError("growth.kind must be additive or ratio_power in strongly convex "
                                 "mode (unbounded growth is valid in convex mode only)")
        if self.strongly_convex and not (0.0 < self.sigma < self.c1 / 2.0):
            raise ParameterError(
                f"sigma must lie in (0, c1/2) = (0, {self.c1 / 2}) in strongly convex mode, "
                f"got {self.sigma}"
            )

    def sigma0(self) -> float:
        """sigma at iteration 0, before any stepsize is selected."""
        return self.sigma / self.alpha0**2 if self.strongly_convex else self.sigma_bar


def _differences(grad_now, grad_prev, x_now, x_prev) -> tuple[np.ndarray, np.ndarray]:
    dx = np.asarray(x_now, dtype=float) - np.asarray(x_prev, dtype=float)
    dg = np.asarray(grad_now, dtype=float) - np.asarray(grad_prev, dtype=float)
    if dx.shape != dg.shape:
        raise ParameterError(f"mismatched shapes {dx.shape} vs {dg.shape}")
    return dx, dg


def _secant(dx: np.ndarray, dg: np.ndarray) -> tuple[float, float | None]:
    """(L_k, mu_k) from one secant pair, with the pair's one finiteness check.

    A non-finite entry makes a sum of squares non-finite, so checking the
    two sums checks every entry.
    """
    dx, dg = dx.ravel(), dg.ravel()
    dxx, dgg = float(dx.dot(dx)), float(dg.dot(dg))
    if not (math.isfinite(dxx) and math.isfinite(dgg)):
        raise NumericError("curvature proxy received non-finite inputs")
    if dxx == 0.0:
        return 0.0, None
    return math.sqrt(dgg) / math.sqrt(dxx), float(dg.dot(dx)) / dxx


def curvature_global(grad_now, grad_prev, x_now, x_prev) -> tuple[float, float | None]:
    """Both secant estimates of the stacked gradient field, from one pair.

    Returns (L_k, mu_k): the Lipschitz proxy L_k = ||dG|| / ||dX||
    (Frobenius norms, so the square root of sum_i ||dg_i||^2 / sum_i
    ||dx_i||^2) and the strong-convexity proxy mu_k = <dG, dX> / ||dX||^2.
    Zero displacement maps to (0, None).
    """
    return _secant(*_differences(grad_now, grad_prev, x_now, x_prev))


def curvature_local(grad_now, grad_prev, x_now, x_prev) -> tuple[np.ndarray, float, float | None]:
    """Per-agent secant proxies ||dg_i|| / ||dx_i||, 0 on zero displacement,
    followed by curvature_global's (L_k, mu_k) from the same differences."""
    dx, dg = _differences(grad_now, grad_prev, x_now, x_prev)
    l_k, mu_k = _secant(dx, dg)
    dx_norm = np.linalg.norm(dx, axis=1)
    dg_norm = np.linalg.norm(dg, axis=1)
    l_vec = np.divide(dg_norm, dx_norm, out=np.zeros(dx.shape[0]), where=dx_norm > 0.0)
    return l_vec, l_k, mu_k


def curvature_guard(l_k, sigma_k: float, c1: float):
    """1 / (sqrt(L_k^2 + 2 sigma_k / c1) + L_k), elementwise over an array of
    L_k; finite for sigma_k > 0."""
    return 1.0 / (np.sqrt(l_k * l_k + 2.0 * sigma_k / c1) + l_k)


def _capped(alpha: float, alpha_prev: float, k: int, params: StepsizeParams) -> tuple[float, float]:
    """(alpha_k, gamma_k): alpha under the growth cap, checked positive and finite."""
    cap = params.growth.cap(alpha_prev, k)
    if cap is not None:
        alpha = min(alpha, cap)
    if not 0.0 < alpha < math.inf:
        raise NumericError(f"selected stepsize {alpha} is not positive and finite")
    return alpha, alpha / alpha_prev


def select_alpha_convex(
    l_k: float, sigma_k: float, alpha_prev: float, gamma_prev: float, k: int,
    params: StepsizeParams,
) -> tuple[float, float]:
    """Largest stepsize passing curvature, ratio, and growth guards.

    Returns (alpha_k, gamma_k) with gamma_k = alpha_k / alpha_prev.
    """
    alpha = min(
        float(curvature_guard(l_k, sigma_k, params.c1)),
        math.sqrt(1.0 + params.c2 * gamma_prev) * alpha_prev,
    )
    return _capped(alpha, alpha_prev, k, params)


def select_alpha_strongly_convex(
    l_k: float, alpha_prev: float, gamma_prev: float, k: int, params: StepsizeParams
) -> tuple[float, float]:
    """Closed-form selection for sigma_k = sigma / alpha_k^2.

    The curvature guard becomes (1/2 - sigma/c1) / L_k and drops out when
    L_k = 0.
    """
    alpha = math.sqrt(1.0 + params.c2 * gamma_prev) * alpha_prev
    if l_k > 0.0:
        alpha = min(alpha, (0.5 - params.sigma / params.c1) / l_k)
    return _capped(alpha, alpha_prev, k, params)


def local_candidate_strongly_convex(l_vec: np.ndarray, sigma: float, c1: float) -> np.ndarray:
    """Closed-form per-agent candidates; inf (no cap) where an agent is idle."""
    return np.divide(0.5 - sigma / c1, l_vec, out=np.full(l_vec.shape, np.inf),
                     where=l_vec > 0.0)


def local_tilde(
    alpha_hat: np.ndarray,
    alpha_prev: np.ndarray,
    gamma_prev: np.ndarray,
    params: StepsizeParams,
    k: int,
) -> np.ndarray:
    """Sufficient-decrease correction of the per-agent candidates.

    Where the curvature candidate falls at or below the cap pi_k (GrowthPolicy),
    shrink by eta (bounding how often that can happen); elsewhere grow under
    both the cap and the ratio guard. An infinite candidate is an absent one.
    """
    cap = params.growth.cap(alpha_prev, k)
    return np.where(
        alpha_hat <= cap,
        np.minimum(params.eta * alpha_prev, alpha_hat),
        np.minimum(cap, np.sqrt(1.0 + params.c2 * gamma_prev) * alpha_prev),
    )


def local_min_consensus(
    alpha_tilde: np.ndarray, neighbor_mask: np.ndarray, alpha_prev: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One neighbor round: alpha_i = min over closed neighborhood of tilde.

    gamma_i keeps the agent's own ratio tilde_i / alpha_prev_i. The mask must
    include the diagonal (an agent is in its own neighborhood), as
    GossipMatrix.neighbor_mask does. Raises NumericError unless every tilde
    is positive and finite.
    """
    if not (alpha_tilde.min() > 0.0 and alpha_tilde.max() < math.inf):
        raise NumericError("selected stepsizes must be positive and finite")
    alpha = np.where(neighbor_mask, alpha_tilde, np.inf).min(axis=1)
    return alpha, alpha_tilde / alpha_prev

