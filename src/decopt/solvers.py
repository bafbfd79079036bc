"""Iteration engines: adaptive primal-dual solvers, the fixed-parameter
oracle, the EXTRA baseline, and the synchronous run loop.

All engines share one round structure per iteration: evaluate each agent's
gradient once, exchange one m x d message block with neighbors (a single
multiplication by a graph-sparse matrix), and update. The adaptive engines
additionally exchange one scalar per agent (a global average for the
shared-stepsize variant, a neighborhood minimum for the local one); those
scalar rounds are counted separately.

States are plain dataclasses; step functions return fresh states so a run
is an explicit state machine and traces can be reconstructed exactly. One
run is strictly sequential (the synchronous-round semantics are part of
correctness); distinct runs share nothing mutable and may execute in
parallel.

Every state offers the trace recorder the same read-only view: x_now,
x_prev, k, comm_vector, comm_scalar; the alpha, gamma and sigma of the step
that produced it, with its curvature estimates l_last and mu_last; and its
dual. The adaptive engines carry only dual = D = L_op Y (Y is pinv(L_op) D,
recovered by the recorder on the rows that need it), the oracle carries y =
Y itself, and EXTRA has neither. run() drives the init/step functions from a
dispatch table and hands the recorder each pair of consecutive states.

The EXTRA grid search runs many stepsizes without run() or a recorder: it
advances them as the columns of one (m, G, d) stack, so each round costs one
stacked gradient and one gossip multiply for the whole block. The blocks
are independent given their shared start, so they run in forked worker
processes, up to two per CPU, each taking a fixed stride of the blocks, with
the same bits as in one.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import objectives
from .diagnostics import DEFAULT_METRIC, METRICS, SADDLE_METRICS, Trace, TraceRecorder
from .errors import (
    ConfigError,
    NoConvergentStepsizeError,
    NumericError,
    ParameterError,
    ShapeError,
)
from .objectives import ProblemInstance
from .stepsize import (
    MODE_CONVEX,
    MODE_LOCAL,
    MODE_STRONGLY_CONVEX,
    StepsizeParams,
    curvature_global,
    curvature_local,
    curvature_guard,
    local_candidate_strongly_convex,
    local_min_consensus,
    local_tilde,
    select_alpha_convex,
    select_alpha_strongly_convex,
)
from .topology import GossipMatrix, graph_laplacian_sqrt

__all__ = [
    "AdolfState",
    "AdolfLocalState",
    "CondatVuState",
    "ExtraState",
    "FixedStepParams",
    "ExtraParams",
    "StopRule",
    "adolf_init",
    "adolf_step",
    "adolf_local_init",
    "adolf_local_step",
    "condat_vu_init",
    "condat_vu_step",
    "extra_init",
    "extra_step",
    "run",
    "extra_grid_search",
    "grid_lanes",
    "GridPoint",
    "GridSearch",
    "DIVERGENCE_NORM",
]

DIVERGENCE_NORM = 1e12


@dataclass(frozen=True)
class FixedStepParams:
    """Constant (alpha, sigma, gamma) for the oracle and constant-mode runs."""

    alpha: float
    sigma: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.alpha, self.sigma, self.gamma)):
            raise ParameterError(
                f"fixed alpha, sigma, gamma must all be positive and finite, got "
                f"{self.alpha}, {self.sigma}, {self.gamma}"
            )


@dataclass(frozen=True)
class ExtraParams:
    """Fixed stepsize for the EXTRA baseline."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ParameterError(f"EXTRA stepsize must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class StopRule:
    """Iteration budget plus an optional metric threshold, tested every cadence rounds."""

    max_iter: int = 10_000
    metric: str | None = None
    threshold: float | None = None
    cadence: int = 1

    def __post_init__(self):
        if self.max_iter < 0:
            raise ParameterError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.cadence < 1:
            raise ParameterError(f"cadence must be >= 1, got {self.cadence}")
        if (self.metric is None) != (self.threshold is None):
            raise ParameterError("metric and threshold must be given together")
        if self.metric is not None:
            if self.metric not in METRICS:
                raise ParameterError(f"metric must be one of {tuple(METRICS)}, got {self.metric!r}")
            if not self.threshold > 0:
                raise ParameterError(f"threshold must be positive, got {self.threshold}")


def _check_stack(x, problem: ProblemInstance, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.m, problem.d):
        raise ShapeError(
            f"{name} must have shape ({problem.m}, {problem.d}), got {x.shape}"
        )
    return x


# ---------------------------------------------------------------------------
# shared-stepsize adaptive engine


@dataclass
class AdolfState:
    """Iterates, dual, gradient cache, and the stepsize triple after k rounds.

    alpha, gamma and sigma are the last step's; k is also the index of the
    next selection.
    """

    x_now: np.ndarray
    x_prev: np.ndarray
    dual: np.ndarray
    grad_prev: np.ndarray  # gradient at x_prev, reused by the curvature proxy
    alpha: float
    gamma: float
    sigma: float
    k: int
    comm_vector: int
    comm_scalar: int
    l_last: float | None = None
    mu_last: float | None = None

    # recorder view
    y = None


def adolf_init(
    problem: ProblemInstance,
    gossip: GossipMatrix,
    x0: np.ndarray,
    x_minus1: np.ndarray | None = None,
    alpha0: float = 1e-3,
    sigma0: float = 1.0,
    gamma0: float = 1.0,
) -> AdolfState:
    """Initialization round: one dual ramp-up and one primal step.

    The dual picks up sigma0 alpha0 (I - W) ((1 + gamma0) X0 - gamma0 X^-1)
    starting from zero, so its columns sum to zero from the first round.
    """
    x0 = _check_stack(x0, problem, "x0")
    x_minus1 = x0 if x_minus1 is None else _check_stack(x_minus1, problem, "x_minus1")
    if not all(0 < v < np.inf for v in (alpha0, sigma0, gamma0)):
        raise ParameterError("alpha0, sigma0, gamma0 must be positive and finite")
    w = gossip.shifted
    mix = (1.0 + gamma0) * x0 - gamma0 * x_minus1
    dual = sigma0 * alpha0 * (mix - w @ mix)
    grad0 = problem.stacked_gradient(x0)
    x1 = x0 - alpha0 * (grad0 + dual)
    return AdolfState(
        x_now=x1,
        x_prev=x0,
        dual=dual,
        grad_prev=grad0,
        alpha=alpha0,
        gamma=gamma0,
        sigma=sigma0,
        k=1,
        comm_vector=1,
        comm_scalar=0,
    )


def adolf_step(
    state: AdolfState,
    problem: ProblemInstance,
    gossip: GossipMatrix,
    params: StepsizeParams | FixedStepParams,
) -> AdolfState:
    """One synchronous round: curvature average, selection, dual+primal update."""
    w = gossip.shifted
    grad_now = problem.stacked_gradient(state.x_now)
    l_k, mu_k = curvature_global(grad_now, state.grad_prev, state.x_now, state.x_prev)

    if isinstance(params, FixedStepParams):
        alpha, gamma, sigma_k = params.alpha, params.gamma, params.sigma
        sigma_alpha = sigma_k * alpha
        scalar_rounds = 0  # selection disabled: no global average needed
    elif params.mode == MODE_CONVEX:
        sigma_k = params.sigma.sigma_bar
        alpha, gamma = select_alpha_convex(l_k, sigma_k, state.alpha, state.gamma, state.k,
                                           params)
        sigma_alpha = sigma_k * alpha
        scalar_rounds = 1
    elif params.mode == MODE_STRONGLY_CONVEX:
        alpha, gamma = select_alpha_strongly_convex(l_k, state.alpha, state.gamma, state.k,
                                                    params)
        sigma_k = params.sigma.sigma / alpha**2
        sigma_alpha = params.sigma.sigma / alpha
        scalar_rounds = 1
    else:
        raise ConfigError(f"adolf_step cannot run in mode {params.mode!r}")

    mix = (1.0 + gamma) * state.x_now - gamma * state.x_prev
    dual = state.dual + sigma_alpha * (mix - w @ mix)
    x_next = state.x_now - alpha * (grad_now + dual)
    return AdolfState(
        x_now=x_next,
        x_prev=state.x_now,
        dual=dual,
        grad_prev=grad_now,
        alpha=alpha,
        gamma=gamma,
        sigma=sigma_k,
        k=state.k + 1,
        comm_vector=state.comm_vector + 1,
        comm_scalar=state.comm_scalar + scalar_rounds,
        l_last=l_k,
        mu_last=mu_k,
    )


# ---------------------------------------------------------------------------
# per-agent adaptive engine


@dataclass
class AdolfLocalState:
    """Like AdolfState but with per-agent stepsize vectors alpha and gamma."""

    x_now: np.ndarray
    x_prev: np.ndarray
    dual: np.ndarray
    grad_prev: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    k: int
    comm_vector: int
    comm_scalar: int
    l_last: float | None = None
    mu_last: float | None = None

    # recorder view; sigma_i is per agent, so there is no scalar sigma
    sigma = None
    y = None


def _local_sigma_alpha(alpha_vec: np.ndarray, params: StepsizeParams) -> np.ndarray:
    """Row scaling sigma_i alpha_i of the dual increment."""
    if params.strongly_convex_sigma:
        return params.sigma.sigma / alpha_vec
    return params.sigma.sigma_bar * alpha_vec


def adolf_local_init(
    problem: ProblemInstance,
    gossip: GossipMatrix,
    x0: np.ndarray,
    x_minus1: np.ndarray | None = None,
    params: StepsizeParams | None = None,
) -> AdolfLocalState:
    """Initialization with uniform Lambda0 = alpha0 I and Gamma0 = I."""
    if params is None or params.mode != MODE_LOCAL:
        raise ConfigError("adolf_local_init needs StepsizeParams in local mode")
    x0 = _check_stack(x0, problem, "x0")
    x_minus1 = x0 if x_minus1 is None else _check_stack(x_minus1, problem, "x_minus1")
    w = gossip.shifted
    m = problem.m
    alpha_vec = np.full(m, params.alpha0)
    scaled = _local_sigma_alpha(alpha_vec, params)[:, None] * (2.0 * x0 - x_minus1)
    dual = scaled - w @ scaled
    grad0 = problem.stacked_gradient(x0)
    x1 = x0 - params.alpha0 * (grad0 + dual)
    return AdolfLocalState(
        x_now=x1,
        x_prev=x0,
        dual=dual,
        grad_prev=grad0,
        alpha=alpha_vec,
        gamma=np.ones(m),
        k=1,
        comm_vector=1,
        comm_scalar=0,
    )


def adolf_local_step(
    state: AdolfLocalState,
    problem: ProblemInstance,
    gossip: GossipMatrix,
    params: StepsizeParams,
) -> AdolfLocalState:
    """One round: own-curvature candidates, decrease rule, min-consensus, update.

    Every agent's rule runs at once on per-agent arrays. The diagonal scaling
    Sigma_k Lambda_k applies before the mixing matrix, so each agent scales
    its own contribution and then gossips once.
    """
    w = gossip.shifted
    grad_now = problem.stacked_gradient(state.x_now)
    l_vec, l_k, mu_k = curvature_local(grad_now, state.grad_prev, state.x_now, state.x_prev)
    if params.strongly_convex_sigma:
        hat = local_candidate_strongly_convex(l_vec, params.sigma.sigma, params.c1)
    else:
        hat = curvature_guard(l_vec, params.sigma.sigma_bar, params.c1)
    tilde = local_tilde(hat, state.alpha, state.gamma, params, state.k)
    alpha_vec, gamma_vec = local_min_consensus(tilde, gossip.neighbor_mask(), state.alpha)

    mix = (1.0 + gamma_vec)[:, None] * state.x_now - gamma_vec[:, None] * state.x_prev
    scaled = _local_sigma_alpha(alpha_vec, params)[:, None] * mix
    dual = state.dual + (scaled - w @ scaled)
    x_next = state.x_now - alpha_vec[:, None] * (grad_now + dual)
    return AdolfLocalState(
        x_now=x_next,
        x_prev=state.x_now,
        dual=dual,
        grad_prev=grad_now,
        alpha=alpha_vec,
        gamma=gamma_vec,
        k=state.k + 1,
        comm_vector=state.comm_vector + 1,
        comm_scalar=state.comm_scalar + 1,
        l_last=l_k,
        mu_last=mu_k,
    )


# ---------------------------------------------------------------------------
# fixed-parameter primal-dual oracle


@dataclass
class CondatVuState:
    """Oracle state; keeps the explicit dual Y and the operator sqrt(I - W)."""

    x_now: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    l_op: np.ndarray
    params: FixedStepParams
    k: int
    comm_vector: int

    # recorder view
    comm_scalar = 0
    l_last = None
    mu_last = None
    dual = None

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def gamma(self) -> float:
        return self.params.gamma

    @property
    def sigma(self) -> float:
        return self.params.sigma


def condat_vu_init(
    problem: ProblemInstance,
    gossip: GossipMatrix,
    x0: np.ndarray,
    x_minus1: np.ndarray | None = None,
    params: FixedStepParams = FixedStepParams(alpha=1e-2),
) -> CondatVuState:
    """Run the first oracle iteration from Y0 = 0."""
    x0 = _check_stack(x0, problem, "x0")
    x_minus1 = x0 if x_minus1 is None else _check_stack(x_minus1, problem, "x_minus1")
    l_op = graph_laplacian_sqrt(gossip)
    state = CondatVuState(
        x_now=x0, x_prev=x_minus1, y=np.zeros_like(x0), l_op=l_op, params=params,
        k=0, comm_vector=0,
    )
    return condat_vu_step(state, problem)


def condat_vu_step(state: CondatVuState, problem: ProblemInstance) -> CondatVuState:
    """One oracle iteration; the conjugate prox of the {0}-indicator is identity."""
    p = state.params
    mix = (1.0 + p.gamma) * state.x_now - p.gamma * state.x_prev
    y_next = state.y + p.sigma * p.alpha * (state.l_op @ mix)
    grad_now = problem.stacked_gradient(state.x_now)
    x_next = state.x_now - p.alpha * (grad_now + state.l_op @ y_next)
    return CondatVuState(
        x_now=x_next,
        x_prev=state.x_now,
        y=y_next,
        l_op=state.l_op,
        params=p,
        k=state.k + 1,
        comm_vector=state.comm_vector + 1,
    )


# ---------------------------------------------------------------------------
# EXTRA baseline


@dataclass
class ExtraState:
    """Two-term recursion state; caches the mixed iterate to keep one gossip."""

    x_now: np.ndarray
    x_prev: np.ndarray
    grad_prev: np.ndarray
    w_x_prev: np.ndarray  # W @ x_prev from the previous round
    alpha: float
    k: int
    comm_vector: int
    l_last: float | None = None
    mu_last: float | None = None

    # recorder view
    comm_scalar = 0
    gamma = 1.0
    sigma = None
    dual = None
    y = None


def extra_init(
    problem: ProblemInstance,
    gossip: GossipMatrix,
    x0: np.ndarray,
    params: ExtraParams,
) -> ExtraState:
    """First round is mixed gradient descent: X1 = W X0 - alpha grad F(X0)."""
    x0 = _check_stack(x0, problem, "x0")
    wx0 = gossip.shifted @ x0
    grad0 = problem.stacked_gradient(x0)
    x1 = wx0 - params.alpha * grad0
    return ExtraState(
        x_now=x1, x_prev=x0, grad_prev=grad0, w_x_prev=wx0,
        alpha=params.alpha, k=1, comm_vector=1,
    )


def extra_step(state: ExtraState, problem: ProblemInstance, gossip: GossipMatrix) -> ExtraState:
    """X^{k+1} = (I + W) X^k - W_bar X^{k-1} - alpha (grad^k - grad^{k-1}).

    W_bar = (I + W) / 2 is the second mixing matrix; applying it to the
    cached W X^{k-1} keeps the round at a single gossip multiplication.
    """
    grad_now = problem.stacked_gradient(state.x_now)
    wx_now = gossip.shifted @ state.x_now
    l_k, mu_k = curvature_global(grad_now, state.grad_prev, state.x_now, state.x_prev)
    x_next = (
        state.x_now
        + wx_now
        - 0.5 * (state.x_prev + state.w_x_prev)
        - state.alpha * (grad_now - state.grad_prev)
    )
    return ExtraState(
        x_now=x_next,
        x_prev=state.x_now,
        grad_prev=grad_now,
        w_x_prev=wx_now,
        alpha=state.alpha,
        k=state.k + 1,
        comm_vector=state.comm_vector + 1,
        l_last=l_k,
        mu_last=mu_k,
    )


# ---------------------------------------------------------------------------
# run loop


def _is_diverged(x: np.ndarray) -> bool:
    """Non-finite entries or a Frobenius norm above DIVERGENCE_NORM.

    One norm decides: it is NaN or inf exactly when an entry is (or on
    overflow). A non-finite dual needs no check of its own, because every
    primal update subtracts alpha times it, so X turns non-finite with it.
    """
    return not np.linalg.norm(x) <= DIVERGENCE_NORM


@dataclass(frozen=True)
class StartView:
    """The starting pair (X^0, X^-1) seen as a state: no rounds, zero dual.

    run() starts from it: trace row 0 reads it as the state before the
    initialization update, and a zero budget ends on it.
    """

    x_now: np.ndarray
    x_prev: np.ndarray
    k: int = 0
    comm_vector: int = 0
    comm_scalar: int = 0
    y = None

    @property
    def dual(self) -> np.ndarray:
        return np.zeros_like(self.x_now)


def _init_adolf(problem, gossip, params, x0, x_minus1) -> AdolfState:
    if isinstance(params, FixedStepParams):
        return adolf_init(problem, gossip, x0, x_minus1, params.alpha, params.sigma, params.gamma)
    if not isinstance(params, StepsizeParams) or params.mode == MODE_LOCAL:
        raise ConfigError("adolf needs FixedStepParams or global-mode StepsizeParams")
    return adolf_init(problem, gossip, x0, x_minus1, params.alpha0, params.sigma0())


def _init_adolf_local(problem, gossip, params, x0, x_minus1) -> AdolfLocalState:
    if not isinstance(params, StepsizeParams) or params.mode != MODE_LOCAL:
        raise ConfigError("adolf_local needs StepsizeParams in local mode")
    return adolf_local_init(problem, gossip, x0, x_minus1, params)


def _init_condat_vu(problem, gossip, params, x0, x_minus1) -> CondatVuState:
    if not isinstance(params, FixedStepParams):
        raise ConfigError("condat_vu needs FixedStepParams")
    return condat_vu_init(problem, gossip, x0, x_minus1, params)


def _init_extra(problem, gossip, params, x0, x_minus1) -> ExtraState:
    if not isinstance(params, ExtraParams):
        raise ConfigError("extra needs ExtraParams")
    return extra_init(problem, gossip, x0, params)


# algorithm -> (init(problem, gossip, params, x0, x_minus1), step(state, problem, gossip, params))
_ALGORITHMS = {
    "adolf": (_init_adolf, adolf_step),
    "adolf_local": (_init_adolf_local, adolf_local_step),
    "condat_vu": (_init_condat_vu, lambda state, problem, gossip, params: condat_vu_step(state, problem)),
    "extra": (_init_extra, lambda state, problem, gossip, params: extra_step(state, problem, gossip)),
}


def run(
    algorithm: str,
    problem: ProblemInstance,
    gossip: GossipMatrix,
    params,
    stop: StopRule,
    recorder: TraceRecorder,
    x0: np.ndarray,
    x_minus1: np.ndarray | None = None,
) -> Trace:
    """Drive one algorithm under a stop rule, recording diagnostics.

    Iteration 0 is the initialization update; the trace row at index k
    always describes the iterate after k communication rounds. Divergence
    (non-finite values or Frobenius norm above 1e12) ends the run with
    status "diverged" instead of raising.
    """
    if algorithm not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    x0 = _check_stack(x0, problem, "x0")
    x_minus1 = x0 if x_minus1 is None else _check_stack(x_minus1, problem, "x_minus1")
    if stop.metric in SADDLE_METRICS and recorder.saddle is None:
        raise ConfigError(f"stop metric {stop.metric!r} needs saddle diagnostics")

    init, step = _ALGORITHMS[algorithm]

    def stopped(k: int) -> bool:
        if stop.metric is None:
            return False
        if k % stop.cadence != 0 and k != stop.max_iter:
            return False
        value = recorder.metric_value(stop.metric, state.x_now)
        return value is not None and value <= stop.threshold

    state = StartView(x0, x_minus1)
    status = "budget"
    while state.k < stop.max_iter:
        try:
            new = (init(problem, gossip, params, x0, x_minus1) if state.k == 0
                   else step(state, problem, gossip, params))
        except NumericError:
            status = "diverged"
            break
        recorder.observe(state, new)
        state = new
        if _is_diverged(state.x_now):
            status = "diverged"
            break
        if stopped(state.k):
            status = "converged"
            break

    recorder.finalize(state)
    recorder.trace.status = status
    return recorder.trace


# Working-set bound of one block of the EXTRA grid search. Each stepsize in a
# block is a column of at most GRID_COLUMN_ARRAYS (m, d) arrays: the iterate,
# the half-mixed previous iterate, the previous and the new gradient, the
# gossip product (which first serves as the ridge gradient's scratch), and the
# ergodic sum when ranking on merit. Each grid worker holds one such set of
# arrays, sized for one block; on the fig2 presets (m=20, d=500, 4 columns a
# block) that is 1.6 MB, or 1.9 MB when ranking on merit.
GRID_BLOCK_BYTES = 2 * 2**20
GRID_COLUMN_ARRAYS = 6


@dataclass(frozen=True)
class GridPoint:
    """One grid stepsize: how its budget run ended and its ranking value.

    rounds is the round it diverged at (the final k run() would report), or
    the budget; value is None when it diverged or its metric is not finite.
    """

    alpha: float
    status: str  # budget | diverged
    rounds: int
    value: float | None


class GridSearch(NamedTuple):
    """extra_grid_search's result: the chosen stepsize, one GridPoint per grid
    stepsize in ascending order, and how many processes ran the blocks."""

    alpha: float
    points: list[GridPoint]
    workers: int


def _grid_block_width(m: int, d: int) -> int:
    """Stepsizes per block: as many columns as fit GRID_BLOCK_BYTES, at least one."""
    return max(1, GRID_BLOCK_BYTES // (GRID_COLUMN_ARRAYS * 8 * m * d))


def grid_lanes(problem: ProblemInstance, blocks: int) -> int:
    """How many worker processes extra_grid_search plans for a grid of that many blocks.

    One per block, at most two per CPU this process may use, the caller
    included. Two per CPU let the OS share the CPUs between the long blocks
    instead of queueing one behind another. One, in this process, on one CPU,
    where os.fork does not exist, or when the problem's evaluators already
    split its agents into lanes.
    """
    cpus = objectives._cpu_count()
    if problem.lanes > 1 or cpus == 1 or not hasattr(os, "fork"):
        return 1
    return min(2 * cpus, blocks)


def _grid_buffers(m: int, width: int, d: int, ergodic: bool) -> list:
    """One grid worker's flat working arrays for blocks of up to width columns:
    iterate, half-mixed previous iterate, previous and new gradient, gossip
    product, and the ergodic sum (None unless ranking on merit)."""
    size = m * width * d
    return [np.empty(size) for _ in range(5)] + [np.empty(size) if ergodic else None]


def _front(flat: list, m: int, width: int, d: int) -> list:
    """The (m, width, d) view of the front of each flat array (None stays None)."""
    return [None if buf is None else buf[:m * width * d].reshape(m, width, d) for buf in flat]


def _extra_block(problem, gossip, start, alphas, budget, recorder, metric,
                 flat) -> list[GridPoint]:
    """EXTRA at every stepsize of alphas, advanced as one (m, G, d) stack.

    Column g follows extra_init and extra_step at alphas[g] from the shared
    start (X^0, W X^0, grad F(X^0)): each round is one gradient call over the
    stack, one gossip multiply and the update, with extra_step's operation
    order. u holds (X^{k-1} + W X^{k-1}) / 2, the only use of X^{k-1} there.
    A column leaves the stack when run() would end it "diverged": a
    non-finite dG.dG in round k (curvature_global raises) ends it at k, a
    non-finite iterate or a Frobenius norm above DIVERGENCE_NORM after round
    k at k + 1. A surviving column is valued by recorder.metric_value at X^K,
    or for merit at the mean (X^0 + ... + X^{K-1}) / K, the recorder's
    ergodic average for EXTRA's gamma of 1.

    The stacks live at the front of flat, one worker's _grid_buffers, and the
    rounds allocate nothing of size (m, G, d): the gradients are written
    into two arrays that swap roles every round, and the columns that stay
    are moved to the front of the arrays when others diverge. G, and so
    every BLAS call, is the same as with fresh arrays each round.
    """
    x0, wx0, grad0 = start
    ergodic = metric == "merit"
    m, d = x0.shape
    live = np.arange(len(alphas))  # block index of each stack column
    alpha = np.asarray(alphas)[:, None]
    points: list[GridPoint | None] = [None] * len(alphas)
    x, u, g_prev, g_new, s, acc = _front(flat, m, len(alphas), d)
    x[...] = x0[:, None, :]
    for k in range(budget):
        if ergodic:
            if k == 0:
                acc[...] = x
            else:
                acc += x
        if k == 0:
            np.subtract(wx0[:, None, :], np.multiply(alpha, grad0[:, None, :], out=s), out=x)
            u[...] = (0.5 * (x0 + wx0))[:, None, :]
            g_prev[...] = grad0[:, None, :]
            failed = np.zeros(len(alphas), dtype=bool)
        else:
            problem.column_gradients(x, out=g_new, scratch=s)
            np.matmul(gossip.shifted, x.reshape(m, -1), out=s.reshape(m, -1))
            s += x
            dg = np.subtract(g_new, g_prev, out=g_prev)
            failed = ~np.isfinite(np.einsum("mgd,mgd->g", dg, dg))
            np.subtract(s, u, out=x)
            np.multiply(s, 0.5, out=u)
            dg *= alpha
            x -= dg
            g_prev, g_new = g_new, g_prev
        bad = failed | ~(np.sqrt(np.einsum("mgd,mgd->g", x, x)) <= DIVERGENCE_NORM)
        if bad.any():
            for j in np.flatnonzero(bad):
                rounds = k if failed[j] else k + 1
                points[live[j]] = GridPoint(alphas[live[j]], "diverged", rounds, None)
            keep = np.flatnonzero(~bad)
            live, alpha = live[keep], alpha[keep]
            if not live.size:
                break
            old = (x, u, g_prev, acc)
            x, u, g_prev, g_new, s, acc = _front(flat, m, live.size, d)
            for new, prev in zip((x, u, g_prev, acc), old):
                if new is not None:  # in one array, new[i] ends before prev[i + 1] starts
                    for i in range(m):
                        new[i] = prev[i, keep]
    for j, idx in enumerate(live):
        if ergodic:  # at budget 0 there is no ergodic average, as in the recorder
            value = None if budget == 0 else recorder.metric_value(metric, acc[:, j] / budget)
        else:
            value = recorder.metric_value(metric, np.ascontiguousarray(x[:, j]))
        finite = value is not None and np.isfinite(value)
        points[idx] = GridPoint(alphas[idx], "budget", budget, value if finite else None)
    return points


def _fork_worker(items: range, work):
    """(pid, report pipe) of a forked worker running items; None if fork fails.

    The child runs work(i) for each index i in items, in order, pickles
    {i: work(i)} into its report pipe and leaves through os._exit, so it
    runs none of the parent's cleanup. If an item raises, it stops there and
    reports the items before it; the caller runs that item and those after
    it. Exit status 0 means the report is complete.
    """
    report, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs these items at the end
        os.close(report)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            done = {}
            try:
                for item in items:
                    done[item] = work(item)
            except BaseException:  # the child only exits; the caller runs the item again
                pass
            with open(write_end, "wb") as pipe:
                pickle.dump(done, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(report, "rb")


def _reap(children: list) -> dict:
    """Every result the children reported, by item. Each child is waited for on
    every path: if the caller is interrupted while reading, the reports not
    read are closed, their writers fail, and they exit."""
    reports = []
    try:
        for _, pipe in children:
            reports.append(pipe.read())
    finally:
        for _, pipe in children:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    results = {}
    for data, code in zip(reports, codes):
        if code == 0:  # bytes a worker of this search wrote, so safe to unpickle
            results.update(pickle.loads(data))
    return results


def _in_grid_workers(count: int, workers: int, work) -> tuple[list, int]:
    """([work(0), ..., work(count - 1)], the workers that ran them).

    Worker w runs items w, w + workers, w + 2 * workers, ... in order; this
    process is worker 0, and each other worker is a forked process. A worker
    stops at its first failing item. Once every child has been waited for,
    this process runs, in item order, each item that no worker reported (a
    failed one, one after it, or one of a child that died or never forked);
    so the first failing item raises here the exception one worker raises,
    even if it does not pickle or the child that met it died. Plain os.fork,
    not multiprocessing, which would load ctypes and more into this process:
    a child starts from this process's memory, with only the thread that
    forked it; the agent lane pool forgets its threads at fork
    (objectives._forget_lane_pool).
    """
    results, children, failed = {}, [], None
    try:
        for w in range(1, workers):
            if (child := _fork_worker(range(w, count, workers), work)) is None:
                break
            children.append(child)
        try:
            for item in range(0, count, workers):
                results[item] = work(item)
        except Exception as exc:  # raised below, unless an earlier item fails first
            failed = item, exc
    finally:
        results.update(_reap(children))
    for i in range(count):
        if i not in results:
            if failed is not None and failed[0] == i:
                raise failed[1]
            results[i] = work(i)
    return [results[i] for i in range(count)], len(children) + 1


def extra_grid_search(
    problem: ProblemInstance,
    gossip: GossipMatrix,
    grid,
    budget: int,
    recorder: TraceRecorder,
    metric: str = DEFAULT_METRIC,
    x0: np.ndarray | None = None,
) -> GridSearch:
    """Run EXTRA at every grid stepsize for budget rounds; pick the best one.

    "Best" means the smallest terminal metric as run()'s final trace row
    would report it, read through recorder.metric_value (ties go to the
    larger stepsize); diverged points and non-finite values are skipped.
    The stepsizes run as column blocks of _extra_block, as many per block as
    fit GRID_BLOCK_BYTES. The blocks run in worker processes (see
    grid_lanes and _in_grid_workers), each with one set of working arrays; a
    block makes the same calls in any worker, so the points are
    bit-identical at any worker count. Returns the chosen stepsize, one
    GridPoint per grid stepsize in ascending order, and the worker count.
    """
    grid = sorted(float(a) for a in grid)
    if not grid or not all(0 < a < np.inf for a in grid):
        raise ParameterError("grid must be a nonempty list of positive finite stepsizes")
    if metric not in METRICS:
        raise ParameterError(f"grid-search metric must be one of {tuple(METRICS)}, got {metric!r}")
    if budget < 0:
        raise ParameterError(f"grid-search budget must be >= 0, got {budget}")
    if metric in SADDLE_METRICS and recorder.saddle is None:
        raise ConfigError(f"grid-search metric {metric!r} needs saddle diagnostics")
    x0 = np.zeros((problem.m, problem.d)) if x0 is None else _check_stack(x0, problem, "x0")
    start = (x0, gossip.shifted @ x0, problem.stacked_gradient(x0))
    width = _grid_block_width(problem.m, problem.d)
    blocks = [grid[i:i + width] for i in range(0, len(grid), width)]
    # this process's working arrays; a forked worker writes to its own copy
    buffers = _grid_buffers(problem.m, len(blocks[0]), problem.d, metric == "merit")
    results, workers = _in_grid_workers(
        len(blocks), grid_lanes(problem, len(blocks)),
        lambda i: _extra_block(problem, gossip, start, blocks[i], budget, recorder, metric,
                               buffers))
    points = [point for result in results for point in result]
    best, best_value = None, np.inf
    for point in points:
        if point.value is not None and point.value <= best_value:
            best, best_value = point.alpha, point.value
    if best is None:
        diverged = sum(point.status == "diverged" for point in points)
        if diverged == len(points):
            raise NoConvergentStepsizeError(f"every stepsize in the grid of {len(grid)} diverged")
        raise NoConvergentStepsizeError(
            f"no stepsize in the grid of {len(grid)} ended with a finite {metric} after "
            f"{budget} rounds ({diverged} diverged)"
        )
    return GridSearch(best, points, workers)
