"""Iteration engines: adaptive primal-dual solvers, the fixed-parameter
oracle, the EXTRA baseline, and the synchronous run loop.

The adaptive engines and EXTRA share one round structure per iteration:
evaluate each agent's gradient once, exchange one m x d message block with
neighbors (a single multiplication by a graph-sparse matrix), and update.
The adaptive engines additionally exchange one scalar per agent (a global
average for the shared-stepsize variant, a neighborhood minimum for the
local one); those scalar rounds are counted separately. The fixed-parameter
oracle condat_vu is the exception: it multiplies twice by L_op = sqrt(I - W),
which is dense (all 400 entries on the 20-agent line graph, where W has 58),
so its round is no neighbor exchange. It is the reference that constant-mode
adolf must match to 1e-10 (acceptance criterion 1), not a method to deploy.

Every engine is one step(state, problem, gossip, params) over one State
dataclass, and it returns a fresh state, so a run is an explicit state
machine and traces can be reconstructed exactly. A run starts from
initial_state(problem, x0, x_minus1), State(X^0, X^-1) with no dual; round 0 of
each step is the engine's initialization from it, and there the step also
checks that params are of the engine's kind. One run is strictly sequential
(the synchronous-round semantics are part of correctness); distinct runs
share nothing mutable and may execute in parallel. run() drives the step
named by its algorithm and hands the trace recorder each pair of
consecutive states.

The EXTRA grid search runs many stepsizes without run() or a recorder: it
advances them as the columns of one (m, G, d) stack, so each round costs one
stacked gradient and one gossip multiply for the whole block. Under a stop
threshold it visits the stepsizes from the largest down, and no stepsize
runs past the round at which a larger one reached the threshold. Once that
cap can only fall, the blocks left run at once in forked worker processes,
one per CPU, and every point keeps the bits of the one-process search. A
whole search can also start ahead in a forked child (fork_grid_search),
which the search call with the same arguments joins.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading
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
)
from .objectives import ProblemInstance
from .stepsize import (
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
from .topology import GossipMatrix

__all__ = [
    "State",
    "FixedStepParams",
    "ExtraParams",
    "StopRule",
    "initial_state",
    "adolf_step",
    "adolf_local_step",
    "condat_vu_step",
    "extra_step",
    "run",
    "extra_grid_search",
    "fork_grid_search",
    "spare_cpus",
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
    """Iteration budget plus an optional metric threshold, tested every cadence rounds.

    merit is tested at the gamma-weighted ergodic average, which keeps the early
    iterates' weight: for strongly convex adolf it decays about like 1/k, so a merit
    threshold far below the early iterates' merit needs on the order of 1/threshold
    rounds, even where the iterates converge linearly.
    """

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


@dataclass
class State:
    """One engine's state after k rounds; an engine leaves the fields it does not use None.

    x_now and x_prev are X^k and X^{k-1}; k counts the vector rounds so far,
    one a step, and comm_scalar the scalar rounds. dual is D = L_op Y (adolf,
    adolf_local), y the explicit Y (condat_vu). alpha, gamma and sigma are the
    step's that produced the state (per-agent vectors and no sigma for
    adolf_local; gamma 1 and no sigma for extra), with its curvature estimates
    l_last and mu_last. grad_prev is the gradient at x_prev, which the
    curvature proxy reuses, products_prev the own products A_i x_i at x_prev
    that the gradient was formed from, which give the trace F(x_prev), and
    w_x_prev extra's W x_prev, which keeps its round at one gossip
    multiplication.
    """

    x_now: np.ndarray
    x_prev: np.ndarray
    k: int = 0
    comm_scalar: int = 0
    dual: np.ndarray | None = None
    y: np.ndarray | None = None
    alpha: float | np.ndarray | None = None
    gamma: float | np.ndarray | None = None
    sigma: float | None = None
    l_last: float | None = None
    mu_last: float | None = None
    grad_prev: np.ndarray | None = None
    products_prev: np.ndarray | None = None
    w_x_prev: np.ndarray | None = None


def initial_state(problem: ProblemInstance, x0, x_minus1=None) -> State:
    """State(X^0, X^-1), the start of every run; X^-1 defaults to X^0.

    Both stacks are checked against the problem's shape. Round 0 of each
    engine's step is its initialization from this state, which carries no
    dual: adolf and adolf_local start D, and condat_vu Y, from zero there.
    """
    x0 = problem.check_shape(x0, "x0")
    x_minus1 = x0 if x_minus1 is None else problem.check_shape(x_minus1, "x_minus1")
    return State(x0, x_minus1)


# ---------------------------------------------------------------------------
# shared-stepsize adaptive engine


def _sigma_alpha(alpha, params: StepsizeParams):
    """sigma_k alpha_k, the dual increment's scale, per agent for a vector: adolf's at
    the rounds that select, adolf_local's at every round."""
    if params.strongly_convex:
        return params.sigma / alpha
    return params.sigma_bar * alpha


def adolf_step(state: State, problem: ProblemInstance, gossip: GossipMatrix,
               params: StepsizeParams | FixedStepParams) -> State:
    """One synchronous round: curvature average, selection, dual+primal update.

    Round 0 is the initialization: it selects nothing, and the dual picks up
    sigma0 alpha0 (I - W) ((1 + gamma0) X0 - gamma0 X^-1) from zero, so its
    columns sum to zero from the first round. FixedStepParams give (alpha,
    sigma, gamma) at every round; StepsizeParams give alpha0, its sigma0()
    and gamma0 = 1 at round 0.
    """
    fixed = isinstance(params, FixedStepParams)
    if state.k == 0 and not (fixed or isinstance(params, StepsizeParams) and not params.local):
        raise ConfigError("adolf needs FixedStepParams or global-mode StepsizeParams")
    w = gossip.shifted
    grad_now, products = problem.stacked_gradient(state.x_now, products=True)
    l_k = mu_k = None
    if state.k > 0:
        l_k, mu_k = curvature_global(grad_now, state.grad_prev, state.x_now, state.x_prev)

    selects = not fixed and state.k > 0  # a selection takes one global average
    if not selects:
        alpha, gamma, sigma_k = ((params.alpha, params.gamma, params.sigma) if fixed
                                 else (params.alpha0, 1.0, params.sigma0()))
    elif params.strongly_convex:
        alpha, gamma = select_alpha_strongly_convex(l_k, state.alpha, state.gamma, state.k,
                                                    params)
        sigma_k = params.sigma / alpha**2
    else:
        sigma_k = params.sigma_bar
        alpha, gamma = select_alpha_convex(l_k, sigma_k, state.alpha, state.gamma, state.k,
                                           params)
    # without a selection, sigma_k * alpha as is: sigma0() * alpha0 rounds apart from sigma / alpha0
    sigma_alpha = _sigma_alpha(alpha, params) if selects else sigma_k * alpha

    mix = (1.0 + gamma) * state.x_now - gamma * state.x_prev
    dual = (0.0 if state.k == 0 else state.dual) + sigma_alpha * (mix - w @ mix)
    x_next = state.x_now - alpha * (grad_now + dual)
    return State(x_now=x_next, x_prev=state.x_now, k=state.k + 1,
                 comm_scalar=state.comm_scalar + selects,
                 dual=dual, alpha=alpha, gamma=gamma, sigma=sigma_k, l_last=l_k, mu_last=mu_k,
                 grad_prev=grad_now, products_prev=products)


# ---------------------------------------------------------------------------
# per-agent adaptive engine


def adolf_local_step(state: State, problem: ProblemInstance, gossip: GossipMatrix,
                     params: StepsizeParams) -> State:
    """One round: own-curvature candidates, decrease rule, min-consensus, update.

    Every agent's rule runs at once on per-agent arrays. The diagonal scaling
    Sigma_k Lambda_k applies before the mixing matrix, so each agent scales
    its own contribution and then gossips once. Round 0 is the
    initialization, with uniform Lambda0 = alpha0 I and Gamma0 = I, the dual
    from zero and no scalar round.
    """
    if state.k == 0 and not (isinstance(params, StepsizeParams) and params.local):
        raise ConfigError("adolf_local needs StepsizeParams in local mode")
    w = gossip.shifted
    grad_now, products = problem.stacked_gradient(state.x_now, products=True)
    if state.k == 0:
        l_k = mu_k = None
        alpha_vec, gamma_vec = np.full(problem.m, params.alpha0), np.ones(problem.m)
    else:
        l_vec, l_k, mu_k = curvature_local(grad_now, state.grad_prev, state.x_now, state.x_prev)
        if params.strongly_convex:
            hat = local_candidate_strongly_convex(l_vec, params.sigma, params.c1)
        else:
            hat = curvature_guard(l_vec, params.sigma_bar, params.c1)
        tilde = local_tilde(hat, state.alpha, state.gamma, params, state.k)
        alpha_vec, gamma_vec = local_min_consensus(tilde, gossip.neighbor_mask, state.alpha)

    mix = (1.0 + gamma_vec)[:, None] * state.x_now - gamma_vec[:, None] * state.x_prev
    scaled = _sigma_alpha(alpha_vec, params)[:, None] * mix
    dual = (0.0 if state.k == 0 else state.dual) + (scaled - w @ scaled)
    x_next = state.x_now - alpha_vec[:, None] * (grad_now + dual)
    return State(x_now=x_next, x_prev=state.x_now, k=state.k + 1,
                 comm_scalar=state.comm_scalar + (state.k > 0),
                 dual=dual, alpha=alpha_vec, gamma=gamma_vec, l_last=l_k, mu_last=mu_k,
                 grad_prev=grad_now, products_prev=products)


# ---------------------------------------------------------------------------
# fixed-parameter primal-dual oracle


def condat_vu_step(
    state: State, problem: ProblemInstance, gossip: GossipMatrix, params: FixedStepParams
) -> State:
    """One oracle iteration with L_op = sqrt(I - W), from Y0 = 0 at round 0;
    the conjugate prox of the {0}-indicator is identity."""
    if state.k == 0 and not isinstance(params, FixedStepParams):
        raise ConfigError("condat_vu needs FixedStepParams")
    alpha, gamma, sigma = params.alpha, params.gamma, params.sigma
    l_op = gossip.laplacian_sqrt
    mix = (1.0 + gamma) * state.x_now - gamma * state.x_prev
    y_next = (0.0 if state.k == 0 else state.y) + sigma * alpha * (l_op @ mix)
    grad_now, products = problem.stacked_gradient(state.x_now, products=True)
    x_next = state.x_now - alpha * (grad_now + l_op @ y_next)
    return State(x_now=x_next, x_prev=state.x_now, k=state.k + 1, y=y_next,
                 alpha=alpha, gamma=gamma, sigma=sigma, products_prev=products)


# ---------------------------------------------------------------------------
# EXTRA baseline


def extra_step(
    state: State, problem: ProblemInstance, gossip: GossipMatrix, params: ExtraParams
) -> State:
    """X^{k+1} = (I + W) X^k - W_bar X^{k-1} - alpha (grad^k - grad^{k-1}).

    W_bar = (I + W) / 2 is the second mixing matrix; applying it to the
    cached W X^{k-1} keeps the round at a single gossip multiplication.
    Round 0 is mixed gradient descent, X1 = W X0 - alpha grad F(X0): EXTRA
    starts from X0 alone, so it does not read X^-1.
    """
    if state.k == 0 and not isinstance(params, ExtraParams):
        raise ConfigError("extra needs ExtraParams")
    grad_now, products = problem.stacked_gradient(state.x_now, products=True)
    wx_now = gossip.shifted @ state.x_now
    if state.k == 0:
        l_k = mu_k = None
        x_next = wx_now - params.alpha * grad_now
    else:
        l_k, mu_k = curvature_global(grad_now, state.grad_prev, state.x_now, state.x_prev)
        x_next = (
            state.x_now
            + wx_now
            - 0.5 * (state.x_prev + state.w_x_prev)
            - params.alpha * (grad_now - state.grad_prev)
        )
    return State(x_now=x_next, x_prev=state.x_now, k=state.k + 1, alpha=params.alpha,
                 gamma=1.0, l_last=l_k, mu_last=mu_k, grad_prev=grad_now, products_prev=products,
                 w_x_prev=wx_now)


# ---------------------------------------------------------------------------
# run loop


def _is_diverged(x: np.ndarray) -> bool:
    """Non-finite entries or a Frobenius norm above DIVERGENCE_NORM.

    One norm decides: it is NaN or inf exactly when an entry is (or on
    overflow). A non-finite dual needs no check of its own, because every
    primal update subtracts alpha times it, so X turns non-finite with it.
    """
    return not np.linalg.norm(x) <= DIVERGENCE_NORM


# algorithm -> step(state, problem, gossip, params)
_ALGORITHMS = {
    "adolf": adolf_step,
    "adolf_local": adolf_local_step,
    "condat_vu": condat_vu_step,
    "extra": extra_step,
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
    always describes the iterate after k communication rounds. The run
    starts from State(X^0, X^-1), which trace row 0 reads and a zero
    budget ends on. A stop metric is tested on the value its trace row
    reports (merit at the ergodic average), and that row reports the very
    value tested, computed once. Divergence (non-finite values or
    Frobenius norm above 1e12) ends the run with status "diverged" instead
    of raising.
    """
    if algorithm not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    state = initial_state(problem, x0, x_minus1)
    if stop.metric in SADDLE_METRICS and recorder.saddle is None:
        raise ConfigError(f"stop metric {stop.metric!r} needs saddle diagnostics")

    step = _ALGORITHMS[algorithm]

    def stopped(k: int) -> bool:
        if stop.metric is None:
            return False
        if k % stop.cadence != 0 and k != stop.max_iter:
            return False
        value = recorder.row_metric(stop.metric, state)
        return value is not None and value <= stop.threshold

    status = "budget"
    while state.k < stop.max_iter:
        try:
            new = step(state, problem, gossip, params)
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
# the half-mixed previous iterate, the previous gradient, the gossip product,
# the new gradient and the ergodic sum when ranking on merit. On the fig2
# presets (m=20, d=500, 4 columns a block) a block's arrays take 1.6 MB, or
# 1.9 MB when ranking on merit.
GRID_BLOCK_BYTES = 2 * 2**20
GRID_COLUMN_ARRAYS = 6


@dataclass(frozen=True)
class GridPoint:
    """One grid stepsize: how its run ended and its ranking value.

    rounds is the round it converged, diverged or was cut off at (the final
    k run() would report); value is its metric at that round, None when it
    diverged or its metric is not finite. value agrees with run()'s to
    rounding only (see extra_grid_search).
    """

    alpha: float
    status: str  # converged | budget | diverged
    rounds: int
    value: float | None


class GridSearch(NamedTuple):
    """extra_grid_search's result: the chosen stepsize and one GridPoint per
    grid stepsize in ascending order."""

    alpha: float
    points: list[GridPoint]


def _grid_block_width(m: int, d: int) -> int:
    """Stepsizes per block: as many columns as fit GRID_BLOCK_BYTES, at least one."""
    return max(1, GRID_BLOCK_BYTES // (GRID_COLUMN_ARRAYS * 8 * m * d))


def _extra_block(problem, gossip, start, alphas, cap, recorder, metric, stop) -> list[GridPoint]:
    """EXTRA at every stepsize of alphas (ascending), advanced as one (m, G, d) stack.

    Column g follows extra_step at alphas[g] from the shared start (X^0,
    W X^0, grad F(X^0)), round 0's gossip product and gradient: each later
    round is one gradient call over the stack, one gossip multiply and the
    update, with extra_step's operation order. u holds
    (X^{k-1} + W X^{k-1}) / 2, the only use of X^{k-1} there.
    A column ends where run() under stop, with max_iter = cap, would end it:
    - "diverged" at k when a non-finite dG.dG in round k makes
      curvature_global raise, or at k + 1 when round k leaves a non-finite
      iterate or a Frobenius norm above DIVERGENCE_NORM;
    - "converged" at k when stop has a threshold, k is a multiple of
      stop.cadence or the cap, and the column's metric is at or below it; a
      converging column also ends every smaller-stepsize column of the
      block at k, since k is their cap;
    - "budget" at its cap otherwise.
    The metric is recorder.metric_value at X^k, or for merit at the mean
    (X^0 + ... + X^{k-1}) / k, the recorder's ergodic average for EXTRA's
    gamma of 1.

    The block allocates its stacks once and updates them in place; each
    round's gradient is a fresh array that becomes the previous gradient.
    When columns end, the stacks shrink to the others by a contiguous
    gather, so every gradient call sees a C-ordered stack and makes the
    BLAS calls of a fresh one.

    The block keeps this arithmetic of its own rather than driving
    extra_step on (m, G, d) stacks. That drive was measured on the
    fig2_er09 and fig1_er01 grids (2-CPU VM): it kept every grid point's
    bits, but a block round at G = 4 took 672-784 us against
    535-636 us here, for the fresh arrays of each State and the secant that
    extra_step computes and the grid never reads, and it saved 3 lines.
    """
    x0, wx0, grad0 = start
    ergodic = metric == "merit"
    threshold = stop.threshold
    m, d = x0.shape
    live = np.arange(len(alphas))  # block index of each stack column
    alpha = np.asarray(alphas)[:, None]
    points: list[GridPoint | None] = [None] * len(alphas)
    x, u, g_prev, s = (np.empty((m, len(alphas), d)) for _ in range(4))
    acc = np.empty_like(x) if ergodic else None
    x[...] = x0[:, None, :]

    def value(j: int, k: int) -> float | None:
        """The metric of stack column j after k rounds."""
        if ergodic:  # at round 0 there is no ergodic average, as in the recorder
            return None if k == 0 else recorder.metric_value(metric, acc[:, j] / k)
        return recorder.metric_value(metric, np.ascontiguousarray(x[:, j]))

    def finish(j: int, status: str, k: int, v: float | None) -> None:
        finite = v is not None and np.isfinite(v)
        points[live[j]] = GridPoint(alphas[live[j]], status, k, v if finite else None)

    if cap == 0:
        for j in range(len(alphas)):
            finish(j, "budget", 0, value(j, 0))
        return points
    for k in range(1, cap + 1):  # round k makes X^k
        if ergodic:
            if k == 1:
                acc[...] = x
            else:
                acc += x
        if k == 1:
            np.subtract(wx0[:, None, :], np.multiply(alpha, grad0[:, None, :], out=s), out=x)
            u[...] = (0.5 * (x0 + wx0))[:, None, :]
            g_prev[...] = grad0[:, None, :]
            failed = np.zeros(len(alphas), dtype=bool)
        else:
            g_new = problem.column_gradients(x)
            np.matmul(gossip.shifted, x.reshape(m, -1), out=s.reshape(m, -1))
            s += x
            dg = np.subtract(g_new, g_prev, out=g_prev)
            failed = ~np.isfinite(np.einsum("mgd,mgd->g", dg, dg))
            np.subtract(s, u, out=x)
            np.multiply(s, 0.5, out=u)
            dg *= alpha
            x -= dg
            g_prev = g_new
        ended = failed | ~(np.sqrt(np.einsum("mgd,mgd->g", x, x)) <= DIVERGENCE_NORM)
        for j in np.flatnonzero(ended):
            finish(j, "diverged", k - 1 if failed[j] else k, None)
        if k == cap or (threshold is not None and k % stop.cadence == 0):
            alive = np.flatnonzero(~ended)
            values = [value(j, k) for j in alive]
            met = [threshold is not None and v is not None and v <= threshold for v in values]
            top = max((i for i, hit in enumerate(met) if hit), default=-1)
            for i, j in enumerate(alive):
                if k == cap or i <= top:  # the columns up to the largest converged one
                    ended[j] = True
                    finish(j, "converged" if met[i] else "budget", k, values[i])
        if ended.any():
            keep = np.flatnonzero(~ended)
            live, alpha = live[keep], alpha[keep]
            if not live.size:
                break
            # take, not x[:, keep]: a contiguous stack keeps the gradient's BLAS path
            x, u, g_prev = (a.take(keep, axis=1) for a in (x, u, g_prev))
            s = np.empty_like(x)
            if ergodic:
                acc = acc.take(keep, axis=1)
    return points


_IN_WORKER = False  # True in a forked worker: its own workers join its process group


def spare_cpus(problem: ProblemInstance) -> int:
    """CPUs beyond this process's own that its forked workers may use on problem.

    Zero where os.fork does not exist, when the problem's agent lanes already
    use every CPU, or while another thread is alive, which a forked child
    would not have; else one less than the CPUs this process may use. Both
    fork sites, the grid's workers and compare's grid searches run ahead,
    ask this.
    """
    if not hasattr(os, "fork") or problem.lanes > 1 or threading.active_count() > 1:
        return 0
    return objectives._cpu_count() - 1


def _run_items(items, work) -> dict:
    """{item: work(item)} for the items, in order, before the first one that raises."""
    done = {}
    for item in items:
        try:
            done[item] = work(item)
        except Exception:  # the caller runs this item again, and it raises there
            break
    return done


class _Worker:
    """A forked child running _run_items(items, work) (see _fork_worker)."""

    def __init__(self, pid: int, report):
        self.pid, self.report = pid, report

    def join(self) -> dict:
        """The child's {item: result}, {} unless it exited 0, once it has exited.
        If the wait is interrupted, the child is killed first."""
        try:
            data = self.report.read()
        except BaseException:
            self.stop()
            raise
        code = self._reap()
        # written by a child of this process, so safe to unpickle
        return pickle.loads(data) if code == 0 else {}

    def stop(self) -> None:
        """Kill the child, and any workers of its own, and wait for it, unless it
        was joined or stopped."""
        if self.report.closed:
            return
        if not _IN_WORKER:  # the child leads a process group that holds its workers
            with contextlib.suppress(ProcessLookupError):  # no process of the group is left
                os.killpg(self.pid, signal.SIGKILL)
        os.kill(self.pid, signal.SIGKILL)
        self._reap()

    def _reap(self) -> int:
        self.report.close()
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _fork_worker(items, work) -> _Worker | None:
    """A forked child running _run_items(items, work); None if the fork fails.

    The child pickles its results into the report pipe and leaves through
    os._exit, so it runs none of this process's cleanup; it exits 0 once the
    report is written. Plain os.fork, not multiprocessing, which would load
    ctypes and more: a child starts from this process's memory with only the
    thread that forked it. A child of a process that is no worker leads a
    process group of its own, which its workers join, so that stop() kills
    them with it.
    """
    global _IN_WORKER
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs these items itself
        os.close(read_end)
        os.close(write_end)
        return None
    leader = not _IN_WORKER
    if pid == 0:
        _IN_WORKER, status = True, 1
        try:
            if leader:
                os.setpgid(0, 0)
            os.close(read_end)
            with open(write_end, "wb") as report:
                pickle.dump(_run_items(items, work), report, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    if leader:  # as the child does, so the group exists before this process goes on
        with contextlib.suppress(OSError):  # the child may have exited already
            os.setpgid(pid, pid)
    return _Worker(pid, open(read_end, "rb"))


def _in_workers(items: range, workers: int, work) -> dict:
    """{item: work(item)} for the items that workers processes ran to the end.

    Worker w takes items[w], items[w + workers], ... in order: this process
    is worker 0, the others are forked children (_fork_worker). A worker
    stops at its first failing item, and a child that did not fork or did
    not exit 0 reports nothing. Every child is waited for before this
    returns; if this process is interrupted, they are killed first.
    """
    children = []
    try:
        for w in range(1, workers):
            if (child := _fork_worker(items[w::workers], work)) is None:
                break
            children.append(child)
        done = _run_items(items[::workers], work)
        for child in children:
            done.update(child.join())
    finally:
        for child in children:
            child.stop()
    return done


def fork_grid_search(*args) -> _Worker | None:
    """A forked child running extra_grid_search(*args), for the call
    extra_grid_search(*args, ahead=child) to join; None if the fork fails.
    The caller decides whether to fork (spare_cpus), and must stop() the
    child if it leaves before that call."""
    return _fork_worker((0,), lambda _: extra_grid_search(*args))


def extra_grid_search(
    problem: ProblemInstance,
    gossip: GossipMatrix,
    grid,
    budget: int,
    recorder: TraceRecorder,
    metric: str = DEFAULT_METRIC,
    x0: np.ndarray | None = None,
    stop: StopRule = StopRule(),
    *,
    ahead: _Worker | None = None,
) -> GridSearch:
    """Run EXTRA at every grid stepsize for at most budget rounds; pick the best one.

    Each stepsize's GridPoint has the status and rounds that run("extra",
    ...) would report under stop with max_iter set to the stepsize's cap:
    budget, or the smallest round at which a larger stepsize converged. Only
    stop's threshold and cadence are read; a threshold must be on metric.
    Without a threshold every cap is budget. Its value agrees with run()'s
    to rounding only: a block's products over G columns round differently
    from a run's one-column products. On fig2_er09 (1 BLAS thread) 10 of the
    11 points that did not diverge differ from a single run at the same
    stepsize and round count, at the chosen 0.0144 by 4.4e-10 relative. So
    a value within rounding of the threshold can cross it in the grid and
    not in the run, or the other way.

    "Best" is the converged point with the fewest rounds, then the smallest
    metric at that round. When none converged, it is the smallest metric at
    the budget as run()'s final trace row would report it, read through
    recorder.metric_value. Ties go to the larger stepsize; diverged points
    and non-finite values are skipped.

    The stepsizes run as column blocks of _extra_block, as many per block as
    fit GRID_BLOCK_BYTES, each in arrays of its own, from the largest
    stepsizes down. A converging column caps only the smaller stepsizes of
    its own block, so the points do not depend on the block width. Once the
    cap can no longer be the budget (from the first converged point on, or
    from the start without a threshold) it can only fall, so the blocks
    left run at once at that cap, in this process and a forked worker per
    spare CPU, at most one process per block (spare_cpus, _in_workers).
    They are then taken from the largest down, and a block whose own cap
    fell below it (a larger block converged sooner) or that no worker
    reported runs again in this process at its own cap. A block makes the
    same calls in any process, so every point, and the exception of the
    first block that raises, are those of the one-process search at any CPU
    count. Returns the chosen stepsize and one GridPoint per grid stepsize
    in ascending order.

    ahead is a child of fork_grid_search(*args) with this call's other
    arguments as args, or None. The call waits for it and returns its
    search; the search runs here only if the child reported none (it raised
    or was killed), so what it raises, it raises here.
    """
    if ahead is not None and (done := ahead.join()):
        return done[0]
    grid = sorted(float(a) for a in grid)
    if not grid or not all(0 < a < np.inf for a in grid):
        raise ParameterError("grid must be a nonempty list of positive finite stepsizes")
    if metric not in METRICS:
        raise ParameterError(f"grid-search metric must be one of {tuple(METRICS)}, got {metric!r}")
    if stop.metric not in (None, metric):
        raise ParameterError(f"grid-search metric {metric!r} differs from the stop metric "
                             f"{stop.metric!r}")
    if budget < 0:
        raise ParameterError(f"grid-search budget must be >= 0, got {budget}")
    if metric in SADDLE_METRICS and recorder.saddle is None:
        raise ConfigError(f"grid-search metric {metric!r} needs saddle diagnostics")
    x0 = np.zeros((problem.m, problem.d)) if x0 is None else problem.check_shape(x0, "x0")
    start = (x0, gossip.shifted @ x0, problem.stacked_gradient(x0))
    width = _grid_block_width(problem.m, problem.d)
    blocks = [grid[i:i + width] for i in reversed(range(0, len(grid), width))]

    def run_block(i: int, cap: int) -> list[GridPoint]:
        return _extra_block(problem, gossip, start, blocks[i], cap, recorder, metric, stop)

    points, cap, settled = [], budget, None
    for i in range(len(blocks)):
        if settled is None and (stop.threshold is None
                                or any(point.status == "converged" for point in points)):
            # the cap can only fall from here: run the blocks left at it, at once
            rest, settled_cap = range(i, len(blocks)), cap
            workers = min(1 + spare_cpus(problem), len(rest))
            settled = {} if workers == 1 else _in_workers(
                rest, workers, lambda j: run_block(j, settled_cap))
        block = settled[i] if settled and i in settled and cap == settled_cap else run_block(i, cap)
        cap = min([cap] + [point.rounds for point in block if point.status == "converged"])
        points[:0] = block
    best = best_key = None
    for point in points:  # ascending, so ties go to the larger stepsize
        if point.status == "converged":
            key = (0, point.rounds, point.value)
        elif point.value is not None:
            key = (1, point.value)
        else:
            continue
        if best_key is None or key <= best_key:
            best, best_key = point.alpha, key
    if best is None:
        diverged = sum(point.status == "diverged" for point in points)
        if diverged == len(points):
            raise NoConvergentStepsizeError(f"every stepsize in the grid of {len(grid)} diverged")
        raise NoConvergentStepsizeError(
            f"no stepsize in the grid of {len(grid)} ended with a finite {metric} after "
            f"{budget} rounds ({diverged} diverged)"
        )
    return GridSearch(best, points)
