"""Optimality metrics, Lyapunov bookkeeping, and trace recording.

Everything here is anchored to a saddle point of the consensus Lagrangian
L(X, Y) = F(X) + <L_op X, Y>: the primal stack X* repeats the minimizer of
the averaged objective, and Y* is the minimum-norm solution of
L_op Y* = -grad F(X*). The primal gap, the merit function (primal gap plus
consensus penalty), and the trajectory Lyapunov function are all measured
against that anchor.

The trace recorder reads each pair of consecutive solver states, accumulates
the gamma-weighted ergodic average, and writes one record per cadence tick.
The adaptive solvers carry only D = L_op Y, with Y in the range of L_op, so
the Lyapunov value recovers Y = pinv(L_op) D from the saddle's cached
pseudoinverse on the rows it writes; the oracle hands over its own Y.

Metric functions are pure and read-only over iterate snapshots; a recorder
instance belongs to exactly one run and is not safe to share across
concurrent runs.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, NumericError, ParameterError
from .objectives import (ProblemInstance, SolveCounts, centralized_minimize,
                         ridge_exact_solution)
from .topology import GossipMatrix, laplacian_pinv_sqrt

__all__ = [
    "SaddlePoint",
    "compute_saddle",
    "primal_gap",
    "merit",
    "lyapunov",
    "ErgodicAccumulator",
    "RestrictedConstants",
    "classical_stepsize_bound",
    "RateFit",
    "rate_fit",
    "TraceRecord",
    "Trace",
    "TraceRecorder",
    "TRACE_BATCH_BYTES",
    "trace_batch_rows",
    "CSV_HEADER",
    "METRICS",
    "SADDLE_METRICS",
    "DEFAULT_METRIC",
]

CSV_HEADER = [
    "k",
    "comm_vector",
    "comm_scalar",
    "objective_gap",
    "distance_sq",
    "consensus_err",
    "merit_ergodic",
    "lyapunov",
    "alpha_min",
    "alpha_max",
    "gamma",
    "L_k",
]

# metric name -> the trace column that reports it. Traces, stop rules, compare
# and the EXTRA grid search all read "merit" at the gamma-weighted ergodic average.
METRICS = {"objective_gap": "objective_gap", "distance_sq": "distance_sq",
           "consensus_err": "consensus_err", "merit": "merit_ergodic"}
SADDLE_METRICS = frozenset({"objective_gap", "distance_sq", "merit"})  # need a saddle anchor
DEFAULT_METRIC = "distance_sq"


@dataclass(frozen=True)
class SaddlePoint:
    """Reference (X*, Y*) with cached quantities used by every metric."""

    x_star: np.ndarray  # minimizer of the averaged objective, (d,)
    f_star: float  # averaged objective at x_star
    x_stack: np.ndarray  # (m, d), every row x_star
    y_star: np.ndarray  # (m, d), minimum-norm dual
    d_star: np.ndarray  # L_op @ y_star
    l_pinv: np.ndarray  # pinv(L_op): recovers Y = l_pinv @ D for D in range(L_op)
    stationarity_residual: float  # ||grad F(X*) + L_op Y*||_F
    grad_norm: float  # ||grad f(x*)||, the reference solve's accuracy
    solve_counts: SolveCounts | None  # what centralized_minimize spent; None for ridge

    @property
    def f_stack_star(self) -> float:
        """F(X*) = m * f(x*)."""
        return self.x_stack.shape[0] * self.f_star


def compute_saddle(
    problem: ProblemInstance, gossip: GossipMatrix, tol: float = 1e-12
) -> SaddlePoint:
    """Solve the averaged problem to high accuracy and lift to a saddle point.

    Ridge instances use the exact normal-equation solve; everything else runs
    ``centralized_minimize`` to gradient norm tol (its chord finish goes on
    to the rounding floor when tol is below CHORD_START). The dual anchor is
    the minimum-norm Y* = -pinv(L_op) grad F(X*) after projecting the rows of
    the gradient stack off the consensus direction.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"saddle tolerance must be positive and finite, got {tol}")
    counts = None
    if problem.loss == "ridge":
        x_star = ridge_exact_solution(problem)
    else:
        counts = SolveCounts()
        x_star = centralized_minimize(problem, tol=tol, counts=counts)
    m = problem.m
    x_stack = np.tile(x_star, (m, 1))
    grad_stack = problem.stacked_gradient(x_stack)
    perp = grad_stack - grad_stack.mean(axis=0, keepdims=True)
    pinv = laplacian_pinv_sqrt(gossip)
    y_star = -pinv @ perp
    d_star = gossip.laplacian_sqrt @ y_star
    residual = float(np.linalg.norm(grad_stack + d_star))
    if not residual <= max(1e-6, np.sqrt(m) * 10 * tol * (1.0 + np.linalg.norm(grad_stack))):
        # a NaN or inf target or feature makes x* NaN, and NaN fails every comparison
        what = "too large" if np.isfinite(residual) else "not finite"
        raise NumericError(f"saddle stationarity residual {what}: {residual:.3e}")
    f_star, grad_star = problem.average_value_and_gradient(x_star)
    return SaddlePoint(
        x_star=x_star,
        f_star=f_star,
        x_stack=x_stack,
        y_star=y_star,
        d_star=d_star,
        l_pinv=pinv,
        stationarity_residual=residual,
        grad_norm=float(np.linalg.norm(grad_star)),
        solve_counts=counts,
    )


def _linear_term(x_stack: np.ndarray, saddle: SaddlePoint):
    """<L_op Y*, X - X*>, the primal gap's term that does not need F."""
    return np.sum(saddle.d_star * (x_stack - saddle.x_stack))


def _gap(f_value, linear, saddle: SaddlePoint) -> float:
    """The primal gap from F(X) and _linear_term(X)."""
    return float(f_value - saddle.f_stack_star + linear)


def _consensus(l_op: np.ndarray, x_stack: np.ndarray) -> float:
    """||L_op X||^2."""
    lx = l_op @ x_stack
    return float(np.sum(lx * lx))


def primal_gap(problem: ProblemInstance, x_stack: np.ndarray, saddle: SaddlePoint) -> float:
    """Lagrangian gap F(X) - F(X*) + <L_op Y*, X - X*>, nonnegative by convexity."""
    return _gap(problem.stacked_value(x_stack), _linear_term(x_stack, saddle), saddle)


def merit(
    problem: ProblemInstance, x_stack: np.ndarray, saddle: SaddlePoint, l_op: np.ndarray
) -> float:
    """Primal gap plus consensus penalty ||L_op X||^2; zero exactly at solutions."""
    return primal_gap(problem, x_stack, saddle) + _consensus(l_op, x_stack)


def _lyapunov_parts(x_now, x_prev, y, saddle: SaddlePoint, sigma_k, gamma_k, alpha_k):
    """The Lyapunov terms that do not need F, and the weight of the primal gap at x_prev."""
    dx = x_now - saddle.x_stack
    dy = y - saddle.y_star
    base = np.sum(dx * dx) + np.sum(dy * dy) / sigma_k + 0.5 * np.sum((x_now - x_prev) ** 2)
    return base, 2.0 * gamma_k * alpha_k


def lyapunov(
    problem: ProblemInstance,
    x_now: np.ndarray,
    x_prev: np.ndarray,
    y: np.ndarray,
    saddle: SaddlePoint,
    sigma_k: float,
    gamma_k: float,
    alpha_k: float,
) -> float:
    """Trajectory Lyapunov value at index k.

    Distance to the saddle in both variables, plus the momentum term
    ||X^k - X^{k-1}||^2 / 2, plus 2 gamma_k alpha_k times the primal gap at
    the previous iterate.
    """
    base, weight = _lyapunov_parts(x_now, x_prev, y, saddle, sigma_k, gamma_k, alpha_k)
    return float(base + weight * primal_gap(problem, x_prev, saddle))


class ErgodicAccumulator:
    """Running gamma-weighted average of iterates, its sum kept in place.

    The weights are the solvers' gamma_k, positive by construction.
    """

    def __init__(self):
        self.weighted_sum: np.ndarray | None = None
        self.theta = 0.0

    def add(self, x_t: np.ndarray, gamma_t: float) -> None:
        if self.weighted_sum is None:
            self.weighted_sum = gamma_t * x_t
        else:
            self.weighted_sum += gamma_t * x_t
        self.theta += gamma_t

    @property
    def average(self) -> np.ndarray:
        if self.weighted_sum is None:
            raise ParameterError("ergodic average undefined before any term is accumulated")
        return self.weighted_sum / self.theta


@dataclass
class RestrictedConstants:
    """Trajectory estimates of the restricted smoothness and convexity.

    l_tilde_hat is a lower estimate of the restricted Lipschitz constant
    (max observed secant), mu_tilde_hat an upper estimate of the restricted
    strong-convexity constant (min observed secant inner product ratio).
    """

    l_tilde_hat: float = 0.0
    mu_tilde_hat: float = np.inf

    def update(self, l_k: float | None, mu_k: float | None) -> None:
        if l_k is not None:
            self.l_tilde_hat = max(self.l_tilde_hat, l_k)
        if mu_k is not None:
            self.mu_tilde_hat = min(self.mu_tilde_hat, max(mu_k, 0.0))


def classical_stepsize_bound(l_const: float, sigma: float, w_tilde_norm: float) -> float:
    """Largest stepsize allowed by the network-coupled classical condition.

    Positive root of sigma * ||I - W_tilde|| * a^2 + (L/2) a - 1 = 0; kept
    for conservativeness comparisons against the network-free guard.
    """
    if l_const <= 0 or sigma <= 0:
        raise ParameterError("classical bound needs positive L and sigma")
    if not (0.0 < w_tilde_norm <= 2.0):
        raise ParameterError(f"||I - W_tilde|| must lie in (0, 2], got {w_tilde_norm}")
    q = sigma * w_tilde_norm
    return float((-l_const / 2.0 + np.sqrt(l_const**2 / 4.0 + 4.0 * q)) / (2.0 * q))


@dataclass(frozen=True)
class RateFit:
    """Log-linear and log-log fits of a metric tail."""

    kind: str  # "linear" (geometric) or "sublinear" (power)
    geometric_slope: float
    geometric_r2: float
    power_slope: float
    power_r2: float

    @property
    def coefficient(self) -> float:
        return self.geometric_slope if self.kind == "linear" else self.power_slope


def _least_squares_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def rate_fit(trace: "Trace", metric: str, window: tuple[int, int]) -> RateFit:
    """Fit log(metric) against k and against log(k) over a window of iterations.

    Uses only records with k inside the window and a strictly positive
    metric value; needs at least three such points.
    """
    lo, hi = window
    ks, vals = [], []
    for rec in trace.records:
        v = getattr(rec, metric)
        if v is not None and lo <= rec.k <= hi and v > 0.0:
            ks.append(rec.k)
            vals.append(v)
    if len(ks) < 3:
        raise InsufficientDataError(
            f"need at least 3 positive {metric} points in [{lo}, {hi}], got {len(ks)}"
        )
    ks_arr = np.asarray(ks, dtype=float)
    log_vals = np.log(np.asarray(vals))
    geo_slope, geo_r2 = _least_squares_fit(ks_arr, log_vals)
    pos = ks_arr > 0
    if np.count_nonzero(pos) >= 3:
        pow_slope, pow_r2 = _least_squares_fit(np.log(ks_arr[pos]), log_vals[pos])
    else:
        pow_slope, pow_r2 = 0.0, -np.inf
    kind = "linear" if geo_r2 >= pow_r2 else "sublinear"
    return RateFit(kind, geo_slope, geo_r2, pow_slope, pow_r2)


@dataclass(frozen=True)
class TraceRecord:
    """One diagnostics row; None marks fields that were not computable."""

    k: int
    comm_vector: int
    comm_scalar: int
    objective_gap: float | None
    distance_sq: float | None
    consensus_err: float
    merit_ergodic: float | None
    lyapunov: float | None
    alpha_min: float | None
    alpha_max: float | None
    gamma: float | None
    L_k: float | None

    def metric(self, name: str) -> float | None:
        """The value this row reports for a metric named in METRICS."""
        return getattr(self, METRICS[name])

    def csv_row(self) -> list[str]:
        out = []
        for name in CSV_HEADER:
            v = getattr(self, name)
            out.append("" if v is None else repr(v) if isinstance(v, float) else str(v))
        return out


@dataclass
class Trace:
    """Full run history plus run-level annotations."""

    records: list[TraceRecord] = field(default_factory=list)
    status: str = "budget"  # converged | budget | diverged
    consensus_iteration: int | None = None  # local runs: first k with equal stepsizes
    alpha_floor: float | None = None  # smallest per-agent stepsize seen
    dual_colsum_max: float | None = None  # max relative column-sum drift of D; None without D
    restricted: RestrictedConstants = field(default_factory=RestrictedConstants)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in self.records:
            writer.writerow(rec.csv_row())
        return buf.getvalue()


# Bytes that one batch of trace rows may hold (see TraceRecorder). A row holds
# three (m, d) stacks: its iterate for the objective gap, and the ergodic
# average and X^{k-1} for F. Its products with the data are two own-value
# columns, (m, n) each, and the arrays that cross_values makes at its m points
# (ProblemInstance.cross_bytes). During a flush the batch holds the rows'
# stacks plus one stacked copy of each kind, the points and the F columns;
# trace_batch_rows counts the stacks once. Measured at 1 BLAS thread on a
# 2-CPU VM, in CPU time: a 400-row cadence-1 trace of fig2_er09's adolf and
# adolf_local (m=20, n=20, d=500) took 1.42 s in batches of 1 row, 1.27 s of
# 2, 1.20 s of 3 and 1.19 s of 4. A logistic row's values are reduced in the
# product's own memory (2 arrays of its size, not 5): the objective gaps of
# one fig1 row (n=50, d=20, 20 000 margins) took 360 us alone and 330 us a
# row in a batch of 4, against 660 us alone when they made 5 arrays.
# 1.5 MiB holds 3 rows at the fig2 shape, 4 at the fig1 shape and 1 at the
# MNIST shape (n=600, d=784).
TRACE_BATCH_BYTES = 3 << 19


def trace_batch_rows(problem: ProblemInstance) -> int:
    """Rows per batch of trace rows: as many as fit TRACE_BATCH_BYTES, at least one."""
    m, n, d = problem.m, problem.n, problem.d
    row = 8 * (3 * m * d + 2 * m * n) + problem.cross_bytes(m)
    return max(1, TRACE_BATCH_BYTES // row)


@dataclass
class _PendingRow:
    """A trace row that waits for its batch's products.

    fields are the TraceRecord fields known when the row was due. point is
    the iterate whose objective gap waits, None when it does not. Each term
    (field, x_stack, offset, weight, linear) makes the field offset + weight
    times the primal gap at x_stack, given its _linear_term. The stacks are
    the run's own arrays, not copies: no engine writes an array after
    returning it in a State, and the ergodic average is a fresh array each
    time.
    """

    fields: dict
    point: np.ndarray | None = None
    terms: list = field(default_factory=list)


class TraceRecorder:
    """Accumulates a Trace from consecutive solver states.

    Maintains the ergodic average, per-agent stepsize consensus tracking,
    and the running dual column-sum drift. The dual Y behind a Lyapunov
    value is recovered from D on the rows that need it, never integrated.

    Rows are written in batches of trace_batch_rows. When a row is due, its
    cheap fields are computed at once: k, the round counts, the step
    scalars, distance_sq, consensus_err and the terms of merit and Lyapunov
    that do not need F. The rest waits, as the row's iterate, ergodic
    average and X^{k-1}, until the batch is full or the run ends.
    Then one cross_values call gives every waiting row's objective gap, and
    one column_values call the F behind its merit and Lyapunov value. So
    ``trace.records`` is complete only after ``finalize``. A stop rule's
    value is computed when the rule asks (``row_metric``), and its row
    reports that very value.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        l_op: np.ndarray,
        saddle: SaddlePoint | None = None,
        cadence: int = 1,
    ):
        if cadence < 1:
            raise ParameterError(f"diagnostics cadence must be >= 1, got {cadence}")
        self.problem = problem
        self.l_op = l_op
        self.saddle = saddle
        self.cadence = cadence
        self.trace = Trace()
        self._ergodic = ErgodicAccumulator()
        self._last_nonconsensual = -1
        self._saw_vector_alpha = False
        self._tested: tuple[int, str, float | None] | None = None  # (k, column, value)
        self._batch_rows = trace_batch_rows(problem)
        self._pending: list[_PendingRow] = []

    # -- metric helpers -------------------------------------------------

    def metric_value(self, name: str, x_stack: np.ndarray) -> float | None:
        if name == "consensus_err":
            return _consensus(self.l_op, x_stack)
        if self.saddle is None:
            return None
        if name == "distance_sq":
            d = x_stack - self.saddle.x_stack
            return float(np.sum(d * d))
        if name == "objective_gap":
            return float(
                np.mean(self.problem.average_values_at_rows(x_stack)) - self.saddle.f_star
            )
        if name == "merit":
            return merit(self.problem, x_stack, self.saddle, self.l_op)
        raise ParameterError(f"unknown metric {name!r}")

    def row_metric(self, name: str, state) -> float | None:
        """The value row state.k reports for a metric: merit at the ergodic
        average of the iterates observed so far, any other at state.x_now.

        Computed once: when row state.k is written, it reports this value.
        """
        value = self._ergodic_merit() if name == "merit" else self.metric_value(name, state.x_now)
        self._tested = (state.k, METRICS[name], value)
        return value

    # -- state intake --------------------------------------------------

    def observe(self, prev, new) -> None:
        """Record step k = prev.k, the update that turned prev into new.

        Row k describes prev's iterates, dual and round counts next to the
        alpha, gamma, sigma and curvature that the step selected from them.
        """
        alpha = np.asarray(new.alpha, dtype=float)
        if alpha.ndim > 0:
            self._saw_vector_alpha = True
            spread = float(alpha.max() - alpha.min())
            if spread > 0.0:
                self._last_nonconsensual = prev.k
        floor = float(np.min(alpha))
        if self.trace.alpha_floor is None or floor < self.trace.alpha_floor:
            self.trace.alpha_floor = floor
        self.trace.restricted.update(new.l_last, new.mu_last)

        if prev.k % self.cadence == 0:
            self._emit_row(prev, new)
        if new.dual is not None:
            col = np.abs(new.dual.sum(axis=0)).max()
            rel = float(col / (1.0 + np.linalg.norm(new.dual)))
            drift = self.trace.dual_colsum_max
            self.trace.dual_colsum_max = rel if drift is None else max(drift, rel)
        self._ergodic.add(prev.x_now, float(np.min(new.gamma)))

    def finalize(self, state) -> Trace:
        """Emit the terminal row for the last state (no step data), write the
        waiting rows and close the trace."""
        self._emit_row(state, None)
        self._flush()
        if self._saw_vector_alpha:
            self.trace.consensus_iteration = self._last_nonconsensual + 1
        return self.trace

    # -- internals -------------------------------------------------------

    def _ergodic_merit(self) -> float | None:
        if self.saddle is None or self._ergodic.weighted_sum is None:
            return None
        return merit(self.problem, self._ergodic.average, self.saddle, self.l_op)

    def _emit_row(self, prev, new) -> None:
        """Row prev.k: prev's iterates, next to the step data of new when a step follows.

        The row waits in the batch for its objective gap and the F behind its
        merit and Lyapunov value, unless a stop rule already computed one.
        """
        saddle = self.saddle
        row = _PendingRow(dict(
            k=prev.k, comm_vector=prev.comm_vector, comm_scalar=prev.comm_scalar,
            objective_gap=None, distance_sq=self.metric_value("distance_sq", prev.x_now),
            consensus_err=self.metric_value("consensus_err", prev.x_now),
            merit_ergodic=None, lyapunov=None, alpha_min=None, alpha_max=None, gamma=None,
            L_k=None,
        ))
        tested = None
        if self._tested is not None and self._tested[0] == prev.k:
            _, tested, value = self._tested
            row.fields[tested] = value  # the stop rule's value, computed once
        if saddle is not None and tested != "objective_gap":
            row.point = prev.x_now
        if (saddle is not None and tested != "merit_ergodic"
                and self._ergodic.weighted_sum is not None):
            average = self._ergodic.average
            row.terms.append(("merit_ergodic", average, _consensus(self.l_op, average), 1.0,
                              _linear_term(average, saddle)))
        if new is not None:
            alpha_min, alpha_max = float(np.min(new.alpha)), float(np.max(new.alpha))
            gamma = float(np.min(new.gamma))
            row.fields.update(alpha_min=alpha_min, alpha_max=alpha_max, gamma=gamma,
                              L_k=new.l_last)
            if saddle is not None and new.sigma is not None and np.ndim(new.alpha) == 0:
                y_k = prev.y if prev.y is not None else saddle.l_pinv @ prev.dual
                base, weight = _lyapunov_parts(prev.x_now, prev.x_prev, y_k, saddle,
                                               sigma_k=new.sigma, gamma_k=gamma,
                                               alpha_k=alpha_min)
                row.terms.append(("lyapunov", prev.x_prev, base, weight,
                                  _linear_term(prev.x_prev, saddle)))
        self._pending.append(row)
        if len(self._pending) == self._batch_rows:
            self._flush()

    def _flush(self) -> None:
        """Complete the waiting rows with one product call of each kind, and write them."""
        saddle, m, pending = self.saddle, self.problem.m, self._pending
        points = [row.point for row in pending if row.point is not None]
        if points:
            at_points = iter(
                self.problem.average_values_at_rows(np.concatenate(points)).reshape(-1, m))
        stacks = [term[1] for row in pending for term in row.terms]
        if stacks:
            f_values = iter(self.problem.column_values(np.stack(stacks, axis=1)))
        for row in pending:
            fields = row.fields
            if row.point is not None:
                fields["objective_gap"] = float(np.mean(next(at_points)) - saddle.f_star)
            for name, _, offset, weight, linear in row.terms:
                fields[name] = float(offset + weight * _gap(next(f_values), linear, saddle))
            self.trace.records.append(TraceRecord(**fields))
        pending.clear()
