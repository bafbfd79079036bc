"""Optimality metrics, Lyapunov bookkeeping, and trace recording.

Everything here is anchored to a saddle point of the consensus Lagrangian
L(X, Y) = F(X) + <L_op X, Y>: the primal stack X* repeats the minimizer of
the averaged objective, and Y* is the minimum-norm solution of
L_op Y* = -grad F(X*). The primal gap, the merit function (primal gap plus
consensus penalty), and the trajectory Lyapunov function are all measured
against that anchor.

The trace recorder reads each pair of consecutive solver states, accumulates
the gamma-weighted ergodic average, and writes one record per cadence tick,
packed into 108 bytes (TraceRows).
Every F it reports comes from the own products A_i x_i that the solver
rounds formed for their gradients: the products at X^{k-1} give the
Lyapunov value's F, and their gamma-weighted sum, kept in one running sum
with the iterates', gives F at the ergodic average. The adaptive solvers
carry only D = L_op Y, with Y in the range of L_op, so the Lyapunov value
recovers Y = pinv(L_op) D on the rows it writes; the oracle hands over its
own Y. The saddle solve and the recorder read L_op and its pseudoinverse off
the gossip matrix, their one owner.

The primal gap, the merit and the Lyapunov value each have one formula
here, read-only over iterate snapshots; a recorder instance belongs to
exactly one run and is not safe to share across concurrent runs.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import NumericError, ParameterError
from .objectives import (ProblemInstance, SolveCounts, centralized_minimize,
                         ridge_exact_solution)
from .topology import GossipMatrix

__all__ = [
    "SaddlePoint",
    "compute_saddle",
    "classical_stepsize_bound",
    "TraceRecord",
    "TraceRows",
    "Trace",
    "TraceRecorder",
    "TRACE_BATCH_BYTES",
    "trace_batch_rows",
    "CSV_HEADER",
    "METRICS",
    "SADDLE_METRICS",
    "DEFAULT_METRIC",
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
    stationarity_residual: float  # ||grad F(X*) + L_op Y*||_F
    grad_norm: float  # ||grad f(x*)||, the reference solve's accuracy
    solve_counts: SolveCounts | None  # what centralized_minimize spent; None for ridge

    @property
    def f_stack_star(self) -> float:
        """F(X*) = m * f(x*)."""
        return self.x_stack.shape[0] * self.f_star

    @cached_property
    def d_star_x_star(self) -> float:
        """<D*, X*>, zero but for rounding: the constant of <D*, X - X*>."""
        return float(np.vdot(self.d_star, self.x_stack))


def compute_saddle(
    problem: ProblemInstance, gossip: GossipMatrix, tol: float = 1e-12
) -> SaddlePoint:
    """Solve the averaged problem to high accuracy and lift to a saddle point.

    Ridge instances use the exact normal-equation solve; everything else runs
    ``centralized_minimize`` to gradient norm tol (its chord finish goes on
    to the rounding floor when tol is below CHORD_START). The dual anchor is
    the minimum-norm Y* = -pinv(L_op) grad F(X*) after projecting the rows of
    the gradient stack off the consensus direction. f* and ||grad f(x*)||
    come from that same evaluation at X* = 1 x*^T.
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
    grad_stack, own = problem.stacked_gradient(x_stack, products=True)
    perp = grad_stack - grad_stack.mean(axis=0, keepdims=True)
    y_star = -gossip.laplacian_pinv_sqrt @ perp
    d_star = gossip.laplacian_sqrt @ y_star
    residual = float(np.linalg.norm(grad_stack + d_star))
    if not residual <= max(1e-6, np.sqrt(m) * 10 * tol * (1.0 + np.linalg.norm(grad_stack))):
        # a NaN or inf target or feature makes x* NaN, and NaN fails every comparison
        what = "too large" if np.isfinite(residual) else "not finite"
        raise NumericError(f"saddle stationarity residual {what}: {residual:.3e}")
    f_star, grad_star = problem.consensus_average(x_stack, grad_stack, own)
    return SaddlePoint(
        x_star=x_star,
        f_star=f_star,
        x_stack=x_stack,
        y_star=y_star,
        d_star=d_star,
        stationarity_residual=residual,
        grad_norm=float(np.linalg.norm(grad_star)),
        solve_counts=counts,
    )


def _gap(f_value, x_stack: np.ndarray, saddle: SaddlePoint) -> float:
    """The primal gap F(X) - F(X*) + <L_op Y*, X - X*> from F(X), nonnegative by
    convexity; the linear term is <D*, X> - <D*, X*>."""
    return float(f_value - saddle.f_stack_star
                 + (np.vdot(saddle.d_star, x_stack) - saddle.d_star_x_star))


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


@dataclass(frozen=True, kw_only=True)
class TraceRecord:
    """One diagnostics row, its fields in CSV column order; None marks fields that were
    not computable."""

    k: int
    comm_vector: int
    comm_scalar: int
    objective_gap: float | None = None
    distance_sq: float | None = None
    consensus_err: float
    merit_ergodic: float | None = None
    lyapunov: float | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    gamma: float | None = None
    L_k: float | None = None

    def metric(self, name: str) -> float | None:
        """The value this row reports for a metric named in METRICS."""
        return getattr(self, METRICS[name])

    def csv_row(self) -> list[str]:
        return [_cell(getattr(self, name)) for name in CSV_HEADER]


CSV_HEADER = [f.name for f in fields(TraceRecord)]
_INT_COLUMNS = 3  # k, comm_vector and comm_scalar lead CSV_HEADER
# A packed row: its CSV_HEADER values as float64, 0.0 where absent, then one
# presence flag per column. _ROW reads a run of packed rows as one array.
_PACKED = struct.Struct(f"<{len(CSV_HEADER)}d{len(CSV_HEADER)}?")
_ROW = np.dtype([("values", "<f8", (len(CSV_HEADER),)), ("present", "?", (len(CSV_HEADER),))])


def _cell(value) -> str:
    """A CSV cell: empty for None, the shortest round-trip repr of a float."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


class TraceRows(Sequence):
    """A trace's rows, each packed into 108 bytes: its float64 values and a flag
    per field that it has.

    Reads as a sequence of TraceRecord: indexing makes a TraceRecord of the
    row, with None for a field it lacks and the int columns as ints again
    (held exactly up to 2**53); a slice gives a list of them. column() reads
    one column of every row without making records. Equal to a list of the
    same records. The rows pickle as one buffer.

    A packed row takes 152 bytes with its bytes header and list slot, where
    a TraceRecord and its boxed floats took about 400. The rows are separate
    small objects, which Python keeps in its own arenas: one float64 buffer
    per trace was as small, but kept buffers live in the C heap, where they
    split the space that each compare's saddle solve frees and takes again,
    and perfbench's fig2_er09 peak RSS read 0.5-1.6 MB higher with them
    (2-CPU VM).
    """

    def __init__(self, records=()):
        self._packed: list[bytes] = []
        for record in records:
            self.append(record)

    def append(self, record: TraceRecord) -> None:
        self.append_fields(vars(record))

    def append_fields(self, row: dict) -> None:
        """Append the row {column: value}; a column it lacks is None."""
        cells = [row.get(name) for name in CSV_HEADER]
        self._packed.append(_PACKED.pack(*[0.0 if value is None else value for value in cells],
                                         *[value is not None for value in cells]))

    def column(self, name: str) -> list:
        """The named column of every row, None where a row lacks it."""
        j = CSV_HEADER.index(name)
        table = np.frombuffer(b"".join(self._packed), dtype=_ROW)
        values = table["values"][:, j]
        values = (values.astype(np.int64) if j < _INT_COLUMNS else values).tolist()
        present = table["present"][:, j]
        if present.all():
            return values
        return [value if has else None for value, has in zip(values, present.tolist())]

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._record(packed) for packed in self._packed[index]]
        return self._record(self._packed[index])

    def __iter__(self):
        return map(self._record, self._packed)

    @staticmethod
    def _record(packed: bytes) -> TraceRecord:
        cells = _PACKED.unpack(packed)
        present = cells[len(CSV_HEADER):]
        return TraceRecord(**{
            name: None if not present[j] else int(value) if j < _INT_COLUMNS else value
            for j, (name, value) in enumerate(zip(CSV_HEADER, cells))})

    def __eq__(self, other):
        if isinstance(other, (TraceRows, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable, as a list

    def __repr__(self) -> str:
        return f"TraceRows({list(self)!r})"

    def __getstate__(self):
        return b"".join(self._packed)

    def __setstate__(self, state: bytes) -> None:
        size = _PACKED.size
        self._packed = [state[i:i + size] for i in range(0, len(state), size)]


@dataclass
class Trace:
    """Full run history plus run-level annotations; records may be given as a list
    of TraceRecord."""

    records: TraceRows = field(default_factory=TraceRows)
    status: str = "budget"  # converged | budget | diverged
    consensus_iteration: int | None = None  # local runs: first k with equal stepsizes
    alpha_floor: float | None = None  # smallest per-agent stepsize seen
    dual_colsum_max: float | None = None  # max relative column-sum drift of D at the rows
    # trajectory estimates of the restricted constants from the secants: the max
    # L_k, a lower estimate of smoothness, and the min mu_k clipped at 0, an upper
    # estimate of strong convexity
    l_tilde_hat: float = 0.0
    mu_tilde_hat: float = np.inf

    def __post_init__(self):
        if not isinstance(self.records, TraceRows):
            self.records = TraceRows(self.records)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def to_csv(self) -> str:
        columns = [map(_cell, self.records.column(name)) for name in CSV_HEADER]
        return "\n".join([",".join(CSV_HEADER), *map(",".join, zip(*columns))]) + "\n"


# Bytes that one batch of trace rows may hold (see TraceRecorder). A row's
# iterate, an (m, d) stack, waits for its objective gap as a copy in the
# recorder's buffer of points, and its products with the data are the arrays
# that one block's product makes at its m points (ProblemInstance.cross_bytes):
# the whole slab's below LANE_MIN_BYTES, one agent's above it, which is all
# that a lane holds at a time. The copies keep no engine array alive across
# the batch: held by reference, ten rows' iterates and their concatenation
# raised the runs' peak of traced memory on fig2_er09 from 1.6 to 3.0 MB
# (tracemalloc). Measured at 1 BLAS thread on a 2-CPU VM: a runner.compare of
# fig2_er09's adolf and adolf_local with 400-row cadence-1 traces (m=20, n=20,
# d=500) took 0.83 s in batches of 1 row, 0.69 s of 3, 0.72 s of 5, 0.67 s of
# 10 and 0.67 s of 16 (minima of 4, in one process). A logistic row's values
# are reduced in the product's own memory (2 arrays of its size, not 5): the
# objective gaps of one fig1 row (n=50, d=20, 20 000 margins) took 360 us
# alone and 330 us a row in a batch of 4, against 660 us alone when they made
# 5 arrays. 1.5 MiB holds 10 rows at the fig2 shape, 4 at the fig1 shape and
# 4 at the MNIST shape (n=600, d=784), where a row's objective gaps took
# 10.0 ms alone, 7.1 ms a row in batches of 2 and 5.5 ms in batches of 4
# (2 lanes, minima of 15), with the same bits.
TRACE_BATCH_BYTES = 3 << 19


def trace_batch_rows(problem: ProblemInstance) -> int:
    """Rows per batch of trace rows: as many as fit TRACE_BATCH_BYTES, at least one.

    Set by the instance's shape alone, not by its lane count."""
    row = 8 * problem.m * problem.d + problem.cross_bytes(problem.m)
    return max(1, TRACE_BATCH_BYTES // row)


class TraceRecorder:
    """Accumulates a Trace from consecutive solver states.

    Keeps one gamma-weighted running sum of the iterates and of their own
    products, with its total weight theta, the per-agent stepsize consensus
    tracking and the restricted-constant extrema; the dual column-sum drift
    is taken on the rows. The dual Y behind a Lyapunov value is recovered
    from D on the rows that need it, never integrated.

    Every field of a row but its objective gap is computed when the row is
    due. F comes from the own products that the engines keep in State: the
    Lyapunov value's F(X^{k-1}) from prev.products_prev (at row 0, where
    X^-1 has none, from stacked_value), and merit_ergodic's F at the ergodic
    average from the running sum of new.products_prev, the products at the
    iterate the sum takes in. The objective gaps wait, as copies of the
    rows' iterates in one buffer, until a batch of trace_batch_rows is full
    or the run ends; then one cross_values call on the buffer gives them
    all. So ``trace.records`` is complete only after ``finalize``. A stop
    rule's value is computed when the rule asks (``row_metric``), and its
    row reports that very value.
    """

    def __init__(
        self,
        problem: ProblemInstance,
        gossip: GossipMatrix,
        saddle: SaddlePoint | None = None,
        cadence: int = 1,
    ):
        if cadence < 1:
            raise ParameterError(f"diagnostics cadence must be >= 1, got {cadence}")
        self.problem = problem
        self.gossip = gossip
        self.saddle = saddle
        self.cadence = cadence
        self.trace = Trace()
        self._sums = None  # [sum of gamma X, sum of gamma products], made with the first term
        self._theta = 0.0  # sum of gamma
        self._tested: tuple[int, str, float | None] | None = None  # (k, column, value)
        self._batch_rows = trace_batch_rows(problem)
        self._pending: list[tuple[dict, bool]] = []  # (row's fields, whether its gap waits)
        self._points = None  # the waiting rows' iterates, (batch rows * m, d), made on first use
        self._waiting = 0

    # -- metric helpers -------------------------------------------------

    def metric_value(self, name: str, x_stack: np.ndarray) -> float | None:
        """A metric named in METRICS at x_stack; None for a saddle metric without a saddle."""
        if name not in METRICS:
            raise ParameterError(f"unknown metric {name!r}")
        if name == "consensus_err":
            lx = self.gossip.laplacian_sqrt @ x_stack
            return float(np.sum(lx * lx))
        if self.saddle is None:
            return None
        if name == "distance_sq":
            d = x_stack - self.saddle.x_stack
            return float(np.sum(d * d))
        if name == "objective_gap":
            return self._objective_gap(self.problem.average_values_at_rows(x_stack))
        return self._merit(self.problem.stacked_value(x_stack), x_stack)

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
        if isinstance(new.alpha, float) and isinstance(new.gamma, float):  # no reductions
            step = float(new.alpha), float(new.alpha), float(new.gamma)
        else:
            step = float(np.min(new.alpha)), float(np.max(new.alpha)), float(np.min(new.gamma))
        alpha_min, alpha_max, gamma = step
        trace = self.trace
        if np.ndim(new.alpha) > 0:  # per-agent stepsizes agree after the last round they differ
            trace.consensus_iteration = (prev.k + 1 if alpha_max > alpha_min
                                         else trace.consensus_iteration or 0)
        if trace.alpha_floor is None or alpha_min < trace.alpha_floor:
            trace.alpha_floor = alpha_min
        if new.l_last is not None:
            trace.l_tilde_hat = max(trace.l_tilde_hat, new.l_last)
        if new.mu_last is not None:
            trace.mu_tilde_hat = min(trace.mu_tilde_hat, max(new.mu_last, 0.0))

        if prev.k % self.cadence == 0:
            self._emit_row(prev, new, step)
        terms = prev.x_now, new.products_prev
        if self._sums is None:
            self._sums = [gamma * term for term in terms]
            self._scratch = [np.empty_like(term) for term in terms]
        else:
            for total, scratch, term in zip(self._sums, self._scratch, terms):
                total += np.multiply(term, gamma, out=scratch)
        self._theta += gamma

    def finalize(self, state) -> Trace:
        """Emit the terminal row for the last state (no step data), write the
        waiting rows and close the trace."""
        self._emit_row(state, None)
        self._flush()
        return self.trace

    # -- internals -------------------------------------------------------

    def _objective_gap(self, values) -> float:
        """The objective gap f(x) - f* of a point from its agents' averaged values."""
        return float(np.mean(values) - self.saddle.f_star)

    def _merit(self, f_value, x_stack: np.ndarray) -> float:
        """The primal gap plus the consensus penalty ||L_op X||^2, from F(X); zero
        exactly at solutions."""
        lx = self.gossip.laplacian_sqrt @ x_stack
        return _gap(f_value, x_stack, self.saddle) + float(np.vdot(lx, lx))

    def _ergodic_merit(self) -> float | None:
        """merit at the ergodic average, its F from the average of the own products."""
        if self.saddle is None or self._sums is None:
            return None
        average, products = (total / self._theta for total in self._sums)
        return self._merit(self.problem.value_from_products(products, average), average)

    def _emit_row(self, prev, new, step=None) -> None:
        """Row prev.k: prev's iterates, next to the step data of new when a step follows,
        with step = (alpha_min, alpha_max, gamma) of new.

        A stop rule's value at prev.k stands in for the row's own. The row
        waits in the batch for its objective gap, unless a stop rule already
        computed it.
        """
        saddle = self.saddle
        row = dict(k=prev.k, comm_vector=prev.k, comm_scalar=prev.comm_scalar)
        if self._tested is not None and self._tested[0] == prev.k:
            row[self._tested[1]] = self._tested[2]  # the stop rule's value, computed once
        for name in ("distance_sq", "consensus_err"):
            if name not in row:
                row[name] = self.metric_value(name, prev.x_now)
        if "merit_ergodic" not in row:
            row["merit_ergodic"] = self._ergodic_merit()
        if prev.dual is not None:
            drift = float(np.abs(prev.dual.sum(axis=0)).max() / (1.0 + np.linalg.norm(prev.dual)))
            most = self.trace.dual_colsum_max
            self.trace.dual_colsum_max = drift if most is None else max(most, drift)
        if new is not None:
            alpha_min, alpha_max, gamma = step
            row.update(alpha_min=alpha_min, alpha_max=alpha_max, gamma=gamma, L_k=new.l_last)
            if saddle is not None and new.sigma is not None and np.ndim(new.alpha) == 0:
                y_k = (0.0 if prev.k == 0 else prev.y if prev.y is not None  # Y^0 = 0 always
                       else self.gossip.laplacian_pinv_sqrt @ prev.dual)
                f_prev = (self.problem.stacked_value(prev.x_prev) if prev.products_prev is None
                          else self.problem.value_from_products(prev.products_prev, prev.x_prev))
                dy, dx = y_k - saddle.y_star, prev.x_now - prev.x_prev
                gap_prev = _gap(f_prev, prev.x_prev, saddle)
                row["lyapunov"] = float(row["distance_sq"] + np.vdot(dy, dy) / new.sigma
                                        + 0.5 * np.vdot(dx, dx)
                                        + 2.0 * gamma * alpha_min * gap_prev)
        waits = saddle is not None and "objective_gap" not in row
        if waits:
            m = self.problem.m
            if self._points is None:
                self._points = np.empty((self._batch_rows * m, self.problem.d))
            self._points[self._waiting * m:(self._waiting + 1) * m] = prev.x_now
            self._waiting += 1
        self._pending.append((row, waits))
        if len(self._pending) == self._batch_rows:
            self._flush()

    def _flush(self) -> None:
        """Complete the waiting rows' objective gaps with one product call, and write them."""
        m = self.problem.m
        if self._waiting:
            gaps = iter(self.problem.average_values_at_rows(self._points[:self._waiting * m])
                        .reshape(-1, m))
        for row, waits in self._pending:
            if waits:
                row["objective_gap"] = self._objective_gap(next(gaps))
            self.trace.records.append_fields(row)
        self._pending.clear()
        self._waiting = 0
