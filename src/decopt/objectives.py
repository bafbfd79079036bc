"""Agents' losses, stacked operators, data generation, and the reference solver.

Each agent i owns a private convex loss f_i on its n samples: ridge or
logistic, the same kind for every agent. A ``ProblemInstance`` holds the
data of all m agents as read-only slabs: (m, n, d) features ``a``, (m, n)
targets or labels ``b`` and, for ridge, the (m,) coefficients ``gammas``.
The solvers work on the row-wise stack X (one row per agent) through
``stacked_value``/``stacked_gradient``; all optimality metrics are anchored
to a high-accuracy minimizer of the averaged objective computed by
``centralized_minimize``.

One copy of the data. The generators and the loader (``synth_ridge``,
``synth_logistic``, ``load_mnist_partition``) write an instance's data once,
into slabs that they hand over read-only. An instance adopts an array
without copying only when it is C-contiguous, read-only float64 and the
array that owns its memory is read-only too; anything else, every array a caller passes in
particular, is copied, so mutating the caller's array never changes an
instance.

The evaluators are built on products of the slab A, (m, n, d). ``_own`` is
one batched GEMM of each agent's rows with its own points; it gives the
gradients of G stacks (``column_gradients``, with ``stacked_gradient`` as
G = 1). ``stacked_gradient`` hands over, on request, the own products
A_i x_i it formed, and ``value_from_products`` turns such products into F:
``stacked_value`` is the two in a row, so a solver round's products give F
at its iterate with no product of their own. The averaged objective f(x)
is F(X) / m at the consensus stack X = 1 x^T, by the same kernels
(``average_value_and_gradient``). The values at k shared points (every
point under every loss: k = m for one stack, a multiple of m for a trace
batch's stacks) multiply the points by the (m*n, d) view, as
``points @ A^T``, and reduce each block's product where it lands, in its
own (k, agents, n) layout (``_cross_lane``). ``average_hessian`` is the
reference solve's float32 Hessian: its lanes split the Hessian's block
columns, not the agents.

Instances are immutable after construction (data arrays are read-only, and
no writable array shares their memory; a logistic instance's one writable
array per thread is scratch that no other thread sees), so value and
gradient evaluation is safe from multiple threads. The evaluators rely on
it: above ``LANE_MIN_BYTES`` of data they split the agents into lanes that
run on a thread pool, one lane per CPU, with results bit-identical to one
lane's. ``stop_lanes`` stops the pool's threads, so that the process may fork
from one thread.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NotConvergedError, NumericError, ParameterError, ShapeError

__all__ = [
    "ProblemInstance",
    "stop_lanes",
    "synth_ridge",
    "synth_logistic",
    "load_mnist_partition",
    "read_idx_labels",
    "centralized_minimize",
    "SolveCounts",
    "ridge_exact_solution",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Batch evaluators of a data slab of at least this many bytes multiply shared
# points by one agent's block of rows at a time and split the agents into
# lanes, one per CPU (see ProblemInstance). Measured at 1 BLAS thread on a 2-CPU VM
# (m=20, d=784): two lanes cut a stacked gradient from 1.3 to 0.8 ms at a
# 12 MiB slab and broke even at 6 MiB, where the stacked value and the averaged
# pass were already slower; at the 1.5 MiB of the fig2 presets (d=500) the
# gradient went from 0.17 to 0.28 ms, since waking a thread costs more there.
LANE_MIN_BYTES = 8 << 20
_LANE_POOL = None  # a concurrent.futures.ThreadPoolExecutor, started on first use
_LANE_POOL_LOCK = threading.Lock()

# centralized_minimize hands over from its accelerated steps to its chord finish
# at this gradient norm. At the MNIST shape (m=20, n=600, d=784) that took 14
# evaluations, and the finish then took 7 steps on one Hessian to 5.8e-17.
CHORD_START = 1e-3
# A chord step above the target that cuts the gradient norm by less than this
# factor brings a new Hessian; below the target, it ends the finish. On the
# separable data of scripts/synthetic_idx.py (m=20, n=80, d=784), where the
# curvature keeps changing, the finish took 21 Hessians from 1e-3 to 7.25e-13.
CHORD_CONTRACTION = 4.0
# Halvings of a chord step before its direction counts as bringing no descent.
CHORD_HALVINGS = 30
# Columns of the blocks in which the chord finish builds, factors and solves
# with its Hessian (_hessian_blocks): no temporary as large as the Hessian.
HESSIAN_BLOCK = 128


def _frozen_array(a, dtype=float) -> np.ndarray:
    """a as a read-only C-contiguous array: adopted when nothing can write its memory,
    else copied."""
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
            and _read_only(a)):
        return a
    out = np.array(a, dtype=dtype, order="C")
    out.setflags(write=False)
    return out


def _read_only(a: np.ndarray) -> bool:
    """True when a and every array up to the one owning its memory are read-only."""
    while not a.flags.writeable:
        if a.base is None:
            return True
        if not isinstance(a.base, np.ndarray):
            return False  # memory owned by a buffer that may be writable
        a = a.base
    return False


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _lane_pool():
    """The process's lane threads, started on first use: one per CPU beyond the caller's.

    ``concurrent.futures`` is imported here, so that single-lane runs never
    load it (with the ``logging`` it imports, it holds about 0.4 MB).
    """
    from concurrent.futures import ThreadPoolExecutor

    global _LANE_POOL
    with _LANE_POOL_LOCK:
        if _LANE_POOL is None:
            _LANE_POOL = ThreadPoolExecutor(max_workers=max(_cpu_count() - 1, 1),
                                            thread_name_prefix="decopt-lane")
        return _LANE_POOL


def _forget_lane_pool() -> None:
    """In a forked child, which has none of its parent's lane threads.

    decopt forks only in runner.fork_ahead, which compare calls only while
    no other thread is alive, so no lane thread is lost there; compare stops
    the lane threads before it asks (stop_lanes).
    This protects a caller that forks with the lane threads started, such as
    a ``multiprocessing`` pool with the fork start method, so that a child
    starts its own lane threads instead of waiting on its parent's.
    """
    global _LANE_POOL, _LANE_POOL_LOCK
    _LANE_POOL, _LANE_POOL_LOCK = None, threading.Lock()


def stop_lanes() -> None:
    """Stop the lane threads and wait for them, so that the process may fork next from
    one thread; the pool restarts at its next use."""
    global _LANE_POOL
    with _LANE_POOL_LOCK:
        pool, _LANE_POOL = _LANE_POOL, None
    if pool is not None:
        pool.shutdown(wait=True)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane_pool)


def _expit(t):
    """The logistic sigmoid 1 / (1 + exp(-t)) of the float array t, computed in
    t itself, which it returns.

    In place, because the logistic gradient calls it on a product-size array
    every round, and several fresh temporaries of that size a call make
    glibc grow and trim its heap every round (see the README). exp
    overflows to inf for t below about -709, where the sigmoid is
    1 / inf = 0, so the overflow is not an error.
    """
    np.negative(t, out=t)
    with np.errstate(over="ignore"):
        np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


def _softplus_mean(t, low):
    """The mean over the last axis of log(1 + exp(-t)) for the float array t of
    margins, computed in t itself, which it overwrites, and in low, an array of
    t's shape that it overwrites with min(t, 0).

    As max(-t, 0) + log1p(exp(-|t|)), which neither overflows nor loses the
    small values: each part is summed pairwise, the positive part max(-t, 0)
    as min(t, 0) in low and the rest in t, so that no float temporary of t's
    size is made. (Summed under a mask of t < 0 instead, numpy adds the
    positive part in order: 15 ulps off at n = 5000.) exp(-|t|) underflows
    to a subnormal or 0 for |t| above about 708, where log1p of it is the
    value, so the underflow is not an error.
    """
    positive = np.sum(np.minimum(t, 0.0, out=low), axis=-1)
    np.copysign(t, -1.0, out=t)
    with np.errstate(under="ignore"):
        np.exp(t, out=t)
        np.log1p(t, out=t)
    out = np.sum(t, axis=-1)
    out -= positive
    out /= t.shape[-1]
    return out


class ProblemInstance:
    """m agents' losses of one kind, evaluated on the instance's data slabs.

    Build one with ``ProblemInstance.ridge`` or ``ProblemInstance.logistic``,
    which return an instance of the loss's subclass. ``loss`` is "ridge" or
    "logistic"; ``a`` holds the (m, n, d) features (a[i, j] is agent i's
    sample j), ``b`` the (m, n) ridge targets or logistic labels and
    ``gammas`` the (m,) ridge coefficients, None for logistic. The arrays are
    read-only and no field can be set after construction; ``lanes`` counts
    the evaluators' agent lanes: 1 below LANE_MIN_BYTES or on one CPU.

    A loss supplies its per-lane kernels (the ``*_lane`` kernels of its
    gradient and of its values at shared points), its one F kernel
    ``value_from_products``, and the curvature of its Hessian.

    Agent lanes. Every kernel is written for a range of agents ``lo..hi-1`` and
    runs through ``_per_agent``, which gives each lane a contiguous range and one
    slice of a new output; one lane is the whole range. The products with
    shared points (``_cross_blocks``) run over ``block_rows`` rows of
    ``a_flat`` at a time: the whole slab when it is below ``LANE_MIN_BYTES``,
    else one block per agent, each a BLAS call of its own. A lane therefore
    makes the very BLAS calls and elementwise operations that one lane makes
    for its agents, and results are bit-identical at any lane count. (One
    call over a lane's rows would not do: BLAS picks its kernels and blocking
    from a call's shape, so it can round differently from one call over all
    rows.) The blocking depends only on the slab's size, so a run's bits do
    not depend on how many CPUs the machine has. Reductions across agents
    stay on the calling thread, so their summation order never changes.
    """

    gammas = None

    def __init__(self, a, b):
        a, b = _frozen_array(a), _frozen_array(b)
        if a.ndim != 3 or b.shape != a.shape[:2]:
            raise ShapeError(f"incompatible {self.loss} data shapes {a.shape}, {b.shape}: "
                             "expected (m, n, d) and (m, n)")
        if a.shape[0] < 1:
            raise ParameterError("a problem needs at least one agent")
        m, n, d = a.shape
        laned = a.nbytes >= LANE_MIN_BYTES
        lanes = min(_cpu_count(), m) if laned else 1
        vars(self).update(a=a, b=b, m=m, n=n, d=d, a_flat=a.reshape(m * n, d),  # a view
                          block_rows=n if laned else m * n,
                          # the agents cut into contiguous ranges of about equal size
                          ranges=[(m * i // lanes, m * (i + 1) // lanes) for i in range(lanes)])

    def __setattr__(self, name, value):
        raise AttributeError(f"a problem instance is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a problem instance is immutable: cannot delete {name}")

    @staticmethod
    def ridge(a, b, gammas) -> ProblemInstance:
        """f_i(x) = (1/n) ||A_i x - b_i||^2 + (gamma_i/2) ||x||^2.

        a is (m, n, d), b is (m, n) and gammas is (m,), each positive and finite.
        """
        return _Ridge(a, b, gammas)

    @staticmethod
    def logistic(a, b) -> ProblemInstance:
        """f_i(x) = (1/n) sum_j log(1 + exp(-b_ij <x, a_ij>)) with every b_ij in {-1, +1}.

        a is (m, n, d) and b is (m, n).
        """
        return _Logistic(a, b)

    @property
    def lanes(self) -> int:
        return len(self.ranges)

    def check_shape(self, x, name: str, shape=None) -> np.ndarray:
        """x as a float array of shape, by default a stack's (m, d), where a letter stands
        for any size of at least 1; else a ShapeError that calls x name."""
        x = np.asarray(x, dtype=float)
        shape = (self.m, self.d) if shape is None else shape
        if x.shape != shape and (len(x.shape) != len(shape) or not all(
                size == want or isinstance(want, str) and size >= 1
                for size, want in zip(x.shape, shape))):
            dims = str(shape).replace("'", "")  # (m, G, d), not (m, 'G', d)
            raise ShapeError(f"{name} must have shape {dims}, got {x.shape}")
        return x

    def _in_lanes(self, kernel, ranges, *args) -> None:
        """kernel(*args, lo, hi) for every (lo, hi) in ranges; the calling thread runs the
        first."""
        if len(ranges) == 1:
            return kernel(*args, *ranges[0])
        futures = [_lane_pool().submit(kernel, *args, lo, hi) for lo, hi in ranges[1:]]
        try:
            kernel(*args, *ranges[0])
        finally:
            for future in futures:
                future.exception()  # waits: no lane may write to the output after return
        for future in futures:
            future.result()  # re-raises a lane's exception in the caller

    def _per_agent(self, kernel, shape, *args) -> np.ndarray:
        """A new array of that shape, filled by kernel(out, *args, lo, hi) in every agent
        lane."""
        out = np.empty(shape)
        self._in_lanes(kernel, self.ranges, out, *args)
        return out

    def _own(self, x_cols, lo, hi):
        """A_i x_cols[i, g] for agents i in lo..hi-1 and every column g, (hi - lo, G, n)."""
        return np.matmul(x_cols[lo:hi], self.a[lo:hi].transpose(0, 2, 1))

    def _own_lane(self, own, x_cols, lo, hi):
        own[lo:hi] = self._own(x_cols, lo, hi)

    def stacked_value(self, x_stack) -> float:
        """F(X) = sum_i f_i(x_i): value_from_products at the products that
        stacked_gradient(X, products=True) hands over, so bit-identical to it."""
        x_cols = self.check_shape(x_stack, "x_stack")[:, None]
        own = self._per_agent(self._own_lane, (self.m, 1, self.n), x_cols)
        return self.value_from_products(own[:, 0], x_cols[:, 0])

    def stacked_gradient(self, x_stack, products: bool = False):
        """Row i holds the gradient of f_i at row i of the stack.

        With products, returns (gradient, products): products[i] = A_i x_i,
        (m, n), the own products the gradient is formed from.
        """
        x_cols = self.check_shape(x_stack, "x_stack")[:, None]
        own = np.empty((self.m, 1, self.n)) if products else None
        grad = self._per_agent(self._gradient_lane, x_cols.shape, x_cols, own)[:, 0]
        return (grad, own[:, 0]) if products else grad

    def column_gradients(self, x_cols) -> np.ndarray:
        """Gradients of G stacks at once: x_cols[:, g] is stack g, shape (m, G, d)."""
        x_cols = self.check_shape(x_cols, "x_cols", (self.m, "G", self.d))
        return self._per_agent(self._gradient_lane, x_cols.shape, x_cols, None)

    def average_value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)), f = (1/m) sum_i f_i: F(X) / m and the mean of grad F(X)'s
        rows at the consensus stack X = 1 x^T, by the stacked kernels.

        Bit-identical to stacked_value(X) / m and stacked_gradient(X).mean(axis=0).
        """
        x_stack = np.broadcast_to(self.check_shape(x, "x", (self.d,)), (self.m, self.d))
        return self.consensus_average(x_stack, *self.stacked_gradient(x_stack, products=True))

    def consensus_average(self, x_stack, grad, own) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)) at a consensus stack X = 1 x^T from the gradient and own
        products that stacked_gradient(X, products=True) returned."""
        return self.value_from_products(own, x_stack) / self.m, grad.mean(axis=0)

    def average_gradient(self, x) -> np.ndarray:
        """grad f(x), as average_value_and_gradient computes it."""
        return self.average_value_and_gradient(x)[1]

    def average_hessian(self, x) -> np.ndarray:
        """The Hessian of f at x, (d, d), in float32: a preconditioner, not a value.

        sum_i A_i^T diag(c_i) A_i / (m n) + shift I, where c holds each row's
        curvature (``_curvature``). Only its lower triangle is the Hessian's,
        as the factor of ``centralized_minimize``'s chord finish reads nothing
        else; the entries right of its diagonal blocks are zero. Each agent's
        term, in agent order, is made one block column at a time
        (``_hessian_blocks``), from the diagonal block down: a product of the
        agent's scaled rows with a slice of themselves, which needs no (d, d)
        temporary. The lanes split the block columns, not the agents: each
        takes a contiguous run of about equal work, so every block sees the
        same products in the same order at any lane count.
        """
        curvature, shift = self._curvature(self.check_shape(x, "x", (self.d,)))
        scale = np.sqrt(curvature / (self.m * self.n)).reshape(self.m, self.n)
        hess = np.zeros((self.d, self.d), dtype=np.float32)
        rows = np.empty((self.n, self.d), dtype=np.float32)
        blocks = _hessian_blocks(self.d)
        work = np.cumsum([(self.d - i) * (j - i) for i, j in blocks])
        cuts = [0, *(int(np.searchsorted(work, work[-1] * k / self.lanes)) + 1
                     for k in range(1, self.lanes)), len(blocks)]
        runs = list(zip(cuts, cuts[1:]))  # each lane's blocks

        def lane(lo, hi):
            for i, j in blocks[lo:hi]:
                hess[i:, i:j] += rows[:, i:].T @ rows[:, i:j]

        for a, s in zip(self.a, scale):
            np.multiply(a, s[:, None], out=rows, casting="same_kind")
            self._in_lanes(lane, runs)
        hess.flat[:: self.d + 1] += shift
        return hess

    def cross_bytes(self, points: int) -> int:
        """Bytes of the arrays that average_values_at_rows makes at that many points for
        one block of data rows: a loss-specific count of arrays the size of the block's
        product, (block_rows, points)."""
        return self.cross_arrays * 8 * self.block_rows * points

    def average_values_at_rows(self, x_rows) -> np.ndarray:
        """f(x_r) for every row x_r of a (k, d) array, f being the averaged objective.

        One product with the data for all k rows: a trace batch passes the
        stacks of several rows at once.
        """
        return np.mean(self._cross_values(self.check_shape(x_rows, "x_rows", ("k", self.d))),
                       axis=1)

    def _cross_values(self, x_rows):
        """value[i, j] = f_j evaluated at row i."""
        return self._per_agent(self._cross_lane, (len(x_rows), self.m), x_rows)

    def _cross_blocks(self, x_rows, lo, hi, out=None):
        """(j, product) for each block of agents j.. in lo..hi-1: the block's
        product x_rows @ block^T in its own (k, agents, n) layout, in out if given."""
        agents = self.block_rows // self.n
        for j in range(lo, hi, agents):
            prods = np.matmul(x_rows, self.a_flat[j * self.n:(j + agents) * self.n].T, out=out)
            yield j, prods.reshape(len(x_rows), agents, self.n)


class _Ridge(ProblemInstance):
    """Ridge losses, evaluated on the residuals A x - b."""

    loss = "ridge"
    cross_arrays = 1  # of a block's product size: the product, which the residuals overwrite

    def __init__(self, a, b, gammas):
        super().__init__(a, b)
        gammas = _frozen_array(gammas)
        if gammas.shape != (self.m,):
            raise ShapeError(f"expected {self.m} ridge coefficients, got shape {gammas.shape}")
        if not np.all((gammas > 0) & (gammas < np.inf)):  # a NaN coefficient fails too
            raise ParameterError(f"ridge coefficients must be positive and finite, got {gammas}")
        vars(self)["gammas"] = gammas

    def _gradient_lane(self, grad, x_cols, own, lo, hi):
        r = self._own(x_cols, lo, hi)
        if own is not None:
            own[lo:hi] = r
        r -= self.b[lo:hi, None, :]
        r *= 2.0 / self.n
        np.matmul(r, self.a[lo:hi], out=grad[lo:hi])
        grad[lo:hi] += self.gammas[lo:hi, None, None] * x_cols[lo:hi]

    def value_from_products(self, own, x_stack) -> float:
        """F(X) from the own products own[i] = A_i x_i, (m, n), and the stack X."""
        r = own - self.b
        sq = np.einsum("md,md->m", x_stack, x_stack)
        return float(np.vdot(r, r) / self.n + 0.5 * (self.gammas @ sq))

    def _cross_lane(self, values, x_rows, lo, hi):
        sq = np.einsum("id,id->i", x_rows, x_rows)[:, None]
        for j, r in self._cross_blocks(x_rows, lo, hi):
            agents = slice(j, j + r.shape[1])
            r -= self.b[agents]
            values[:, agents] = (np.einsum("ijn,ijn->ij", r, r) / self.n
                                 + 0.5 * self.gammas[agents] * sq)

    def _curvature(self, x):
        return np.full(self.m * self.n, 2.0), float(np.mean(self.gammas))


class _Logistic(ProblemInstance):
    """Logistic losses, evaluated on the margins b * (A x)."""

    loss = "logistic"
    # of a block's product size: the product, which holds the margins and
    # their softplus, and the softplus' min(t, 0)
    cross_arrays = 2

    def __init__(self, a, b):
        super().__init__(a, b)
        if not np.all(np.abs(self.b) == 1.0):
            raise ParameterError("logistic labels must be +1 or -1")
        vars(self)["_products"] = threading.local()  # see _product_buffer

    def _product_buffer(self, shape) -> np.ndarray:
        """An uninitialized float array of that shape, in the calling thread's buffer
        for this instance, which grows to the largest size asked for.

        The trace values' products and F's margins, each with the softplus'
        min(t, 0) beside it, live here from call to call. Made fresh
        on every call, a fig1 trace batch's product (640 KB) made glibc grow
        and trim its heap each time once the BLAS ran it on two threads:
        about 220 minor page faults a call on a 2-CPU VM, none at 1 BLAS
        thread. The buffer goes with its instance: one kept by the process
        held the heap's top through the next instance's reference solve and
        lifted logistic_mnist_shape's peak RSS by 0.9 MB.
        """
        size = math.prod(shape)
        buf = getattr(self._products, "buf", None)
        if buf is None or buf.size < size:
            buf = self._products.buf = np.empty(size)
        return buf[:size].reshape(shape)

    def _gradient_lane(self, grad, x_cols, own, lo, hi):
        b = self.b[lo:hi, None, :]
        weights = self._own(x_cols, lo, hi)
        if own is not None:
            own[lo:hi] = weights  # before the weights overwrite the products
        weights *= b
        weights = _expit(np.negative(weights, out=weights))
        weights *= b
        weights *= -1.0 / self.n
        np.matmul(weights, self.a[lo:hi], out=grad[lo:hi])

    def value_from_products(self, own, x_stack) -> float:
        """F(X) from the own products own[i] = A_i x_i, (m, n); the margins and their
        softplus are computed in the calling thread's buffer."""
        margins, low = self._product_buffer((2, self.m, self.n))
        np.multiply(own, self.b, out=margins)
        return float(np.sum(_softplus_mean(margins, low)))

    def _cross_lane(self, values, x_rows, lo, hi):
        """Margins and softplus in each block's product, in the thread's buffer."""
        margins, low = self._product_buffer((2, len(x_rows), self.block_rows))
        for j, t in self._cross_blocks(x_rows, lo, hi, out=margins):
            agents = slice(j, j + t.shape[1])
            t *= self.b[agents]
            values[:, agents] = _softplus_mean(t, low.reshape(t.shape))

    def _curvature(self, x):
        """p (1 - p) of each row's margin at the consensus stack X = 1 x^T, p its sigmoid."""
        margins = self._per_agent(self._own_lane, (self.m, 1, self.n),
                                  np.broadcast_to(x, (self.m, 1, self.d)))[:, 0]
        margins *= self.b
        p = _expit(margins.reshape(-1))
        return p * (1.0 - p), 0.0


def synth_ridge(m: int, n: int, d: int, seed: int) -> ProblemInstance:
    """Standard-normal ridge data; agent i gets coefficient 0.1 * i (1-indexed)."""
    if min(m, n, d) < 1:
        raise ParameterError("m, n, d must all be >= 1")
    rng = np.random.default_rng(seed)
    a, b = np.empty((m, n, d)), np.empty((m, n))
    for i in range(m):
        rng.standard_normal(out=a[i])
        rng.standard_normal(out=b[i])
    a.setflags(write=False)
    b.setflags(write=False)
    return ProblemInstance.ridge(a, b, [0.1 + i * 0.1 for i in range(m)])


def synth_logistic(m: int, n: int, d: int, seed: int, noise: float = 0.1) -> ProblemInstance:
    """Gaussian features with a planted separator and label-flip noise.

    The flip noise makes the data non-separable, so the minimizer is finite
    and the reference solver can locate it to near machine precision.
    """
    if min(m, n, d) < 1:
        raise ParameterError("m, n, d must all be >= 1")
    if not (0.0 <= noise < 0.5):
        raise ParameterError(f"label noise must lie in [0, 0.5), got {noise}")
    rng = np.random.default_rng(seed)
    planted = rng.standard_normal(d) / np.sqrt(d)
    a, b = np.empty((m, n, d)), np.empty((m, n))
    for i in range(m):
        rng.standard_normal(out=a[i])
        b[i] = np.where(a[i] @ planted >= 0.0, 1.0, -1.0)
        b[i, rng.random(n) < noise] *= -1.0
    a.setflags(write=False)
    b.setflags(write=False)
    return ProblemInstance.logistic(a, b)


def _read_be_u32(f, path) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise DataError(f"truncated IDX file {path}")
    return struct.unpack(">I", raw)[0]


def _read_payload(f, size: int, what: str, path) -> bytes:
    """The size bytes that an IDX header promises, read only once the file is
    known to hold them, so a corrupt header cannot ask for a huge buffer."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < size:
        raise DataError(f"truncated {what} data in {path}: the header promises {size} "
                        f"bytes, the file holds {left}")
    return f.read(size)


def _read_idx_pixels(path) -> np.ndarray:
    """The raw (count, rows*cols) uint8 pixels of a big-endian IDX image file."""
    with open(path, "rb") as f:
        magic = _read_be_u32(f, path)
        if magic != IDX_IMAGE_MAGIC:
            raise DataError(f"bad magic 0x{magic:08x} in image file {path}")
        count = _read_be_u32(f, path)
        rows = _read_be_u32(f, path)
        cols = _read_be_u32(f, path)
        raw = _read_payload(f, count * rows * cols, "pixel", path)
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)


def read_idx_labels(path) -> np.ndarray:
    """Parse a big-endian IDX label file into a (count,) integer array."""
    with open(path, "rb") as f:
        magic = _read_be_u32(f, path)
        if magic != IDX_LABEL_MAGIC:
            raise DataError(f"bad magic 0x{magic:08x} in label file {path}")
        count = _read_be_u32(f, path)
        raw = _read_payload(f, count, "label", path)
    return np.frombuffer(raw, dtype=np.uint8).astype(int)


def _read_idx(reader, path, key: str):
    """reader(path), with an OSError or a malformed file raised as a DataError naming key."""
    try:
        return reader(path)
    except OSError as exc:
        raise DataError(f"problem.{key}: cannot read {path}: {exc.strerror or exc}") from exc
    except DataError as exc:
        raise DataError(f"problem.{key}: {exc}") from exc


def load_mnist_partition(
    images_path,
    labels_path,
    m: int,
    digit_pair: tuple[int, int] = (0, 1),
    seed: int = 0,
) -> ProblemInstance:
    """Binary logistic instance from an MNIST-style IDX pair.

    Keeps samples labeled with either digit, maps the first digit to +1 and
    the second to -1, scales pixels to [0, 1], shuffles with the seed, and
    partitions equally among m agents (remainder dropped so every agent has
    the same sample count).
    """
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    p, q = digit_pair
    if p == q:
        raise ParameterError(f"digit pair must be distinct, got {digit_pair}")
    pixels = _read_idx(_read_idx_pixels, images_path, "images_path")
    labels = _read_idx(read_idx_labels, labels_path, "labels_path")
    if pixels.shape[0] != labels.shape[0]:
        raise DataError(f"problem.labels_path: {labels.shape[0]} labels in {labels_path} "
                        f"for {pixels.shape[0]} images in {images_path}")
    kept = np.flatnonzero((labels == p) | (labels == q))
    if kept.size < m:
        raise DataError(f"only {kept.size} samples for {m} agents")
    rng = np.random.default_rng(seed)
    order = rng.permutation(kept.size)
    n, d = kept.size // m, pixels.shape[1]
    rows = kept[order[: m * n]]  # shuffled; the remainder is dropped
    a, b = np.empty((m, n, d)), np.empty((m, n))
    np.divide(pixels[rows].reshape(m, n, d), 255.0, out=a)
    b[:] = np.where(labels[rows] == p, 1.0, -1.0).reshape(m, n)
    a.setflags(write=False)
    b.setflags(write=False)
    return ProblemInstance.logistic(a, b)


def ridge_exact_solution(problem: ProblemInstance) -> np.ndarray:
    """Minimizer of the averaged ridge objective via the normal equations.

    Solves sum_i [(2/n) A_i^T A_i + gamma_i I] x = sum_i (2/n) A_i^T b_i,
    then applies one step of iterative refinement to clean up the residual.
    """
    if problem.loss != "ridge":
        raise ParameterError(f"exact solve only applies to ridge instances, not {problem.loss}")
    d, n = problem.d, problem.n
    h = np.zeros((d, d))
    rhs = np.zeros(d)
    # each agent's term is built in one reused buffer; this rounds exactly as
    # (2/n) (A^T A) + gamma I does, since adding 0.0 off the diagonal is exact
    term = np.empty((d, d))
    for a, b, gamma in zip(problem.a, problem.b, problem.gammas):
        np.matmul(a.T, a, out=term)
        term *= 2.0 / n
        term.flat[:: d + 1] += gamma
        h += term
        rhs += (2.0 / n) * (a.T @ b)
    del term  # each solve copies h: hold no third (d, d) array while they run
    x = np.linalg.solve(h, rhs)
    x -= np.linalg.solve(h, h @ x - rhs)
    return x


@dataclass
class SolveCounts:
    """What one centralized_minimize call spent, by phase."""

    evaluations: int = 0  # averaged gradients of the accelerated steps, the probe's included
    hessians: int = 0  # Hessians the chord finish formed and factored
    chord_steps: int = 0  # the finish's trial points, halved steps included


def _hessian_blocks(d: int) -> list[tuple[int, int]]:
    """The column ranges of the reference solve's Hessian blocks, HESSIAN_BLOCK wide."""
    return [(i, min(i + HESSIAN_BLOCK, d)) for i in range(0, d, HESSIAN_BLOCK)]


class _Factor:
    """H^-1 g for a symmetric positive definite float32 H, by its Cholesky factor L.

    The factorization and the substitutions run over H's block columns
    (``_hessian_blocks``), as numpy products on the lower triangle: each
    diagonal block of L is factored and inverted once, and the rest is
    products. (numpy has no triangular solve, and its Cholesky of a whole
    784 x 784 matrix touched about 11 MB of LAPACK workspace.) The factor
    overwrites h and reads only its lower triangle.
    """

    def __init__(self, h):
        self.blocks = _hessian_blocks(len(h))
        self.inverses = []
        for k, (i, j) in enumerate(self.blocks):  # h[i:, i:] holds what is left to factor
            diag = np.linalg.cholesky(h[i:j, i:j])  # LinAlgError unless positive definite
            inverse = np.linalg.inv(diag)
            h[i:j, i:j] = diag
            column = h[j:, i:j] = h[j:, i:j] @ inverse.T
            for p, q in self.blocks[k + 1:]:
                h[p:, p:q] -= column[p - j:] @ column[p - j:q - j].T
            self.inverses.append(inverse)
        self.low = h  # L on and below the diagonal blocks; above them, unused

    def solve(self, g):
        """H^-1 g, computed in float32 and returned in float64."""
        low, y = self.low, g.astype(np.float32)
        for (i, j), inv in zip(self.blocks, self.inverses):  # L z = g
            y[i:j] = inv @ (y[i:j] - low[i:j, :i] @ y[:i])
        for (i, j), inv in zip(self.blocks[::-1], self.inverses[::-1]):  # L^T y = z
            y[i:j] = inv.T @ (y[i:j] - low[j:, i:j].T @ y[j:])
        return y.astype(float)


class _Descent:
    """One centralized_minimize call: its problem, its remaining budget of
    iterations, its counts, and the point of smallest gradient norm seen."""

    def __init__(self, problem: ProblemInstance, max_iter: int, counts: SolveCounts):
        self.problem, self.budget, self.counts = problem, max_iter, counts
        self.best = None  # (x, f, grad f) at the smallest gradient norm evaluated
        self.best_norm = np.inf

    def evaluate(self, x):
        """(f(x), grad f(x), ||grad f(x)||), remembered when the norm is the smallest yet.

        The solve never writes into a point after evaluating it, so x is kept
        without a copy.
        """
        f, g = self.problem.average_value_and_gradient(x)
        norm = np.linalg.norm(g)
        if norm < self.best_norm:
            self.best, self.best_norm = (x, f, g), norm
        return f, g, norm

    def accelerate(self, x, f_x, g, lip, tol):
        """Accelerated steps from x to ||grad f|| <= tol.

        Returns (x, f, grad f, lip) at the first point within tol, or None when
        the budget runs out. The value and gradient at each point share one
        product A x; a trial point that the backtracking rejects also pays for
        its gradient.
        """
        y = x
        f_y, g_y = f_x, g
        t = 1.0
        while self.budget > 0:
            self.budget -= 1
            while True:
                x_new = y - g_y / lip
                f_new, g_new, norm = self.evaluate(x_new)
                self.counts.evaluations += 1
                gap = f_new - (f_y + g_y @ (x_new - y) + 0.5 * lip * np.sum((x_new - y) ** 2))
                if gap <= 1e-12 * (1.0 + abs(f_new)):
                    break
                lip *= 2.0
            if norm <= tol:
                return x_new, f_new, g_new, lip
            step = np.linalg.norm(x_new - y)
            if step > 0:
                lip = max(np.linalg.norm(g_new - g_y) / step, lip * 0.9)
            t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            momentum = (t - 1.0) / t_new
            y_next = x_new + momentum * (x_new - x)
            if g_new @ (x_new - x) > 0.0:  # restart: momentum points uphill
                y_next = x_new
                t_new = 1.0
            x, y, t = x_new, y_next, t_new
            if np.array_equal(y, x_new):
                f_y, g_y = f_new, g_new
            else:
                f_y, g_y, _ = self.evaluate(y)
                self.counts.evaluations += 1
        return None

    def chord(self, x, f, g, tol) -> None:
        """Chord steps x <- x - t H^-1 grad f(x) from x, leaving the best point in best.

        H is the float32 Hessian of ``average_hessian``, factored by Cholesky;
        the steps use the float64 gradient, so the factor's precision sets
        only how fast they contract (Carson and Higham, SIAM J. Sci. Comput.
        40(2), 2018). t halves from 1 until f does not rise. A step above tol
        that cuts ||grad f|| by no more than CHORD_CONTRACTION brings a new
        Hessian at the point it reached. The steps end when a step at or
        below tol cuts ||grad f|| by no more than CHORD_CONTRACTION (rounding
        stops them there, and so does an exact zero gradient, which a step
        cannot cut), when a fresh factor brings neither a smaller norm nor a
        lower f, when a factor fails, or when the budget runs out.
        """
        norm, factor = np.linalg.norm(g), None
        while self.budget > 0:
            if factor is None:
                self.counts.hessians += 1
                try:
                    factor = _Factor(self.problem.average_hessian(x))
                except np.linalg.LinAlgError:  # not positive definite in float32
                    return
                fresh = True
            self.budget -= 1
            direction = factor.solve(g)
            slack = 1e-12 * (1.0 + abs(f))
            step = 1.0
            for _ in range(CHORD_HALVINGS):
                x_new = x - step * direction
                f_new, g_new, norm_new = self.evaluate(x_new)
                self.counts.chord_steps += 1
                if f_new <= f + slack:
                    break
                step *= 0.5
            else:  # no descent along the direction
                if fresh:
                    return
                factor = None
                continue
            if norm_new * CHORD_CONTRACTION >= norm:
                if min(norm, norm_new) <= tol:
                    return  # within tol and no longer contracting
                if fresh and norm_new >= norm and f_new >= f - slack:
                    return  # a fresh factor brought no progress
                factor = None
            x, f, g, norm, fresh = x_new, f_new, g_new, norm_new, False


def centralized_minimize(
    problem: ProblemInstance,
    tol: float = 1e-10,
    max_iter: int = 500_000,
    counts: SolveCounts | None = None,
) -> np.ndarray:
    """High-accuracy minimizer of f = (1/m) sum f_i: accelerated descent from 0, then chord steps.

    Nesterov-accelerated gradient steps with a curvature-estimated inverse
    stepsize: the estimate starts from a secant probe, is re-doubled when the
    quadratic upper bound fails, and relaxes geometrically otherwise. The
    momentum restarts whenever it points uphill.

    When tol lies below CHORD_START and d <= m n (so the Hessian is no larger
    than the data), the accelerated steps stop at ||grad f|| <= CHORD_START
    and ``_Descent.chord`` finishes with Newton-type steps on a once-factored
    Hessian (Nocedal and Wright, *Numerical Optimization*, 2nd ed., ch. 6-7).
    These go on past tol while each one cuts the gradient norm
    CHORD_CONTRACTION-fold, so they end where rounding stops them. If they
    end above tol, the accelerated steps resume from their best point.

    Returns a point with ||grad f|| <= tol. max_iter bounds the accelerated
    iterations and the chord steps together; when it runs out, the
    NotConvergedError carries the best point seen. A NumericError reports
    data on which f or its gradient is not finite at the start x = 0; the
    data themselves are not scanned. counts, if given, gains what the call
    spent.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"tolerance must be positive and finite, got {tol}")
    run = _Descent(problem, max_iter, SolveCounts() if counts is None else counts)
    x = np.zeros(problem.d)
    f_x, g, norm = run.evaluate(x)
    run.counts.evaluations += 1
    if not np.isfinite(f_x) or not np.isfinite(norm):
        # the backtracking would double its curvature estimate forever on a NaN f
        raise NumericError(f"the averaged objective is not finite at 0 (f = {f_x:.3e}, "
                           f"||grad f|| = {norm:.3e}): the data are not finite")
    if norm <= tol:
        return x

    # secant probe along the gradient for an initial curvature estimate
    probe = x - 1e-3 * g / max(norm, 1.0)
    g_probe = problem.average_gradient(probe)
    run.counts.evaluations += 1
    denom = np.linalg.norm(x - probe)
    lip = max(np.linalg.norm(g - g_probe) / denom, 1e-12) if denom > 0 else 1.0

    finish = tol < CHORD_START and problem.d <= problem.m * problem.n
    reached = run.accelerate(x, f_x, g, lip, CHORD_START if finish else tol)
    if reached is not None and finish:
        lip = reached[3]
        run.chord(*reached[:3], tol)
        if run.best_norm <= tol:
            return run.best[0]
        reached = run.accelerate(*run.best, lip, tol)
    if reached is None:
        raise NotConvergedError(
            f"centralized solve stalled at ||grad|| = {run.best_norm:.3e} (target {tol:.1e})",
            best_x=run.best[0].copy(),
            grad_norm=run.best_norm,
        )
    return reached[0]
