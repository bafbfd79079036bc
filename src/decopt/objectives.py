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
G = 1) and the own-row values. ``_cross`` multiplies k shared points by the
(m*n, d) view, as ``points @ A^T``; it gives every row under every loss
(k = m). ``_forward`` is the one-point product ``A x`` behind the averaged
value and gradient, computed once for both.

Instances are immutable after construction (data arrays are read-only, and
no writable array shares their memory), so value and gradient evaluation is
safe from multiple threads. The evaluators rely on it: above
``LANE_MIN_BYTES`` of data they split the agents into lanes that run on a
thread pool, one lane per CPU, with results bit-identical to one lane's.
"""

from __future__ import annotations

import os
import struct
import threading
from operator import attrgetter

import numpy as np

from .errors import DataError, NotConvergedError, ParameterError, ShapeError

__all__ = [
    "ProblemInstance",
    "synth_ridge",
    "synth_logistic",
    "load_mnist_partition",
    "read_idx_images",
    "read_idx_labels",
    "centralized_minimize",
    "ridge_exact_solution",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Batch evaluators of a data slab of at least this many bytes multiply shared
# points by one agent's block of rows at a time and split the agents into
# lanes, one per CPU (see _Batch). Measured at 1 BLAS thread on a 2-CPU VM
# (m=20, d=784): two lanes cut a stacked gradient from 1.3 to 0.8 ms at a
# 12 MiB slab and broke even at 6 MiB, where the stacked value and the averaged
# pass were already slower; at the 1.5 MiB of the fig2 presets (d=500) the
# gradient went from 0.17 to 0.28 ms, since waking a thread costs more there.
LANE_MIN_BYTES = 8 << 20
_LANE_POOL = None  # a concurrent.futures.ThreadPoolExecutor, started on first use
_LANE_POOL_LOCK = threading.Lock()


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
    """In a forked child, which has none of its parent's lane threads."""
    global _LANE_POOL, _LANE_POOL_LOCK
    _LANE_POOL, _LANE_POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane_pool)


def _expit(t):
    """The logistic sigmoid 1 / (1 + exp(-t)), elementwise.

    ``scipy.special`` is imported here, on first use, so that ridge runs,
    ``decopt validate`` and CLI startup never load it: it takes about as much
    memory and import time as numpy and the rest of the program together.
    """
    from scipy.special import expit

    return expit(t)


def _check_point(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ShapeError(f"expected point of shape ({d},), got {x.shape}")
    return x


class _Batch:
    """Read-only (m, n, d) features and (m, n) labels or targets of m agents;
    a loss builds its evaluators on their products.

    The averaged value and gradient share one pass, ``_average_pass``: the
    residuals or margins at a shared point, computed once for both.

    Agent lanes. Every kernel is written for a range of agents ``lo..hi-1`` and
    runs through ``_in_lanes``, which gives each lane a contiguous range and one
    slice of a preallocated output; one lane is the whole range. The products
    with shared points (``_cross``, ``_forward``) run over ``block_rows`` rows
    of ``a_flat`` at a time: the whole slab when it is below
    ``LANE_MIN_BYTES``, else one block per agent, each a BLAS call of its own.
    A lane therefore makes the very BLAS calls and elementwise operations that
    one lane makes for its agents, and results are bit-identical at any lane
    count. (One call over a lane's rows would not do: BLAS picks its kernels
    and blocking from a call's shape, so it can round differently from one
    call over all rows.) The blocking depends only on the slab's size, so a run's bits do
    not depend on how many CPUs the machine has. Reductions across agents
    (the averaged value, the back product ``weights @ a_flat``) stay on the
    calling thread, in one call, so their summation order never changes.
    """

    def __init__(self, a, b):
        self.a, self.b = _frozen_array(a), _frozen_array(b)
        if self.a.ndim != 3 or self.b.shape != self.a.shape[:2]:
            raise ShapeError(f"incompatible {self.loss} data shapes {self.a.shape}, "
                             f"{self.b.shape}: expected (m, n, d) and (m, n)")
        if self.a.shape[0] < 1:
            raise ParameterError("a problem needs at least one agent")
        self.m, self.n, self.d = self.a.shape
        self.a_flat = self.a.reshape(self.m * self.n, self.d)  # a view
        laned = self.a.nbytes >= LANE_MIN_BYTES
        self.block_rows = self.n if laned else self.m * self.n
        lanes = min(_cpu_count(), self.m) if laned else 1
        self.ranges = [(self.m * i // lanes, self.m * (i + 1) // lanes) for i in range(lanes)]

    @property
    def lanes(self) -> int:
        return len(self.ranges)

    def _in_lanes(self, kernel) -> None:
        """kernel(lo, hi) for every lane's agent range; the calling thread runs the first."""
        futures = [_lane_pool().submit(kernel, lo, hi) for lo, hi in self.ranges[1:]]
        try:
            kernel(*self.ranges[0])
        finally:
            for future in futures:
                future.exception()  # waits: no lane may write to the output after return
        for future in futures:
            future.result()  # re-raises a lane's exception in the caller

    def _own(self, x_cols, lo, hi):
        """A_i x_cols[i, g] for agents i in lo..hi-1 and every column g, (hi - lo, G, n)."""
        return np.matmul(x_cols[lo:hi], self.a[lo:hi].transpose(0, 2, 1))

    def _blocks(self, lo, hi):
        """The rows of agents lo..hi-1 as (blocks, block_rows, d)."""
        return self.a_flat[lo * self.n:hi * self.n].reshape(-1, self.block_rows, self.d)

    def _cross(self, points, lo, hi):
        """A_j p for agents j in lo..hi-1 and every row p of the (k, d) points, (hi - lo, n, k).

        Computed as ``points @ A_j^T`` (wide side last, the faster GEMM
        orientation) and copied to agent-major order for the reductions.
        """
        prods = np.matmul(points, self._blocks(lo, hi).transpose(0, 2, 1))  # (blocks, k, rows)
        return np.ascontiguousarray(prods.transpose(0, 2, 1)).reshape(hi - lo, self.n, -1)

    def _forward(self, x):
        """A x at one shared point, shape (m*n,)."""
        out = np.empty(self.m * self.n)

        def lane(lo, hi):
            np.matmul(self._blocks(lo, hi), x,
                      out=out[lo * self.n:hi * self.n].reshape(-1, self.block_rows))

        self._in_lanes(lane)
        return out

    def average_value(self, x):
        return self._average_value(x, self._average_pass(x))

    def average_gradient(self, x):
        return self._average_gradient(x, self._average_pass(x))

    def average_value_and_gradient(self, x):
        t = self._average_pass(x)
        return self._average_value(x, t), self._average_gradient(x, t)


class _RidgeBatch(_Batch):
    """Ridge evaluators on the residuals A x - b."""

    loss = "ridge"

    def __init__(self, a, b, gammas):
        super().__init__(a, b)
        self.gammas = _frozen_array(gammas)
        if self.gammas.shape != (self.m,):
            raise ShapeError(f"expected {self.m} ridge coefficients, got shape "
                             f"{self.gammas.shape}")
        if not np.all(self.gammas > 0):  # a NaN coefficient fails too
            raise ParameterError(f"ridge coefficients must be positive, got {self.gammas}")

    def column_gradients(self, x_cols, out=None, scratch=None):
        grad = np.empty(x_cols.shape) if out is None else out

        def lane(lo, hi):
            r = self._own(x_cols, lo, hi) - self.b[lo:hi, None, :]
            r *= 2.0 / self.n
            np.matmul(r, self.a[lo:hi], out=grad[lo:hi])
            grad[lo:hi] += np.multiply(self.gammas[lo:hi, None, None], x_cols[lo:hi],
                                       out=None if scratch is None else scratch[lo:hi])

        self._in_lanes(lane)
        return grad

    def values_at_own_rows(self, x_rows):
        values = np.empty(self.m)

        def lane(lo, hi):
            r = self._own(x_rows[:, None], lo, hi)[:, 0] - self.b[lo:hi]
            x = x_rows[lo:hi]
            sq = np.einsum("md,md->m", x, x)
            values[lo:hi] = (np.einsum("mn,mn->m", r, r) / self.n
                             + 0.5 * self.gammas[lo:hi] * sq)

        self._in_lanes(lane)
        return values

    def cross_values(self, x_rows):
        """value[i, j] = f_j evaluated at row i."""
        sq = np.einsum("id,id->i", x_rows, x_rows)
        values = np.empty((len(x_rows), self.m))

        def lane(lo, hi):
            r = self._cross(x_rows, lo, hi) - self.b[lo:hi, :, None]
            values[:, lo:hi] = (np.einsum("jni,jni->ij", r, r) / self.n
                                + 0.5 * self.gammas[None, lo:hi] * sq[:, None])

        self._in_lanes(lane)
        return values

    def _average_pass(self, x):
        r = self._forward(x)
        r -= self.b.ravel()
        return r

    def _average_value(self, x, r):
        return float(r @ r / (self.m * self.n) + 0.5 * np.mean(self.gammas) * (x @ x))

    def _average_gradient(self, x, r):
        return (2.0 / (self.m * self.n)) * (r @ self.a_flat) + np.mean(self.gammas) * x


class _LogisticBatch(_Batch):
    """Logistic evaluators on the margins b * (A x)."""

    loss = "logistic"
    gammas = None

    def __init__(self, a, b):
        super().__init__(a, b)
        if not np.all(np.abs(self.b) == 1.0):
            raise ParameterError("logistic labels must be +1 or -1")

    def column_gradients(self, x_cols, out=None, scratch=None):
        grad = np.empty(x_cols.shape) if out is None else out

        def lane(lo, hi):
            b = self.b[lo:hi, None, :]
            weights = b * _expit(-b * self._own(x_cols, lo, hi))
            weights *= -1.0 / self.n
            np.matmul(weights, self.a[lo:hi], out=grad[lo:hi])

        self._in_lanes(lane)
        return grad

    def values_at_own_rows(self, x_rows):
        values = np.empty(self.m)

        def lane(lo, hi):
            margins = self.b[lo:hi] * self._own(x_rows[:, None], lo, hi)[:, 0]
            values[lo:hi] = np.mean(np.logaddexp(0.0, -margins), axis=1)

        self._in_lanes(lane)
        return values

    def cross_values(self, x_rows):
        values = np.empty((self.m, len(x_rows)))

        def lane(lo, hi):
            margins = self.b[lo:hi, :, None] * self._cross(x_rows, lo, hi)
            values[lo:hi] = np.mean(np.logaddexp(0.0, -margins), axis=1)

        self._in_lanes(lane)
        return values.T

    def _average_pass(self, x):
        return self.b.ravel() * self._forward(x)

    def _average_value(self, x, margins):
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def _average_gradient(self, x, margins):
        weights = self.b.ravel() * _expit(-margins)
        return -(weights @ self.a_flat) / (self.m * self.n)


class ProblemInstance:
    """m agents' losses of one kind, evaluated on the instance's data slabs.

    Build one with ``ProblemInstance.ridge`` or ``ProblemInstance.logistic``.
    ``loss`` is "ridge" or "logistic"; ``a`` holds the (m, n, d) features
    (a[i, j] is agent i's sample j), ``b`` the (m, n) ridge targets or
    logistic labels and ``gammas`` the (m,) ridge coefficients, None for
    logistic. The arrays are read-only; ``lanes`` counts the evaluators'
    agent lanes: 1 below LANE_MIN_BYTES or on one CPU.
    """

    def __init__(self, kernel: _Batch):
        self._kernel = kernel

    # the kernel's fields, read-only: each is stored once
    loss = property(attrgetter("_kernel.loss"))
    lanes = property(attrgetter("_kernel.lanes"))
    a = property(attrgetter("_kernel.a"))
    b = property(attrgetter("_kernel.b"))
    gammas = property(attrgetter("_kernel.gammas"))
    m = property(attrgetter("_kernel.m"))
    n = property(attrgetter("_kernel.n"))
    d = property(attrgetter("_kernel.d"))

    @classmethod
    def ridge(cls, a, b, gammas) -> ProblemInstance:
        """f_i(x) = (1/n) ||A_i x - b_i||^2 + (gamma_i/2) ||x||^2 with every gamma_i > 0.

        a is (m, n, d), b is (m, n) and gammas is (m,).
        """
        return cls(_RidgeBatch(a, b, gammas))

    @classmethod
    def logistic(cls, a, b) -> ProblemInstance:
        """f_i(x) = (1/n) sum_j log(1 + exp(-b_ij <x, a_ij>)) with every b_ij in {-1, +1}.

        a is (m, n, d) and b is (m, n).
        """
        return cls(_LogisticBatch(a, b))

    def _check_stack(self, x_stack):
        x_stack = np.asarray(x_stack, dtype=float)
        if x_stack.shape != (self.m, self.d):
            raise ShapeError(f"expected stack of shape ({self.m}, {self.d}), got {x_stack.shape}")
        return x_stack

    def stacked_value(self, x_stack) -> float:
        """F(X) = sum_i f_i(x_i)."""
        return float(np.sum(self._kernel.values_at_own_rows(self._check_stack(x_stack))))

    def stacked_gradient(self, x_stack) -> np.ndarray:
        """Row i holds the gradient of f_i at row i of the stack."""
        return self._kernel.column_gradients(self._check_stack(x_stack)[:, None])[:, 0]

    def column_gradients(self, x_cols, out=None, scratch=None) -> np.ndarray:
        """Gradients of G stacks at once: x_cols[:, g] is stack g, shape (m, G, d).

        With ``out``, an (m, G, d) float array not overlapping x_cols, the
        gradients are written there and ``out`` is returned; ``scratch``, one
        more such array, then holds ridge's gamma term, so the call allocates
        nothing of size (m, G, d). The bits are the allocating call's.
        """
        x_cols = np.asarray(x_cols, dtype=float)
        if x_cols.ndim != 3 or x_cols.shape[0] != self.m or x_cols.shape[2] != self.d:
            raise ShapeError(f"expected columns of shape ({self.m}, G, {self.d}), "
                             f"got {x_cols.shape}")
        for name, buf in (("out", out), ("scratch", scratch)):
            if buf is not None and (buf.shape != x_cols.shape or buf.dtype != float):
                raise ShapeError(f"{name} must be a float array of shape {x_cols.shape}, "
                                 f"got {buf.dtype} {buf.shape}")
        return self._kernel.column_gradients(x_cols, out, scratch)

    def average_value(self, x) -> float:
        """f(x) = (1/m) sum_i f_i(x) at a single shared point."""
        return self._kernel.average_value(_check_point(x, self.d))

    def average_gradient(self, x) -> np.ndarray:
        return self._kernel.average_gradient(_check_point(x, self.d))

    def average_value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)), bit-identical to the two separate calls.

        The product with the data is computed once for both.
        """
        return self._kernel.average_value_and_gradient(_check_point(x, self.d))

    def average_values_at_rows(self, x_stack) -> np.ndarray:
        """Vector of f(x_i) for every row, f being the averaged objective."""
        return np.mean(self._kernel.cross_values(self._check_stack(x_stack)), axis=1)


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


def _read_idx_pixels(path) -> np.ndarray:
    """The raw (count, rows*cols) uint8 pixels of a big-endian IDX image file."""
    with open(path, "rb") as f:
        magic = _read_be_u32(f, path)
        if magic != IDX_IMAGE_MAGIC:
            raise DataError(f"bad magic 0x{magic:08x} in image file {path}")
        count = _read_be_u32(f, path)
        rows = _read_be_u32(f, path)
        cols = _read_be_u32(f, path)
        raw = f.read(count * rows * cols)
        if len(raw) != count * rows * cols:
            raise DataError(f"truncated pixel data in {path}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)


def read_idx_images(path) -> np.ndarray:
    """Parse a big-endian IDX image file into a (count, rows*cols) float array."""
    return _read_idx_pixels(path).astype(float)


def read_idx_labels(path) -> np.ndarray:
    """Parse a big-endian IDX label file into a (count,) integer array."""
    with open(path, "rb") as f:
        magic = _read_be_u32(f, path)
        if magic != IDX_LABEL_MAGIC:
            raise DataError(f"bad magic 0x{magic:08x} in label file {path}")
        count = _read_be_u32(f, path)
        raw = f.read(count)
        if len(raw) != count:
            raise DataError(f"truncated label data in {path}")
    return np.frombuffer(raw, dtype=np.uint8).astype(int)


def _read_idx(reader, path, key: str):
    """reader(path), with an OSError turned into a DataError naming key and path."""
    try:
        return reader(path)
    except OSError as exc:
        raise DataError(f"problem.{key}: cannot read {path}: {exc.strerror or exc}") from exc


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
    p, q = digit_pair
    if p == q:
        raise ParameterError(f"digit pair must be distinct, got {digit_pair}")
    pixels = _read_idx(_read_idx_pixels, images_path, "images_path")
    labels = _read_idx(read_idx_labels, labels_path, "labels_path")
    if pixels.shape[0] != labels.shape[0]:
        raise DataError(
            f"image/label count mismatch: {pixels.shape[0]} vs {labels.shape[0]}"
        )
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


def centralized_minimize(
    problem: ProblemInstance,
    tol: float = 1e-10,
    max_iter: int = 500_000,
) -> np.ndarray:
    """High-accuracy minimizer of f = (1/m) sum f_i by accelerated descent from 0.

    Nesterov-accelerated gradient steps with a curvature-estimated inverse
    stepsize: the estimate starts from a secant probe, is re-doubled when the
    quadratic upper bound fails, and relaxes geometrically otherwise. The
    momentum restarts whenever it points uphill. Stops at ||grad f|| <= tol.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"tolerance must be positive and finite, got {tol}")
    x = np.zeros(problem.d)
    f_x, g = problem.average_value_and_gradient(x)
    if np.linalg.norm(g) <= tol:
        return x

    # secant probe along the gradient for an initial curvature estimate
    probe = x - 1e-3 * g / max(np.linalg.norm(g), 1.0)
    g_probe = problem.average_gradient(probe)
    denom = np.linalg.norm(x - probe)
    lip = max(np.linalg.norm(g - g_probe) / denom, 1e-12) if denom > 0 else 1.0

    # the value and gradient at each point share one product A x; a trial
    # point that the backtracking rejects also pays for its gradient
    y = x.copy()
    f_y, g_y = f_x, g
    t = 1.0
    best_x, best_norm = x.copy(), np.linalg.norm(g)
    for _ in range(max_iter):
        while True:
            x_new = y - g_y / lip
            f_new, g_new = problem.average_value_and_gradient(x_new)
            gap = f_new - (f_y + g_y @ (x_new - y) + 0.5 * lip * np.sum((x_new - y) ** 2))
            if gap <= 1e-12 * (1.0 + abs(f_new)):
                break
            lip *= 2.0
        norm = np.linalg.norm(g_new)
        if norm < best_norm:
            best_x, best_norm = x_new.copy(), norm
        if norm <= tol:
            return x_new
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
            f_y, g_y = problem.average_value_and_gradient(y)
    raise NotConvergedError(
        f"centralized solve stalled at ||grad|| = {best_norm:.3e} (target {tol:.1e})",
        best_x=best_x,
        grad_norm=best_norm,
    )
