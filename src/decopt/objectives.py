"""Local losses, stacked operators, data generation, and the reference solver.

Each agent i owns a private convex loss. The solvers work on the row-wise
stack X (one row per agent) through ``stacked_value``/``stacked_gradient``;
all optimality metrics are anchored to a high-accuracy minimizer of the
averaged objective computed by ``centralized_minimize``.

One copy of the data. The generators and loaders (``synth_ridge``,
``synth_logistic``, ``load_mnist_partition``, ``load_instance``) write an
instance's data once, into one read-only slab: (m, n, d) features or rows and
(m, n) labels or targets. Agent i's objective holds row i of each slab as a
view, and the batch evaluators adopt the slab itself. An objective adopts an
array without copying only when it is read-only float64 and the array that
owns its memory is read-only too; anything else, every array a caller passes
in particular, is copied, so mutating the caller's array never changes an
objective. Instances that users build from their own arrays get their batch
slab stacked from the objectives' copies.

Homogeneous instances (all ridge or all logistic, same sample counts) get
batch evaluators built on two products of the stacked data A, (m, n, d).
``own`` is one batched GEMM of each agent's rows with its own points; it gives
the gradients of G stacks (``column_gradients``, with ``stacked_gradient`` as
G = 1) and the own-row values. ``cross`` is one GEMM of the (m*n, d) view with
k shared points; it gives every row under every loss (k = m) and, from one
pass for k = 1, the averaged value and gradient. The per-objective loop
remains the reference and the fallback for mixed instances; the batch path is
tested against it.

Objectives are immutable after construction (data arrays are read-only, and
no writable array shares their memory), so value and gradient evaluation is
safe from multiple threads.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, NotConvergedError, ParameterError, ShapeError

__all__ = [
    "LocalObjective",
    "RidgeObjective",
    "LogisticObjective",
    "ProblemInstance",
    "synth_ridge",
    "synth_logistic",
    "load_mnist_partition",
    "read_idx_images",
    "read_idx_labels",
    "centralized_minimize",
    "ridge_exact_solution",
    "save_instance",
    "load_instance",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def _frozen_array(a, dtype=float) -> np.ndarray:
    """a as a read-only array: adopted when nothing can write its memory, else copied."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and _read_only(a):
        return a
    out = np.array(a, dtype=dtype)
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


def _stacked(rows) -> np.ndarray:
    """The rows as one (m, ...) array: their read-only slab when they are its
    consecutive rows, adopted as is, and a stacked copy otherwise."""
    slab = rows[0].base
    if (isinstance(slab, np.ndarray) and not slab.flags.writeable
            and slab.shape == (len(rows), *rows[0].shape)):
        start, step = slab.ctypes.data, slab.strides[0]
        if all(row.base is slab and row.ctypes.data == start + i * step
               and row.shape == slab.shape[1:] and row.strides == slab.strides[1:]
               for i, row in enumerate(rows)):
            return slab
    return np.stack(rows)


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


class LocalObjective(ABC):
    """Convex, continuously differentiable loss owned by one agent."""

    @property
    @abstractmethod
    def d(self) -> int:
        """Decision-variable dimension."""

    @abstractmethod
    def value(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class RidgeObjective(LocalObjective):
    """f(x) = (1/n) ||A x - b||^2 + (gamma/2) ||x||^2 with gamma > 0."""

    a_mat: np.ndarray
    b_vec: np.ndarray
    gamma: float

    def __post_init__(self):
        a = np.asarray(self.a_mat, dtype=float)
        b = np.asarray(self.b_vec, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ShapeError(f"incompatible ridge data shapes {a.shape}, {b.shape}")
        if self.gamma <= 0:
            raise ParameterError(f"ridge coefficient must be positive, got {self.gamma}")
        object.__setattr__(self, "a_mat", _frozen_array(a))
        object.__setattr__(self, "b_vec", _frozen_array(b))

    @property
    def n(self) -> int:
        return self.a_mat.shape[0]

    @property
    def d(self) -> int:
        return self.a_mat.shape[1]

    def value(self, x):
        x = _check_point(x, self.d)
        r = self.a_mat @ x - self.b_vec
        return float(r @ r / self.n + 0.5 * self.gamma * (x @ x))

    def gradient(self, x):
        x = _check_point(x, self.d)
        return (2.0 / self.n) * (self.a_mat.T @ (self.a_mat @ x - self.b_vec)) + self.gamma * x


@dataclass(frozen=True)
class LogisticObjective(LocalObjective):
    """f(x) = (1/n) sum_j log(1 + exp(-b_j <x, a_j>)) with b_j in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.features, dtype=float)
        b = np.asarray(self.labels, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ShapeError(f"incompatible logistic data shapes {a.shape}, {b.shape}")
        if not np.all(np.abs(b) == 1.0):
            raise ParameterError("logistic labels must be +1 or -1")
        object.__setattr__(self, "features", _frozen_array(a))
        object.__setattr__(self, "labels", _frozen_array(b))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def value(self, x):
        x = _check_point(x, self.d)
        margins = self.labels * (self.features @ x)
        # log(1 + exp(-t)) computed as logaddexp(0, -t): no overflow for any t
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient(self, x):
        x = _check_point(x, self.d)
        margins = self.labels * (self.features @ x)
        weights = self.labels * _expit(-margins)
        return -(self.features.T @ weights) / self.n


class _Batch:
    """Stacked data of m same-shape objectives; losses build on its two products.

    The averaged value and gradient share one pass, ``_average_pass``: the
    residuals or margins at a shared point, computed once for both.
    """

    def __init__(self, a, b):
        self.a = _stacked(a)  # (m, n, d)
        self.b = _stacked(b)  # (m, n)
        self.m, self.n, d = self.a.shape
        self.a_flat = self.a.reshape(self.m * self.n, d)  # a view

    def own(self, x_cols):
        """A_i x_cols[i, g] for every agent i and column g, shape (m, G, n)."""
        return np.matmul(x_cols, self.a.transpose(0, 2, 1))

    def cross(self, points):
        """A_j p for every agent j and row p of a (k, d) array (or one (d,) point), (m, n, k)."""
        return (self.a_flat @ points.T).reshape(self.m, self.n, -1)

    def average_value(self, x):
        return self._average_value(x, self._average_pass(x))

    def average_gradient(self, x):
        return self._average_gradient(x, self._average_pass(x))

    def average_value_and_gradient(self, x):
        t = self._average_pass(x)
        return self._average_value(x, t), self._average_gradient(x, t)


class _RidgeBatch(_Batch):
    """Ridge evaluators on the residuals A x - b."""

    def __init__(self, objs):
        super().__init__([o.a_mat for o in objs], [o.b_vec for o in objs])
        self.gammas = np.array([o.gamma for o in objs])  # (m,)

    def column_gradients(self, x_cols):
        r = self.own(x_cols) - self.b[:, None, :]
        r *= 2.0 / self.n
        grad = np.matmul(r, self.a)
        grad += self.gammas[:, None, None] * x_cols
        return grad

    def values_at_own_rows(self, x_rows):
        r = self.own(x_rows[:, None])[:, 0] - self.b
        sq = np.einsum("md,md->m", x_rows, x_rows)
        return np.einsum("mn,mn->m", r, r) / self.n + 0.5 * self.gammas * sq

    def cross_values(self, x_rows):
        """value[i, j] = f_j evaluated at row i."""
        r = self.cross(x_rows) - self.b[:, :, None]
        sq = np.einsum("id,id->i", x_rows, x_rows)
        return np.einsum("jni,jni->ij", r, r) / self.n + 0.5 * self.gammas[None, :] * sq[:, None]

    def _average_pass(self, x):
        return self.cross(x).ravel() - self.b.ravel()

    def _average_value(self, x, r):
        return float(r @ r / (self.m * self.n) + 0.5 * np.mean(self.gammas) * (x @ x))

    def _average_gradient(self, x, r):
        return (2.0 / (self.m * self.n)) * (r @ self.a_flat) + np.mean(self.gammas) * x


class _LogisticBatch(_Batch):
    """Logistic evaluators on the margins b * (A x)."""

    def __init__(self, objs):
        super().__init__([o.features for o in objs], [o.labels for o in objs])

    def column_gradients(self, x_cols):
        b = self.b[:, None, :]
        weights = b * _expit(-b * self.own(x_cols))
        weights *= -1.0 / self.n
        return np.matmul(weights, self.a)

    def values_at_own_rows(self, x_rows):
        margins = self.b * self.own(x_rows[:, None])[:, 0]
        return np.mean(np.logaddexp(0.0, -margins), axis=1)

    def cross_values(self, x_rows):
        margins = self.b[:, :, None] * self.cross(x_rows)
        return np.mean(np.logaddexp(0.0, -margins), axis=1).T

    def _average_pass(self, x):
        return self.b.ravel() * self.cross(x).ravel()

    def _average_value(self, x, margins):
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def _average_gradient(self, x, margins):
        weights = self.b.ravel() * _expit(-margins)
        return -(weights @ self.a_flat) / (self.m * self.n)


@dataclass(frozen=True)
class ProblemInstance:
    """m local objectives sharing one decision dimension d."""

    objectives: tuple[LocalObjective, ...]
    d: int

    def __post_init__(self):
        objs = tuple(self.objectives)
        if not objs:
            raise ParameterError("a problem needs at least one objective")
        if any(o.d != self.d for o in objs):
            raise ShapeError("all objectives must share the problem dimension")
        object.__setattr__(self, "objectives", objs)

    @property
    def m(self) -> int:
        return len(self.objectives)

    @cached_property
    def _batch(self):
        objs = self.objectives
        for kind, batch in ((RidgeObjective, _RidgeBatch), (LogisticObjective, _LogisticBatch)):
            if all(isinstance(o, kind) for o in objs) and len({o.n for o in objs}) == 1:
                return batch(objs)
        return None

    def _check_stack(self, x_stack):
        x_stack = np.asarray(x_stack, dtype=float)
        if x_stack.shape != (self.m, self.d):
            raise ShapeError(f"expected stack of shape ({self.m}, {self.d}), got {x_stack.shape}")
        return x_stack

    def stacked_value(self, x_stack) -> float:
        """F(X) = sum_i f_i(x_i)."""
        x_stack = self._check_stack(x_stack)
        if self._batch is not None:
            return float(np.sum(self._batch.values_at_own_rows(x_stack)))
        return float(sum(o.value(x) for o, x in zip(self.objectives, x_stack)))

    def stacked_gradient(self, x_stack) -> np.ndarray:
        """Row i holds the gradient of f_i at row i of the stack."""
        x_stack = self._check_stack(x_stack)
        if self._batch is not None:
            return self._batch.column_gradients(x_stack[:, None])[:, 0]
        return np.stack([o.gradient(x) for o, x in zip(self.objectives, x_stack)])

    def column_gradients(self, x_cols) -> np.ndarray:
        """Gradients of G stacks at once: x_cols[:, g] is stack g, shape (m, G, d)."""
        x_cols = np.asarray(x_cols, dtype=float)
        if x_cols.ndim != 3 or x_cols.shape[0] != self.m or x_cols.shape[2] != self.d:
            raise ShapeError(f"expected columns of shape ({self.m}, G, {self.d}), "
                             f"got {x_cols.shape}")
        if self._batch is not None:
            return self._batch.column_gradients(x_cols)
        return np.stack([self.stacked_gradient(x_cols[:, g]) for g in range(x_cols.shape[1])],
                        axis=1)

    def average_value(self, x) -> float:
        """f(x) = (1/m) sum_i f_i(x) at a single shared point."""
        x = _check_point(x, self.d)
        if self._batch is not None:
            return self._batch.average_value(x)
        return float(sum(o.value(x) for o in self.objectives)) / self.m

    def average_gradient(self, x) -> np.ndarray:
        x = _check_point(x, self.d)
        if self._batch is not None:
            return self._batch.average_gradient(x)
        g = np.zeros(self.d)
        for o in self.objectives:
            g += o.gradient(x)
        return g / self.m

    def average_value_and_gradient(self, x) -> tuple[float, np.ndarray]:
        """(f(x), grad f(x)), bit-identical to the two separate calls.

        The batch path computes the product with the data once for both.
        """
        x = _check_point(x, self.d)
        if self._batch is not None:
            return self._batch.average_value_and_gradient(x)
        return self.average_value(x), self.average_gradient(x)

    def average_values_at_rows(self, x_stack) -> np.ndarray:
        """Vector of f(x_i) for every row, f being the averaged objective."""
        x_stack = self._check_stack(x_stack)
        if self._batch is not None:
            return np.mean(self._batch.cross_values(x_stack), axis=1)
        return np.array([self.average_value(x) for x in x_stack])


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
    objs = tuple(RidgeObjective(a[i], b[i], gamma=0.1 + i * 0.1) for i in range(m))
    return ProblemInstance(objs, d)


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
    return ProblemInstance(tuple(LogisticObjective(a[i], b[i]) for i in range(m)), d)


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
    return ProblemInstance(tuple(LogisticObjective(a[i], b[i]) for i in range(m)), d)


def ridge_exact_solution(problem: ProblemInstance) -> np.ndarray:
    """Minimizer of the averaged ridge objective via the normal equations.

    Solves sum_i [(2/n_i) A_i^T A_i + gamma_i I] x = sum_i (2/n_i) A_i^T b_i,
    then applies one step of iterative refinement to clean up the residual.
    """
    if not all(isinstance(o, RidgeObjective) for o in problem.objectives):
        raise ParameterError("exact solve only applies to all-ridge instances")
    d = problem.d
    h = np.zeros((d, d))
    rhs = np.zeros(d)
    # each agent's term is built in one reused buffer; this rounds exactly as
    # (2/n) (A^T A) + gamma I does, since adding 0.0 off the diagonal is exact
    term = np.empty((d, d))
    for o in problem.objectives:
        np.matmul(o.a_mat.T, o.a_mat, out=term)
        term *= 2.0 / o.n
        term.flat[:: d + 1] += o.gamma
        h += term
        rhs += (2.0 / o.n) * (o.a_mat.T @ o.b_vec)
    del term  # each solve copies h: hold no third (d, d) array while they run
    x = np.linalg.solve(h, rhs)
    x -= np.linalg.solve(h, h @ x - rhs)
    return x


def centralized_minimize(
    problem: ProblemInstance,
    tol: float = 1e-10,
    max_iter: int = 500_000,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """High-accuracy minimizer of f = (1/m) sum f_i by accelerated descent.

    Nesterov-accelerated gradient steps with a curvature-estimated inverse
    stepsize: the estimate starts from a secant probe, is re-doubled when the
    quadratic upper bound fails, and relaxes geometrically otherwise. The
    momentum restarts whenever it points uphill. Stops at ||grad f|| <= tol.
    """
    if not 0 < tol < np.inf:
        raise ParameterError(f"tolerance must be positive and finite, got {tol}")
    d = problem.d
    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
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


def save_instance(problem: ProblemInstance, path) -> None:
    """Snapshot an instance to a .npz archive for reproducibility."""
    arrays = {}
    kinds = []
    for idx, o in enumerate(problem.objectives):
        if isinstance(o, RidgeObjective):
            kinds.append("ridge")
            arrays[f"a_{idx}"] = o.a_mat
            arrays[f"b_{idx}"] = o.b_vec
            arrays[f"g_{idx}"] = np.array(o.gamma)
        elif isinstance(o, LogisticObjective):
            kinds.append("logistic")
            arrays[f"a_{idx}"] = o.features
            arrays[f"b_{idx}"] = o.labels
        else:
            raise ParameterError(f"cannot serialize objective type {type(o).__name__}")
    np.savez_compressed(path, kinds=np.array(kinds), d=np.array(problem.d), **arrays)


def _archive_rows(data, prefix: str, m: int):
    """Arrays prefix_0 .. prefix_{m-1} of an archive, read one at a time into
    the rows of one read-only slab; a list of the arrays when their shapes differ."""
    first = data[f"{prefix}_0"]
    slab = np.empty((m, *first.shape))
    slab[0] = first
    for i in range(1, m):
        row = data[f"{prefix}_{i}"]
        if row.shape != first.shape:
            return [data[f"{prefix}_{j}"] for j in range(m)]
        slab[i] = row
    slab.setflags(write=False)
    return slab


def load_instance(path) -> ProblemInstance:
    """Inverse of save_instance."""
    with np.load(path) as data:
        kinds = [str(k) for k in data["kinds"]]
        d = int(data["d"])
        a = _archive_rows(data, "a", len(kinds))
        b = _archive_rows(data, "b", len(kinds))
        objs: list[LocalObjective] = []
        for idx, kind in enumerate(kinds):
            if kind == "ridge":
                objs.append(RidgeObjective(a[idx], b[idx], float(data[f"g_{idx}"])))
            else:
                objs.append(LogisticObjective(a[idx], b[idx]))
    return ProblemInstance(tuple(objs), d)
