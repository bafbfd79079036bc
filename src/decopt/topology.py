"""Communication graphs, gossip matrices, and their spectral helpers.

A graph is undirected, connected, and has no self-loops. A gossip matrix
holds a symmetric doubly stochastic W_tilde compliant with the graph
(positive on the diagonal and on edges, zero elsewhere) and its shift
``W = (1 - c) I + c W_tilde`` with ``c in (0, 1/2)``, which is positive
definite, as the solvers require. Everything is dense: at desk scale
(m up to a few hundred) the eigendecompositions dominate anyway.

All objects are immutable after construction; arrays are marked
read-only so they can be shared across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GraphGenerationError, NumericError, ParameterError, ShapeError

__all__ = [
    "Graph",
    "GossipMatrix",
    "make_line_graph",
    "make_ring_graph",
    "make_erdos_renyi",
    "metropolis_hastings",
    "graph_laplacian_sqrt",
    "laplacian_pinv_sqrt",
]

# Tolerances for gossip-matrix invariants.
SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-12
SQRT_RECON_TOL = 1e-10

# Eigenvalues of I - W below this are treated as the exact zero of the
# consensus direction (the all-ones eigenvector).
_NULLSPACE_CUTOFF = 1e-12

_ER_MAX_ATTEMPTS = 100_000


def _normalize_edge(edge, m: int) -> tuple[int, int]:
    """The edge as (i, j) with 0 <= i < j < m, or a ParameterError naming it."""
    try:
        i, j = (operator.index(v) for v in edge)
    except (TypeError, ValueError):
        raise ParameterError(f"edge {edge!r} is not a pair of integer agents") from None
    if i == j:
        raise ParameterError(f"self-loop ({i},{j}) not allowed")
    if not (0 <= i < m and 0 <= j < m):
        raise ParameterError(f"edge ({i},{j}) out of range for m={m}")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on agents 0..m-1.

    Edges are stored as a frozenset of (i, j) pairs with i < j.
    Construction validates connectivity by traversal from agent 0.
    """

    m: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        try:
            m = operator.index(self.m)
        except TypeError:
            raise ParameterError(f"graph size m must be an integer, got {self.m!r}") from None
        if m < 2:
            raise ParameterError(f"graph needs at least 2 agents, got m={m}")
        edges = frozenset(_normalize_edge(e, self.m) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        if -1 in _bfs_distances(self.m, self.neighbor_lists, 0):
            raise ParameterError("graph is not connected")

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        return _neighbor_lists(self.m, self.edges)

    def degree(self, i: int) -> int:
        return len(self.neighbor_lists[i])


def _neighbor_lists(m: int, edges) -> tuple[tuple[int, ...], ...]:
    """Each agent's neighbors in ascending order."""
    nbrs: list[list[int]] = [[] for _ in range(m)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return tuple(tuple(sorted(n)) for n in nbrs)


def _bfs_distances(m: int, nbrs, src: int) -> list[int]:
    """Hops from src to every agent, -1 for an agent it does not reach."""
    dist = [-1] * m
    dist[src] = 0
    queue = [src]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in nbrs[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as its fields are arrays
class GossipMatrix:
    """Doubly stochastic weight matrix W_tilde and its shift W.

    Construction checks the compliance invariants of ``w_tilde`` and forms
    the read-only ``shifted`` = (1-c) I + c W_tilde. c in (0, 1/2)
    guarantees W is positive definite, since the smallest eigenvalue of
    any symmetric doubly stochastic matrix is >= -1; construction checks
    that eigenvalue too.
    """

    w_tilde: np.ndarray
    c: float = 0.4
    shifted: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c = self.c
        if not (0.0 < c < 0.5):
            raise ParameterError(f"shift coefficient c must lie in (0, 1/2), got {c}")
        wt = np.asarray(self.w_tilde, dtype=float)
        if wt.ndim != 2 or wt.shape[0] != wt.shape[1] or wt.size == 0:
            raise ShapeError(f"w_tilde must be square with at least one agent, got {wt.shape}")
        _check_stochastic(wt)
        wt = wt.copy()
        w = (1.0 - c) * np.eye(wt.shape[0]) + c * wt
        w = (w + w.T) / 2.0
        for name, arr in (("w_tilde", wt), ("shifted", w)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        lam_min = float(np.min(self._shifted_eigensystem[0]))
        if lam_min < (1.0 - 2.0 * c) - 1e-10:
            raise NumericError(f"shifted matrix not positive definite (lambda_min={lam_min})")

    @property
    def m(self) -> int:
        return self.w_tilde.shape[0]

    def neighbor_mask(self) -> np.ndarray:
        """Closed-neighborhood mask: the sparsity pattern of w_tilde.

        Its diagonal is set because construction checked that w_tilde's is
        positive, so every agent is in its own neighborhood. Computed once;
        every call returns the same read-only array.
        """
        return self._neighbor_mask

    @cached_property
    def _neighbor_mask(self) -> np.ndarray:
        mask = self.w_tilde > 0.0
        mask.setflags(write=False)
        return mask

    @cached_property
    def _shifted_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.shifted)
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
            raise NumericError("eigendecomposition of W returned non-finite values")
        return vals, vecs

    @cached_property
    def laplacian_sqrt(self) -> np.ndarray:
        """Symmetric PSD square root of I - W, with null space span(1).

        Satisfies ||L_op @ L_op - (I - W)||_F <= 1e-10 and L_op @ 1 = 0.
        Computed on first use; every later use returns the same read-only
        array.
        """
        s, q = _sqrt_spectrum(self)
        l_op = (q * np.sqrt(s)) @ q.T
        l_op = (l_op + l_op.T) / 2.0
        recon = np.linalg.norm(l_op @ l_op - (np.eye(self.m) - self.shifted))
        if recon > SQRT_RECON_TOL:
            raise NumericError(f"laplacian sqrt reconstruction error {recon:.2e}")
        l_op.setflags(write=False)
        return l_op


def _check_stochastic(wt: np.ndarray) -> None:
    if not np.all(np.isfinite(wt)):
        raise NumericError("gossip matrix has non-finite entries")
    sym_err = np.max(np.abs(wt - wt.T))
    if sym_err > SYMMETRY_TOL:
        raise ParameterError(f"w_tilde not symmetric (error {sym_err:.2e})")
    row_err = np.max(np.abs(wt.sum(axis=1) - 1.0))
    if row_err > ROW_SUM_TOL:
        raise ParameterError(f"w_tilde rows must sum to 1 (error {row_err:.2e})")
    if np.any(np.diag(wt) <= 0.0):
        raise ParameterError("w_tilde must have a strictly positive diagonal")


def make_line_graph(m: int) -> Graph:
    """Path graph 0-1-...-(m-1)."""
    if m < 2:
        raise ParameterError(f"line graph needs m >= 2, got {m}")
    return Graph(m, frozenset((i, i + 1) for i in range(m - 1)))


def make_ring_graph(m: int) -> Graph:
    """Cycle graph; needs m >= 3 to avoid a duplicate edge."""
    if m < 3:
        raise ParameterError(f"ring graph needs m >= 3, got {m}")
    return Graph(m, frozenset((i, (i + 1) % m) for i in range(m)))


def make_erdos_renyi(m: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(m, p), resampled entirely until connected.

    Each unordered pair is included independently with probability p.
    Resampling the whole graph preserves the ER distribution conditioned
    on connectivity. Deterministic for a fixed (m, p, seed).
    """
    if m < 2:
        raise ParameterError(f"Erdos-Renyi graph needs m >= 2, got {m}")
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"edge probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for _ in range(_ER_MAX_ATTEMPTS):
        hits = rng.random(len(pairs)) < p
        if np.count_nonzero(hits) < m - 1:
            continue  # fewer than m - 1 edges cannot connect m vertices
        edges = frozenset(pair for pair, hit in zip(pairs, hits) if hit)
        if -1 not in _bfs_distances(m, _neighbor_lists(m, edges), 0):
            return Graph(m, edges)
    raise GraphGenerationError(
        f"no connected G({m}, {p}) sample within {_ER_MAX_ATTEMPTS} attempts"
    )


def metropolis_hastings(graph: Graph) -> np.ndarray:
    """Metropolis-Hastings weights W_tilde: w_ij = 1 / (1 + max(deg_i, deg_j)).

    The diagonal absorbs the remaining mass, so rows sum to one and the
    matrix is symmetric doubly stochastic by construction. Pass it to
    GossipMatrix for the shifted W.
    """
    m = graph.m
    wt = np.zeros((m, m))
    for i, j in graph.edges:
        wt[i, j] = wt[j, i] = 1.0 / (1.0 + max(graph.degree(i), graph.degree(j)))
    np.fill_diagonal(wt, 1.0 - wt.sum(axis=1))
    return wt


def _sqrt_spectrum(gossip: GossipMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues s_i of I - W with the consensus direction zeroed, and Q."""
    vals, vecs = gossip._shifted_eigensystem
    s = 1.0 - vals
    s[np.abs(s) < _NULLSPACE_CUTOFF] = 0.0
    if np.any(s < 0.0):
        raise NumericError("I - W has a significantly negative eigenvalue")
    return s, vecs


def graph_laplacian_sqrt(gossip: GossipMatrix) -> np.ndarray:
    """gossip.laplacian_sqrt: the first call on a gossip matrix computes the
    square root, and later calls return the same array."""
    return gossip.laplacian_sqrt


def laplacian_pinv_sqrt(gossip: GossipMatrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse of graph_laplacian_sqrt(gossip)."""
    s, q = _sqrt_spectrum(gossip)
    inv = np.zeros_like(s)
    pos = s > 0.0
    inv[pos] = 1.0 / np.sqrt(s[pos])
    pinv = (q * inv) @ q.T
    pinv = (pinv + pinv.T) / 2.0
    pinv.setflags(write=False)
    return pinv
