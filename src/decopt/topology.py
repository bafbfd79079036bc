"""Communication graphs, gossip matrices, and their spectral helpers.

A graph is undirected, connected, and has no self-loops. A gossip matrix
is a symmetric doubly stochastic matrix compliant with the graph (positive
on the diagonal and on edges, zero elsewhere). Shifting it as
``W = (1 - c) I + c W_tilde`` with ``c in (0, 1/2)`` makes it positive
definite, which the solvers require. Everything is dense: at desk scale
(m up to a few hundred) the eigendecompositions dominate anyway.

All objects are immutable after construction; arrays are marked
read-only so they can be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "psd_shift",
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


def _normalize_edge(i: int, j: int) -> tuple[int, int]:
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
        if self.m < 2:
            raise ParameterError(f"graph needs at least 2 agents, got m={self.m}")
        object.__setattr__(self, "edges", frozenset(_normalize_edge(*e) for e in self.edges))
        for i, j in self.edges:
            if i == j:
                raise ParameterError(f"self-loop ({i},{j}) not allowed")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ParameterError(f"edge ({i},{j}) out of range for m={self.m}")
        if not _is_connected(self.m, self.edges):
            raise ParameterError("graph is not connected")

    @cached_property
    def neighbor_lists(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return tuple(tuple(sorted(n)) for n in nbrs)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.neighbor_lists[i]

    def degree(self, i: int) -> int:
        return len(self.neighbor_lists[i])

    def neighbor_mask(self, include_self: bool = True) -> np.ndarray:
        """Boolean (m, m) adjacency; diagonal set when include_self."""
        mask = np.zeros((self.m, self.m), dtype=bool)
        for i, j in self.edges:
            mask[i, j] = mask[j, i] = True
        if include_self:
            np.fill_diagonal(mask, True)
        mask.setflags(write=False)
        return mask

    @cached_property
    def diameter(self) -> int:
        """Longest shortest path, by BFS from every agent."""
        best = 0
        for src in range(self.m):
            dist = _bfs_distances(self.m, self.neighbor_lists, src)
            best = max(best, int(max(dist)))
        return best


def _is_connected(m: int, edges: frozenset[tuple[int, int]]) -> bool:
    nbrs: list[list[int]] = [[] for _ in range(m)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = [False] * m
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == m


def _bfs_distances(m: int, nbrs, src: int) -> list[int]:
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


@dataclass(frozen=True)
class GossipMatrix:
    """Doubly stochastic weight matrix W_tilde, optionally PSD-shifted.

    ``w_tilde`` always satisfies the compliance invariants. ``w`` is the
    shifted matrix (1-c) I + c W_tilde once psd_shift has been applied;
    until then ``c`` and ``w`` are None.
    """

    w_tilde: np.ndarray
    c: float | None = None
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        wt = np.asarray(self.w_tilde, dtype=float)
        if wt.ndim != 2 or wt.shape[0] != wt.shape[1]:
            raise ShapeError(f"w_tilde must be square, got {wt.shape}")
        _check_stochastic(wt)
        wt = wt.copy()
        wt.setflags(write=False)
        object.__setattr__(self, "w_tilde", wt)
        if self.w is not None:
            w = np.asarray(self.w, dtype=float).copy()
            w.setflags(write=False)
            object.__setattr__(self, "w", w)

    @property
    def m(self) -> int:
        return self.w_tilde.shape[0]

    @property
    def shifted(self) -> np.ndarray:
        if self.w is None:
            raise ParameterError("gossip matrix has no PSD shift applied yet")
        return self.w

    def neighbor_mask(self) -> np.ndarray:
        """Closed-neighborhood mask: the sparsity pattern of w_tilde.

        Its diagonal is set because construction checked that w_tilde's is
        positive, so every agent is in its own neighborhood.
        """
        mask = self.w_tilde > 0.0
        mask.setflags(write=False)
        return mask

    @cached_property
    def _shifted_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        vals, vecs = np.linalg.eigh(self.shifted)
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
            raise NumericError("eigendecomposition of W returned non-finite values")
        return vals, vecs


def _check_stochastic(wt: np.ndarray) -> None:
    if not np.all(np.isfinite(wt)):
        raise NumericError("gossip matrix has non-finite entries")
    sym_err = np.max(np.abs(wt - wt.T)) if wt.size else 0.0
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
        if _is_connected(m, edges):
            return Graph(m, edges)
    raise GraphGenerationError(
        f"no connected G({m}, {p}) sample within {_ER_MAX_ATTEMPTS} attempts"
    )


def metropolis_hastings(graph: Graph) -> GossipMatrix:
    """Metropolis-Hastings weights: w_ij = 1 / (1 + max(deg_i, deg_j)).

    The diagonal absorbs the remaining mass, so rows sum to one and the
    matrix is symmetric doubly stochastic by construction.
    """
    m = graph.m
    wt = np.zeros((m, m))
    for i, j in graph.edges:
        wt[i, j] = wt[j, i] = 1.0 / (1.0 + max(graph.degree(i), graph.degree(j)))
    np.fill_diagonal(wt, 1.0 - wt.sum(axis=1))
    return GossipMatrix(w_tilde=wt)


def psd_shift(gossip: GossipMatrix, c: float = 0.4) -> GossipMatrix:
    """Return the gossip matrix with W = (1-c) I + c W_tilde attached.

    c in (0, 1/2) guarantees W is positive definite, since the smallest
    eigenvalue of any symmetric doubly stochastic matrix is >= -1.
    """
    if not (0.0 < c < 0.5):
        raise ParameterError(f"shift coefficient c must lie in (0, 1/2), got {c}")
    m = gossip.m
    w = (1.0 - c) * np.eye(m) + c * gossip.w_tilde
    w = (w + w.T) / 2.0
    shifted = GossipMatrix(w_tilde=gossip.w_tilde, c=c, w=w)
    lam_min = float(np.min(shifted._shifted_eigensystem[0]))
    if lam_min < (1.0 - 2.0 * c) - 1e-10:
        raise NumericError(f"shifted matrix not positive definite (lambda_min={lam_min})")
    return shifted


def _sqrt_spectrum(gossip: GossipMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues s_i of I - W with the consensus direction zeroed, and Q."""
    vals, vecs = gossip._shifted_eigensystem
    s = 1.0 - vals
    s[np.abs(s) < _NULLSPACE_CUTOFF] = 0.0
    if np.any(s < 0.0):
        raise NumericError("I - W has a significantly negative eigenvalue")
    return s, vecs


def graph_laplacian_sqrt(gossip: GossipMatrix) -> np.ndarray:
    """Symmetric PSD square root of I - W, with null space span(1).

    Satisfies ||L_op @ L_op - (I - W)||_F <= 1e-10 and L_op @ 1 = 0.
    """
    s, q = _sqrt_spectrum(gossip)
    l_op = (q * np.sqrt(s)) @ q.T
    l_op = (l_op + l_op.T) / 2.0
    recon = np.linalg.norm(l_op @ l_op - (np.eye(gossip.m) - gossip.shifted))
    if recon > SQRT_RECON_TOL:
        raise NumericError(f"laplacian sqrt reconstruction error {recon:.2e}")
    l_op.setflags(write=False)
    return l_op


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
