import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decopt import runner, topology
from decopt.errors import GraphGenerationError, ParameterError, ShapeError
from oracles import diameter


def mh_shifted(graph, c=0.4):
    return topology.GossipMatrix(topology.metropolis_hastings(graph), c=c)


class TestGraphs:
    def test_line_m3(self):
        g = topology.make_line_graph(3)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_line_m2(self):
        g = topology.make_line_graph(2)
        assert g.edges == frozenset({(0, 1)})

    def test_line_m20_diameter(self):
        g = topology.make_line_graph(20)
        assert len(g.edges) == 19
        assert diameter(g) == 19

    def test_line_too_small(self):
        with pytest.raises(ParameterError):
            topology.make_line_graph(1)

    def test_ring(self):
        g = topology.make_ring_graph(5)
        assert len(g.edges) == 5
        assert all(g.degree(i) == 2 for i in range(5))

    def test_disconnected_rejected(self):
        with pytest.raises(ParameterError):
            topology.Graph(4, frozenset({(0, 1), (2, 3)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            topology.Graph(3, frozenset({(0, 0), (0, 1), (1, 2)}))

    def test_edge_not_a_pair_rejected(self):
        with pytest.raises(ParameterError, match=r"edge \(1, 2, 3\)"):
            topology.Graph(3, {(0, 1), (1, 2, 3)})

    def test_edge_with_float_vertex_rejected(self):
        with pytest.raises(ParameterError, match=r"edge \(1, 2\.5\)"):
            topology.Graph(3, {(0, 1), (1, 2.5)})

    @pytest.mark.parametrize("m", [2.5, "3"])
    def test_non_integer_size_rejected(self, m):
        with pytest.raises(ParameterError, match="graph size m must be an integer"):
            topology.Graph(m, {(0, 1)})

    def test_er_p1_is_complete(self):
        g = topology.make_erdos_renyi(2, 1.0, seed=0)
        assert g.edges == frozenset({(0, 1)})
        g = topology.make_erdos_renyi(6, 1.0, seed=0)
        assert len(g.edges) == 15

    def test_er_deterministic(self):
        g1 = topology.make_erdos_renyi(20, 0.1, seed=7)
        g2 = topology.make_erdos_renyi(20, 0.1, seed=7)
        assert g1.edges == g2.edges

    def test_er_sparse_connected(self):
        g = topology.make_erdos_renyi(20, 0.1, seed=3)
        assert g.m == 20  # constructor would have raised if disconnected

    def test_er_edge_count_statistics(self):
        # Oracle: |E| ~ Binomial(C(20,2)=190, 0.9), mean 171, var 17.1.
        # The sample mean over N seeds stays within 4 standard errors.
        n_seeds = 50
        counts = [len(topology.make_erdos_renyi(20, 0.9, seed=s).edges) for s in range(n_seeds)]
        mean = 0.9 * 190
        se = np.sqrt(190 * 0.9 * 0.1 / n_seeds)
        assert abs(np.mean(counts) - mean) < 4 * se

    def test_er_bad_p(self):
        with pytest.raises(ParameterError):
            topology.make_erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(ParameterError):
            topology.make_erdos_renyi(5, 1.5, seed=0)

    def test_er_generation_failure(self, monkeypatch):
        monkeypatch.setattr(topology, "_ER_MAX_ATTEMPTS", 3)
        with pytest.raises(GraphGenerationError):
            topology.make_erdos_renyi(40, 0.02, seed=1)

    @pytest.mark.parametrize("m", [5, 20, 30])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.9])
    def test_er_same_graphs_as_checking_every_draw(self, m, p):
        for seed in range(5):
            assert topology.make_erdos_renyi(m, p, seed).edges == replay_erdos_renyi(m, p, seed)


class TestMetropolisHastings:
    def test_line_m3_hand_values(self):
        # degrees (1, 2, 1): off-diagonals 1/(1+2) = 1/3, diagonal fills rows.
        wt = topology.metropolis_hastings(topology.make_line_graph(3))
        expected = np.array([[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]])
        np.testing.assert_allclose(wt, expected, atol=1e-15)

    def test_complete_m2(self):
        wt = topology.metropolis_hastings(topology.make_line_graph(2))
        np.testing.assert_allclose(wt, np.full((2, 2), 0.5), atol=1e-15)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_doubly_stochastic_any_graph(self, seed):
        g = topology.make_erdos_renyi(8, 0.35, seed=seed)
        wt = topology.metropolis_hastings(g)
        assert np.max(np.abs(wt - wt.T)) <= 1e-12
        assert np.max(np.abs(wt.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(np.diag(wt) > 0)
        # sparsity matches the graph exactly
        assert np.array_equal(wt > 0, closed_neighborhoods(g))


class TestGossipMatrix:
    def test_arithmetic_2x2(self):
        w = topology.GossipMatrix(np.full((2, 2), 0.5), c=0.4).shifted
        np.testing.assert_allclose(w, [[0.8, 0.2], [0.2, 0.8]], atol=1e-15)

    def test_compared_and_hashed_by_identity(self):
        w = np.full((2, 2), 0.5)
        gossip, twin = topology.GossipMatrix(w), topology.GossipMatrix(w)
        assert gossip == gossip and gossip != twin
        assert len({gossip, twin, gossip}) == 2

    def test_default_shift(self):
        assert topology.GossipMatrix(np.full((2, 2), 0.5)).c == 0.4

    def test_shift_expression_on_preset_graph(self):
        cfg = runner.figure_preset("fig2_er09")[0]
        gossip = runner.build_gossip(cfg, runner.build_graph(cfg))
        c, wt = cfg.gossip.c, gossip.w_tilde
        w = (1.0 - c) * np.eye(gossip.m) + c * wt
        assert np.array_equal(gossip.shifted, (w + w.T) / 2.0)

    @pytest.mark.parametrize("c", [0.0, 0.5, -0.1, 0.7, np.nan, np.inf])
    def test_open_interval(self, c):
        with pytest.raises(ParameterError):
            topology.GossipMatrix(np.full((2, 2), 0.5), c=c)

    def test_line_m3_positive_definite(self):
        shifted = mh_shifted(topology.make_line_graph(3))
        vals = np.linalg.eigvalsh(shifted.shifted)
        assert vals.min() > 0

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_eigen_floor(self, seed):
        shifted = mh_shifted(topology.make_erdos_renyi(10, 0.4, seed=seed), c=0.4)
        vals = np.linalg.eigvalsh(shifted.shifted)
        assert vals.min() >= (1 - 2 * 0.4) - 1e-10

    def test_sparsity_preserved(self):
        g = topology.make_erdos_renyi(10, 0.3, seed=2)
        shifted = mh_shifted(g)
        off = ~np.eye(10, dtype=bool)
        assert np.array_equal(
            shifted.shifted[off] != 0, shifted.w_tilde[off] != 0
        )

    def test_neighbor_mask_computed_once(self):
        g = topology.make_erdos_renyi(10, 0.3, seed=2)
        shifted = mh_shifted(g)
        mask = shifted.neighbor_mask()
        assert mask is shifted.neighbor_mask()
        assert not mask.flags.writeable
        assert np.array_equal(mask, closed_neighborhoods(g))


class TestLaplacianSqrt:
    def test_2x2_closed_form(self):
        gm = topology.GossipMatrix(np.full((2, 2), 0.5), c=0.4)
        l_op = topology.graph_laplacian_sqrt(gm)
        vals = np.sort(np.linalg.eigvalsh(l_op))
        np.testing.assert_allclose(vals, [0.0, np.sqrt(0.4)], atol=1e-12)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_reconstruction_and_nullspace(self, seed):
        gm = mh_shifted(topology.make_erdos_renyi(12, 0.35, seed=seed))
        l_op = topology.graph_laplacian_sqrt(gm)
        recon = np.linalg.norm(l_op @ l_op - (np.eye(12) - gm.shifted))
        assert recon <= 1e-10
        assert np.linalg.norm(l_op @ np.ones(12)) <= 1e-10

    def test_pinv(self):
        gm = mh_shifted(topology.make_line_graph(6))
        l_op = topology.graph_laplacian_sqrt(gm)
        pinv = topology.laplacian_pinv_sqrt(gm)
        proj = np.eye(6) - np.full((6, 6), 1 / 6)
        np.testing.assert_allclose(l_op @ pinv, proj, atol=1e-10)


class TestGossipValidation:
    def test_asymmetric_rejected(self):
        wt = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ParameterError):
            topology.GossipMatrix(wt)

    def test_bad_row_sum_rejected(self):
        wt = np.array([[0.5, 0.4], [0.4, 0.5]])
        with pytest.raises(ParameterError):
            topology.GossipMatrix(wt)

    def test_empty_is_shape_error(self):
        with pytest.raises(ShapeError):
            topology.GossipMatrix(np.zeros((0, 0)))

    def test_single_agent_identity_allowed(self):
        # Not reachable through Graph (m >= 2); used by solver reduction tests.
        gm = topology.GossipMatrix(np.array([[1.0]]), c=0.4)
        np.testing.assert_allclose(gm.shifted, [[1.0]])

    def test_arrays_read_only(self):
        gm = mh_shifted(topology.make_line_graph(3))
        with pytest.raises(ValueError):
            gm.w_tilde[0, 0] = 2.0
        with pytest.raises(ValueError):
            gm.shifted[0, 0] = 2.0


def closed_neighborhoods(graph):
    """Boolean (m, m) mask of each agent's neighbors and itself, from the edges."""
    mask = np.eye(graph.m, dtype=bool)
    for i, j in graph.edges:
        mask[i, j] = mask[j, i] = True
    return mask


def replay_erdos_renyi(m: int, p: float, seed: int):
    """The edges make_erdos_renyi returned when it ran the connectivity check on
    every draw, however few edges it had; None when no draw connected."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for _ in range(topology._ER_MAX_ATTEMPTS):
        draws = rng.random(len(pairs))
        edges = frozenset(pair for pair, u in zip(pairs, draws) if u < p)
        if -1 not in topology._bfs_distances(m, topology._neighbor_lists(m, edges), 0):
            return edges
    return None
