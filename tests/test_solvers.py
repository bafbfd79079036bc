import functools
import sys

import numpy as np
import pytest

from decopt import objectives, solvers, topology
from decopt.diagnostics import TraceRecorder, compute_saddle
from decopt.errors import ConfigError, NoConvergentStepsizeError, ParameterError, ShapeError
from decopt.objectives import ProblemInstance, synth_ridge
from decopt.solvers import (
    ExtraParams,
    FixedStepParams,
    StopRule,
    adolf_local_step,
    adolf_step,
    condat_vu_step,
    extra_grid_search,
    extra_step,
    initial_state,
    run,
)
from decopt.stepsize import GrowthPolicy, StepsizeParams
from decopt.diagnostics import METRICS
from faults import NanOutsideBall, nan_gradient_problem
from probes import run_probe
from sequential_grid import sequential_grid_search
from shadow_dual import shadow_dual_residuals
from decopt.topology import (
    GossipMatrix,
    make_erdos_renyi,
    make_line_graph,
    make_ring_graph,
    metropolis_hastings,
)


def mh_shifted(graph, c=0.4):
    return GossipMatrix(metropolis_hastings(graph), c=c)


def convex_params(**kw):
    defaults = dict(
        c1=0.9, c2=0.9, alpha0=1e-3, sigma_bar=1.0,
    )
    defaults.update(kw)
    return StepsizeParams(**defaults)


def sc_params(**kw):
    defaults = dict(
        strongly_convex=True, c1=0.5, c2=0.99, alpha0=1e-3, sigma=0.2,
        growth=GrowthPolicy(kind="ratio_power", beta1=10, beta2=1),
    )
    defaults.update(kw)
    return StepsizeParams(**defaults)


def local_params(**kw):
    defaults = dict(
        local=True, c1=0.9, c2=0.9, alpha0=1e-3, eta=0.9, sigma_bar=1.0,
        growth=GrowthPolicy(kind="additive", a=6 / np.pi**2),
    )
    defaults.update(kw)
    return StepsizeParams(**defaults)


def homogeneous_problem(m, d=3, seed=0):
    """All agents share the same data: the average minimizer kills every row."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((5, d)), rng.standard_normal(5)
    return ProblemInstance.ridge(np.tile(a, (m, 1, 1)), np.tile(b, (m, 1)), [0.8] * m)


class TestAdolfInit:
    def test_same_start_dual_formula(self):
        prob = synth_ridge(m=4, n=5, d=3, seed=1)
        gossip = mh_shifted(make_line_graph(4))
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((4, 3))
        st = adolf_step(initial_state(prob, x0), prob, gossip,
                        FixedStepParams(alpha=0.05, sigma=2.0, gamma=1.0))
        # X^-1 = X0 and gamma0 = 1 make the mix collapse to X0 itself
        w = gossip.shifted
        expected = 2.0 * 0.05 * (x0 - w @ x0)
        np.testing.assert_allclose(st.dual, expected, atol=1e-14)
        assert st.k == 1 and st.comm_scalar == 0

    def test_zero_back_iterate_doubles_dual(self):
        prob = synth_ridge(m=4, n=5, d=3, seed=1)
        gossip = mh_shifted(make_line_graph(4))
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((4, 3))
        st = adolf_step(initial_state(prob, x0, np.zeros_like(x0)), prob, gossip,
                        FixedStepParams(alpha=0.05, sigma=2.0))
        w = gossip.shifted
        expected = 2.0 * 0.05 * 2.0 * (x0 - w @ x0)
        np.testing.assert_allclose(st.dual, expected, atol=1e-14)

    def test_dual_columns_sum_to_zero(self):
        prob = synth_ridge(m=5, n=4, d=3, seed=4)
        gossip = mh_shifted(make_erdos_renyi(5, 0.6, seed=0))
        rng = np.random.default_rng(5)
        st = adolf_step(initial_state(prob, rng.standard_normal((5, 3))), prob, gossip,
                        FixedStepParams(alpha=1e-3))
        assert np.abs(st.dual.sum(axis=0)).max() <= 1e-12

    def test_consensual_stationary_fixed_point(self):
        prob = homogeneous_problem(4)
        gossip = mh_shifted(make_line_graph(4))
        x_star = objectives.ridge_exact_solution(prob)
        x0 = np.tile(x_star, (4, 1))
        st = adolf_step(initial_state(prob, x0), prob, gossip, FixedStepParams(alpha=1e-3))
        np.testing.assert_allclose(st.dual, 0.0, atol=1e-12)
        np.testing.assert_allclose(st.x_now, x0, atol=1e-12)

    def test_strongly_convex_round_zero_scales_by_sigma0_alpha0(self):
        # round 0 scales the dual by sigma0() * alpha0, not by the later rounds'
        # sigma / alpha, which rounds the same number differently
        prob = synth_ridge(m=4, n=5, d=3, seed=1)
        gossip = mh_shifted(make_line_graph(4))
        x0 = np.random.default_rng(6).standard_normal((4, 3))
        params = sc_params()
        st = adolf_step(initial_state(prob, x0), prob, gossip, params)
        w = gossip.shifted
        np.testing.assert_array_equal(st.dual, params.sigma0() * params.alpha0 * (x0 - w @ x0))
        assert (st.alpha, st.gamma, st.sigma) == (params.alpha0, 1.0, params.sigma0())
        assert st.l_last is None and st.comm_scalar == 0


class TestAdolfStep:
    def test_fixed_point_with_dual(self):
        # heterogeneous agents at the consensual optimum with D = -grad F
        prob = synth_ridge(m=5, n=6, d=3, seed=6)
        gossip = mh_shifted(make_erdos_renyi(5, 0.7, seed=1))
        x_star = objectives.ridge_exact_solution(prob)
        x_stack = np.tile(x_star, (5, 1))
        grad = prob.stacked_gradient(x_stack)
        st = solvers.State(
            x_now=x_stack.copy(), x_prev=x_stack.copy(), dual=-grad, grad_prev=grad,
            alpha=0.01, gamma=1.0, sigma=1.0, k=1, comm_scalar=0,
        )
        new = adolf_step(st, prob, gossip, convex_params())
        np.testing.assert_allclose(new.x_now, x_stack, atol=1e-10)
        np.testing.assert_allclose(new.dual, -grad, atol=1e-10)

    def test_single_agent_reduces_to_gradient_descent(self):
        prob = synth_ridge(m=1, n=6, d=4, seed=7)
        gossip = GossipMatrix(np.array([[1.0]]), c=0.4)
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((1, 4))
        st = adolf_step(initial_state(prob, x0), prob, gossip,
                        FixedStepParams(alpha=0.01, sigma=1.0))
        params = convex_params(alpha0=0.01)
        xs = [x0.copy(), st.x_now.copy()]
        alphas = [0.01]
        for _ in range(5):
            st = adolf_step(st, prob, gossip, params)
            xs.append(st.x_now.copy())
            alphas.append(st.alpha)
        np.testing.assert_allclose(st.dual, 0.0, atol=1e-15)
        # replay plain adaptive gradient descent with the recorded stepsizes
        x = x0.copy()
        for x_expected, alpha in zip(xs[1:], alphas):
            x = x - alpha * prob.stacked_gradient(x)
            np.testing.assert_allclose(x, x_expected, atol=1e-12)

    def test_gossip_and_gradient_counts(self):
        calls = {"grad": 0}

        class CountingProblem:
            def __init__(self, inner):
                self.inner = inner
                self.m, self.d = inner.m, inner.d

            def stacked_gradient(self, x, products=False):
                calls["grad"] += 1
                return self.inner.stacked_gradient(x, products)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        prob = CountingProblem(synth_ridge(m=4, n=5, d=3, seed=9))
        gossip = mh_shifted(make_line_graph(4))
        st = adolf_step(initial_state(prob, np.zeros((4, 3))), prob, gossip,
                        FixedStepParams(alpha=1e-3))
        assert calls["grad"] == 1
        for i in range(6):
            st = adolf_step(st, prob, gossip, convex_params())
        assert calls["grad"] == 7  # exactly one evaluation per iteration
        assert st.k == 7  # one vector round per iteration
        assert st.comm_scalar == 6  # init has no scalar round

    def test_certificates_recorded(self):
        prob = synth_ridge(m=4, n=5, d=3, seed=10)
        gossip = mh_shifted(make_line_graph(4))
        params = convex_params()
        rng = np.random.default_rng(11)
        st = adolf_step(initial_state(prob, rng.standard_normal((4, 3))), prob, gossip,
                        FixedStepParams(alpha=1e-3))
        triples = [(st.alpha, st.gamma, st.sigma)]
        for _ in range(30):
            st = adolf_step(st, prob, gossip, params)
            lk = st.l_last
            alpha, gamma, sigma = st.alpha, st.gamma, st.sigma
            guard = 1.0 / (np.sqrt(lk**2 + 2 * sigma / params.c1) + lk)
            assert alpha <= guard + 1e-15
            triples.append((alpha, gamma, sigma))
        for (a0, g0, s0), (a1, g1, s1) in zip(triples, triples[1:]):
            assert (2 + 2 * g0) * a0 - 2 * g1 * a1 >= -1e-12
            assert s1 >= s0 - 1e-15

    def test_divergence_flagged_not_raised(self):
        prob = synth_ridge(m=4, n=5, d=3, seed=12)
        gossip = mh_shifted(make_line_graph(4))
        rec = TraceRecorder(prob, gossip, None, cadence=1)
        trace = run(
            "extra", prob, gossip, ExtraParams(alpha=50.0),
            StopRule(max_iter=200), rec, np.ones((4, 3)),
        )
        assert trace.status == "diverged"


class TestCondatVuEquivalence:
    def test_constant_mode_matches_oracle(self):
        # 5-agent ring, d=3 ridge, alpha 1e-2, sigma 1, gamma 1
        prob = synth_ridge(m=5, n=6, d=3, seed=42)
        gossip = mh_shifted(make_ring_graph(5))
        params = FixedStepParams(alpha=1e-2, sigma=1.0, gamma=1.0)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((5, 3))
        a_st = adolf_step(initial_state(prob, x0), prob, gossip, params)
        c_st = condat_vu_step(initial_state(prob, x0), prob, gossip, params)
        l_op = gossip.laplacian_sqrt
        for _ in range(100):
            assert np.linalg.norm(a_st.x_now - c_st.x_now) <= 1e-10
            assert np.linalg.norm(a_st.dual - l_op @ c_st.y) <= 1e-10
            a_st = adolf_step(a_st, prob, gossip, params)
            c_st = condat_vu_step(c_st, prob, gossip, params)

    def test_prox_of_zero_conjugate_is_linear_update(self):
        prob = synth_ridge(m=3, n=4, d=2, seed=13)
        gossip = mh_shifted(make_line_graph(3))
        params = FixedStepParams(alpha=0.02, sigma=0.5, gamma=1.0)
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((3, 2))
        st = condat_vu_step(initial_state(prob, x0), prob, gossip, params)
        l_op = gossip.laplacian_sqrt
        y_prev, x_prev, x_now = st.y.copy(), st.x_prev.copy(), st.x_now.copy()
        new = condat_vu_step(st, prob, gossip, params)
        expected_y = y_prev + params.sigma * params.alpha * (
            l_op @ ((1 + params.gamma) * x_now - params.gamma * x_prev)
        )
        np.testing.assert_allclose(new.y, expected_y, atol=1e-14)


class TestAdolfLocal:
    def test_homogeneous_matches_scalar_update(self):
        # identical data and identical init: every agent selects the same
        # stepsize, and the diagonal update coincides with the scalar-form
        # update replayed with that common stepsize sequence
        prob = homogeneous_problem(4, d=3, seed=15)
        gossip = mh_shifted(make_ring_graph(4))
        params_l = local_params(c1=0.9, c2=0.9)
        rng = np.random.default_rng(16)
        x0 = np.tile(rng.standard_normal(3), (4, 1))
        st_l = adolf_local_step(initial_state(prob, x0), prob, gossip, params_l)
        w = gossip.shifted
        sigma_bar = params_l.sigma_bar
        # replay state for the scalar-form update
        x_now, x_prev, dual = st_l.x_now.copy(), x0.copy(), st_l.dual.copy()
        for _ in range(40):
            st_l = adolf_local_step(st_l, prob, gossip, params_l)
            alphas = st_l.alpha
            gammas = st_l.gamma
            assert alphas.max() == alphas.min()  # symmetry keeps consensus exact
            assert gammas.max() == gammas.min()
            alpha, gamma = float(alphas[0]), float(gammas[0])
            mix = (1 + gamma) * x_now - gamma * x_prev
            dual = dual + sigma_bar * alpha * (mix - w @ mix)
            x_next = x_now - alpha * (prob.stacked_gradient(x_now) + dual)
            x_prev, x_now = x_now, x_next
            np.testing.assert_allclose(st_l.x_now, x_now, atol=1e-12)
            np.testing.assert_allclose(st_l.dual, dual, atol=1e-12)

    def test_consensual_stationary_fixed_point(self):
        prob = homogeneous_problem(4)
        gossip = mh_shifted(make_line_graph(4))
        x_star = objectives.ridge_exact_solution(prob)
        x0 = np.tile(x_star, (4, 1))
        st = adolf_local_step(initial_state(prob, x0), prob, gossip, local_params())
        for _ in range(3):
            st = adolf_local_step(st, prob, gossip, local_params())
            np.testing.assert_allclose(st.x_now, x0, atol=1e-11)

    def test_dual_columns_conserved(self):
        prob = synth_ridge(m=6, n=5, d=4, seed=17)
        gossip = mh_shifted(make_erdos_renyi(6, 0.5, seed=3))
        rng = np.random.default_rng(18)
        st = adolf_local_step(initial_state(prob, rng.standard_normal((6, 4))), prob, gossip,
                              local_params())
        for _ in range(25):
            st = adolf_local_step(st, prob, gossip, local_params())
            assert np.abs(st.dual.sum(axis=0)).max() <= 1e-9 * (1 + np.linalg.norm(st.dual))

    def test_stepsize_consensus_reached_and_kept(self):
        prob = synth_ridge(m=5, n=6, d=4, seed=19)
        gossip = mh_shifted(make_erdos_renyi(5, 0.6, seed=4))
        params = local_params(
            c1=0.5, c2=0.99, strongly_convex=True, sigma=0.2,
        )
        st = adolf_local_step(initial_state(prob, np.zeros((5, 4))), prob, gossip, params)
        spreads = []
        for _ in range(400):
            st = adolf_local_step(st, prob, gossip, params)
            a = st.alpha
            spreads.append(float(a.max() - a.min()))
        last_spread = max(k for k, s in enumerate(spreads)) if spreads else 0
        nonzero = [k for k, s in enumerate(spreads) if s > 0]
        assert not nonzero or nonzero[-1] < 350  # consensus holds at the tail
        assert min(st.alpha) > 0

    def test_mode_enforced(self):
        prob = synth_ridge(m=3, n=4, d=2, seed=20)
        gossip = mh_shifted(make_line_graph(3))
        with pytest.raises(ConfigError):
            adolf_local_step(initial_state(prob, np.zeros((3, 2))), prob, gossip, convex_params())


class TestExtra:
    def test_single_agent_is_gradient_descent(self):
        prob = synth_ridge(m=1, n=6, d=4, seed=21)
        gossip = GossipMatrix(np.array([[1.0]]), c=0.4)
        rng = np.random.default_rng(22)
        x0 = rng.standard_normal((1, 4))
        alpha = 0.03
        params = ExtraParams(alpha)
        st = extra_step(initial_state(prob, x0), prob, gossip, params)
        x = x0.copy()
        for _ in range(8):
            x = x - alpha * prob.stacked_gradient(x)
            np.testing.assert_allclose(st.x_now, x, atol=1e-12)
            st = extra_step(st, prob, gossip, params)

    def test_consensual_stationary_fixed_point(self):
        prob = homogeneous_problem(4)
        gossip = mh_shifted(make_line_graph(4))
        x_star = objectives.ridge_exact_solution(prob)
        x0 = np.tile(x_star, (4, 1))
        params = ExtraParams(0.05)
        st = extra_step(initial_state(prob, x0), prob, gossip, params)
        for _ in range(4):
            np.testing.assert_allclose(st.x_now, x0, atol=1e-11)
            st = extra_step(st, prob, gossip, params)

    def test_geometric_convergence_to_exact_solution(self):
        prob = synth_ridge(m=5, n=6, d=4, seed=23)
        gossip = mh_shifted(make_erdos_renyi(5, 0.7, seed=5))
        saddle = compute_saddle(prob, gossip)
        params = ExtraParams(0.05)
        st = extra_step(initial_state(prob, np.zeros((5, 4))), prob, gossip, params)
        dists = []
        for _ in range(800):
            st = extra_step(st, prob, gossip, params)
            dists.append(float(np.sum((st.x_now - saddle.x_stack) ** 2)))
        assert dists[-1] <= 1e-18
        # tail slope strictly negative on a log scale
        tail = np.log(np.array(dists[100:300]))
        slope = np.polyfit(np.arange(len(tail)), tail, 1)[0]
        assert slope < -1e-3

    def test_one_gossip_per_round(self):
        prob = synth_ridge(m=4, n=5, d=3, seed=24)

        class CountingGossip:
            def __init__(self, inner):
                self._inner = inner
                self.mults = 0

            @property
            def shifted(self):
                self.mults += 1
                return self._inner.shifted

            def __getattr__(self, name):
                return getattr(self._inner, name)

        gossip = CountingGossip(mh_shifted(make_line_graph(4)))
        params = ExtraParams(0.01)
        st = extra_step(initial_state(prob, np.zeros((4, 3))), prob, gossip, params)
        base = gossip.mults
        for _ in range(5):
            st = extra_step(st, prob, gossip, params)
        assert gossip.mults - base == 5  # one W product per round
        assert st.k == 6


class TestRunLoop:
    def setup_case(self, saddle=True):
        prob = synth_ridge(m=4, n=5, d=3, seed=25)
        gossip = mh_shifted(make_line_graph(4))
        sp = compute_saddle(prob, gossip) if saddle else None
        return prob, gossip, sp

    def test_zero_budget_single_record(self):
        prob, gossip, saddle = self.setup_case()
        rec = TraceRecorder(prob, gossip, saddle, cadence=1)
        trace = run("adolf", prob, gossip, convex_params(), StopRule(max_iter=0), rec,
                    np.zeros((4, 3)))
        assert len(trace.records) == 1
        assert trace.records[0].k == 0

    def test_row_count_matches_budget(self):
        prob, gossip, saddle = self.setup_case()
        rec = TraceRecorder(prob, gossip, saddle, cadence=1)
        trace = run("adolf", prob, gossip, convex_params(), StopRule(max_iter=10), rec,
                    np.zeros((4, 3)))
        assert [r.k for r in trace.records] == list(range(11))
        assert trace.records[10].comm_vector == 10
        assert trace.records[10].alpha_min is None  # terminal row has no iteration data
        assert trace.records[5].comm_scalar == 4  # scalar rounds lag by one

    def test_threshold_stop(self):
        prob, gossip, saddle = self.setup_case()
        rec = TraceRecorder(prob, gossip, saddle, cadence=1)
        trace = run(
            "adolf", prob, gossip, sc_params(),
            StopRule(max_iter=50_000, metric="distance_sq", threshold=1e-6, cadence=1),
            rec, np.zeros((4, 3)),
        )
        assert trace.status == "converged"
        assert trace.final.distance_sq <= 1e-6

    def test_metric_requires_saddle(self):
        prob, gossip, _ = self.setup_case(saddle=False)
        rec = TraceRecorder(prob, gossip, None, cadence=1)
        with pytest.raises(ConfigError):
            run("adolf", prob, gossip, convex_params(),
                StopRule(max_iter=10, metric="distance_sq", threshold=1e-3), rec,
                np.zeros((4, 3)))

    def test_determinism(self):
        prob, gossip, saddle = self.setup_case()
        traces = []
        for _ in range(2):
            rec = TraceRecorder(prob, gossip, saddle, cadence=1)
            traces.append(
                run("adolf_local", prob, gossip, local_params(), StopRule(max_iter=40),
                    rec, np.ones((4, 3))).to_csv()
            )
        assert traces[0] == traces[1]

    def test_shadow_dual_consistency_all_algorithms(self):
        prob, gossip, saddle = self.setup_case()
        for algorithm, params in [
            ("adolf", convex_params()),
            ("adolf", sc_params()),
            ("adolf_local", local_params()),
        ]:
            rec = TraceRecorder(prob, gossip, saddle, cadence=1)
            trace = run(algorithm, prob, gossip, params, StopRule(max_iter=60), rec,
                        np.ones((4, 3)))
            shadow_dual_residuals(algorithm, prob, gossip, params, np.ones((4, 3)),
                                  trace.final.k)
            assert trace.dual_colsum_max <= 1e-9

    def test_unknown_algorithm(self):
        # unknown names, and params of the wrong kind for a known algorithm
        prob, gossip, saddle = self.setup_case()
        for algorithm, params in [
            ("sgd", convex_params()),
            ("adolf", local_params()),
            ("adolf_local", convex_params()),
            ("condat_vu", convex_params()),
            ("extra", FixedStepParams(alpha=0.01)),
        ]:
            rec = TraceRecorder(prob, gossip, saddle, cadence=1)
            with pytest.raises(ConfigError):
                run(algorithm, prob, gossip, params, StopRule(max_iter=5), rec,
                    np.zeros((4, 3)))


# each engine's (step, params of its kind) and the message its round 0 gives
# params of another kind
ENGINES = {
    "adolf": (adolf_step, sc_params(),
              "adolf needs FixedStepParams or global-mode StepsizeParams"),
    "adolf_local": (adolf_local_step, local_params(),
                    "adolf_local needs StepsizeParams in local mode"),
    "condat_vu": (condat_vu_step, FixedStepParams(alpha=0.01),
                  "condat_vu needs FixedStepParams"),
    "extra": (extra_step, ExtraParams(alpha=0.05), "extra needs ExtraParams"),
}


class TestEngineContract:
    @pytest.mark.parametrize("algorithm", list(ENGINES))
    def test_run_is_init_then_step(self, algorithm):
        step, params, _ = ENGINES[algorithm]
        prob = synth_ridge(m=4, n=5, d=3, seed=31)
        gossip = mh_shifted(make_erdos_renyi(4, 0.7, seed=2))
        saddle = compute_saddle(prob, gossip)
        x0 = np.random.default_rng(32).standard_normal((4, 3))
        trace = run(algorithm, prob, gossip, params, StopRule(max_iter=25),
                    TraceRecorder(prob, gossip, saddle, cadence=1), x0)
        # the same states by hand, from State(X^0, X^-1, dual=0), through a fresh recorder
        recorder = TraceRecorder(prob, gossip, saddle, cadence=1)
        state = solvers.State(x0, x0, dual=np.zeros_like(x0))
        for k in range(25):
            new = step(state, prob, gossip, params)
            recorder.observe(state, new)
            state = new
        recorder.finalize(state)
        assert trace.status == "budget"
        assert trace.to_csv() == recorder.trace.to_csv()

    def test_initial_state_checks_shapes(self):
        prob = synth_ridge(m=3, n=4, d=2, seed=33)
        with pytest.raises(ShapeError, match=r"^x0 must have shape \(3, 2\), got \(2, 3\)$"):
            initial_state(prob, np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"^x_minus1 must have shape \(3, 2\), got \(3,\)$"):
            initial_state(prob, np.zeros((3, 2)), np.zeros(3))
        state = initial_state(prob, np.ones((3, 2)))
        assert state.k == state.comm_scalar == 0
        assert state.x_prev is state.x_now  # X^-1 defaults to X^0
        assert state.dual is None and state.y is None  # a run starts with no dual

    @pytest.mark.parametrize("algorithm", list(ENGINES))
    def test_init_rejects_other_params(self, algorithm):
        step, _, message = ENGINES[algorithm]
        prob = synth_ridge(m=3, n=4, d=2, seed=33)
        gossip = mh_shifted(make_line_graph(3))
        rec = TraceRecorder(prob, gossip, None, cadence=1)
        others = [params for name, (_, params, _) in ENGINES.items() if name != algorithm
                  and not (algorithm == "adolf" and name == "condat_vu")]  # adolf takes both
        assert len(others) == (2 if algorithm == "adolf" else 3)
        for params in others:
            with pytest.raises(ConfigError, match=f"^{message}$"):
                step(initial_state(prob, np.zeros((3, 2))), prob, gossip, params)
            with pytest.raises(ConfigError, match=f"^{message}$"):
                run(algorithm, prob, gossip, params, StopRule(max_iter=5), rec, np.zeros((3, 2)))


# The abstract's "no extra function evaluations": a round of any engine evaluates
# each agent's gradient once, by one stacked_gradient call, and no value of F or f.
F_EVALUATIONS = ("stacked_value", "value_from_products", "average_values_at_rows",
                 "average_value_and_gradient", "consensus_average", "average_gradient")


class TestOneGradientPerRound:
    @pytest.mark.parametrize("loss", ["ridge", "logistic"])
    @pytest.mark.parametrize("step, params", [
        (adolf_step, convex_params()),
        (adolf_step, sc_params()),
        (adolf_local_step, local_params()),
        (adolf_local_step, local_params(strongly_convex=True, c1=0.5, c2=0.99, sigma=0.2)),
        (extra_step, ExtraParams(alpha=0.05)),
        (condat_vu_step, FixedStepParams(alpha=0.01)),
    ], ids=["adolf_convex", "adolf_strongly_convex", "adolf_local_convex",
            "adolf_local_strongly_convex", "extra", "condat_vu"])
    def test_no_function_evaluations(self, monkeypatch, loss, step, params):
        synth = synth_ridge if loss == "ridge" else objectives.synth_logistic
        prob = synth(m=5, n=6, d=3, seed=41)
        gossip = mh_shifted(make_erdos_renyi(5, 0.7, seed=3))
        cls = type(prob)

        def evaluation(name):
            def raises(*args, **kwargs):
                raise AssertionError(f"a round called {name}")
            return raises

        for name in F_EVALUATIONS:
            monkeypatch.setattr(cls, name, evaluation(name))
        calls, gradient = [], cls.stacked_gradient

        def counted(self, *args, **kwargs):
            calls.append(args)
            return gradient(self, *args, **kwargs)

        monkeypatch.setattr(cls, "stacked_gradient", counted)
        state = initial_state(prob, np.random.default_rng(42).standard_normal((5, 3)))
        for k in range(50):  # round 0 is the initialization
            state = step(state, prob, gossip, params)
            assert len(calls) == k + 1
        assert state.k == 50 and np.all(np.isfinite(state.x_now))


class TestGridSearch:
    def setup_case(self):
        prob = synth_ridge(m=4, n=5, d=3, seed=26)
        gossip = mh_shifted(make_erdos_renyi(4, 0.8, seed=6))
        saddle = compute_saddle(prob, gossip)
        recorder = TraceRecorder(prob, gossip, saddle)
        return prob, gossip, recorder

    def test_interior_point_wins(self):
        prob, gossip, recorder = self.setup_case()
        grid = np.logspace(-4, 0, 9)
        best_alpha, points = extra_grid_search(prob, gossip, grid, 500, recorder)
        assert grid[0] < best_alpha < grid[-1]
        assert next(p for p in points if p.alpha == best_alpha).status == "budget"

    def test_singleton_grid(self):
        prob, gossip, recorder = self.setup_case()
        best_alpha, _ = extra_grid_search(prob, gossip, [0.01], 100, recorder)
        assert best_alpha == 0.01

    def test_metric_needs_saddle(self):
        prob, gossip, _ = self.setup_case()
        recorder = TraceRecorder(prob, gossip, None)
        with pytest.raises(ConfigError, match="saddle"):
            extra_grid_search(prob, gossip, [0.01, 0.1], 50, recorder)

    def test_all_diverged(self):
        prob, gossip, recorder = self.setup_case()
        with pytest.raises(NoConvergentStepsizeError):
            extra_grid_search(prob, gossip, [50.0, 80.0], 200, recorder)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts page faults as Linux reports them")
    def test_logistic_grid_rounds_do_not_churn_the_heap(self):
        # Several product-size temporaries per logistic gradient (160 KB each
        # here) pass glibc's dynamic trim threshold together, so the heap grows
        # and is trimmed on every round: tens of thousands of minor page faults
        # over these 1000 rounds. A fresh interpreter, so that no other test
        # has moved those thresholds.
        probe = (
            "import resource\n"
            "from decopt import runner, solvers\n"
            "extra = next(c for c in runner.figure_preset('fig1_er01', synthetic_logistic=True)\n"
            "             if c.algorithm.kind == 'extra')\n"
            "ws = runner._Workspace(extra)\n"
            "def search(budget):\n"
            "    solvers.extra_grid_search(ws.problem, ws.gossip, extra.algorithm.grid, budget,\n"
            "                              ws.recorder(extra.diagnostics.cadence), x0=ws.x0)\n"
            "search(20)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "search(1000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(run_probe(probe, timeout=300).splitlines()[-1]) < 1000

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts page faults as Linux reports them")
    def test_logistic_trace_rows_do_not_churn_the_heap(self):
        # The objective gaps of one trace row (20 points) and of a batch of
        # four at the fig1 shape. Five product-size arrays a call (160 KB a
        # row here) made glibc grow and trim its heap: 46 and 280 000 minor
        # page faults at 1 BLAS thread; a fresh product a call, about 220 000
        # at four rows once the BLAS ran it on two threads. A fresh
        # interpreter, as above.
        probe = (
            "import resource\n"
            "import numpy as np\n"
            "from decopt import runner\n"
            "cfg = runner.figure_preset('fig1_er01', synthetic_logistic=True)[0]\n"
            "problem = runner._Workspace(cfg).problem\n"
            "rows = np.random.default_rng(0).standard_normal((4 * problem.m, problem.d))\n"
            "for points in (rows[:problem.m], rows):\n"
            "    for _ in range(20):\n"
            "        problem.average_values_at_rows(points)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for points in (rows[:problem.m], rows):\n"
            "    for _ in range(1000):\n"
            "        problem.average_values_at_rows(points)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(run_probe(probe, timeout=300).splitlines()[-1]) < 1000


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("build", [
    lambda v: ExtraParams(alpha=v),
    lambda v: FixedStepParams(alpha=v),
    lambda v: FixedStepParams(alpha=0.1, sigma=v),
    lambda v: FixedStepParams(alpha=0.1, gamma=v),
    lambda v: sc_params(alpha0=v),
], ids=["extra_alpha", "fixed_alpha", "fixed_sigma", "fixed_gamma", "alpha0"])
def test_non_finite_stepsizes_rejected(build, value):
    with pytest.raises(ParameterError, match="finite"):
        build(value)


def _parity_case(name):
    """(problem, gossip, saddle, grid, x0) for the sequential-parity tests.

    The ridge grid reaches stepsizes that diverge; "ball" is the same problem
    with a gradient that is NaN outside a ball, so its large stepsizes end on
    a non-finite dG.dG before the iterate blows up. The logistic grid stops
    below the stepsizes where EXTRA turns unstable but stays bounded, whose
    terminal values rounding alone would scatter.
    """
    gossip = mh_shifted(make_line_graph(16))
    # far from the solution, so that after 200 rounds every objective_gap is
    # large next to the rounding of F (it is a difference of O(1) values)
    x0 = 10.0 * np.random.default_rng(42).standard_normal((16, 4))
    ridge = synth_ridge(m=16, n=8, d=4, seed=40)
    grid = np.logspace(-3, 1.5, 10)
    if name == "logistic":
        prob = objectives.synth_logistic(m=16, n=8, d=4, seed=40)
        return prob, gossip, compute_saddle(prob, gossip), np.logspace(-3, 0.5, 10), x0
    prob = {"ridge": ridge, "ball": NanOutsideBall(ridge, radius=300.0)}[name]
    return prob, gossip, compute_saddle(ridge, gossip), grid, x0


@functools.cache
def _parity_threshold(case, metric):
    """A stop threshold on metric that some of the case's stepsizes reach within 200 rounds
    and some do not: midway between the two middle finite values they end on without one."""
    prob, gossip, saddle, grid, x0 = _parity_case(case)
    _, points = sequential_grid_search(prob, gossip, grid, 200, saddle, metric, x0)
    values = sorted(p.value for p in points if p.value is not None)
    mid = len(values) // 2
    return (values[mid - 1] + values[mid]) / 2


class TestGridParity:
    """extra_grid_search against run("extra", ...) replayed per stepsize."""

    @pytest.mark.parametrize("cadence", [None, 1, 3],
                             ids=["no_threshold", "threshold_every_round", "threshold_every_3"])
    @pytest.mark.parametrize("budget", [0, 1, 200])
    @pytest.mark.parametrize("metric", list(METRICS))
    @pytest.mark.parametrize("case", ["ridge", "logistic", "ball"])
    def test_matches_sequential(self, case, metric, budget, cadence, monkeypatch):
        prob, gossip, saddle, grid, x0 = _parity_case(case)
        if cadence is None:
            threshold, stop = None, StopRule()
        else:
            threshold = _parity_threshold(case, metric)
            stop = StopRule(metric=metric, threshold=threshold, cadence=cadence)
        ref_alpha, ref_points = sequential_grid_search(prob, gossip, grid, budget, saddle,
                                                       metric, x0, threshold, cadence or 1)
        recorder = TraceRecorder(prob, gossip, saddle)
        # one block holding the whole grid, then blocks of three columns
        for block_bytes in (solvers.GRID_BLOCK_BYTES,
                            3 * solvers.GRID_COLUMN_ARRAYS * x0.nbytes):
            monkeypatch.setattr(solvers, "GRID_BLOCK_BYTES", block_bytes)
            if ref_alpha is None:
                with pytest.raises(NoConvergentStepsizeError):
                    extra_grid_search(prob, gossip, grid, budget, recorder, metric, x0, stop)
                continue
            alpha, points = extra_grid_search(prob, gossip, grid, budget, recorder, metric, x0,
                                              stop)
            assert alpha == ref_alpha
            assert [(p.alpha, p.status, p.rounds) for p in points] == [
                (p.alpha, p.status, p.rounds) for p in ref_points]
            for got, ref in zip(points, ref_points):
                if ref.value is None:
                    assert got.value is None
                else:
                    assert got.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)

    def test_parity_cases_cover_both_divergence_checks(self):
        # "ridge" diverges by norm (round after the step), "ball" by dG (round of the step)
        ends = {}
        for case in ("ridge", "ball"):
            prob, gossip, saddle, grid, x0 = _parity_case(case)
            _, points = sequential_grid_search(prob, gossip, grid, 200, saddle, "distance_sq", x0)
            ends[case] = [p.rounds for p in points if p.status == "diverged"]
        assert ends["ridge"] and ends["ball"] and ends["ridge"] != ends["ball"]

    @pytest.mark.parametrize("metric", list(METRICS))
    @pytest.mark.parametrize("case", ["ridge", "logistic", "ball"])
    def test_thresholds_converge_some_points_and_cut_others_off(self, case, metric):
        # so the parity test's threshold axis meets every status and the cap
        prob, gossip, saddle, grid, x0 = _parity_case(case)
        threshold = _parity_threshold(case, metric)
        _, points = sequential_grid_search(prob, gossip, grid, 200, saddle, metric, x0,
                                           threshold, 3)
        statuses = [p.status for p in points]
        assert "converged" in statuses
        assert ("diverged" in statuses) == (case != "logistic")  # see _parity_case
        assert any(p.status == "budget" and p.rounds < 200 for p in points)  # cut off

    def test_threshold_on_another_metric_rejected(self):
        prob, gossip, saddle, grid, x0 = _parity_case("ridge")
        recorder = TraceRecorder(prob, gossip, saddle)
        stop = StopRule(metric="consensus_err", threshold=1e-6)
        with pytest.raises(ParameterError, match="differs from the stop metric"):
            extra_grid_search(prob, gossip, grid, 10, recorder, "distance_sq", x0, stop)

    def test_nan_gradient_from_start_diverges_every_point(self):
        prob = nan_gradient_problem(0)
        gossip = mh_shifted(make_line_graph(4))
        recorder = TraceRecorder(prob, gossip, None)
        with pytest.raises(NoConvergentStepsizeError, match="every stepsize .* of 3 diverged"):
            extra_grid_search(prob, gossip, [0.01, 0.1, 1.0], 50, recorder, "consensus_err",
                              np.ones((4, 3)))

    def test_no_finite_value_is_not_called_divergence(self):
        # at budget 0 no ergodic average exists, so merit is undefined at every point
        prob, gossip, saddle, grid, x0 = _parity_case("ridge")
        recorder = TraceRecorder(prob, gossip, saddle)
        with pytest.raises(NoConvergentStepsizeError, match="finite merit after 0 rounds"):
            extra_grid_search(prob, gossip, grid, 0, recorder, "merit", x0)

    def test_rejects_non_finite_grid(self):
        prob, gossip, saddle, _, x0 = _parity_case("ridge")
        recorder = TraceRecorder(prob, gossip, saddle)
        for grid in ([0.1, np.inf], [np.nan], [], [0.0]):
            with pytest.raises(ParameterError, match="grid"):
                extra_grid_search(prob, gossip, grid, 10, recorder)


class TestFaultInjection:
    @pytest.mark.parametrize("start", [0, 5])
    @pytest.mark.parametrize("algorithm, params", [
        ("adolf", sc_params()),
        ("adolf", FixedStepParams(alpha=0.01)),
        ("adolf_local", local_params()),
        ("condat_vu", FixedStepParams(alpha=0.01)),
        ("extra", ExtraParams(alpha=0.01)),
    ])
    def test_nan_gradient_ends_diverged(self, algorithm, params, start):
        prob = nan_gradient_problem(start)
        gossip = mh_shifted(make_line_graph(4))
        rec = TraceRecorder(prob, gossip, None, cadence=1)
        trace = run(algorithm, prob, gossip, params, StopRule(max_iter=50), rec, np.ones((4, 3)))
        assert trace.status == "diverged"
        assert trace.final.k < 50


class TestRestrictedOnRuns:
    """Trace.l_tilde_hat and mu_tilde_hat against secant pairs recomputed with plain numpy."""

    ITERATIONS = 200

    @pytest.mark.parametrize("algorithm", ["adolf", "extra"])
    def test_matches_numpy_secants(self, algorithm):
        prob = synth_ridge(m=6, n=10, d=8, seed=29)
        gossip = mh_shifted(make_line_graph(6))
        x0 = np.random.default_rng(30).standard_normal((6, 8))
        if algorithm == "adolf":
            params = sc_params()
            state = adolf_step(initial_state(prob, x0), prob, gossip, params)
            advance = lambda s: adolf_step(s, prob, gossip, params)
        else:
            params = ExtraParams(alpha=0.05)
            state = extra_step(initial_state(prob, x0), prob, gossip, params)
            advance = lambda s: extra_step(s, prob, gossip, params)
        l_ks, mu_ks = [], []
        for _ in range(self.ITERATIONS - 1):
            dx = state.x_now - state.x_prev
            dg = prob.stacked_gradient(state.x_now) - prob.stacked_gradient(state.x_prev)
            assert np.linalg.norm(dx) > 0.0
            l_ks.append(np.linalg.norm(dg) / np.linalg.norm(dx))
            mu_ks.append(np.sum(dg * dx) / np.sum(dx * dx))
            state = advance(state)

        rec = TraceRecorder(prob, gossip, None, cadence=50)
        trace = run(algorithm, prob, gossip, params, StopRule(max_iter=self.ITERATIONS), rec, x0)
        assert trace.status == "budget" and trace.final.k == self.ITERATIONS
        # the replay ends on the run's final iterate, so both saw the same secant pairs
        np.testing.assert_allclose(trace.final.consensus_err, rec.metric_value(
            "consensus_err", state.x_now), rtol=1e-12)
        assert trace.l_tilde_hat == pytest.approx(max(l_ks), rel=1e-12)
        assert trace.mu_tilde_hat == pytest.approx(
            min(max(mu, 0.0) for mu in mu_ks), rel=1e-12)
        assert 0.0 < trace.mu_tilde_hat <= trace.l_tilde_hat
