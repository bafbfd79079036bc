import numpy as np
import pytest

from decopt import diagnostics, objectives, runner, topology
from decopt.diagnostics import (
    ErgodicAccumulator,
    RestrictedConstants,
    Trace,
    TraceRecord,
    classical_stepsize_bound,
    compute_saddle,
    lyapunov,
    merit,
    primal_gap,
    rate_fit,
    CSV_HEADER,
)
from decopt.errors import InsufficientDataError, NumericError, ParameterError
from decopt.objectives import ProblemInstance, synth_logistic, synth_ridge
from decopt.solvers import extra_grid_search
from decopt.topology import graph_laplacian_sqrt, make_erdos_renyi, make_line_graph
from decopt.topology import metropolis_hastings, psd_shift
from probes import run_probe


@pytest.fixture(scope="module")
def ridge_setup():
    prob = synth_ridge(m=6, n=8, d=4, seed=0)
    gossip = psd_shift(metropolis_hastings(make_erdos_renyi(6, 0.5, seed=1)), c=0.4)
    saddle = compute_saddle(prob, gossip)
    l_op = graph_laplacian_sqrt(gossip)
    return prob, gossip, saddle, l_op


class TestSaddle:
    def test_consensual_and_stationary(self, ridge_setup):
        prob, gossip, saddle, l_op = ridge_setup
        assert np.linalg.norm(l_op @ saddle.x_stack) <= 1e-9
        grad = prob.stacked_gradient(saddle.x_stack)
        assert np.linalg.norm(grad + saddle.d_star) <= 1e-8
        # column sums of the average-optimality residual vanish
        assert np.linalg.norm(grad.sum(axis=0)) <= 1e-8 * prob.m

    def test_y_star_orthogonal_to_consensus(self, ridge_setup):
        _, _, saddle, _ = ridge_setup
        assert np.abs(saddle.y_star.sum(axis=0)).max() <= 1e-10

    def test_homogeneous_agents_zero_dual(self):
        prob = ProblemInstance.ridge(np.tile(np.eye(3), (3, 1, 1)), np.ones((3, 3)), [1.0] * 3)
        gossip = psd_shift(metropolis_hastings(make_line_graph(3)), c=0.4)
        saddle = compute_saddle(prob, gossip)
        assert np.linalg.norm(saddle.y_star) <= 1e-10

    @pytest.mark.parametrize("tol", [0.0, np.inf, np.nan])
    def test_tolerance_must_be_positive_and_finite(self, ridge_setup, tol):
        # the ridge solve is exact and never reads tol, so only the check sees it
        prob, gossip, _, _ = ridge_setup
        with pytest.raises(ParameterError, match="positive and finite"):
            compute_saddle(prob, gossip, tol=tol)

    @pytest.mark.parametrize("where", ["b", "a"])
    def test_non_finite_data_gives_no_anchor(self, where):
        # a NaN target or an inf feature makes the exact solve's x* NaN, and
        # NaN passed the old `residual > bound` test
        prob = synth_ridge(m=4, n=5, d=3, seed=0)
        data = {"a": prob.a.copy(), "b": prob.b.copy()}
        data[where].flat[7] = {"a": np.inf, "b": np.nan}[where]
        bad = ProblemInstance.ridge(data["a"], data["b"], prob.gammas)
        gossip = psd_shift(metropolis_hastings(make_line_graph(4)), c=0.4)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="residual not finite"):
                compute_saddle(bad, gossip)

    def test_non_finite_logistic_data_raise_in_time(self):
        # an inf feature makes every logistic value NaN, on which the
        # reference solve's backtracking doubled its curvature estimate
        # forever; in a subprocess, so that a hang fails the test by its
        # timeout. The same data under ridge fail the exact solve's check.
        probe = (
            "import numpy as np\n"
            "from decopt.diagnostics import compute_saddle\n"
            "from decopt.errors import NumericError\n"
            "from decopt.objectives import ProblemInstance, synth_logistic\n"
            "from decopt.topology import make_line_graph, metropolis_hastings, psd_shift\n"
            "prob = synth_logistic(m=4, n=5, d=3, seed=0)\n"
            "a = prob.a.copy()\n"
            "a.flat[7] = np.inf\n"
            "gossip = psd_shift(metropolis_hastings(make_line_graph(4)), c=0.4)\n"
            "for bad in (ProblemInstance.logistic(a, prob.b),\n"
            "            ProblemInstance.ridge(a, prob.b, [1.0] * 4)):\n"
            "    try:\n"
            "        with np.errstate(invalid='ignore'):\n"
            "            compute_saddle(bad, gossip)\n"
            "    except NumericError as exc:\n"
            "        print(bad.loss, exc)\n"
        )
        logistic, ridge = run_probe(probe, timeout=60).splitlines()
        assert logistic.startswith("logistic ") and "data are not finite" in logistic
        assert ridge.startswith("ridge ") and "residual not finite" in ridge

    @pytest.mark.parametrize("synth, solver", [(synth_ridge, "ridge_exact_solution"),
                                               (synth_logistic, "centralized_minimize")])
    def test_reference_solve_follows_the_loss(self, synth, solver, monkeypatch):
        # called through the module's names, once, so profiles count the solve
        calls = []

        def spy(name):
            real = getattr(diagnostics, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("ridge_exact_solution", "centralized_minimize"):
            monkeypatch.setattr(diagnostics, name, spy(name))
        prob = synth(m=4, n=6, d=3, seed=2)
        gossip = psd_shift(metropolis_hastings(make_line_graph(4)), c=0.4)
        saddle = compute_saddle(prob, gossip)
        assert calls == [solver]
        assert saddle.stationarity_residual <= 1e-9

    def test_saddle_records_what_the_solve_spent(self, ridge_setup):
        prob, gossip, saddle, _ = ridge_setup
        assert saddle.solve_counts is None  # the exact normal-equation solve
        logistic = synth_logistic(m=prob.m, n=6, d=3, seed=2)
        counts = compute_saddle(logistic, gossip, tol=1e-10).solve_counts
        assert counts.evaluations > 0 and counts.hessians >= 1 and counts.chord_steps >= 1

    def test_fig1_extra_grid_separates(self):
        # against a reference x* at the rounding floor, the fig1_er01 preset's
        # EXTRA grid (ranked on distance_sq) has a clear winner: its top two
        # points differ by at least 10%, where they once tied on the floor of
        # a reference solved to 1e-10 (0.1% apart)
        cfg = runner.figure_preset("fig1_er01", synthetic_logistic=True)[2]
        ws = runner._Workspace(cfg)
        assert ws.saddle.grad_norm <= 1e-15
        search = extra_grid_search(ws.problem, ws.gossip, cfg.algorithm.grid,
                                   cfg.algorithm.budget, ws.recorder(cfg.diagnostics.cadence),
                                   "distance_sq", ws.x0, cfg.stop)
        best, second = sorted(p.value for p in search.points if p.value is not None)[:2]
        assert second >= 1.1 * best

    def test_logistic_saddle_high_accuracy(self):
        prob = synth_logistic(m=5, n=15, d=6, seed=3, noise=0.15)
        gossip = psd_shift(metropolis_hastings(make_erdos_renyi(5, 0.6, seed=2)), c=0.4)
        saddle = compute_saddle(prob, gossip, tol=1e-13)
        assert saddle.stationarity_residual <= 1e-11


class TestPrimalGapAndMerit:
    def test_zero_at_saddle(self, ridge_setup):
        prob, _, saddle, l_op = ridge_setup
        assert primal_gap(prob, saddle.x_stack, saddle) == pytest.approx(0.0, abs=1e-12)
        assert merit(prob, saddle.x_stack, saddle, l_op) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_at_random_points(self, ridge_setup):
        prob, _, saddle, l_op = ridge_setup
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = saddle.x_stack + rng.standard_normal(saddle.x_stack.shape)
            assert primal_gap(prob, x, saddle) >= -1e-10
            assert merit(prob, x, saddle, l_op) >= -1e-10

    def test_cross_check_against_lagrangian(self, ridge_setup):
        # oracle: evaluate L(X, Y*) - L(X*, Y*) from the definition
        prob, _, saddle, l_op = ridge_setup
        rng = np.random.default_rng(5)
        x = rng.standard_normal(saddle.x_stack.shape)

        def lagrangian(x_stack, y):
            return prob.stacked_value(x_stack) + np.sum((l_op @ x_stack) * y)

        direct = lagrangian(x, saddle.y_star) - lagrangian(saddle.x_stack, saddle.y_star)
        assert primal_gap(prob, x, saddle) == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_merit_decomposition(self, ridge_setup):
        prob, _, saddle, l_op = ridge_setup
        rng = np.random.default_rng(6)
        x = rng.standard_normal(saddle.x_stack.shape)
        lx = l_op @ x
        expected = primal_gap(prob, x, saddle) + np.sum(lx * lx)
        assert merit(prob, x, saddle, l_op) == pytest.approx(expected, rel=1e-12)

    def test_consensual_point_reduces_to_objective_gap(self):
        prob = ProblemInstance.ridge(np.tile(np.eye(2), (2, 1, 1)), [[1.0, -1.0]] * 2, [0.5] * 2)
        gossip = psd_shift(metropolis_hastings(make_line_graph(2)), c=0.4)
        saddle = compute_saddle(prob, gossip)
        l_op = graph_laplacian_sqrt(gossip)
        x = np.tile([0.3, 0.4], (2, 1))
        expected = prob.stacked_value(x) - saddle.f_stack_star
        assert merit(prob, x, saddle, l_op) == pytest.approx(expected, abs=1e-12)
        assert expected >= 0


class TestLyapunov:
    def test_zero_at_rest_at_saddle(self, ridge_setup):
        prob, _, saddle, _ = ridge_setup
        v = lyapunov(
            prob, saddle.x_stack, saddle.x_stack, saddle.y_star, saddle,
            sigma_k=1.0, gamma_k=1.0, alpha_k=0.1,
        )
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_positive_when_perturbed(self, ridge_setup):
        prob, _, saddle, _ = ridge_setup
        x = saddle.x_stack + 0.1
        v = lyapunov(prob, x, saddle.x_stack, saddle.y_star, saddle, 1.0, 1.0, 0.1)
        assert v > 0


class TestErgodic:
    def test_plain_average(self):
        acc = ErgodicAccumulator()
        xs = [np.full((2, 2), float(t)) for t in range(5)]
        for x in xs:
            acc.add(x, 1.0)
        np.testing.assert_allclose(acc.average, np.full((2, 2), 2.0))

    def test_single_term(self):
        acc = ErgodicAccumulator()
        acc.add(np.ones((2, 2)), 0.7)
        np.testing.assert_allclose(acc.average, np.ones((2, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((6, 3, 2))
        gammas = rng.uniform(0.5, 1.5, size=6)
        acc = ErgodicAccumulator()
        for x, g in zip(xs, gammas):
            acc.add(x, g)
        direct = sum(g * x for x, g in zip(xs, gammas)) / gammas.sum()
        np.testing.assert_allclose(acc.average, direct, atol=1e-14)

    def test_in_place_sum_leaves_iterates_alone(self):
        # the sum is updated in place, so it must never be an iterate itself
        xs = [np.full((2, 2), 1.0), np.full((2, 2), 2.0)]
        acc = ErgodicAccumulator()
        for x in xs:
            acc.add(x, 1.0)
        np.testing.assert_array_equal(xs[0], np.full((2, 2), 1.0))
        np.testing.assert_array_equal(acc.weighted_sum, np.full((2, 2), 3.0))

    def test_average_needs_a_term(self):
        with pytest.raises(ParameterError):
            ErgodicAccumulator().average


class TestClassicalBound:
    def test_factorable_quadratic(self):
        # 2 a^2 + a - 1 = 0 has positive root 1/2
        assert classical_stepsize_bound(2.0, 1.0, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_small_sigma_limit(self):
        val = classical_stepsize_bound(4.0, 1e-9, 2.0)
        assert val == pytest.approx(2.0 / 4.0, rel=1e-4)

    def test_root_solves_quadratic(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            l_const = rng.uniform(0.1, 20)
            sigma = rng.uniform(0.01, 5)
            norm = rng.uniform(0.1, 2.0)
            a = classical_stepsize_bound(l_const, sigma, norm)
            assert sigma * norm * a**2 + l_const / 2 * a - 1 == pytest.approx(0.0, abs=1e-10)


def _trace_from_values(pairs):
    trace = Trace()
    for k, v in pairs:
        trace.records.append(
            TraceRecord(
                k=k, comm_vector=k, comm_scalar=0, objective_gap=None, distance_sq=v,
                consensus_err=0.0, merit_ergodic=None, lyapunov=None,
                alpha_min=None, alpha_max=None, gamma=None, L_k=None,
            )
        )
    return trace


class TestRateFit:
    def test_pure_geometric(self):
        trace = _trace_from_values([(k, 0.5**k) for k in range(1, 40)])
        fit = rate_fit(trace, "distance_sq", (1, 39))
        assert fit.kind == "linear"
        assert fit.geometric_slope == pytest.approx(np.log(0.5), rel=1e-9)
        assert fit.geometric_r2 == pytest.approx(1.0, abs=1e-12)

    def test_pure_power(self):
        trace = _trace_from_values([(k, 1.0 / k) for k in range(1, 60)])
        fit = rate_fit(trace, "distance_sq", (1, 59))
        assert fit.kind == "sublinear"
        assert fit.power_slope == pytest.approx(-1.0, rel=1e-9)
        assert fit.power_r2 == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_data(self):
        trace = _trace_from_values([(1, 0.5), (2, 0.4)])
        with pytest.raises(InsufficientDataError):
            rate_fit(trace, "distance_sq", (1, 2))

    def test_nonpositive_filtered(self):
        trace = _trace_from_values([(k, 0.5**k) for k in range(1, 20)] + [(20, 0.0)])
        fit = rate_fit(trace, "distance_sq", (1, 20))
        assert fit.geometric_r2 > 0.99


class TestRestrictedConstants:
    def test_ordering(self):
        rc = RestrictedConstants()
        rc.update(2.0, 0.5)
        rc.update(5.0, 0.8)
        rc.update(1.0, 0.2)
        assert rc.l_tilde_hat == 5.0
        assert rc.mu_tilde_hat == 0.2
        assert 0 <= rc.mu_tilde_hat <= rc.l_tilde_hat


class TestTraceCsv:
    def test_header_and_empty_fields(self):
        trace = _trace_from_values([(0, 1.0), (1, 0.5)])
        text = trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3
        # None fields serialize to empty cells
        assert lines[1].split(",")[3] == ""

    def test_round_trip_floats(self):
        trace = _trace_from_values([(0, 1.0 / 3.0)])
        row = trace.to_csv().strip().split("\n")[1].split(",")
        assert float(row[4]) == 1.0 / 3.0
