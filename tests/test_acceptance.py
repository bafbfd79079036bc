"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Shared instances are built once per module; every tolerance below is
part of the acceptance contract and must not be loosened.
"""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from decopt import objectives, solvers, topology
from decopt.config import AlgorithmConfig, ExperimentConfig, GraphConfig, InitConfig
from decopt.config import DiagnosticsConfig, ProblemConfig, StopConfig
from decopt.diagnostics import TraceRecorder, compute_saddle
from decopt.objectives import ProblemInstance, synth_logistic, synth_ridge
from decopt.runner import compare, default_extra_grid
from decopt.solvers import FixedStepParams, StopRule, adolf_step, initial_state
from decopt.solvers import condat_vu_step, run
from decopt.stepsize import GrowthPolicy, StepsizeParams
from decopt.topology import make_erdos_renyi, make_ring_graph
from decopt.topology import GossipMatrix, metropolis_hastings
from oracles import average_value, gamma_ratio_bound, lyapunov, rate_fit
from shadow_dual import shadow_dual_residuals


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


def mh_shifted(graph, c=0.4):
    return GossipMatrix(metropolis_hastings(graph), c=c)


def assert_structural_invariants(trace, algorithm, problem, gossip, params, x0):
    """Criterion 10 assertions applied to a finished run and its replay."""
    wt = gossip.w_tilde
    assert np.max(np.abs(wt - wt.T)) <= 1e-12
    assert np.max(np.abs(wt.sum(axis=1) - 1.0)) <= 1e-12
    l_op = gossip.laplacian_sqrt
    m = gossip.m
    assert np.linalg.norm(l_op @ l_op - (np.eye(m) - gossip.shifted)) <= 1e-10
    assert np.linalg.norm(l_op @ np.ones(m)) <= 1e-10
    assert trace.dual_colsum_max <= 1e-9
    shadow_dual_residuals(algorithm, problem, gossip, params, x0, trace.final.k)
    bound = gamma_ratio_bound(params.c2) + 1e-12
    for rec in trace.records:
        if rec.gamma is not None:
            assert rec.gamma <= bound


# ---------------------------------------------------------------------------
# shared instances


@pytest.fixture(scope="module")
def logistic_setup():
    """10-agent synthetic logistic instance used by criteria 3, 4, and 6."""
    problem = synth_logistic(m=10, n=20, d=10, seed=5, noise=0.1)
    gossip = mh_shifted(make_erdos_renyi(10, 0.5, seed=3))
    saddle = compute_saddle(problem, gossip, tol=1e-13)
    return problem, gossip, saddle


@pytest.fixture(scope="module")
def logistic_adolf_trace(logistic_setup):
    """One 2000-iteration convex-mode run serving criteria 3 and 4."""
    problem, gossip, saddle = logistic_setup
    params = StepsizeParams(
        c1=0.9, c2=0.9, alpha0=1e-3, sigma_bar=1.0,
    )
    recorder = TraceRecorder(problem, gossip, saddle, cadence=1)
    start = time.perf_counter()
    trace = run("adolf", problem, gossip, params, StopRule(max_iter=2000), recorder,
                np.zeros((10, 10)))
    return trace, time.perf_counter() - start, params


@pytest.fixture(scope="module")
def ridge50_setup():
    """Criterion 5/6/7 instance: ridge m=20, n=20, d=50 on a dense random graph."""
    problem = synth_ridge(m=20, n=20, d=50, seed=11)
    gossip = mh_shifted(make_erdos_renyi(20, 0.9, seed=7))
    saddle = compute_saddle(problem, gossip)
    return problem, gossip, saddle


def sc_global_params():
    return StepsizeParams(
        strongly_convex=True, c1=0.5, c2=0.99, alpha0=1e-3, sigma=0.2,
        growth=GrowthPolicy(kind="ratio_power", beta1=10, beta2=1),
    )


def sc_local_params():
    return StepsizeParams(
        strongly_convex=True, local=True, c1=0.5, c2=0.99, alpha0=1e-3, eta=0.9, sigma=0.2,
        growth=GrowthPolicy(kind="additive", a=6 / np.pi**2),
    )


@pytest.fixture(scope="module")
def local_ridge_trace(ridge50_setup):
    """Criterion 6/7 run: per-agent variant to the 1e-8 distance threshold."""
    problem, gossip, saddle = ridge50_setup
    recorder = TraceRecorder(problem, gossip, saddle, cadence=1)
    trace = run(
        "adolf_local", problem, gossip, sc_local_params(),
        StopRule(max_iter=100_000, metric="distance_sq", threshold=1e-8, cadence=1),
        recorder, np.zeros((20, 50)),
    )
    return trace


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_oracle_equivalence():
    """Constant-mode engine and the primal-dual oracle agree to 1e-10."""
    start = time.perf_counter()
    problem = synth_ridge(m=5, n=6, d=3, seed=42)
    gossip = mh_shifted(make_ring_graph(5))
    params = FixedStepParams(alpha=1e-2, sigma=1.0, gamma=1.0)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((5, 3))
    a_state = adolf_step(initial_state(problem, x0), problem, gossip, params)
    c_state = condat_vu_step(initial_state(problem, x0), problem, gossip, params)
    l_op = gossip.laplacian_sqrt
    worst = 0.0
    for _ in range(100):
        worst = max(worst, float(np.linalg.norm(a_state.x_now - c_state.x_now)))
        worst = max(worst, float(np.linalg.norm(a_state.dual - l_op @ c_state.y)))
        a_state = adolf_step(a_state, problem, gossip, params)
        c_state = condat_vu_step(c_state, problem, gossip, params)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(f"criterion 1 oracle equivalence: max deviation {worst:.2e} <= 1e-10 "
           f"in {elapsed:.2f}s")


def test_criterion_02_fixed_parameter_descent():
    """Stationary-tuning Lyapunov descends when alpha obeys the L-based guard."""
    problem = synth_ridge(m=8, n=10, d=6, seed=2)
    # independent oracle for the global smoothness constant: eigensolve per agent
    l_const = max(
        2 * np.linalg.eigvalsh(a.T @ a).max() / problem.n + gamma
        for a, gamma in zip(problem.a, problem.gammas)
    )
    gossip = mh_shifted(make_ring_graph(8))
    saddle = compute_saddle(problem, gossip)
    l_op = gossip.laplacian_sqrt
    sigma = 1.0
    alpha = 0.99 / (np.sqrt(l_const**2 + 2 * sigma) + l_const)
    x0 = np.random.default_rng(0).standard_normal((8, 6))
    params = FixedStepParams(alpha=alpha, sigma=sigma, gamma=1.0)
    recorder = TraceRecorder(problem, gossip, saddle, cadence=1)
    trace = run("condat_vu", problem, gossip, params, StopRule(max_iter=500), recorder, x0)
    values = [r.lyapunov for r in trace.records if r.lyapunov is not None]
    assert len(values) == 500
    for v_now, v_next in zip(values, values[1:]):
        assert v_next <= v_now + 1e-10 * (1.0 + v_now)
    # the rows hold the Lyapunov function itself: the oracle's, at the run's own states
    state = initial_state(problem, x0)
    for v in values:
        want = lyapunov(problem, state.x_now, state.x_prev, state.y if state.k else 0.0, saddle,
                        l_op, sigma, 1.0, alpha)
        assert abs(v - want) <= 1e-10 * (1.0 + want)
        state = condat_vu_step(state, problem, gossip, params)
    report(f"criterion 2 fixed-parameter descent: V monotone over {len(values)} "
           f"iterations at alpha={alpha:.4f} (L={l_const:.2f})")


def test_criterion_03_adaptive_descent_certificates(logistic_setup, logistic_adolf_trace):
    """Adaptive-run Lyapunov descends and the selection certificates hold."""
    problem, gossip, saddle = logistic_setup
    trace, _, params = logistic_adolf_trace
    rows = [r for r in trace.records if r.lyapunov is not None][:1001]
    assert len(rows) >= 1001
    for r_now, r_next in zip(rows[:1000], rows[1:1001]):
        assert r_next.lyapunov <= r_now.lyapunov + 1e-10 * (1.0 + r_now.lyapunov)
    # selection certificates at every iteration
    sigma_bar = params.sigma_bar
    for r_now, r_next in zip(rows[:1000], rows[1:1001]):
        if r_now.L_k is not None:
            guard = 1.0 / (np.sqrt(r_now.L_k**2 + 2 * sigma_bar / params.c1) + r_now.L_k)
            assert r_now.alpha_max <= guard + 1e-12
        lhs = (2 + 2 * r_now.gamma) * r_now.alpha_max - 2 * r_next.gamma * r_next.alpha_max
        assert lhs >= -1e-12
        assert sigma_bar >= sigma_bar - 1e-12  # constant schedule is nondecreasing
    assert_structural_invariants(trace, "adolf", problem, gossip, params, np.zeros((10, 10)))
    report("criterion 3 adaptive descent: V monotone over 1000 iterations and "
           "all selection certificates within 1e-12")


def test_criterion_04_sublinear_ergodic_merit(logistic_setup, logistic_adolf_trace):
    """Ergodic merit decays at least like 1/k over iterations 100..2000."""
    problem, gossip, saddle = logistic_setup
    trace, elapsed, _ = logistic_adolf_trace
    merits = [r.merit_ergodic for r in trace.records if r.merit_ergodic is not None]
    assert min(merits) >= -1e-10
    fit = rate_fit(trace, "merit_ergodic", (100, 2000))
    assert fit.power_slope <= -0.9
    assert fit.power_r2 >= 0.9
    assert elapsed < 30.0
    report(f"criterion 4 sublinear rate: ergodic merit power slope {fit.power_slope:.2f} "
           f"(<= -0.9), R^2 {fit.power_r2:.4f} (>= 0.9) in {elapsed:.1f}s")


def test_criterion_05_linear_rate(ridge50_setup):
    """Strongly convex mode reaches 1e-8 and the tail decays geometrically."""
    problem, gossip, saddle = ridge50_setup
    recorder = TraceRecorder(problem, gossip, saddle, cadence=1)
    start = time.perf_counter()
    params = sc_global_params()
    trace = run("adolf", problem, gossip, params, StopRule(max_iter=1000),
                recorder, np.zeros((20, 50)))
    elapsed = time.perf_counter() - start
    final = trace.final
    assert final.k <= 100_000
    assert final.distance_sq <= 1e-8
    fit = rate_fit(trace, "distance_sq", (200, 1000))
    assert fit.geometric_r2 >= 0.95
    assert fit.geometric_slope < 0
    assert elapsed < 60.0
    assert_structural_invariants(trace, "adolf", problem, gossip, params, np.zeros((20, 50)))
    report(f"criterion 5 linear rate: terminal distance {final.distance_sq:.2e} <= 1e-8, "
           f"tail fit slope {fit.geometric_slope:.4f}, R^2 {fit.geometric_r2:.4f} (>= 0.95) "
           f"in {elapsed:.1f}s")


def test_criterion_06_local_stepsize_consensus(ridge50_setup, logistic_setup, local_ridge_trace):
    """Per-agent stepsizes agree beyond a finite K < 2000 and stay positive."""
    # ridge instance (threshold run from criterion 7)
    ridge_trace = local_ridge_trace
    assert ridge_trace.consensus_iteration is not None
    assert ridge_trace.consensus_iteration < 2000
    spread_after = [
        rec for rec in ridge_trace.records
        if rec.alpha_min is not None and rec.k >= ridge_trace.consensus_iteration
    ]
    assert all(rec.alpha_min == rec.alpha_max for rec in spread_after)
    assert ridge_trace.alpha_floor > 0

    # logistic instance, convex local mode
    problem, gossip, saddle = logistic_setup
    params = StepsizeParams(
        local=True, c1=0.9, c2=0.9, alpha0=1e-3, eta=0.9, sigma_bar=1.0,
        growth=GrowthPolicy(kind="additive", a=6 / np.pi**2),
    )
    recorder = TraceRecorder(problem, gossip, saddle, cadence=1)
    log_trace = run("adolf_local", problem, gossip, params, StopRule(max_iter=2000),
                    recorder, np.zeros((10, 10)))
    assert log_trace.consensus_iteration is not None
    assert log_trace.consensus_iteration < 2000
    assert log_trace.alpha_floor > 0
    assert_structural_invariants(log_trace, "adolf_local", problem, gossip, params,
                                 np.zeros((10, 10)))
    report(f"criterion 6 stepsize consensus: ridge K={ridge_trace.consensus_iteration}, "
           f"logistic K={log_trace.consensus_iteration} (both < 2000); "
           f"floors {ridge_trace.alpha_floor:.2e}, {log_trace.alpha_floor:.2e} > 0")


def test_criterion_07_local_convergence(ridge50_setup, local_ridge_trace):
    """Per-agent variant reaches 1e-8 with a geometric tail after consensus."""
    problem, gossip, _ = ridge50_setup
    trace = local_ridge_trace
    assert trace.status == "converged"
    assert trace.final.distance_sq <= 1e-8
    k_obs = trace.consensus_iteration
    fit = rate_fit(trace, "distance_sq", (k_obs, trace.final.k))
    assert fit.geometric_r2 >= 0.9
    assert fit.geometric_slope < 0
    assert_structural_invariants(trace, "adolf_local", problem, gossip, sc_local_params(),
                                 np.zeros((20, 50)))
    report(f"criterion 7 local convergence: terminal {trace.final.distance_sq:.2e} <= 1e-8, "
           f"tail fit after K={k_obs}: slope {fit.geometric_slope:.4f}, "
           f"R^2 {fit.geometric_r2:.4f} (>= 0.9)")


def test_criterion_08_baseline_trend(tmp_path):
    """Untuned adaptive defaults stay within 2x of grid-searched EXTRA."""
    problem = ProblemConfig(kind="ridge", m=20, n=20, d=500)
    graph = GraphConfig(kind="erdos_renyi", m=20, p=0.9)
    stop = StopConfig(max_iter=100_000, metric="distance_sq", threshold=1e-6, cadence=10)
    base = ExperimentConfig(
        problem=problem, graph=graph, algorithm=AlgorithmConfig(kind="adolf"),
        init=InitConfig(kind="zeros"), stop=stop,
        diagnostics=DiagnosticsConfig(cadence=10), name="adolf_defaults", master_seed=0,
    )
    extra_cfg = replace(
        base,
        algorithm=AlgorithmConfig(kind="extra", grid=default_extra_grid(), budget=3000),
        name="extra_grid",
    )
    result = compare([base, extra_cfg], out_dir=tmp_path, metric="distance_sq")
    adolf_comms = result.to_threshold["adolf_defaults"]
    extra_comms = result.to_threshold["extra_grid"]
    assert adolf_comms is not None and extra_comms is not None
    assert adolf_comms <= 2 * extra_comms
    table = result.summary_table()
    assert "adolf_defaults" in table and "extra_grid" in table
    report(f"criterion 8 baseline trend: adaptive {adolf_comms} vs EXTRA {extra_comms} "
           f"vector rounds to 1e-6 (ratio {adolf_comms / extra_comms:.2f} <= 2); "
           f"comparison table emitted")


def test_criterion_09_gradient_correctness():
    """The stacked and averaged gradients of one-agent instances match central
    finite differences of the stacked and averaged values."""
    start = time.perf_counter()
    rng = np.random.default_rng(123)

    def finite_diff(fn, x):
        h = 1e-5 * (1.0 + np.linalg.norm(x))
        g = np.zeros_like(x)
        for i in range(len(x)):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
        return g

    probs = []
    probs.append(ProblemInstance.ridge(rng.standard_normal((1, 6, 4)),
                                       rng.standard_normal((1, 6)), [0.7]))
    probs.append(ProblemInstance.ridge(rng.standard_normal((1, 3, 5)),
                                       rng.standard_normal((1, 3)), [1.5]))
    labels = np.where(rng.random((1, 8)) < 0.5, 1.0, -1.0)
    probs.append(ProblemInstance.logistic(rng.standard_normal((1, 8, 4)), labels))
    probs.append(ProblemInstance.logistic(rng.standard_normal((1, 5, 3)), np.ones((1, 5))))
    worst = 0.0
    for prob in probs:
        for _ in range(10):
            x = rng.standard_normal(prob.d)
            pairs = [(prob.stacked_gradient(x[None])[0], lambda y: prob.stacked_value(y[None])),
                     (prob.average_gradient(x), functools.partial(average_value, prob))]
            for g, value in pairs:
                fd = finite_diff(value, x)
                rel = np.linalg.norm(g - fd) / (1.0 + np.linalg.norm(g))
                worst = max(worst, float(rel))
                assert rel <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 9 gradient correctness: worst relative deviation {worst:.2e} "
           f"<= 1e-6 in {elapsed:.2f}s")


def test_criterion_10_structural_invariants(ridge50_setup, logistic_adolf_trace,
                                            local_ridge_trace, logistic_setup):
    """Gossip, laplacian-sqrt, dual, and ratio invariants across all runs."""
    problem, gossip, saddle = ridge50_setup
    log_problem, log_gossip, _ = logistic_setup
    # gossip invariants on both acceptance graphs
    for gp in (gossip, log_gossip):
        wt = gp.w_tilde
        assert np.max(np.abs(wt - wt.T)) <= 1e-12
        assert np.max(np.abs(wt.sum(axis=1) - 1.0)) <= 1e-12
        off = ~np.eye(gp.m, dtype=bool)
        assert np.array_equal(gp.shifted[off] != 0, wt[off] != 0)
        lo = gp.laplacian_sqrt
        assert np.linalg.norm(lo @ lo - (np.eye(gp.m) - gp.shifted)) <= 1e-10
    # run-level invariants accumulated by the recorders
    adolf_trace, _, params = logistic_adolf_trace
    assert adolf_trace.dual_colsum_max <= 1e-9
    assert local_ridge_trace.dual_colsum_max <= 1e-9
    # D = L_op Y with Y = pinv(L_op) D, replayed from the same starts
    shadow = [
        *shadow_dual_residuals("adolf", log_problem, log_gossip, params, np.zeros((10, 10)),
                               adolf_trace.final.k),
        *shadow_dual_residuals("adolf_local", problem, gossip, sc_local_params(),
                               np.zeros((20, 50)), local_ridge_trace.final.k),
    ]
    bound = gamma_ratio_bound(params.c2) + 1e-12
    for rec in adolf_trace.records:
        if rec.gamma is not None:
            assert rec.gamma <= bound
    # optimality metrics never dip meaningfully negative on convex instances
    for trace in (adolf_trace, local_ridge_trace):
        for rec in trace.records:
            if rec.objective_gap is not None:
                assert rec.objective_gap >= -1e-10
            if rec.merit_ergodic is not None:
                assert rec.merit_ergodic >= -1e-10
    report(f"criterion 10 structural invariants: dual column drift "
           f"{max(adolf_trace.dual_colsum_max, local_ridge_trace.dual_colsum_max):.2e} <= 1e-9, "
           f"shadow dual residual {max(shadow):.2e} <= 1e-8")


def test_criterion_11_determinism(tmp_path):
    """Identical configs produce byte-identical CSV traces."""
    from decopt.runner import run_experiment

    config = ExperimentConfig(
        problem=ProblemConfig(kind="ridge", m=6, n=8, d=5),
        graph=GraphConfig(kind="erdos_renyi", m=6, p=0.7),
        algorithm=AlgorithmConfig(kind="adolf_local", mode="strongly_convex"),
        stop=StopConfig(max_iter=120),
        name="det",
        master_seed=4,
    )
    m1 = run_experiment(config, out_dir=tmp_path / "first")
    m2 = run_experiment(config, out_dir=tmp_path / "second")
    b1 = (tmp_path / "first" / "det.csv").read_bytes()
    b2 = (tmp_path / "second" / "det.csv").read_bytes()
    assert b1 == b2
    assert m1.status == m2.status
    report(f"criterion 11 determinism: repeated runs byte-identical "
           f"({len(b1)} bytes, {m1.iterations} iterations)")
