import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decopt import topology
from decopt.errors import NumericError, ParameterError
from decopt.objectives import synth_ridge
from decopt.solvers import adolf_local_step, initial_state
from decopt.stepsize import (
    GrowthPolicy,
    StepsizeParams,
    curvature_global,
    curvature_local,
    curvature_guard,
    local_candidate_strongly_convex,
    local_min_consensus,
    local_tilde,
    select_alpha_convex,
    select_alpha_strongly_convex,
)
from oracles import diameter, gamma_ratio_bound
from scalar_local_rule import scalar_candidate, scalar_cap, scalar_local_rule


def closed_mask(graph):
    """The closed-neighborhood mask the local rule runs on: the gossip matrix's."""
    return topology.GossipMatrix(topology.metropolis_hastings(graph)).neighbor_mask()


def convex_params(c1=1.0, c2=1.0, growth=None):
    return StepsizeParams(
        c1=c1,
        c2=c2,
        growth=growth or GrowthPolicy(),
        sigma_bar=1.0,
    )


def sc_params(c1=0.5, c2=0.99, sigma=0.2, growth=None):
    return StepsizeParams(
        strongly_convex=True,
        c1=c1,
        c2=c2,
        growth=growth or GrowthPolicy(kind="ratio_power", beta1=10, beta2=1),
        sigma=sigma,
    )


class TestCurvature:
    def test_zero_displacement(self):
        x = np.ones((3, 2))
        g = np.ones((3, 2))
        assert curvature_global(g, g * 2, x, x)[0] == 0.0

    def test_constant_curvature_scalar(self):
        # single agent, f(x) = (L/2) x^2: quotient is exactly L
        lval = 3.7
        x_now, x_prev = np.array([[2.0]]), np.array([[0.5]])
        assert curvature_global(lval * x_now, lval * x_prev, x_now, x_prev)[0] == pytest.approx(
            lval, abs=1e-15
        )

    @given(st.integers(min_value=0, max_value=2_000))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_rayleigh_bound(self, seed):
        # per-agent quadratics grad = Q x: proxy never exceeds lambda_max(Q)
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((4, 4))
        q = q @ q.T
        lam_max = np.linalg.eigvalsh(q).max()
        x_now, x_prev = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        proxy = curvature_global(x_now @ q, x_prev @ q, x_now, x_prev)[0]
        assert proxy <= lam_max + 1e-9

    def test_matches_per_agent_aggregate(self):
        rng = np.random.default_rng(0)
        g_now, g_prev = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        x_now, x_prev = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        agg = math.sqrt(
            np.sum((g_now - g_prev) ** 2) / np.sum((x_now - x_prev) ** 2)
        )
        assert curvature_global(g_now, g_prev, x_now, x_prev)[0] == pytest.approx(agg, rel=1e-14)

    def test_local_convention(self):
        x_now = np.array([[1.0, 0.0], [2.0, 2.0]])
        x_prev = np.array([[1.0, 0.0], [1.0, 2.0]])
        g_now = np.array([[5.0, 0.0], [4.0, 2.0]])
        g_prev = np.array([[1.0, 0.0], [1.0, 2.0]])
        lk, l_k, mu_k = curvature_local(g_now, g_prev, x_now, x_prev)
        assert lk[0] == 0.0  # agent 0 did not move: convention
        assert lk[1] == pytest.approx(3.0, abs=1e-14)
        assert (l_k, mu_k) == curvature_global(g_now, g_prev, x_now, x_prev)

    def test_local_non_finite_is_numeric_error(self):
        x = np.zeros((2, 2))
        g_now = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericError):
            curvature_local(g_now, x, x + 1.0, x)


class TestConvexSelection:
    def test_curvature_guard_binds(self):
        state = (100.0, 1.0, 1)
        alpha, gamma = select_alpha_convex(0.0, 2.0, *state, convex_params())
        assert alpha == pytest.approx(0.5, abs=1e-15)
        assert gamma == pytest.approx(0.005, abs=1e-15)

    def test_curvature_guard_arithmetic(self):
        state = (100.0, 1.0, 1)
        alpha, _ = select_alpha_convex(3.0, 8.0, *state, convex_params())
        assert alpha == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_ratio_guard_binds(self):
        state = (0.1, 1.0, 1)
        alpha, gamma = select_alpha_convex(0.0, 1e-12, *state, convex_params(c2=1.0))
        assert alpha == pytest.approx(math.sqrt(2.0) * 0.1, rel=1e-14)
        assert gamma == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_growth_cap_binds(self):
        growth = GrowthPolicy(kind="additive", a=1e-4)
        state = (0.1, 1.0, 1)
        alpha, _ = select_alpha_convex(0.0, 1e-12, *state, convex_params(growth=growth))
        assert alpha == pytest.approx(0.1 + 1e-4, rel=1e-14)

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_certificates_on_random_paths(self, seed, steps):
        # every emitted triple satisfies the descent certificates
        rng = np.random.default_rng(seed)
        params = convex_params(c1=0.9, c2=0.9)
        sigma_bar = params.sigma_bar
        state = (10.0 ** rng.uniform(-4, 0), 1.0, 1)
        emitted = []
        for k in range(1, steps + 1):
            l_k = rng.uniform(0.0, 50.0)
            alpha, gamma = select_alpha_convex(l_k, sigma_bar, *state, params)
            # curvature certificate
            assert alpha <= curvature_guard(l_k, sigma_bar, params.c1) + 1e-15
            # two-term form with the optimizing zeta
            zeta = 0.5 * (math.sqrt(l_k**2 + 2 * sigma_bar / params.c1) - l_k)
            assert alpha <= 1.0 / (2.0 * (l_k + zeta)) + 1e-12
            assert alpha <= zeta / sigma_bar + 1e-12
            emitted.append((alpha, gamma))
            state = (alpha, gamma, k + 1)
        # ratio certificate across consecutive selections
        for (a0, g0), (a1, g1) in zip(emitted, emitted[1:]):
            assert (2 + 2 * g0) * a0 - 2 * g1 * a1 >= -1e-12
        # bounded ratio
        bound = gamma_ratio_bound(params.c2)
        assert all(g <= bound + 1e-12 for _, g in emitted)

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30, deadline=None)
    def test_lower_bound_under_curvature_ceiling(self, seed):
        # if L_k never exceeds l_hat, alpha never falls below the floor
        rng = np.random.default_rng(seed)
        params = convex_params(c1=0.9, c2=0.9)
        l_hat = rng.uniform(0.5, 20.0)
        alpha0 = 10.0 ** rng.uniform(-4, -1)
        floor = min(alpha0, curvature_guard(l_hat, params.sigma_bar, params.c1))
        state = (alpha0, 1.0, 1)
        for k in range(1, 80):
            alpha, gamma = select_alpha_convex(
                rng.uniform(0, l_hat), params.sigma_bar, *state, params
            )
            assert alpha >= floor - 1e-12
            state = (alpha, gamma, k + 1)

    def test_golden_ratio_bound_value(self):
        assert gamma_ratio_bound(1.0) == pytest.approx((1 + math.sqrt(5)) / 2, rel=1e-15)

    def test_determinism(self):
        state = (0.123, 1.1, 5)
        a1 = select_alpha_convex(2.5, 1.0, *state, convex_params())
        a2 = select_alpha_convex(2.5, 1.0, *state, convex_params())
        assert a1 == a2


class TestStronglyConvexSelection:
    def test_closed_form_binds(self):
        state = (100.0, 1.0, 1)
        alpha, _ = select_alpha_strongly_convex(1.0, *state, sc_params(c1=0.5, sigma=0.2))
        assert alpha == pytest.approx(0.1, abs=1e-15)

    def test_zero_curvature_falls_to_growth(self):
        params = sc_params()
        state = (0.2, 1.0, 3)
        alpha, _ = select_alpha_strongly_convex(0.0, *state, params)
        expected = min(
            math.sqrt(1 + params.c2) * 0.2, params.growth.cap(0.2, 3)
        )
        assert alpha == pytest.approx(expected, rel=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_equivalence_with_implicit_guard(self, seed):
        # alpha = (1/2 - sigma/c1)/L solves alpha = 1/(sqrt(L^2 + 2 sigma_k/c1) + L)
        # with sigma_k = sigma / alpha^2; check the inequality numerically
        rng = np.random.default_rng(seed)
        c1 = rng.uniform(0.05, 1.0)
        sigma = rng.uniform(0.01, 0.49) * c1 / 2 * 2  # in (0, c1/2) after scaling
        sigma = rng.uniform(0.02, 0.98) * (c1 / 2)
        l_k = 10.0 ** rng.uniform(-2, 3)
        alpha = (0.5 - sigma / c1) / l_k
        sigma_k = sigma / alpha**2
        guard = curvature_guard(l_k, sigma_k, c1)
        assert alpha <= guard * (1 + 1e-12)
        assert alpha >= guard * (1 - 1e-12)

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=60),
        st.floats(0.01, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_gamma_bounded_on_random_paths(self, seed, steps, c2):
        # zero curvature now and then lets the ratio guard bind
        rng = np.random.default_rng(seed)
        params = sc_params(c2=c2)
        bound = gamma_ratio_bound(c2)
        state = (10.0 ** rng.uniform(-4, 0), 1.0, 1)
        for k in range(1, steps + 1):
            l_k = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 50.0)
            alpha, gamma = select_alpha_strongly_convex(l_k, *state, params)
            assert gamma <= bound + 1e-12
            state = (alpha, gamma, k + 1)

    def test_zero_selection_is_numeric_error(self):
        # L_k^2 overflows, the curvature guard rounds to 0, and the run must
        # end diverged rather than step with alpha = 0
        with pytest.raises(NumericError):
            select_alpha_convex(1e308, 1.0, 0.1, 1.0, 1, convex_params())

    def test_sigma_range_enforced(self):
        with pytest.raises(ParameterError):
            sc_params(c1=0.5, sigma=0.3)  # needs sigma < 0.25


class TestLocalRules:
    def test_candidate_arithmetic(self):
        # the convex per-agent candidate is the global curvature guard
        assert curvature_guard(0.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert curvature_guard(3.0, 8.0, 1.0) == pytest.approx(1 / 8, abs=1e-15)

    def test_candidate_strongly_convex(self):
        hat = local_candidate_strongly_convex(np.array([2.0, 0.0]), 0.2, 0.5)
        assert hat[0] == pytest.approx(0.05, abs=1e-15)
        assert hat[1] == np.inf  # idle agent: no curvature cap

    def local_params(self, a=0.01, eta=0.9, c2=0.5):
        return StepsizeParams(
            local=True,
            c1=1.0,
            c2=c2,
            eta=eta,
            growth=GrowthPolicy(kind="additive", a=a),
            sigma_bar=1.0,
        )

    def test_tilde_decrease_branch(self):
        params = self.local_params(a=0.01, eta=0.9)
        # cap at k=1 is 0.1 + 0.01 = 0.11; candidate 0.05 <= cap: shrink
        tilde = local_tilde(0.05, 0.1, 1.0, params, k=1)
        assert tilde == pytest.approx(min(0.09, 0.05), abs=1e-15)

    def test_tilde_growth_branch(self):
        params = self.local_params(a=0.01, eta=0.9, c2=0.5)
        tilde = local_tilde(0.5, 0.1, 1.0, params, k=1)
        assert tilde == pytest.approx(min(0.11, math.sqrt(1.5) * 0.1), rel=1e-14)
        assert tilde == pytest.approx(0.11, rel=1e-14)

    def test_tilde_boundary_is_decrease(self):
        params = self.local_params(a=0.01, eta=0.9)
        cap = params.growth.cap(0.1, 1)
        tilde = local_tilde(cap, 0.1, 1.0, params, k=1)
        assert tilde == pytest.approx(min(0.09, cap), abs=1e-15)

    def test_tilde_absent_candidate(self):
        params = self.local_params(a=0.01, c2=0.5)
        tilde = local_tilde(np.inf, 0.1, 1.0, params, k=1)
        assert tilde == pytest.approx(0.11, rel=1e-14)

    def test_tilde_never_exceeds_guards_when_shrinking(self):
        params = self.local_params()
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha_prev = 10.0 ** rng.uniform(-3, 0)
            gamma_prev = rng.uniform(0.5, 1.6)
            hat = 10.0 ** rng.uniform(-3, 0)
            k = int(rng.integers(1, 50))
            tilde = local_tilde(hat, alpha_prev, gamma_prev, params, k)
            cap = params.growth.cap(alpha_prev, k)
            if hat <= cap and params.eta * alpha_prev <= hat:
                assert tilde <= min(
                    hat, math.sqrt(1 + params.c2 * gamma_prev) * alpha_prev, cap
                ) + 1e-15
            assert tilde > 0

    def test_min_consensus_line(self):
        g = topology.make_line_graph(3)
        tilde = np.array([0.1, 0.5, 0.2])
        alpha, gamma = local_min_consensus(tilde, closed_mask(g), np.full(3, 0.25))
        np.testing.assert_allclose(alpha, [0.1, 0.1, 0.2], atol=1e-15)
        np.testing.assert_allclose(gamma, tilde / 0.25, atol=1e-15)

    def test_min_consensus_identity_when_equal(self):
        g = topology.make_ring_graph(4)
        tilde = np.full(4, 0.3)
        alpha, _ = local_min_consensus(tilde, closed_mask(g), np.full(4, 0.3))
        np.testing.assert_allclose(alpha, tilde, atol=1e-15)

    def test_min_consensus_complete_graph(self):
        m = 5
        g = topology.Graph(m, frozenset((i, j) for i in range(m) for j in range(i + 1, m)))
        rng = np.random.default_rng(1)
        tilde = rng.uniform(0.01, 1.0, size=m)
        alpha, _ = local_min_consensus(tilde, closed_mask(g), np.ones(m))
        np.testing.assert_allclose(alpha, np.full(m, tilde.min()), atol=1e-15)

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=25, deadline=None)
    def test_min_consensus_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        g = topology.make_erdos_renyi(7, 0.4, seed=seed)
        tilde = rng.uniform(0.01, 1.0, size=7)
        alpha, _ = local_min_consensus(tilde, closed_mask(g), np.ones(7))
        for i in range(7):
            hood = {i, *g.neighbor_lists[i]}
            assert alpha[i] == pytest.approx(min(tilde[j] for j in hood), abs=0)

    def test_min_propagates_in_diameter_rounds(self):
        g = topology.make_line_graph(6)
        mask = closed_mask(g)
        vals = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.05])
        for _ in range(diameter(g)):
            vals, _ = local_min_consensus(vals, mask, np.ones(6))
        np.testing.assert_allclose(vals, np.full(6, 0.05), atol=0)

    @given(st.integers(2, 12), st.floats(0.3, 1.0), st.integers(0, 1_000))
    @settings(max_examples=40, deadline=None)
    def test_min_propagates_in_diameter_rounds_on_random_graphs(self, m, p, seed):
        g = topology.make_erdos_renyi(m, p, seed=seed)
        mask = closed_mask(g)
        vals = np.random.default_rng(seed).uniform(0.01, 1.0, size=m)
        target = vals.min()
        for _ in range(diameter(g)):
            vals, _ = local_min_consensus(vals, mask, np.ones(m))
        np.testing.assert_array_equal(vals, np.full(m, target))

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=60),
        st.floats(0.01, 1.0),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_gamma_bounded_on_random_paths(self, seed, steps, c2, strongly_convex):
        # the composition adolf_local_step makes, from gamma_0 = 1; idle agents
        # (L_i = 0) and a loose growth cap let the ratio guard bind
        rng = np.random.default_rng(seed)
        m = 6
        params = StepsizeParams(local=True, strongly_convex=strongly_convex, c1=0.9, c2=c2,
                                eta=0.5, growth=GrowthPolicy(kind="additive", a=1.0))
        mask = closed_mask(topology.make_erdos_renyi(m, 0.5, seed=seed))
        bound = gamma_ratio_bound(c2)
        alpha, gamma = np.full(m, 10.0 ** rng.uniform(-4, 0)), np.ones(m)
        for k in range(1, steps + 1):
            l_vec = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 50.0, size=m))
            if strongly_convex:
                hat = local_candidate_strongly_convex(l_vec, params.sigma, params.c1)
            else:
                hat = curvature_guard(l_vec, params.sigma_bar, params.c1)
            tilde = local_tilde(hat, alpha, gamma, params, k)
            alpha, gamma = local_min_consensus(tilde, mask, alpha)
            assert np.all(gamma <= bound + 1e-12)


@st.composite
def local_rule_cases(draw):
    """Per-agent inputs of one local selection, some agents idle (L_i = 0)
    and some exactly on the shrink/grow boundary (candidate == growth cap)."""
    m = draw(st.integers(1, 7))
    c1 = draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        sigma = dict(strongly_convex=True, sigma=draw(st.floats(0.02, 0.98)) * c1 / 2)
    else:
        sigma = dict(sigma_bar=draw(st.floats(1e-3, 1e3)))
    params = StepsizeParams(
        local=True, c1=c1, c2=draw(st.floats(0.01, 1.0)), eta=draw(st.floats(0.05, 0.95)),
        growth=GrowthPolicy(kind="additive", a=draw(st.floats(1e-6, 1.0))), **sigma,
    )
    k = draw(st.integers(1, 10_000))
    agents = st.lists(st.floats(1e-6, 10.0), min_size=m, max_size=m)
    l_vec = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=m, max_size=m))
    alpha_prev = draw(agents)
    gamma_prev = draw(st.lists(st.floats(0.1, 1.7), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1))):
        hat = scalar_candidate(l_vec[i], params)
        if hat is None:
            continue
        # walk alpha_prev by ulps until its cap lands exactly on the candidate
        a = hat - scalar_cap(0.0, params, k)
        for _ in range(8):
            if not a > 0 or scalar_cap(a, params, k) == hat:
                break
            a = float(np.nextafter(a, np.inf if scalar_cap(a, params, k) < hat else 0.0))
        if a > 0 and scalar_cap(a, params, k) == hat:
            alpha_prev[i] = a
    links = draw(st.lists(st.booleans(), min_size=m * m, max_size=m * m))
    mask = np.array(links).reshape(m, m)
    mask = mask | mask.T | np.eye(m, dtype=bool)
    return np.array(l_vec), np.array(alpha_prev), np.array(gamma_prev), mask, params, k


class TestVectorLocalRule:
    @given(local_rule_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference_bit_for_bit(self, case):
        l_vec, alpha_prev, gamma_prev, mask, params, k = case
        # the composition adolf_local_step makes, over all agents at once
        if params.strongly_convex:
            hat = local_candidate_strongly_convex(l_vec, params.sigma, params.c1)
        else:
            hat = curvature_guard(l_vec, params.sigma_bar, params.c1)
        tilde = local_tilde(hat, alpha_prev, gamma_prev, params, k)
        alpha, gamma = local_min_consensus(tilde, mask, alpha_prev)
        reference = scalar_local_rule(l_vec, alpha_prev, gamma_prev, mask, params, k)
        for got, want in zip((tilde, alpha, gamma), reference):
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want).tobytes()
        assert np.all(alpha > 0.0) and np.all(np.isfinite(alpha))

    def test_boundary_candidate_takes_the_shrink_branch(self):
        params = StepsizeParams(local=True, c1=1.0, eta=0.5,
                                growth=GrowthPolicy(kind="additive", a=0.25))
        alpha_prev = np.array([1.0, 1.0])
        hat = np.array([1.25, np.nextafter(1.25, 2.0)])  # cap at k=1 is exactly 1.25
        tilde = local_tilde(hat, alpha_prev, np.ones(2), params, 1)
        np.testing.assert_array_equal(tilde, [0.5, 1.25])

    def test_non_positive_tilde_is_numeric_error(self):
        mask = np.ones((2, 2), dtype=bool)
        for bad in (0.0, np.inf, np.nan):
            with pytest.raises(NumericError):
                local_min_consensus(np.array([0.1, bad]), mask, np.ones(2))


class TestSchedulesAndPolicies:
    def test_dual_scale_per_regime(self):
        assert StepsizeParams(alpha0=0.5, sigma_bar=2.0).sigma0() == 2.0
        inv = StepsizeParams(strongly_convex=True, c1=0.5, alpha0=0.1, sigma=0.2)
        assert inv.sigma0() == pytest.approx(20.0, rel=1e-15)
        # product sigma_k * alpha_k reduces to sigma / alpha
        assert inv.sigma0() * 0.1 == pytest.approx(2.0, rel=1e-15)

    def test_growth_unbounded(self):
        assert GrowthPolicy().cap(0.3, 5) is None

    def test_growth_additive_summable(self):
        pol = GrowthPolicy(kind="additive", a=6 / math.pi**2)
        increments = [pol.cap(0.0, k) for k in range(1, 200_000)]
        assert sum(increments) == pytest.approx(1.0, abs=1e-4)

    def test_growth_ratio_power(self):
        pol = GrowthPolicy(kind="ratio_power", beta1=10, beta2=1)
        assert pol.cap(1.0, 1) == pytest.approx(11 / 2, rel=1e-15)
        for k in range(1, 40):
            assert pol.cap(0.7, k) >= 0.7

    def test_growth_validation(self):
        with pytest.raises(ParameterError):
            GrowthPolicy(kind="ratio_power", beta1=0.5)
        with pytest.raises(ParameterError):
            GrowthPolicy(kind="additive", a=-1.0)
        with pytest.raises(ParameterError):
            GrowthPolicy(kind="typo")

    def test_params_validation(self):
        with pytest.raises(ParameterError):
            StepsizeParams(local=True, eta=1.5, growth=GrowthPolicy(kind="additive"))
        with pytest.raises(ParameterError):
            StepsizeParams(local=True, growth=GrowthPolicy())  # needs additive
        with pytest.raises(ParameterError):
            StepsizeParams(c1=0.0)
        with pytest.raises(ParameterError):
            StepsizeParams(strongly_convex=True, c1=0.5, sigma=0.25)  # needs sigma < c1/2

    def test_local_state_uniform(self):
        params = StepsizeParams(local=True, alpha0=1e-3, growth=GrowthPolicy(kind="additive"))
        gossip = topology.GossipMatrix(topology.metropolis_hastings(topology.make_line_graph(4)))
        prob = synth_ridge(4, 3, 2, seed=0)
        st_local = adolf_local_step(initial_state(prob, np.zeros((4, 2))), prob, gossip, params)
        np.testing.assert_array_equal(st_local.alpha, np.full(4, 1e-3))
        np.testing.assert_array_equal(st_local.gamma, np.ones(4))

    @pytest.mark.parametrize("alpha0", [1.0e200, 1.0e-320])
    def test_alpha0_must_keep_sigma0_finite(self, alpha0):
        with pytest.raises(ParameterError, match="alpha0"):
            StepsizeParams(strongly_convex=True, c1=0.5, alpha0=alpha0,
                           growth=GrowthPolicy(kind="ratio_power"), sigma=0.2)

    def test_non_finite_constants_rejected(self):
        with pytest.raises(ParameterError):
            StepsizeParams(sigma_bar=math.inf)
        with pytest.raises(ParameterError):
            GrowthPolicy(kind="additive", a=math.inf)
        with pytest.raises(ParameterError):
            GrowthPolicy(kind="ratio_power", beta2=math.nan)

    def test_sigma0(self):
        params = sc_params(sigma=0.2)
        params = StepsizeParams(
            strongly_convex=True,
            c1=0.5,
            alpha0=0.1,
            growth=GrowthPolicy(kind="ratio_power"),
            sigma=0.2,
        )
        assert params.sigma0() == pytest.approx(0.2 / 0.01, rel=1e-15)
