import functools
import itertools
import struct
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decopt import objectives
from decopt.errors import DataError, ParameterError, ShapeError
from decopt.objectives import (
    ProblemInstance,
    centralized_minimize,
    load_mnist_partition,
    ridge_exact_solution,
    synth_logistic,
    synth_ridge,
)
from idx_files import read_idx_images, write_idx_pair
from local_losses import (
    local_gradient,
    local_value,
    loop_average_gradient,
    loop_average_hessian,
    loop_average_value,
    loop_stacked_gradient,
)
from oracles import average_value


def finite_diff_gradient(fn, x, scale=None):
    """Central finite differences with step 1e-5 * (1 + ||x||)."""
    h = 1e-5 * (1.0 + np.linalg.norm(x)) if scale is None else scale
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def one_ridge(a, b, gamma):
    """The one-agent instance of f(x) = (1/n) ||A x - b||^2 + (gamma/2) ||x||^2."""
    return ProblemInstance.ridge(np.asarray(a)[None], np.asarray(b)[None], [gamma])


def one_logistic(a, b):
    """The one-agent instance of f(x) = (1/n) sum_j log(1 + exp(-b_j <x, a_j>))."""
    return ProblemInstance.logistic(np.asarray(a)[None], np.asarray(b)[None])


def value(prob, x):
    """f(x) of a one-agent instance, through its stacked value."""
    return prob.stacked_value(x[None])


def gradient(prob, x):
    """grad f(x) of a one-agent instance, through its stacked gradient."""
    return prob.stacked_gradient(x[None])[0]


def assert_grad_matches_fd(prob, x, rtol=1e-6):
    """The stacked and the averaged gradient each match differences of their values."""
    for grad, fn in ((gradient(prob, x), lambda y: value(prob, y)),
                     (prob.average_gradient(x), functools.partial(average_value, prob))):
        fd = finite_diff_gradient(fn, x)
        assert np.linalg.norm(grad - fd) <= rtol * (1.0 + np.linalg.norm(grad))


class TestRidge:
    def test_hand_gradient(self):
        prob = one_ridge([[1.0]], [0.0], gamma=1.0)
        np.testing.assert_allclose(gradient(prob, np.array([1.0])), [3.0], atol=1e-15)

    def test_zero_at_exact_solution(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
        gamma = 0.7
        prob = one_ridge(a, b, gamma)
        # oracle: normal equations of the single objective
        x_star = np.linalg.solve((2 / 6) * a.T @ a + gamma * np.eye(4), (2 / 6) * a.T @ b)
        assert np.linalg.norm(gradient(prob, x_star)) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_fd_match(self, seed):
        rng = np.random.default_rng(seed)
        prob = one_ridge(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.3)
        assert_grad_matches_fd(prob, rng.standard_normal(3))

    def test_strong_convexity_inequality(self):
        rng = np.random.default_rng(1)
        prob = one_ridge(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.5)
        for _ in range(10):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lower = (value(prob, x) + gradient(prob, x) @ (y - x)
                     + 0.5 * prob.gammas[0] * np.sum((y - x) ** 2))
            assert value(prob, y) >= lower - 1e-10

    def test_shape_error(self):
        prob = one_ridge(np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(ShapeError):
            prob.stacked_gradient(np.zeros((1, 3)))

    def test_gamma_positive(self):
        with pytest.raises(ParameterError):
            one_ridge(np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(ParameterError):
            ProblemInstance.ridge(np.zeros((2, 2, 2)), np.zeros((2, 2)), [0.5, -0.1])

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan])
    def test_every_agents_gamma_checked(self, bad):
        gammas = [0.5, 1.0, bad]  # only the last agent's is wrong
        with pytest.raises(ParameterError, match="positive"):
            ProblemInstance.ridge(np.zeros((3, 4, 2)), np.zeros((3, 4)), gammas)

    def test_gamma_finite(self):
        # an inf coefficient passed `gammas > 0` and made the reference x* NaN
        with pytest.raises(ParameterError, match="positive and finite"):
            ProblemInstance.ridge(np.zeros((4, 2, 3)), np.zeros((4, 2)), [1, np.inf, 1, 1])

    def test_slab_shapes_checked(self):
        a, b = np.zeros((3, 4, 2)), np.zeros((3, 4))
        for bad in [(a[0], b[0], [1.0]), (a, b[:2], [1.0] * 3), (a, b.T, [1.0] * 3),
                    (a, b, [1.0] * 2), (a, b, [[1.0] * 3])]:
            with pytest.raises(ShapeError):
                ProblemInstance.ridge(*bad)
        with pytest.raises(ParameterError, match="at least one agent"):
            ProblemInstance.ridge(a[:0], b[:0], [])


# ±0, ±tiny, ±1, the range where exp(-t) overflows or 1 + exp(-t) rounds to
# 1 (|t| from 708 to 746), ±inf and NaN
EXPIT_EDGES = np.array(
    [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, np.inf, -np.inf, np.nan]
    + [s * t for t in (708.0, 709.0, 709.7, 710.0, 720.0, 744.0, 745.0, 745.2, 746.0)
       for s in (1.0, -1.0)])

# ±0, ±tiny, ±1, where exp(-|t|) nears the rounding of 1 + exp(-|t|) (36.7),
# overflows (709) and underflows to 0 (745), ±huge, ±inf and NaN
SOFTPLUS_EDGES = np.array(
    [0.0, -0.0, np.nan] + [s * t for t in (1e-300, 1.0, 36.7, 709.0, 745.0, 1e308, np.inf)
                           for s in (1.0, -1.0)])


class TestLogistic:
    def test_value_gradient_at_zero(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 3))
        b = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        prob = one_logistic(a, b)
        assert value(prob, np.zeros(3)) == pytest.approx(np.log(2.0), abs=1e-12)
        expected = -(a.T @ b) / (2 * 8)
        np.testing.assert_allclose(gradient(prob, np.zeros(3)), expected, atol=1e-12)

    def test_saturated_sigmoid_no_overflow(self):
        prob = one_logistic([[1.0]], [1.0])
        g = gradient(prob, np.array([50.0]))
        assert np.all(np.isfinite(g))
        assert abs(g[0]) < 1e-20

    def test_extreme_margins_finite(self):
        prob = one_logistic([[1.0], [-1.0]], [1.0, 1.0])
        for t in (-700.0, -100.0, 0.0, 100.0, 700.0):
            x = np.array([t])
            assert np.isfinite(value(prob, x)) and np.isfinite(average_value(prob, x))
            assert np.all(np.isfinite(gradient(prob, x)))
            assert np.all(np.isfinite(prob.average_gradient(x)))

    def test_expit_matches_scipy(self):
        from scipy.special import expit  # the reference; decopt itself never loads scipy

        got = objectives._expit(EXPIT_EDGES.copy())
        want = expit(EXPIT_EDGES)
        assert np.array_equal(np.isnan(got), np.isnan(EXPIT_EDGES))
        finite = ~np.isnan(EXPIT_EDGES)
        np.testing.assert_array_max_ulp(got[finite], want[finite], maxulp=1)
        # elsewhere numpy's exp and the C library's differ by up to 1 ulp, and
        # 1 + e and 1 / (1 + e) each round once on either side: 3 eps relative
        t = np.concatenate([np.linspace(-700.0, 700.0, 30001),
                            30.0 * np.random.default_rng(0).standard_normal(10_000)])
        np.testing.assert_allclose(objectives._expit(t.copy()), expit(t),
                                   rtol=3 * np.finfo(float).eps, atol=0.0)

    def test_expit_is_the_numpy_formula_in_place(self):
        t = np.concatenate([EXPIT_EDGES, np.linspace(-750.0, 750.0, 30001)])
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-t))
        got = t.copy()
        assert objectives._expit(got) is got
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))

    def test_expit_overflow_is_not_an_error(self):
        with np.errstate(all="raise"):
            assert objectives._expit(np.array([-800.0]))[0] == 0.0

    def test_softplus_mean_at_the_edges(self):
        # one margin a row, so that each mean is that margin's softplus; CI runs
        # the logistic presets with RuntimeWarnings as errors, so none may warn
        t = SOFTPLUS_EDGES[:, None].copy()
        with np.errstate(all="raise"):
            got = objectives._softplus_mean(t, np.empty_like(t))
        with np.errstate(invalid="ignore"):  # at NaN
            want = np.logaddexp(0.0, -SOFTPLUS_EDGES)
        wide = SOFTPLUS_EDGES.astype(np.longdouble)
        exact = (np.maximum(-wide, 0.0) + np.log1p(np.exp(-np.abs(wide)))).astype(float)
        for ref in (want, exact):
            assert np.array_equal(np.isnan(got), np.isnan(ref))
            finite = ~np.isnan(ref)
            np.testing.assert_array_max_ulp(got[finite], ref[finite], maxulp=2)

    @pytest.mark.parametrize("n", [50, 600, 5000])  # the fig1 and the MNIST shape, and more
    def test_softplus_mean_of_many_margins(self, n):
        # both parts are summed pairwise, so the rounding of the mean barely
        # grows with n (summed in order, the positive part was 15 ulps off at 5000)
        t = 30.0 * np.random.default_rng(n).standard_normal((200, n))
        want = np.mean(np.logaddexp(0.0, -t), axis=-1)
        exact = np.mean(np.logaddexp(0.0, -t.astype(np.longdouble)), axis=-1).astype(float)
        with np.errstate(all="raise"):
            got = objectives._softplus_mean(t.copy(), np.empty_like(t))
        np.testing.assert_array_max_ulp(got, want, maxulp=8)
        np.testing.assert_array_max_ulp(got, exact, maxulp=3)

    def test_softplus_mean_is_computed_in_its_array(self):
        t = np.random.default_rng(1).standard_normal((4, 20_000))
        low = np.empty_like(t)
        tracemalloc.start()
        try:
            objectives._softplus_mean(t, low)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < t.nbytes / 8  # no float copy of t, and no sign mask either
        assert np.all((0.0 < t) & (t <= np.log(2.0)))  # t now holds log1p(exp(-|t|))
        assert np.all(low <= 0.0)  # and low min(t, 0)

    def test_product_buffer_is_kept_per_instance_and_thread(self):
        prob = objectives.synth_logistic(m=2, n=3, d=2, seed=0)
        kept = prob._product_buffer((3, 4))
        assert np.shares_memory(kept, prob._product_buffer((2, 5)))
        assert not np.shares_memory(kept, prob._product_buffer((4, 4)))  # it grew
        other = objectives.synth_logistic(m=2, n=3, d=2, seed=0)
        assert not np.shares_memory(other._product_buffer((3, 4)), prob._products.buf)
        with ThreadPoolExecutor(1) as pool:
            theirs = pool.submit(prob._product_buffer, (3, 4)).result()
        assert not np.shares_memory(theirs, prob._products.buf)

    def test_stacked_gradient_makes_one_product_size_array(self):
        # the gradient and its weights, with no temporary of the weights' size beside them
        prob = objectives.synth_logistic(m=20, n=400, d=30, seed=0)
        assert prob.lanes == 1
        x = np.random.default_rng(1).standard_normal((prob.m, prob.d))
        prob.stacked_gradient(x)
        tracemalloc.start()
        try:
            grad = prob.stacked_gradient(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grad.nbytes + 8 * prob.m * prob.n + 16 * 1024

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_fd_match(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 4))
        b = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        assert_grad_matches_fd(one_logistic(a, b), rng.standard_normal(4))

    def test_labels_validated(self):
        with pytest.raises(ParameterError):
            one_logistic(np.eye(2), np.array([1.0, 0.5]))

    @pytest.mark.parametrize("bad", [0.0, -0.5, 2.0, np.nan])
    def test_every_agents_labels_checked(self, bad):
        b = np.ones((3, 4))
        b[2, 3] = bad  # only the last sample of the last agent is wrong
        with pytest.raises(ParameterError, match="labels"):
            ProblemInstance.logistic(np.zeros((3, 4, 2)), b)

    def test_slab_shapes_checked(self):
        with pytest.raises(ShapeError):
            ProblemInstance.logistic(np.eye(2), np.ones(2))
        with pytest.raises(ShapeError):
            ProblemInstance.logistic(np.zeros((2, 3, 4)), np.ones((3, 2)))


class TestProblemInstance:
    def test_stacked_gradient_matches_loop(self):
        prob = synth_ridge(m=5, n=4, d=3, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        np.testing.assert_allclose(prob.stacked_gradient(x), loop_stacked_gradient(prob, x),
                                   atol=1e-13)

    def test_stacked_gradient_logistic_matches_loop(self):
        prob = synth_logistic(m=4, n=6, d=3, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3))
        np.testing.assert_allclose(prob.stacked_gradient(x), loop_stacked_gradient(prob, x),
                                   atol=1e-13)

    def test_single_agent_reduction(self):
        prob = synth_ridge(m=1, n=4, d=3, seed=0)
        x = np.ones((1, 3))
        np.testing.assert_allclose(
            prob.stacked_gradient(x)[0], local_gradient(prob, 0, x[0]), atol=1e-14
        )

    def test_stack_shape_error(self):
        prob = synth_ridge(m=3, n=4, d=2, seed=0)
        with pytest.raises(ShapeError):
            prob.stacked_gradient(np.zeros((2, 2)))

    def test_column_gradients_match_stacked_gradient(self):
        ridge = synth_ridge(4, 5, 3, seed=2)
        x = np.random.default_rng(5).standard_normal((4, 6, 3))
        for prob in (ridge, synth_logistic(4, 5, 3, seed=2)):
            expected = np.stack([prob.stacked_gradient(x[:, g]) for g in range(6)], axis=1)
            np.testing.assert_allclose(prob.column_gradients(x), expected, rtol=1e-12,
                                       atol=1e-14)
        with pytest.raises(ShapeError):
            ridge.column_gradients(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            ridge.column_gradients(np.zeros((4, 2, 2)))

    def test_stacked_gradient_hands_over_the_own_products(self):
        # the products the gradient was formed from, with the bits of the one-column
        # own product, and F from them with stacked_value's bits
        for prob in (synth_ridge(4, 5, 3, seed=2), synth_logistic(4, 5, 3, seed=2)):
            x = np.random.default_rng(5).standard_normal((4, 3))
            grad, own = prob.stacked_gradient(x, products=True)
            assert np.array_equal(grad, prob.stacked_gradient(x))
            assert own.shape == (prob.m, prob.n)
            assert np.array_equal(own, prob._own(x[:, None], 0, prob.m)[:, 0])
            np.testing.assert_allclose(own, np.einsum("mnd,md->mn", prob.a, x), rtol=1e-12)
            value = prob.value_from_products(own, x)
            assert value == prob.stacked_value(x)
            assert value == pytest.approx(sum(local_value(prob, i, x[i]) for i in range(prob.m)),
                                          rel=1e-12)

    def test_average_values_at_any_number_of_rows(self):
        # a trace batch passes the stacks of several rows at once
        for prob in (synth_ridge(4, 5, 3, seed=2), synth_logistic(4, 5, 3, seed=2)):
            x = np.random.default_rng(6).standard_normal((7, 3))
            expected = [loop_average_value(prob, r) for r in x]
            np.testing.assert_allclose(prob.average_values_at_rows(x), expected, rtol=1e-12)
            for bad in (np.zeros((0, 3)), np.zeros((4, 2)), np.zeros(3)):
                with pytest.raises(ShapeError):
                    prob.average_values_at_rows(bad)

    def test_average_values_at_rows_matches_loop(self):
        for prob in (synth_ridge(4, 5, 3, seed=2), synth_logistic(4, 5, 3, seed=2)):
            rng = np.random.default_rng(3)
            x = rng.standard_normal((4, 3))
            expected = [loop_average_value(prob, r) for r in x]
            np.testing.assert_allclose(prob.average_values_at_rows(x), expected, rtol=1e-12)

    def test_average_gradient_matches_loop(self):
        for prob in (synth_ridge(4, 5, 3, seed=2), synth_logistic(4, 5, 3, seed=2)):
            rng = np.random.default_rng(4)
            x = rng.standard_normal(3)
            np.testing.assert_allclose(prob.average_gradient(x),
                                       loop_average_gradient(prob, x), atol=1e-13)
            assert average_value(prob, x) == pytest.approx(loop_average_value(prob, x),
                                                          rel=1e-12)

    # d = 5 instances from each generator and from caller arrays
    BUILDS = {"ridge": lambda: synth_ridge(3, 4, 5, seed=1),
              "logistic": lambda: synth_logistic(3, 4, 5, seed=1),
              "unordered": lambda: unordered_ridge(1, d=5)}

    def test_unordered_gammas_match_loop(self):
        # each agent keeps its own coefficient in every evaluator, not a ramp
        prob = unordered_ridge(6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((prob.m, prob.d))
        own = sum(local_value(prob, i, r) for i, r in enumerate(x))
        assert prob.stacked_value(x) == pytest.approx(own, rel=1e-12)
        np.testing.assert_allclose(prob.stacked_gradient(x), loop_stacked_gradient(prob, x),
                                   atol=1e-13)
        rows = [loop_average_value(prob, r) for r in x]
        np.testing.assert_allclose(prob.average_values_at_rows(x), rows, rtol=1e-12)
        value_, grad = prob.average_value_and_gradient(x[0])
        assert value_ == pytest.approx(loop_average_value(prob, x[0]), rel=1e-12)
        np.testing.assert_allclose(grad, loop_average_gradient(prob, x[0]), atol=1e-13)

    # (m, n, d) all distinct, so a transposed or misshaped margin product shows
    KERNEL_SHAPES = [(4, 5, 3), (6, 2, 9), (3, 7, 11), (1, 3, 2)]

    @pytest.mark.parametrize("m, n, d", KERNEL_SHAPES)
    @pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
    def test_batch_kernels_match_loop(self, synth, m, n, d):
        prob = synth(m, n, d, seed=7)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((m, d))
        own = sum(local_value(prob, i, r) for i, r in enumerate(x))
        assert prob.stacked_value(x) == pytest.approx(own, rel=1e-12)
        rows = [loop_average_value(prob, r) for r in x]
        np.testing.assert_allclose(prob.average_values_at_rows(x), rows, rtol=1e-12)
        point = x[-1]
        assert average_value(prob, point) == pytest.approx(loop_average_value(prob, point),
                                                          rel=1e-12)
        np.testing.assert_allclose(prob.average_gradient(point),
                                   loop_average_gradient(prob, point), atol=1e-13)

    @pytest.mark.parametrize("m, n, d", KERNEL_SHAPES)
    @pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
    def test_stacked_gradient_is_one_column(self, synth, m, n, d):
        prob = synth(m, n, d, seed=7)
        x = np.random.default_rng(9).standard_normal((m, d))
        one = prob.column_gradients(x[:, None])[:, 0]
        assert np.array_equal(prob.stacked_gradient(x), one)

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_fused_average_is_the_two_calls(self, build):
        prob = self.BUILDS[build]()
        for seed in range(3):
            x = np.random.default_rng(seed).standard_normal(prob.d)
            val, grad = prob.average_value_and_gradient(x)
            assert val == average_value(prob, x)
            assert np.array_equal(grad, prob.average_gradient(x))

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_average_is_the_stacked_kernels_at_the_consensus_stack(self, build):
        # f(x) = F(X) / m and grad f(x) the mean of grad F(X)'s rows at X = 1 x^T, bit for bit
        prob = self.BUILDS[build]()
        for seed, scale in ((0, 1.0), (1, 1.0), (2, 40.0)):
            x = scale * np.random.default_rng(seed).standard_normal(prob.d)
            stack = np.tile(x, (prob.m, 1))
            val, grad = prob.average_value_and_gradient(x)
            assert val == prob.stacked_value(stack) / prob.m
            assert np.array_equal(grad, prob.stacked_gradient(stack).mean(axis=0))

    @pytest.mark.parametrize("m, n, d", KERNEL_SHAPES)
    @pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
    def test_average_hessian_matches_loop(self, synth, m, n, d):
        # float32 terms and sums: agreement to a few float32 rounding units
        prob = synth(m, n, d, seed=7)
        x = np.random.default_rng(10).standard_normal(d)
        hess = prob.average_hessian(x)
        assert hess.dtype == np.float32 and hess.shape == (d, d)
        want = loop_average_hessian(prob, x)
        np.testing.assert_allclose(np.tril(hess), np.tril(want), rtol=0,
                                   atol=1e-6 * np.abs(want).max())

    def test_average_hessian_block_columns(self, monkeypatch):
        # several block columns and a ragged last one: the lower triangle is
        # the Hessian's, and nothing right of the diagonal blocks is set
        monkeypatch.setattr(objectives, "HESSIAN_BLOCK", 4)
        prob = synth_logistic(3, 5, 11, seed=2)
        x = np.random.default_rng(12).standard_normal(prob.d)
        hess, want = prob.average_hessian(x), loop_average_hessian(prob, x)
        np.testing.assert_allclose(np.tril(hess), np.tril(want), rtol=0,
                                   atol=1e-6 * np.abs(want).max())
        blocks = np.kron(np.eye(3), np.ones((4, 4)))[:11, :11]
        assert np.all(hess[np.triu(1 - blocks, 1) > 0] == 0)

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_average_hessian_matches_gradient_differences(self, build):
        prob = self.BUILDS[build]()
        x = 0.5 * np.random.default_rng(11).standard_normal(prob.d)
        columns = [finite_diff_gradient(lambda t, j=j: prob.average_gradient(t)[j], x)
                   for j in range(prob.d)]
        differences = np.array(columns)
        np.testing.assert_allclose(np.tril(prob.average_hessian(x)), np.tril(differences),
                                   rtol=0, atol=1e-6 * np.abs(differences).max())

    @pytest.mark.parametrize("d", [5, 11])
    def test_factor_solves_with_the_hessian(self, monkeypatch, d):
        # one block, and three with a ragged last one
        monkeypatch.setattr(objectives, "HESSIAN_BLOCK", 4 if d == 11 else 128)
        prob = synth_logistic(3, 20, d, seed=3)
        x = 0.3 * np.random.default_rng(13).standard_normal(d)
        factor = objectives._Factor(prob.average_hessian(x))
        g = np.random.default_rng(14).standard_normal(d)
        step = factor.solve(g)
        assert step.dtype == np.float64
        np.testing.assert_allclose(loop_average_hessian(prob, x) @ step, g, rtol=0,
                                   atol=1e-4 * np.linalg.norm(g))

    def test_factor_refuses_an_indefinite_matrix(self):
        with pytest.raises(np.linalg.LinAlgError):
            objectives._Factor(np.diag([1.0, -1.0, 2.0]).astype(np.float32))

    @pytest.mark.parametrize("build", list(BUILDS))
    def test_average_point_shape_checked(self, build):
        prob = self.BUILDS[build]()
        for shape in [(prob.d - 1,), (1, prob.d), (prob.d, 1), ()]:
            for method in (functools.partial(average_value, prob), prob.average_gradient,
                           prob.average_value_and_gradient, prob.average_hessian):
                with pytest.raises(ShapeError):
                    method(np.zeros(shape))


class TestSynthGenerators:
    def test_ridge_gamma_ramp(self):
        prob = synth_ridge(m=20, n=4, d=3, seed=0)
        assert np.array_equal(prob.gammas, [0.1 + i * 0.1 for i in range(20)])

    def test_ridge_paper_shapes(self):
        prob = synth_ridge(m=3, n=20, d=500, seed=0)
        assert prob.a.shape == (3, 20, 500) and prob.b.shape == (3, 20)
        assert (prob.loss, prob.m, prob.n, prob.d) == ("ridge", 3, 20, 500)

    def test_ridge_deterministic(self):
        p1, p2 = synth_ridge(3, 4, 5, seed=9), synth_ridge(3, 4, 5, seed=9)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)

    def test_logistic_deterministic_and_noisy(self):
        p1 = synth_logistic(3, 50, 4, seed=9, noise=0.2)
        p2 = synth_logistic(3, 50, 4, seed=9, noise=0.2)
        assert np.array_equal(p1.b, p2.b)
        assert set(np.unique(p1.b)) <= {-1.0, 1.0}
        assert p1.loss == "logistic" and p1.gammas is None


class TestMnist:
    def test_parse_counts(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(30, 4, 4))
        labels = rng.integers(0, 10, size=30)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        assert read_idx_images(img).shape == (30, 16)
        assert objectives.read_idx_labels(lbl).shape == (30,)

    def test_partition(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = np.array([0, 1] * 11 + [7] * 8)  # 22 kept, 8 dropped
        images = rng.integers(0, 256, size=(30, 2, 2))
        img, lbl = write_idx_pair(tmp_path, images, labels)
        prob = load_mnist_partition(img, lbl, m=4, digit_pair=(0, 1), seed=0)
        assert prob.m == 4
        assert prob.n == 5  # 22 // 4, remainder dropped
        assert prob.d == 4
        assert prob.a.min() >= 0.0 and prob.a.max() <= 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as f:
            f.write(struct.pack("<IIII", 0x00000803, 1, 2, 2))  # little-endian: swapped
            f.write(bytes(4))
        with pytest.raises(DataError):
            read_idx_images(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 10, 2, 2))
            f.write(bytes(3))
        with pytest.raises(DataError):
            read_idx_images(path)

    def test_oversized_header(self, tmp_path):
        # headers that promise far more than the file holds: rejected before any read
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 100_000, 1000, 1000) + bytes(24))
        labels.write_bytes(struct.pack(">II", 0x00000801, 10**9) + bytes(32))
        with pytest.raises(DataError, match="promises 100000000000 bytes, the file holds 24"):
            read_idx_images(images)
        with pytest.raises(DataError, match="promises 1000000000 bytes, the file holds 32"):
            objectives.read_idx_labels(labels)

    def test_partition_errors_name_their_key(self, tmp_path):
        rng = np.random.default_rng(4)
        img, lbl = write_idx_pair(tmp_path, rng.integers(0, 256, size=(6, 2, 2)),
                                  np.array([0, 1] * 3))
        good_img, good_lbl = img.read_bytes(), lbl.read_bytes()
        img.write_bytes(good_img[:-1])
        with pytest.raises(DataError, match=r"^problem\.images_path: truncated pixel data"):
            load_mnist_partition(img, lbl, m=2)
        img.write_bytes(good_img)
        lbl.write_bytes(struct.pack(">II", 0x00000803, 6) + good_lbl[8:])
        with pytest.raises(DataError, match=r"^problem\.labels_path: bad magic"):
            load_mnist_partition(img, lbl, m=2)
        lbl.write_bytes(good_lbl[:-2])
        with pytest.raises(DataError, match=r"^problem\.labels_path: truncated label data"):
            load_mnist_partition(img, lbl, m=2)
        lbl.write_bytes(struct.pack(">II", 0x00000801, 4) + good_lbl[8:12])
        with pytest.raises(DataError, match=r"^problem\.labels_path: 4 labels"):
            load_mnist_partition(img, lbl, m=2)

    def test_partition_needs_an_agent(self, tmp_path):
        rng = np.random.default_rng(5)
        img, lbl = write_idx_pair(tmp_path, rng.integers(0, 256, size=(4, 2, 2)),
                                  np.array([0, 1, 0, 1]))
        with pytest.raises(ParameterError, match="m must be >= 1"):
            load_mnist_partition(img, lbl, m=0)

    def test_insufficient_samples(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(6, 2, 2))
        labels = np.array([0, 1, 2, 3, 4, 5])
        img, lbl = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(DataError):
            load_mnist_partition(img, lbl, m=5, digit_pair=(0, 1), seed=0)

    def test_same_digit_rejected(self, tmp_path):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(4, 2, 2))
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(4, dtype=int))
        with pytest.raises(ParameterError):
            load_mnist_partition(img, lbl, m=2, digit_pair=(1, 1), seed=0)


def old_synth_ridge(m, n, d, seed):
    """Per-agent draws as synth_ridge made them before the slab: the reference data."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n, d)), rng.standard_normal(n)) for _ in range(m)]


def old_synth_logistic(m, n, d, seed, noise=0.1):
    rng = np.random.default_rng(seed)
    planted = rng.standard_normal(d) / np.sqrt(d)
    data = []
    for _ in range(m):
        a = rng.standard_normal((n, d))
        b = np.where(a @ planted >= 0.0, 1.0, -1.0)
        b[rng.random(n) < noise] *= -1.0
        data.append((a, b))
    return data


def old_mnist_partition(images_path, labels_path, m, digit_pair, seed):
    images = read_idx_images(images_path)
    labels = objectives.read_idx_labels(labels_path)
    keep = (labels == digit_pair[0]) | (labels == digit_pair[1])
    feats = images[keep] / 255.0
    signs = np.where(labels[keep] == digit_pair[0], 1.0, -1.0)
    order = np.random.default_rng(seed).permutation(feats.shape[0])
    feats, signs = feats[order], signs[order]
    n = feats.shape[0] // m
    return [(feats[i * n:(i + 1) * n], signs[i * n:(i + 1) * n]) for i in range(m)]


class TestSlab:
    """Built instances keep one read-only copy of their data; user arrays are copied."""

    def mnist(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(53, 3, 4))
        labels = rng.integers(0, 10, size=53)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        return (load_mnist_partition(img, lbl, m=3, digit_pair=(7, 2), seed=5),
                old_mnist_partition(img, lbl, 3, (7, 2), 5))

    def built(self, tmp_path):
        """(instance, reference data) for every generator and loader."""
        return [(synth_ridge(4, 6, 5, seed=3), old_synth_ridge(4, 6, 5, 3)),
                (synth_logistic(4, 6, 5, seed=3), old_synth_logistic(4, 6, 5, 3)),
                self.mnist(tmp_path)]

    def test_data_is_the_per_agent_draws(self, tmp_path):
        for prob, ref in self.built(tmp_path):
            assert prob.m == len(ref)
            for got_a, got_b, (a, b) in zip(prob.a, prob.b, ref):
                assert got_a.dtype == a.dtype and np.array_equal(got_a, a)
                assert got_b.dtype == b.dtype and np.array_equal(got_b, b)
            if prob.loss == "ridge":
                np.testing.assert_array_equal(prob.gammas, [0.1 + 0.1 * i for i in range(prob.m)])

    def test_built_slabs_are_adopted_not_copied(self, tmp_path, monkeypatch):
        adopted = []
        frozen_array = objectives._frozen_array

        def spy(a, dtype=float):
            out = frozen_array(a, dtype)
            if isinstance(a, np.ndarray):
                adopted.append(out is a)
            return out

        monkeypatch.setattr(objectives, "_frozen_array", spy)
        built = self.built(tmp_path)
        assert adopted == [True] * 2 * len(built)  # every a and b slab handed over
        for prob, _ in built:
            assert np.shares_memory(prob.a_flat, prob.a)
            for array in (prob.a, prob.b, prob.a_flat, prob.gammas):
                if array is not None:
                    with pytest.raises(ValueError):
                        array[0] = 1.0

    def test_views_of_a_read_only_slab(self):
        prob = synth_logistic(4, 6, 5, seed=3)
        x = np.random.default_rng(8).standard_normal((4, 5))
        cases = [(prob.a[1:], prob.b[1:], True), (prob.a[::-1], prob.b[::-1], False),
                 (prob.a[:, :, 1:], prob.b, False), (prob.a[[0, 0, 0, 0]], prob.b, False)]
        for a, b, adopted in cases:
            sub = ProblemInstance.logistic(a, b)
            # a contiguous view nothing can write is adopted; a strided view or an
            # index copy becomes a new contiguous slab
            assert np.shares_memory(sub.a, prob.a) == adopted
            assert sub.a.flags.c_contiguous and not sub.a.flags.writeable
            flat = sub.a_flat
            assert np.shares_memory(flat, sub.a) and not flat.flags.writeable
            np.testing.assert_allclose(sub.stacked_gradient(x[:sub.m, :sub.d]),
                                       loop_stacked_gradient(sub, x[:sub.m, :sub.d]),
                                       atol=1e-13)

    def test_fields_cannot_be_reassigned(self):
        prob = synth_ridge(3, 4, 2, seed=0)
        for name in ("loss", "lanes", "a", "b", "gammas", "m", "n", "d"):
            with pytest.raises(AttributeError):
                setattr(prob, name, getattr(prob, name))

    @pytest.mark.parametrize("loss", ["ridge", "logistic"])
    def test_integer_arrays_become_float(self, loss):
        rng = np.random.default_rng(9)
        a = rng.integers(-3, 4, size=(3, 4, 2))
        b = np.where(rng.random((3, 4)) < 0.5, 1, -1)
        args = {"ridge": lambda a, b: (a, b, [1, 2, 3]), "logistic": lambda a, b: (a, b)}[loss]
        build = getattr(ProblemInstance, loss)
        prob, ref = build(*args(a, b)), build(*args(a.astype(float), b.astype(float)))
        for array in (prob.a, prob.b, prob.gammas):
            assert array is None or array.dtype == np.float64
        x = rng.standard_normal((3, 2))
        assert prob.stacked_value(x) == ref.stacked_value(x)
        assert np.array_equal(prob.stacked_gradient(x), ref.stacked_gradient(x))

    def test_user_arrays_are_copied(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4, 3))
        b = np.where(rng.random((3, 4)) < 0.5, 1.0, -1.0)
        gammas = np.full(3, 0.5)
        frozen_view = a.view()  # read-only, but its owner is writable
        frozen_view.setflags(write=False)
        ridge = ProblemInstance.ridge(a, b, gammas)
        logistic = ProblemInstance.logistic(frozen_view, b)
        x = rng.standard_normal((3, 3))
        before = [(p.stacked_value(x), p.stacked_gradient(x)) for p in (ridge, logistic)]
        for prob in (ridge, logistic):
            for mine, theirs in ((prob.a, a), (prob.b, b), (prob.a_flat, a)):
                assert not np.shares_memory(mine, theirs)
        assert not np.shares_memory(ridge.gammas, gammas)
        a += 1.0
        b *= -1.0
        gammas *= 2.0
        after = [(p.stacked_value(x), p.stacked_gradient(x)) for p in (ridge, logistic)]
        for (v0, g0), (v1, g1) in zip(before, after):
            assert v0 == v1 and np.array_equal(g0, g1)

    def test_buffer_owned_memory_is_copied(self):
        # a read-only view of a bytearray: the buffer stays writable, so the
        # instance copies it
        rng = np.random.default_rng(6)
        a = rng.standard_normal((3, 4, 3))
        raw = bytearray(a.tobytes())
        flat = np.frombuffer(raw)
        flat.setflags(write=False)
        view = flat.reshape(a.shape)  # read-only down to the bytearray
        prob = ProblemInstance.ridge(view, np.ones((3, 4)), np.full(3, 0.5))
        assert not np.shares_memory(prob.a, view) and np.array_equal(prob.a, a)
        np.frombuffer(raw)[:] += 1.0
        assert not np.array_equal(view, a) and np.array_equal(prob.a, a)


class TestConvexity:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_midpoint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        probs = [
            one_ridge(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.4),
            one_logistic(rng.standard_normal((5, 3)), np.where(rng.random(5) < 0.5, 1.0, -1.0)),
        ]
        for prob in probs:
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            mid = value(prob, (x + y) / 2)
            assert mid <= (value(prob, x) + value(prob, y)) / 2 + 1e-12


def summed_normal_equations_solution(problem):
    """The normal-equation solve with a fresh (2/n) (A^T A) + gamma I per
    agent: the reference ridge_exact_solution's in-place build must match."""
    d, n = problem.d, problem.n
    h = np.zeros((d, d))
    rhs = np.zeros(d)
    for a, b, gamma in zip(problem.a, problem.b, problem.gammas):
        h += (2.0 / n) * (a.T @ a) + gamma * np.eye(d)
        rhs += (2.0 / n) * (a.T @ b)
    x = np.linalg.solve(h, rhs)
    x -= np.linalg.solve(h, h @ x - rhs)
    return x


def unordered_ridge(seed, d=9):
    """Agents with unequal, unordered coefficients, built from caller arrays."""
    rng = np.random.default_rng(seed)
    return ProblemInstance.ridge(rng.standard_normal((4, 7, d)), rng.standard_normal((4, 7)),
                                 [1.7, 0.03, 0.45, 2.9])


class TestRidgeExactSolution:
    @pytest.mark.parametrize("make", [
        lambda: synth_ridge(m=5, n=3, d=12, seed=1),   # n < d
        lambda: synth_ridge(m=4, n=40, d=7, seed=2),   # n > d
        lambda: synth_ridge(m=1, n=6, d=6, seed=3),    # one agent
        lambda: synth_ridge(m=6, n=20, d=150, seed=4),  # blocked BLAS products
        lambda: unordered_ridge(5),                    # unequal gamma
    ])
    def test_bit_identical_to_summed_terms(self, make):
        prob = make()
        assert np.array_equal(ridge_exact_solution(prob),
                              summed_normal_equations_solution(prob))

    def test_only_for_ridge(self):
        with pytest.raises(ParameterError, match="ridge"):
            ridge_exact_solution(synth_logistic(m=2, n=3, d=2, seed=0))


class TestCentralizedMinimize:
    def test_hand_solved_ridge(self):
        # single agent, A=[[1]], b=[2], gamma=2: (2 + 2) x = 4 so x* = 1
        prob = one_ridge([[1.0]], [2.0], 2.0)
        np.testing.assert_allclose(ridge_exact_solution(prob), [1.0], atol=1e-14)
        np.testing.assert_allclose(centralized_minimize(prob, tol=1e-12), [1.0], atol=1e-10)

    def test_chord_finish_ends_on_an_exact_zero_gradient(self):
        # the hand-solved ridge's chord step lands on x* = 1 with a zero
        # gradient, which no further step can cut: the finish ends there
        # instead of taking zero-length steps until the budget runs out
        prob = one_ridge([[1.0]], [2.0], 2.0)
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=1e-12, counts=counts)
        assert np.array_equal(prob.average_gradient(x), [0.0])
        assert counts.hessians == 1 and 1 <= counts.chord_steps <= 3

    def test_matches_normal_equations(self):
        prob = synth_ridge(m=4, n=6, d=5, seed=3)
        x_exact = ridge_exact_solution(prob)
        x_iter = centralized_minimize(prob, tol=1e-12)
        assert np.linalg.norm(x_iter - x_exact) <= 1e-8

    def test_symmetric_logistic_zero(self):
        a = np.array([[1.0, 0.5], [1.0, 0.5]])
        prob = one_logistic(a, [1.0, -1.0])
        x = centralized_minimize(prob, tol=1e-12)
        assert np.linalg.norm(x) <= 1e-10

    def test_gradient_norm_postcondition(self):
        prob = synth_logistic(m=3, n=30, d=5, seed=4, noise=0.15)
        x = centralized_minimize(prob, tol=1e-12)
        assert np.linalg.norm(prob.average_gradient(x)) <= 1e-12

    def test_high_accuracy_logistic(self):
        prob = synth_logistic(m=10, n=20, d=10, seed=5, noise=0.1)
        x = centralized_minimize(prob, tol=5e-14)
        assert np.linalg.norm(prob.average_gradient(x)) <= 5e-14

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.inf, np.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # inf would stop at the start point, nan would never stop
        prob = synth_logistic(m=2, n=20, d=6, seed=6, noise=0.1)
        with pytest.raises(ParameterError, match="positive and finite"):
            centralized_minimize(prob, tol=tol, max_iter=50)

    def test_chord_finish_reaches_the_rounding_floor(self):
        # the fig1 preset's shape: one Hessian, then chord steps far below tol
        prob = synth_logistic(m=20, n=50, d=20, seed=1, noise=0.1)
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=1e-10, counts=counts)
        assert np.linalg.norm(prob.average_gradient(x)) <= 1e-15
        assert counts.hessians == 1 and counts.chord_steps > 0
        assert counts.evaluations > 2  # the start, the probe and accelerated steps

    def test_chord_finish_on_ridge_matches_normal_equations(self):
        prob = synth_ridge(m=4, n=6, d=5, seed=3)
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=1e-12, counts=counts)
        assert counts.hessians >= 1
        np.testing.assert_allclose(x, ridge_exact_solution(prob), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("make, tol", [
        (lambda: synth_logistic(m=3, n=30, d=5, seed=4, noise=0.15), 1e-2),  # tol above the start
        (lambda: synth_ridge(m=2, n=3, d=10, seed=5), 1e-12),  # Hessian larger than the data
    ])
    def test_accelerated_steps_alone(self, make, tol):
        prob = make()
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=tol, counts=counts)
        assert np.linalg.norm(prob.average_gradient(x)) <= tol
        assert counts.hessians == counts.chord_steps == 0

    def spy_accelerate(self, monkeypatch):
        """The tolerances centralized_minimize runs its accelerated steps to, in order."""
        targets, real = [], objectives._Descent.accelerate

        def spy(run, x, f, g, lip, tol):
            targets.append(tol)
            return real(run, x, f, g, lip, tol)
        monkeypatch.setattr(objectives._Descent, "accelerate", spy)
        return targets

    def test_stalled_chord_falls_back_to_accelerated_steps(self, monkeypatch):
        # nearly separable: ||x*|| is about 64, and at the chord's start the
        # curvature of most samples is nearly gone; Hessians formed along the
        # way stop contracting, and the accelerated steps finish the solve
        prob = synth_logistic(m=4, n=6, d=20, seed=0, noise=0.05)
        targets = self.spy_accelerate(monkeypatch)
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=1e-12, counts=counts)
        assert np.linalg.norm(prob.average_gradient(x)) <= 1e-12
        assert targets == [objectives.CHORD_START, 1e-12]
        assert counts.hessians > 1
        assert np.linalg.norm(x) > 50

    def test_failed_factor_falls_back_to_accelerated_steps(self, monkeypatch):
        def not_positive_definite(h):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setattr(objectives, "_Factor", not_positive_definite)
        targets = self.spy_accelerate(monkeypatch)
        prob = synth_logistic(m=3, n=30, d=5, seed=4, noise=0.15)
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=1e-12, counts=counts)
        assert np.linalg.norm(prob.average_gradient(x)) <= 1e-12
        assert targets == [objectives.CHORD_START, 1e-12]
        assert (counts.hessians, counts.chord_steps) == (1, 0)

    def substitute_solve(self, monkeypatch, direction):
        """Chord directions direction(call, newton, g), where call counts the solves from 0
        and newton is the factor's own H^-1 g."""
        solve, calls = objectives._Factor.solve, itertools.count()

        def substituted(factor, g):
            return direction(next(calls), solve(factor, g), g)
        monkeypatch.setattr(objectives._Factor, "solve", substituted)

    def solved(self, monkeypatch, tol=1e-12):
        """(counts, accelerated targets) of a solve that must still reach tol."""
        targets = self.spy_accelerate(monkeypatch)
        prob = synth_logistic(m=3, n=30, d=5, seed=4, noise=0.15)
        counts = objectives.SolveCounts()
        x = centralized_minimize(prob, tol=tol, counts=counts)
        assert np.linalg.norm(prob.average_gradient(x)) <= tol
        return counts, targets

    def test_chord_halves_an_ascent_step_then_gives_up(self, monkeypatch):
        # -H^-1 g rises: the step halves until f rises by no more than the
        # slack, and that step, on a fresh factor, cuts neither the gradient
        # norm nor f, so the finish ends there
        self.substitute_solve(monkeypatch, lambda call, newton, g: -newton)
        counts, targets = self.solved(monkeypatch)
        assert targets == [objectives.CHORD_START, 1e-12]
        assert counts.hessians == 1 and 1 < counts.chord_steps < objectives.CHORD_HALVINGS

    def test_chord_without_descent_on_a_fresh_factor_gives_up(self, monkeypatch):
        # f rises by about t along t g / ||g||^2, above the slack at every halving
        self.substitute_solve(monkeypatch, lambda call, newton, g: -g / (g @ g))
        counts, targets = self.solved(monkeypatch)
        assert targets == [objectives.CHORD_START, 1e-12]
        assert (counts.hessians, counts.chord_steps) == (1, objectives.CHORD_HALVINGS)

    def test_chord_without_descent_drops_a_stale_factor(self, monkeypatch):
        # the first step is the factor's own; along the next direction no halving
        # descends, so a fresh factor is formed where that step ended, which
        # brings no descent either
        self.substitute_solve(monkeypatch,
                              lambda call, newton, g: newton if call == 0 else -g / (g @ g))
        counts, targets = self.solved(monkeypatch)
        assert targets == [objectives.CHORD_START, 1e-12]
        assert counts.hessians == 2
        assert counts.chord_steps == 1 + 2 * objectives.CHORD_HALVINGS

    def test_budget_exhaustion_carries_best_iterate(self):
        prob = synth_logistic(m=2, n=20, d=6, seed=6, noise=0.1)
        with pytest.raises(objectives.NotConvergedError) as err:
            centralized_minimize(prob, tol=1e-15, max_iter=3)
        assert err.value.best_x is not None
        assert err.value.best_x.shape == (6,)
        assert err.value.grad_norm > 0
