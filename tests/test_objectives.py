import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decopt import objectives
from decopt.errors import DataError, ParameterError, ShapeError
from decopt.objectives import (
    LogisticObjective,
    ProblemInstance,
    RidgeObjective,
    centralized_minimize,
    load_mnist_partition,
    ridge_exact_solution,
    synth_logistic,
    synth_ridge,
)
from faults import wrapped_problem


def finite_diff_gradient(fn, x, scale=None):
    """Central finite differences with step 1e-5 * (1 + ||x||)."""
    h = 1e-5 * (1.0 + np.linalg.norm(x)) if scale is None else scale
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


def assert_grad_matches_fd(obj, x, rtol=1e-6):
    g = obj.gradient(x)
    fd = finite_diff_gradient(obj.value, x)
    assert np.linalg.norm(g - fd) <= rtol * (1.0 + np.linalg.norm(g))


class TestRidge:
    def test_hand_gradient(self):
        obj = RidgeObjective(np.array([[1.0]]), np.array([0.0]), gamma=1.0)
        np.testing.assert_allclose(obj.gradient(np.array([1.0])), [3.0], atol=1e-15)

    def test_zero_at_exact_solution(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
        gamma = 0.7
        obj = RidgeObjective(a, b, gamma)
        # oracle: normal equations of the single objective
        x_star = np.linalg.solve((2 / 6) * a.T @ a + gamma * np.eye(4), (2 / 6) * a.T @ b)
        assert np.linalg.norm(obj.gradient(x_star)) <= 1e-12

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_fd_match(self, seed):
        rng = np.random.default_rng(seed)
        obj = RidgeObjective(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.3)
        assert_grad_matches_fd(obj, rng.standard_normal(3))

    def test_strong_convexity_inequality(self):
        rng = np.random.default_rng(1)
        obj = RidgeObjective(rng.standard_normal((4, 3)), rng.standard_normal(4), 0.5)
        for _ in range(10):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            lower = obj.value(x) + obj.gradient(x) @ (y - x) + 0.5 * obj.gamma * np.sum((y - x) ** 2)
            assert obj.value(y) >= lower - 1e-10

    def test_shape_error(self):
        obj = RidgeObjective(np.eye(2), np.zeros(2), 1.0)
        with pytest.raises(ShapeError):
            obj.gradient(np.zeros(3))

    def test_gamma_positive(self):
        with pytest.raises(ParameterError):
            RidgeObjective(np.eye(2), np.zeros(2), 0.0)


class TestLogistic:
    def test_value_gradient_at_zero(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 3))
        b = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        obj = LogisticObjective(a, b)
        assert obj.value(np.zeros(3)) == pytest.approx(np.log(2.0), abs=1e-12)
        expected = -(a.T @ b) / (2 * 8)
        np.testing.assert_allclose(obj.gradient(np.zeros(3)), expected, atol=1e-12)

    def test_saturated_sigmoid_no_overflow(self):
        obj = LogisticObjective(np.array([[1.0]]), np.array([1.0]))
        g = obj.gradient(np.array([50.0]))
        assert np.all(np.isfinite(g))
        assert abs(g[0]) < 1e-20

    def test_extreme_margins_finite(self):
        obj = LogisticObjective(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        for t in (-700.0, -100.0, 0.0, 100.0, 700.0):
            assert np.isfinite(obj.value(np.array([t])))
            assert np.all(np.isfinite(obj.gradient(np.array([t]))))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_fd_match(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 4))
        b = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        assert_grad_matches_fd(LogisticObjective(a, b), rng.standard_normal(4))

    def test_labels_validated(self):
        with pytest.raises(ParameterError):
            LogisticObjective(np.eye(2), np.array([1.0, 0.5]))


class TestProblemInstance:
    def test_stacked_gradient_matches_loop(self):
        prob = synth_ridge(m=5, n=4, d=3, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        loop = np.stack([o.gradient(r) for o, r in zip(prob.objectives, x)])
        np.testing.assert_allclose(prob.stacked_gradient(x), loop, atol=1e-13)

    def test_stacked_gradient_logistic_matches_loop(self):
        prob = synth_logistic(m=4, n=6, d=3, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3))
        loop = np.stack([o.gradient(r) for o, r in zip(prob.objectives, x)])
        np.testing.assert_allclose(prob.stacked_gradient(x), loop, atol=1e-13)

    def test_single_agent_reduction(self):
        prob = synth_ridge(m=1, n=4, d=3, seed=0)
        x = np.ones((1, 3))
        np.testing.assert_allclose(
            prob.stacked_gradient(x)[0], prob.objectives[0].gradient(x[0]), atol=1e-14
        )

    def test_stack_shape_error(self):
        prob = synth_ridge(m=3, n=4, d=2, seed=0)
        with pytest.raises(ShapeError):
            prob.stacked_gradient(np.zeros((2, 2)))

    def test_column_gradients_match_stacked_gradient(self):
        ridge = synth_ridge(4, 5, 3, seed=2)
        wrapped = wrapped_problem(ridge)
        assert wrapped._batch is None
        x = np.random.default_rng(5).standard_normal((4, 6, 3))
        for prob in (ridge, synth_logistic(4, 5, 3, seed=2), wrapped):
            expected = np.stack([prob.stacked_gradient(x[:, g]) for g in range(6)], axis=1)
            np.testing.assert_allclose(prob.column_gradients(x), expected, rtol=1e-12,
                                       atol=1e-14)
        with pytest.raises(ShapeError):
            ridge.column_gradients(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            ridge.column_gradients(np.zeros((4, 2, 2)))

    def test_average_values_at_rows_matches_loop(self):
        for prob in (synth_ridge(4, 5, 3, seed=2), synth_logistic(4, 5, 3, seed=2)):
            rng = np.random.default_rng(3)
            x = rng.standard_normal((4, 3))
            expected = [np.mean([o.value(r) for o in prob.objectives]) for r in x]
            np.testing.assert_allclose(prob.average_values_at_rows(x), expected, rtol=1e-12)

    def test_average_gradient_matches_loop(self):
        for prob in (synth_ridge(4, 5, 3, seed=2), synth_logistic(4, 5, 3, seed=2)):
            rng = np.random.default_rng(4)
            x = rng.standard_normal(3)
            expected = np.mean([o.gradient(x) for o in prob.objectives], axis=0)
            np.testing.assert_allclose(prob.average_gradient(x), expected, atol=1e-13)
            expected_v = np.mean([o.value(x) for o in prob.objectives])
            assert prob.average_value(x) == pytest.approx(expected_v, rel=1e-12)

    # (m, n, d) all distinct, so a transposed or misshaped margin product shows
    KERNEL_SHAPES = [(4, 5, 3), (6, 2, 9), (3, 7, 11), (1, 3, 2)]

    @pytest.mark.parametrize("m, n, d", KERNEL_SHAPES)
    @pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
    def test_batch_kernels_match_loop(self, synth, m, n, d):
        prob = synth(m, n, d, seed=7)
        assert prob._batch is not None
        rng = np.random.default_rng(8)
        x = rng.standard_normal((m, d))
        own = sum(o.value(r) for o, r in zip(prob.objectives, x))
        assert prob.stacked_value(x) == pytest.approx(own, rel=1e-12)
        rows = [np.mean([o.value(r) for o in prob.objectives]) for r in x]
        np.testing.assert_allclose(prob.average_values_at_rows(x), rows, rtol=1e-12)
        point = x[-1]
        assert prob.average_value(point) == pytest.approx(
            np.mean([o.value(point) for o in prob.objectives]), rel=1e-12)
        np.testing.assert_allclose(
            prob.average_gradient(point),
            np.mean([o.gradient(point) for o in prob.objectives], axis=0), atol=1e-13)

    @pytest.mark.parametrize("m, n, d", KERNEL_SHAPES)
    @pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
    def test_stacked_gradient_is_one_column(self, synth, m, n, d):
        prob = synth(m, n, d, seed=7)
        x = np.random.default_rng(9).standard_normal((m, d))
        one = prob.column_gradients(x[:, None])[:, 0]
        assert np.array_equal(prob.stacked_gradient(x), one)


class TestSynthGenerators:
    def test_ridge_gamma_ramp(self):
        prob = synth_ridge(m=20, n=4, d=3, seed=0)
        gammas = [o.gamma for o in prob.objectives]
        np.testing.assert_allclose(gammas, 0.1 + 0.1 * np.arange(20), atol=1e-12)

    def test_ridge_paper_shapes(self):
        prob = synth_ridge(m=3, n=20, d=500, seed=0)
        assert all(o.a_mat.shape == (20, 500) for o in prob.objectives)

    def test_ridge_deterministic(self):
        p1, p2 = synth_ridge(3, 4, 5, seed=9), synth_ridge(3, 4, 5, seed=9)
        for o1, o2 in zip(p1.objectives, p2.objectives):
            assert np.array_equal(o1.a_mat, o2.a_mat)
            assert np.array_equal(o1.b_vec, o2.b_vec)

    def test_logistic_deterministic_and_noisy(self):
        p1 = synth_logistic(3, 50, 4, seed=9, noise=0.2)
        p2 = synth_logistic(3, 50, 4, seed=9, noise=0.2)
        for o1, o2 in zip(p1.objectives, p2.objectives):
            assert np.array_equal(o1.labels, o2.labels)
        assert all(set(np.unique(o.labels)) <= {-1.0, 1.0} for o in p1.objectives)


def write_idx_pair(tmp_path, images, labels):
    """Tiny IDX writer used as the independent fixture for the parser."""
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    count, rows, cols = images.shape
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, count))
        f.write(labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestMnist:
    def test_parse_counts(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(30, 4, 4))
        labels = rng.integers(0, 10, size=30)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        assert objectives.read_idx_images(img).shape == (30, 16)
        assert objectives.read_idx_labels(lbl).shape == (30,)

    def test_partition(self, tmp_path):
        rng = np.random.default_rng(1)
        labels = np.array([0, 1] * 11 + [7] * 8)  # 22 kept, 8 dropped
        images = rng.integers(0, 256, size=(30, 2, 2))
        img, lbl = write_idx_pair(tmp_path, images, labels)
        prob = load_mnist_partition(img, lbl, m=4, digit_pair=(0, 1), seed=0)
        assert prob.m == 4
        assert all(o.n == 5 for o in prob.objectives)  # 22 // 4, remainder dropped
        assert prob.d == 4
        all_feats = np.concatenate([o.features for o in prob.objectives])
        assert all_feats.min() >= 0.0 and all_feats.max() <= 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as f:
            f.write(struct.pack("<IIII", 0x00000803, 1, 2, 2))  # little-endian: swapped
            f.write(bytes(4))
        with pytest.raises(DataError):
            objectives.read_idx_images(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 10, 2, 2))
            f.write(bytes(3))
        with pytest.raises(DataError):
            objectives.read_idx_images(path)

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


class TestConvexity:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_midpoint_convexity(self, seed):
        rng = np.random.default_rng(seed)
        objs = [
            RidgeObjective(rng.standard_normal((5, 3)), rng.standard_normal(5), 0.4),
            LogisticObjective(
                rng.standard_normal((5, 3)), np.where(rng.random(5) < 0.5, 1.0, -1.0)
            ),
        ]
        for obj in objs:
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            mid = obj.value((x + y) / 2)
            assert mid <= (obj.value(x) + obj.value(y)) / 2 + 1e-12


class TestCentralizedMinimize:
    def test_hand_solved_ridge(self):
        # single agent, A=[[1]], b=[2], gamma=2: (2 + 2) x = 4 so x* = 1
        prob = ProblemInstance((RidgeObjective(np.array([[1.0]]), np.array([2.0]), 2.0),), 1)
        np.testing.assert_allclose(ridge_exact_solution(prob), [1.0], atol=1e-14)
        np.testing.assert_allclose(centralized_minimize(prob, tol=1e-12), [1.0], atol=1e-10)

    def test_matches_normal_equations(self):
        prob = synth_ridge(m=4, n=6, d=5, seed=3)
        x_exact = ridge_exact_solution(prob)
        x_iter = centralized_minimize(prob, tol=1e-12)
        assert np.linalg.norm(x_iter - x_exact) <= 1e-8

    def test_symmetric_logistic_zero(self):
        a = np.array([[1.0, 0.5], [1.0, 0.5]])
        obj = LogisticObjective(a, np.array([1.0, -1.0]))
        prob = ProblemInstance((obj,), 2)
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

    def test_budget_exhaustion_carries_best_iterate(self):
        prob = synth_logistic(m=2, n=20, d=6, seed=6, noise=0.1)
        with pytest.raises(objectives.NotConvergedError) as err:
            centralized_minimize(prob, tol=1e-15, max_iter=3)
        assert err.value.best_x is not None
        assert err.value.best_x.shape == (6,)
        assert err.value.grad_norm > 0


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        for prob in (synth_ridge(3, 4, 2, seed=0), synth_logistic(2, 5, 3, seed=0)):
            path = tmp_path / "dump.npz"
            objectives.save_instance(prob, path)
            back = objectives.load_instance(path)
            assert back.m == prob.m and back.d == prob.d
            rng = np.random.default_rng(0)
            x = rng.standard_normal((prob.m, prob.d))
            np.testing.assert_allclose(
                back.stacked_gradient(x), prob.stacked_gradient(x), atol=1e-15
            )
