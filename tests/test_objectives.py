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

    @pytest.mark.parametrize("build", ["ridge", "logistic", "mixed"])
    def test_fused_average_is_the_two_calls(self, build):
        prob = instance(build)
        for seed in range(3):
            x = np.random.default_rng(seed).standard_normal(prob.d)
            value, grad = prob.average_value_and_gradient(x)
            assert value == prob.average_value(x)
            assert np.array_equal(grad, prob.average_gradient(x))

    @pytest.mark.parametrize("build", ["ridge", "logistic", "mixed"])
    def test_average_point_shape_checked(self, build):
        prob = instance(build)
        for shape in [(prob.d - 1,), (1, prob.d), (prob.d, 1), ()]:
            for method in (prob.average_value, prob.average_gradient,
                           prob.average_value_and_gradient):
                with pytest.raises(ShapeError):
                    method(np.zeros(shape))


def instance(build: str) -> ProblemInstance:
    """A d=5 instance on the ridge or logistic batch path, or on the mixed loop."""
    if build == "ridge":
        return synth_ridge(3, 4, 5, seed=1)
    if build == "logistic":
        return synth_logistic(3, 4, 5, seed=1)
    ridge, logistic = synth_ridge(2, 4, 5, seed=1), synth_logistic(2, 4, 5, seed=1)
    prob = ProblemInstance(ridge.objectives[:1] + logistic.objectives[1:], 5)
    assert prob._batch is None
    return prob


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
    images = objectives.read_idx_images(images_path)
    labels = objectives.read_idx_labels(labels_path)
    keep = (labels == digit_pair[0]) | (labels == digit_pair[1])
    feats = images[keep] / 255.0
    signs = np.where(labels[keep] == digit_pair[0], 1.0, -1.0)
    order = np.random.default_rng(seed).permutation(feats.shape[0])
    feats, signs = feats[order], signs[order]
    n = feats.shape[0] // m
    return [(feats[i * n:(i + 1) * n], signs[i * n:(i + 1) * n]) for i in range(m)]


def data_of(obj):
    return (obj.a_mat, obj.b_vec) if isinstance(obj, RidgeObjective) else (obj.features,
                                                                          obj.labels)


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
        cases = [(synth_ridge(4, 6, 5, seed=3), old_synth_ridge(4, 6, 5, 3)),
                 (synth_logistic(4, 6, 5, seed=3), old_synth_logistic(4, 6, 5, 3)),
                 self.mnist(tmp_path)]
        for prob, ref in cases[:2]:
            path = tmp_path / f"round_trip_{len(cases)}.npz"
            objectives.save_instance(prob, path)
            cases.append((objectives.load_instance(path), ref))
        return cases

    def test_data_is_the_per_agent_draws(self, tmp_path):
        for prob, ref in self.built(tmp_path):
            assert prob.m == len(ref)
            for obj, (a, b) in zip(prob.objectives, ref):
                got_a, got_b = data_of(obj)
                assert got_a.dtype == a.dtype and np.array_equal(got_a, a)
                assert got_b.dtype == b.dtype and np.array_equal(got_b, b)
            if isinstance(prob.objectives[0], RidgeObjective):
                np.testing.assert_array_equal([o.gamma for o in prob.objectives],
                                              [0.1 + 0.1 * i for i in range(prob.m)])

    def test_objectives_share_the_batch_slab(self, tmp_path):
        for prob, _ in self.built(tmp_path):
            batch = prob._batch
            for i, obj in enumerate(prob.objectives):
                a, b = data_of(obj)
                assert np.shares_memory(a, batch.a) and np.shares_memory(b, batch.b)
                assert a.base is batch.a and b.base is batch.b
                assert np.array_equal(batch.a[i], a) and np.array_equal(batch.b[i], b)
                for array in (a, b):
                    with pytest.raises(ValueError):
                        array[0] = 1.0
            for array in (batch.a, batch.b, batch.a_flat):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_other_rows_of_a_slab_are_stacked(self):
        prob = synth_logistic(4, 6, 5, seed=3)
        x = np.random.default_rng(8).standard_normal((4, 5))
        for objs in (prob.objectives[::-1], prob.objectives[:1] * 4, prob.objectives[1:]):
            sub = ProblemInstance(objs, 5)
            assert not np.shares_memory(sub._batch.a, prob._batch.a)
            loop = np.stack([o.gradient(r) for o, r in zip(objs, x)])
            np.testing.assert_allclose(sub.stacked_gradient(x[:len(objs)]), loop, atol=1e-13)

    def test_user_arrays_are_copied(self):
        rng = np.random.default_rng(6)
        arrays = [(rng.standard_normal((4, 3)), np.where(rng.random(4) < 0.5, 1.0, -1.0))
                  for _ in range(3)]
        frozen_view = arrays[0][0].view()  # read-only, but its owner is writable
        frozen_view.setflags(write=False)
        ridge = ProblemInstance(tuple(RidgeObjective(a, b, 0.5) for a, b in arrays), 3)
        logistic = ProblemInstance(
            (LogisticObjective(frozen_view, arrays[0][1]),)
            + tuple(LogisticObjective(a, b) for a, b in arrays[1:]), 3)
        x = rng.standard_normal((3, 3))
        before = [(p.stacked_value(x), p.stacked_gradient(x)) for p in (ridge, logistic)]
        for prob in (ridge, logistic):
            for obj, (a, b) in zip(prob.objectives, arrays):
                for mine, theirs in zip(data_of(obj), (a, b)):
                    assert not np.shares_memory(mine, theirs)
                    assert not np.shares_memory(prob._batch.a, theirs)
        for a, b in arrays:
            a += 1.0
            b *= -1.0
        after = [(p.stacked_value(x), p.stacked_gradient(x)) for p in (ridge, logistic)]
        for (v0, g0), (v1, g1) in zip(before, after):
            assert v0 == v1 and np.array_equal(g0, g1)

    def test_ragged_round_trip_keeps_each_array(self, tmp_path):
        rng = np.random.default_rng(7)
        prob = ProblemInstance((
            RidgeObjective(rng.standard_normal((3, 2)), rng.standard_normal(3), 0.4),
            LogisticObjective(rng.standard_normal((5, 2)), np.ones(5)),
        ), 2)
        path = tmp_path / "ragged.npz"
        objectives.save_instance(prob, path)
        back = objectives.load_instance(path)
        assert [type(o) for o in back.objectives] == [RidgeObjective, LogisticObjective]
        for o1, o2 in zip(prob.objectives, back.objectives):
            for a1, a2 in zip(data_of(o1), data_of(o2)):
                assert np.array_equal(a1, a2) and not a2.flags.writeable
        assert back.objectives[0].gamma == 0.4


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


def summed_normal_equations_solution(problem):
    """The normal-equation solve with a fresh (2/n) (A^T A) + gamma I per
    agent: the reference ridge_exact_solution's in-place build must match."""
    d = problem.d
    h = np.zeros((d, d))
    rhs = np.zeros(d)
    for o in problem.objectives:
        h += (2.0 / o.n) * (o.a_mat.T @ o.a_mat) + o.gamma * np.eye(d)
        rhs += (2.0 / o.n) * (o.a_mat.T @ o.b_vec)
    x = np.linalg.solve(h, rhs)
    x -= np.linalg.solve(h, h @ x - rhs)
    return x


def mixed_ridge(seed):
    """Agents with different sample counts and unequal, unordered coefficients."""
    rng = np.random.default_rng(seed)
    return ProblemInstance(tuple(
        RidgeObjective(rng.standard_normal((n, 9)), rng.standard_normal(n), gamma)
        for n, gamma in ((4, 1.7), (15, 0.03), (9, 0.45), (1, 2.9))), 9)


class TestRidgeExactSolution:
    @pytest.mark.parametrize("make", [
        lambda: synth_ridge(m=5, n=3, d=12, seed=1),   # n < d
        lambda: synth_ridge(m=4, n=40, d=7, seed=2),   # n > d
        lambda: synth_ridge(m=1, n=6, d=6, seed=3),    # one agent
        lambda: synth_ridge(m=6, n=20, d=150, seed=4),  # blocked BLAS products
        lambda: mixed_ridge(5),                        # unequal n and gamma
    ])
    def test_bit_identical_to_summed_terms(self, make):
        prob = make()
        assert np.array_equal(ridge_exact_solution(prob),
                              summed_normal_equations_solution(prob))


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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.inf, np.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        # inf would stop at the start point, nan would never stop
        prob = synth_logistic(m=2, n=20, d=6, seed=6, noise=0.1)
        with pytest.raises(ParameterError, match="positive and finite"):
            centralized_minimize(prob, tol=tol, max_iter=50)

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
