"""Agent lanes: batch evaluators that split their agents across threads.

Lanes engage only above ``objectives.LANE_MIN_BYTES`` of data, on machines
with more than one CPU. These tests force them on small instances by setting
the cutoff to 0 and the CPU count to the lane count wanted; the lane count is
capped at m. Every result must be bit-identical to the single-lane one, since
a lane makes exactly the BLAS calls and elementwise operations that one lane
makes for its agents.
"""

import contextlib
import importlib.util
import json
import os
import signal
import tempfile
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from decopt import cli, objectives, runner, solvers
from decopt.config import parse_config_dict
from decopt.diagnostics import Trace, TraceRecorder, compute_saddle
from decopt.errors import NoConvergentStepsizeError
from decopt.objectives import load_mnist_partition, synth_logistic, synth_ridge
from decopt.solvers import extra_grid_search
from decopt.topology import (
    GossipMatrix,
    make_line_graph,
    metropolis_hastings,
)
from faults import RaiseOnProducts, RaiseOutsideBall
from idx_files import write_idx_pair
from oracles import average_value
from probes import run_probe
from sequential_grid import sequential_grid_search

# At this shape one BLAS call per lane, instead of one per agent block, rounds
# differently from one call for all agents (OpenBLAS 0.3.31, SkylakeX kernels),
# so a lane that strays from the single-lane calls shows.
M, N, D = 7, 33, 65
COUNTS = [2, 3, 4, 9]  # none divides M; 9 exceeds it


@pytest.fixture
def force_lanes(monkeypatch):
    """force_lanes(count): instances built afterwards use min(count, m) lanes."""
    def force(count):
        monkeypatch.setattr(objectives, "LANE_MIN_BYTES", 0)
        monkeypatch.setattr(objectives, "_cpu_count", lambda: count)
    return force


def evaluations(prob):
    """Every batch evaluator of prob at fixed points."""
    rng = np.random.default_rng(11)
    x = 0.5 * rng.standard_normal((prob.m, prob.d))
    x_cols = 0.5 * rng.standard_normal((prob.m, 3, prob.d))
    value, grad = prob.average_value_and_gradient(x[0])
    # the stacked gradient is the one-column case of the column gradients
    assert np.array_equal(prob.stacked_gradient(x), prob.column_gradients(x[:, None])[:, 0])
    # the products it hands over are the one-column own product, over all agents
    # in one call, and F from them is stacked_value
    grad, own = prob.stacked_gradient(x, products=True)
    assert np.array_equal(grad, prob.stacked_gradient(x))
    assert np.array_equal(own, prob._own(x[:, None], 0, prob.m)[:, 0])
    assert prob.value_from_products(own, x) == prob.stacked_value(x)
    return {
        "column_gradients": prob.column_gradients(x_cols),
        "stacked_gradient": prob.stacked_gradient(x),
        "own_products": own,
        "stacked_value": prob.stacked_value(x),
        "average_values_at_rows": prob.average_values_at_rows(x),
        "average_value": value,
        "average_gradient": grad,
        "average_value_alone": average_value(prob, x[1]),
        "average_gradient_alone": prob.average_gradient(x[1]),
        "average_hessian": prob.average_hessian(x[2]),
    }


def assert_identical(got: dict, want: dict):
    for name, value in want.items():
        assert np.array_equal(got[name], value), name


@pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
def test_kernels_identical_at_any_lane_count(force_lanes, synth):
    force_lanes(1)
    one = synth(M, N, D, seed=3)
    assert one.lanes == 1
    want = evaluations(one)
    for count in COUNTS:
        force_lanes(count)
        prob = synth(M, N, D, seed=3)
        assert prob.lanes == min(count, M)
        assert_identical(evaluations(prob), want)


@pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
def test_hessian_block_columns_identical_at_any_lane_count(force_lanes, monkeypatch, synth):
    # 9 block columns of unequal work: the lanes split them into runs, not the agents
    monkeypatch.setattr(objectives, "HESSIAN_BLOCK", 8)
    x = 0.5 * np.random.default_rng(12).standard_normal(D)
    force_lanes(1)
    want = synth(M, N, D, seed=3).average_hessian(x)
    for count in COUNTS:
        force_lanes(count)
        assert np.array_equal(synth(M, N, D, seed=3).average_hessian(x), want), count


def test_mnist_partition_identical_at_any_lane_count(tmp_path, force_lanes):
    # M * N + 4 samples of the digit pair, so the loader drops a remainder of 4
    rng = np.random.default_rng(5)
    labels = np.concatenate([rng.integers(0, 2, M * N + 4), np.full(9, 7)])
    rng.shuffle(labels)
    images = rng.integers(0, 256, size=(len(labels), 5, 13))  # d = 65 = D
    img, lbl = write_idx_pair(tmp_path, images, labels)
    force_lanes(1)
    one = load_mnist_partition(img, lbl, m=M, digit_pair=(0, 1), seed=4)
    assert one.lanes == 1 and (one.m, one.n, one.d) == (M, N, D)
    want = evaluations(one)
    for count in COUNTS:
        force_lanes(count)
        prob = load_mnist_partition(img, lbl, m=M, digit_pair=(0, 1), seed=4)
        assert prob.lanes == min(count, M)
        assert_identical(evaluations(prob), want)


@pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
def test_lanes_cover_every_agent_once(force_lanes, synth):
    for count in [1] + COUNTS:
        force_lanes(count)
        ranges = synth(M, N, D, seed=3).ranges
        assert ranges[0][0] == 0 and ranges[-1][1] == M
        assert all(lo < hi == next_lo for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]))


def test_below_cutoff_is_one_lane():
    # a few kilobytes of data, far below the cutoff: one lane on any machine
    for prob in (synth_ridge(M, N, D, seed=3), synth_logistic(M, N, D, seed=3)):
        assert prob.a.nbytes < objectives.LANE_MIN_BYTES
        assert prob.lanes == 1
        evaluations(prob)


def test_lanes_follow_the_cpus_this_process_may_use(monkeypatch):
    # the real CPU count: one lane under `taskset -c 0`, min(cpus, m) otherwise
    monkeypatch.setattr(objectives, "LANE_MIN_BYTES", 0)
    cpus = len(os.sched_getaffinity(0))
    prob = synth_logistic(M, N, D, seed=3)
    assert prob.lanes == min(cpus, M)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 1)
    assert_identical(evaluations(prob), evaluations(synth_logistic(M, N, D, seed=3)))


def test_lane_exception_reaches_caller(force_lanes, monkeypatch):
    force_lanes(3)
    prob = synth_logistic(M, N, D, seed=3)
    caller = threading.current_thread()

    def failing_expit(t):
        if threading.current_thread() is not caller:
            raise FloatingPointError("lane failed")
        return 1.0 / (1.0 + np.exp(-t))

    monkeypatch.setattr(objectives, "_expit", failing_expit)
    with pytest.raises(FloatingPointError, match="lane failed"):
        prob.stacked_gradient(np.zeros((M, D)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_lanes(force_lanes):
    force_lanes(3)
    prob = synth_logistic(M, N, D, seed=3)
    want = evaluations(prob)  # the lane threads now run in this process only
    pid = os.fork()
    if pid == 0:  # child: exit 0 only when the lanes ran and agreed
        try:
            got = evaluations(synth_logistic(M, N, D, seed=3))
            os._exit(0 if all(np.array_equal(got[k], v) for k, v in want.items()) else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 60
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] == pid, "forked child hung on its parent's lane pool"
    assert os.waitstatus_to_exitcode(status[1]) == 0


# Grid blocks: these tests cut the grids into blocks of two stepsizes.
@pytest.fixture
def grid_blocks_of_two(monkeypatch):
    monkeypatch.setattr(solvers, "GRID_BLOCK_BYTES", 2 * solvers.GRID_COLUMN_ARRAYS * 16 * 4 * 8)


def grid_case(loss):
    """(problem, gossip, saddle, grid, x0) for 10 stepsizes, so 5 blocks of two.

    On ridge the top five stepsizes diverge at budget 200, and the block
    (0.1, 0.316) drops to one column when 0.316 diverges. The logistic grid
    stays below the stepsizes where EXTRA turns unstable.
    """
    gossip = GossipMatrix(metropolis_hastings(make_line_graph(16)), c=0.4)
    x0 = 10.0 * np.random.default_rng(42).standard_normal((16, 4))
    if loss == "ridge":
        prob, grid = synth_ridge(16, 8, 4, seed=40), np.logspace(-3, 1.5, 10)
    else:
        prob, grid = synth_logistic(16, 8, 4, seed=40), np.logspace(-3, 0.5, 10)
    return prob, gossip, compute_saddle(prob, gossip), grid, x0


@contextlib.contextmanager
def leaves_nothing():
    """Fails unless the block leaves no child process, no new thread, no new open
    descriptor and no ResourceWarning (a report file left open) behind, whether it
    returns or raises."""
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    threads = set(threading.enumerate())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        try:
            yield
        finally:
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
            assert set(threading.enumerate()) <= threads
            if fds is not None:
                assert set(os.listdir("/proc/self/fd")) == fds
            assert not [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


def search(prob, gossip, saddle, grid, budget, metric, x0, stop=solvers.StopRule()):
    """extra_grid_search's GridSearch; the search leaves nothing behind (leaves_nothing)."""
    recorder = TraceRecorder(prob, gossip, saddle)
    with leaves_nothing():
        return extra_grid_search(prob, gossip, grid, budget, recorder, metric, x0, stop)


# Only compare's runs ahead fork, and only while no other thread is alive.
@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, which fails after 120 s. The
    agent lane threads that earlier tests started are stopped first."""
    if objectives._LANE_POOL is not None:
        objectives._LANE_POOL.shutdown(wait=True)
        objectives._forget_lane_pool()
    assert threading.active_count() == 1
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def timeout(signum, frame):  # compare kills its children, waits for them and raises
        raise TimeoutError("a test that forks took over 120 s")

    monkeypatch.setattr(os, "fork", counted)
    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    yield pids
    signal.alarm(0)
    signal.signal(signal.SIGALRM, handler)


def test_grid_case_diverges_and_drops_to_one_column(grid_blocks_of_two):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    _, points = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    blocks = [points[i:i + 2] for i in range(0, len(points), 2)]
    statuses = [tuple(p.status for p in block) for block in blocks]
    assert ("budget", "diverged") in statuses  # one column runs on alone
    assert ("diverged", "diverged") in statuses
    assert all(p.rounds < 200 for p in points if p.status == "diverged")


def test_block_error_reaches_caller(grid_blocks_of_two, forks, monkeypatch):
    # the top blocks leave the ball; the error is the first block's at any CPU
    # count, and the grid forks nothing
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    faulty = RaiseOutsideBall(prob, radius=300.0)
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        with pytest.raises(FloatingPointError, match="outside the ball") as error:
            search(faulty, gossip, saddle, grid, 200, "distance_sq", x0)
        errors.append(str(error.value))
    assert errors[1] == errors[0] and not forks


def threshold_stop(threshold: float) -> solvers.StopRule:
    return solvers.StopRule(metric="distance_sq", threshold=threshold)


@pytest.fixture
def blocks_here(monkeypatch):
    """(alphas, cap) of each grid block run in this process, in order."""
    calls, block = [], solvers._extra_block

    def recorded(problem, gossip, start, alphas, cap, *args):
        calls.append((alphas, cap))
        return block(problem, gossip, start, alphas, cap, *args)

    monkeypatch.setattr(solvers, "_extra_block", recorded)
    return calls


@pytest.mark.parametrize("stop", [solvers.StopRule(), threshold_stop(1.0)],
                         ids=["no_threshold", "threshold"])
def test_grid_runs_in_one_process(grid_blocks_of_two, forks, blocks_here, monkeypatch, stop):
    # each of the five blocks runs here once, from the largest stepsizes down, at
    # the cap the blocks before it left, at any CPU count; with the threshold 0.1
    # converges in the third block and caps the two below it
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    tops = (8, 6, 4, 2, 0)  # the index of each block's smaller stepsize
    for cpus in (1, 2, 3):
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        blocks_here.clear()
        got = search(prob, gossip, saddle, grid, 200, "distance_sq", x0, stop)
        if cpus == 1:
            want = got
        assert got == want
        cap, caps = 200, []
        for i in tops:
            caps.append(cap)
            cap = min([cap] + [p.rounds for p in got.points[i:i + 2] if p.status == "converged"])
        assert blocks_here == [(list(grid[i:i + 2]), c) for i, c in zip(tops, caps)]
    assert any(p.status == "converged" for p in want.points) == (stop.threshold is not None)
    assert (caps[-1] < 200) == (stop.threshold is not None)
    assert not forks


def test_grid_caps_fall_from_block_to_block(grid_blocks_of_two, forks, blocks_here,
                                            monkeypatch):
    # 0.1 converges at round 259 in the top block, which caps the next one at
    # 259; there 0.0316 converges at 169, which caps the last one
    prob, gossip, saddle, _, x0 = grid_case("ridge")
    grid, stop = np.logspace(-3, -0.5, 6), threshold_stop(1e-2)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 2)
    got = search(prob, gossip, saddle, grid, 400, "distance_sq", x0, stop)
    assert not forks
    (_, budget), (_, r), (bottom, c) = blocks_here
    assert budget == 400 > r > c and bottom == list(grid[:2])
    ref_alpha, ref_points = sequential_grid_search(prob, gossip, grid, 400, saddle,
                                                   "distance_sq", x0, 1e-2)
    assert got.alpha == ref_alpha
    assert [(p.alpha, p.status, p.rounds) for p in got.points] == [
        (p.alpha, p.status, p.rounds) for p in ref_points]
    assert [p.rounds for p in got.points if p.status == "converged"] == [c, r]
    for point, ref in zip(got.points, ref_points):
        assert point.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)


def test_laned_problem_grid_identical(force_lanes, grid_blocks_of_two):
    force_lanes(1)
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    want = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    force_lanes(2)
    prob = grid_case("ridge")[0]
    assert prob.lanes == 2
    assert search(prob, gossip, saddle, grid, 200, "distance_sq", x0) == want


def test_ridge_grid_loads_no_pool_modules(tmp_path):
    # a fresh interpreter: whether a module is loaded is process-wide state
    config = tmp_path / "grid.yaml"
    config.write_text(yaml.safe_dump(raw_config("ridge", {"kind": "extra",
                                                          "grid": [0.05, 0.3, 1.0, 8.0],
                                                          "budget": 30})))
    probe = (
        "import json, sys\n"
        "from decopt import cli, objectives, solvers\n"
        f"solvers.GRID_BLOCK_BYTES = {2 * solvers.GRID_COLUMN_ARRAYS * M * D * 8}\n"
        "objectives._cpu_count = lambda: 2\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, 'multiprocessing' in sys.modules,\n"
        "                  'concurrent.futures' in sys.modules]))\n"
    )
    stdout = run_probe(probe, "run", str(config), "--out", str(tmp_path / "out"), timeout=120)
    assert json.loads(stdout.splitlines()[-1]) == [0, False, False]


def raw_config(problem_kind: str, algorithm: dict) -> dict:
    return {
        "problem": {"kind": problem_kind, "m": M, "n": N, "d": D},
        "graph": {"kind": "ring", "m": M},
        "algorithm": algorithm,
        "stop": {"max_iter": 40},
        "diagnostics": {"cadence": 1},
        "name": "lanes",
        "master_seed": 2,
    }


def run_outputs(tmp_path, raw: dict, tag: str) -> tuple[bytes, dict]:
    out = tmp_path / tag
    manifest = runner.run_experiment(parse_config_dict(raw), out_dir=out)
    return (out / "lanes.csv").read_bytes(), manifest


@pytest.mark.parametrize("problem_kind", ["ridge", "logistic_synthetic"])
@pytest.mark.parametrize("algorithm", [
    {"kind": "adolf", "mode": "convex"},
    {"kind": "adolf_local", "mode": "convex"},
])
def test_run_traces_identical_with_lanes(tmp_path, force_lanes, problem_kind, algorithm):
    raw = raw_config(problem_kind, algorithm)
    force_lanes(1)
    want, manifest = run_outputs(tmp_path, raw, "one")
    assert manifest.lanes == 1
    for count in (2, 4):
        force_lanes(count)
        got, manifest = run_outputs(tmp_path, raw, f"lanes{count}")
        assert manifest.lanes == count
        assert got == want


@pytest.mark.parametrize("problem_kind", ["ridge", "logistic_synthetic"])
def test_grid_points_identical_with_lanes(tmp_path, force_lanes, problem_kind):
    raw = raw_config(problem_kind, {"kind": "extra", "grid": [0.05, 0.3, 1.0, 8.0],
                                    "budget": 30})
    force_lanes(1)
    want_csv, want = run_outputs(tmp_path, raw, "one")
    force_lanes(3)
    got_csv, got = run_outputs(tmp_path, raw, "three")
    assert got.lanes == 3
    assert got.extra_grid == want.extra_grid
    assert got.extra_best_alpha == want.extra_best_alpha
    assert got_csv == want_csv


def test_run_manifest_records_lanes(tmp_path, force_lanes):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw_config("ridge", {"kind": "adolf"})))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "one")]) == 0
    manifest = json.loads((tmp_path / "one" / "lanes.manifest.json").read_text())
    assert manifest["lanes"] == 1  # a few kilobytes: below the cutoff
    assert manifest["grid_rounds"] is None
    force_lanes(3)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "three")]) == 0
    manifest = json.loads((tmp_path / "three" / "lanes.manifest.json").read_text())
    assert manifest["lanes"] == 3


def test_manifest_records_grid_rounds(tmp_path, monkeypatch):
    raw = raw_config("ridge", {"kind": "extra", "grid": [0.05, 0.3, 1.0, 8.0], "budget": 30})
    monkeypatch.setattr(solvers, "GRID_BLOCK_BYTES", 2 * solvers.GRID_COLUMN_ARRAYS * M * D * 8)
    _, manifest = run_outputs(tmp_path, raw, "grid")  # two blocks of two stepsizes
    written = json.loads((tmp_path / "grid" / "lanes.manifest.json").read_text())
    # the tuning cost: every point's rounds, so 8.0's divergence counts short
    rounds = [point["rounds"] for point in written["extra_grid"]]
    assert written["grid_rounds"] == manifest.grid_rounds == sum(rounds) < 4 * 30


def test_preset_manifests_record_lanes(tmp_path, force_lanes, monkeypatch):
    def short(*args, **kwargs):  # the preset's runs and grid, at a few rounds each
        return [replace(cfg, stop=replace(cfg.stop, max_iter=20),
                        algorithm=replace(cfg.algorithm, budget=20))
                for cfg in runner.figure_preset(*args, **kwargs)]

    monkeypatch.setattr(cli, "figure_preset", short)
    outputs = {}
    for count in (1, 2):
        force_lanes(count)
        out = tmp_path / f"lanes{count}"
        assert cli.main(["preset", "fig1_er01", "--synthetic-logistic", "--out", str(out)]) == 0
        for kind in ("adolf", "adolf_local", "extra"):
            manifest = json.loads((out / f"fig1_er01_{kind}.manifest.json").read_text())
            assert manifest["lanes"] == count
        outputs[count] = {p.name: p.read_bytes() for p in out.iterdir()
                          if not p.name.endswith(".manifest.json")}
    assert outputs[2] == outputs[1]


# compare forks configs after its first into children that run them ahead while
# this process runs the configs before them, one per spare CPU, longest first:
# an EXTRA grid search, then adolf_local's run, then the others'.
ADOLF = {"kind": "adolf", "mode": "convex"}
ADOLF_LOCAL = {"kind": "adolf_local", "mode": "convex"}


def grid_algorithm(*alphas, budget=30) -> dict:
    return {"kind": "extra", "grid": list(alphas), "budget": budget}


def compare_configs(*algorithms, problem_kind="ridge", **sections) -> list:
    """One config per algorithm on raw_config's instance of problem_kind, named run0,
    run1, ..."""
    return [parse_config_dict({**raw_config(problem_kind, algorithm), **sections,
                               "name": f"run{i}"})
            for i, algorithm in enumerate(algorithms)]


def written(out) -> dict:
    """Every file in out by name: its bytes, or for a manifest its fields but when and
    where it was written."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name.endswith(".manifest.json"):
            files[path.name] = json.loads(path.read_text())
            del files[path.name]["created_utc"], files[path.name]["csv_path"]
        else:
            files[path.name] = path.read_bytes()
    return files


def compare_outputs(configs, out, metric=None) -> dict:
    """written(out) after compare wrote there, leaving nothing behind."""
    with leaves_nothing():
        runner.compare(configs, out_dir=out, metric=metric)
    return written(out)


def test_compare_grids_ahead_identical(tmp_path, forks, blocks_here, monkeypatch):
    # the first config's grid starts at its turn; of the two after it, one per
    # spare CPU runs ahead in a child, the others here, each grid a single block
    configs = compare_configs(grid_algorithm(0.05, 0.3), ADOLF,
                              grid_algorithm(0.05, 0.3, 1.0, 8.0), grid_algorithm(0.1, 0.2))
    outputs, searched_here = {}, {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        forks.clear()
        blocks_here.clear()
        outputs[cpus] = compare_outputs(configs, tmp_path / f"cpus{cpus}")
        assert len(forks) == cpus - 1
        searched_here[cpus] = len(blocks_here)
    assert searched_here == {1: 3, 2: 2, 3: 1}
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    assert [outputs[1][f"run{i}.manifest.json"]["extra_best_alpha"] for i in (0, 2, 3)] == [
        0.05, 0.05, 0.1]

    def fails():
        forks.append(None)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fails)
    forks.clear()
    blocks_here.clear()
    assert compare_outputs(configs, tmp_path / "fork_fails") == outputs[1]
    assert forks == [None] and len(blocks_here) == 3


def test_compare_grid_ahead_error_is_raised_at_its_turn(tmp_path, forks, monkeypatch):
    # every stepsize diverges: the child reports nothing, and the search run here
    # raises the one-process error after the adaptive run's files are written
    configs = compare_configs(ADOLF, grid_algorithm(50.0, 80.0, budget=200))
    errors, files = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        forks.clear()
        out = tmp_path / f"cpus{cpus}"
        with leaves_nothing(), pytest.raises(NoConvergentStepsizeError) as error:
            runner.compare(configs, out_dir=out)
        assert len(forks) == cpus - 1
        errors.append(str(error.value))
        files.append(written(out))
    assert errors == ["every stepsize in the grid of 2 diverged"] * 2
    assert set(files[0]) == {"run0.csv", "run0.manifest.json"}
    assert files[1] == files[0]


@pytest.mark.parametrize("error", [FloatingPointError("an injected fault"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
def test_compare_kills_grid_ahead_when_a_run_raises(tmp_path, forks, monkeypatch, error):
    # the adaptive run raises at its first round, while the grid ahead, at a
    # budget it would take minutes to spend, runs on: its child is killed
    build, kill, kills = runner.build_problem, os.kill, []

    def recorded(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(runner, "build_problem",
                        lambda config: RaiseOnProducts(build(config), error=error))
    monkeypatch.setattr(os, "kill", recorded)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 2)
    configs = compare_configs(ADOLF, grid_algorithm(0.01, 0.05, budget=10**7),
                              stop={"max_iter": 40, "metric": "consensus_err", "threshold": 1e-300},
                              diagnostics={"cadence": 1, "saddle": False})
    with leaves_nothing(), pytest.raises(type(error)):
        runner.compare(configs, out_dir=tmp_path)
    assert len(forks) == 1
    assert kills == [(forks[0], signal.SIGKILL)]


def executed(*args):
    """What _execute reports for a grid config, (trace, stepsize, search), with the
    search's arguments; the run is left out."""
    found = extra_grid_search(*args)
    return None, found.alpha, found


def test_killed_grid_ahead_runs_here(grid_blocks_of_two, forks, blocks_here):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    want = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    assert len(blocks_here) == 5
    args = (prob, gossip, grid, 200, TraceRecorder(prob, gossip, saddle), "distance_sq", x0)
    with leaves_nothing():
        ahead = runner.fork_ahead(executed, *args)
        joined = runner.extra_grid_search(*args, ahead=ahead)
        child = runner.fork_ahead(executed, *args)
        os.kill(child.pid, signal.SIGKILL)
        blocks_here.clear()
        rerun = runner.extra_grid_search(*args, ahead=child)
    # each child's report is read once and kept for its config's run call
    assert ahead.join() == ((None, want.alpha, want),) and child.join() == ()
    assert joined == want and rerun == want
    assert len(forks) == 2  # the two children
    assert len(blocks_here) == 5  # the rerun's blocks, all of them


_spec = importlib.util.spec_from_file_location(
    "trace_diff", Path(__file__).resolve().parents[1] / "scripts" / "trace_diff.py")
trace_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_diff)


@pytest.fixture
def forked_kinds(monkeypatch):
    """The algorithm kind of each config that compare forks a child for, in order. Every
    fork must happen from a process with one thread, so no lane thread is alive there."""
    kinds, fork = [], runner.fork_ahead

    def recorded(fn, config, *args):
        assert threading.active_count() == 1
        kinds.append(config.algorithm.kind)
        return fork(fn, config, *args)

    monkeypatch.setattr(runner, "fork_ahead", recorded)
    return kinds


# fig2's three kinds on the small ridge instance: strongly convex adaptive runs
# and a grid-searched EXTRA, all stopped by a distance_sq threshold every 10 rounds
FIG2_SHAPED = (
    {"kind": "adolf", "mode": "strongly_convex", "c2": 0.99, "alpha0": 1e-3, "sigma": 0.2},
    {"kind": "adolf_local", "mode": "strongly_convex", "c2": 0.99, "alpha0": 1e-3, "sigma": 0.2,
     "eta": 0.9},
    grid_algorithm(1e-3, 1e-2, 0.1, 1.0, budget=300),
)
FIG2_STOP = {"max_iter": 1000, "metric": "distance_sq", "threshold": 1e-10, "cadence": 10}


def step_of(kind: str, fault):
    """kind's step, made to call fault(state) first at every round."""
    step = solvers._ALGORITHMS[kind]

    def faulty(state, *args):
        fault(state)
        return step(state, *args)

    return faulty


def note_here(kinds: set, kind: str):
    """A fault that adds kind to kinds when its step runs in this process, not in a child."""
    caller = os.getpid()

    def fault(state):
        if os.getpid() == caller:
            kinds.add(kind)
    return fault


def hang_ahead():
    """A fault that keeps a run going in a forked child until the child is killed."""
    caller = os.getpid()

    def fault(state):
        while os.getpid() != caller:
            time.sleep(0.01)
    return fault


@pytest.mark.parametrize("algorithms, sections, cpus, ahead", [
    ((ADOLF, ADOLF_LOCAL), {}, 2, ["adolf_local"]),
    ((grid_algorithm(0.05, 0.3), ADOLF, ADOLF_LOCAL), {}, 2, ["adolf_local"]),
    (FIG2_SHAPED, {"stop": FIG2_STOP}, 2, ["extra"]),
    (FIG2_SHAPED, {"stop": FIG2_STOP}, 3, ["extra", "adolf_local"]),
], ids=["pair", "local_before_adolf", "fig2_two_cpus", "fig2_three_cpus"])
def test_compare_runs_ahead_identical(tmp_path, forks, forked_kinds, monkeypatch, algorithms,
                                      sections, cpus, ahead):
    configs = compare_configs(*algorithms, **sections)
    stepped_here = set()  # the kinds whose steps ran in this process
    for kind in ("adolf", "adolf_local", "extra"):
        monkeypatch.setitem(solvers._ALGORITHMS, kind, step_of(kind, note_here(stepped_here, kind)))
    monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
    with leaves_nothing():
        runner.compare(configs, out_dir=tmp_path / "ahead")
    assert forked_kinds == ahead and len(forks) == len(ahead)
    # a child runs its config's grid search and run, so EXTRA's steps run there too
    kinds = {algorithm["kind"] for algorithm in algorithms}
    assert stepped_here == kinds - {*ahead}
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 1)
    forked_kinds.clear()
    forks.clear()
    with leaves_nothing():
        runner.compare(configs, out_dir=tmp_path / "here")
    assert not forked_kinds and not forks
    report, problems = trace_diff.compare_exact(tmp_path / "here", tmp_path / "ahead")
    assert problems == []
    assert len(report) == 2 * len(configs) + 3  # each run's CSV and manifest, compare's three
    statuses = {json.loads((tmp_path / "here" / f"run{i}.manifest.json").read_text())["status"]
                for i in range(len(configs))}
    assert statuses == ({"converged"} if sections else {"budget"})


def test_compare_forks_nothing_while_another_thread_lives(tmp_path, forks, monkeypatch):
    # a forked child would not have the other thread, so at 3 CPUs the triple runs
    # here, and its files are those of the 1-CPU compare
    configs = compare_configs(grid_algorithm(0.05, 0.3), ADOLF, ADOLF_LOCAL)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 1)
    runner.compare(configs, out_dir=tmp_path / "one_cpu")
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 3)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        with leaves_nothing():
            runner.compare(configs, out_dir=tmp_path / "threaded")
    finally:
        release.set()
        waiter.join()
    assert not forks
    report, problems = trace_diff.compare_exact(tmp_path / "one_cpu", tmp_path / "threaded")
    assert problems == [] and len(report) == 2 * len(configs) + 3


def test_compare_run_ahead_error_is_raised_at_its_turn(tmp_path, forks, forked_kinds,
                                                       monkeypatch):
    # adolf_local raises at round 3: in the child, which reports nothing, then at
    # its turn here, after adolf's files are written, with the same message
    rounds_here, caller = [], os.getpid()

    def fault(state):
        if os.getpid() == caller:
            rounds_here.append(state.k)
        if state.k == 3:
            raise FloatingPointError(f"an injected fault at round {state.k}")

    monkeypatch.setitem(solvers._ALGORITHMS, "adolf_local", step_of("adolf_local", fault))
    configs = compare_configs(ADOLF, ADOLF_LOCAL)
    errors, files = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        forks.clear()
        rounds_here.clear()
        out = tmp_path / f"cpus{cpus}"
        with leaves_nothing(), pytest.raises(FloatingPointError) as error:
            runner.compare(configs, out_dir=out)
        assert len(forks) == cpus - 1
        assert rounds_here == [0, 1, 2, 3]  # the run here, once, whether or not it ran ahead
        errors.append(str(error.value))
        files.append(written(out))
    assert forked_kinds == ["adolf_local"]
    assert errors == ["an injected fault at round 3"] * 2
    assert set(files[0]) == {"run0.csv", "run0.manifest.json"}
    assert files[1] == files[0]


def test_killed_run_ahead_runs_here(tmp_path, forks, forked_kinds, monkeypatch):
    # the child running adolf_local ahead is killed as soon as it is forked: its
    # run happens here at its turn, and compare writes the one-process files
    configs = compare_configs(ADOLF, ADOLF_LOCAL)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 1)
    want = compare_outputs(configs, tmp_path / "one")
    fork = runner.fork_ahead

    def killed(*args):
        child = fork(*args)
        os.kill(child.pid, signal.SIGKILL)
        return child

    monkeypatch.setattr(runner, "fork_ahead", killed)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 2)
    monkeypatch.setitem(solvers._ALGORITHMS, "adolf_local", step_of("adolf_local", hang_ahead()))
    forked_kinds.clear()
    assert compare_outputs(configs, tmp_path / "killed") == want
    assert len(forks) == 1


@pytest.mark.parametrize("error", [FloatingPointError("an injected fault"), KeyboardInterrupt()],
                         ids=["error", "interrupt"])
@pytest.mark.parametrize("where", ["earlier_run", "join"])
def test_compare_kills_run_ahead(tmp_path, forks, forked_kinds, monkeypatch, error, where):
    # adolf_local's child runs until it is killed; adolf raises at its first round,
    # or the error hits while this process waits in the join for the child's report
    kill, kills = os.kill, []

    def recorded(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    def fault(state):
        raise error

    class Interrupted:
        """A report pipe whose read is hit by the error before any byte arrives."""

        def __init__(self, report):
            self.report = report

        def read(self):
            raise error

        def __getattr__(self, name):
            return getattr(self.report, name)

    fork = runner.fork_ahead

    def interrupted(*args):
        child = fork(*args)
        child.report = Interrupted(child.report)
        return child

    monkeypatch.setattr(os, "kill", recorded)
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 2)
    monkeypatch.setitem(solvers._ALGORITHMS, "adolf_local", step_of("adolf_local", hang_ahead()))
    if where == "earlier_run":
        monkeypatch.setitem(solvers._ALGORITHMS, "adolf", step_of("adolf", fault))
    else:
        monkeypatch.setattr(runner, "fork_ahead", interrupted)
    with leaves_nothing(), pytest.raises(type(error)):
        runner.compare(compare_configs(ADOLF, ADOLF_LOCAL), out_dir=tmp_path)
    assert forked_kinds == ["adolf_local"] and len(forks) == 1
    assert kills == [(forks[0], signal.SIGKILL)]
    assert ({path.name for path in tmp_path.iterdir()}
            == (set() if where == "earlier_run" else {"run0.csv", "run0.manifest.json"}))


@pytest.fixture
def tracing(monkeypatch):
    """perfbench's span recorder, which rebinds runner's calls by name."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    return tracing


def test_runs_ahead_keep_the_benchmark_phases(tmp_path, forks, tracing, monkeypatch):
    # at 3 CPUs the grid and adolf_local run ahead; the caller still makes one search
    # and one run call per config under compare's span, each holding its result,
    # and adolf_local's span holds the wait for its child, which sleeps at round 0
    nap, caller, forked_at = 0.3, os.getpid(), {}

    def sleep_ahead(state):
        if state.k == 0 and os.getpid() != caller:
            time.sleep(nap)

    fork = runner.fork_ahead

    def timed(fn, config, *args):
        forked_at[config.algorithm.kind] = time.perf_counter()
        return fork(fn, config, *args)

    monkeypatch.setattr(runner, "fork_ahead", timed)
    monkeypatch.setitem(solvers._ALGORITHMS, "adolf_local", step_of("adolf_local", sleep_ahead))
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 3)
    configs = compare_configs(ADOLF, ADOLF_LOCAL, grid_algorithm(0.05, 0.3))
    tracer = tracing.Tracer()
    tracer.install_phases()
    try:
        with leaves_nothing():
            runner.compare(configs, out_dir=tmp_path)
    finally:
        tracer.restore()
    assert sorted(forked_at) == ["adolf_local", "extra"] and len(forks) == 2
    (root,) = [i for i, span in enumerate(tracer.spans) if span[0] == "runner.compare"]
    kids = tracing.children(tracer.spans, root)
    calls = [span for span in kids if span[0] == tracing.GRID
             or span[0].startswith(tracing.RUN_PREFIX)]
    assert [span[0] for span in calls] == [
        "solvers.run.adolf", "solvers.run.adolf_local", tracing.GRID, "solvers.run.extra"]
    assert isinstance(calls[2][4], solvers.GridSearch)
    assert all(isinstance(span[4], Trace) for span in calls[:2] + calls[3:])
    # the child cannot report before its nap is over, and the caller waits in the span
    _, start, end, _, _ = calls[1]
    assert end - start >= nap - (start - forked_at["adolf_local"])


# Every forked child notes its parent and itself in a log directory while a test
# has set one (fork_log); a fork hook cannot be unregistered, so it is inert else.
_FORK_LOG = []


def _log_fork():
    if _FORK_LOG:
        (_FORK_LOG[0] / f"{os.getppid()}-{os.getpid()}").touch()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_log_fork)


@pytest.fixture
def fork_log(tmp_path):
    """A function giving the forks of every process since the test began, sorted
    (parent pid, child pid) pairs, the children's own notes."""
    logs = tmp_path / "forks"
    logs.mkdir()
    _FORK_LOG.append(logs)
    yield lambda: sorted(tuple(map(int, path.name.split("-"))) for path in logs.iterdir())
    _FORK_LOG.clear()


def test_compare_forks_only_its_runs_ahead(tmp_path, forks, fork_log, forked_kinds,
                                           monkeypatch):
    # at 3 CPUs the grid, in two blocks, and adolf_local run ahead in two children
    # of this process, and neither child forks; at 1 CPU nothing forks
    monkeypatch.setattr(solvers, "GRID_BLOCK_BYTES", 2 * solvers.GRID_COLUMN_ARRAYS * M * D * 8)
    configs = compare_configs(ADOLF, ADOLF_LOCAL, grid_algorithm(0.05, 0.3, 1.0, 8.0))
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 1)
    want = compare_outputs(configs, tmp_path / "one")
    assert not fork_log() and not forks
    monkeypatch.setattr(objectives, "_cpu_count", lambda: 3)
    assert compare_outputs(configs, tmp_path / "three") == want
    assert forked_kinds == ["extra", "adolf_local"] and len(forks) == 2
    assert fork_log() == sorted((os.getpid(), pid) for pid in forks)


# A laned compare forks too: the lane threads the reference solve started are
# stopped first, and the caller and each child run the instance's lanes.
@pytest.fixture
def lane_log(monkeypatch, tmp_path):
    """The directory where each process appends to a log of its own, one line per
    laned call of a batch evaluator: the lanes it ran in, the threads then alive and
    the lane pool's size. compare's forks mark the caller's log (read_lane_logs)."""
    logs = tmp_path / "lanes"
    logs.mkdir()
    in_lanes, fork = objectives.ProblemInstance._in_lanes, runner.fork_ahead

    def write(line):
        with open(logs / str(os.getpid()), "a") as log:
            log.write(line + "\n")

    def logged(self, kernel, ranges, *args):
        in_lanes(self, kernel, ranges, *args)
        pool = objectives._LANE_POOL
        write(f"{len(ranges)} lanes, {threading.active_count()} threads, "
              f"pool of {pool._max_workers if pool else 0}")

    def marked(*args):
        write("fork")
        return fork(*args)

    monkeypatch.setattr(objectives.ProblemInstance, "_in_lanes", logged)
    monkeypatch.setattr(runner, "fork_ahead", marked)
    return logs


def read_lane_logs(logs) -> dict:
    """{pid: [line, ...]} of lane_log's logs, "fork" for a mark; they are emptied."""
    lines = {}
    for path in logs.iterdir():
        lines[int(path.name)] = path.read_text().splitlines()
        path.unlink()
    return lines


@pytest.fixture
def threads_after_workspace(monkeypatch):
    """The threads alive once each compare built its workspace, saddle solve and all."""
    counts, workspace = [], runner._Workspace

    def built(config):
        ws = workspace(config)
        counts.append(threading.active_count())
        return ws

    monkeypatch.setattr(runner, "_Workspace", built)
    return counts


def assert_lanes_restored():
    """The caller's lane threads are stopped: no pool until the next use."""
    assert objectives._LANE_POOL is None
    assert threading.active_count() == 1


@pytest.mark.parametrize("algorithms, problem_kind", [
    ((ADOLF, ADOLF_LOCAL), "ridge"),
    ((grid_algorithm(0.05, 0.3), ADOLF, ADOLF_LOCAL), "logistic_synthetic"),
], ids=["pair", "grid_triple"])
def test_laned_compare_runs_ahead_identical(tmp_path, force_lanes, forks, forked_kinds,
                                            threads_after_workspace, algorithms, problem_kind):
    # both with a saddle solve, whose lane threads are alive when compare starts
    configs = compare_configs(*algorithms, problem_kind=problem_kind)
    assert all(config.diagnostics.saddle for config in configs)
    force_lanes(1)
    want = compare_outputs(configs, tmp_path / "one")
    assert not forks and not forked_kinds
    force_lanes(2)
    got = compare_outputs(configs, tmp_path / "two")
    assert forked_kinds == ["adolf_local"] and len(forks) == 1
    assert threads_after_workspace == [1, 2]  # the one-lane compare started no lane thread
    assert_lanes_restored()
    for i in range(len(configs)):
        name = f"run{i}.manifest.json"
        assert (want[name].pop("lanes"), got[name].pop("lanes")) == (1, 2)
    assert got == want


def lanes_during_runs(log: dict, caller: int) -> tuple[set, set]:
    """The distinct lines the caller logged after its fork, and those its children logged."""
    mine = log.pop(caller)
    return set(mine[mine.index("fork") + 1:]), {line for lines in log.values() for line in lines}


def lanes_and_pools(lines) -> set:
    """The distinct (lanes, pool size) pairs of lane_log lines; the threads alive are left
    out, as a pool starts a thread only when none of its threads is idle."""
    return {(line.split(" lanes")[0], line.split("pool of ")[1]) for line in lines}


@pytest.mark.parametrize("cpus", [2, 4])
def test_laned_compare_runs_the_instances_lanes(tmp_path, force_lanes, forks, forked_kinds,
                                                lane_log, cpus):
    # the caller and the child each run every lane of the instance, from a pool
    # of a thread per CPU beyond the caller's, as its manifests record
    force_lanes(cpus)
    with leaves_nothing():
        result = runner.compare(compare_configs(ADOLF, ADOLF_LOCAL), out_dir=tmp_path / "out")
    assert forked_kinds == ["adolf_local"]
    mine, children = lanes_during_runs(read_lane_logs(lane_log), os.getpid())
    assert lanes_and_pools(mine) == lanes_and_pools(children) == {(str(cpus), str(cpus - 1))}
    assert [manifest.lanes for manifest in result.manifests] == [cpus, cpus]
    assert_lanes_restored()
    # the next laned call starts the pool again
    synth_ridge(M, N, D, seed=3).stacked_gradient(np.zeros((M, D)))
    (line,) = read_lane_logs(lane_log)[os.getpid()]
    assert line.startswith(f"{cpus} lanes") and line.endswith(f"pool of {cpus - 1}")


@pytest.mark.parametrize("exit_by", ["error", "interrupt", "killed_child"])
def test_laned_compare_restores_lanes_on_every_exit(tmp_path, force_lanes, forks, forked_kinds,
                                                    lane_log, monkeypatch, exit_by):
    # at 2 CPUs the caller runs two lanes, so a lane thread is alive when adolf
    # raises at round 3, or while it runs adolf_local itself once its child is killed
    force_lanes(2)
    configs = compare_configs(ADOLF, ADOLF_LOCAL)
    monkeypatch.setitem(solvers._ALGORITHMS, "adolf_local", step_of("adolf_local", hang_ahead()))
    if exit_by == "killed_child":
        fork = runner.fork_ahead

        def killed(*args):
            child = fork(*args)
            os.kill(child.pid, signal.SIGKILL)
            return child

        monkeypatch.setattr(runner, "fork_ahead", killed)
        compare_outputs(configs, tmp_path / "out")
    else:
        error = KeyboardInterrupt() if exit_by == "interrupt" else FloatingPointError("a fault")

        def fault(state):
            if state.k == 3:
                raise error

        monkeypatch.setitem(solvers._ALGORITHMS, "adolf", step_of("adolf", fault))
        with leaves_nothing(), pytest.raises(type(error)):
            runner.compare(configs, out_dir=tmp_path / "out")
    assert lanes_during_runs(read_lane_logs(lane_log), os.getpid())[0] == {
        "2 lanes, 2 threads, pool of 1"}
    assert forked_kinds == ["adolf_local"] and len(forks) == 1
    assert_lanes_restored()


def test_laned_compare_fork_fails_runs_every_lane(tmp_path, force_lanes, forks, forked_kinds,
                                                  lane_log, monkeypatch):
    # no child: the caller runs all four lanes
    def fails():
        forks.append(None)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fails)
    force_lanes(4)
    compare_outputs(compare_configs(ADOLF, ADOLF_LOCAL), tmp_path / "out")
    assert forked_kinds == ["adolf_local"] and forks == [None]
    mine, _ = lanes_during_runs(read_lane_logs(lane_log), os.getpid())
    assert {line.split(",")[0] for line in mine} == {"4 lanes"}
    assert_lanes_restored()


# Scheduling never changes a byte: a compare set drawn at random, run at 2-4 CPUs with
# at most one fault (a fork that fails, or a child killed as soon as it is forked),
# writes the files that the same set writes on one CPU, or raises the same error after
# the same files.
@st.composite
def algorithms(draw) -> dict:
    kind = draw(st.sampled_from(["adolf", "adolf_local", "extra", "extra_grid", "condat_vu"]))
    if kind in ("adolf", "adolf_local"):
        return {"kind": kind, "mode": draw(st.sampled_from(["convex", "strongly_convex"]))}
    if kind == "extra":
        return {"kind": "extra", "alpha": draw(st.sampled_from([0.01, 0.1, 0.5]))}
    if kind == "condat_vu":
        return {"kind": "condat_vu", "alpha": draw(st.sampled_from([0.01, 0.05]))}
    # the larger stepsizes diverge, and a grid of them alone raises
    grid = draw(st.lists(st.sampled_from([0.01, 0.1, 0.5, 3.0, 50.0]), min_size=1, max_size=3,
                         unique=True))
    return grid_algorithm(*sorted(grid), budget=draw(st.integers(5, 40)))


@st.composite
def compare_sets(draw) -> list:
    """2-4 configs on one tiny ridge or logistic instance, at most 60 rounds each."""
    m = draw(st.integers(3, 5))
    shared = {
        "problem": {"kind": draw(st.sampled_from(["ridge", "logistic_synthetic"])), "m": m,
                    "n": 4, "d": draw(st.integers(2, 4))},
        "graph": draw(st.sampled_from([{"kind": "line", "m": m}, {"kind": "ring", "m": m},
                                       {"kind": "erdos_renyi", "m": m, "p": 0.7}])),
        "master_seed": draw(st.integers(0, 3)),
    }
    configs = []
    for i in range(draw(st.integers(2, 4))):
        stop = {"max_iter": draw(st.integers(1, 60)), "cadence": draw(st.integers(1, 5))}
        if draw(st.booleans()):
            stop.update(metric="distance_sq", threshold=draw(st.sampled_from([1e-2, 1e-4, 1e-6])))
        configs.append(parse_config_dict({
            **shared, "algorithm": draw(algorithms()), "stop": stop,
            "diagnostics": {"cadence": draw(st.integers(1, 10))},
            "name": draw(st.sampled_from(["run", f"run{i}"])),  # "run" repeats: run_1, ...
        }))
    return configs


def compare_outcome(configs, out) -> tuple:
    """(the error compare raised, as its type and message, or None; written(out)), where
    compare leaves nothing behind either way."""
    with leaves_nothing():
        try:
            runner.compare(configs, out_dir=out)
        except Exception as exc:
            error = (type(exc), str(exc))
        else:
            error = None
    return error, written(out)


@given(configs=compare_sets(), data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_scheduling_never_changes_a_byte(forks, configs, data):
    cpus = data.draw(st.integers(2, 4), label="cpus")
    children = min(cpus, len(configs)) - 1
    fault = data.draw(st.sampled_from([None, "fork_fails", "killed"]), label="fault")
    at = data.draw(st.integers(0, children - 1), label="at fork")
    fork, fork_ahead = os.fork, runner.fork_ahead

    def failing():
        if fault == "fork_fails" and len(forks) == at:
            raise OSError("no process to spare")
        return fork()

    def killing(*args):
        child = fork_ahead(*args)
        if fault == "killed" and len(forks) == at + 1:
            os.kill(child.pid, signal.SIGKILL)
        return child

    forks.clear()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives, "_cpu_count", lambda: 1)
        want = compare_outcome(configs, Path(tmp) / "one")
        assert not forks
        patch.setattr(objectives, "_cpu_count", lambda: cpus)
        patch.setattr(os, "fork", failing)
        patch.setattr(runner, "fork_ahead", killing)
        got = compare_outcome(configs, Path(tmp) / "more")
    assert len(forks) == (at if fault == "fork_fails" else children)
    assert got == want
