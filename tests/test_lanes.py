"""Agent lanes: batch evaluators that split their agents across threads.

Lanes engage only above ``objectives.LANE_MIN_BYTES`` of data, on machines
with more than one CPU. These tests force them on small instances by setting
the cutoff to 0 and the CPU count to the lane count wanted; the lane count is
capped at m. Every result must be bit-identical to the single-lane one, since
a lane makes exactly the BLAS calls and elementwise operations that one lane
makes for its agents.
"""

import errno
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from decopt import cli, objectives, runner, solvers
from decopt.config import parse_config_dict
from decopt.diagnostics import METRICS, TraceRecorder, compute_saddle
from decopt.errors import NoConvergentStepsizeError, ShapeError
from decopt.objectives import load_mnist_partition, synth_logistic, synth_ridge
from decopt.solvers import extra_grid_search
from decopt.topology import graph_laplacian_sqrt, make_line_graph, metropolis_hastings, psd_shift
from faults import FaultByProcess, RaiseOutsideBall
from idx_files import write_idx_pair

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
    return {
        "column_gradients": prob.column_gradients(x_cols),
        "stacked_gradient": prob.stacked_gradient(x),
        "stacked_value": prob.stacked_value(x),
        "average_values_at_rows": prob.average_values_at_rows(x),
        "average_value": value,
        "average_gradient": grad,
        "average_value_alone": prob.average_value(x[1]),
        "average_gradient_alone": prob.average_gradient(x[1]),
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
def test_column_gradients_into_buffers(force_lanes, synth):
    # the grid's allocation-free call: same bits as the allocating one, at any lane count
    rng = np.random.default_rng(12)
    x_cols = 0.5 * rng.standard_normal((M, 3, D))
    x = 0.5 * rng.standard_normal((M, D))
    builds = [lambda: synth(M, N, D, seed=3)]  # below the cutoff: one lane, one block
    for count in [1] + COUNTS:
        builds.append(lambda count=count: force_lanes(count) or synth(M, N, D, seed=3))
    for build in builds:
        prob = build()
        want = prob.column_gradients(x_cols)
        for scratch in (None, np.full_like(x_cols, np.nan)):
            out = np.full_like(x_cols, np.nan)
            assert prob.column_gradients(x_cols, out=out, scratch=scratch) is out
            assert np.array_equal(out, want)
        assert np.array_equal(prob.stacked_gradient(x), prob.column_gradients(x[:, None])[:, 0])
    for bad in (np.empty((M, 2, D)), np.empty((M, 3, D), dtype=np.float32)):
        with pytest.raises(ShapeError, match="out"):
            prob.column_gradients(x_cols, out=bad)
        with pytest.raises(ShapeError, match="scratch"):
            prob.column_gradients(x_cols, out=np.empty_like(x_cols), scratch=bad)


@pytest.mark.parametrize("synth", [synth_ridge, synth_logistic])
def test_lanes_cover_every_agent_once(force_lanes, synth):
    for count in [1] + COUNTS:
        force_lanes(count)
        ranges = synth(M, N, D, seed=3)._kernel.ranges
        assert ranges[0][0] == 0 and ranges[-1][1] == M
        assert all(lo < hi == next_lo for (lo, hi), (next_lo, _) in zip(ranges, ranges[1:]))


def test_below_cutoff_is_one_lane():
    # a few kilobytes of data, far below the cutoff: one lane on any machine
    for prob in (synth_ridge(M, N, D, seed=3), synth_logistic(M, N, D, seed=3)):
        assert prob.a.nbytes < objectives.LANE_MIN_BYTES
        assert prob.lanes == 1


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


# Grid workers: the EXTRA grid search runs its column blocks in forked worker
# processes, the calling process first. These tests cut the grids into blocks
# of two stepsizes and set the worker count by patching solvers.grid_lanes.
GRID_WORKER_COUNTS = [1, 2, 3, 4, 9]  # 9 exceeds the 5 blocks: four workers run none


@pytest.fixture
def grid_blocks_of_two(monkeypatch):
    monkeypatch.setattr(solvers, "GRID_BLOCK_BYTES", 2 * solvers.GRID_COLUMN_ARRAYS * 16 * 4 * 8)


@pytest.fixture
def force_grid_workers(monkeypatch):
    """force_grid_workers(count): grid searches afterwards run on count workers."""
    def force(count):
        monkeypatch.setattr(solvers, "grid_lanes", lambda problem, blocks: count)
    return force


def grid_case(loss):
    """(problem, gossip, saddle, grid, x0) for 10 stepsizes, so 5 blocks of two.

    On ridge the top five stepsizes diverge at budget 200, and the block
    (0.1, 0.316) drops to one column when 0.316 diverges. The logistic grid
    stays below the stepsizes where EXTRA turns unstable.
    """
    gossip = psd_shift(metropolis_hastings(make_line_graph(16)), c=0.4)
    x0 = 10.0 * np.random.default_rng(42).standard_normal((16, 4))
    if loss == "ridge":
        prob, grid = synth_ridge(16, 8, 4, seed=40), np.logspace(-3, 1.5, 10)
    else:
        prob, grid = synth_logistic(16, 8, 4, seed=40), np.logspace(-3, 0.5, 10)
    return prob, gossip, compute_saddle(prob, gossip), grid, x0


def search(prob, gossip, saddle, grid, budget, metric, x0):
    """extra_grid_search's GridSearch, or its NoConvergentStepsizeError message."""
    recorder = TraceRecorder(prob, graph_laplacian_sqrt(gossip), saddle)
    try:
        return extra_grid_search(prob, gossip, grid, budget, recorder, metric, x0)
    except NoConvergentStepsizeError as exc:  # merit at budget 0: no value anywhere
        return str(exc)


def chosen(result):
    """A search's stepsize and points, or its message: all that must not depend on the workers."""
    return result if isinstance(result, str) else result[:2]


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))


def assert_nothing_left(fds: set):
    """No child process of this one remains, and no descriptor beyond fds is open."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def bounded(call, timeout=120):
    """call() on a thread, failing the test if it has not returned within timeout seconds."""
    got = {}
    thread = threading.Thread(target=lambda: got.update(result=call()), daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "the grid search hung"
    return got["result"]


def test_grid_lanes_rule(monkeypatch):
    # one per block, at most two per CPU; one on one CPU, for a laned problem, without fork
    prob = grid_case("ridge")[0]
    for cpus, workers in [(1, 1), (2, 4), (3, 5), (9, 5)]:
        monkeypatch.setattr(objectives, "_cpu_count", lambda: cpus)
        assert solvers.grid_lanes(prob, 5) == workers
        assert solvers.grid_lanes(prob, 2) == min(workers, 2)
    monkeypatch.setattr(objectives, "LANE_MIN_BYTES", 0)
    assert solvers.grid_lanes(grid_case("ridge")[0], 5) == 1
    monkeypatch.delattr(os, "fork")
    assert solvers.grid_lanes(prob, 5) == 1


@pytest.mark.parametrize("budget", [0, 1, 200])
@pytest.mark.parametrize("metric", list(METRICS))
@pytest.mark.parametrize("loss", ["ridge", "logistic"])
def test_grid_identical_at_any_grid_lane_count(force_grid_workers, grid_blocks_of_two, loss,
                                               metric, budget):
    prob, gossip, saddle, grid, x0 = grid_case(loss)
    results = {}
    fds = open_fds()
    for count in GRID_WORKER_COUNTS:
        force_grid_workers(count)
        results[count] = search(prob, gossip, saddle, grid, budget, metric, x0)
        if not isinstance(results[count], str):
            assert results[count].workers == count
        assert_nothing_left(fds)
    assert all(chosen(result) == chosen(results[1]) for result in results.values())


def test_grid_case_diverges_and_drops_to_one_column(grid_blocks_of_two):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    _, points, _ = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    blocks = [points[i:i + 2] for i in range(0, len(points), 2)]
    statuses = [tuple(p.status for p in block) for block in blocks]
    assert ("budget", "diverged") in statuses  # one column runs on alone
    assert ("diverged", "diverged") in statuses
    assert all(p.rounds < 200 for p in points if p.status == "diverged")


@pytest.mark.parametrize("count", GRID_WORKER_COUNTS)
def test_first_failing_block_raises_after_every_lane_stops(force_grid_workers,
                                                           grid_blocks_of_two, count):
    # blocks 2-4 leave the ball; the error is block 2's at any worker count,
    # and no worker process or pipe is left when it reaches the caller
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    faulty = RaiseOutsideBall(prob, radius=300.0)
    force_grid_workers(1)
    with pytest.raises(FloatingPointError) as want:
        search(faulty, gossip, saddle, grid[4:6], 200, "distance_sq", x0)
    force_grid_workers(count)
    fds = open_fds()
    with pytest.raises(FloatingPointError) as got:
        search(faulty, gossip, saddle, grid, 200, "distance_sq", x0)
    assert str(got.value) == str(want.value)
    assert_nothing_left(fds)


def test_first_failing_block_raises_when_the_caller_fails_later(force_grid_workers,
                                                               grid_blocks_of_two):
    # a worker's block 2 and the caller's block 3 both leave the ball: block 2's error
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    faulty = RaiseOutsideBall(prob, radius=300.0)
    force_grid_workers(1)
    with pytest.raises(FloatingPointError) as want:
        search(faulty, gossip, saddle, grid[4:6], 200, "distance_sq", x0)
    force_grid_workers(3)
    held, held_write = os.pipe()  # a byte from each worker once it holds its block
    go, go_write = os.pipe()  # a byte for each worker once the caller holds block 3
    calls = []

    def fault(in_caller):
        calls.append(1)
        if not in_caller and len(calls) == 1:  # blocks 1 and 2 wait for the caller
            os.write(held_write, b"x")
            assert select.select([go], [], [], 60)[0] and os.read(go, 1)
        elif in_caller and len(calls) == 1:  # block 0 goes on once both workers hold theirs
            got = b""
            while len(got) < 2 and select.select([held], [], [], 60)[0]:
                got += os.read(held, 2 - len(got))
            assert got == b"xx"
        elif in_caller and len(calls) == 200:  # block 0 made 199 calls: this is block 3's first
            os.write(go_write, b"xx")

    try:
        with pytest.raises(FloatingPointError) as got:
            search(FaultByProcess(faulty, fault), gossip, saddle, grid, 200, "distance_sq", x0)
    finally:
        for fd in (held, held_write, go, go_write):
            os.close(fd)
    assert str(got.value) == str(want.value)
    assert len(calls) > 200  # the caller met block 3, then ran block 2 again


def test_caller_block_runs_to_its_end_when_another_lane_fails(force_grid_workers,
                                                              grid_blocks_of_two):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    force_grid_workers(1)
    want = search(prob, gossip, saddle, grid[:4], 200, "distance_sq", x0)
    force_grid_workers(2)
    failed, failed_write = os.pipe()
    calls = []

    def fault(in_caller):
        if not in_caller:
            os.write(failed_write, b"x")
            raise FloatingPointError("worker failed")
        if not calls:  # the caller's block goes on only once the worker's block failed
            assert select.select([failed], [], [], 60)[0]
        calls.append(1)

    try:
        # 0.001-0.0316: no column diverges, so each block makes 199 gradient calls
        got = search(FaultByProcess(prob, fault), gossip, saddle, grid[:4], 200, "distance_sq", x0)
    finally:
        os.close(failed)
        os.close(failed_write)
    assert got.workers == 2 and chosen(got) == chosen(want)
    assert len(calls) == 2 * 199  # its own block to its end, then the failed block again


@pytest.mark.parametrize("count", [2, 4])
def test_worker_that_exits_without_reporting(force_grid_workers, grid_blocks_of_two, count):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    force_grid_workers(1)
    want = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    force_grid_workers(count)

    def fault(in_caller):
        if not in_caller:
            os._exit(3)

    fds = open_fds()
    got = bounded(lambda: search(FaultByProcess(prob, fault), gossip, saddle, grid, 200,
                                 "distance_sq", x0))
    assert got.workers == count and chosen(got) == chosen(want)
    assert_nothing_left(fds)


@pytest.mark.parametrize("forks", [0, 1])
def test_grid_runs_on_the_workers_that_forked(monkeypatch, force_grid_workers,
                                              grid_blocks_of_two, forks):
    # fork fails after forks children: this process runs the blocks of the workers never forked
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    force_grid_workers(1)
    want = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    force_grid_workers(4)
    fork, calls = os.fork, []

    def failing_fork():
        calls.append(1)
        if len(calls) > forks:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    fds = open_fds()
    got = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    assert got.workers == forks + 1 and chosen(got) == chosen(want)
    assert_nothing_left(fds)


def test_caller_block_failure_reaps_every_worker(force_grid_workers, grid_blocks_of_two):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    force_grid_workers(3)

    def fault(in_caller):
        if in_caller:
            raise FloatingPointError("caller failed")

    fds = open_fds()
    with pytest.raises(FloatingPointError, match="caller failed"):
        search(FaultByProcess(prob, fault), gossip, saddle, grid, 200, "distance_sq", x0)
    assert_nothing_left(fds)


def test_grid_workers_run_every_block_once(tmp_path):
    # more workers than CPUs, each logging every item it runs: an index in
    # two strides would run twice, one in none never
    log = tmp_path / "ran"

    def work(i):
        with open(log, "a") as f:
            f.write(f"{i} {os.getpid()}\n")
        time.sleep(0.001)
        return i, os.getpid()

    fds = open_fds()
    results, workers = solvers._in_grid_workers(500, 8, work)
    assert_nothing_left(fds)
    assert workers == 8
    assert [i for i, _ in results] == list(range(500))
    ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(ran) == sorted(results)
    assert results[0][1] == os.getpid()  # the calling process takes the first block
    # worker w runs the items w, w + 8, ...: eight processes, one per stride
    pids = [pid for _, pid in results]
    assert len(set(pids)) == 8
    assert all(pids[i] == pids[i % 8] for i in range(500))


def test_a_report_cut_short_is_not_read():
    # a worker's report fails to pickle after 200 kB went into its pipe: the
    # caller drops those bytes and runs the worker's items itself
    caller = os.getpid()
    fds = open_fds()
    started, started_write = os.pipe()

    def work(i):
        if os.getpid() != caller:
            os.write(started_write, b"x")
        elif i == 0:  # item 0 goes on once the worker holds an item
            assert select.select([started], [], [], 60)[0]
        return i, bytes(200_000), lambda: i

    try:
        results, workers = solvers._in_grid_workers(4, 2, work)
    finally:
        os.close(started)
        os.close(started_write)
    assert_nothing_left(fds)
    assert workers == 2
    assert [(i, len(data), fn()) for i, data, fn in results] == [(i, 200_000, i) for i in range(4)]


def test_many_blocks_on_two_strides():
    # worker 1 reports the 10 000 odd items, and the caller puts them between its own
    fds = open_fds()
    results, workers = solvers._in_grid_workers(20_000, 2, lambda i: i)
    assert_nothing_left(fds)
    assert results == list(range(20_000))
    assert workers == 2


def test_laned_problem_runs_one_grid_lane(force_lanes, grid_blocks_of_two):
    force_lanes(1)
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    want = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    force_lanes(2)
    prob = grid_case("ridge")[0]
    assert prob.lanes == 2 and solvers.grid_lanes(prob, 5) == 1
    got = bounded(lambda: search(prob, gossip, saddle, grid, 200, "distance_sq", x0))
    assert got == want and got.workers == 1


def test_ridge_grid_workers_load_no_pool_modules(tmp_path):
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", probe, "run", str(config), "--out",
                           str(tmp_path / "out")], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, False]
    manifest = json.loads((tmp_path / "out" / "lanes.manifest.json").read_text())
    assert manifest["grid_lanes"] == 2  # two blocks of two stepsizes: one forked worker


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
    assert got.grid_lanes == 1  # the agent lanes use the CPUs
    assert got.extra_grid == want.extra_grid
    assert got.extra_best_alpha == want.extra_best_alpha
    assert got_csv == want_csv


def test_run_manifest_records_lanes(tmp_path, force_lanes):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw_config("ridge", {"kind": "adolf"})))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "one")]) == 0
    manifest = json.loads((tmp_path / "one" / "lanes.manifest.json").read_text())
    assert manifest["lanes"] == 1  # a few kilobytes: below the cutoff
    assert manifest["grid_lanes"] is None  # no grid search
    assert manifest["grid_rounds"] is None
    force_lanes(3)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "three")]) == 0
    manifest = json.loads((tmp_path / "three" / "lanes.manifest.json").read_text())
    assert manifest["lanes"] == 3


def test_manifest_records_grid_lanes(tmp_path, monkeypatch):
    raw = raw_config("ridge", {"kind": "extra", "grid": [0.05, 0.3, 1.0, 8.0], "budget": 30})
    monkeypatch.setattr(solvers, "GRID_BLOCK_BYTES", 2 * solvers.GRID_COLUMN_ARRAYS * M * D * 8)
    outputs = {}
    for count in (1, 2):  # two blocks of two stepsizes
        monkeypatch.setattr(objectives, "_cpu_count", lambda: count)
        outputs[count], manifest = run_outputs(tmp_path, raw, f"grid{count}")
        assert (manifest.lanes, manifest.grid_lanes) == (1, count)
        written = json.loads((tmp_path / f"grid{count}" / "lanes.manifest.json").read_text())
        assert written["grid_lanes"] == count
        # the tuning cost: every point's rounds, so 8.0's divergence counts short
        rounds = [point["rounds"] for point in written["extra_grid"]]
        assert written["grid_rounds"] == manifest.grid_rounds == sum(rounds) < 4 * 30
    assert outputs[2] == outputs[1]


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
