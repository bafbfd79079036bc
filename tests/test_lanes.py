"""Agent lanes: batch evaluators that split their agents across threads.

Lanes engage only above ``objectives.LANE_MIN_BYTES`` of data, on machines
with more than one CPU. These tests force them on small instances by setting
the cutoff to 0 and the CPU count to the lane count wanted; the lane count is
capped at m. Every result must be bit-identical to the single-lane one, since
a lane makes exactly the BLAS calls and elementwise operations that one lane
makes for its agents.
"""

import json
import os
import signal
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from decopt import cli, objectives, runner, solvers
from decopt.config import parse_config_dict
from decopt.diagnostics import TraceRecorder, compute_saddle
from decopt.objectives import load_mnist_partition, synth_logistic, synth_ridge
from decopt.solvers import extra_grid_search
from decopt.topology import (
    GossipMatrix,
    make_line_graph,
    metropolis_hastings,
)
from faults import RaiseOutsideBall
from idx_files import write_idx_pair
from oracles import average_value
from probes import run_probe

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


def search(prob, gossip, saddle, grid, budget, metric, x0):
    """extra_grid_search's GridSearch."""
    recorder = TraceRecorder(prob, gossip, saddle)
    return extra_grid_search(prob, gossip, grid, budget, recorder, metric, x0)


def test_grid_case_diverges_and_drops_to_one_column(grid_blocks_of_two):
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    _, points = search(prob, gossip, saddle, grid, 200, "distance_sq", x0)
    blocks = [points[i:i + 2] for i in range(0, len(points), 2)]
    statuses = [tuple(p.status for p in block) for block in blocks]
    assert ("budget", "diverged") in statuses  # one column runs on alone
    assert ("diverged", "diverged") in statuses
    assert all(p.rounds < 200 for p in points if p.status == "diverged")


def test_block_error_reaches_caller(grid_blocks_of_two):
    # the top blocks leave the ball; the first one the search runs raises
    prob, gossip, saddle, grid, x0 = grid_case("ridge")
    faulty = RaiseOutsideBall(prob, radius=300.0)
    with pytest.raises(FloatingPointError, match="outside the ball"):
        search(faulty, gossip, saddle, grid, 200, "distance_sq", x0)


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
