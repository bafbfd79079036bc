"""Schema and smoke tests of the benchmark itself: names, units and the gate.

Timings are never asserted. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
from decopt.diagnostics import Trace, TraceRecord  # noqa: E402
from measure import _check_root  # noqa: E402
from tracing import SETUP_PHASES, TO_CSV, self_times  # noqa: E402
from workloads import GAP_TOL, WORKLOADS, check_run, configs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert all(UNIT.fullmatch(u) for u in units)
    assert all(m["better"] in ("lower", "higher") for key in ("end_to_end", "per_layer")
               for m in SPEC[key])


def test_self_times_subtract_children():
    spans = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
             ["b", 2.0, 3.0, 1, None], ["c", 5.0, 9.0, 0, None]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0
    assert self_times(spans, 1) == [2.0, 1.0, 4.0]


def _trace(status, first, final, metric="objective_gap"):
    def row(k, value):
        fields = dict.fromkeys(TraceRecord.__dataclass_fields__)
        fields.update(k=k, comm_vector=k, comm_scalar=k, consensus_err=0.0, **{metric: value})
        return TraceRecord(**fields)
    return Trace(records=[row(0, first), row(5000, final)], status=status)


def test_gate_checks_status_and_gap_tolerance():
    workload = WORKLOADS["logistic_mnist_shape"]
    cfg = configs("logistic_mnist_shape", 0)[0]
    assert check_run(workload, cfg, _trace("budget", 0.3, -5.6e-17), None) == []
    assert check_run(workload, cfg, _trace("budget", 0.3, -10 * GAP_TOL), None)
    assert check_run(workload, cfg, _trace("diverged", 0.3, 1e-3), None)
    assert check_run(workload, cfg, _trace("budget", 0.3, 0.4), None)


def test_gate_checks_threshold_and_grid_point():
    workload = WORKLOADS["fig2_er09"]
    adolf, _, extra = configs("fig2_er09", 0)
    assert check_run(workload, adolf, _trace("converged", 7.0, 9e-11, "distance_sq"), None) == []
    assert check_run(workload, adolf, _trace("converged", 7.0, 2e-10, "distance_sq"), None)
    converged = _trace("converged", 7.0, 9e-11, "distance_sq")
    assert check_run(workload, extra, converged, extra.algorithm.grid[3]) == []
    assert check_run(workload, extra, converged, 0.0123)


def test_phase_coverage_fails_every_run_when_a_timer_is_skipped():
    workload = WORKLOADS["logistic_mnist_shape"]
    cfgs = configs("logistic_mnist_shape", 0)
    ok = _trace("budget", 0.3, 1e-3)
    spans = [["runner.compare", 0.0, 10.0, -1, None]]
    spans += [[name, 0.0, 0.1, 0, None] for name in SETUP_PHASES.values()]
    spans += [["solvers.run.adolf", 1.0, 5.0, 0, ok], [TO_CSV, 5.0, 5.1, 0, None],
              ["solvers.run.adolf_local", 5.1, 9.5, 0, ok], [TO_CSV, 9.5, 9.6, 0, None]]
    _, problems = _check_root(workload, cfgs, spans, 0)
    assert problems == [[], []]
    _, problems = _check_root(workload, cfgs, spans[:-2], 0)  # adolf_local run bypassed
    assert all(problems) and len(problems) == 2
    spans[0][2] = 100.0  # phases now cover under a tenth of the call
    _, problems = _check_root(workload, cfgs, spans, 0)
    assert all(problems)


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logistic_mnist_shape", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_output_names_units_and_gate(trace):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 4
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert type(m["value"]) in (int, float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
