"""Repetition loop, correctness gate, phase coverage and metric extraction.

Imported by run.py after the BLAS thread count is fixed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

import decopt
from decopt import runner
from tracing import (GRID, GRID_RUN, RUN_PREFIX, SETUP_PHASES, TO_CSV, Tracer, children,
                     self_times)
from workloads import WORKLOADS, check_run, configs

# The once-per-run phases (workspace build, solver runs, grid search, CSV
# serialisation) must cover this share of each compare call; the rest is
# manifests, long-format and gnuplot output.
PHASE_COVERAGE_MIN = 0.8
# three: every run's trace CSV is compared byte for byte with a rerun, and the
# median of three drops one repetition slowed by other load on the machine
MIN_REPETITIONS = 3
GOSSIP_CALLS_PER_SAMPLE = 1000
GOSSIP_SAMPLES = 7


def environment() -> dict:
    """Library versions and machine facts that byte-exact traces depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "decopt": decopt.__version__,
    }


def _duration(span) -> float:
    return span[2] - span[1]


def _check_root(workload, cfgs, spans, root) -> tuple[list, list[list[str]]]:
    """Chosen stepsizes and gate failures of the runs under one compare call.

    Each once-per-run timer must fire the expected number of times and the
    phases must cover PHASE_COVERAGE_MIN of the call; otherwise every run
    under it fails, so a refactor that routes around a wrapped call cannot
    pass as a speed-up.
    """
    kids = children(spans, root)
    fired = Counter(k[0] for k in kids)
    expected = Counter({name: 1 for name in SETUP_PHASES.values()})
    expected.update(RUN_PREFIX + c.algorithm.kind for c in cfgs)
    expected[GRID] = sum(c.algorithm.kind == "extra" and c.algorithm.grid is not None
                         for c in cfgs)
    expected[TO_CSV] = len(cfgs)
    shared = [f"{name} fired {fired[name]} times, expected {n}"
              for name, n in expected.items() if fired[name] != n]
    covered = sum(_duration(k) for k in kids if k[0] in expected)
    if covered < PHASE_COVERAGE_MIN * _duration(spans[root]):
        shared.append(f"phases cover {covered / _duration(spans[root]):.3f} of the call")

    traces = [k[4] for k in kids if k[0].startswith(RUN_PREFIX)]
    alphas = iter([k[4][0] for k in kids if k[0] == GRID])
    runs, problems = [], []
    for cfg, trace in zip(cfgs, traces):
        alpha = cfg.algorithm.alpha
        if cfg.algorithm.kind == "extra" and cfg.algorithm.grid is not None:
            alpha = next(alphas, None)
        runs.append((cfg, alpha))
        problems.append(shared + check_run(workload, cfg, trace, alpha))
    problems += [shared or ["run missing"]] * (len(cfgs) - len(traces))
    return runs, problems


class Repetitions:
    """Runs compare calls and counts the runs that fail the gate."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload = WORKLOADS[workload]
        self.cfgs = configs(workload, seed)
        self.tracer = Tracer()
        self.scratch = scratch
        self.compares: list[int] = []  # root span index of each compare call
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        # per run name, from its first repetition: CSV digest and EXTRA stepsize
        self.first: dict[str, tuple] = {}

    def compare(self) -> float:
        """One repetition; returns its wall time."""
        out = self.scratch / f"compare{len(self.compares)}"
        root = len(self.tracer.spans)
        runner.compare(self.cfgs, out_dir=out, metric=self.workload.metric,
                       label=self.workload.name)
        self.compares.append(root)
        runs, problems = _check_root(self.workload, self.cfgs, self.tracer.spans, root)
        for (cfg, alpha), run_problems in zip(runs, problems):
            name = cfg.run_name()
            digest = hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
            first_digest, first_alpha = self.first.setdefault(name, (digest, alpha))
            if digest != first_digest:
                run_problems.append("trace CSV differs from the first repetition")
            if alpha != first_alpha:
                run_problems.append(f"EXTRA chose {alpha!r}, first repetition {first_alpha!r}")
        self.attempted += len(self.cfgs)
        for cfg, run_problems in zip(self.cfgs, problems):
            self.failed += bool(run_problems)
            self.failures += [f"repetition {len(self.compares)} {cfg.run_name()}: {p}"
                              for p in run_problems]
        return _duration(self.tracer.spans[root])


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(reps: Repetitions) -> dict[str, float]:
    """Medians over the repetitions; prints every sample."""
    spans = reps.tracer.spans
    total = [_duration(spans[root]) for root in reps.compares]
    setup = [sum(_duration(k) for k in children(spans, root) if k[0] in SETUP_PHASES.values())
             for root in reps.compares]
    print("perfbench samples:", json.dumps({"total_s": total, "setup_s": setup}))
    return {
        "total_s": _median(total),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _gossip_us_per_call(cfg, seed: int) -> float:
    """Median time of the inline gossip multiply W @ X at the workload's (m, d)."""
    w = runner.build_gossip(cfg, runner.build_graph(cfg)).shifted
    x = np.random.default_rng(seed).standard_normal((cfg.problem.m, cfg.problem.d))
    samples = []
    for _ in range(GOSSIP_SAMPLES):
        start = time.perf_counter()
        for _ in range(GOSSIP_CALLS_PER_SAMPLE):
            w @ x
        samples.append((time.perf_counter() - start) / GOSSIP_CALLS_PER_SAMPLE)
    return 1e6 * _median(samples)


def per_layer(reps: Repetitions, root: int, untraced_total: float,
              gossip_us: float) -> dict[str, float]:
    """Per-layer metrics of the traced repetition at spans[root]; prints its self times."""
    spans = reps.tracer.spans
    sub, own = spans[root:], self_times(spans, root)
    total = _duration(spans[root])
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    for span, s_own in zip(sub, own):
        calls[span[0]] += 1
        busy[span[0]] += _duration(span)
        self_s[span[0]] += s_own
    runs = [(s, o) for s, o in zip(sub, own) if s[0].startswith(RUN_PREFIX) or s[0] == GRID_RUN]
    grid_runs = [s[4] for s, _ in runs if s[0] == GRID_RUN]
    final = {s[0][len(RUN_PREFIX):]: s for s, _ in runs if s[0].startswith(RUN_PREFIX)}
    iters = sum(s[4].final.comm_vector for s, _ in runs)
    ref_grad_calls = sum(1 for s in sub if s[0] == "objectives.average_gradient"
                         and spans[s[3]][0] == "objectives.reference_solve")
    p = reps.cfgs[0].problem
    gradient_bytes = 8 * (2 * p.m * p.n * p.d + 2 * p.m * p.d)
    gossip_bytes = 8 * (p.m * p.m + 2 * p.m * p.d)

    print(f"{'span':<36} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self %':>7}")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"{name:<36} {calls[name]:>9} {busy[name]:>10.4f} {self_s[name]:>10.4f} "
              f"{100 * self_s[name] / total:>6.2f}%")
    print(f"{'sum of self times / traced total':<36} {sum(own) / total:>40.6f}")

    def per_call(name: str) -> float:
        return 1e6 * busy[name] / calls[name] if calls[name] else 0.0

    return {
        "trace.total_s": total,
        "trace.overhead_s": total - untraced_total,
        "solvers.grid_share": busy[GRID] / total,
        "solvers.grid.points": len(grid_runs),
        "solvers.grid.diverged_frac": (sum(t.status == "diverged" for t in grid_runs)
                                       / len(grid_runs) if grid_runs else 0.0),
        "solvers.grid.iters": sum(t.final.comm_vector for t in grid_runs),
        "solvers.run.adolf_s": _duration(final["adolf"]),
        "solvers.run.adolf_local_s": _duration(final["adolf_local"]),
        "solvers.run.extra_share": _duration(final["extra"]) / total if "extra" in final else 0.0,
        "solvers.run.adolf.iters": final["adolf"][4].final.comm_vector,
        "solvers.run.adolf_local.iters": final["adolf_local"][4].final.comm_vector,
        "solvers.run.extra.iters": final["extra"][4].final.comm_vector if "extra" in final else 0,
        "solvers.self_us_per_iter": 1e6 * sum(o for _, o in runs) / iters,
        "objectives.stacked_gradient.calls": calls["objectives.stacked_gradient"],
        "objectives.stacked_gradient.busy_s": busy["objectives.stacked_gradient"],
        "objectives.stacked_gradient.us_per_call": per_call("objectives.stacked_gradient"),
        "objectives.stacked_gradient.bytes_computed":
            calls["objectives.stacked_gradient"] * gradient_bytes,
        "objectives.average_values_at_rows.calls": calls["objectives.average_values_at_rows"],
        "objectives.average_values_at_rows.busy_s": busy["objectives.average_values_at_rows"],
        "objectives.stacked_value.calls": calls["objectives.stacked_value"],
        "objectives.stacked_value.busy_s": busy["objectives.stacked_value"],
        "diagnostics.metric_value.calls": calls["diagnostics.metric_value"],
        "diagnostics.metric_value.busy_s": busy["diagnostics.metric_value"],
        "diagnostics.observe.calls": calls["diagnostics.observe"],
        "diagnostics.observe.busy_s": busy["diagnostics.observe"],
        "diagnostics.observe.us_per_call": per_call("diagnostics.observe"),
        "diagnostics.rows": sum(len(s[4].records) for s, _ in runs),
        "stepsize.select.calls": calls["stepsize.select"],
        "stepsize.select.busy_s": busy["stepsize.select"],
        "stepsize.curvature.calls": calls["stepsize.curvature"],
        "stepsize.curvature.busy_s": busy["stepsize.curvature"],
        "diagnostics.to_csv_s": busy[TO_CSV],
        "runner.self_s": own[0],
        "objectives.build_problem_s": busy["objectives.build_problem"],
        "topology.build_s": busy["topology.build_graph"] + busy["topology.build_gossip"],
        "topology.laplacian_sqrt_s": busy["topology.laplacian_sqrt"],
        "diagnostics.compute_saddle_s": busy["diagnostics.compute_saddle"],
        "objectives.reference_solve_s": busy["objectives.reference_solve"],
        "objectives.reference_solve.grad_calls": ref_grad_calls,
        "topology.gossip.calls": iters,
        "topology.gossip.us_per_call": gossip_us,
        "topology.gossip.bytes_computed": iters * gossip_bytes,
        "topology.gossip.est_share": iters * gossip_us * 1e-6 / total,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload; returns the result object with raw metric values."""
    work.mkdir(exist_ok=True)
    print("perfbench env:", json.dumps(environment()), flush=True)
    with tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=work) as scratch:
        reps = Repetitions(workload, seed, Path(scratch))
        reps.tracer.install_phases()
        try:
            start = time.perf_counter()
            while True:
                last = reps.compare()
                if (len(reps.compares) >= MIN_REPETITIONS
                        and time.perf_counter() - start + last > seconds):
                    break
            metrics = end_to_end(reps)
            if trace:
                reps.tracer.install_layers()
                root = len(reps.tracer.spans)
                reps.compare()
        finally:
            reps.tracer.restore()
    if trace:
        metrics = per_layer(reps, root, metrics["total_s"],
                            _gossip_us_per_call(reps.cfgs[0], seed))
        reps.tracer.write(work / f"spans-{workload}-seed{seed}.csv.gz")
    for line in reps.failures:
        print("perfbench FAILED", line, file=sys.stderr)
    return {"correct": reps.failed == 0, "attempted": reps.attempted, "failed": reps.failed,
            "metrics": metrics}
