"""Experiment orchestration: build, run, compare, and figure presets.

run_experiment turns one validated config into a CSV trace plus a JSON
manifest. compare runs several configs that share problem, graph, gossip,
and init sections against each other and emits aligned plot data (a tidy
long-format CSV and a gnuplot-friendly block file) plus a summary table of
communications-to-threshold. figure_preset generates the benchmark config
sets (line graph and two random-graph densities, one per figure family).

Output files are written atomically (temp file then rename) so repeated or
interrupted invocations never leave partial CSVs behind.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    AlgorithmConfig,
    DiagnosticsConfig,
    ExperimentConfig,
    GossipConfig,
    GraphConfig,
    InitConfig,
    ProblemConfig,
    StopConfig,
    check_file_stem,
    emit_config,
    resolved_dict,
)
from .diagnostics import (
    DEFAULT_METRIC,
    METRICS,
    SADDLE_METRICS,
    SaddlePoint,
    Trace,
    TraceRecorder,
    compute_saddle,
)
from .errors import ComparisonError, ConfigError, GraphGenerationError
from .objectives import ProblemInstance, load_mnist_partition, synth_logistic, synth_ridge
from .solvers import (
    ExtraParams,
    FixedStepParams,
    GridSearch,
    extra_grid_search,
    run,
)
from .topology import (
    GossipMatrix,
    Graph,
    graph_laplacian_sqrt,
    make_erdos_renyi,
    make_line_graph,
    make_ring_graph,
    metropolis_hastings,
)

__all__ = [
    "RunManifest",
    "ComparisonResult",
    "build_graph",
    "build_gossip",
    "build_problem",
    "build_initial_stack",
    "default_extra_grid",
    "run_experiment",
    "compare",
    "figure_preset",
    "preset_metric",
    "PRESET_NAMES",
]

PRESET_NAMES = ("fig1_line", "fig1_er01", "fig1_er09", "fig2_line", "fig2_er01", "fig2_er09")

OUTPUT_DIR_ENV = "DECOPT_OUTPUT_DIR"


def default_extra_grid(points: int = 20) -> tuple[float, ...]:
    """Log-spaced stepsize grid on [1e-5, 10]."""
    return tuple(float(a) for a in np.logspace(-5, 1, points))


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def build_graph(config: ExperimentConfig) -> Graph:
    g = config.graph
    if g.kind == "line":
        return make_line_graph(g.m)
    if g.kind == "ring":
        return make_ring_graph(g.m)
    try:
        return make_erdos_renyi(g.m, g.p, seed=config.graph_seed())
    except GraphGenerationError as exc:
        raise ConfigError(f"graph.p: {exc}; p = {g.p} is too sparse to connect {g.m} agents "
                          "with any practical chance") from exc


def build_gossip(config: ExperimentConfig, graph: Graph) -> GossipMatrix:
    return GossipMatrix(metropolis_hastings(graph), c=config.gossip.c)


def build_problem(config: ExperimentConfig) -> ProblemInstance:
    p = config.problem
    seed = config.data_seed()
    if p.kind == "ridge":
        return synth_ridge(p.m, p.n, p.d, seed=seed)
    if p.kind == "logistic_synthetic":
        return synth_logistic(p.m, p.n, p.d, seed=seed, noise=p.noise)
    return load_mnist_partition(p.images_path, p.labels_path, p.m, p.digit_pair, seed=seed)


def build_initial_stack(config: ExperimentConfig, problem: ProblemInstance) -> np.ndarray:
    if config.init.kind == "zeros":
        return np.zeros((problem.m, problem.d))
    rng = np.random.default_rng(config.init_seed())
    return rng.standard_normal((problem.m, problem.d))


@dataclass
class RunManifest:
    """Everything needed to locate and reproduce one run."""

    name: str
    config: dict
    version: str
    created_utc: str
    csv_path: str
    status: str
    iterations: int
    comm_vector: int
    comm_scalar: int
    consensus_iteration: int | None = None
    extra_best_alpha: float | None = None
    extra_grid: list[dict] | None = None  # one GridPoint per grid stepsize
    saddle_residual: float | None = None
    saddle_grad_norm: float | None = None  # ||grad f(x*)|| of the reference x*
    # what the iterative reference solve spent; None for ridge's exact solve
    reference_evaluations: int | None = None  # averaged gradients of its accelerated steps
    reference_hessians: int | None = None  # Hessians its chord finish formed
    reference_chord_steps: int | None = None  # its chord finish's trial points
    # run telemetry from the Trace; None where undefined or not finite
    alpha_floor: float | None = None  # smallest per-agent stepsize seen
    dual_colsum_max: float | None = None  # max relative column-sum drift of D over the trace rows
    l_tilde_hat: float | None = None  # max observed secant curvature; None if none positive
    mu_tilde_hat: float | None = None  # min observed secant strong convexity
    lanes: int = 1  # agent lanes of the instance's batch evaluators
    grid_rounds: int | None = None  # rounds the grid search ran, summed over its points

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _resolve_out_dir(config: ExperimentConfig, out_dir) -> Path:
    if out_dir is not None:
        path = Path(out_dir)
    elif os.environ.get(OUTPUT_DIR_ENV):
        path = Path(os.environ[OUTPUT_DIR_ENV])
    else:
        path = Path(config.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


class _Workspace:
    """Shared problem/graph/saddle build for one or more runs."""

    def __init__(self, config: ExperimentConfig):
        self.graph = build_graph(config)
        self.gossip = build_gossip(config, self.graph)
        self.problem = build_problem(config)
        if self.problem.m != self.graph.m:
            raise ConfigError(
                f"problem.m: problem has {self.problem.m} agents but graph has {self.graph.m}"
            )
        # computed here, on the gossip matrix; compute_saddle and condat_vu reuse it
        self.l_op = graph_laplacian_sqrt(self.gossip)
        self.saddle: SaddlePoint | None = None
        if config.diagnostics.saddle:
            self.saddle = compute_saddle(self.problem, self.gossip, tol=config.diagnostics.saddle_tol)
        self.x0 = build_initial_stack(config, self.problem)

    def recorder(self, cadence: int) -> TraceRecorder:
        return TraceRecorder(self.problem, self.l_op, self.saddle, cadence=cadence)


def _execute(config: ExperimentConfig, ws: _Workspace
             ) -> tuple[Trace, float | None, GridSearch | None]:
    """Run the configured algorithm inside a prepared workspace.

    Returns the trace, EXTRA's stepsize and, for a grid, the grid search.
    """
    algo = config.algorithm
    stop = config.stop
    cadence = config.diagnostics.cadence
    best_alpha = search = None
    if algo.kind in ("adolf", "adolf_local"):
        params = algo.stepsize_params()
        trace = run(algo.kind, ws.problem, ws.gossip, params, stop, ws.recorder(cadence), ws.x0)
    elif algo.kind == "condat_vu":
        params = FixedStepParams(alpha=algo.alpha, sigma=algo.sigma_bar, gamma=algo.gamma)
        trace = run("condat_vu", ws.problem, ws.gossip, params, stop, ws.recorder(cadence), ws.x0)
    else:  # extra
        if algo.grid is not None:
            search = extra_grid_search(
                ws.problem, ws.gossip, algo.grid, algo.budget, ws.recorder(cadence),
                stop.metric or DEFAULT_METRIC, ws.x0, stop,
            )
            best_alpha = search.alpha
        else:
            best_alpha = algo.alpha
        trace = run("extra", ws.problem, ws.gossip, ExtraParams(best_alpha), stop,
                    ws.recorder(cadence), ws.x0)
    return trace, best_alpha, search


def _write_run(config: ExperimentConfig, ws: _Workspace, out: Path,
               name: str) -> tuple[Trace, RunManifest]:
    """Execute one config in ws and write its trace CSV and manifest to out as name.*."""
    trace, best_alpha, search = _execute(config, ws)
    csv_path = out / f"{name}.csv"
    _atomic_write_text(csv_path, trace.to_csv())
    manifest = _manifest_for(config, trace, csv_path, ws, best_alpha, search, name)
    _atomic_write_text(out / f"{name}.manifest.json", manifest.to_json())
    return trace, manifest


def _manifest_for(config: ExperimentConfig, trace: Trace, csv_path: Path, ws: _Workspace,
                  best_alpha: float | None, search: GridSearch | None,
                  name: str) -> RunManifest:
    grid = None if search is None else search.points
    counts = None if ws.saddle is None else ws.saddle.solve_counts
    return RunManifest(
        name=name,
        config=resolved_dict(config),
        version=__version__,
        created_utc=datetime.now(timezone.utc).isoformat(),
        csv_path=str(csv_path),
        status=trace.status,
        iterations=trace.final.k,
        comm_vector=trace.final.comm_vector,
        comm_scalar=trace.final.comm_scalar,
        consensus_iteration=trace.consensus_iteration,
        extra_best_alpha=best_alpha,
        extra_grid=None if grid is None else [dataclasses.asdict(p) for p in grid],
        saddle_residual=None if ws.saddle is None else ws.saddle.stationarity_residual,
        saddle_grad_norm=None if ws.saddle is None else ws.saddle.grad_norm,
        reference_evaluations=None if counts is None else counts.evaluations,
        reference_hessians=None if counts is None else counts.hessians,
        reference_chord_steps=None if counts is None else counts.chord_steps,
        alpha_floor=_finite(trace.alpha_floor),
        dual_colsum_max=_finite(trace.dual_colsum_max),
        l_tilde_hat=_finite(trace.l_tilde_hat) if trace.l_tilde_hat > 0 else None,
        mu_tilde_hat=_finite(trace.mu_tilde_hat),
        lanes=ws.problem.lanes,
        grid_rounds=None if grid is None else sum(point.rounds for point in grid),
    )


def _finite(value) -> float | None:
    """A manifest number: None for an undefined or non-finite value, so the JSON stays standard."""
    return None if value is None or not math.isfinite(value) else float(value)


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Build everything, run the algorithm, and write trace + manifest."""
    out = _resolve_out_dir(config, out_dir)
    _, manifest = _write_run(config, _Workspace(config), out, config.run_name())
    _atomic_write_text(out / f"{manifest.name}.config.yaml", emit_config(config))
    return manifest


@dataclass
class ComparisonRow:
    name: str
    algorithm: str
    status: str
    comm_vector: int
    comm_scalar: int
    final_metric: float | None
    comms_to_threshold: int | None


@dataclass
class ComparisonResult:
    metric: str
    rows: list[ComparisonRow]
    manifests: list[RunManifest]
    long_path: str
    gnuplot_path: str
    summary_path: str

    def summary_table(self) -> str:
        header = f"{'run':<32} {'status':<10} {'comm_vector':>12} {'to_threshold':>13}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            target = "budget" if row.comms_to_threshold is None else str(row.comms_to_threshold)
            lines.append(
                f"{row.name:<32} {row.status:<10} {row.comm_vector:>12} {target:>13}"
            )
        return "\n".join(lines) + "\n"


def _shared_sections(config: ExperimentConfig) -> dict:
    """What every compared run shares, by config key: the workspace is built once."""
    return {
        "problem": (config.problem, config.data_seed()),
        "graph": (config.graph, config.graph_seed()),
        "gossip": config.gossip,
        "init": (config.init, config.init_seed()),
        "diagnostics.saddle": config.diagnostics.saddle,
        "diagnostics.saddle_tol": config.diagnostics.saddle_tol,
    }


def _comms_to_threshold(trace: Trace, metric: str, threshold: float | None) -> int | None:
    if threshold is None:
        return None
    for rec in trace.records:
        value = rec.metric(metric)
        if value is not None and value <= threshold:
            return rec.comm_vector
    return None


def compare(configs: list[ExperimentConfig], out_dir=None, metric: str | None = None,
            label: str = "compare") -> ComparisonResult:
    """Run several algorithm configs on one shared problem/graph instance.

    All configs must agree on the problem, graph, gossip and init sections
    (including resolved seeds) and on diagnostics.saddle and saddle_tol, so
    the trajectories are comparable. A run's threshold column uses its own
    stop.threshold when its stop.metric is the compared metric. label names
    the comparison's files, so it must be a plain file name.
    """
    if not configs:
        raise ComparisonError("compare needs at least one config")
    check_file_stem(label, "label")
    base = _shared_sections(configs[0])
    for cfg in configs[1:]:
        for key, value in _shared_sections(cfg).items():
            if value != base[key]:
                raise ComparisonError(f"{key}: {cfg.run_name()!r} differs from "
                                      f"{configs[0].run_name()!r}, so they are not comparable")
    metric = metric or configs[0].stop.metric or DEFAULT_METRIC
    if metric not in METRICS:
        raise ConfigError(f"compare metric must be one of {tuple(METRICS)}, got {metric!r}")
    if metric in SADDLE_METRICS and not configs[0].diagnostics.saddle:
        raise ConfigError(f"diagnostics.saddle: compare metric {metric!r} needs saddle "
                          "diagnostics")
    out = _resolve_out_dir(configs[0], out_dir)
    ws = _Workspace(configs[0])

    rows: list[ComparisonRow] = []
    manifests: list[RunManifest] = []
    long_lines = ["algorithm,k,comm_vector,comm_scalar,metric,value"]
    gp_blocks = []
    used_names: set[str] = set()
    for idx, cfg in enumerate(configs):
        name, suffix = cfg.run_name(), idx
        while name in used_names:  # run_name()_idx, or the next suffix that is free
            name, suffix = f"{cfg.run_name()}_{suffix}", suffix + 1
        used_names.add(name)
        trace, manifest = _write_run(cfg, ws, out, name)
        manifests.append(manifest)
        rows.append(
            ComparisonRow(
                name=name,
                algorithm=cfg.algorithm.kind,
                status=trace.status,
                comm_vector=trace.final.comm_vector,
                comm_scalar=trace.final.comm_scalar,
                final_metric=trace.final.metric(metric),
                comms_to_threshold=_comms_to_threshold(
                    trace, metric, cfg.stop.threshold if cfg.stop.metric == metric else None),
            )
        )
        gp_lines = [f"# {name}", "# k comm_vector value"]
        for rec in trace.records:
            value = rec.metric(metric)
            if value is not None:
                long_lines.append(
                    f"{name},{rec.k},{rec.comm_vector},{rec.comm_scalar},{metric},{value!r}"
                )
                gp_lines.append(f"{rec.k} {rec.comm_vector} {value!r}")
        gp_blocks.append("\n".join(gp_lines))

    long_path = out / f"{label}_long.csv"
    _atomic_write_text(long_path, "\n".join(long_lines) + "\n")
    gnuplot_path = out / f"{label}.dat"
    _atomic_write_text(gnuplot_path, "\n\n\n".join(gp_blocks) + "\n")

    result = ComparisonResult(
        metric=metric, rows=rows, manifests=manifests,
        long_path=str(long_path), gnuplot_path=str(gnuplot_path),
        summary_path=str(out / f"{label}_summary.txt"),
    )
    _atomic_write_text(Path(result.summary_path), result.summary_table())
    return result


def preset_metric(name: str) -> str:
    """The metric a figure preset compares its runs on."""
    return "objective_gap" if name.startswith("fig1") else "distance_sq"


def _preset_graph(tag: str) -> GraphConfig:
    if tag == "line":
        return GraphConfig(kind="line", m=20)
    p = 0.1 if tag == "er01" else 0.9
    return GraphConfig(kind="erdos_renyi", m=20, p=p)


def figure_preset(
    name: str,
    synthetic_logistic: bool = False,
    mnist_images: str | None = None,
    mnist_labels: str | None = None,
    master_seed: int = 0,
) -> list[ExperimentConfig]:
    """Benchmark config sets: m=20 agents, Metropolis-Hastings weights.

    fig1_* run the logistic problem and track the objective gap; fig2_* run
    the heterogeneous ridge problem (n=20, d=500, coefficients ramping from
    0.1 to 2.0) and track the squared distance. Each preset compares the
    shared-stepsize adaptive solver, the per-agent variant, and grid-searched
    EXTRA on one shared instance.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"preset must be one of {PRESET_NAMES}, got {name!r}")
    fig, graph_tag = name.split("_", 1)
    graph = _preset_graph(graph_tag)

    if fig == "fig1":
        if synthetic_logistic:
            problem = ProblemConfig(kind="logistic_synthetic", m=20, n=50, d=20, noise=0.1)
        else:
            if not (mnist_images and mnist_labels):
                raise ConfigError(
                    "problem.images_path: fig1 presets need MNIST IDX paths "
                    "(or pass synthetic_logistic=True)"
                )
            problem = ProblemConfig(kind="mnist", m=20, images_path=mnist_images,
                                    labels_path=mnist_labels)
        stop = StopConfig(max_iter=5000)
        diagnostics = DiagnosticsConfig(cadence=10, saddle=True, saddle_tol=1e-10)
        metric_mode = "convex"
        adolf_algo = AlgorithmConfig(kind="adolf", mode=metric_mode, c2=0.99, alpha0=1e-3)
        local_algo = AlgorithmConfig(kind="adolf_local", mode=metric_mode, c2=0.99,
                                     alpha0=1e-3, eta=0.9)
    else:
        problem = ProblemConfig(kind="ridge", m=20, n=20, d=500)
        stop = StopConfig(max_iter=50_000, metric=preset_metric(name), threshold=1e-10,
                          cadence=10)
        diagnostics = DiagnosticsConfig(cadence=10, saddle=True, saddle_tol=1e-12)
        adolf_algo = AlgorithmConfig(kind="adolf", mode="strongly_convex", c2=0.99,
                                     alpha0=1e-3, sigma=0.2)
        local_algo = AlgorithmConfig(kind="adolf_local", mode="strongly_convex", c2=0.99,
                                     alpha0=1e-3, sigma=0.2, eta=0.9)
    extra_algo = AlgorithmConfig(kind="extra", grid=default_extra_grid(), budget=3000)

    configs = []
    for algo in (adolf_algo, local_algo, extra_algo):
        configs.append(
            ExperimentConfig(
                problem=problem, graph=graph, gossip=GossipConfig(c=0.4), algorithm=algo,
                init=InitConfig(kind="zeros"), stop=stop, diagnostics=diagnostics,
                name=f"{name}_{algo.kind}", master_seed=master_seed,
            )
        )
    return configs
