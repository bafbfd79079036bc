"""Spans around decopt's layer boundaries, recorded from outside the package.

The benchmark never edits decopt. It rebinds, in its own process only, the
names through which one module calls into another (``decopt.runner.run``,
``ProblemInstance.stacked_gradient``, ...) to wrappers that record a span:
name, start, end, parent span and, for solver runs and the grid search, the
call's result.
Spans stay in memory; they are summarised after each repetition and, in a
traced run, written out when the benchmark ends.

Two sets of boundaries exist. The phases are the calls ``decopt.runner`` makes
once per run (workspace builders, ``run``, ``extra_grid_search``, CSV
serialisation); they are always wrapped, because the end-to-end metrics are
read from them, and they cost a few timer reads per repetition. The layers
are the per-iteration calls into objectives, stepsize and diagnostics; they are
wrapped only for the traced repetition, whose per-layer numbers therefore
carry the tracing overhead that the benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import time

from decopt import diagnostics, objectives, runner, solvers

# once-per-run workspace builders, named by the layer that owns them
SETUP_PHASES = {
    "build_graph": "topology.build_graph",
    "build_gossip": "topology.build_gossip",
    "build_problem": "objectives.build_problem",
    "graph_laplacian_sqrt": "topology.laplacian_sqrt",
    "compute_saddle": "diagnostics.compute_saddle",
    "build_initial_stack": "runner.build_initial_stack",
}
RUN_PREFIX = "solvers.run."
GRID = "solvers.extra_grid_search"
TO_CSV = "diagnostics.to_csv"
GRID_RUN = "solvers.grid.run"

_SELECT = ("select_alpha_convex", "select_alpha_strongly_convex", "curvature_guard",
           "local_candidate_strongly_convex", "local_tilde", "local_min_consensus")


def _run_name(args, kwargs):
    return RUN_PREFIX + (args[0] if args else kwargs["algorithm"])


class Tracer:
    """Span recorder plus the bookkeeping to undo every rebinding it made."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name, keep: bool = False) -> None:
        """Rebind owner.attr to a span-recording wrapper.

        name is a span name or a function of the call's (args, kwargs);
        with keep, the span also holds the call's result.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            label = name(args, kwargs) if callable(name) else name
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = spans[idx]
            span[1], span[2] = start, end
            if keep:
                span[4] = result
            return result

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install_phases(self) -> None:
        """Wrap the once-per-run calls, as decopt.runner references them."""
        self.wrap(runner, "compare", "runner.compare")
        for attr, name in SETUP_PHASES.items():
            self.wrap(runner, attr, name)
        self.wrap(runner, "run", _run_name, keep=True)
        self.wrap(runner, "extra_grid_search", GRID, keep=True)
        self.wrap(diagnostics.Trace, "to_csv", TO_CSV)

    def install_layers(self) -> None:
        """Wrap the per-iteration calls between layers, for a traced repetition."""
        problem = objectives.ProblemInstance
        for attr in ("stacked_gradient", "stacked_value", "average_values_at_rows",
                     "average_gradient"):
            self.wrap(problem, attr, f"objectives.{attr}")
        self.wrap(diagnostics.TraceRecorder, "observe", "diagnostics.observe")
        self.wrap(diagnostics.TraceRecorder, "metric_value", "diagnostics.metric_value")
        for attr in ("curvature_global", "curvature_local"):
            self.wrap(solvers, attr, "stepsize.curvature")
        for attr in _SELECT:
            self.wrap(solvers, attr, "stepsize.select")
        # extra_grid_search calls the solvers module's own `run`
        self.wrap(solvers, "run", GRID_RUN, keep=True)
        for attr in ("centralized_minimize", "ridge_exact_solution"):
            self.wrap(diagnostics, attr, "objectives.reference_solve")

    def restore(self) -> None:
        """Undo every rebinding, newest first."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write spans as gzip-compressed CSV: index,name,start,end,parent."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index,name,start,end,parent\n")
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                f.write(f"{idx},{name},{start!r},{end!r},{parent}\n")


def children(spans: list[list], root: int) -> list[list]:
    """Direct child spans of spans[root]."""
    return [s for s in spans[root + 1:] if s[3] == root]


def self_times(spans: list[list], first: int = 0) -> list[float]:
    """Each span's length minus the time its child spans cover.

    Children never overlap (one run is sequential), so the covered time is
    the sum of the children's lengths. Indices are relative to ``first``.
    """
    own = [s[2] - s[1] for s in spans[first:]]
    for s in spans[first:]:
        if s[3] >= first:
            own[s[3] - first] -= s[2] - s[1]
    return own
