"""Experiment configuration: schema, validation, parsing, and emission.

Configs are nested key-value documents (YAML on disk). Parsing is strict:
unknown keys, values of the wrong type and out-of-range values raise
ConfigError naming the offending key, and every default is resolved at parse
time so that emitting a parsed config and parsing it again is the identity.
The stop section and the growth policy are the solvers' own StopRule and
GrowthPolicy, and the adaptive solvers' constants are checked by building
their StepsizeParams, so each range check has one owner.

The master seed derives per-component seeds by fixed offsets (graph +1,
data +2, init +3) so a component can be varied independently by overriding
just its own seed.
"""

from __future__ import annotations

import math
import numbers
import re
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from .diagnostics import DEFAULT_METRIC, SADDLE_METRICS
from .errors import ConfigError, ParameterError
from .solvers import StopRule
from .stepsize import GrowthPolicy, SigmaSchedule, StepsizeParams

__all__ = [
    "ProblemConfig",
    "GraphConfig",
    "GossipConfig",
    "AlgorithmConfig",
    "InitConfig",
    "StopConfig",
    "DiagnosticsConfig",
    "ExperimentConfig",
    "parse_config",
    "parse_config_dict",
    "emit_config",
    "resolved_dict",
]

SEED_OFFSET_GRAPH = 1
SEED_OFFSET_DATA = 2
SEED_OFFSET_INIT = 3

# the stop section is the solvers' own stop rule, which checks itself
StopConfig = StopRule


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


@dataclass(frozen=True)
class ProblemConfig:
    kind: str = "ridge"  # ridge | logistic_synthetic | mnist
    m: int = 20
    n: int = 20
    d: int = 50
    seed: int | None = None
    noise: float = 0.1  # logistic_synthetic only
    images_path: str | None = None  # mnist only
    labels_path: str | None = None
    digit_pair: tuple[int, int] = (0, 1)

    def validate(self) -> None:
        _require(self.kind in ("ridge", "logistic_synthetic", "mnist"), "problem.kind",
                 f"must be ridge, logistic_synthetic, or mnist, got {self.kind!r}")
        _require(self.m >= 1, "problem.m", f"must be >= 1, got {self.m}")
        if self.kind != "mnist":
            _require(self.n >= 1, "problem.n", f"must be >= 1, got {self.n}")
            _require(self.d >= 1, "problem.d", f"must be >= 1, got {self.d}")
        if self.kind == "logistic_synthetic":
            _require(0.0 <= self.noise < 0.5, "problem.noise",
                     f"must lie in [0, 0.5), got {self.noise}")
        if self.kind == "mnist":
            _require(self.images_path is not None, "problem.images_path",
                     "required for the mnist problem")
            _require(self.labels_path is not None, "problem.labels_path",
                     "required for the mnist problem")
            p, q = self.digit_pair
            _require(p != q and 0 <= p <= 9 and 0 <= q <= 9, "problem.digit_pair",
                     f"must be two distinct digits, got {self.digit_pair}")


@dataclass(frozen=True)
class GraphConfig:
    kind: str = "erdos_renyi"  # line | ring | erdos_renyi
    m: int = 20
    p: float = 0.9
    seed: int | None = None

    def validate(self) -> None:
        _require(self.kind in ("line", "ring", "erdos_renyi"), "graph.kind",
                 f"must be line, ring, or erdos_renyi, got {self.kind!r}")
        _require(self.m >= 2, "graph.m", f"must be >= 2, got {self.m}")
        if self.kind == "ring":
            _require(self.m >= 3, "graph.m", f"a ring needs m >= 3, got {self.m}")
        if self.kind == "erdos_renyi":
            _require(0.0 < self.p <= 1.0, "graph.p", f"must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class GossipConfig:
    c: float = 0.4

    def validate(self) -> None:
        _require(0.0 < self.c < 0.5, "gossip.c", f"c must lie in (0, 1/2), got {self.c}")


def _default_growth(kind: str, mode: str) -> GrowthPolicy:
    if kind == "adolf_local":
        return GrowthPolicy(kind="additive")
    if mode == "strongly_convex":
        return GrowthPolicy(kind="ratio_power")
    return GrowthPolicy(kind="unbounded")


@dataclass(frozen=True)
class AlgorithmConfig:
    kind: str = "adolf"  # adolf | adolf_local | extra | condat_vu
    mode: str = "strongly_convex"  # convex | strongly_convex (adaptive kinds)
    c1: float | None = None  # defaults depend on mode
    c2: float = 0.99
    alpha0: float = 1e-3
    eta: float = 0.9
    sigma: float = 0.2  # strongly convex coupling constant
    sigma_bar: float = 1.0  # convex-mode constant dual scale
    growth: GrowthPolicy | None = None
    alpha: float | None = None  # extra (fixed) and condat_vu
    gamma: float = 1.0  # condat_vu
    grid: tuple[float, ...] | None = None  # extra grid search
    budget: int = 20_000  # extra grid-search budget

    def resolved_c1(self) -> float:
        if self.c1 is not None:
            return self.c1
        return 0.5 if self.mode == "strongly_convex" else 0.99

    def resolved_growth(self) -> GrowthPolicy:
        return self.growth if self.growth is not None else _default_growth(self.kind, self.mode)

    def stepsize_params(self) -> StepsizeParams:
        """Solver-level stepsize parameters of an adolf or adolf_local block.

        Raises ParameterError, naming the field at fault, when a constant is
        out of the range the stepsize rule needs.
        """
        if self.mode == "strongly_convex":
            sigma = SigmaSchedule(kind="inverse_alpha_sq", sigma=self.sigma)
        else:
            sigma = SigmaSchedule(kind="constant", sigma_bar=self.sigma_bar)
        mode = "local" if self.kind == "adolf_local" else (
            "strongly_convex_global" if self.mode == "strongly_convex" else "convex_global"
        )
        return StepsizeParams(
            mode=mode, c1=self.resolved_c1(), c2=self.c2, alpha0=self.alpha0, eta=self.eta,
            growth=self.resolved_growth(), sigma=sigma,
        )

    def validate(self) -> None:
        _require(self.kind in ("adolf", "adolf_local", "extra", "condat_vu"),
                 "algorithm.kind",
                 f"must be adolf, adolf_local, extra, or condat_vu, got {self.kind!r}")
        if self.kind in ("adolf", "adolf_local"):
            _require(self.mode in ("convex", "strongly_convex"), "algorithm.mode",
                     f"must be convex or strongly_convex, got {self.mode!r}")
            try:
                self.stepsize_params()
            except ParameterError as exc:
                raise ConfigError(f"algorithm: {exc}") from exc
        # FixedStepParams calls sigma what this block calls sigma_bar, so the
        # extra and condat_vu checks stay here to name the config's keys
        if self.kind == "extra":
            if self.grid is not None:
                _require(len(self.grid) > 0, "algorithm.grid",
                         "must be a nonempty list of positive stepsizes")
                for i, a in enumerate(self.grid):
                    _require(0 < a < math.inf, f"algorithm.grid[{i}]",
                             f"must be a positive finite stepsize, got {a}")
                _require(self.budget > 0, "algorithm.budget",
                         f"must be positive, got {self.budget}")
            else:
                _require(self.alpha is not None, "algorithm.alpha",
                         "extra needs either a positive alpha or a grid")
                _require(0 < self.alpha < math.inf, "algorithm.alpha",
                         f"must be positive and finite, got {self.alpha}")
        if self.kind == "condat_vu":
            _require(self.alpha is not None, "algorithm.alpha", "condat_vu needs a positive alpha")
            for key in ("alpha", "sigma_bar", "gamma"):
                value = getattr(self, key)
                _require(0 < value < math.inf, f"algorithm.{key}",
                         f"must be positive and finite, got {value}")


@dataclass(frozen=True)
class InitConfig:
    kind: str = "gaussian"  # gaussian | zeros
    seed: int | None = None

    def validate(self) -> None:
        _require(self.kind in ("gaussian", "zeros"), "init.kind",
                 f"must be gaussian or zeros, got {self.kind!r}")


@dataclass(frozen=True)
class DiagnosticsConfig:
    cadence: int = 1
    saddle: bool = True
    saddle_tol: float = 1e-12

    def validate(self) -> None:
        _require(self.cadence >= 1, "diagnostics.cadence",
                 f"must be >= 1, got {self.cadence}")
        _require(0 < self.saddle_tol < math.inf, "diagnostics.saddle_tol",
                 f"must be positive and finite, got {self.saddle_tol}")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    gossip: GossipConfig = field(default_factory=GossipConfig)
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    init: InitConfig = field(default_factory=InitConfig)
    stop: StopConfig = field(default_factory=StopConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    name: str = ""
    output_dir: str = "out"
    master_seed: int = 0

    def validate(self) -> None:
        # stop is a StopRule, which checks itself when it is built
        for section in (self.problem, self.graph, self.gossip, self.algorithm,
                        self.init, self.diagnostics):
            section.validate()
        _require(self.problem.m == self.graph.m, "graph.m",
                 f"graph agents ({self.graph.m}) must match problem agents ({self.problem.m})")
        metrics = {"stop metric": self.stop.metric}
        if self.algorithm.kind == "extra" and self.algorithm.grid is not None:
            # the grid search ranks its stepsizes by this metric
            metrics["EXTRA grid-search metric"] = self.stop.metric or DEFAULT_METRIC
        for role, metric in metrics.items():
            if metric in SADDLE_METRICS:
                _require(self.diagnostics.saddle, "diagnostics.saddle",
                         f"{role} {metric!r} needs saddle diagnostics")
        for key, own, offset, seed in (
                ("graph.seed", self.graph.seed, SEED_OFFSET_GRAPH, self.graph_seed()),
                ("problem.seed", self.problem.seed, SEED_OFFSET_DATA, self.data_seed()),
                ("init.seed", self.init.seed, SEED_OFFSET_INIT, self.init_seed())):
            if own is None:
                _require(seed >= 0, "master_seed", f"{key} derives from it as master_seed + "
                         f"{offset} = {seed}, and seeds must be >= 0")
            else:
                _require(seed >= 0, key, f"must be >= 0, got {seed}")

    # -- seed resolution --------------------------------------------------

    def graph_seed(self) -> int:
        return self.graph.seed if self.graph.seed is not None else self.master_seed + SEED_OFFSET_GRAPH

    def data_seed(self) -> int:
        return self.problem.seed if self.problem.seed is not None else self.master_seed + SEED_OFFSET_DATA

    def init_seed(self) -> int:
        return self.init.seed if self.init.seed is not None else self.master_seed + SEED_OFFSET_INIT

    def run_name(self) -> str:
        if self.name:
            return self.name
        return f"{self.algorithm.kind}_{self.problem.kind}_{self.graph.kind}"


_TYPE_NAMES = {bool: "a bool", int: "an integer", float: "a number", str: "a string"}


def _typed(value, hint, key: str):
    """value checked against a field annotation; sections are built, lists
    become tuples, and numbers become the annotated type."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(hint):
            return None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    if is_dataclass(hint):
        return _build(hint, value, key)
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {type(value).__name__} {value!r}")
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        if len(value) != len(items):
            raise ConfigError(f"{key}: expected {len(items)} entries, got {len(value)}")
        return tuple(_typed(v, h, f"{key}[{i}]") for i, (v, h) in enumerate(zip(value, items)))
    if hint is bool and isinstance(value, bool):
        return value
    if hint is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if hint is float and isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    if hint is str and isinstance(value, str):
        return value
    message = f"{key}: expected {_TYPE_NAMES[hint]}, got {type(value).__name__} {value!r}"
    if hint is float and re.fullmatch(r"[-+]?[\d.]+[eE][-+]?\d+", str(value)):
        message += " (YAML reads 1e-3 or 1.0e4 as a string; write 1.0e-3 or 1.0e+4)"
    raise ConfigError(message)


def _build(cls, raw, key: str):
    """Config dataclass from a mapping; unknown keys, mistyped values and the
    class's own range checks raise ConfigError naming the section."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected a mapping, got {type(raw).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{key or 'config'}: unknown keys {sorted(unknown)}; "
                          f"allowed {sorted(allowed)}")
    hints = typing.get_type_hints(cls)
    values = {name: _typed(value, hints[name], f"{key}.{name}" if key else name)
              for name, value in raw.items()}
    try:
        return cls(**values)
    except ParameterError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Validate a nested dict into a fully resolved ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    config = _build(ExperimentConfig, raw, "")
    # normalize lazily-defaulted fields so emit/parse round-trips exactly
    algorithm = config.algorithm
    config = replace(config, algorithm=replace(
        algorithm, c1=algorithm.resolved_c1(), growth=algorithm.resolved_growth()))
    config.validate()
    return config


def parse_config(path) -> ExperimentConfig:
    """Read a YAML config file and validate it."""
    with open(path) as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return parse_config_dict(raw)


def resolved_dict(config: ExperimentConfig) -> dict:
    """Nested plain-dict echo of the config with every field resolved."""
    out = asdict(config)
    out["algorithm"]["growth"] = asdict(config.algorithm.resolved_growth())
    out["algorithm"]["c1"] = config.algorithm.resolved_c1()
    out["problem"]["digit_pair"] = list(config.problem.digit_pair)
    if out["algorithm"]["grid"] is not None:
        out["algorithm"]["grid"] = list(out["algorithm"]["grid"])
    return out


def emit_config(config: ExperimentConfig) -> str:
    """YAML text such that parse(emit(config)) == parse-resolved config."""
    return yaml.safe_dump(resolved_dict(config), sort_keys=True)
