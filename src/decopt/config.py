"""Experiment configuration: schema, validation, parsing, and emission.

Configs are nested key-value documents (YAML on disk). Parsing is strict:
unknown keys and out-of-range values raise ConfigError naming the offending
key, and every default is resolved at parse time so that emitting a parsed
config and parsing it again is the identity.

The master seed derives per-component seeds by fixed offsets (graph +1,
data +2, init +3) so a component can be varied independently by overriding
just its own seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import yaml

from .errors import ConfigError

__all__ = [
    "ProblemConfig",
    "GraphConfig",
    "GossipConfig",
    "GrowthConfig",
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

_METRICS = ("objective_gap", "distance_sq", "consensus_err", "merit")
_SADDLE_METRICS = ("objective_gap", "distance_sq", "merit")


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {message}")


def _take(section: dict, key: str, cls) -> dict:
    """Pop a sub-dict and reject unknown keys against the dataclass fields."""
    raw = section.pop(key, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{key}: expected a mapping, got {type(raw).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{key}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    return raw


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
        if self.kind == "erdos_renyi":
            _require(0.0 < self.p <= 1.0, "graph.p", f"must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class GossipConfig:
    c: float = 0.4

    def validate(self) -> None:
        _require(0.0 < self.c < 0.5, "gossip.c", f"c must lie in (0, 1/2), got {self.c}")


@dataclass(frozen=True)
class GrowthConfig:
    kind: str = "unbounded"  # unbounded | additive | ratio_power
    a: float = 6.0 / math.pi**2
    beta1: float = 10.0
    beta2: float = 1.0

    def validate(self, key: str = "algorithm.growth") -> None:
        _require(self.kind in ("unbounded", "additive", "ratio_power"), f"{key}.kind",
                 f"must be unbounded, additive, or ratio_power, got {self.kind!r}")
        if self.kind == "additive":
            _require(self.a > 0, f"{key}.a", f"must be positive, got {self.a}")
        if self.kind == "ratio_power":
            _require(self.beta1 >= 1, f"{key}.beta1", f"must be >= 1, got {self.beta1}")
            _require(self.beta2 > 0, f"{key}.beta2", f"must be positive, got {self.beta2}")


def _default_growth(kind: str, mode: str) -> GrowthConfig:
    if kind == "adolf_local":
        return GrowthConfig(kind="additive")
    if mode == "strongly_convex":
        return GrowthConfig(kind="ratio_power")
    return GrowthConfig(kind="unbounded")


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
    growth: GrowthConfig | None = None
    alpha: float | None = None  # extra (fixed) and condat_vu
    gamma: float = 1.0  # condat_vu
    grid: tuple[float, ...] | None = None  # extra grid search
    budget: int = 20_000  # extra grid-search budget

    def resolved_c1(self) -> float:
        if self.c1 is not None:
            return self.c1
        return 0.5 if self.mode == "strongly_convex" else 0.99

    def resolved_growth(self) -> GrowthConfig:
        return self.growth if self.growth is not None else _default_growth(self.kind, self.mode)

    def validate(self) -> None:
        _require(self.kind in ("adolf", "adolf_local", "extra", "condat_vu"),
                 "algorithm.kind",
                 f"must be adolf, adolf_local, extra, or condat_vu, got {self.kind!r}")
        if self.kind in ("adolf", "adolf_local"):
            _require(self.mode in ("convex", "strongly_convex"), "algorithm.mode",
                     f"must be convex or strongly_convex, got {self.mode!r}")
            c1 = self.resolved_c1()
            _require(0 < c1 <= 1, "algorithm.c1", f"must lie in (0, 1], got {c1}")
            _require(0 < self.c2 <= 1, "algorithm.c2", f"must lie in (0, 1], got {self.c2}")
            _require(self.alpha0 > 0, "algorithm.alpha0", f"must be positive, got {self.alpha0}")
            if self.mode == "strongly_convex":
                _require(0 < self.sigma < c1 / 2, "algorithm.sigma",
                         f"must lie in (0, c1/2) = (0, {c1 / 2}), got {self.sigma}")
            else:
                _require(self.sigma_bar > 0, "algorithm.sigma_bar",
                         f"must be positive, got {self.sigma_bar}")
            if self.kind == "adolf_local":
                _require(0 < self.eta < 1, "algorithm.eta",
                         f"must lie in (0, 1), got {self.eta}")
                _require(self.resolved_growth().kind == "additive", "algorithm.growth.kind",
                         "adolf_local needs the additive growth policy")
            self.resolved_growth().validate()
        if self.kind == "extra":
            if self.grid is not None:
                _require(len(self.grid) > 0 and all(a > 0 for a in self.grid),
                         "algorithm.grid", "must be a nonempty list of positive stepsizes")
                _require(self.budget > 0, "algorithm.budget",
                         f"must be positive, got {self.budget}")
            else:
                _require(self.alpha is not None and self.alpha > 0, "algorithm.alpha",
                         "extra needs either a positive alpha or a grid")
        if self.kind == "condat_vu":
            _require(self.alpha is not None and self.alpha > 0, "algorithm.alpha",
                     "condat_vu needs a positive alpha")
            _require(self.sigma_bar > 0, "algorithm.sigma_bar",
                     f"must be positive, got {self.sigma_bar}")
            _require(self.gamma > 0, "algorithm.gamma", f"must be positive, got {self.gamma}")


@dataclass(frozen=True)
class InitConfig:
    kind: str = "gaussian"  # gaussian | zeros
    seed: int | None = None

    def validate(self) -> None:
        _require(self.kind in ("gaussian", "zeros"), "init.kind",
                 f"must be gaussian or zeros, got {self.kind!r}")


@dataclass(frozen=True)
class StopConfig:
    max_iter: int = 10_000
    metric: str | None = None
    threshold: float | None = None
    cadence: int = 1

    def validate(self) -> None:
        _require(self.max_iter >= 0, "stop.max_iter", f"must be >= 0, got {self.max_iter}")
        _require(self.cadence >= 1, "stop.cadence", f"must be >= 1, got {self.cadence}")
        if self.metric is not None:
            _require(self.metric in _METRICS, "stop.metric",
                     f"must be one of {_METRICS}, got {self.metric!r}")
            _require(self.threshold is not None and self.threshold > 0, "stop.threshold",
                     "a positive threshold must accompany stop.metric")
        else:
            _require(self.threshold is None, "stop.metric",
                     "required when stop.threshold is set")


@dataclass(frozen=True)
class DiagnosticsConfig:
    cadence: int = 1
    saddle: bool = True
    saddle_tol: float = 1e-12

    def validate(self) -> None:
        _require(self.cadence >= 1, "diagnostics.cadence",
                 f"must be >= 1, got {self.cadence}")
        _require(self.saddle_tol > 0, "diagnostics.saddle_tol",
                 f"must be positive, got {self.saddle_tol}")


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
        for section in (self.problem, self.graph, self.gossip, self.algorithm,
                        self.init, self.stop, self.diagnostics):
            section.validate()
        _require(self.problem.m == self.graph.m, "graph.m",
                 f"graph agents ({self.graph.m}) must match problem agents ({self.problem.m})")
        metrics = {"stop metric": self.stop.metric}
        if self.algorithm.kind == "extra" and self.algorithm.grid is not None:
            # the grid search ranks its stepsizes by this metric
            metrics["EXTRA grid-search metric"] = self.stop.metric or "distance_sq"
        for role, metric in metrics.items():
            if metric in _SADDLE_METRICS:
                _require(self.diagnostics.saddle, "diagnostics.saddle",
                         f"{role} {metric!r} needs saddle diagnostics")

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


def _build(cls, raw: dict, key: str):
    coerced = dict(raw)
    if cls is ProblemConfig and "digit_pair" in coerced:
        pair = coerced["digit_pair"]
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(f"{key}.digit_pair: expected a pair of digits, got {pair!r}")
        coerced["digit_pair"] = (int(pair[0]), int(pair[1]))
    if cls is AlgorithmConfig and coerced.get("grid") is not None:
        coerced["grid"] = tuple(float(a) for a in coerced["grid"])
    try:
        return cls(**coerced)
    except TypeError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Validate a nested dict into a fully resolved ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    section = dict(raw)
    problem = _build(ProblemConfig, _take(section, "problem", ProblemConfig), "problem")
    graph = _build(GraphConfig, _take(section, "graph", GraphConfig), "graph")
    gossip = _build(GossipConfig, _take(section, "gossip", GossipConfig), "gossip")
    algo_raw = _take(section, "algorithm", AlgorithmConfig)
    growth_raw = algo_raw.pop("growth", None)
    algorithm = _build(AlgorithmConfig, algo_raw, "algorithm")
    if growth_raw is not None:
        allowed = {f.name for f in fields(GrowthConfig)}
        unknown = set(growth_raw) - allowed
        if unknown:
            raise ConfigError(f"algorithm.growth: unknown keys {sorted(unknown)}")
        algorithm = AlgorithmConfig(**{**_plain_dict(algorithm), "growth": GrowthConfig(**growth_raw)})
    # normalize lazily-defaulted fields so emit/parse round-trips exactly
    algorithm = AlgorithmConfig(**{
        **_plain_dict(algorithm),
        "c1": algorithm.resolved_c1(),
        "growth": algorithm.resolved_growth(),
    })
    init = _build(InitConfig, _take(section, "init", InitConfig), "init")
    stop = _build(StopConfig, _take(section, "stop", StopConfig), "stop")
    diagnostics = _build(DiagnosticsConfig, _take(section, "diagnostics", DiagnosticsConfig),
                         "diagnostics")
    name = section.pop("name", "")
    output_dir = section.pop("output_dir", "out")
    master_seed = section.pop("master_seed", 0)
    if section:
        raise ConfigError(f"unknown top-level keys {sorted(section)}")
    config = ExperimentConfig(
        problem=problem, graph=graph, gossip=gossip, algorithm=algorithm, init=init,
        stop=stop, diagnostics=diagnostics, name=str(name), output_dir=str(output_dir),
        master_seed=int(master_seed),
    )
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


def _plain_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


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
