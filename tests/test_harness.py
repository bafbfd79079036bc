import copy
import csv
import json
import math
import re
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decopt import cli, runner, topology
from decopt.config import (
    AlgorithmConfig,
    DiagnosticsConfig,
    ExperimentConfig,
    GraphConfig,
    ProblemConfig,
    StopConfig,
    emit_config,
    parse_config,
    parse_config_dict,
)
from decopt.diagnostics import METRICS, SADDLE_METRICS
from decopt.errors import ComparisonError, ConfigError, NotConvergedError
from decopt.runner import (
    build_problem,
    compare,
    default_extra_grid,
    figure_preset,
    run_experiment,
)
from decopt.stepsize import GrowthPolicy
from faults import nan_gradient_problem
from probes import run_probe


def small_ridge_raw(**overrides):
    raw = {
        "problem": {"kind": "ridge", "m": 4, "n": 5, "d": 3},
        "graph": {"kind": "line", "m": 4},
        "algorithm": {"kind": "adolf", "mode": "strongly_convex"},
        "stop": {"max_iter": 30},
        "name": "unit",
        "master_seed": 1,
    }
    raw.update(overrides)
    return raw


def between(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False, **kwargs)


SEEDS = st.none() | st.integers(0, 2**32)


@st.composite
def algorithm_sections(draw, grid: bool):
    """A valid algorithm section of any kind; an extra section has a grid exactly when grid."""
    kind = "extra" if grid else draw(st.sampled_from(["adolf", "adolf_local", "extra",
                                                      "condat_vu"]))
    section = {"kind": kind}
    if kind == "extra":
        if grid:
            section["grid"] = draw(st.lists(between(1e-6, 10.0), min_size=1, max_size=5))
            section["budget"] = draw(st.integers(1, 10**5))
        else:
            section["alpha"] = draw(between(1e-6, 10.0))
    elif kind == "condat_vu":
        section.update(alpha=draw(between(1e-6, 10.0)), sigma_bar=draw(between(1e-6, 10.0)),
                       gamma=draw(between(1e-6, 10.0)))
    else:
        mode = draw(st.sampled_from(["convex", "strongly_convex"]))
        c1 = draw(st.none() | between(1e-3, 1.0))
        section.update(mode=mode, c2=draw(between(1e-3, 1.0)), alpha0=draw(between(1e-6, 1.0)),
                       eta=draw(between(0.0, 1.0, exclude_min=True, exclude_max=True)))
        if c1 is not None:
            section["c1"] = c1
        c1 = AlgorithmConfig(mode=mode).c1 if c1 is None else c1
        if mode == "strongly_convex":
            section["sigma"] = draw(between(1e-6, c1 / 2, exclude_max=True))
        else:
            section["sigma_bar"] = draw(between(1e-6, 10.0))
        growths = ["additive"]  # the only policy adolf_local accepts
        if kind == "adolf":
            growths += ["ratio_power"] + (["unbounded"] if mode == "convex" else [])
        growth = draw(st.none() | st.sampled_from(growths))
        if growth is not None:
            section["growth"] = {"kind": growth, "a": draw(between(1e-6, 10.0)),
                                 "beta1": draw(between(1.0, 100.0)),
                                 "beta2": draw(between(1e-3, 5.0))}
    return section


@st.composite
def valid_raw_configs(draw):
    """A raw config that parses: every problem kind but mnist, every graph and algorithm kind."""
    graph = draw(st.sampled_from(["line", "ring", "erdos_renyi"]))
    m = draw(st.integers(3 if graph == "ring" else 2, 12))
    saddle = draw(st.booleans())
    grid = draw(st.booleans())
    metrics = [name for name in METRICS if saddle or name not in SADDLE_METRICS]
    # the grid search ranks on the stop metric, or on a saddle metric by default
    metric = draw(st.sampled_from(metrics) if grid and not saddle
                  else st.none() | st.sampled_from(metrics))
    stop = {"max_iter": draw(st.integers(0, 10**5)), "cadence": draw(st.integers(1, 100))}
    if metric is not None:
        stop.update(metric=metric, threshold=draw(between(1e-15, 1.0)))
    return {
        "problem": {"kind": draw(st.sampled_from(["ridge", "logistic_synthetic"])), "m": m,
                    "n": draw(st.integers(1, 50)), "d": draw(st.integers(1, 50)),
                    "seed": draw(SEEDS), "noise": draw(between(0.0, 0.5, exclude_max=True)),
                    "digit_pair": draw(st.lists(st.integers(0, 9), min_size=2, max_size=2,
                                                unique=True))},
        "graph": {"kind": graph, "m": m, "p": draw(between(0.0, 1.0, exclude_min=True)),
                  "seed": draw(SEEDS)},
        "gossip": {"c": draw(between(0.0, 0.5, exclude_min=True, exclude_max=True))},
        "algorithm": draw(algorithm_sections(grid)),
        "init": {"kind": draw(st.sampled_from(["gaussian", "zeros"])), "seed": draw(SEEDS)},
        "stop": stop,
        "diagnostics": {"cadence": draw(st.integers(1, 100)), "saddle": saddle,
                        "saddle_tol": draw(between(1e-15, 1.0))},
        # a file name that is also one CSV field and one line (config.check_file_stem)
        "name": draw(st.text(st.characters(min_codepoint=0x20, exclude_characters='/\\,"\x7f'),
                             max_size=12).filter(lambda name: name not in (".", ".."))),
        "output_dir": draw(st.text(min_size=1, max_size=12)),
        "master_seed": draw(st.integers(0, 2**32)),
    }


class TestConfigParsing:
    @given(valid_raw_configs())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_generated(self, raw):
        cfg = parse_config_dict(raw)
        assert parse_config_dict(yaml.safe_load(emit_config(cfg))) == cfg

    def test_minimal_defaults_filled(self):
        cfg = parse_config_dict(small_ridge_raw())
        assert cfg.gossip.c == 0.4
        assert cfg.algorithm.c1 == 0.5  # strongly convex default
        assert cfg.algorithm.growth.kind == "ratio_power"
        assert cfg.diagnostics.saddle

    def test_convex_defaults(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf", "mode": "convex"})
        cfg = parse_config_dict(raw)
        assert cfg.algorithm.c1 == 0.99
        assert cfg.algorithm.growth.kind == "unbounded"

    def test_local_defaults(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf_local", "mode": "convex"})
        cfg = parse_config_dict(raw)
        assert cfg.algorithm.eta == 0.9
        assert cfg.algorithm.growth.kind == "additive"

    def test_sections_check_themselves_when_built(self):
        with pytest.raises(ConfigError, match=r"^algorithm\.alpha:"):
            AlgorithmConfig(kind="extra")
        cfg = parse_config_dict(small_ridge_raw())
        with pytest.raises(ConfigError, match=r"^graph\.m:"):
            replace(cfg, graph=GraphConfig(m=3))

    def test_defaults_resolved_when_built(self):
        assert AlgorithmConfig(mode="convex").c1 == 0.99
        assert AlgorithmConfig(kind="adolf_local").growth == GrowthPolicy(kind="additive")
        adolf = figure_preset("fig2_er09")[0].algorithm
        assert adolf.kind == "adolf" and adolf.growth == GrowthPolicy(kind="ratio_power")

    def test_bad_shift_coefficient_message(self):
        raw = small_ridge_raw(gossip={"c": 0.6})
        with pytest.raises(ConfigError, match=r"c must lie in \(0, 1/2\)"):
            parse_config_dict(raw)

    def test_unknown_key_named(self):
        raw = small_ridge_raw()
        raw["graph"]["pp"] = 3
        with pytest.raises(ConfigError, match="pp"):
            parse_config_dict(raw)

    def test_unknown_top_level_key(self):
        raw = small_ridge_raw(typo=1)
        with pytest.raises(ConfigError, match="typo"):
            parse_config_dict(raw)

    def test_sigma_bound_in_strongly_convex_mode(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf", "mode": "strongly_convex",
                                         "c1": 0.5, "sigma": 0.3})
        with pytest.raises(ConfigError, match="sigma"):
            parse_config_dict(raw)

    def test_m_mismatch(self):
        raw = small_ridge_raw(graph={"kind": "line", "m": 5})
        with pytest.raises(ConfigError, match="graph.m"):
            parse_config_dict(raw)
        # a ring needs three agents
        raw = small_ridge_raw(problem={"kind": "ridge", "m": 2, "n": 5, "d": 3},
                              graph={"kind": "ring", "m": 2})
        with pytest.raises(ConfigError, match="graph.m"):
            parse_config_dict(raw)

    def test_stop_metric_needs_saddle(self):
        raw = small_ridge_raw(
            stop={"max_iter": 10, "metric": "distance_sq", "threshold": 1e-6},
            diagnostics={"saddle": False},
        )
        with pytest.raises(ConfigError, match="saddle"):
            parse_config_dict(raw)
        # without stop.metric, the EXTRA grid search still ranks by distance_sq
        raw = small_ridge_raw(
            algorithm={"kind": "extra", "grid": [0.01, 0.1], "budget": 50},
            diagnostics={"saddle": False},
        )
        with pytest.raises(ConfigError, match="diagnostics.saddle"):
            parse_config_dict(raw)

    def test_round_trip_identity(self):
        cfg = parse_config_dict(small_ridge_raw())
        again = parse_config_dict(yaml.safe_load(emit_config(cfg)))
        assert again == cfg

    def test_round_trip_with_grid(self):
        raw = small_ridge_raw(algorithm={"kind": "extra", "grid": [0.01, 0.1], "budget": 50})
        cfg = parse_config_dict(raw)
        again = parse_config_dict(yaml.safe_load(emit_config(cfg)))
        assert again == cfg

    def test_seed_derivation(self):
        cfg = parse_config_dict(small_ridge_raw(master_seed=10))
        assert (cfg.graph_seed(), cfg.data_seed(), cfg.init_seed()) == (11, 12, 13)
        raw = small_ridge_raw(master_seed=10)
        raw["problem"]["seed"] = 99
        cfg = parse_config_dict(raw)
        assert cfg.data_seed() == 99

    def test_parse_file(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(small_ridge_raw()))
        cfg = parse_config(path)
        assert cfg.problem.kind == "ridge"

    @pytest.mark.parametrize("snippet, key", [
        ("stop: {max_iter: 10, metric: distance_sq, threshold: 1e-3}", "stop.threshold"),
        ("problem: {kind: ridge, m: x, n: 5, d: 3}", "problem.m"),
        ("diagnostics: {saddle: 'false'}", "diagnostics.saddle"),
        ("stop: {max_iter: 2.5}", "stop.max_iter"),
        ("stop: {max_iter: true}", "stop.max_iter"),
        ("gossip: {c: true}", "gossip.c"),
        ("graph: {kind: 3, m: 4}", "graph.kind"),
        ("init: {seed: 1.5}", "init.seed"),
        ("problem: {kind: ridge, m: 4, n: 5, d: 3, noise: null}", "problem.noise"),
        ("algorithm: {kind: extra, grid: [0.1, 1e-3]}", "algorithm.grid[1]"),
        ("algorithm: {kind: adolf, growth: {kind: ratio_power, beta1: '10'}}",
         "algorithm.growth.beta1"),
        ("name: 3", "name"),
    ])
    def test_value_types_checked(self, snippet, key):
        raw = small_ridge_raw(**yaml.safe_load(snippet))
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: expected"):
            parse_config_dict(raw)

    @pytest.mark.parametrize("snippet, section, field", [
        ("algorithm: {kind: adolf, mode: convex, c1: 1.5}", "algorithm", "c1"),
        ("algorithm: {kind: adolf, c2: 0.0}", "algorithm", "c2"),
        ("algorithm: {kind: adolf, alpha0: -1.0}", "algorithm", "alpha0"),
        ("algorithm: {kind: adolf, mode: strongly_convex, c1: 0.5, sigma: 0.3}",
         "algorithm", "sigma"),
        ("algorithm: {kind: adolf, mode: convex, sigma_bar: 0.0}", "algorithm", "sigma_bar"),
        ("algorithm: {kind: adolf_local, mode: convex, eta: 1.5}", "algorithm", "eta"),
        ("algorithm: {kind: adolf_local, growth: {kind: ratio_power}}", "algorithm",
         "growth.kind"),
        ("algorithm: {kind: adolf, growth: {kind: additive, a: -1.0}}", "algorithm.growth", "a"),
        ("algorithm: {kind: adolf, growth: {kind: ratio_power, beta1: 0.5}}",
         "algorithm.growth", "beta1"),
        ("algorithm: {kind: adolf, growth: {kind: ratio_power, beta2: 0.0}}",
         "algorithm.growth", "beta2"),
        ("algorithm: {kind: adolf, growth: {kind: ratio_power, beta1: 10.0, beta2: 500.0}}",
         "algorithm.growth", "beta2"),
        ("algorithm: {kind: adolf, growth: {kind: typo}}", "algorithm.growth", "kind"),
        ("stop: {max_iter: -1}", "stop", "max_iter"),
        ("stop: {cadence: 0}", "stop", "cadence"),
        ("stop: {metric: merti, threshold: 1.0}", "stop", "metric"),
        ("stop: {threshold: 1.0}", "stop", "metric"),
        ("stop: {metric: distance_sq, threshold: -1.0}", "stop", "threshold"),
    ])
    def test_library_checks_name_section_and_field(self, snippet, section, field):
        raw = small_ridge_raw(**yaml.safe_load(snippet))
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: {re.escape(field)}\b"):
            parse_config_dict(raw)

    @pytest.mark.parametrize("name", ["../escaped", "runs/a", "a\\b", "nul\0byte", ".", ".."])
    def test_name_must_be_a_file_name(self, name):
        # output files are named after it, so it must not lead out of their directory
        with pytest.raises(ConfigError, match=r"^name: must be a file name without '/'"):
            parse_config_dict(small_ridge_raw(name=name))

    @pytest.mark.parametrize("name", ["", "...", ".hidden", "run.v2", "a b"])
    def test_plain_names_accepted(self, name):
        assert parse_config_dict(small_ridge_raw(name=name)).name == name

    def test_extra_needs_grid_or_alpha(self):
        raw = small_ridge_raw(algorithm={"kind": "extra"})
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_dict(raw)


class TestStepsizeParamTranslation:
    def test_strongly_convex(self):
        cfg = parse_config_dict(small_ridge_raw())
        params = cfg.algorithm.stepsize_params()
        assert params.strongly_convex and not params.local
        assert params.growth.kind == "ratio_power"

    def test_local_convex(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf_local", "mode": "convex"})
        params = parse_config_dict(raw).algorithm.stepsize_params()
        assert params.local and not params.strongly_convex


class TestRunExperiment:
    def test_row_count_and_outputs(self, tmp_path):
        cfg = parse_config_dict(small_ridge_raw(stop={"max_iter": 10}))
        manifest = run_experiment(cfg, out_dir=tmp_path)
        lines = Path(manifest.csv_path).read_text().strip().split("\n")
        assert len(lines) == 12  # header + k = 0..10
        assert manifest.status == "budget"
        assert (tmp_path / "unit.manifest.json").exists()
        assert (tmp_path / "unit.config.yaml").exists()
        blob = json.loads((tmp_path / "unit.manifest.json").read_text())
        assert blob["config"]["gossip"]["c"] == 0.4

    def test_laplacian_sqrt_computed_once(self, tmp_path, monkeypatch):
        # W is decomposed once, when the gossip matrix is built; the workspace, the
        # saddle, the recorder and the condat_vu run read L_op and its
        # pseudoinverse off that one spectrum
        spectra = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: spectra.append(a) or eigh(a))
        cfg = parse_config_dict(small_ridge_raw(
            algorithm={"kind": "condat_vu", "alpha": 0.01}, stop={"max_iter": 5}))
        run_experiment(cfg, out_dir=tmp_path)
        assert len(spectra) == 1

    def test_manifest_grid_table(self, tmp_path):
        grid = [0.01, 0.1, 50.0]
        cfg = parse_config_dict(small_ridge_raw(
            algorithm={"kind": "extra", "grid": grid, "budget": 100}, stop={"max_iter": 20}))
        manifest = run_experiment(cfg, out_dir=tmp_path)
        table = json.loads((tmp_path / "unit.manifest.json").read_text())["extra_grid"]
        assert table == manifest.extra_grid
        assert [p["alpha"] for p in table] == grid
        assert [p["status"] for p in table] == ["budget", "budget", "diverged"]
        assert [p["rounds"] for p in table[:2]] == [100, 100]
        assert 0 < table[2]["rounds"] < 100 and table[2]["value"] is None
        assert all(p["value"] > 0 for p in table[:2])
        assert manifest.extra_best_alpha == min(table[:2], key=lambda p: p["value"])["alpha"]
        adolf = run_experiment(parse_config_dict(small_ridge_raw(stop={"max_iter": 5})),
                               out_dir=tmp_path / "adolf")
        assert adolf.extra_grid is None

    def test_manifest_reference_accuracy(self, tmp_path):
        raw = small_ridge_raw(problem={"kind": "logistic_synthetic", "m": 4, "n": 6, "d": 3},
                              algorithm={"kind": "adolf", "mode": "convex"},
                              stop={"max_iter": 5}, diagnostics={"saddle_tol": 1.0e-10})
        logistic = run_experiment(parse_config_dict(raw), out_dir=tmp_path / "logistic")
        written = json.loads((tmp_path / "logistic" / "unit.manifest.json").read_text())
        assert written["saddle_grad_norm"] == logistic.saddle_grad_norm
        assert 0 <= logistic.saddle_grad_norm <= 1e-10
        ridge = run_experiment(parse_config_dict(small_ridge_raw(stop={"max_iter": 5})),
                               out_dir=tmp_path / "ridge")
        assert math.isfinite(ridge.saddle_grad_norm)
        no_anchor = run_experiment(parse_config_dict(small_ridge_raw(
            stop={"max_iter": 5, "metric": "consensus_err", "threshold": 1.0e-20},
            diagnostics={"saddle": False})), out_dir=tmp_path / "none")
        assert no_anchor.saddle_grad_norm is None and no_anchor.saddle_residual is None

    def test_deterministic_csv(self, tmp_path):
        cfg = parse_config_dict(small_ridge_raw(stop={"max_iter": 25}))
        m1 = run_experiment(cfg, out_dir=tmp_path / "a")
        m2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert Path(m1.csv_path).read_bytes() == Path(m2.csv_path).read_bytes()

    def test_threshold_convergence(self, tmp_path):
        cfg = parse_config_dict(small_ridge_raw(
            stop={"max_iter": 30_000, "metric": "distance_sq", "threshold": 1e-6, "cadence": 5},
        ))
        manifest = run_experiment(cfg, out_dir=tmp_path)
        assert manifest.status == "converged"

    def test_gaussian_vs_zero_init_differ(self, tmp_path):
        base = small_ridge_raw(stop={"max_iter": 5})
        cfg_g = parse_config_dict({**base, "init": {"kind": "gaussian"}, "name": "g"})
        cfg_z = parse_config_dict({**base, "init": {"kind": "zeros"}, "name": "z"})
        mg = run_experiment(cfg_g, out_dir=tmp_path)
        mz = run_experiment(cfg_z, out_dir=tmp_path)
        assert Path(mg.csv_path).read_text() != Path(mz.csv_path).read_text()

    def test_mnist_problem_build(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(40, 3, 3), dtype=np.uint8)
        labels = np.array([0, 1] * 20, dtype=np.uint8)
        img, lbl = tmp_path / "i.idx", tmp_path / "l.idx"
        with open(img, "wb") as f:
            f.write(struct.pack(">IIII", 0x803, 40, 3, 3))
            f.write(images.tobytes())
        with open(lbl, "wb") as f:
            f.write(struct.pack(">II", 0x801, 40))
            f.write(labels.tobytes())
        raw = small_ridge_raw()
        raw["problem"] = {"kind": "mnist", "m": 4, "images_path": str(img),
                          "labels_path": str(lbl)}
        prob = build_problem(parse_config_dict(raw))
        assert prob.m == 4 and prob.d == 9

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DECOPT_OUTPUT_DIR", str(tmp_path / "env_out"))
        cfg = parse_config_dict(small_ridge_raw(stop={"max_iter": 3}))
        manifest = run_experiment(cfg)
        assert str(tmp_path / "env_out") in manifest.csv_path


class TestCompare:
    def make_pair(self):
        base = parse_config_dict(small_ridge_raw(
            stop={"max_iter": 4000, "metric": "distance_sq", "threshold": 1e-6, "cadence": 10},
        ))
        adolf_cfg = replace(base, name="run_adolf")
        extra_cfg = replace(
            base,
            algorithm=AlgorithmConfig(kind="extra", grid=(0.003, 0.01, 0.05, 0.1), budget=400),
            name="run_extra",
        )
        return adolf_cfg, extra_cfg

    def test_table_and_files(self, tmp_path):
        adolf_cfg, extra_cfg = self.make_pair()
        result = compare([adolf_cfg, extra_cfg], out_dir=tmp_path)
        assert [m.name for m in result.manifests] == ["run_adolf", "run_extra"]
        assert set(result.to_threshold) == {"run_adolf", "run_extra"}
        assert all(rounds is not None for rounds in result.to_threshold.values())
        long_text = Path(result.long_path).read_text()
        assert long_text.startswith("algorithm,k,comm_vector,comm_scalar,metric,value")
        assert "run_adolf" in long_text and "run_extra" in long_text
        gnuplot = Path(result.gnuplot_path).read_text()
        assert "# run_adolf" in gnuplot and "\n\n\n" in gnuplot
        assert Path(result.summary_path).exists()

    def test_duplicate_names_stay_distinct(self, tmp_path):
        # a duplicate's name_idx may already be taken by an earlier run
        adolf_cfg, _ = self.make_pair()
        configs = [replace(adolf_cfg, name=name) for name in ("a_2", "a", "a")]
        result = compare(configs, out_dir=tmp_path)
        names = [m.name for m in result.manifests]
        assert len(set(names)) == 3 and names[:2] == ["a_2", "a"]
        assert len(list(tmp_path.glob("*.manifest.json"))) == 3
        assert {path.name for path in tmp_path.glob("*.csv")} >= {f"{n}.csv" for n in names}
        csv_paths = {json.loads((tmp_path / f"{n}.manifest.json").read_text())["csv_path"]
                     for n in names}
        assert len(csv_paths) == 3

    def test_single_config_degenerate(self, tmp_path):
        adolf_cfg, _ = self.make_pair()
        result = compare([adolf_cfg], out_dir=tmp_path)
        assert len(result.manifests) == 1

    def test_budget_marker(self, tmp_path):
        adolf_cfg, _ = self.make_pair()
        short = replace(adolf_cfg, stop=StopConfig(max_iter=5, metric="distance_sq",
                                                   threshold=1e-12, cadence=1))
        result = compare([short], out_dir=tmp_path)
        assert result.to_threshold == {short.run_name(): None}
        assert "budget" in result.summary_table()

    def test_mismatched_seeds_rejected(self, tmp_path):
        adolf_cfg, extra_cfg = self.make_pair()
        other = replace(extra_cfg, master_seed=extra_cfg.master_seed + 1)
        with pytest.raises(ComparisonError):
            compare([adolf_cfg, other], out_dir=tmp_path)

    def test_mismatched_problem_rejected(self, tmp_path):
        adolf_cfg, extra_cfg = self.make_pair()
        other = replace(extra_cfg, problem=ProblemConfig(kind="ridge", m=4, n=6, d=3))
        with pytest.raises(ComparisonError):
            compare([adolf_cfg, other], out_dir=tmp_path)

    def test_mismatched_saddle_diagnostics_rejected(self, tmp_path):
        # the workspace, and so the saddle anchor, is built once for every run
        adolf_cfg, _ = self.make_pair()
        no_saddle = replace(
            adolf_cfg, name="no_saddle", diagnostics=DiagnosticsConfig(saddle=False),
            stop=StopConfig(max_iter=100, metric="consensus_err", threshold=1e-20),
        )
        loose_tol = replace(adolf_cfg, name="loose_tol",
                            diagnostics=DiagnosticsConfig(saddle_tol=1e-8))
        with pytest.raises(ComparisonError, match=r"^diagnostics\.saddle:"):
            compare([adolf_cfg, no_saddle], out_dir=tmp_path)
        with pytest.raises(ComparisonError, match=r"^diagnostics\.saddle_tol:"):
            compare([adolf_cfg, loose_tol], out_dir=tmp_path)
        # the cadence stays per run
        coarse = replace(adolf_cfg, name="coarse", diagnostics=DiagnosticsConfig(cadence=20))
        result = compare([adolf_cfg, coarse], out_dir=tmp_path)
        assert len(result.manifests) == 2

    def test_merit_stop_reaches_threshold_at_final_row(self, tmp_path):
        # the stop rule tests the ergodic merit the rows report, not the merit at X^k
        raw = small_ridge_raw(stop={"max_iter": 20_000, "metric": "merit", "threshold": 1.0e-2,
                                    "cadence": 10}, diagnostics={"cadence": 10})
        result = compare([parse_config_dict(raw)], out_dir=tmp_path)
        (manifest,) = result.manifests
        assert manifest.status == "converged"
        assert result.to_threshold[manifest.name] == manifest.comm_vector
        assert float(final_row(manifest)["merit_ergodic"]) <= 1.0e-2

    def test_threshold_per_run(self, tmp_path):
        adolf_cfg, _ = self.make_pair()  # distance_sq <= 1e-6
        loose = replace(adolf_cfg, name="loose", stop=replace(adolf_cfg.stop, threshold=1e-2))
        other_metric = replace(adolf_cfg, name="other_metric", stop=StopConfig(
            max_iter=1000, metric="consensus_err", threshold=1e-20, cadence=10))
        result = compare([adolf_cfg, loose, other_metric], out_dir=tmp_path, metric="distance_sq")
        tight, loose_run, other = result.manifests
        rounds = result.to_threshold
        assert None not in (rounds[tight.name], rounds[loose_run.name])
        assert rounds[loose_run.name] < rounds[tight.name]
        # another run's stop metric gives no threshold on the compared one
        assert float(final_row(other)["distance_sq"]) <= 1e-6
        assert rounds[other.name] is None


# validate accepted it, and run died on the first selection with an OverflowError
BETA2_OVERFLOW = small_ridge_raw(algorithm={"kind": "adolf", "growth": {
    "kind": "ratio_power", "beta1": 10.0, "beta2": 500.0}})

# validate accepted it, and run reported consensus_err 0.0 on every row although
# no agent mixed: c zeroed every eigenvalue of I - W (with the saddle, a false
# stationarity residual)
SMALL_C = small_ridge_raw(problem={"kind": "ridge", "m": 20, "n": 5, "d": 3},
                          graph={"kind": "line", "m": 20}, gossip={"c": 1.0e-13},
                          stop={"max_iter": 50}, diagnostics={"saddle": False})

CONFIG_SECTIONS = ("problem", "graph", "gossip", "algorithm", "init", "stop", "diagnostics")


def tiny(raw):
    """A copy of raw at a tiny size: m <= 6, n and d <= 10, max_iter and budget <= 50."""
    raw = copy.deepcopy(raw)
    problem, stop, algorithm = raw["problem"], raw["stop"], raw["algorithm"]
    problem["m"] = raw["graph"]["m"] = min(problem["m"], 6)
    problem["n"], problem["d"] = min(problem["n"], 10), min(problem["d"], 10)
    stop["max_iter"] = min(stop["max_iter"], 50)
    if "budget" in algorithm:
        algorithm["budget"] = min(algorithm["budget"], 50)
    return raw


@st.composite
def rejected_raw_configs(draw):
    """(raw, section, key): a tiny valid config whose field section.key, one that its
    kinds read, is set to a value outside its range."""
    raw = tiny(draw(valid_raw_configs()))
    algorithm = raw["algorithm"]
    cases = [("gossip", "c", 0.0), ("gossip", "c", 0.5), ("problem", "n", 0),
             ("problem", "d", 0), ("problem", "seed", -1), ("graph", "seed", -1),
             ("init", "seed", -1), ("init", "kind", "bogus"), ("diagnostics", "cadence", 0),
             ("diagnostics", "saddle_tol", 0.0), ("stop", "cadence", 0), ("stop", "max_iter", -1)]
    if raw["graph"]["kind"] == "erdos_renyi":
        cases += [("graph", "p", 1.5), ("graph", "p", 0.0)]
    if raw["problem"]["kind"] == "logistic_synthetic":
        cases += [("problem", "noise", 0.5), ("problem", "noise", -0.1)]
    if "threshold" in raw["stop"]:
        cases.append(("stop", "threshold", 0.0))
    if algorithm["kind"] in ("adolf", "adolf_local"):
        cases += [("algorithm", "c2", 2.0), ("algorithm", "alpha0", 0.0),
                  ("algorithm", "mode", "bogus"),
                  ("algorithm", "sigma" if algorithm["mode"] == "strongly_convex"
                   else "sigma_bar", 0.0)]
        if algorithm["kind"] == "adolf_local":
            cases.append(("algorithm", "eta", 1.0))
    elif "grid" in algorithm:
        cases += [("algorithm", "budget", 0), ("algorithm", "grid", [1.0, 0.0])]
    else:
        cases.append(("algorithm", "alpha", 0.0))
    if algorithm["kind"] == "condat_vu":
        cases += [("algorithm", "gamma", 0.0), ("algorithm", "sigma_bar", 0.0)]
    section, key, value = draw(st.sampled_from(cases))
    raw[section][key] = value
    return raw, section, key


class TestRunFuzz:
    """decopt run on generated configs: each runs or exits with its documented code."""

    @given(valid_raw_configs())
    @example(BETA2_OVERFLOW)
    @example(SMALL_C)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_exits_with_a_documented_code(self, tmp_path, capsys, raw):
        raw = tiny(raw)
        case = Path(tempfile.mkdtemp(dir=tmp_path))
        (case / "cfg.yaml").write_text(yaml.safe_dump(raw))
        code = cli.main(["run", str(case / "cfg.yaml"), "--out", str(case / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5), err
        if code == 2:
            assert re.match(rf"config error: ({'|'.join(CONFIG_SECTIONS)})\.\w+", err), err
        if code == 0:
            (path,) = (case / "out").glob("*.manifest.json")
            manifest = strict_json(path)
            saddle = raw.get("diagnostics", {}).get("saddle", True)
            for key in ("saddle_residual", "saddle_grad_norm"):
                if saddle:
                    assert math.isfinite(manifest[key]), (key, manifest[key])
                else:
                    assert manifest[key] is None
            if saddle:
                # f(x_i) >= f(x*) + <grad f(x*), x_i - x*> by convexity, so the
                # mean over the agents, objective_gap, is at least -||grad f(x*)||
                # sqrt(distance_sq / m), up to rounding: at a reference solved to
                # the rounding floor, -1e-10 (1 + |f*|)
                ref = runner._Workspace(parse_config(case / "cfg.yaml")).saddle
                m = raw["problem"]["m"]
                with open(Path(manifest["csv_path"])) as f:
                    for row in csv.DictReader(f):
                        slack = ref.grad_norm * math.sqrt(float(row["distance_sq"]) / m)
                        bound = -1e-10 * (1.0 + abs(ref.f_star)) - slack
                        assert float(row["objective_gap"]) >= bound, (row, bound)

    @given(rejected_raw_configs())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_out_of_range_field_exits_2_naming_it(self, tmp_path, capsys, drawn):
        raw, section, key = drawn
        case = Path(tempfile.mkdtemp(dir=tmp_path))
        (case / "cfg.yaml").write_text(yaml.safe_dump(raw))
        code = cli.main(["run", str(case / "cfg.yaml"), "--out", str(case / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        assert not (case / "out").exists() or not any((case / "out").iterdir())
        # the key named in either form: section.key: or section: key
        assert re.search(rf"^config error: {section}(\.{key}\b|: {key}\b)", err, re.M), err

    def test_overflowing_growth_cap_names_its_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(BETA2_OVERFLOW))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(line.startswith("config error: algorithm.growth: beta2 ") for line in err)

    @pytest.mark.parametrize("c, saddle", [(1.0e-10, True), (1.0e-13, False)])
    def test_too_small_gossip_c_names_its_key(self, tmp_path, capsys, c, saddle):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**SMALL_C, "gossip": {"c": c},
                                        "diagnostics": {"saddle": saddle}}))
        assert cli.main(["validate", str(path)]) == 0  # builds no graph
        capsys.readouterr()
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: gossip.c: c = {c} zeroes ")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


class TestPresets:
    def test_all_presets_validate(self):
        for name in ("fig1_line", "fig1_er01", "fig1_er09"):
            configs = figure_preset(name, synthetic_logistic=True)
            assert len(configs) == 3
            for cfg in configs:
                assert parse_config_dict(yaml.safe_load(emit_config(cfg))) == cfg
                assert cfg.problem.m == 20 and cfg.graph.m == 20
        for name in ("fig2_line", "fig2_er01", "fig2_er09"):
            configs = figure_preset(name)
            for cfg in configs:
                assert parse_config_dict(yaml.safe_load(emit_config(cfg))) == cfg
                assert cfg.problem.kind == "ridge"
                assert cfg.problem.n == 20 and cfg.problem.d == 500
                assert cfg.stop.metric == "distance_sq"

    def test_fig1_needs_data_or_flag(self):
        with pytest.raises(ConfigError):
            figure_preset("fig1_line")

    def test_preset_pi_choices(self):
        ridge_cfgs = {c.algorithm.kind: c for c in figure_preset("fig2_er09")}
        assert ridge_cfgs["adolf"].algorithm.growth.kind == "ratio_power"
        assert ridge_cfgs["adolf"].algorithm.growth.beta1 == 10
        assert ridge_cfgs["adolf_local"].algorithm.growth.kind == "additive"
        assert ridge_cfgs["adolf_local"].algorithm.eta == 0.9
        log_cfgs = {c.algorithm.kind: c for c in figure_preset("fig1_line", synthetic_logistic=True)}
        assert log_cfgs["adolf"].algorithm.growth.kind == "unbounded"
        assert log_cfgs["extra"].algorithm.grid == default_extra_grid()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            figure_preset("fig3_line")


class TestCli:
    def write_config(self, tmp_path, raw=None):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw or small_ridge_raw(stop={"max_iter": 8})))
        return path

    def test_run_ok(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "unit" in capsys.readouterr().out

    def test_escaping_name_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_ridge_raw(stop={"max_iter": 8},
                                                           name="../escaped"))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("config error: name: ") for line in err)
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]  # nothing written

    @pytest.mark.parametrize("label", ["../escaped", "sub/label", "a\\b", ".", ".."])
    def test_escaping_compare_label_exit_code(self, tmp_path, capsys, label):
        path = self.write_config(tmp_path)
        code = cli.main(["compare", str(path), "--label", label, "--out", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: label: must be a file name")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]  # nothing written
        with pytest.raises(ConfigError, match="^label: "):  # argv cannot carry a NUL
            compare([parse_config(path)], out_dir=tmp_path / "c", label="nul\0byte")

    @pytest.mark.parametrize("value", ["a,b", 'a"b', "a\nb", "a\tb", "a\x7fb"],
                             ids=["comma", "quote", "newline", "tab", "delete"])
    def test_name_breaking_compare_files_exit_code(self, tmp_path, capsys, value):
        # a comma or quote would split a long-format CSV field, a line break a line
        path = self.write_config(tmp_path, small_ridge_raw(stop={"max_iter": 8}, name=value))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: name: must be a file name")
        path = self.write_config(tmp_path)
        code = cli.main(["compare", str(path), "--label", value, "--out", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: label: must be a file name")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]  # nothing written

    def test_run_named_like_the_long_format_file_is_renamed(self, tmp_path):
        # compare_long.csv is compare's long-format file, so the run writes compare_long_0.*
        path = self.write_config(tmp_path, small_ridge_raw(stop={"max_iter": 8},
                                                           name="compare_long"))
        out = tmp_path / "c"
        assert cli.main(["compare", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "compare_long_0.manifest.json").read_text())
        assert manifest["name"] == "compare_long_0"
        assert manifest["csv_path"] == str(out / "compare_long_0.csv")
        trace = list(csv.DictReader((out / "compare_long_0.csv").read_text().splitlines()))
        assert [int(row["k"]) for row in trace] == list(range(9))
        long_rows = list(csv.DictReader((out / "compare_long.csv").read_text().splitlines()))
        assert {row["algorithm"] for row in long_rows} == {"compare_long_0"}
        assert sorted(p.name for p in out.iterdir()) == [
            "compare.dat", "compare_long.csv", "compare_long_0.csv",
            "compare_long_0.manifest.json", "compare_summary.txt"]

    @pytest.mark.parametrize("raw, message", [
        (small_ridge_raw(algorithm={"kind": "extra", "grid": 0.1}),
         "algorithm.grid: expected a list, got float 0.1"),
        (small_ridge_raw(problem={"kind": "ridge", "m": 4, "digit_pair": [0]}),
         "problem.digit_pair: expected 2 entries, got 1"),
        (small_ridge_raw(problem=5), "problem: expected a mapping, got int"),
        ([small_ridge_raw()], "config root must be a mapping, got list"),
    ], ids=["grid_not_a_list", "digit_pair_of_one", "section_not_a_mapping", "root_a_list"])
    def test_config_shape_exit_code(self, tmp_path, capsys, raw, message):
        path = self.write_config(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_invalid_yaml_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("problem: {kind: ridge\n")
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {path}: invalid YAML: ")

    @pytest.mark.parametrize("text, raw", [("", {}), ("name: unit\nproblem:\n", {"name": "unit"})],
                             ids=["empty_file", "empty_section"])
    def test_left_out_config_takes_defaults(self, tmp_path, capsys, text, raw):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 0
        echo = yaml.safe_load(capsys.readouterr().out)
        assert parse_config_dict(echo) == parse_config(path) == parse_config_dict(raw)
        assert echo["problem"] == yaml.safe_load(emit_config(ExperimentConfig()))["problem"]

    def test_truncated_image_file_exit_code(self, tmp_path, capsys):
        # two bytes: the magic number itself is cut short
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(b"\x00\x00")
        labels.write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
        problem = {"kind": "mnist", "m": 4, "images_path": str(images),
                   "labels_path": str(labels)}
        path = self.write_config(tmp_path, small_ridge_raw(problem=problem))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: problem.images_path: truncated IDX file {images}")

    def test_validate_echo(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["validate", str(path)]) == 0
        assert "ridge" in capsys.readouterr().out

    def test_mnist_shape_left_to_the_data(self, tmp_path, capsys):
        # the IDX files set n and d, so the echo holds null for both, and parses back
        problem = {"kind": "mnist", "m": 4, "images_path": "images.idx",
                   "labels_path": "labels.idx"}
        path = self.write_config(tmp_path, small_ridge_raw(problem=problem))
        assert cli.main(["validate", str(path)]) == 0
        echo = yaml.safe_load(capsys.readouterr().out)
        assert echo["problem"]["n"] is None and echo["problem"]["d"] is None
        assert parse_config_dict(echo) == parse_config(path)
        # a ridge section keeps its defaults
        ridge = parse_config_dict(small_ridge_raw(problem={"kind": "ridge", "m": 4}))
        assert (ridge.problem.n, ridge.problem.d) == (20, 50)

    @pytest.mark.parametrize("key", ["n", "d"])
    def test_mnist_shape_set_in_config_exit_code(self, tmp_path, capsys, key):
        problem = {"kind": "mnist", "m": 4, "images_path": "images.idx",
                   "labels_path": "labels.idx", key: 20}
        path = self.write_config(tmp_path, small_ridge_raw(problem=problem))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: problem.{key}: ")

    def test_config_error_exit_code(self, tmp_path, capsys):
        raw = small_ridge_raw()
        raw["gossip"] = {"c": 0.6}
        path = self.write_config(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 2
        assert "c must lie in (0, 1/2)" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        raw = small_ridge_raw()
        raw["problem"] = {"kind": "mnist", "m": 4, "images_path": str(tmp_path / "no.idx"),
                          "labels_path": str(tmp_path / "no2.idx")}
        path = self.write_config(tmp_path, raw)
        (tmp_path / "no.idx").write_bytes(b"\x00\x00\x00\x00" * 4)
        (tmp_path / "no2.idx").write_bytes(b"\x00\x00\x00\x00" * 2)
        assert cli.main(["run", str(path)]) == 3

    def test_oversized_image_header_exit_code(self, tmp_path, capsys):
        # the header promises 10^11 pixel bytes; the run stops before reading them
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 2051, 100_000, 1000, 1000) + bytes(24))
        labels.write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
        problem = {"kind": "mnist", "m": 4, "images_path": str(images),
                   "labels_path": str(labels)}
        path = self.write_config(tmp_path, small_ridge_raw(problem=problem))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith("data error: problem.images_path: ")

    @pytest.mark.parametrize("key", ["images_path", "labels_path"])
    def test_missing_mnist_file_exit_code(self, tmp_path, capsys, key):
        (tmp_path / "images.idx").write_bytes(struct.pack(">IIII", 2051, 1, 1, 1) + b"\x00")
        (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
        problem = {"kind": "mnist", "m": 4, "images_path": str(tmp_path / "images.idx"),
                   "labels_path": str(tmp_path / "labels.idx")}
        missing = str(tmp_path / "missing.idx")
        problem[key] = missing
        path = self.write_config(tmp_path, small_ridge_raw(problem=problem))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert f"problem.{key}" in err and missing in err

    def test_unconnectable_graph_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(topology, "_ER_MAX_ATTEMPTS", 5)
        raw = small_ridge_raw(problem={"kind": "ridge", "m": 30, "n": 5, "d": 3},
                              graph={"kind": "erdos_renyi", "m": 30, "p": 0.001})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "g")]) == 2
        assert "graph.p" in capsys.readouterr().err

    def test_unconnectable_graph_skips_sparse_draws(self, tmp_path, capsys, monkeypatch):
        # every one of the 100000 draws has far fewer than m - 1 = 29 edges, so
        # none is worth a connectivity traversal
        checked = []
        bfs_distances = topology._bfs_distances
        monkeypatch.setattr(topology, "_bfs_distances",
                            lambda m, nbrs, src: checked.append(m) or bfs_distances(m, nbrs, src))
        raw = small_ridge_raw(problem={"kind": "ridge", "m": 30, "n": 5, "d": 3},
                              graph={"kind": "erdos_renyi", "m": 30, "p": 0.001})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "g")]) == 2
        assert "graph.p" in capsys.readouterr().err
        assert checked == []

    def test_divergence_exit_code(self, tmp_path):
        raw = small_ridge_raw(algorithm={"kind": "extra", "alpha": 50.0},
                              stop={"max_iter": 100})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "d")]) == 4

    def test_preset_divergence_exit_code(self, tmp_path, monkeypatch, capsys):
        def diverging(*args, **kwargs):  # 100 rounds each, extra at a stepsize that diverges
            configs = [replace(cfg, stop=replace(cfg.stop, max_iter=100))
                       for cfg in runner.figure_preset(*args, **kwargs)]
            configs[2] = replace(configs[2], algorithm=AlgorithmConfig(kind="extra", alpha=50.0))
            return configs

        monkeypatch.setattr(cli, "figure_preset", diverging)
        code = cli.main(["preset", "fig2_line", "--out", str(tmp_path / "p")])
        assert code == 4
        assert "diverged" in capsys.readouterr().out

    def test_grid_metric_without_saddle_exit_code(self, tmp_path, capsys):
        raw = small_ridge_raw(algorithm={"kind": "extra", "grid": [0.01, 0.1, 1.0]},
                              diagnostics={"saddle": False})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(tmp_path / "s")]) == 2
        assert "diagnostics.saddle" in capsys.readouterr().err

    def test_type_error_exit_code(self, tmp_path, capsys):
        raw = small_ridge_raw(stop={"max_iter": 8, "metric": "distance_sq", "threshold": 0.001})
        text = yaml.safe_dump(raw).replace("0.001", "1e-3")  # YAML reads this as a string
        assert "threshold: 1e-3" in text
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert cli.main(["validate", str(path)]) == 2
        assert "stop.threshold" in capsys.readouterr().err

    def test_grid_on_merit(self, tmp_path):
        grid = [0.01, 0.1, 1.0]
        raw = small_ridge_raw(algorithm={"kind": "extra", "grid": grid, "budget": 50},
                              stop={"max_iter": 50, "metric": "merit", "threshold": 1e-12})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "m")]) == 0
        manifest = json.loads((tmp_path / "m" / "unit.manifest.json").read_text())
        assert manifest["extra_best_alpha"] in grid

    def test_compare_unknown_metric_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = cli.main(["compare", str(path), "--metric", "merti", "--out", str(tmp_path / "c")])
        assert code == 2
        assert "merti" in capsys.readouterr().err

    def test_compare_metric_without_saddle_exit_code(self, tmp_path, capsys):
        path = self.write_config(tmp_path, small_ridge_raw(stop={"max_iter": 8},
                                                           diagnostics={"saddle": False}))
        code = cli.main(["compare", str(path), "--metric", "distance_sq",
                         "--out", str(tmp_path / "c")])
        assert code == 2
        assert "diagnostics.saddle" in capsys.readouterr().err

    def test_no_convergent_stepsize_exit_code(self, tmp_path):
        raw = small_ridge_raw(algorithm={"kind": "extra", "grid": [40.0, 80.0], "budget": 60},
                              stop={"max_iter": 50})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "g")]) == 5

    @pytest.mark.parametrize("algorithm, key", [
        ({"kind": "extra", "grid": [float("inf")]}, "algorithm.grid[0]"),
        ({"kind": "extra", "grid": [0.1, float("nan")]}, "algorithm.grid[1]"),
        ({"kind": "extra", "alpha": float("inf")}, "algorithm.alpha"),
        ({"kind": "extra", "alpha": float("nan")}, "algorithm.alpha"),
        ({"kind": "condat_vu", "alpha": float("inf")}, "algorithm.alpha"),
        ({"kind": "condat_vu", "alpha": float("nan")}, "algorithm.alpha"),
        ({"kind": "adolf", "mode": "strongly_convex", "alpha0": float("inf")},
         "algorithm: alpha0"),
        ({"kind": "adolf_local", "alpha0": float("nan")}, "algorithm: alpha0"),
        # finite, but sigma / alpha0^2 overflows or divides by zero
        ({"kind": "adolf", "alpha0": 1.0e200}, "algorithm: alpha0"),
        ({"kind": "adolf", "alpha0": 1.0e-320}, "algorithm: alpha0"),
    ])
    def test_non_finite_stepsize_exit_code(self, tmp_path, capsys, algorithm, key):
        path = self.write_config(tmp_path, small_ridge_raw(algorithm=algorithm))
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    @pytest.mark.parametrize("algorithm", [
        {"kind": "extra", "alpha": 0.01, "grid": [0.01, 0.1]},  # the grid would win
        {"kind": "adolf", "alpha": 0.01},  # the adaptive kinds read alpha0
        {"kind": "adolf_local", "mode": "convex", "alpha": 0.01},
    ], ids=["extra_grid", "adolf", "adolf_local"])
    def test_alpha_the_run_would_drop_exit_code(self, tmp_path, capsys, algorithm):
        path = self.write_config(tmp_path, small_ridge_raw(algorithm=algorithm))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "r")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("config error: algorithm.alpha: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("algorithm", [
        {"kind": "adolf", "grid": [0.1]},  # only extra searches a grid
        {"kind": "adolf_local", "mode": "convex", "grid": [0.1]},
        {"kind": "condat_vu", "alpha": 0.01, "grid": [0.1]},
    ], ids=["adolf", "adolf_local", "condat_vu"])
    def test_grid_the_run_would_drop_exit_code(self, tmp_path, capsys, algorithm):
        path = self.write_config(tmp_path, small_ridge_raw(algorithm=algorithm))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "r")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("config error: algorithm.grid: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind", ["adolf", "adolf_local"])
    def test_unbounded_growth_in_strongly_convex_mode_exit_code(self, tmp_path, capsys, kind):
        raw = small_ridge_raw(graph={"kind": "ring", "m": 4},
                              algorithm={"kind": kind, "mode": "strongly_convex",
                                         "growth": {"kind": "unbounded"}})
        path = self.write_config(tmp_path, raw)
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "r")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("config error: algorithm: growth.kind ")
        raw["algorithm"]["mode"] = "convex"  # where unbounded growth is valid for adolf
        assert cli.main(["validate", str(self.write_config(tmp_path, raw))]) == (
            0 if kind == "adolf" else 2)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_non_finite_saddle_tol_exit_code(self, tmp_path, capsys, tol):
        raw = small_ridge_raw(problem={"kind": "logistic_synthetic", "m": 4, "n": 5, "d": 3},
                              diagnostics={"saddle_tol": tol})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 2
        assert cli.main(["run", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "diagnostics.saddle_tol" in err and "finite" in err

    def test_comparison_error_exit_code(self, tmp_path):
        p1 = self.write_config(tmp_path)
        raw2 = small_ridge_raw(stop={"max_iter": 8}, master_seed=9)
        p2 = tmp_path / "cfg2.yaml"
        p2.write_text(yaml.safe_dump(raw2))
        assert cli.main(["compare", str(p1), str(p2), "--out", str(tmp_path / "c")]) == 6

    def test_comparison_of_saddle_settings_exit_code(self, tmp_path, capsys):
        p1 = self.write_config(tmp_path, small_ridge_raw(
            stop={"max_iter": 200, "metric": "distance_sq", "threshold": 0.001}))
        p2 = tmp_path / "cfg2.yaml"
        p2.write_text(yaml.safe_dump(small_ridge_raw(
            stop={"max_iter": 200, "metric": "consensus_err", "threshold": 1.0e-20},
            diagnostics={"saddle": False}, name="b")))
        assert cli.main(["compare", str(p1), str(p2), "--out", str(tmp_path / "c")]) == 6
        assert "diagnostics.saddle" in capsys.readouterr().err

    def test_stalled_reference_solve_exit_code(self, tmp_path, capsys, monkeypatch):
        def stalled(problem, gossip, tol):
            raise NotConvergedError("reference solve stalled at gradient norm 1.0e-3")
        monkeypatch.setattr(runner, "compute_saddle", stalled)
        path = self.write_config(tmp_path)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "n")]) == 4
        assert "numeric error: reference solve stalled" in capsys.readouterr().err

    def test_nan_gradient_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "build_problem", lambda config: nan_gradient_problem(5))
        raw = small_ridge_raw(diagnostics={"saddle": False})
        path = self.write_config(tmp_path, raw)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "f")]) == 4
        manifest = json.loads((tmp_path / "f" / "unit.manifest.json").read_text())
        assert manifest["status"] == "diverged"

    @pytest.mark.parametrize("algorithm", [
        {"kind": "adolf", "mode": "strongly_convex"},
        {"kind": "adolf_local", "mode": "convex"},
        {"kind": "extra", "alpha": 0.01},
        {"kind": "condat_vu", "alpha": 0.05},
    ])
    def test_run_manifest_telemetry(self, tmp_path, algorithm):
        path = self.write_config(tmp_path, small_ridge_raw(algorithm=algorithm,
                                                           stop={"max_iter": 12}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        manifest = strict_json(tmp_path / "out" / "unit.manifest.json")
        rows = list(csv.DictReader((tmp_path / "out" / "unit.csv").read_text().splitlines()))[:-1]
        assert len(rows) == 12  # a row per step: the manifest's extrema are the columns'
        assert manifest["alpha_floor"] == min(float(r["alpha_min"]) for r in rows)
        if algorithm["kind"] == "condat_vu":
            assert manifest["l_tilde_hat"] is None and manifest["mu_tilde_hat"] is None
        else:
            assert manifest["l_tilde_hat"] == max(float(r["L_k"]) for r in rows if r["L_k"])
            assert 0.0 <= manifest["mu_tilde_hat"] <= manifest["l_tilde_hat"]
        if algorithm["kind"] in ("adolf", "adolf_local"):
            assert 0.0 <= manifest["dual_colsum_max"] <= 1e-9
        else:
            assert manifest["dual_colsum_max"] is None

    REFERENCE_COUNTS = ("reference_evaluations", "reference_hessians", "reference_chord_steps")

    def test_run_manifest_reference_counts(self, tmp_path):
        logistic = small_ridge_raw(problem={"kind": "logistic_synthetic", "m": 4, "n": 6, "d": 3},
                                   algorithm={"kind": "adolf", "mode": "convex"},
                                   stop={"max_iter": 5}, diagnostics={"saddle_tol": 1.0e-10})
        ridge = small_ridge_raw(stop={"max_iter": 5})
        for name, raw in (("logistic", logistic), ("ridge", ridge)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(raw))
            assert cli.main(["run", str(path), "--out", str(tmp_path / name)]) == 0
            manifest = strict_json(tmp_path / name / "unit.manifest.json")
            counts = [manifest[key] for key in self.REFERENCE_COUNTS]
            if name == "ridge":  # the exact normal-equation solve
                assert counts == [None, None, None]
            else:
                assert all(isinstance(c, int) for c in counts)
                assert counts[0] > 0 and counts[1] >= 1 and counts[2] >= 1
                assert manifest["saddle_grad_norm"] <= 1e-15

    def test_preset_manifest_telemetry(self, tmp_path, monkeypatch):
        def short(*args, **kwargs):  # the preset's runs and grid, at a few rounds each
            return [replace(cfg, stop=replace(cfg.stop, max_iter=20),
                            algorithm=replace(cfg.algorithm, budget=20))
                    for cfg in runner.figure_preset(*args, **kwargs)]

        monkeypatch.setattr(cli, "figure_preset", short)
        code = cli.main(["preset", "fig1_er01", "--synthetic-logistic",
                         "--out", str(tmp_path / "p")])
        assert code == 0
        counts = set()
        for kind in ("adolf", "adolf_local", "extra"):
            manifest = strict_json(tmp_path / "p" / f"fig1_er01_{kind}.manifest.json")
            assert manifest["saddle_grad_norm"] <= 1e-15
            counts.add(tuple(manifest[key] for key in self.REFERENCE_COUNTS))
            assert manifest["alpha_floor"] > 0
            assert 0.0 <= manifest["mu_tilde_hat"] <= manifest["l_tilde_hat"]
            if kind == "extra":
                assert manifest["alpha_floor"] == manifest["extra_best_alpha"]
                assert manifest["dual_colsum_max"] is None
            else:
                assert 0.0 <= manifest["dual_colsum_max"] <= 1e-9
        # one reference solve for the preset's shared instance: one Hessian at
        # the fig1 shape, then chord steps to the floor
        (evaluations, hessians, chord_steps), = counts
        assert evaluations > 0 and hessians == 1 and chord_steps >= 1

    def test_preset_configs_only(self, tmp_path):
        code = cli.main([
            "preset", "fig1_er09", "--synthetic-logistic", "--configs-only",
            "--out", str(tmp_path / "p"),
        ])
        assert code == 0
        written = list((tmp_path / "p").glob("*.config.yaml"))
        assert len(written) == 3
        for path in written:
            parse_config(path)  # generated configs must be valid

    @pytest.mark.parametrize("section, key", [(None, "master_seed"), ("graph", "graph.seed"),
                                              ("problem", "problem.seed"), ("init", "init.seed")])
    def test_negative_seed_exit_code(self, tmp_path, capsys, section, key):
        raw = small_ridge_raw(master_seed=-3)
        if section is not None:
            raw = small_ridge_raw()
            raw[section] = {**raw.get(section, {}), "seed": -1}
        path = self.write_config(tmp_path, raw)
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "r")]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key}: ") and "must be >= 0" in err
        assert not (tmp_path / "r").exists()

    def test_preset_negative_master_seed_exit_code(self, tmp_path, capsys):
        out = tmp_path / "p"
        argv = ["preset", "fig2_line", "--configs-only", "--master-seed", "-3", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: master_seed: ")
        assert not out.exists()

    def test_preset_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DECOPT_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert cli.main(["preset", "fig2_line", "--configs-only"]) == 0
        written = sorted(path.name for path in (tmp_path / "env_out").iterdir())
        assert written == [f"fig2_line_{kind}.config.yaml"
                           for kind in ("adolf", "adolf_local", "extra")]
        assert not (tmp_path / "out").exists()
        assert cli.main(["preset", "fig2_line", "--configs-only", "--out", "flag_out"]) == 0
        assert len(list((tmp_path / "flag_out").iterdir())) == 3  # --out still wins

    def test_no_stage_loads_scipy(self, tmp_path):
        # a fresh interpreter: whether a module is loaded is process-wide state
        probe = (
            "import json, sys\n"
            "import decopt.cli\n"
            "loaded = {'import': 'scipy' in sys.modules}\n"
            "for stage, argv in json.loads(sys.argv[1]):\n"
            "    loaded[stage] = (decopt.cli.main(argv), 'scipy' in sys.modules)\n"
            "print(json.dumps(loaded))\n"
        )
        ridge = self.write_config(tmp_path)
        logistic = tmp_path / "logistic.yaml"
        logistic.write_text(yaml.safe_dump(small_ridge_raw(
            problem={"kind": "logistic_synthetic", "m": 4, "n": 5, "d": 3},
            stop={"max_iter": 8})))
        stages = [
            ("validate", ["validate", str(ridge)]),
            ("ridge", ["run", str(ridge), "--out", str(tmp_path / "ridge")]),
            ("logistic", ["run", str(logistic), "--out", str(tmp_path / "logistic")]),
        ]
        stdout = run_probe(probe, json.dumps(stages), timeout=120)
        assert json.loads(stdout.splitlines()[-1]) == {
            "import": False,
            "validate": [0, False],
            "ridge": [0, False],
            "logistic": [0, False],
        }


def final_row(manifest) -> dict:
    """The last row of a run's trace CSV, by column name."""
    with open(manifest.csv_path, newline="") as f:
        return list(csv.DictReader(f))[-1]


def strict_json(path: Path) -> dict:
    """Parse a file as standard JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_readme_config_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    cfg = parse_config_dict(yaml.safe_load(blocks[0]))
    assert cfg.stop.threshold == 1e-8


def test_readme_library_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["trace"].status == "converged"
    assert namespace["trace"].final.distance_sq <= 1e-8
