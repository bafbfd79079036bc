import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

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
from decopt.errors import ComparisonError, ConfigError, NotConvergedError
from decopt.runner import (
    build_problem,
    compare,
    default_extra_grid,
    figure_preset,
    run_experiment,
)
from faults import nan_gradient_problem


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


class TestConfigParsing:
    def test_minimal_defaults_filled(self):
        cfg = parse_config_dict(small_ridge_raw())
        assert cfg.gossip.c == 0.4
        assert cfg.algorithm.c1 == 0.5  # strongly convex default
        assert cfg.algorithm.resolved_growth().kind == "ratio_power"
        assert cfg.diagnostics.saddle

    def test_convex_defaults(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf", "mode": "convex"})
        cfg = parse_config_dict(raw)
        assert cfg.algorithm.c1 == 0.99
        assert cfg.algorithm.resolved_growth().kind == "unbounded"

    def test_local_defaults(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf_local", "mode": "convex"})
        cfg = parse_config_dict(raw)
        assert cfg.algorithm.eta == 0.9
        assert cfg.algorithm.resolved_growth().kind == "additive"

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

    def test_extra_needs_grid_or_alpha(self):
        raw = small_ridge_raw(algorithm={"kind": "extra"})
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_dict(raw)


class TestStepsizeParamTranslation:
    def test_strongly_convex(self):
        cfg = parse_config_dict(small_ridge_raw())
        params = cfg.algorithm.stepsize_params()
        assert params.mode == "strongly_convex_global"
        assert params.sigma.kind == "inverse_alpha_sq"
        assert params.growth.kind == "ratio_power"

    def test_local_convex(self):
        raw = small_ridge_raw(algorithm={"kind": "adolf_local", "mode": "convex"})
        params = parse_config_dict(raw).algorithm.stepsize_params()
        assert params.mode == "local"
        assert params.sigma.kind == "constant"


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
        assert {row.name for row in result.rows} == {"run_adolf", "run_extra"}
        assert all(row.comms_to_threshold is not None for row in result.rows)
        long_text = Path(result.long_path).read_text()
        assert long_text.startswith("algorithm,k,comm_vector,comm_scalar,metric,value")
        assert "run_adolf" in long_text and "run_extra" in long_text
        gnuplot = Path(result.gnuplot_path).read_text()
        assert "# run_adolf" in gnuplot and "\n\n\n" in gnuplot
        assert Path(result.summary_path).exists()

    def test_single_config_degenerate(self, tmp_path):
        adolf_cfg, _ = self.make_pair()
        result = compare([adolf_cfg], out_dir=tmp_path)
        assert len(result.rows) == 1

    def test_budget_marker(self, tmp_path):
        adolf_cfg, _ = self.make_pair()
        short = replace(adolf_cfg, stop=StopConfig(max_iter=5, metric="distance_sq",
                                                   threshold=1e-12, cadence=1))
        result = compare([short], out_dir=tmp_path)
        assert result.rows[0].comms_to_threshold is None
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
        assert len(result.rows) == 2

    def test_threshold_per_run(self, tmp_path):
        adolf_cfg, _ = self.make_pair()  # distance_sq <= 1e-6
        loose = replace(adolf_cfg, name="loose", stop=replace(adolf_cfg.stop, threshold=1e-2))
        other_metric = replace(adolf_cfg, name="other_metric", stop=StopConfig(
            max_iter=1000, metric="consensus_err", threshold=1e-20, cadence=10))
        result = compare([adolf_cfg, loose, other_metric], out_dir=tmp_path, metric="distance_sq")
        tight_row, loose_row, other_row = result.rows
        assert None not in (tight_row.comms_to_threshold, loose_row.comms_to_threshold)
        assert loose_row.comms_to_threshold < tight_row.comms_to_threshold
        # another run's stop metric gives no threshold on the compared one
        assert other_row.final_metric <= 1e-6
        assert other_row.comms_to_threshold is None


class TestPresets:
    def test_all_presets_validate(self):
        for name in ("fig1_line", "fig1_er01", "fig1_er09"):
            configs = figure_preset(name, synthetic_logistic=True)
            assert len(configs) == 3
            for cfg in configs:
                cfg.validate()
                assert cfg.problem.m == 20 and cfg.graph.m == 20
        for name in ("fig2_line", "fig2_er01", "fig2_er09"):
            configs = figure_preset(name)
            for cfg in configs:
                cfg.validate()
                assert cfg.problem.kind == "ridge"
                assert cfg.problem.n == 20 and cfg.problem.d == 500
                assert cfg.stop.metric == "distance_sq"

    def test_fig1_needs_data_or_flag(self):
        with pytest.raises(ConfigError):
            figure_preset("fig1_line")

    def test_preset_pi_choices(self):
        ridge_cfgs = {c.algorithm.kind: c for c in figure_preset("fig2_er09")}
        assert ridge_cfgs["adolf"].algorithm.resolved_growth().kind == "ratio_power"
        assert ridge_cfgs["adolf"].algorithm.resolved_growth().beta1 == 10
        assert ridge_cfgs["adolf_local"].algorithm.resolved_growth().kind == "additive"
        assert ridge_cfgs["adolf_local"].algorithm.eta == 0.9
        log_cfgs = {c.algorithm.kind: c for c in figure_preset("fig1_line", synthetic_logistic=True)}
        assert log_cfgs["adolf"].algorithm.resolved_growth().kind == "unbounded"
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

    def test_validate_echo(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli.main(["validate", str(path)]) == 0
        assert "ridge" in capsys.readouterr().out

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
        is_connected = topology._is_connected
        monkeypatch.setattr(topology, "_is_connected",
                            lambda m, edges: checked.append(len(edges)) or is_connected(m, edges))
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

    def test_preset_manifest_telemetry(self, tmp_path, monkeypatch):
        def short(*args, **kwargs):  # the preset's runs and grid, at a few rounds each
            return [replace(cfg, stop=replace(cfg.stop, max_iter=20),
                            algorithm=replace(cfg.algorithm, budget=20))
                    for cfg in runner.figure_preset(*args, **kwargs)]

        monkeypatch.setattr(cli, "figure_preset", short)
        code = cli.main(["preset", "fig1_er01", "--synthetic-logistic",
                         "--out", str(tmp_path / "p")])
        assert code == 0
        for kind in ("adolf", "adolf_local", "extra"):
            manifest = strict_json(tmp_path / "p" / f"fig1_er01_{kind}.manifest.json")
            assert manifest["alpha_floor"] > 0
            assert 0.0 <= manifest["mu_tilde_hat"] <= manifest["l_tilde_hat"]
            if kind == "extra":
                assert manifest["alpha_floor"] == manifest["extra_best_alpha"]
                assert manifest["dual_colsum_max"] is None
            else:
                assert 0.0 <= manifest["dual_colsum_max"] <= 1e-9

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

    def test_scipy_special_loads_only_for_logistic(self, tmp_path):
        # a fresh interpreter: whether a module is loaded is process-wide state
        probe = (
            "import json, sys\n"
            "import decopt.cli\n"
            "loaded = {'import': 'scipy.special' in sys.modules}\n"
            "for stage, argv in json.loads(sys.argv[1]):\n"
            "    loaded[stage] = (decopt.cli.main(argv), 'scipy.special' in sys.modules)\n"
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
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", probe, json.dumps(stages)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "import": False,
            "validate": [0, False],
            "ridge": [0, False],
            "logistic": [0, True],
        }


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
