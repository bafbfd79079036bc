"""scripts/trace_diff.py, the parent-vs-change review tool for trace outputs, and the run
set of scripts/parent_diff.py, the same-bits harness built on it."""

import csv
import importlib
import json
import math
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from decopt.config import AlgorithmConfig, parse_config_dict
from decopt.diagnostics import METRICS
from decopt.runner import RunManifest, _shared_sections, compare

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trace_diff.py"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One compare call's files: an adolf run and a grid-searched EXTRA run."""
    base = parse_config_dict({
        "problem": {"kind": "ridge", "m": 4, "n": 5, "d": 3},
        "graph": {"kind": "line", "m": 4},
        "algorithm": {"kind": "adolf", "mode": "strongly_convex"},
        "stop": {"max_iter": 60},
        "name": "unit",
        "master_seed": 1,
    })
    extra = replace(base, name="unit_extra",
                    algorithm=AlgorithmConfig(kind="extra", grid=(0.01, 0.05), budget=40))
    out = tmp_path_factory.mktemp("parent")
    compare([replace(base, name="unit_adolf"), extra], out_dir=out, label="unit")
    return out


@pytest.fixture
def scripts(monkeypatch):
    """Import a module of scripts/ by name, as the scripts there import each other."""
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    return importlib.import_module


def trace_diff(parent, change, *flags):
    proc = subprocess.run([sys.executable, str(SCRIPT), *flags, str(parent), str(change)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def perturbed(outputs, tmp_path, column, factor=None):
    """A copy whose adolf trace has column scaled by factor in its row of largest |value|,
    or moved up by one ulp without a factor."""
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    path = change / "unit_adolf.csv"
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    col = rows[0].index(column)
    row = max(rows[1:], key=lambda r: abs(float(r[col])) if r[col] else -1.0)
    value = float(row[col])
    row[col] = repr(math.nextafter(value, math.inf) if factor is None else value * factor)
    with open(path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return change


def test_identical_directories_pass(outputs):
    code, out = trace_diff(outputs, outputs)
    assert code == 0, out
    assert "PASS: 2 traces compared, 0 problems" in out
    assert "unit_adolf.csv" in out and "unit_extra.csv" in out


def test_metric_within_bound_passes(outputs, tmp_path):
    code, out = trace_diff(outputs, perturbed(outputs, tmp_path, "objective_gap", 1 + 1e-14))
    assert code == 0, out


@pytest.mark.parametrize("column, factor", [("objective_gap", 1 + 1e-10), ("L_k", 1 + 1e-5)])
def test_perturbed_csv_fails(outputs, tmp_path, column, factor):
    code, out = trace_diff(outputs, perturbed(outputs, tmp_path, column, factor))
    assert code == 1
    assert f"FAIL unit_adolf.csv: {column} at k=" in out


def test_changed_extra_stepsize_fails(outputs, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    path = change / "unit_extra.manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["extra_best_alpha"] in (0.01, 0.05)
    manifest["extra_best_alpha"] = 0.06 - manifest["extra_best_alpha"]
    path.write_text(json.dumps(manifest))
    code, out = trace_diff(outputs, change)
    assert code == 1
    assert "FAIL unit_extra.manifest.json: extra_best_alpha" in out


@pytest.mark.parametrize("key, passes", [("rounds", False), ("value", True)])
def test_changed_grid_point(outputs, tmp_path, key, passes):
    """A grid point's rounds must match; its metric value may move by rounding."""
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    path = change / "unit_extra.manifest.json"
    manifest = json.loads(path.read_text())
    point = next(p for p in manifest["extra_grid"] if p[key] is not None)
    point[key] += 1
    path.write_text(json.dumps(manifest))
    code, out = trace_diff(outputs, change)
    assert code == (0 if passes else 1), out
    assert ("FAIL unit_extra.manifest.json: extra_grid alpha/status/rounds" in out) != passes


def test_missing_run_fails(outputs, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    (change / "unit_extra.csv").unlink()
    code, out = trace_diff(outputs, change)
    assert code == 1
    assert "FAIL unit_extra.csv: only in" in out


def test_changed_summary_row_of_a_name_with_spaces_fails(outputs, tmp_path):
    # "unit b" and "unit c" share their first word; each keeps its own summary row
    parent, change = tmp_path / "parent", tmp_path / "change"
    shutil.copytree(outputs, parent)
    path = parent / "unit_summary.txt"
    path.write_text(path.read_text().replace("unit_adolf", "unit b").replace("unit_extra", "unit c"))
    shutil.copytree(parent, change)
    path = change / "unit_summary.txt"
    lines = path.read_text().splitlines()
    name, status, vector, target = lines[2].rsplit(None, 3)
    assert name == "unit b"
    lines[2] = lines[2].replace(f" {vector} ", f" {int(vector) + 1:>{len(vector)}} ", 1)
    path.write_text("\n".join(lines) + "\n")
    code, out = trace_diff(parent, change)
    assert code == 1
    assert (f"FAIL unit_summary.txt: unit b ('{status}', '{vector}', '{target}') vs "
            f"('{status}', '{int(vector) + 1}', '{target}')") in out
    assert "unit c" not in out


def write_trace(directory, rows):
    """A one-run output directory from (k, distance_sq, merit_ergodic, L_k) rows."""
    directory.mkdir()
    header = ("k,comm_vector,comm_scalar,objective_gap,distance_sq,consensus_err,"
              "merit_ergodic,lyapunov,alpha_min,alpha_max,gamma,L_k")
    lines = [header] + [f"{k},{k},{k},1.0,{dist!r},0.0,{merit!r},,0.1,0.1,1.0,{lk!r}"
                        for k, dist, merit, lk in rows]
    (directory / "run.csv").write_text("\n".join(lines) + "\n")
    return directory


@pytest.mark.parametrize("k_changed, column, code", [
    (0, "merit_ergodic", 1), (1, "merit_ergodic", 1),  # before the first row below the floor
    (2, "merit_ergodic", 0), (3, "merit_ergodic", 0),  # from it on
    (2, "L_k", 0), (3, "L_k", 1),  # step columns: only rows below the floor are exempt
])
def test_distance_floor_rules(tmp_path, k_changed, column, code):
    rows = [(0, 1.0, 2.0, 3.0), (1, 1e-10, 1.0, 3.0), (2, 1e-15, 0.5, 3.0), (3, 1e-10, 0.4, 3.0)]
    parent = write_trace(tmp_path / "parent", rows)
    k, dist, merit, lk = rows[k_changed]
    if column == "merit_ergodic":
        rows[k_changed] = (k, dist, merit * (1 + 1e-9), lk)
    else:
        rows[k_changed] = (k, dist, merit, lk * (1 + 1e-3))
    change = write_trace(tmp_path / "change", rows)
    result, out = trace_diff(parent, change)
    assert result == code, out
    assert "1 rows at distance_sq <= 1e-14 from k=2" in out


def test_exact_identical_directories_pass(outputs, tmp_path):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    files = sorted(path.name for path in outputs.iterdir())
    assert {"unit_adolf.csv", "unit_adolf.manifest.json", "unit_summary.txt"} <= set(files)
    assert any(name.endswith("_long.csv") for name in files)
    assert any(name.endswith(".dat") for name in files)
    code, out = trace_diff(outputs, change, "--exact")
    assert code == 0, out
    assert f"PASS: {len(files)} files compared, 0 problems" in out


def test_exact_fails_on_one_ulp(outputs, tmp_path):
    change = perturbed(outputs, tmp_path, "objective_gap")
    assert trace_diff(outputs, change)[0] == 0  # within the default mode's bounds
    code, out = trace_diff(outputs, change, "--exact")
    assert code == 1
    assert "FAIL unit_adolf.csv: not byte-identical" in out
    assert "1 problems" in out


@pytest.mark.parametrize("key", [f.name for f in fields(RunManifest)])
def test_exact_compares_every_manifest_field_but_time_and_place(outputs, tmp_path, key):
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    path = change / "unit_extra.manifest.json"
    manifest = json.loads(path.read_text())
    assert key in manifest
    manifest[key] = ["changed"]
    path.write_text(json.dumps(manifest))
    code, out = trace_diff(outputs, change, "--exact")
    if key in ("created_utc", "csv_path"):
        assert code == 0, out
    else:
        assert code == 1
        assert f"FAIL unit_extra.manifest.json: {key} " in out


def test_exact_exempt_keys_are_an_argument(outputs, tmp_path, scripts):
    compare_exact = scripts("trace_diff").compare_exact
    one_cpu = scripts("parent_diff").ONE_CPU_EXEMPT
    change = tmp_path / "change"
    shutil.copytree(outputs, change)
    path = change / "unit_adolf.manifest.json"
    manifest = json.loads(path.read_text())
    manifest["lanes"] += 1
    path.write_text(json.dumps(manifest))
    lanes = f"unit_adolf.manifest.json: lanes {manifest['lanes'] - 1} vs {manifest['lanes']}"
    assert compare_exact(outputs, change)[1] == [lanes]
    assert compare_exact(outputs, change, one_cpu)[1] == []
    manifest["iterations"] += 1  # the lanes exemption covers nothing else
    path.write_text(json.dumps(manifest))
    assert compare_exact(outputs, change, one_cpu)[1] == [
        f"unit_adolf.manifest.json: iterations {manifest['iterations'] - 1} vs "
        f"{manifest['iterations']}"]


def test_parent_diff_run_set_is_valid(tmp_path, scripts):
    # every config parses as the harness writes it, and each compare's pair shares
    # its instance, before the harness's passes of more than a minute
    parent_diff = scripts("parent_diff")
    names = []
    for label, group in parent_diff.run_set(tmp_path).items():
        configs = [parse_config_dict(yaml.safe_load(yaml.safe_dump(raw))) for raw in group]
        names += [config.name for config in configs]
        if len(configs) == 2:
            assert parent_diff.COMPARE_METRICS[label] in METRICS
            assert _shared_sections(configs[0]) == _shared_sections(configs[1])
        else:
            assert len(configs) == 1 and label not in parent_diff.COMPARE_METRICS
    assert len(set(names)) == len(names) == 9  # one config file each
