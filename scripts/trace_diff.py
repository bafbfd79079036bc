#!/usr/bin/env python3
"""Compare the outputs of the same runs made by two versions of decopt.

A review tool for changes that move trace bits by rounding only, such as a
new evaluation kernel. Both directories are searched recursively and their
trace CSVs, manifests and summary tables are paired by relative path.

    python scripts/trace_diff.py [--exact] PARENT_DIR CHANGE_DIR

By default it exits 1 unless:

- both directories hold the same traces, manifests and summaries;
- every summary row has the same status, comm_vector and to_threshold, and
  every manifest the same status, iterations, comm_vector and
  extra_best_alpha, and the same (alpha, status, rounds) at every point of
  its EXTRA grid (the points' metric values may move by rounding);
- paired traces have the same rows (k, comm_vector, comm_scalar), and
  - every metric column agrees to |delta| <= 1e-12 * max|column| of that run;
  - every step column agrees to a relative 1e-6 per row, on rows whose
    distance_sq is above 1e-14 on both sides (every row when distance_sq is
    empty). Below that floor the secant L_k of rounding noise legitimately
    differs, so those rows are counted, not checked.
  - merit_ergodic, the merit of a stepsize-weighted running average, is
    checked only on the rows before the first one below that floor: after it,
    the average takes in the steps that legitimately differ.

It prints, per trace, the worst difference of each column (in units of its
bound's scale) and the first row below the distance floor. Long-format CSVs
and gnuplot files restate the trace columns and are not compared.

With --exact, for a change that must keep every bit, it pairs every file of
the two directories and exits 1 unless both hold the same files, each pair
is byte-identical, and each pair of manifests is equal as JSON apart from
created_utc and csv_path, which name when and where a run was written.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

ROW_KEYS = ("k", "comm_vector", "comm_scalar")
METRIC_COLUMNS = ("objective_gap", "distance_sq", "consensus_err", "merit_ergodic", "lyapunov")
STEP_COLUMNS = ("alpha_min", "alpha_max", "gamma", "L_k")
ERGODIC_COLUMN = "merit_ergodic"  # checked only before the first row below the floor
TRACE_HEADER = ",".join(ROW_KEYS + METRIC_COLUMNS + STEP_COLUMNS)
MANIFEST_KEYS = ("status", "iterations", "comm_vector", "extra_best_alpha")
GRID_KEYS = ("alpha", "status", "rounds")  # of each extra_grid point; its value is not compared
METRIC_TOL = 1e-12  # |delta| / max|column| over both runs
STEP_TOL = 1e-6  # |delta| / max(|parent|, |change|), per row
DISTANCE_FLOOR = 1e-14  # step columns are checked only on rows above it
EXACT_EXEMPT = ("created_utc", "csv_path")  # manifest fields --exact does not compare


def _kind(path: Path) -> str | None:
    if path.name.endswith(".manifest.json"):
        return "manifest"
    if path.name.endswith("_summary.txt"):
        return "summary"
    if path.suffix == ".csv":
        with open(path) as f:
            if f.readline().rstrip("\n") == TRACE_HEADER:
                return "trace"
    return None


def _outputs(root: Path) -> dict:
    """Relative path -> (kind, path) for every trace, manifest and summary."""
    found = {}
    for path in sorted(root.rglob("*")):
        kind = _kind(path) if path.is_file() else None
        if kind is not None:
            found[path.relative_to(root)] = (kind, path)
    return found


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _read_trace(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return [{key: _cell(text) for key, text in row.items()} for row in csv.DictReader(f)]


def _read_summary(path: Path) -> dict:
    """Run name -> (status, comm_vector, to_threshold)."""
    lines = path.read_text().splitlines()[2:]
    return {fields[0]: tuple(fields[1:]) for fields in (line.split() for line in lines)}


def _grid(manifest: dict) -> list | None:
    """The (alpha, status, rounds) of each point of a manifest's EXTRA grid."""
    grid = manifest.get("extra_grid")
    return None if grid is None else [tuple(p[k] for k in GRID_KEYS) for p in grid]


def _diff_trace(name, parent: list[dict], change: list[dict], problems: list[str]) -> str:
    """Check one pair of traces; returns its report."""
    if [[r[k] for k in ROW_KEYS] for r in parent] != [[r[k] for k in ROW_KEYS] for r in change]:
        problems.append(f"{name}: rows differ in {'/'.join(ROW_KEYS)}")
        return f"{name}: rows differ"
    columns = METRIC_COLUMNS + STEP_COLUMNS
    problems += [f"{name}: {col} is empty on one side only" for col in columns
                 if any((p[col] is None) != (c[col] is None) for p, c in zip(parent, change))]
    worst = dict.fromkeys(columns, 0.0)
    scales = {col: max((abs(r[col]) for r in parent + change
                        if r[col] is not None and math.isfinite(r[col])), default=0.0)
              for col in METRIC_COLUMNS}
    below = []
    for p, c in zip(parent, change):
        dist = (p["distance_sq"], c["distance_sq"])
        checked = columns
        if dist[0] is not None and dist[1] is not None and min(dist) <= DISTANCE_FLOOR:
            below.append(int(p["k"]))
            checked = METRIC_COLUMNS
        if below:
            checked = tuple(col for col in checked if col != ERGODIC_COLUMN)
        for col in checked:
            a, b = p[col], c[col]
            if a is None or b is None or _same(a, b):
                continue
            scale = scales[col] if col in METRIC_COLUMNS else max(abs(a), abs(b))
            ratio = abs(a - b) / scale if scale > 0 else math.inf
            tol = METRIC_TOL if col in METRIC_COLUMNS else STEP_TOL
            if not ratio <= tol:
                problems.append(f"{name}: {col} at k={int(p['k'])}: {a!r} vs {b!r} "
                                f"(relative {ratio:.2e} > {tol:.0e})")
            worst[col] = max(worst[col], ratio)
    floor = (f"{len(below)} rows at distance_sq <= {DISTANCE_FLOOR:.0e} from k={below[0]}"
             if below else "no row below the distance floor")
    table = "  ".join(f"{col} {value:.1e}" for col, value in worst.items())
    return f"{name}: {len(parent)} rows, {floor}\n    {table}"


def compare_dirs(parent_dir: Path, change_dir: Path) -> tuple[list[str], list[str]]:
    """Report lines and problems of one parent/change comparison."""
    parent, change = _outputs(parent_dir), _outputs(change_dir)
    problems = [f"{name}: only in {side}" for side, here, there in
                ((parent_dir, parent, change), (change_dir, change, parent))
                for name in sorted(here.keys() - there.keys())]
    if not parent and not change:
        problems.append("no trace, manifest or summary found")
    report = []
    for name in sorted(parent.keys() & change.keys()):
        kind, p_path = parent[name]
        c_path = change[name][1]
        if kind == "trace":
            report.append(_diff_trace(name, _read_trace(p_path), _read_trace(c_path), problems))
        elif kind == "summary":
            p_rows, c_rows = _read_summary(p_path), _read_summary(c_path)
            problems += [f"{name}: {run} {p_rows.get(run)} vs {c_rows.get(run)}"
                         for run in sorted(p_rows.keys() | c_rows.keys())
                         if p_rows.get(run) != c_rows.get(run)]
        else:
            p_man, c_man = json.loads(p_path.read_text()), json.loads(c_path.read_text())
            problems += [f"{name}: {key} {p_man.get(key)!r} vs {c_man.get(key)!r}"
                         for key in MANIFEST_KEYS if p_man.get(key) != c_man.get(key)]
            p_grid, c_grid = _grid(p_man), _grid(c_man)
            if p_grid != c_grid:
                problems.append(f"{name}: extra_grid {'/'.join(GRID_KEYS)} "
                                f"{p_grid!r} vs {c_grid!r}")
    return report, problems


def compare_exact(parent_dir: Path, change_dir: Path) -> tuple[list[str], list[str]]:
    """Report lines and problems of one --exact comparison: one report line per file
    pair."""
    parent, change = ({path.relative_to(root) for path in root.rglob("*") if path.is_file()}
                      for root in (parent_dir, change_dir))
    problems = [f"{name}: only in {side}" for side, here, there in
                ((parent_dir, parent, change), (change_dir, change, parent))
                for name in sorted(here - there)]
    if not parent and not change:
        problems.append("no file found")
    report = []
    for name in sorted(parent & change):
        p_path, c_path = parent_dir / name, change_dir / name
        if _kind(p_path) == "manifest":
            p_man, c_man = (json.loads(path.read_text()) for path in (p_path, c_path))
            differ = [f"{name}: {key} {p_man.get(key)!r} vs {c_man.get(key)!r}"
                      for key in sorted(p_man.keys() | c_man.keys())
                      if key not in EXACT_EXEMPT and p_man.get(key) != c_man.get(key)]
        else:
            differ = ([] if p_path.read_bytes() == c_path.read_bytes()
                      else [f"{name}: not byte-identical"])
        problems += differ
        report.append(f"{name}: {'differs' if differ else 'same'}")
    return report, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--exact", action="store_true",
                        help="require every file byte-identical, manifests apart from "
                             + " and ".join(EXACT_EXEMPT))
    args = parser.parse_args(argv)
    compare = compare_exact if args.exact else compare_dirs
    report, problems = compare(args.parent_dir, args.change_dir)
    print("\n".join(report))
    for line in problems:
        print(f"FAIL {line}")
    print(f"{'FAIL' if problems else 'PASS'}: {len(report)} {'files' if args.exact else 'traces'} "
          f"compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
