"""Command-line interface.

Subcommands:
    run <config>          execute one experiment config, write CSV + manifest
    compare <configs...>  run several configs on one shared instance
    preset <name>         generate and (by default) run a figure preset
    validate <config>     parse and validate a config, print the resolved echo

Outcomes map to exit codes so scripts can branch on failure class:
0 success (converged or budget), 2 config error, 3 data error, 4 numeric
failure (divergence, or a reference solve that stalls), 5 no convergent
stepsize in a grid, 6 invalid comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import emit_config, parse_config
from .errors import (
    ComparisonError,
    ConfigError,
    DataError,
    DecoptError,
    NoConvergentStepsizeError,
    NumericError,
)
from .runner import (
    PRESET_NAMES,
    _atomic_write_text,
    _resolve_out_dir,
    compare,
    figure_preset,
    preset_metric,
    run_experiment,
)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
EXIT_NO_STEPSIZE = 5
EXIT_COMPARISON = 6


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decopt",
        description="Adaptive line-search-free decentralized optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=None, help="output directory override")

    p_cmp = sub.add_parser("compare", help="run several configs on a shared instance")
    p_cmp.add_argument("configs", type=Path, nargs="+")
    p_cmp.add_argument("--out", type=Path, default=None)
    p_cmp.add_argument("--metric", default=None,
                       help="comparison metric (default: first config's stop metric)")
    p_cmp.add_argument("--label", default="compare", help="basename for comparison files")

    p_pre = sub.add_parser("preset", help="generate and run a figure preset")
    p_pre.add_argument("name", choices=PRESET_NAMES)
    p_pre.add_argument("--out", type=Path, default=None)
    p_pre.add_argument("--synthetic-logistic", action="store_true",
                       help="use the hermetic synthetic logistic data instead of MNIST")
    p_pre.add_argument("--mnist-images", type=Path, default=None)
    p_pre.add_argument("--mnist-labels", type=Path, default=None)
    p_pre.add_argument("--master-seed", type=int, default=0)
    p_pre.add_argument("--configs-only", action="store_true",
                       help="write the config files without running them")

    p_val = sub.add_parser("validate", help="validate a config and echo it resolved")
    p_val.add_argument("config", type=Path)
    return parser


def _cmd_run(args) -> int:
    manifest = run_experiment(parse_config(args.config), out_dir=args.out)
    print(f"{manifest.name}: {manifest.status} after {manifest.iterations} iterations "
          f"({manifest.comm_vector} vector rounds, {manifest.comm_scalar} scalar rounds)")
    print(f"trace: {manifest.csv_path}")
    return EXIT_OK if manifest.status in ("converged", "budget") else EXIT_DIVERGED


def _cmd_compare(args) -> int:
    configs = [parse_config(path) for path in args.configs]
    result = compare(configs, out_dir=args.out, metric=args.metric, label=args.label)
    print(result.summary_table(), end="")
    print(f"long-format data: {result.long_path}")
    print(f"gnuplot blocks:   {result.gnuplot_path}")
    if any(row.status == "diverged" for row in result.rows):
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_preset(args) -> int:
    configs = figure_preset(
        args.name,
        synthetic_logistic=args.synthetic_logistic,
        mnist_images=str(args.mnist_images) if args.mnist_images else None,
        mnist_labels=str(args.mnist_labels) if args.mnist_labels else None,
        master_seed=args.master_seed,
    )
    out = _resolve_out_dir(configs[0], args.out)
    for cfg in configs:
        path = out / f"{cfg.run_name()}.config.yaml"
        _atomic_write_text(path, emit_config(cfg))
        print(f"wrote {path}")
    if args.configs_only:
        return EXIT_OK
    result = compare(configs, out_dir=out, metric=preset_metric(args.name), label=args.name)
    print(result.summary_table(), end="")
    print(f"long-format data: {result.long_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = parse_config(args.config)
    print(emit_config(config), end="")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "preset": _cmd_preset,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NoConvergentStepsizeError as exc:
        print(f"grid search failed: {exc}", file=sys.stderr)
        return EXIT_NO_STEPSIZE
    except ComparisonError as exc:
        print(f"comparison error: {exc}", file=sys.stderr)
        return EXIT_COMPARISON
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DecoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
