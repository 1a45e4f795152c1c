"""Command-line harness.

Subcommands:
  run       execute one experiment from a config file
  sweep     repeat an experiment over values of one parameter
  validate  check a config file without running it
  theorem1  print the exploration budget for given N, K, mu, delta

Results land in ./results unless the WSSIM_RESULTS_DIR environment
variable points elsewhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ExperimentConfig, _parse_value, load_config
from .experiments import emit_results, run_experiment
from .sizing import exploration_threshold

RESULTS_ENV_VAR = "WSSIM_RESULTS_DIR"

_SWEEP_ALIASES = {
    "K": "k_branches",
    "N": "n_bands",
    "SNR": "snr_db",
    "L": "exploration_coefficient",
}


def _apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got: {item}")
        key, raw = (part.strip() for part in item.split("=", 1))
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def _run_one(cfg: ExperimentConfig, out_name: str) -> None:
    series = run_experiment(cfg)   # validates cfg before any run
    results = Path(os.environ.get(RESULTS_ENV_VAR, "results"))
    csv_path, manifest = emit_results(series, results / f"{out_name}.csv")
    print(f"wrote {csv_path} and {manifest}")


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args.set)
    _run_one(cfg, Path(args.config).stem)
    return 0


def _cmd_sweep(args) -> int:
    base = _apply_overrides(load_config(args.config), args.set)
    key = _SWEEP_ALIASES.get(args.param, args.param)
    stem = Path(args.config).stem
    # Every value's config is checked before the first run, so a bad value
    # fails the sweep without writing any results. A value equal to an
    # earlier one after parsing fails too: it would rerun that config. Output
    # names take the raw text, so 04 after 4 would write its own
    # <stem>_k_branches_04.csv; only a plain repeat (4,4) would overwrite.
    runs, seen = [], {}
    for raw in args.values.split(","):
        raw = raw.strip()
        value = _parse_value(key, raw)
        if value in seen:
            raise ValueError(f"--values gives {key} = {value!r} twice "
                             f"(as {seen[value]!r} and {raw!r})")
        seen[value] = raw
        cfg = replace(base, **{key: value})
        cfg.validate()
        runs.append((cfg, f"{stem}_{key}_{raw}"))
    for cfg, out_name in runs:
        _run_one(cfg, out_name)
    return 0


def _cmd_validate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args.set)
    cfg.validate()
    print(f"{args.config}: OK")
    return 0


def _cmd_theorem1(args) -> int:
    budget = exploration_threshold(args.N, args.K, args.mu, args.delta)
    print(f"Q={budget.observations}")
    print(f"W={budget.slots}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wssim",
        description="Wideband spectrum sensing simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field (repeatable)")
        p.set_defaults(func=func)
        return p

    add_config_command("run", "run one experiment", _cmd_run)
    sweep = add_config_command("sweep", "run the experiment for several parameter values",
                               _cmd_sweep)
    sweep.add_argument("--param", required=True,
                       help="parameter to sweep (K, N, SNR, L, or a config key)")
    sweep.add_argument("--values", required=True,
                       help="comma-separated list of values")
    add_config_command("validate", "check a config file", _cmd_validate)

    theorem = sub.add_parser("theorem1", help="print the exploration budget")
    theorem.add_argument("--N", type=int, required=True, help="number of bands")
    theorem.add_argument("--K", type=int, required=True, help="number of branches")
    theorem.add_argument("--mu", type=float, required=True,
                         help="minimum statistic gap")
    theorem.add_argument("--delta", type=float, required=True,
                         help="allowed failure probability")
    theorem.set_defaults(func=_cmd_theorem1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
