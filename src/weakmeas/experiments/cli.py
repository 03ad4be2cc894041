"""Command-line harness.

Subcommands ``fig2``, ``fig3`` and ``supp`` run the corresponding figure
presets; ``custom`` takes a config file and runs whatever it describes.
Exit code 0 on success, nonzero with a one-line diagnostic on any rejected
input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from ..montecarlo import chunk_count, worker_pool
from .config import RunConfig, default_theta_grid, load_config
from .presets import run_experiment, run_fig2, run_fig3, run_supp_figs


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="YAML config file")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, help="root RNG seed")
    parser.add_argument("--shots", type=int, help="Monte Carlo shots per point")
    parser.add_argument("--grid", type=int, help="number of theta grid points")
    parser.add_argument("--jobs", type=int, help="processes that simulate shots")
    svg = parser.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="svg", action="store_true", default=None)
    svg.add_argument("--no-svg", dest="svg", action="store_false", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Weak-measurement figure suite: analytic curves plus "
        "Monte Carlo trajectory ensembles, emitted as CSV and SVG.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_fig2 = sub.add_parser("fig2", help="tomography vs rotation angle")
    p_fig2.add_argument(
        "--variant",
        choices=["single", "double", "reversal", "all"],
        default="all",
    )
    _add_common(p_fig2)
    _add_common(sub.add_parser("fig3", help="tunnel-rate extraction sweep"))
    _add_common(sub.add_parser("supp", help="supplementary figure sweeps"))
    _add_common(sub.add_parser("custom", help="run the experiment named in --config"))
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        cfg = load_config(args.config, cfg)
    overrides = {}
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.shots is not None:
        overrides["n_shots"] = args.shots
    if args.grid is not None:
        overrides["theta_grid"] = default_theta_grid(args.grid)
    if args.jobs is not None:
        overrides["n_jobs"] = args.jobs
    if args.svg is not None:
        overrides["emit_svg"] = args.svg
    return replace(cfg, **overrides)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        # every ensemble of the run has n_shots shots and shares one pool,
        # sized as run_shots splits them: none when they are not split
        with worker_pool(chunk_count(cfg.n_shots, cfg.n_jobs)):
            if args.command == "fig2":
                variants = (
                    ("single", "double", "reversal")
                    if args.variant == "all"
                    else (args.variant,)
                )
                paths = run_fig2(cfg, variants=variants)
            elif args.command == "fig3":
                paths = run_fig3(cfg)
            elif args.command == "supp":
                paths = run_supp_figs(cfg)
            else:
                if args.config is None:
                    raise ValueError("the custom subcommand requires --config")
                paths = run_experiment(cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
