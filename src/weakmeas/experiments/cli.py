"""Command-line harness.

Each subcommand names an experiment, which ``presets.run_panels`` reads
from the run's config: ``fig2`` names ``fig2`` or ``fig2_<variant>``,
``fig3`` names ``fig3_tunnel`` and ``supp`` names ``supp``; ``custom`` takes
a config file and runs the experiment it names.
Exit code 0 on success, 2 with a one-line diagnostic on any rejected
input, a run too large to allocate included, or on an output file that
cannot be written, 1 with a one-line diagnostic
when a ``--jobs`` worker process is lost (killed, say, by the kernel's
out-of-memory killer), and 130 with one line when the run is interrupted
(Ctrl-C).

``entry`` is the process entry of both routes, the ``weakmeas`` console
script and ``python -m weakmeas.experiments.cli``; ``main`` is the library
call, which leaves the garbage collector alone.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import fields, replace
from pathlib import Path

from ..montecarlo import WorkerLostError
from .config import RunConfig, default_theta_grid, load_config
from .presets import FIG2_VARIANTS, run_panels


def _integer(text: str) -> int:
    """``int(text)`` for an integer flag.  Python reads no integer of more
    than 4,300 digits: the parser's error names one by its digit count, as
    ``montecarlo._brief_int`` does, rather than echoing it whole."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        shown = f"an integer of {len(digits)} digits" if digits.isdecimal() else repr(text)
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand takes.  Each flag that overrides a
    ``RunConfig`` field stores into that field's name, which ``--help``
    shows as its metavar; ``--grid`` stores a point count for
    ``theta_grid``."""
    parser.add_argument("--config", type=Path, help="YAML config file")
    parser.add_argument("--out", dest="output_dir", type=Path, help="output directory")
    parser.add_argument("--seed", dest="rng_seed", type=_integer, help="root RNG seed")
    parser.add_argument("--shots", dest="n_shots", type=_integer,
                        help="Monte Carlo shots per point")
    parser.add_argument("--grid", type=_integer, help="number of theta grid points")
    parser.add_argument(
        "--jobs", dest="n_jobs", type=_integer,
        help="processes, this one included, that share the shots, each running "
        "one range of them at every sweep point; at most one per CPU this process "
        "may run on",
    )
    svg = parser.add_mutually_exclusive_group()
    svg.add_argument("--svg", dest="emit_svg", action="store_true", default=None)
    svg.add_argument("--no-svg", dest="emit_svg", action="store_false", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Weak-measurement figure suite: analytic curves plus "
        "Monte Carlo trajectory ensembles, emitted as CSV and SVG.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_fig2 = sub.add_parser("fig2", help="tomography vs rotation angle")
    p_fig2.add_argument("--variant", choices=[*FIG2_VARIANTS, "all"], default="all")
    _add_common(p_fig2)
    _add_common(sub.add_parser("fig3", help="tunnel-rate extraction sweep"))
    _add_common(sub.add_parser("supp", help="supplementary figure sweeps"))
    _add_common(sub.add_parser("custom", help="run the experiment named in --config"))
    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig() if args.config is None else load_config(args.config)
    given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if args.grid is not None:
        given["theta_grid"] = default_theta_grid(args.grid)
    return replace(cfg, **{name: value for name, value in given.items() if value is not None})


def _experiment(args: argparse.Namespace, cfg: RunConfig) -> str:
    """The experiment a subcommand runs.  Only ``custom`` reads the config's
    ``experiment``; any other subcommand refuses one."""
    if args.command != "custom" and cfg.experiment != "custom":
        raise ValueError(
            f"config key 'experiment' ({cfg.experiment!r}) is read by the custom "
            f"subcommand only, not by {args.command}"
        )
    if args.command == "fig2":
        return "fig2" if args.variant == "all" else f"fig2_{args.variant}"
    if args.command == "fig3":
        return "fig3_tunnel"
    if args.command == "supp":
        return "supp"
    if args.config is None:
        raise ValueError("the custom subcommand requires --config")
    return cfg.experiment


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        paths = run_panels(replace(cfg, experiment=_experiment(args, cfg)))
    except (ValueError, OSError, MemoryError) as err:
        # numpy's MemoryError names the allocation it refused; Python's own is blank
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2
    except WorkerLostError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for path in paths:
        print(path)
    return 0


def entry() -> None:
    """Run ``main`` on the command line and exit with its code; Ctrl-C
    ends the run with one line and exit 130, not a traceback.

    Everything the imports built (numpy's heap and the package's, about
    22k objects) lives until exit, so it is moved out of the collector's
    reach first: the interpreter's exit-time collections would otherwise
    walk it all again, 25-33 ms of CPU per process on a 2-vCPU machine.
    Objects made by the run itself are collected as usual.
    """
    gc.freeze()
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    entry()
