"""The benchmark's workloads: one ``weakmeas`` CLI invocation each, plus the
CSV panels that invocation must write.

The argv here is the whole input the program gets; the benchmark adds only
``--seed``, ``--out`` and, where a workload has one, ``--config``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

AXES = ("z", "x", "y")
FIG2_VARIANTS = ("single", "double", "reversal")

# Kinds of CSV panel, by which closed form their MC column estimates.
EXPECTATION = "expectation"  # +-1 tomography mean; analytic is <sigma>
SUCCESS = "success"  # kept fraction; analytic is a success probability
TUNNEL = "tunnel"  # fig3_tunnel.csv; the sigma_z columns are checked


@dataclass(frozen=True)
class Panel:
    """One CSV file the run must write and the sweep it must hold.

    ``keep(x)`` is the closed-form probability that a shot at sweep value
    x passes post-selection, so n_kept can be checked too, and an empty
    MC cell (no shot kept) told apart from a plausible one.
    """

    name: str
    kind: str
    sweep: tuple[float, ...]
    n_shots: int
    keep: Callable[[float], float]

    @property
    def filename(self) -> str:
        return f"{self.name}.csv"


def keep_fig2(variant: str) -> Callable[[float], float]:
    """No-blip probability of the fig2 pulse sequences (the supp4 closed forms)."""
    if variant == "reversal":
        return lambda theta: math.cos(theta / 2.0) ** 2
    n = 1 if variant == "single" else 2
    return lambda theta: (1.0 + math.cos(theta / 2.0) ** (2 * n)) / 2.0


def keep_steering(theta: float) -> float:
    """The Bell pair's electron is maximally mixed, whatever it is rotated by."""
    return 0.5


def keep_bell_window(gamma: float, t_m: float = 1.5) -> float:
    """Bell pair, one window: a down electron always survives, an up one
    with probability exp(-gamma * t_m)."""
    return (1.0 + math.exp(-gamma * t_m)) / 2.0


@dataclass(frozen=True)
class Workload:
    """A workload's definition; why it was chosen is in BENCHMARK.json."""

    name: str
    argv: tuple[str, ...]
    config: str | None
    panels: tuple[Panel, ...]
    n_svg: int

    @property
    def n_jobs(self) -> int:
        if "--jobs" in self.argv:
            return int(self.argv[self.argv.index("--jobs") + 1])
        return 1


def theta_grid(n: int) -> tuple[float, ...]:
    """The CLI's theta grid: n evenly spaced angles over [0, 2*pi]."""
    return tuple(2.0 * math.pi * i / (n - 1) for i in range(n))


def gamma_grid(t_m: float = 1.5, n: int = 9) -> tuple[float, ...]:
    """The default fig3 tunnel rates: Gamma*t_m log-spaced over [0.05, 10]."""
    lo, hi = math.log(0.05), math.log(10.0)
    return tuple(math.exp(lo + (hi - lo) * i / (n - 1)) / t_m for i in range(n))


def _fig2_panels(prefix: str, variants, grid, shots) -> list[Panel]:
    return [
        Panel(f"{prefix}_{v}_sigma_{a}", EXPECTATION, grid, shots, keep_fig2(v))
        for v in variants
        for a in AXES
    ]


def _suite_panels(grid, shots) -> tuple[Panel, ...]:
    return tuple(
        _fig2_panels("fig2", FIG2_VARIANTS, grid, shots)
        + [Panel("fig3_tunnel", TUNNEL, tuple(sorted(gamma_grid())), shots, keep_bell_window)]
        + [Panel(f"supp4_success_{v}", SUCCESS, grid, shots, keep_fig2(v)) for v in FIG2_VARIANTS]
        + _fig2_panels("supp5_expectations", ("single", "double"), grid, shots)
        + [Panel(f"supp6_steering_sigma_{a}", EXPECTATION, grid, shots, keep_steering)
           for a in AXES]
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="suite_50shots",
            argv=("custom",),
            config="experiment: custom\nn_shots: 50\n",
            panels=_suite_panels(theta_grid(41), 50),
            n_svg=23,
        ),
        Workload(
            name="fig2_deep_jobs2",
            argv=(
                "fig2", "--variant", "all", "--shots", "2000", "--grid", "9",
                "--jobs", "2", "--no-svg",
            ),
            config=None,
            panels=tuple(_fig2_panels("fig2", FIG2_VARIANTS, theta_grid(9), 2000)),
            n_svg=0,
        ),
        Workload(
            name="fig3_deep_dephased",
            argv=("fig3", "--shots", "10000"),
            config="noise_t2star: 2.0\n",
            panels=(Panel("fig3_tunnel", TUNNEL, tuple(sorted(gamma_grid())), 10000,
                          keep_bell_window),),
            n_svg=2,
        ),
    )
}
