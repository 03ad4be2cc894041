"""Run configuration: defaults, YAML config files and CLI overrides.

Config files are flat YAML mappings (key: typed value).  Unknown keys are
rejected so a typo fails fast instead of silently running defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from ..montecarlo import NoiseConfig

EXPERIMENTS = (
    "fig2_single",
    "fig2_double",
    "fig2_reversal",
    "fig3_tunnel",
    "supp4_success",
    "supp5_expectations",
    "supp6_steering",
    "custom",
)

DEFAULT_T_M = 1.5  # ms, the readout window used for the tunnel-rate figure


def default_theta_grid(n: int = 41) -> list[float]:
    """n evenly spaced angles over [0, 2*pi]."""
    if n < 2:
        raise ValueError("theta grid needs at least 2 points")
    return [2.0 * math.pi * i / (n - 1) for i in range(n)]


def default_gamma_grid(t_m: float = DEFAULT_T_M, n: int = 9) -> list[float]:
    """Log-spaced tunnel rates with Gamma*t_m covering [0.05, 10]."""
    lo, hi = math.log(0.05), math.log(10.0)
    return [math.exp(lo + (hi - lo) * i / (n - 1)) / t_m for i in range(n)]


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "custom"
    theta_grid: list[float] = field(default_factory=default_theta_grid)
    gamma_grid: list[float] = field(default_factory=default_gamma_grid)
    t_m: float = DEFAULT_T_M
    n_shots: int = 200
    rng_seed: int = 1
    noise: NoiseConfig = NoiseConfig()
    output_dir: Path = Path("out")
    emit_svg: bool = True
    n_jobs: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if not self.theta_grid or not self.gamma_grid:
            raise ValueError("parameter grids must be non-empty")
        if not (math.isfinite(self.t_m) and self.t_m > 0):
            raise ValueError("t_m must be finite and positive")
        if not all(math.isfinite(g) and g > 0 for g in self.gamma_grid):
            raise ValueError("gamma_grid entries must be finite and positive")
        if not all(math.isfinite(t) for t in self.theta_grid):
            raise ValueError("theta_grid entries must be finite")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")


_SCALAR_KEYS = {
    "experiment": str,
    "t_m": float,
    "n_shots": int,
    "rng_seed": int,
    "emit_svg": bool,
    "n_jobs": int,
}
_LIST_KEYS = ("theta_grid", "gamma_grid")
_NOISE_KEYS = {
    "noise_t2star": "nuclear_dephasing_time",
    "noise_false_negative": "readout_false_negative",
    "noise_false_positive": "readout_false_positive",
}


def load_config(path: Path, base: Optional[RunConfig] = None) -> RunConfig:
    """Parse a flat YAML config file on top of ``base`` (or the defaults)."""
    import yaml  # here, so that a run without a config file never loads PyYAML

    cfg = base if base is not None else RunConfig()
    with open(path, encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            detail = " ".join(str(err).split())  # PyYAML's message spans lines
            raise ValueError(f"{path}: not valid YAML: {detail}") from None
    if data is None:
        return cfg
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a key-value mapping")
    updates = {}
    noise_updates = {}
    for key, value in data.items():
        if key in _SCALAR_KEYS:
            want = _SCALAR_KEYS[key]
            if want is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, want) or isinstance(value, bool) != (want is bool):
                raise ValueError(f"{path}: key {key!r} must be a {want.__name__}")
            updates[key] = value
        elif key in _LIST_KEYS:
            if not isinstance(value, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
            ):
                raise ValueError(f"{path}: key {key!r} must be a list of numbers")
            updates[key] = [float(v) for v in value]
        elif key == "output_dir":
            if not isinstance(value, str):
                raise ValueError(f"{path}: output_dir must be a string")
            updates[key] = Path(value)
        elif key in _NOISE_KEYS:
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise ValueError(f"{path}: key {key!r} must be a number or null")
            noise_updates[_NOISE_KEYS[key]] = None if value is None else float(value)
        else:
            known = sorted(
                list(_SCALAR_KEYS) + list(_LIST_KEYS) + ["output_dir"] + list(_NOISE_KEYS)
            )
            raise ValueError(f"{path}: unknown key {key!r} (known keys: {known})")
    if noise_updates:
        updates["noise"] = replace(cfg.noise, **noise_updates)
    return replace(cfg, **updates)
