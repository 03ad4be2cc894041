"""Run configuration: defaults, YAML config files and CLI overrides.

Config files are flat YAML mappings (key: typed value) over the defaults,
read in one pass over their top-level keys in document order, so that the
first fault is the one named.  Unknown and repeated keys are rejected, so
that a typo fails fast; merge keys (``<<``) count as given.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..montecarlo import NoiseConfig, _brief_int, _check_run

EXPERIMENTS = (
    "fig2",
    "fig2_single",
    "fig2_double",
    "fig2_reversal",
    "fig3_tunnel",
    "supp",
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


def default_gamma_grid(t_m: float) -> list[float]:
    """Nine log-spaced tunnel rates with Gamma*t_m covering [0.05, 10]."""
    lo, hi = math.log(0.05), math.log(10.0)
    return [math.exp(lo + (hi - lo) * i / 8) / t_m for i in range(9)]


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, validated on construction.  ``experiment`` names
    the panels the run writes, by name prefix; ``custom`` names them all."""

    experiment: str = "custom"
    theta_grid: list[float] = field(default_factory=default_theta_grid)
    # None: default_gamma_grid at this config's t_m, read by the run, so
    # that replacing t_m (as a config file does) moves the default grid too
    gamma_grid: Optional[list[float]] = None
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
        if self.n_shots >= 1 << 64:  # shot indices are a Philox key word
            raise ValueError(f"n_shots is not below 2**64: {_brief_int(self.n_shots)}")
        _check_run(self.n_shots, self.rng_seed, self.n_jobs)
        if not self.theta_grid or self.gamma_grid == []:
            raise ValueError("parameter grids must be non-empty")
        if not (math.isfinite(self.t_m) and self.t_m > 0):
            raise ValueError("t_m must be finite and positive")
        if not all(math.isfinite(g) and g > 0 for g in self.gamma_grid or ()):
            raise ValueError("gamma_grid entries must be finite and positive")
        # the default grid overflows at a subnormal t_m, a given one at a large t_m
        gammas = self.gamma_grid or default_gamma_grid(self.t_m)
        if not all(math.isfinite(g) and math.isfinite(g * self.t_m) for g in gammas):
            raise ValueError(f"Gamma and Gamma * t_m must be finite at t_m = {self.t_m}")
        if not all(math.isfinite(t) for t in self.theta_grid):
            raise ValueError("theta_grid entries must be finite")
        if not math.isfinite(max(self.theta_grid) - min(self.theta_grid)):  # a plot's x span
            raise ValueError("theta_grid must span a finite max - min")
        # -0.0 becomes 0.0: a run keys its points by angle, and -0.0 == 0.0
        object.__setattr__(self, "theta_grid", [t + 0.0 for t in self.theta_grid])


_SCALAR_KEYS = {
    "experiment": str,
    "t_m": float,
    "n_shots": int,
    "rng_seed": int,
    "emit_svg": bool,
    "n_jobs": int,
}
_ARTICLES = {str: "a string", float: "a number", int: "an int", bool: "a bool"}
_LIST_KEYS = ("theta_grid", "gamma_grid")
_NOISE_KEYS = {
    "noise_t2star": "nuclear_dephasing_time",
    "noise_false_negative": "readout_false_negative",
    "noise_false_positive": "readout_false_positive",
}
_KNOWN_KEYS = sorted([*_SCALAR_KEYS, *_LIST_KEYS, "output_dir", *_NOISE_KEYS])


def _typed(path: Path, key: str, value, want: type, name: Optional[str] = None):
    """``value`` as a ``want`` (an int serves as a float), or the error naming
    it.  YAML 1.1 reads a float only with a dot and, with an exponent, a signed
    one, so PyYAML loads 1e-3 as a string: the error gives its YAML spelling."""
    accepted = (float, int) if want is float else want
    if isinstance(value, accepted) and isinstance(value, bool) == (want is bool):
        try:
            return want(value)
        except OverflowError:  # an int beyond the float range
            raise ValueError(f"{path}: key {key!r} must be a number within the float range, "
                             f"not {_brief_int(value)}") from None
    message = f"{path}: key {key!r} must be {name or _ARTICLES[want]}, not {value!r}"
    try:
        x = float(value) if want in (int, float) and isinstance(value, str) else math.nan
    except ValueError:
        x = math.nan
    if math.isfinite(x) and (want is float or x.is_integer()):
        dotted = re.sub(r"^([-+]?[0-9]+)(?=[eE])", r"\1.0", value.strip())
        spelling = re.sub(r"[eE](?=[0-9])", "e+", dotted) if want is float else int(x)
        message += f"; YAML 1.1 reads {value!r} as a string: write {spelling}"
    raise ValueError(message)


def _built(loader, node, where: str):
    """``node`` built on its own by ``loader``, or the one-line error naming
    ``where``: a value PyYAML cannot build, such as an integer past Python's
    limit on the digits it reads; its advice to raise the limit is dropped."""
    try:
        return loader.construct_object(node, deep=True)
    except ValueError as err:
        raise ValueError(f"{where} cannot be read: {str(err).split(';')[0]}") from None


def load_config(path: Path) -> RunConfig:
    """Parse a flat YAML config file on top of the defaults, one top-level
    key at a time in document order: each key is checked, its value built
    and converted before the next key is read, so the first fault is the
    one named.  A key given twice is refused: PyYAML would keep its last
    value without a word."""
    import yaml  # here, so that a run without a config file never loads PyYAML

    given = {}  # each key's converted value
    with open(path, encoding="utf-8") as fh:
        loader = yaml.SafeLoader(fh)  # the loader yaml.safe_load runs, driven key by key
        try:
            node = loader.get_single_node()
            if node is None or node.tag == "tag:yaml.org,2002:null":
                return RunConfig()
            if not isinstance(node, yaml.MappingNode) or node.tag != "tag:yaml.org,2002:map":
                raise ValueError(f"{path}: config must be a key-value mapping")
            loader.flatten_mapping(node)  # merge keys (<<), as construct_document does
            for key_node, value_node in node.value:
                key = _built(loader, key_node, str(path))
                if key not in _KNOWN_KEYS:  # compared, not hashed: a key may be a list
                    raise ValueError(f"{path}: unknown key {key!r} (known keys: {_KNOWN_KEYS})")
                if key in given:
                    raise ValueError(f"{path}: key {key!r} is given more than once")
                value = _built(loader, value_node, f"{path}: key {key!r}")
                if key in _SCALAR_KEYS:
                    value = _typed(path, key, value, _SCALAR_KEYS[key])
                elif key in _LIST_KEYS:
                    items = _typed(path, key, value, list, "a list of numbers")
                    value = [_typed(path, f"{key}[{i}]", v, float) for i, v in enumerate(items)]
                elif key == "output_dir":
                    value = Path(_typed(path, key, value, str))
                elif value is not None:  # a noise key
                    value = _typed(path, key, value, float, "a number or null")
                given[key] = value
        except yaml.YAMLError as err:
            detail = " ".join(str(err).split())  # PyYAML's message spans lines
            raise ValueError(f"{path}: not valid YAML: {detail}") from None
        finally:
            loader.dispose()
    noise = {_NOISE_KEYS[key]: given.pop(key) for key in _NOISE_KEYS if key in given}
    return RunConfig(**given, noise=NoiseConfig(**noise))
