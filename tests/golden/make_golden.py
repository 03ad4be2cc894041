"""The golden runs of ``tests/test_golden.py`` and the script that records them.

Each run is one CLI invocation at seeds 1 and 7: the three benchmark argvs,
``custom`` at 50 shots with every noise key, ``fig3`` with label errors and
the one-point ``fig3_tunnel`` run.  A run's record holds the paths it
printed (relative to its output directory), the text of every CSV and the
sha256 of every SVG.  The whole record also holds the Python and numpy
versions it was made with.

Regenerate the record, when a change moves output bytes on purpose, from
the root of a checkout:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from weakmeas.experiments.cli import main

RECORD = Path(__file__).with_name("record.json")
SEEDS = (1, 7)

# name: (argv, config file text or None)
RUNS = {
    "suite_50shots": (["custom"], "experiment: custom\nn_shots: 50\n"),
    "fig2_deep_jobs2": (
        ["fig2", "--variant", "all", "--shots", "2000", "--grid", "9", "--jobs", "2", "--no-svg"],
        None,
    ),
    "fig3_deep_dephased": (["fig3", "--shots", "10000"], "noise_t2star: 2.0\n"),
    "custom_noisy_50shots": (
        ["custom", "--shots", "50"],
        "experiment: custom\nnoise_false_negative: 0.2\nnoise_false_positive: 0.05\n"
        "noise_t2star: 1.0\n",
    ),
    "fig3_label_errors": (
        ["fig3", "--shots", "8200", "--jobs", "2"],
        "noise_false_negative: 0.2\nnoise_false_positive: 0.05\n",
    ),
    "fig3_one_point": (
        ["custom", "--shots", "8200", "--jobs", "2"],
        "experiment: fig3_tunnel\ngamma_grid: [0.5]\n",
    ),
}


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def run(name: str, seed: int, work_dir: Path) -> dict:
    """Run ``name`` at ``seed`` under ``work_dir`` and return its record."""
    argv, config = RUNS[name]
    out = work_dir / "out"
    argv = [*argv, "--seed", str(seed), "--out", str(out)]
    if config is not None:
        path = work_dir / "config.yaml"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{name} at seed {seed} exited {code}")
    printed = [str(Path(line).relative_to(out)) for line in stdout.getvalue().splitlines()]
    return {
        "stdout": printed,
        "csv": {
            p: (out / p).read_text(encoding="utf-8") for p in printed if p.endswith(".csv")
        },
        "svg": {
            p: hashlib.sha256((out / p).read_bytes()).hexdigest()
            for p in printed
            if p.endswith(".svg")
        },
    }


def key(name: str, seed: int) -> str:
    return f"{name}/seed{seed}"


def record() -> dict:
    runs = {}
    for name in RUNS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                runs[key(name, seed)] = run(name, seed, Path(tmp))
    return {**versions(), "runs": runs}


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(RECORD)
