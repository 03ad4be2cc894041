"""Block shot engine tests: its Philox uniforms, record-for-record equality
with the scalar ``sample_shot``, byte-identical CSVs, no leftover worker
processes, and a CLI start that does not import scipy."""

import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weakmeas
from weakmeas import montecarlo as mc
from weakmeas.experiments.cli import main
from weakmeas.protocols import TunnelModel
from weakmeas.qmath import DensityMatrix
from weakmeas.spinsys import (
    Frequency,
    JointState,
    RotationPulse,
    prepare_bell,
    prepare_initial,
)

MASK64 = (1 << 64) - 1


def scalar_chunk(protocol, noise, rng_seed, start, stop):
    """The per-shot loop the block engine replaced."""
    return [mc.sample_shot(protocol, noise, rng_seed, i) for i in range(start, stop)]


def scalar_run_shots(protocol, noise=mc.NO_NOISE, n_shots=1, rng_seed=0, n_jobs=1):
    return scalar_chunk(protocol, noise, rng_seed, 0, n_shots)


class TestPhiloxUniforms:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "seed, start",
        [(0, 0), (MASK64, 3), (-7, 11), (12345, 2**32 - 5), (1, 2**40), (2, 2**63 + 1)],
    )
    @pytest.mark.parametrize("n_draws", [1, 4, 5, 13])
    def test_matches_numpy_philox(self, seed, start, n_draws):
        got = mc._philox_uniforms(seed, start, start + 9, n_draws)
        want = np.array(
            [mc._shot_rng(seed, i).random(n_draws) for i in range(start, start + 9)]
        )
        assert got.shape == (9, n_draws)
        assert np.array_equal(got, want)


def mixed_initial(p):
    """Bell pair mixed with the maximally mixed state: not a pure state."""
    rho = p * prepare_bell().rho.matrix + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return JointState(DensityMatrix(rho))


INITIALS = {
    "superposition_x": prepare_initial,
    "up": lambda: prepare_initial("up"),
    "down": lambda: prepare_initial("down"),
    "bell": prepare_bell,
    "mixed": lambda: mixed_initial(0.6),
}


def sometimes(rng, p, value, otherwise):
    """``value`` as a float with probability p, else ``otherwise``."""
    return float(value) if rng.random() < p else otherwise


def random_pulse(rng):
    freq = list(Frequency)[int(rng.integers(len(Frequency)))]
    return mc.Pulse(
        RotationPulse(freq, float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(-1, 1)))
    )


def random_window(rng):
    if rng.random() < 0.3:
        model = TunnelModel.projective()
    else:
        model = TunnelModel(
            gamma_up_out=float(10 ** rng.uniform(-1.5, 1.0)),
            t_m=float(rng.uniform(0.2, 2.0)),
            gamma_down_out=sometimes(rng, 0.5, 10 ** rng.uniform(-1.5, 0.5), 0.0),
            readout_false_negative=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
            readout_false_positive=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
        )
    return mc.ReadoutWindow(model, keep=str(rng.choice(["no_blip", "blip", "both"])))


def random_case(seed):
    """A random protocol, noise setting and shot range."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(int(rng.integers(0, 4))):
        steps += [random_pulse(rng) for _ in range(int(rng.integers(0, 3)))]
        steps.append(random_window(rng))
    if rng.random() < 0.3:
        steps.append(random_pulse(rng))
    steps.append(mc.NuclearTomography(str(rng.choice(["x", "y", "z"]))))
    initial = INITIALS[str(rng.choice(list(INITIALS)))]()
    noise = mc.NoiseConfig(
        nuclear_dephasing_time=sometimes(rng, 0.5, rng.uniform(0.5, 5.0), None),
        readout_false_negative=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
        readout_false_positive=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
    )
    rng_seed = int(rng.integers(-5, 2**40))
    start = int(rng.integers(0, 2**34))
    return mc.Protocol(tuple(steps), initial=initial), noise, rng_seed, start


# Each feature the engine must reproduce, on its own.
NAMED_CASES = {
    "two finite windows, down tunneling, both kept": (
        mc.Protocol(
            (
                mc.Pulse(RotationPulse(Frequency.NU_E2, 1.3)),
                mc.ReadoutWindow(TunnelModel(1.0, 1.0, gamma_down_out=0.4), keep="both"),
                mc.Pulse(RotationPulse(Frequency.NMR, 0.8)),
                mc.ReadoutWindow(TunnelModel(2.0, 0.5, gamma_down_out=0.2), keep="both"),
                mc.NuclearTomography("x"),
            )
        ),
        mc.NO_NOISE,
    ),
    "partial collapse, then a projective window kept on blip": (
        mc.Protocol(
            (
                mc.Pulse(RotationPulse(Frequency.ESR_BOTH, 1.1)),
                mc.ReadoutWindow(TunnelModel(0.5, 1.0), keep="no_blip"),
                mc.Pulse(RotationPulse(Frequency.NU_E1, 2.0)),
                mc.ReadoutWindow(TunnelModel.projective(), keep="blip"),
                mc.NuclearTomography("y"),
            )
        ),
        mc.NO_NOISE,
    ),
    # after the first window one history has its electron up for certain
    # (w_blip_down exactly 0: no branch draw), the other almost surely down
    "tunnel branch drawn for some histories only": (
        mc.Protocol(
            (
                mc.Pulse(RotationPulse(Frequency.NU_E2, math.pi)),
                mc.ReadoutWindow(TunnelModel.projective(), keep="both"),
                mc.Pulse(RotationPulse(Frequency.NU_E2, math.pi)),
                mc.ReadoutWindow(TunnelModel(1.0, 1.0, gamma_down_out=0.5), keep="both"),
                mc.NuclearTomography("x"),
            )
        ),
        mc.NO_NOISE,
    ),
    "bell window, dephasing": (
        mc.Protocol(
            (mc.ReadoutWindow(TunnelModel(0.7, 1.5)), mc.NuclearTomography("z")),
            initial=prepare_bell(),
        ),
        mc.NoiseConfig(nuclear_dephasing_time=2.0),
    ),
    "bell window, label errors, kept on blip": (
        mc.Protocol(
            (
                mc.ReadoutWindow(
                    TunnelModel(2.0, 1.5, readout_false_positive=0.1), keep="blip"
                ),
                mc.NuclearTomography("x"),
            ),
            initial=prepare_bell(),
        ),
        mc.NoiseConfig(readout_false_negative=0.2, readout_false_positive=0.05),
    ),
    "mixed initial state, no window": (
        mc.Protocol(
            (mc.Pulse(RotationPulse(Frequency.NMR, 0.9)), mc.NuclearTomography("x")),
            initial=mixed_initial(0.3),
        ),
        mc.NO_NOISE,
    ),
}


class TestAgainstSampleShot:
    @pytest.mark.parametrize("name", list(NAMED_CASES))
    def test_named_case(self, name):
        protocol, noise = NAMED_CASES[name]
        assert mc.run_shots(protocol, noise, 600, 17) == scalar_run_shots(
            protocol, noise, 600, 17
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_case_chunk(self, seed):
        protocol, noise, rng_seed, start = random_case(seed)
        got = mc._run_chunk((protocol, noise, rng_seed, start, start + 250)).records(start)
        assert got == scalar_chunk(protocol, noise, rng_seed, start, start + 250)

    def test_random_cases_cover_every_branch(self):
        """The random cases reach rejections, both tunnel branches, label
        flips, mixed initial states and dephasing."""
        seen = dict.fromkeys(
            ("rejected", "kept", "down_tunnel_draws", "flips", "mixed", "dephased"), 0
        )
        for seed in range(40):
            protocol, noise, _, _ = random_case(seed)
            windows = protocol.windows
            recs = scalar_chunk(protocol, noise, 0, 0, 50)
            seen["rejected"] += sum(not r.kept for r in recs)
            seen["kept"] += sum(r.kept for r in recs)
            seen["mixed"] += protocol.initial_statevector is None
            seen["dephased"] += noise.nuclear_dephasing_time is not None
            seen["down_tunnel_draws"] += any(w.model.gamma_down_out > 0 for w in windows)
            seen["flips"] += any(
                max(mc._flip_probabilities(w.model, noise)) > 0 for w in windows
            )
        assert all(count > 0 for count in seen.values()), seen

    def test_more_shots_than_a_block(self):
        protocol, noise = NAMED_CASES["bell window, dephasing"]
        n = mc.SHOT_BLOCK + 150
        got = mc.run_shots(protocol, noise, n, 5)
        assert got == scalar_run_shots(protocol, noise, n, 5)

    def test_blip_times_bit_equal(self):
        protocol = mc.Protocol(
            (
                mc.ReadoutWindow(TunnelModel(0.3, 1.5), keep="both"),
                mc.NuclearTomography("z"),
            ),
            initial=prepare_bell(),
        )
        got = [r.blip_times[0] for r in mc.run_shots(protocol, n_shots=3000)]
        want = [r.blip_times[0] for r in scalar_run_shots(protocol, n_shots=3000)]
        assert sum(t is not None for t in want) > 500
        assert [t is None or t.hex() for t in got] == [t is None or t.hex() for t in want]


CLI_CASES = {
    "fig2": (["fig2", "--variant", "all", "--shots", "150", "--grid", "5"], None),
    "fig2 dephased": (
        ["fig2", "--variant", "all", "--shots", "150", "--grid", "5"],
        "noise_t2star: 1.0\n",
    ),
    "fig3 dephased": (["fig3", "--shots", "1500"], "noise_t2star: 2.0\n"),
    "fig3 label errors": (
        ["fig3", "--shots", "1500"],
        "noise_false_negative: 0.2\nnoise_false_positive: 0.05\n",
    ),
    "supp": (["supp", "--shots", "100", "--grid", "5"], None),
}


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_csv_bytes_match_scalar_sampler(tmp_path, monkeypatch, capsys, name):
    argv, config = CLI_CASES[name]
    if config is not None:
        (tmp_path / "run.yaml").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.yaml")]
    assert main(argv + ["--no-svg", "--out", str(tmp_path / "engine")]) == 0
    monkeypatch.setattr(mc, "run_shots", scalar_run_shots)
    assert main(argv + ["--no-svg", "--out", str(tmp_path / "scalar")]) == 0
    engine = {p.name: p.read_bytes() for p in (tmp_path / "engine").glob("*.csv")}
    scalar = {p.name: p.read_bytes() for p in (tmp_path / "scalar").glob("*.csv")}
    assert engine and engine == scalar


def test_no_worker_process_left(tmp_path, capsys):
    argv = ["fig2", "--variant", "single", "--shots", "40", "--grid", "3", "--no-svg"]
    assert main(argv + ["--jobs", "2", "--out", str(tmp_path)]) == 0
    assert multiprocessing.active_children() == []
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    mc.run_shots(protocol, noise, 300, 9, n_jobs=3)
    assert multiprocessing.active_children() == []


def test_chi2_quantile_constant():
    from scipy.stats import chi2

    assert mc.CHI2_1DOF_95 == chi2.ppf(0.95, df=1)


def test_cli_import_skips_scipy():
    src = Path(weakmeas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import sys, weakmeas.experiments.cli\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
