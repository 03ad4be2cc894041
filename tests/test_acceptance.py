"""Acceptance gate: one test per release criterion, at the stated tolerances.

The conftest hook prints one ``ACCEPTANCE n: PASS/FAIL`` line per criterion
in the terminal summary.
"""

import csv
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from weakmeas import montecarlo as mc
from weakmeas import protocols, qmath
from weakmeas.experiments.cli import main
from weakmeas.experiments.presets import bell_window_protocol, fig2_protocol
from weakmeas.protocols import (
    NO_BLIP,
    TunnelModel,
    closed_form_sequence,
    extract_tunnel_rate,
    reversal_success_probability,
    sigma_z_noblip,
    steering_scan,
    success_probability_n,
    tunnel_rate_limits,
    weak_electron_window,
    weak_nuclear_measure,
)
from weakmeas.qmath import DensityMatrix
from weakmeas.spinsys import (
    Frequency,
    JointState,
    RotationPulse,
    conditional_unitary,
    negativity,
    prepare_bell,
    prepare_initial,
)

THETA_13 = [2 * math.pi * k / 12 for k in range(13)]
Z95 = 1.959963984540054


def single_step_reference(theta):
    """Post-selected nuclear state of one weak measurement, by hand."""
    c = math.cos(theta / 2)
    return np.array([[c * c, c], [c, 1.0]], dtype=complex) / (1.0 + c * c)


def double_step_reference(theta):
    c2 = math.cos(theta / 2) ** 2
    return np.array([[c2 * c2, c2], [c2, 1.0]], dtype=complex) / (1.0 + c2 * c2)


def post_pulse_joint(theta):
    u = conditional_unitary(RotationPulse(Frequency.NU_E2, theta))
    rho = prepare_initial().rho.matrix
    return u @ rho @ u.conj().T


def test_criterion_1_closed_form_suite():
    start = time.perf_counter()
    for theta in THETA_13:
        single = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, theta), "down"
        )
        assert np.max(np.abs(single.state.rho.matrix - single_step_reference(theta))) < 1e-12
        double = closed_form_sequence([(theta, Frequency.NU_E2)] * 2)
        assert np.max(np.abs(double.state.rho.matrix - double_step_reference(theta))) < 1e-12
        if abs(theta - math.pi) > 1e-9:
            reversed_ = closed_form_sequence(
                [(theta, Frequency.NU_E2), (theta, Frequency.NU_E1)]
            )
            assert np.max(np.abs(reversed_.state.rho.matrix - np.full((2, 2), 0.5))) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_2_purity_suite():
    # every post-selected state of the closed-form protocols is pure
    for theta in THETA_13:
        states = [
            weak_nuclear_measure(
                prepare_initial(), RotationPulse(Frequency.NU_E2, theta), "down"
            ).state,
            closed_form_sequence([(theta, Frequency.NU_E2)] * 2).state,
        ]
        if abs(theta - math.pi) > 1e-9:
            states.append(
                closed_form_sequence(
                    [(theta, Frequency.NU_E2), (theta, Frequency.NU_E1)]
                ).state
            )
        for state in states:
            assert abs(qmath.purity(state.rho) - 1.0) < 1e-10
    # whereas a finite readout window leaves a visibly mixed state
    for theta in THETA_13:
        for gamma_t in (0.1, 0.5, 1.0, 2.0):
            e = math.exp(-gamma_t)
            if e * math.sin(theta / 2) ** 2 < 0.1:
                continue
            model = TunnelModel(gamma_up_out=gamma_t, t_m=1.0)
            state = JointState(DensityMatrix(post_pulse_joint(theta)))
            post = weak_electron_window(state, model, NO_BLIP)
            assert qmath.purity(post.state.rho) <= 1.0 - 1e-3


def test_criterion_3_success_probabilities():
    start = time.perf_counter()
    n_shots = 10_000
    cases = []
    for theta in THETA_13:
        cases.append(("single", theta, success_probability_n(theta, 1)))
        cases.append(("double", theta, success_probability_n(theta, 2)))
        cases.append(("reversal", theta, reversal_success_probability(theta)))
    for variant, theta, expected in cases:
        protocol = fig2_protocol(variant, theta, "z")
        stats = mc.stats_from_records(mc.run_shots(protocol, n_shots=n_shots, rng_seed=101))
        sigma = math.sqrt(expected * (1.0 - expected) / n_shots)
        assert abs(stats.success_fraction - expected) <= 4.0 * sigma + 1e-12
    assert time.perf_counter() - start < 30.0


def test_criterion_4_tunnel_rate_roundtrip():
    t_m = 1.5
    for gamma_t in (0.1, 0.5, 1.0, 2.0, 5.0):
        gamma = gamma_t / t_m
        sz = sigma_z_noblip(math.pi, TunnelModel(gamma_up_out=gamma, t_m=t_m))
        assert extract_tunnel_rate(sz, t_m) == pytest.approx(1.0 / gamma, rel=1e-9)

    n_shots = 100_000
    for gamma_t in (0.2, 0.5, 1.0, 2.0, 3.0):
        gamma = gamma_t / t_m
        records = mc.run_shots(
            bell_window_protocol(gamma, t_m), n_shots=n_shots, rng_seed=202
        )
        stats = mc.stats_from_records(records)
        inv = extract_tunnel_rate(stats.mean, t_m)
        assert inv == pytest.approx(1.0 / gamma, rel=0.05)
        # inversion interval vs direct blip-time MLE: the 95% intervals overlap
        half = Z95 * stats.std_error
        inv_lo = tunnel_rate_limits(stats.mean - half, t_m)
        inv_hi = tunnel_rate_limits(stats.mean + half, t_m)
        est = mc.estimate_gamma_from_blips(records, t_m)
        assert max(inv_lo, est.ci_low) <= min(inv_hi, est.ci_high)


def test_criterion_5_steering_scan():
    assert steering_scan(0.0).sigma_z == pytest.approx(-1.0, abs=1e-12)
    assert steering_scan(math.pi).sigma_z == pytest.approx(1.0, abs=1e-12)
    assert abs(steering_scan(math.pi / 2).sigma_x) == pytest.approx(1.0, abs=1e-12)
    for theta in THETA_13:
        tomo = steering_scan(theta)
        assert tomo.bloch_norm_sq == pytest.approx(1.0, abs=1e-10)
        for axis in ("x", "y", "z"):
            protocol = mc.Protocol(
                (
                    RotationPulse(Frequency.ESR_BOTH, theta),
                    mc.ReadoutWindow(TunnelModel.projective(), keep=NO_BLIP),
                    mc.NuclearTomography(axis),
                ),
                initial=prepare_bell(),
            )
            stats = mc.stats_from_records(mc.run_shots(protocol, n_shots=200, rng_seed=303))
            expected = getattr(tomo, f"sigma_{axis}")
            assert abs(stats.mean - expected) <= 4.0 * stats.std_error + 1e-12


def test_criterion_6_entanglement():
    for theta in THETA_13:
        n = negativity(JointState(DensityMatrix(post_pulse_joint(theta))))
        if theta == 0.0 or abs(theta - 2 * math.pi) < 1e-12:
            assert n <= 1e-10
        else:
            assert n > 1e-3
    assert negativity(prepare_bell()) == pytest.approx(0.5, abs=1e-10)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(404)
    for _ in range(100):
        length = int(rng.integers(1, 5))
        seq = [
            (float(rng.uniform(0.0, 3.0)), rng.choice([Frequency.NU_E1, Frequency.NU_E2]))
            for _ in range(length)
        ]
        closed = closed_form_sequence(seq)
        steps = []
        for angle, freq in seq:
            steps.append(RotationPulse(freq, angle))
            steps.append(mc.ReadoutWindow(TunnelModel.projective(), keep=NO_BLIP))
        steps.append(mc.NuclearTomography("z"))
        stepwise = mc.conditional_state(
            mc.Protocol(tuple(steps)), [NO_BLIP] * length
        )
        assert np.max(np.abs(closed.state.rho.matrix - stepwise.state.rho.matrix)) < 1e-12
        assert abs(closed.success_probability - stepwise.success_probability) < 1e-12


def _csv_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def test_criterion_8_determinism(tmp_path, worker_chunks):
    # enough shots for --jobs 4 to split each ensemble in four
    common = ["fig2", "--seed", "42", "--shots", "16400", "--grid", "5", "--no-svg"]
    dirs = [tmp_path / name for name in ("run1", "run2", "par4")]
    assert main(common + ["--out", str(dirs[0])]) == 0
    assert main(common + ["--out", str(dirs[1])]) == 0
    assert main(common + ["--out", str(dirs[2]), "--jobs", "4"]) == 0
    assert worker_chunks() > 0
    serial = _csv_bytes(dirs[0])
    assert serial  # the run actually produced CSVs
    assert serial == _csv_bytes(dirs[1])
    assert serial == _csv_bytes(dirs[2])


def test_criterion_9_end_to_end(tmp_path):
    out = tmp_path / "suite"
    start = time.perf_counter()
    for command in ("fig2", "fig3", "supp"):
        assert main([command, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 60.0

    csv_paths = sorted(out.glob("*.csv"))
    svg_paths = sorted(out.glob("*.svg"))
    assert len(csv_paths) == 22  # 9 fig2 panels, 1 fig3 table, 12 supplementary
    assert len(svg_paths) == 23  # fig3 emits two plots for its one table
    for path in csv_paths:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) >= 2
        width = len(rows[0])
        assert all(len(r) == width for r in rows)
    for path in svg_paths:
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
