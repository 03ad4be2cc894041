"""The scalar reference the block shot engine is tested against.

``sample_shot`` simulates one trajectory at a time on its own
``Philox(key=(seed, shot))`` stream, as ``montecarlo`` did before its
shots were vectorised; ``ShotRecord`` is its per-shot result.  It keeps
the pure-statevector path that the engine dropped: the engine evolves
every history as a 4x4 density matrix, so comparing it with this
reference checks the engine's channel arithmetic against an independent
one, not against a copy of itself.  The two agree on each shot's
probabilities up to rounding, so they sample the same outcomes.
``sample_shot`` measures one tomography axis; a protocol whose tomography
names several is sampled once per axis, and the engine must give the same
outcomes in one pass.  The helpers turn records into the engine's
``Shots`` columns and compute the ensemble statistics and the blip-time
estimate from records, with the arithmetic the estimators had when they
read records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from weakmeas import montecarlo as mc
from weakmeas.protocols import BLIP
from weakmeas.spinsys import RotationPulse, pulse_unitary


def _truncated_exp_time(u: float, gamma: float, t_m: float) -> float:
    """Inverse CDF of the tunnel-time law on [0, t_m], given a blip occurred."""
    q = -math.expm1(-gamma * t_m)  # blip probability within the window
    return -math.log1p(-u * q) / gamma


@dataclass(frozen=True)
class ShotRecord:
    """Outcome of one trajectory."""

    kept: bool
    blip_times: tuple[Optional[float], ...]
    nuclear_outcome: Optional[int]
    rng_stream_id: int


def shot_rng(rng_seed: int, shot_index: int) -> np.random.Generator:
    """Independent counter-based stream for one shot."""
    key = np.array([rng_seed & 0xFFFFFFFFFFFFFFFF, shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_shot(
    protocol: mc.Protocol,
    noise: mc.NoiseConfig = mc.NO_NOISE,
    rng_seed: int = 0,
    shot_index: int = 0,
) -> ShotRecord:
    """Simulate one trajectory; deterministic given (rng_seed, shot_index).

    Zero-dephasing trajectories stay pure, so the hot path evolves a
    4-amplitude statevector and only falls back to a density matrix when
    dephasing is on or a partially-collapsed electron must be traced out
    mid-sequence.  Both representations consume the random stream in the
    same order, so the sampled record does not depend on the path taken.
    """
    rng = shot_rng(rng_seed, shot_index)
    rand = rng.random
    steps = protocol.steps
    n_steps = len(steps) - 1

    psi: Optional[np.ndarray] = protocol.initial_statevector
    joint: Optional[np.ndarray] = None
    if psi is None or noise.nuclear_dephasing_time is not None:
        psi = None
        joint = protocol.initial.rho.matrix
    blip_times: list[Optional[float]] = []
    kept = True

    for step_index in range(n_steps):
        step = steps[step_index]
        if type(step) is RotationPulse:
            u = pulse_unitary(step)
            if psi is not None:
                psi = u @ psi
            else:
                joint = u @ joint @ u.conj().T
            continue

        # readout window
        e_up, e_down = step.model.survival_up, step.model.survival_down
        # amplitude factor of each basis state when no electron tunnels
        damping = np.sqrt([e_up, e_down, e_up, e_down])
        if psi is not None:
            p_up = psi[0].real**2 + psi[0].imag**2 + psi[2].real**2 + psi[2].imag**2
        else:
            p_up = joint[0, 0].real + joint[2, 2].real
        p_down = 1.0 - p_up
        w_blip_up = p_up * (1.0 - e_up)
        w_blip_down = p_down * (1.0 - e_down)
        p_blip = w_blip_up + w_blip_down
        true_blip = rand() < p_blip
        t_blip: Optional[float] = None

        if true_blip:
            # which electron state tunneled, and when
            if w_blip_down > 0.0 and rand() * p_blip >= w_blip_up:
                gamma, e_gone = step.model.gamma_down_out, 1
            else:
                gamma, e_gone = step.model.gamma_up_out, 0
            t_blip = _truncated_exp_time(rand(), gamma, step.model.t_m)
            # project the electron onto the tunneled branch, reload it down
            if psi is not None:
                a0, a1 = psi[e_gone], psi[2 + e_gone]
                norm = math.sqrt(
                    a0.real**2 + a0.imag**2 + a1.real**2 + a1.imag**2
                )
                psi = np.array([0.0, a0 / norm, 0.0, a1 / norm], dtype=complex)
            else:
                nuc = joint.reshape(2, 2, 2, 2)[:, e_gone, :, e_gone]
                joint = mc._embed_nuclear(nuc / (nuc[0, 0].real + nuc[1, 1].real))
        else:
            # amplitude damping of the surviving branches
            if psi is not None:
                psi = psi * damping
                norm_sq = float(np.vdot(psi, psi).real)
                psi = psi / math.sqrt(norm_sq)
                if psi[0] != 0 or psi[2] != 0:
                    # electron only partially collapsed; tracing it out for
                    # a later reload makes the nuclear state mixed
                    if step_index + 1 < n_steps:
                        joint = np.outer(psi, psi.conj())
                        joint = mc._embed_nuclear(mc._nuclear_reduced(joint))
                        psi = None
                else:
                    psi = np.array([0.0, psi[1], 0.0, psi[3]], dtype=complex)
            else:
                joint = joint * np.outer(damping, damping)
                w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
                joint = mc._embed_nuclear(mc._nuclear_reduced(joint / w))

        # label error: the classified outcome, not the state, is flipped
        model = step.model
        flip_p = (
            noise.readout_false_negative if true_blip else noise.readout_false_positive
        )
        observed_blip = true_blip
        if flip_p > 0.0 and rand() < flip_p:
            observed_blip = not true_blip
        blip_times.append(t_blip if (true_blip and observed_blip) else None)

        if noise.nuclear_dephasing_time is not None:
            joint = mc._dephase_joint(joint, model.t_m, noise.nuclear_dephasing_time)

        if step.keep != "both":
            wanted_blip = step.keep == BLIP
            if observed_blip != wanted_blip:
                kept = False
                break

    outcome: Optional[int] = None
    if kept:
        (axis,) = steps[-1].axes
        if psi is not None:
            n00 = psi[0].real**2 + psi[0].imag**2 + psi[1].real**2 + psi[1].imag**2
            n01 = psi[0] * psi[2].conjugate() + psi[1] * psi[3].conjugate()
            n11 = 1.0 - n00
        else:
            nuc = mc._nuclear_reduced(joint)
            n00, n11, n01 = nuc[0, 0].real, nuc[1, 1].real, nuc[0, 1]
        if axis == "z":
            expectation = n00 - n11
        elif axis == "x":
            expectation = 2.0 * n01.real
        else:
            expectation = -2.0 * n01.imag
        p_plus = min(max((1.0 + expectation) / 2.0, 0.0), 1.0)
        outcome = 1 if rand() < p_plus else -1

    return ShotRecord(
        kept=kept,
        blip_times=tuple(blip_times),
        nuclear_outcome=outcome,
        rng_stream_id=shot_index,
    )


def sample_records(protocol, noise, rng_seed, start, stop) -> list[ShotRecord]:
    """Shots start..stop-1 of a one-axis protocol, one ``sample_shot`` at a time."""
    return [sample_shot(protocol, noise, rng_seed, i) for i in range(start, stop)]


def to_shots(records: Sequence[ShotRecord], n_windows: int) -> mc.Shots:
    """The records as one-axis ``Shots`` columns: outcome 0 for a rejected
    shot, NaN for a window without a recorded blip or not reached."""
    blip_times = np.full((len(records), n_windows), np.nan)
    for row, r in zip(blip_times, records):
        row[: len(r.blip_times)] = [np.nan if t is None else t for t in r.blip_times]
    return mc.Shots(
        np.array([[r.nuclear_outcome or 0] for r in records], dtype=np.int8),
        blip_times,
        np.array([len(r.blip_times) for r in records], dtype=int),
    )


def with_axes(protocol: mc.Protocol, axes) -> mc.Protocol:
    """The protocol with its tomography along ``axes`` ("x", "zxy", ...)."""
    steps = protocol.steps[:-1] + (mc.NuclearTomography(axes),)
    return mc.Protocol(steps, initial=protocol.initial)


def sample_columns(protocol, noise, rng_seed, start, stop) -> mc.Shots:
    """Shots start..stop-1, one ``sample_shot`` at a time and one run per
    tomography axis, the outcome columns side by side."""
    runs = [
        to_shots(
            sample_records(with_axes(protocol, axis), noise, rng_seed, start, stop),
            len(protocol.windows),
        )
        for axis in protocol.steps[-1].axes
    ]
    return mc.Shots(
        np.hstack([run.outcome for run in runs]), runs[0].blip_times, runs[0].windows_seen
    )


def run_shots(protocol, noise=mc.NO_NOISE, n_shots=1, rng_seed=0, n_jobs=1) -> mc.Shots:
    """``montecarlo.run_shots`` computed one ``sample_shot`` at a time."""
    return sample_columns(protocol, noise, rng_seed, 0, n_shots)


def stats_from_records(records: Sequence[ShotRecord]) -> mc.EnsembleStats:
    """Order-insensitive aggregation of the kept-shot tomography outcomes."""
    n_total = len(records)
    n_kept = 0
    total = 0
    for r in records:
        if r.kept:
            n_kept += 1
            total += r.nuclear_outcome
    if n_kept == 0:
        return mc.EnsembleStats(n_total=n_total, n_kept=0, mean=None, std_error=None)
    mean = total / n_kept
    std_error = math.sqrt(max(1.0 - mean * mean, 0.0) / n_kept)
    return mc.EnsembleStats(
        n_total=n_total, n_kept=n_kept, mean=mean, std_error=std_error
    )


def estimate_gamma_from_records(
    records: Sequence[ShotRecord], t_m: float, up_branch_probability: float = 0.5
) -> mc.GammaEstimate:
    """The blip-time MLE's statistics gathered from records, then solved."""
    if any(len(r.blip_times) != 1 for r in records):
        raise mc.ProtocolError("records must come from a single-window protocol")
    times = [r.blip_times[0] for r in records if r.blip_times[0] is not None]
    n_blips = len(times)
    return mc._censored_exp_mle(
        n_blips, len(records) - n_blips, float(sum(times)), t_m, up_branch_probability
    )
