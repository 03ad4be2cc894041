"""The scalar reference the block shot engine is tested against.

``sample_shot`` simulates one trajectory at a time on its own
``Philox(key=(seed, shot))`` stream, as ``montecarlo`` did before its
shots were vectorised; ``ShotRecord`` is its per-shot result.  It keeps
the pure-statevector path that the engine dropped: the engine evolves
every history as a 4x4 density matrix, so comparing it with this
reference checks the engine's channel arithmetic against an independent
one, not against a copy of itself.  It also dephases the nuclear
coherences after every window (``_dephase_joint``), by the part of the
quasi-static decay exp(-(T/T2*)^2) that accrues over that window, where
the engine applies the whole decay once at tomography.  The two agree on
each shot's probabilities up to rounding, so they sample the same
outcomes.  Given a static ``detuning`` delta instead, a shot stays on its
statevector path and its nuclear coherence takes the phase delta * T of
the windows' total time T before tomography; ``sample_detuned`` draws
delta ~ N(0, 2/T2*^2) per shot, the quasi-static noise whose average is
the engine's factor exp(-(T/T2*)^2), from a generator of its own, so the
shots' Philox streams are read as without it.
``sample_shot`` measures one tomography axis, so ``sample_columns``
samples a protocol once per axis asked for, of x, y and z, and the engine
must give the same outcomes in one pass.  The helpers turn records into
``Shots`` columns and compute the ensemble statistics and the blip-time
estimate from records, with the arithmetic the estimators had when they
read records.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from weakmeas import montecarlo as mc
from weakmeas.spinsys import RotationPulse, pulse_unitary


def _reload_down(nuc: np.ndarray) -> np.ndarray:
    """Joint state of the nuclear 2x2 ``nuc`` beside a down electron."""
    return np.kron(nuc, np.diag([0.0, 1.0]))


def _electron_trace(joint: np.ndarray) -> np.ndarray:
    """The nuclear 2x2 of a joint 4x4: its electron partial trace."""
    return np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)


def _dephase_joint(joint: np.ndarray, before: float, after: float, t2star: float) -> np.ndarray:
    """``joint`` with its nuclear coherence blocks scaled by
    exp(-(after^2 - before^2)/T2*^2), the decay of a quasi-static detuning
    from elapsed time ``before`` to ``after``, 0.0 where a square
    overflows.  The factors of successive windows multiply to
    exp(-(T/T2*)^2) after their total time T."""
    try:
        f = math.exp((before / t2star) ** 2 - (after / t2star) ** 2)
    except OverflowError:
        f = 0.0
    out = joint.copy()
    out[:2, 2:] *= f  # nuclear up-down coherence blocks
    out[2:, :2] *= f
    return out


def _truncated_exp_time(u: float, gamma: float, t_m: float) -> float:
    """Inverse CDF of the tunnel-time law on [0, t_m], given a blip occurred."""
    q = -math.expm1(-gamma * t_m)  # blip probability within the window
    return -math.log1p(-u * q) / gamma


@dataclass(frozen=True)
class ShotRecord:
    """Outcome of one trajectory."""

    kept: bool
    blips: tuple[bool, ...]  # per window reached: did the electron tunnel out?
    blip_times: tuple[Optional[float], ...]
    nuclear_outcome: Optional[int]
    rng_stream_id: int


def shot_rng(rng_seed: int, shot_index: int) -> np.random.Generator:
    """Independent counter-based stream for one shot."""
    key = np.array([rng_seed & 0xFFFFFFFFFFFFFFFF, shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_shot(
    protocol: mc.Protocol,
    axis: str,
    noise: mc.NoiseConfig = mc.NO_NOISE,
    rng_seed: int = 0,
    shot_index: int = 0,
    detuning: Optional[float] = None,
) -> ShotRecord:
    """Simulate one trajectory with its tomography on ``axis``;
    deterministic given (rng_seed, shot_index).  A ``detuning`` delta, in
    rad/ms, turns the nuclear coherence by the phase delta * T over the
    windows' total time T before tomography; it reads no draw.

    Zero-dephasing trajectories stay pure, so the hot path evolves a
    4-amplitude statevector and only falls back to a density matrix when
    dephasing is on or a partially-collapsed electron must be traced out
    mid-sequence.  Both representations consume the random stream in the
    same order, so the sampled record does not depend on the path taken.
    """
    rng = shot_rng(rng_seed, shot_index)
    rand = rng.random
    steps = protocol.steps
    n_steps = len(steps)

    psi: Optional[np.ndarray] = protocol.initial_statevector
    joint: Optional[np.ndarray] = None
    if psi is None or noise.nuclear_dephasing_time is not None:
        psi = None
        joint = protocol.initial.rho.matrix
    blips: list[bool] = []
    blip_times: list[Optional[float]] = []
    kept = True
    elapsed = 0.0  # the time of the windows so far, in ms

    for step_index in range(n_steps):
        step = steps[step_index]
        if type(step) is RotationPulse:
            u = pulse_unitary(step)
            if psi is not None:
                psi = u @ psi
            else:
                joint = u @ joint @ u.conj().T
            continue

        # readout window: only an up electron tunnels out
        model = step
        e_up = model.survival_up
        # amplitude factor of each basis state when no electron tunnels
        damping = np.sqrt([e_up, 1.0, e_up, 1.0])
        if psi is not None:
            p_up = psi[0].real**2 + psi[0].imag**2 + psi[2].real**2 + psi[2].imag**2
        else:
            p_up = joint[0, 0].real + joint[2, 2].real
        true_blip = rand() < p_up * (1.0 - e_up)
        t_blip: Optional[float] = None

        if true_blip:
            t_blip = _truncated_exp_time(rand(), model.gamma_up_out, model.t_m)
            # project the electron onto up, the branch that tunneled, and reload it down
            if psi is not None:
                a0, a1 = psi[0], psi[2]
                norm = math.sqrt(
                    a0.real**2 + a0.imag**2 + a1.real**2 + a1.imag**2
                )
                psi = np.array([0.0, a0 / norm, 0.0, a1 / norm], dtype=complex)
            else:
                nuc = joint.reshape(2, 2, 2, 2)[:, 0, :, 0]
                joint = _reload_down(nuc / (nuc[0, 0].real + nuc[1, 1].real))
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
                        joint = _reload_down(_electron_trace(joint))
                        psi = None
                else:
                    psi = np.array([0.0, psi[1], 0.0, psi[3]], dtype=complex)
            else:
                joint = joint * np.outer(damping, damping)
                w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
                joint = _reload_down(_electron_trace(joint / w))

        # label error: the classified outcome, not the state, is flipped
        flip_p = (
            noise.readout_false_negative if true_blip else noise.readout_false_positive
        )
        observed_blip = true_blip
        if flip_p > 0.0 and rand() < flip_p:
            observed_blip = not true_blip
        blips.append(true_blip)
        blip_times.append(t_blip if (true_blip and observed_blip) else None)

        if noise.nuclear_dephasing_time is not None:
            t2star = noise.nuclear_dephasing_time
            joint = _dephase_joint(joint, elapsed, elapsed + model.t_m, t2star)
        elapsed += model.t_m

        # every window keeps the shots that show no blip
        if observed_blip:
            kept = False
            break

    outcome: Optional[int] = None
    if kept:
        if psi is not None:
            n00 = psi[0].real**2 + psi[0].imag**2 + psi[1].real**2 + psi[1].imag**2
            n01 = psi[0] * psi[2].conjugate() + psi[1] * psi[3].conjugate()
            n11 = 1.0 - n00
        else:
            nuc = _electron_trace(joint)
            n00, n11, n01 = nuc[0, 0].real, nuc[1, 1].real, nuc[0, 1]
        if detuning is not None:
            n01 = n01 * cmath.exp(-1j * detuning * elapsed)
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
        blips=tuple(blips),
        blip_times=tuple(blip_times),
        nuclear_outcome=outcome,
        rng_stream_id=shot_index,
    )


def sample_records(protocol, axis, noise, rng_seed, start, stop) -> list[ShotRecord]:
    """Shots start..stop-1 with their tomography on ``axis``, one
    ``sample_shot`` at a time."""
    return [sample_shot(protocol, axis, noise, rng_seed, i) for i in range(start, stop)]


def to_shots(records: Sequence[ShotRecord], n_windows: int) -> mc.Shots:
    """The records of one axis as ``Shots`` with one outcome column: 0 for
    a rejected shot, NaN for a window without a recorded blip or not
    reached."""
    blip_times = np.full((len(records), n_windows), np.nan)
    for row, r in zip(blip_times, records):
        row[: len(r.blip_times)] = [np.nan if t is None else t for t in r.blip_times]
    return mc.Shots(
        np.array([[r.nuclear_outcome or 0] for r in records], dtype=np.int8), blip_times
    )


def sample_detuned(protocol, axis, t2star, rng_seed, start, stop, detuning_seed):
    """Shots start..stop-1 as ``ShotRecord``s, with their tomography on
    ``axis`` and no noise but a static detuning per shot, delta ~
    N(0, 2/T2*^2), drawn in shot order from
    ``np.random.default_rng(detuning_seed)``."""
    deltas = np.random.default_rng(detuning_seed).normal(0.0, math.sqrt(2) / t2star, stop - start)
    return [
        sample_shot(protocol, axis, mc.NO_NOISE, rng_seed, i, delta)
        for i, delta in zip(range(start, stop), deltas)
    ]


def sample_columns(protocol, noise, rng_seed, start, stop, axes="xyz") -> mc.Shots:
    """Shots start..stop-1, one ``sample_shot`` at a time and one run per
    tomography axis in ``axes``, the x, y and z outcome columns side by
    side; an axis not in ``axes`` reads 0, as a rejected shot does."""
    runs = {
        axis: to_shots(
            sample_records(protocol, axis, noise, rng_seed, start, stop),
            len(protocol.windows),
        )
        for axis in axes
    }
    unsampled = np.zeros((stop - start, 1), dtype=np.int8)
    outcome = np.hstack([runs[a].outcome if a in runs else unsampled for a in "xyz"])
    return mc.Shots(outcome, next(iter(runs.values())).blip_times)


def run_shots(
    protocol, noise=mc.NO_NOISE, n_shots=1, rng_seed=0, n_jobs=1, start=0, axes="xyz"
) -> mc.Shots:
    """``montecarlo.run_shots`` computed one ``sample_shot`` at a time, on
    the tomography axes in ``axes``."""
    return sample_columns(protocol, noise, rng_seed, start, start + n_shots, axes)


def stats_from_records(records: Sequence[ShotRecord]) -> mc.EnsembleStats:
    """Order-insensitive aggregation of the kept-shot tomography outcomes."""
    kept = [r.nuclear_outcome for r in records if r.kept]
    return mc.EnsembleStats(
        n_total=len(records), n_kept=len(kept), n_plus=sum(o == 1 for o in kept)
    )


def estimate_gamma_from_records(
    records: Sequence[ShotRecord],
    n_windows: int,
    t_m: float,
    up_branch_probability: float = 0.5,
) -> mc.GammaEstimate:
    """The blip-time MLE's statistics gathered from the records of a
    protocol with ``n_windows`` readout windows, then solved.  The times are
    summed by an explicit loop in shot order, independent of numpy and of
    builtin ``sum()`` (compensated from Python 3.12)."""
    if n_windows != 1:
        raise mc.ProtocolError("records must come from a single-window protocol")
    times = [r.blip_times[0] for r in records if r.blip_times[0] is not None]
    sum_t = 0.0
    for t in times:
        sum_t += t
    return mle_from_sum(sum_t, len(times), len(records), t_m, up_branch_probability)


def mle_from_sum(sum_t, n_blips, n_shots, t_m, p=0.5) -> mc.GammaEstimate:
    """``montecarlo.estimate_gamma_from_blips`` of any ``n_blips`` times
    that sum to ``sum_t``.  The estimator reads its times only through their
    count and their sum, so it is handed ``sum_t`` followed by zeros, which
    leave that sum unchanged."""
    stand_in = np.zeros(n_blips)
    stand_in[:1] = sum_t
    return mc.estimate_gamma_from_blips(stand_in, n_shots, t_m, p)
