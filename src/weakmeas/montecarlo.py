"""Single-shot trajectory simulation of the full pulse-and-readout sequence.

A protocol is data: a list of pulses, readout windows and one terminal
nuclear tomography.  Each shot evolves the electron-nuclear state through
the steps, draws tunnel events and times, applies optional label errors
and dephasing, and records whether the shot passed post-selection plus the
sampled tomography eigenvalue.

Reproducibility contract: shot ``i`` of a run with root seed ``s`` always
uses the counter-based stream ``Philox(key=(s, i))``, so serial and
parallel runs (any worker count) give bit-identical aggregates.

``run_shots`` simulates shots in blocks of ``SHOT_BLOCK``: the uniforms of
every shot come from one vectorised Philox4x64-10 pass, each shot keeps its
own draw pointer, and the state is evolved once per distinct branch
history (the state is a function of the outcomes drawn so far, not of the
shot), with the same arithmetic as the scalar code.  ``sample_shot`` is
that scalar code, one shot at a time; it is the reference the block engine
is tested against, record for record.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import qmath
from .qmath import DensityMatrix
from .protocols import (
    BLIP,
    NO_BLIP,
    PostSelectedState,
    TunnelModel,
    weak_electron_window,
)
from .spinsys import (
    JointState,
    NuclearState,
    RotationPulse,
    prepare_initial,
    pulse_unitary,
)


class NoInformationError(ValueError):
    """An estimator was asked to run on data that carries no information."""


class ProtocolError(ValueError):
    """Malformed protocol description."""


@dataclass(frozen=True)
class Pulse:
    pulse: RotationPulse

    @cached_property
    def unitary(self) -> np.ndarray:
        return pulse_unitary(self.pulse)

    @cached_property
    def unitary_h(self) -> np.ndarray:
        return self.unitary.conj().T


@dataclass(frozen=True)
class ReadoutWindow:
    model: TunnelModel
    keep: str = NO_BLIP  # "no_blip", "blip" or "both"

    def __post_init__(self):
        if self.keep not in (NO_BLIP, BLIP, "both"):
            raise ProtocolError(f"unknown keep policy {self.keep!r}")

    @cached_property
    def survival(self) -> tuple[float, float]:
        return self.model.survival_up, self.model.survival_down

    @cached_property
    def damping_amplitudes(self) -> np.ndarray:
        """Per-basis-state amplitude factors of the no-blip branch."""
        e_up, e_down = self.survival
        su, sd = math.sqrt(e_up), math.sqrt(e_down)
        return np.array([su, sd, su, sd])

    @cached_property
    def damping_matrix(self) -> np.ndarray:
        d = self.damping_amplitudes
        return d[:, None] * d[None, :]


@dataclass(frozen=True)
class NuclearTomography:
    axis: str  # "x", "y" or "z"

    def __post_init__(self):
        if self.axis not in ("x", "y", "z"):
            raise ProtocolError(f"unknown tomography axis {self.axis!r}")


ProtocolStep = Union[Pulse, ReadoutWindow, NuclearTomography]


@dataclass(frozen=True)
class Protocol:
    """Declarative pulse sequence ending in one nuclear tomography."""

    steps: tuple[ProtocolStep, ...]
    initial: JointState = field(default_factory=prepare_initial)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps or not isinstance(self.steps[-1], NuclearTomography):
            raise ProtocolError("protocol must end with a NuclearTomography step")
        if any(isinstance(s, NuclearTomography) for s in self.steps[:-1]):
            raise ProtocolError("only the terminal step may be a tomography")

    @property
    def windows(self) -> tuple[ReadoutWindow, ...]:
        return tuple(s for s in self.steps if isinstance(s, ReadoutWindow))

    @cached_property
    def initial_statevector(self) -> Optional[np.ndarray]:
        """Amplitudes of the initial state when it is pure, else None."""
        m = self.initial.rho.matrix
        vals, vecs = np.linalg.eigh(m)
        if vals[-1] < 1.0 - 1e-12:
            return None
        psi = vecs[:, -1].astype(complex)
        psi.flags.writeable = False
        return psi


@dataclass(frozen=True)
class NoiseConfig:
    """Phenomenological knobs; the all-off default reproduces the closed forms."""

    nuclear_dephasing_time: Optional[float] = None  # Gaussian T2*, in ms
    readout_false_negative: float = 0.0
    readout_false_positive: float = 0.0

    def __post_init__(self):
        if self.nuclear_dephasing_time is not None and self.nuclear_dephasing_time <= 0:
            raise ValueError("nuclear_dephasing_time must be positive")
        for p in (self.readout_false_negative, self.readout_false_positive):
            if not 0.0 <= p <= 1.0:
                raise ValueError("readout error rates must be in [0, 1]")


NO_NOISE = NoiseConfig()


@dataclass(frozen=True)
class ShotRecord:
    """Outcome of one trajectory."""

    kept: bool
    blip_times: tuple[Optional[float], ...]
    nuclear_outcome: Optional[int]
    rng_stream_id: int


@dataclass(frozen=True)
class EnsembleStats:
    """Post-selected ensemble statistics of the +-1 tomography outcomes."""

    n_total: int
    n_kept: int
    mean: Optional[float]
    std_error: Optional[float]

    @property
    def success_fraction(self) -> float:
        return self.n_kept / self.n_total

    @property
    def empty(self) -> bool:
        return self.n_kept == 0


def _shot_rng(rng_seed: int, shot_index: int) -> np.random.Generator:
    """Independent counter-based stream for one shot."""
    key = np.array([rng_seed & 0xFFFFFFFFFFFFFFFF, shot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _dephase_joint(joint: np.ndarray, duration: float, t2star: float) -> np.ndarray:
    f = math.exp(-((duration / t2star) ** 2))
    out = joint.copy()
    out[:2, 2:] *= f  # nuclear up-down coherence blocks
    out[2:, :2] *= f
    return out


def _truncated_exp_time(u: float, gamma: float, t_m: float) -> float:
    """Inverse CDF of the tunnel-time law on [0, t_m], given a blip occurred."""
    q = -math.expm1(-gamma * t_m)  # blip probability within the window
    return -math.log1p(-u * q) / gamma


def _nuclear_reduced(joint: np.ndarray) -> np.ndarray:
    """Manual electron partial trace (hot path; avoids einsum overhead)."""
    t = joint.reshape(2, 2, 2, 2)
    return t[:, 0, :, 0] + t[:, 1, :, 1]


def _embed_nuclear(nuc: np.ndarray) -> np.ndarray:
    """Joint state with the given nuclear 2x2 and a fresh down electron."""
    out = np.zeros((4, 4), dtype=complex)
    out[1, 1] = nuc[0, 0]
    out[1, 3] = nuc[0, 1]
    out[3, 1] = nuc[1, 0]
    out[3, 3] = nuc[1, 1]
    return out


def _reload_down_fast(joint: np.ndarray) -> np.ndarray:
    """Trace out the electron and load a fresh down electron."""
    return _embed_nuclear(_nuclear_reduced(joint))


def sample_shot(
    protocol: Protocol,
    noise: NoiseConfig = NO_NOISE,
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
    rng = _shot_rng(rng_seed, shot_index)
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
        if type(step) is Pulse:
            if psi is not None:
                psi = step.unitary @ psi
            else:
                joint = step.unitary @ joint @ step.unitary_h
            continue

        # readout window
        e_up, e_down = step.survival
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
                joint = _embed_nuclear(nuc / (nuc[0, 0].real + nuc[1, 1].real))
        else:
            # amplitude damping of the surviving branches
            if psi is not None:
                psi = psi * step.damping_amplitudes
                norm_sq = float(np.vdot(psi, psi).real)
                psi = psi / math.sqrt(norm_sq)
                if psi[0] != 0 or psi[2] != 0:
                    # electron only partially collapsed; tracing it out for
                    # a later reload makes the nuclear state mixed
                    if step_index + 1 < n_steps:
                        joint = np.outer(psi, psi.conj())
                        joint = _reload_down_fast(joint)
                        psi = None
                else:
                    psi = np.array([0.0, psi[1], 0.0, psi[3]], dtype=complex)
            else:
                joint = joint * step.damping_matrix
                w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
                joint = _reload_down_fast(joint / w)

        # label error: the classified outcome, not the state, is flipped
        model = step.model
        flip_p = (
            model.readout_false_negative + noise.readout_false_negative
            - model.readout_false_negative * noise.readout_false_negative
            if true_blip
            else model.readout_false_positive + noise.readout_false_positive
            - model.readout_false_positive * noise.readout_false_positive
        )
        observed_blip = true_blip
        if flip_p > 0.0 and rand() < flip_p:
            observed_blip = not true_blip
        blip_times.append(t_blip if (true_blip and observed_blip) else None)

        if noise.nuclear_dephasing_time is not None:
            joint = _dephase_joint(joint, model.t_m, noise.nuclear_dephasing_time)

        if step.keep != "both":
            wanted_blip = step.keep == BLIP
            if observed_blip != wanted_blip:
                kept = False
                break

    outcome: Optional[int] = None
    if kept:
        axis = steps[-1].axis
        if psi is not None:
            n00 = psi[0].real**2 + psi[0].imag**2 + psi[1].real**2 + psi[1].imag**2
            n01 = psi[0] * psi[2].conjugate() + psi[1] * psi[3].conjugate()
            n11 = 1.0 - n00
        else:
            nuc = _nuclear_reduced(joint)
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


# Block engine: the shots of one block advance together.
SHOT_BLOCK = 4096  # shots per block; bounds the engine's per-shot arrays

# Philox4x64-10 (Salmon et al., SC'11) exactly as numpy's ``Philox`` runs it.
_MASK64 = (1 << 64) - 1
_PHILOX_ROUNDS = 10
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & 0xFFFFFFFF
_PHILOX_M_HI = _PHILOX_M >> 32
# Round r uses the key plus r Weyl increments.  The offsets are reduced
# mod 2**64 as Python ints: numpy scalars would warn on the overflow.
_PHILOX_KEY0_OFFSETS = tuple(
    (r * 0x9E3779B97F4A7C15) & _MASK64 for r in range(_PHILOX_ROUNDS)
)
_PHILOX_KEY1_OFFSETS = np.array(
    [[(r * 0xBB67AE8584CAA73B) & _MASK64] for r in range(_PHILOX_ROUNDS)],
    dtype=np.uint64,
)


def _philox_mulhilo(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of each row of ``a``
    with its Philox multiplier, the high word built from 32-bit limbs."""
    a_lo = a & 0xFFFFFFFF
    a_hi = a >> 32
    t = a_lo * _PHILOX_M_HI + ((a_lo * _PHILOX_M_LO) >> 32)  # cannot overflow
    w = (t & 0xFFFFFFFF) + a_hi * _PHILOX_M_LO  # cannot overflow
    hi = a_hi * _PHILOX_M_HI + (t >> 32) + (w >> 32)
    return hi, a * _PHILOX_M  # array products wrap mod 2**64


def _philox_uniforms(rng_seed: int, start: int, stop: int, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` uniforms of shots start..stop-1, one row each.

    Row j equals ``_shot_rng(rng_seed, start + j).random(n_draws)`` bit for
    bit: numpy's ``Philox`` increments its counter before each output of
    four words, so draw k is word k % 4 of the output at counter k // 4 + 1,
    mapped to ``(x >> 11) * 2**-53``.  Every (shot, counter) lane runs in
    one pass.
    """
    n_counters = -(-n_draws // 4)
    n = stop - start
    # counter words 0 and 2 in ``a``, words 1 and 3 in ``b``
    a = np.zeros((2, n * n_counters), dtype=np.uint64)
    a[0] = np.tile(np.arange(1, n_counters + 1, dtype=np.uint64), n)
    b = np.zeros_like(a)
    key0 = rng_seed & _MASK64
    key1 = (
        np.repeat(np.arange(start, stop, dtype=np.uint64), n_counters)
        + _PHILOX_KEY1_OFFSETS
    )
    for r in range(_PHILOX_ROUNDS):
        hi, lo = _philox_mulhilo(a)
        a = hi[::-1] ^ b
        a[0] ^= (key0 + _PHILOX_KEY0_OFFSETS[r]) & _MASK64
        a[1] ^= key1[r]
        b = lo[::-1]
    words = np.stack((a[0], b[0], a[1], b[1]), axis=1).reshape(n, 4 * n_counters)
    return (words[:, :n_draws] >> 11) * 2.0**-53


@dataclass(frozen=True)
class _ShotColumns:
    """Outcomes of consecutive shots, one array entry per shot."""

    outcome: np.ndarray  # int8 tomography eigenvalue, 0 where not kept
    blip_times: np.ndarray  # (shots, windows) float, NaN where none recorded
    windows_seen: np.ndarray  # windows reached; a rejected shot stops early

    @staticmethod
    def concat(parts: Sequence["_ShotColumns"]) -> "_ShotColumns":
        if len(parts) == 1:
            return parts[0]
        return _ShotColumns(
            *(
                np.concatenate([getattr(p, f.name) for p in parts])
                for f in fields(_ShotColumns)
            )
        )

    def records(self, start: int) -> list[ShotRecord]:
        """The shots as ShotRecords, numbered from ``start``."""
        times = self.blip_times.astype(object)
        times[np.isnan(self.blip_times)] = None
        return [
            ShotRecord(o != 0, tuple(t[:seen]), o or None, i)
            for i, o, t, seen in zip(
                range(start, start + len(self.outcome)),
                self.outcome.tolist(),
                times.tolist(),
                self.windows_seen.tolist(),
            )
        ]


# A node is the (psi, joint) pair of sample_shot shared by every shot with
# the same outcomes so far.  Nodes evolve with sample_shot's arithmetic, so
# each shot sees the probabilities it would see on its own.


def _node_start(protocol: Protocol, noise: NoiseConfig) -> tuple:
    psi = protocol.initial_statevector
    if psi is None or noise.nuclear_dephasing_time is not None:
        return None, protocol.initial.rho.matrix
    return psi, None


def _node_pulse(node: tuple, step: Pulse) -> tuple:
    psi, joint = node
    if psi is not None:
        return step.unitary @ psi, None
    return None, step.unitary @ joint @ step.unitary_h


def _node_blip_weights(node: tuple, step: ReadoutWindow) -> tuple[float, float]:
    """Probabilities that the up / the down electron tunnels out."""
    psi, joint = node
    e_up, e_down = step.survival
    if psi is not None:
        p_up = psi[0].real**2 + psi[0].imag**2 + psi[2].real**2 + psi[2].imag**2
    else:
        p_up = joint[0, 0].real + joint[2, 2].real
    p_down = 1.0 - p_up
    return p_up * (1.0 - e_up), p_down * (1.0 - e_down)


def _node_after_window(
    node: tuple,
    step: ReadoutWindow,
    branch: int,
    more_steps: bool,
    t2star: Optional[float],
) -> tuple:
    """State after a window with no blip (branch 0) or with the up (1) or
    down (2) electron tunneled out, dephased when ``t2star`` is set."""
    psi, joint = node
    if branch:
        e_gone = branch - 1
        if psi is not None:
            a0, a1 = psi[e_gone], psi[2 + e_gone]
            norm = math.sqrt(a0.real**2 + a0.imag**2 + a1.real**2 + a1.imag**2)
            psi = np.array([0.0, a0 / norm, 0.0, a1 / norm], dtype=complex)
        else:
            nuc = joint.reshape(2, 2, 2, 2)[:, e_gone, :, e_gone]
            joint = _embed_nuclear(nuc / (nuc[0, 0].real + nuc[1, 1].real))
    elif psi is not None:
        psi = psi * step.damping_amplitudes
        psi = psi / math.sqrt(float(np.vdot(psi, psi).real))
        if psi[0] != 0 or psi[2] != 0:
            if more_steps:
                psi, joint = None, _reload_down_fast(np.outer(psi, psi.conj()))
        else:
            psi = np.array([0.0, psi[1], 0.0, psi[3]], dtype=complex)
    else:
        joint = joint * step.damping_matrix
        w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
        joint = _reload_down_fast(joint / w)
    if t2star is not None:
        joint = _dephase_joint(joint, step.model.t_m, t2star)
    return psi, joint


def _node_p_plus(node: tuple, axis: str) -> float:
    """Probability of the +1 tomography outcome."""
    psi, joint = node
    if psi is not None:
        n00 = psi[0].real**2 + psi[0].imag**2 + psi[1].real**2 + psi[1].imag**2
        n01 = psi[0] * psi[2].conjugate() + psi[1] * psi[3].conjugate()
        n11 = 1.0 - n00
    else:
        nuc = _nuclear_reduced(joint)
        n00, n11, n01 = nuc[0, 0].real, nuc[1, 1].real, nuc[0, 1]
    if axis == "z":
        expectation = n00 - n11
    elif axis == "x":
        expectation = 2.0 * n01.real
    else:
        expectation = -2.0 * n01.imag
    return min(max((1.0 + expectation) / 2.0, 0.0), 1.0)


def _flip_probabilities(model: TunnelModel, noise: NoiseConfig) -> tuple[float, float]:
    """Label-flip probabilities of a true blip and of a true no-blip."""
    fn, fp = noise.readout_false_negative, noise.readout_false_positive
    return (
        model.readout_false_negative + fn - model.readout_false_negative * fn,
        model.readout_false_positive + fp - model.readout_false_positive * fp,
    )


def _shot_block(
    protocol: Protocol, noise: NoiseConfig, rng_seed: int, start: int, stop: int
) -> _ShotColumns:
    """Shots start..stop-1, drawing from their streams in sample_shot's order."""
    steps = protocol.steps
    n_steps = len(steps) - 1
    windows = protocol.windows
    flips = [_flip_probabilities(step.model, noise) for step in windows]
    # per window at most: blip?, which electron, when, label flip; then the tomography
    n_draws = 1 + sum(
        2 + (step.survival[1] < 1.0) + (max(f) > 0.0) for step, f in zip(windows, flips)
    )
    u = _philox_uniforms(rng_seed, start, stop, n_draws).ravel()
    n = stop - start
    outcome = np.zeros(n, dtype=np.int8)
    blip_times = np.full((n, len(windows)), np.nan)
    windows_seen = np.full(n, len(windows))
    # shots still kept: block row, branch-history node, index of next draw in u
    rows = np.arange(n)
    node = np.zeros(n, dtype=np.intp)
    cursor = rows * n_draws
    nodes = [_node_start(protocol, noise)]
    t2star = noise.nuclear_dephasing_time
    w = -1
    for step_index in range(n_steps):
        step = steps[step_index]
        if type(step) is Pulse:
            nodes = [_node_pulse(x, step) for x in nodes]
            continue
        w += 1
        weights = np.array([_node_blip_weights(x, step) for x in nodes])
        w_up, w_down = weights[node, 0], weights[node, 1]
        p_blip = w_up + w_down
        blip = u[cursor] < p_blip
        cursor += 1
        # sample_shot draws which electron tunneled only where w_blip_down > 0
        down = choose = blip & (w_down > 0.0)
        if choose.any():
            down = choose & (u[cursor] * p_blip >= w_up)
            cursor += choose
        t_draw = u[cursor]
        cursor += blip
        observed = blip
        p_fn, p_fp = flips[w]
        if p_fn > 0.0 or p_fp > 0.0:
            flip_p = np.where(blip, p_fn, p_fp)
            drawn = flip_p > 0.0
            observed = blip ^ (drawn & (u[cursor] < flip_p))
            cursor += drawn
        recorded = blip & observed
        model = step.model
        for sel, gamma in (
            (recorded & ~down, model.gamma_up_out),
            (recorded & down, model.gamma_down_out),
        ):
            if sel.any():
                blip_times[rows[sel], w] = [
                    _truncated_exp_time(x, gamma, model.t_m) for x in t_draw[sel].tolist()
                ]
        if step.keep != "both":
            ok = observed if step.keep == BLIP else ~observed
            windows_seen[rows[~ok]] = w + 1
            rows, node, cursor, blip, down = (
                a[ok] for a in (rows, node, cursor, blip, down)
            )
            if not rows.size:
                break
        key = node * 3 + blip + down
        used = np.flatnonzero(np.bincount(key, minlength=3 * len(nodes)))
        remap = np.empty(3 * len(nodes), dtype=np.intp)
        remap[used] = np.arange(used.size)
        more_steps = step_index + 1 < n_steps
        nodes = [
            _node_after_window(nodes[k // 3], step, k % 3, more_steps, t2star)
            for k in used.tolist()
        ]
        node = remap[key]
    if rows.size:
        p_plus = np.array([_node_p_plus(x, steps[-1].axis) for x in nodes])
        outcome[rows] = np.where(u[cursor] < p_plus[node], 1, -1)
    return _ShotColumns(outcome, blip_times, windows_seen)


def _run_chunk(args) -> _ShotColumns:
    protocol, noise, rng_seed, start, stop = args
    return _ShotColumns.concat(
        [
            _shot_block(protocol, noise, rng_seed, a, min(a + SHOT_BLOCK, stop))
            for a in range(start, stop, SHOT_BLOCK)
        ]
    )


def run_shots(
    protocol: Protocol,
    noise: NoiseConfig = NO_NOISE,
    n_shots: int = 1,
    rng_seed: int = 0,
    n_jobs: int = 1,
) -> list[ShotRecord]:
    """All shot records for indices 0..n_shots-1, in index order.

    Equal, record for record, to ``sample_shot`` over the same indices.
    ``n_jobs > 1`` splits the index range over worker processes; the result
    is identical to the serial run because every shot has its own stream.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if n_jobs <= 1:
        return _run_chunk((protocol, noise, rng_seed, 0, n_shots)).records(0)
    bounds = np.linspace(0, n_shots, n_jobs + 1, dtype=int)
    chunks = [
        (protocol, noise, rng_seed, int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(_run_chunk, chunks))
    return _ShotColumns.concat(parts).records(0)


def stats_from_records(records: Sequence[ShotRecord]) -> EnsembleStats:
    """Order-insensitive aggregation of the kept-shot tomography outcomes."""
    n_total = len(records)
    n_kept = 0
    total = 0
    for r in records:
        if r.kept:
            n_kept += 1
            total += r.nuclear_outcome
    if n_kept == 0:
        return EnsembleStats(n_total=n_total, n_kept=0, mean=None, std_error=None)
    mean = total / n_kept
    std_error = math.sqrt(max(1.0 - mean * mean, 0.0) / n_kept)
    return EnsembleStats(n_total=n_total, n_kept=n_kept, mean=mean, std_error=std_error)


def run_ensemble(
    protocol: Protocol,
    noise: NoiseConfig = NO_NOISE,
    n_shots: int = 1,
    rng_seed: int = 0,
    n_jobs: int = 1,
) -> EnsembleStats:
    """Aggregate sample_shot over shot indices 0..n_shots-1."""
    return stats_from_records(run_shots(protocol, noise, n_shots, rng_seed, n_jobs))


def conditional_state(
    protocol: Protocol, window_outcomes: Sequence[str]
) -> PostSelectedState:
    """Deterministic evolution with forced readout outcomes.

    Applies ``protocols.weak_electron_window`` with one forced outcome
    ("no_blip" or "blip") per readout window, reloading a down electron
    after each, and returns the final nuclear state with the joint
    probability of that outcome sequence.
    """
    outcomes = list(window_outcomes)
    if len(outcomes) != len(protocol.windows):
        raise ProtocolError("need one forced outcome per readout window")
    joint = protocol.initial.rho.matrix
    probability = 1.0
    for step in protocol.steps[:-1]:
        if isinstance(step, Pulse):
            joint = step.unitary @ joint @ step.unitary_h
            continue
        outcome = outcomes.pop(0)
        if outcome not in (NO_BLIP, BLIP):
            raise ProtocolError(f"unknown forced outcome {outcome!r}")
        post = weak_electron_window(JointState(DensityMatrix(joint)), step.model, outcome)
        probability *= post.success_probability
        joint = _embed_nuclear(post.state.rho.matrix)
    nuclear = qmath.partial_trace(joint, qmath.ELECTRON)
    return PostSelectedState(NuclearState(DensityMatrix(nuclear)), probability)


# 95% quantile of the chi-squared law with one degree of freedom: the exact
# float scipy.stats.chi2.ppf(0.95, df=1) returns (1.959963984540054**2 is a
# different float).
CHI2_1DOF_95 = 3.841458820694124


@dataclass(frozen=True)
class GammaEstimate:
    """Tunnel-time MLE from blip times, with a 95% likelihood-ratio interval."""

    inv_gamma: float          # 1/Gamma, in ms
    ci_low: float
    ci_high: float            # may be inf when the data cannot bound Gamma below
    n_blips: int
    n_censored: int


def _bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, where it changes sign, found
    by halving the bracket until no float lies strictly inside it."""
    lo_positive = f(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def estimate_gamma_from_blips(
    records: Sequence[ShotRecord],
    t_m: float,
    up_branch_probability: float = 0.5,
) -> GammaEstimate:
    """Censored-exponential MLE of the up-electron tunnel-out rate.

    Observed blip times follow the exponential law truncated to the
    window; no-blip shots are right-censored at t_m within the up branch,
    which occurs with the given probability (1/2 for the Bell protocol).
    The 95% interval comes from the likelihood-ratio statistic.
    """
    if any(len(r.blip_times) != 1 for r in records):
        raise ProtocolError("records must come from a single-window protocol")
    times = [r.blip_times[0] for r in records if r.blip_times[0] is not None]
    n_blips = len(times)
    n_censored = len(records) - n_blips
    if n_blips == 0:
        raise NoInformationError("no tunnel events observed")
    sum_t = float(sum(times))
    p = up_branch_probability

    def loglik(gamma: float) -> float:
        return (
            n_blips * math.log(p * gamma)
            - gamma * sum_t
            + n_censored * math.log(1.0 - p + p * math.exp(-gamma * t_m))
        )

    def score(gamma: float) -> float:
        e = math.exp(-gamma * t_m)
        return n_blips / gamma - sum_t - n_censored * p * t_m * e / (1.0 - p + p * e)

    lo, hi = 1e-9 / t_m, 1e6 / t_m
    if score(lo) <= 0.0:
        raise NoInformationError("likelihood is maximized at zero rate")
    if score(hi) >= 0.0:
        raise NoInformationError("likelihood is maximized at infinite rate")
    gamma_hat = _bisect(score, lo, hi)

    target = loglik(gamma_hat) - CHI2_1DOF_95 / 2.0

    def deficit(gamma: float) -> float:
        return loglik(gamma) - target

    g_low = _bisect(deficit, lo, gamma_hat) if deficit(lo) < 0 else lo
    g_high = _bisect(deficit, gamma_hat, hi) if deficit(hi) < 0 else hi
    # low rate -> long tunnel time
    return GammaEstimate(
        inv_gamma=1.0 / gamma_hat,
        ci_low=1.0 / g_high,
        ci_high=math.inf if g_low <= lo else 1.0 / g_low,
        n_blips=n_blips,
        n_censored=n_censored,
    )
