"""Analytic measurement protocols: conditional weak measurements of the
nucleus, weak electron measurement through a finite readout window,
success probabilities, tunnel-rate inversion, tomography expectations and
the steering scan.

Every function here is a closed form or an exact 4x4 channel composition.

The readout window has two outcomes, ``NO_BLIP`` (no tunnel event) or
``BLIP`` (the up electron tunneled out at rate Gamma), and every function
that forces one names it so.  It has one implementation, the private
raw-array helpers ``_no_blip_damping``, ``_node_blip_weight`` and
``_node_after_window``: the shot engine in ``montecarlo`` evolves every
branch history with them.  Forcing outcomes has one implementation too,
the walk ``_force_outcomes``: it takes a state through pulses and windows,
forces each window's outcome through the same arithmetic, refuses an
outcome that is neither ``NO_BLIP`` nor ``BLIP`` or a branch of zero
probability, and validates the nuclear state at the end.
``weak_electron_window`` (one window), ``weak_nuclear_measure`` (a pulse,
then a projective window) and ``montecarlo.conditional_state`` (a whole
protocol) are each one call of it.  ``_node_blip_weight`` is the Born
rule over the state's trace, so where the no-blip child has zero trace it
is up / up, exactly 1.0: no uniform reaches that child and no forced
outcome gets a rounding residue as its weight.  So the closed forms
(``closed_form_sequence``, ``steering_scan``, ``sigma_z_noblip``, the
success probabilities) and the statevector path of the tests' reference
sampler stay the independent oracles of that channel.  ``_bloch`` is the
one Bloch readout, of ``tomography_expectations`` and of the engine's
tomography.  The validated state types are built only at the public
functions' boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import cos, exp, inf, isfinite, log, sin, sqrt
from typing import Sequence

import numpy as np

from . import qmath
from .qmath import DensityMatrix
from .spinsys import (
    PROJ_DOWN,
    Frequency,
    JointState,
    NuclearState,
    RotationPulse,
    _node_pulse,
)

ZERO_BRANCH_TOL = 1e-15

NO_BLIP = "no_blip"
BLIP = "blip"


class ImpossibleBranchError(ValueError):
    """Post-selected on an outcome that has (numerically) zero probability."""


class MeasurementTooWeakError(ValueError):
    """Tunnel-rate inversion got sigma_z >= 0: no information, 1/Gamma -> inf."""


class ProjectiveLimitError(ValueError):
    """Tunnel-rate inversion got sigma_z at or past its projective end: 1/Gamma -> 0."""


class ProtocolError(ValueError):
    """Malformed protocol description."""


@dataclass(frozen=True)
class PostSelectedState:
    """Conditional nuclear state together with the branch probability."""

    state: NuclearState
    success_probability: float

    def __post_init__(self):
        if not -1e-12 <= self.success_probability <= 1.0 + 1e-12:
            raise ValueError(
                f"success probability {self.success_probability} outside [0, 1]"
            )


@dataclass(frozen=True)
class TunnelModel:
    """Readout-window physics: the up electron's tunnel-out rate and the
    window's duration.

    The rate is in 1/ms, the window duration in ms.  Only an up electron
    tunnels out; a down one stays.  An infinite ``gamma_up_out`` is the
    projective window (see ``projective``).  Label errors belong to the
    classifier, not the window: they are ``montecarlo.NoiseConfig``'s rates.
    """

    gamma_up_out: float
    t_m: float

    def __post_init__(self):
        if not self.gamma_up_out > 0:  # NaN included
            raise ValueError("gamma_up_out must be positive")
        if not (isfinite(self.t_m) and self.t_m >= 0):
            raise ValueError("t_m must be finite and non-negative")
        if self.gamma_up_out == inf and self.t_m == 0:
            raise ValueError("a projective window needs a positive t_m")

    @property
    def survival_up(self) -> float:
        """Probability that an up electron has not tunneled out by t_m."""
        return exp(-self.gamma_up_out * self.t_m)

    @classmethod
    def projective(cls, t_m: float) -> "TunnelModel":
        """Ideal readout over a window of ``t_m`` ms: an up electron always
        tunnels out, at once, so ``survival_up`` is exactly 0.0.  The window
        still lasts ``t_m``, which is how long the nucleus dephases."""
        return cls(gamma_up_out=inf, t_m=t_m)


# The window of weak_nuclear_measure.  A window's duration enters only the
# shot engine's dephasing factor at tomography, never the state, so any
# positive t_m serves.
_PROJECTIVE = TunnelModel.projective(1.0)


@dataclass(frozen=True)
class TomographyResult:
    """The three nuclear Pauli expectations (the Bloch vector)."""

    sigma_x: float
    sigma_y: float
    sigma_z: float

    def __post_init__(self):
        for v in (self.sigma_x, self.sigma_y, self.sigma_z):
            if not -1.0 - 1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"Pauli expectation {v} outside [-1, 1]")
        if self.bloch_norm_sq > 1.0 + 1e-9:
            raise ValueError("Bloch vector longer than 1")

    @property
    def bloch_norm_sq(self) -> float:
        return self.sigma_x**2 + self.sigma_y**2 + self.sigma_z**2


# The tunnel model is hashable, so each window's matrix is built once per
# process; it is read-only because every protocol shares it.
@cache
def _no_blip_damping(model: TunnelModel) -> np.ndarray:
    """Elementwise factor a no-blip window applies to the joint density
    matrix: d d^T, where d damps the up electron's amplitudes."""
    su = sqrt(model.survival_up)
    d = np.array([su, 1.0, su, 1.0])
    damping = d[:, None] * d[None, :]
    damping.flags.writeable = False
    return damping


def _node_blip_weight(joint: np.ndarray, model: TunnelModel) -> float:
    """Probability that the up electron tunnels out, a blip: the Born rule,
    its up population times 1 - survival_up over the state's trace.  Where
    the no-blip child has zero trace, the up electron always tunnels and
    nothing is down, so the weight is up / up, exactly 1.0: that branch is
    impossible, however far rounding left the trace from 1."""
    up = joint[0, 0].real + joint[2, 2].real
    return up * (1.0 - model.survival_up) / (up + (joint[1, 1].real + joint[3, 3].real))


def _node_after_window(joint: np.ndarray, model: TunnelModel, blip: int) -> np.ndarray:
    """State after a window with no blip (0) or with the up electron
    tunneled out (1), the electron reloaded down: ``kron(nuclear,
    PROJ_DOWN)``, the construction ``spinsys.prepare_initial`` uses."""
    if blip:
        nuc = joint.reshape(2, 2, 2, 2)[:, 0, :, 0]
        nuc = nuc / (nuc[0, 0].real + nuc[1, 1].real)
    else:
        joint = joint * _no_blip_damping(model)
        w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
        nuc = qmath._nuclear_reduced(joint / w)
    return qmath.kron(nuc, PROJ_DOWN)


def _force_outcomes(joint: np.ndarray, steps: tuple, outcomes: Sequence[str]) -> PostSelectedState:
    """The forced-outcome walk: ``joint`` evolved through ``steps``, each
    window forced to the next of ``outcomes`` and its electron reloaded
    down, as the validated nuclear state with the joint probability of the
    outcomes."""
    outcomes = list(outcomes)
    if len(outcomes) != sum(isinstance(step, TunnelModel) for step in steps):
        raise ProtocolError("need one forced outcome per readout window")
    probability = 1.0
    for step in steps:
        if not isinstance(step, TunnelModel):
            joint = _node_pulse(joint, step)
            continue
        outcome = outcomes.pop(0)
        if outcome not in (NO_BLIP, BLIP):
            raise ProtocolError(f"unknown outcome {outcome!r}")
        blip = outcome == BLIP
        w_blip = _node_blip_weight(joint, step)
        w = w_blip if blip else 1.0 - w_blip
        if w < ZERO_BRANCH_TOL:
            raise ImpossibleBranchError(f"{outcome} branch probability {w} is numerically zero")
        joint = _node_after_window(joint, step, blip)
        probability *= w
    nuclear = DensityMatrix(qmath._nuclear_reduced(joint))
    return PostSelectedState(NuclearState(nuclear), probability)


def weak_nuclear_measure(
    state: JointState, pulse: RotationPulse, outcome: str = NO_BLIP
) -> PostSelectedState:
    """A pulse (a conditional one measures the nucleus weakly), projective
    electron readout, post-selection on ``outcome``, electron traced out.
    The readout is a projective window: an up electron always tunnels, so
    ``no_blip`` keeps the down electron and ``blip`` the up one."""
    return _force_outcomes(state.rho.matrix, (pulse, _PROJECTIVE), [outcome])


def closed_form_sequence(
    thetas: list[tuple[float, Frequency]]
) -> PostSelectedState:
    """Closed-form nuclear state after a sequence of conditional weak
    measurements, all post-selected on the electron-down outcome, starting
    from the nuclear x-superposition.

    NU_E2 pulses accumulate cos(theta/2) factors on the nuclear-up
    amplitude, NU_E1 pulses on the nuclear-down amplitude; the overall
    success probability is (a^2 + b^2)/2 for accumulated factors a, b.
    """
    if not thetas:
        raise ValueError("pulse sequence must be non-empty")
    a = 1.0  # nuclear-up amplitude factor (NU_E2 pulses)
    b = 1.0  # nuclear-down amplitude factor (NU_E1 pulses)
    for angle, freq in thetas:
        if freq is Frequency.NU_E2:
            a *= cos(angle / 2.0)
        elif freq is Frequency.NU_E1:
            b *= cos(angle / 2.0)
        else:
            raise ValueError("closed_form_sequence takes NU_E1/NU_E2 pulses only")
    norm = a * a + b * b
    probability = norm / 2.0
    if probability < ZERO_BRANCH_TOL:
        raise ImpossibleBranchError("sequence has zero success probability")
    rho = np.array([[a * a, a * b], [a * b, b * b]], dtype=complex) / norm
    return PostSelectedState(NuclearState(DensityMatrix(rho)), probability)


def success_probability_n(theta: float, n: int) -> float:
    """Success probability of n equal-angle measurements on one ESR line."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (1.0 + cos(theta / 2.0) ** (2 * n)) / 2.0


def reversal_success_probability(theta: float) -> float:
    """Success probability of measure-then-reverse; zero at theta = pi."""
    return cos(theta / 2.0) ** 2


def weak_electron_window(
    state: JointState, model: TunnelModel, outcome: str
) -> PostSelectedState:
    """Spin-dependent tunneling readout window of duration t_m.

    ``no_blip``: no tunnel event seen.  The up amplitude survives with
    factor sqrt(exp(-gamma_up * t_m)); renormalize and trace out the
    electron.  ``blip``: a tunnel event occurred; the returned state is the
    nuclear state left after the ionization (the electron is subsequently
    reloaded as down by the sequence driver).
    """
    return _force_outcomes(state.rho.matrix, (model,), [outcome])


def sigma_z_noblip(theta: float, model: TunnelModel) -> float:
    """Nuclear sigma_z after a theta pulse on NU_E2 and a no-blip window,
    starting from the nuclear x-superposition."""
    c2 = cos(theta / 2.0) ** 2
    s2 = 1.0 - c2
    e = model.survival_up
    return (c2 + e * s2 - 1.0) / (c2 + e * s2 + 1.0)


def extract_tunnel_rate(sigma_z: float, t_m: float, p_fn: float = 0.0, p_fp: float = 0.0) -> float:
    """Invert the kept no-blip sigma_z (theta = pi case) into the tunnel
    time 1/Gamma, under label errors at rates ``p_fn`` and ``p_fp``.

    The kept shots mix true no-blips, weight a = 1 - p_fp, with true blips
    read as none, weight b = p_fn, whose nucleus is up.  With e =
    exp(-Gamma t_m), sigma_z = (1 - e)(b - a) / (a(1 + e) + b(1 - e)).  For
    b < a it falls monotonically in Gamma, from 0 (too weak: 1/Gamma ->
    inf) to (b - a) / (a + b) (projective: 1/Gamma -> 0; -1 without label
    errors), and e = ((b - a) - sigma_z (a + b)) / ((b - a)(1 - sigma_z)).
    Values outside that range raise typed errors instead of being clamped.
    Where b >= a the labels carry no information on Gamma: ``ValueError``.
    """
    if t_m <= 0:
        raise ValueError("t_m must be positive")
    a, b = 1.0 - p_fp, p_fn
    if not b < a:
        raise ValueError(f"p_fn = {p_fn} >= 1 - p_fp: the labels carry no information")
    if sigma_z < 0.0:
        survival = ((b - a) - sigma_z * (a + b)) / ((b - a) * (1.0 - sigma_z))
        if survival <= 0.0:
            raise ProjectiveLimitError(f"sigma_z = {sigma_z}: tunnel time is zero")
        if survival < 1.0:  # else sigma_z is so near 0 that e rounds to 1
            return -t_m / log(survival)
    raise MeasurementTooWeakError(f"sigma_z = {sigma_z}: tunnel time unbounded")


def _bloch(nuc: np.ndarray) -> tuple[float, float, float]:
    """The Bloch vector (sigma_x, sigma_y, sigma_z) of a nuclear 2x2
    density matrix, from its entries."""
    return (
        float((nuc[0, 1] + nuc[1, 0]).real),
        float((1j * (nuc[0, 1] - nuc[1, 0])).real),
        float((nuc[0, 0] - nuc[1, 1]).real),
    )


def tomography_expectations(state: NuclearState) -> TomographyResult:
    """Bloch components from the density matrix entries."""
    return TomographyResult(*_bloch(state.rho.matrix))


def steering_scan(theta: float) -> TomographyResult:
    """Nuclear tomography after rotating the electron half of a Bell pair.

    Bell state, unconditional electron rotation by theta, post-selection on
    electron down: the nuclear state tracks the rotated electron
    measurement basis, the Bloch vector (-sin theta, 0, -cos theta).  This
    is the closed form; ``weak_nuclear_measure(prepare_bell(),
    RotationPulse(Frequency.ESR_BOTH, theta))`` forces the same outcome
    through the readout window.
    """
    return TomographyResult(-sin(theta), 0.0, -cos(theta))


def tunnel_rate_limits(sigma_z: float, t_m: float, p_fn: float = 0.0, p_fp: float = 0.0) -> float:
    """Like extract_tunnel_rate but maps the out-of-domain signals to the
    limiting values 0 and inf (used when propagating confidence bounds)."""
    try:
        return extract_tunnel_rate(sigma_z, t_m, p_fn, p_fp)
    except MeasurementTooWeakError:
        return inf
    except ProjectiveLimitError:
        return 0.0
