"""Analytic measurement protocols: conditional weak measurements of the
nucleus, weak electron measurement through a finite readout window,
success probabilities, tunnel-rate inversion, tomography expectations and
the steering scan.

Every function here is a closed form or an exact 4x4 channel composition.

The readout window has one implementation, the private raw-array helpers
``_no_blip_damping``, ``_node_blip_weights`` and ``_node_after_window``:
the shot engine in ``montecarlo`` evolves every branch history with them,
and ``weak_electron_window``, ``weak_nuclear_measure`` (a projective
window), ``steering_scan`` and ``montecarlo.conditional_state`` force an
outcome through the same arithmetic.  So the closed forms of pulse
sequences (``closed_form_sequence``, ``sigma_z_noblip``, the success
probabilities) and the statevector path of the tests' reference sampler
stay the independent oracles of that channel.  The validated state types
are built only at the public functions' boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import cos, exp, inf, isfinite, log, sqrt

import numpy as np

from . import qmath
from .qmath import DensityMatrix
from .spinsys import (
    Frequency,
    JointState,
    NuclearState,
    RotationPulse,
    _node_pulse,
    prepare_bell,
)

ZERO_BRANCH_TOL = 1e-15

DOWN = "down"
UP = "up"
NO_BLIP = "no_blip"
BLIP = "blip"


class ImpossibleBranchError(ValueError):
    """Post-selected on an outcome that has (numerically) zero probability."""


class MeasurementTooWeakError(ValueError):
    """Tunnel-rate inversion got sigma_z >= 0: no information, 1/Gamma -> inf."""


class ProjectiveLimitError(ValueError):
    """Tunnel-rate inversion got sigma_z <= -1: fully projective, 1/Gamma -> 0."""


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
    """Readout-window physics: tunnel-out rates and duration.

    Rates are in 1/ms, the window duration in ms.  With the default (no
    down-tunneling) the closed forms of this module are exact.  An infinite
    ``gamma_up_out`` is the projective window (see ``projective``).  Label
    errors belong to the classifier, not the window: they are
    ``montecarlo.NoiseConfig``'s rates.
    """

    gamma_up_out: float
    t_m: float
    gamma_down_out: float = 0.0

    def __post_init__(self):
        if not self.gamma_up_out > 0:  # NaN included
            raise ValueError("gamma_up_out must be positive")
        if not (isfinite(self.t_m) and self.t_m >= 0):
            raise ValueError("t_m must be finite and non-negative")
        if self.gamma_up_out == inf and self.t_m == 0:
            raise ValueError("a projective window needs a positive t_m")
        if not (isfinite(self.gamma_down_out) and self.gamma_down_out >= 0):
            raise ValueError("gamma_down_out must be finite and non-negative")

    @property
    def survival_up(self) -> float:
        """Probability that an up electron has not tunneled out by t_m."""
        return exp(-self.gamma_up_out * self.t_m)

    @property
    def survival_down(self) -> float:
        return exp(-self.gamma_down_out * self.t_m)

    @classmethod
    def projective(cls, t_m: float) -> "TunnelModel":
        """Ideal readout over a window of ``t_m`` ms: an up electron always
        tunnels out, at once, so ``survival_up`` is exactly 0.0.  The window
        still lasts ``t_m``, which is how long the nucleus dephases."""
        return cls(gamma_up_out=inf, t_m=t_m)


# The window of weak_nuclear_measure.  Without dephasing its duration does
# not enter the state, so any positive t_m serves.
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


def _embed_nuclear(nuc: np.ndarray) -> np.ndarray:
    """Joint state with the given nuclear 2x2 and a fresh down electron."""
    out = np.zeros((4, 4), dtype=complex)
    out[1, 1] = nuc[0, 0]
    out[1, 3] = nuc[0, 1]
    out[3, 1] = nuc[1, 0]
    out[3, 3] = nuc[1, 1]
    return out


# The tunnel model is hashable, so each window's matrix is built once per
# process; it is read-only because every protocol shares it.
@cache
def _no_blip_damping(model: TunnelModel) -> np.ndarray:
    """Elementwise factor a no-blip window applies to the joint density
    matrix: d d^T for the per-basis-state amplitudes d."""
    su, sd = sqrt(model.survival_up), sqrt(model.survival_down)
    d = np.array([su, sd, su, sd])
    damping = d[:, None] * d[None, :]
    damping.flags.writeable = False
    return damping


def _node_blip_weights(joint: np.ndarray, model: TunnelModel) -> tuple[float, float]:
    """Probabilities that the up / the down electron tunnels out."""
    p_up = joint[0, 0].real + joint[2, 2].real
    return p_up * (1.0 - model.survival_up), (1.0 - p_up) * (1.0 - model.survival_down)


def _node_after_window(joint: np.ndarray, model: TunnelModel, branch: int) -> np.ndarray:
    """State after a window with no blip (branch 0) or with the up (1) or
    down (2) electron tunneled out, the electron reloaded down."""
    if branch:
        nuc = joint.reshape(2, 2, 2, 2)[:, branch - 1, :, branch - 1]
        return _embed_nuclear(nuc / (nuc[0, 0].real + nuc[1, 1].real))
    joint = joint * _no_blip_damping(model)
    w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
    return _embed_nuclear(qmath._nuclear_reduced(joint / w))


def _window_outcome(
    joint: np.ndarray, model: TunnelModel, outcome: str
) -> tuple[np.ndarray, float]:
    """The state after a window forced to ``outcome``, electron reloaded
    down, and the outcome's probability: branch 0 for no blip, the mix of
    branches 1 and 2 by their weights for a blip."""
    w_up, w_down = _node_blip_weights(joint, model)
    if outcome == NO_BLIP:
        branches = [(0, 1.0 - (w_up + w_down))]
    elif outcome == BLIP:
        if not joint[1, 1].real + joint[3, 3].real > 0.0:
            w_down = 0.0  # no electron is down: 1 - p_up is rounding, its state 0 / 0
        branches = [(b, w) for b, w in ((1, w_up), (2, w_down)) if w > 0.0]
    else:
        raise ValueError(f"unknown outcome {outcome!r}")
    weight = sum(w for _, w in branches)
    if weight < ZERO_BRANCH_TOL:
        raise ImpossibleBranchError(f"{outcome} branch probability {weight} is numerically zero")
    if len(branches) == 1:
        return _node_after_window(joint, model, branches[0][0]), weight
    return sum(w * _node_after_window(joint, model, b) for b, w in branches) / weight, weight


def _post_selected(joint: np.ndarray, weight: float) -> PostSelectedState:
    """The validated nuclear state of ``joint`` with its branch weight."""
    nuclear = qmath.partial_trace(joint, qmath.ELECTRON)
    return PostSelectedState(NuclearState(DensityMatrix(nuclear)), weight)


def weak_nuclear_measure(
    state: JointState, pulse: RotationPulse, electron_outcome: str = DOWN
) -> PostSelectedState:
    """A pulse (a conditional one measures the nucleus weakly), projective
    electron readout, post-selection on the given outcome, electron traced
    out.  The readout is a projective window: an up electron always
    tunnels, so DOWN is its no-blip branch and UP its blip branch."""
    outcome = {DOWN: NO_BLIP, UP: BLIP}[electron_outcome]
    return _post_selected(
        *_window_outcome(_node_pulse(state.rho.matrix, pulse), _PROJECTIVE, outcome)
    )


def unconditional_nuclear_channel(
    state: JointState, pulse: RotationPulse
) -> NuclearState:
    """A pulse, then the electron traced out with no post-selection.

    After a conditional pulse the nuclear populations are untouched and
    the coherence shrinks by cos(theta/2).
    """
    rotated = _node_pulse(state.rho.matrix, pulse)
    return NuclearState(DensityMatrix(qmath.partial_trace(rotated, qmath.ELECTRON)))


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
    return _post_selected(*_window_outcome(state.rho.matrix, model, outcome))


def sigma_z_noblip(theta: float, model: TunnelModel) -> float:
    """Nuclear sigma_z after a theta pulse on NU_E2 and a no-blip window,
    starting from the nuclear x-superposition."""
    c2 = cos(theta / 2.0) ** 2
    s2 = 1.0 - c2
    e = model.survival_up
    return (c2 + e * s2 - 1.0) / (c2 + e * s2 + 1.0)


def extract_tunnel_rate(sigma_z: float, t_m: float) -> float:
    """Invert the no-blip sigma_z (theta = pi case) into the tunnel time 1/Gamma.

    Out-of-domain values raise typed errors instead of being clamped:
    sigma_z >= 0 carries no information (1/Gamma -> inf) and sigma_z <= -1
    is the projective limit (1/Gamma -> 0).
    """
    if t_m <= 0:
        raise ValueError("t_m must be positive")
    if sigma_z >= 0.0:
        raise MeasurementTooWeakError(
            f"sigma_z = {sigma_z} >= 0: tunnel time unbounded"
        )
    if sigma_z <= -1.0:
        raise ProjectiveLimitError(
            f"sigma_z = {sigma_z} <= -1: tunnel time is zero"
        )
    return -t_m / log((1.0 + sigma_z) / (1.0 - sigma_z))


def tomography_expectations(state: NuclearState) -> TomographyResult:
    """Bloch components from the density matrix entries."""
    m = state.rho.matrix
    return TomographyResult(
        sigma_x=float((m[0, 1] + m[1, 0]).real),
        sigma_y=float((1j * (m[0, 1] - m[1, 0])).real),
        sigma_z=float((m[0, 0] - m[1, 1]).real),
    )


def steering_scan(theta: float) -> TomographyResult:
    """Nuclear tomography after rotating the electron half of a Bell pair.

    Bell state, unconditional electron rotation by theta, post-selection on
    electron down: the nuclear state tracks the rotated electron
    measurement basis (sigma_z = -cos(theta) up to the axis convention).
    """
    pulse = RotationPulse(Frequency.ESR_BOTH, theta)
    return tomography_expectations(weak_nuclear_measure(prepare_bell(), pulse, DOWN).state)


def tunnel_rate_limits(sigma_z: float, t_m: float) -> float:
    """Like extract_tunnel_rate but maps the out-of-domain signals to the
    limiting values 0 and inf (used when propagating confidence bounds)."""
    try:
        return extract_tunnel_rate(sigma_z, t_m)
    except MeasurementTooWeakError:
        return inf
    except ProjectiveLimitError:
        return 0.0
