"""Analytic measurement protocols: conditional weak measurements of the
nucleus, weak electron measurement through a finite readout window,
success probabilities, tunnel-rate inversion, tomography expectations and
the steering scan.

Every function here is a closed form or an exact 4x4 channel composition;
the Monte Carlo sampler is checked against these.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, inf, isfinite, log

import numpy as np

from . import qmath
from .qmath import DensityMatrix
from .spinsys import (
    Frequency,
    I2,
    JointState,
    NuclearState,
    PROJ_DOWN,
    PROJ_UP,
    RotationPulse,
    conditional_unitary,
    prepare_bell,
    unconditional_unitary,
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


def _post_select(joint: np.ndarray, kraus_e: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply an electron-space Kraus operator, return (nuclear state, weight)."""
    k = qmath.kron(I2, kraus_e)
    branch = k @ joint @ k.conj().T
    weight = float(np.trace(branch).real)
    if weight < ZERO_BRANCH_TOL:
        raise ImpossibleBranchError(
            f"branch probability {weight} is numerically zero"
        )
    return qmath.partial_trace(branch / weight, qmath.ELECTRON), weight


def weak_nuclear_measure(
    state: JointState, pulse: RotationPulse, electron_outcome: str = DOWN
) -> PostSelectedState:
    """Conditional electron rotation, projective electron readout,
    post-selection on the given outcome, electron traced out."""
    u = conditional_unitary(pulse)
    rotated = u @ state.rho.matrix @ u.conj().T
    proj = {DOWN: PROJ_DOWN, UP: PROJ_UP}[electron_outcome]
    nuclear, weight = _post_select(rotated, proj)
    return PostSelectedState(NuclearState(DensityMatrix(nuclear)), weight)


def unconditional_nuclear_channel(
    state: JointState, pulse: RotationPulse
) -> NuclearState:
    """Conditional rotation, electron traced out with no post-selection.

    Nuclear populations are untouched; the coherence shrinks by cos(theta/2).
    """
    u = conditional_unitary(pulse)
    rotated = u @ state.rho.matrix @ u.conj().T
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
    joint = state.rho.matrix
    e_up, e_down = model.survival_up, model.survival_down
    if outcome == NO_BLIP:
        kraus = np.sqrt(e_up) * PROJ_UP + np.sqrt(e_down) * PROJ_DOWN
        nuclear, weight = _post_select(joint, kraus)
        return PostSelectedState(NuclearState(DensityMatrix(nuclear)), weight)
    if outcome != BLIP:
        raise ValueError(f"unknown outcome {outcome!r}")
    pieces = []
    weight = 0.0
    for survival, proj in ((e_up, PROJ_UP), (e_down, PROJ_DOWN)):
        if survival >= 1.0:
            continue
        k = qmath.kron(I2, proj)
        branch = k @ joint @ k.conj().T
        w = (1.0 - survival) * float(np.trace(branch).real)
        if w > 0.0:
            pieces.append((1.0 - survival) * branch)
            weight += w
    if weight < ZERO_BRANCH_TOL:
        raise ImpossibleBranchError("blip branch has zero probability")
    mixed = sum(pieces) / weight
    nuclear = qmath.partial_trace(mixed, qmath.ELECTRON)
    return PostSelectedState(NuclearState(DensityMatrix(nuclear)), weight)


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
    bell = prepare_bell()
    u = unconditional_unitary(RotationPulse(Frequency.ESR_BOTH, theta))
    rotated = u @ bell.rho.matrix @ u.conj().T
    nuclear, _ = _post_select(rotated, PROJ_DOWN)
    return tomography_expectations(NuclearState(DensityMatrix(nuclear)))


def tunnel_rate_limits(sigma_z: float, t_m: float) -> float:
    """Like extract_tunnel_rate but maps the out-of-domain signals to the
    limiting values 0 and inf (used when propagating confidence bounds)."""
    try:
        return extract_tunnel_rate(sigma_z, t_m)
    except MeasurementTooWeakError:
        return inf
    except ProjectiveLimitError:
        return 0.0
