"""Physical model of the electron-nuclear spin pair.

Conventions, fixed once and used everywhere:

* joint basis order |Un Ue>, |Un De>, |Dn Ue>, |Dn De> (U = spin up,
  D = spin down; nucleus is the left/slow tensor factor),
* nuclear 2x2 matrices in the (up, down) basis,
* a rotation pulse of angle ``theta`` acts on the electron with the
  half-angle rotation of ``pulse_unitary``, which gives a driven down
  electron a *positive* up amplitude.

The NU_E2 electron resonance drives the electron conditionally on the
nucleus being up; NU_E1 conditions on nucleus down; ESR_BOTH drives both
lines at once.  These are the pulses the paper applies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from math import cos, isfinite, sin

import numpy as np

from . import qmath
from .qmath import DensityMatrix, DimensionError

I2 = np.eye(2, dtype=complex)

KET_UP = np.array([1.0, 0.0], dtype=complex)
KET_DOWN = np.array([0.0, 1.0], dtype=complex)

PROJ_UP = np.outer(KET_UP, KET_UP.conj())
PROJ_DOWN = np.outer(KET_DOWN, KET_DOWN.conj())


class FieldTypeError(TypeError):
    """A record's field holds a value of the wrong type; the message names
    the field."""


def _check_rho(state) -> None:
    if not isinstance(state.rho, DensityMatrix):
        raise FieldTypeError(
            f"{type(state).__name__}.rho must be a DensityMatrix, not {type(state.rho).__name__}"
        )


class Frequency(enum.Enum):
    """Drive frequency of a rotation pulse."""

    NU_E1 = "nu_e1"      # electron rotation conditional on nucleus down
    NU_E2 = "nu_e2"      # electron rotation conditional on nucleus up
    ESR_BOTH = "esr_both"  # both ESR lines at once: unconditional electron rotation


@dataclass(frozen=True)
class RotationPulse:
    """One resonant pulse: which line it drives and its rotation angle."""

    frequency: Frequency
    angle: float

    def __post_init__(self):
        # pulse_unitary would read any other drive as ESR_BOTH
        if not isinstance(self.frequency, Frequency):
            raise FieldTypeError(
                f"RotationPulse.frequency must be a Frequency, not {self.frequency!r}"
            )
        if not isfinite(self.angle):
            raise ValueError("pulse angle must be finite")


@dataclass(frozen=True)
class JointState:
    """Electron-nuclear state: a validated 4x4 density matrix."""

    rho: DensityMatrix

    def __post_init__(self):
        _check_rho(self)
        if self.rho.dim != 4:
            raise DimensionError("JointState requires a 4x4 density matrix")


@dataclass(frozen=True)
class NuclearState:
    """Nuclear-spin state: a validated 2x2 density matrix."""

    rho: DensityMatrix

    def __post_init__(self):
        _check_rho(self)
        if self.rho.dim != 2:
            raise DimensionError("NuclearState requires a 2x2 density matrix")


# Pulses are immutable, so each distinct pulse's unitary is built once per
# process and shared, read-only, by every protocol that applies it.
@cache
def pulse_unitary(pulse: RotationPulse) -> np.ndarray:
    """Joint-space unitary of ``pulse``: kron(PROJ_UP, up) + kron(PROJ_DOWN,
    down), where ``up`` and ``down`` are the electron rotation on each
    nuclear line the pulse drives and I2 on a line it does not drive.

    The rotation is real, [[c, s], [-s, c]] with c = cos(angle/2), s =
    sin(angle/2); it takes the lower basis state to the upper one with
    positive amplitude, which is the sign convention the conditional-state
    formulas assume.
    """
    c = cos(pulse.angle / 2.0)
    s = sin(pulse.angle / 2.0)
    r = np.array([[c, s], [-s, c]], dtype=complex)
    up = I2 if pulse.frequency is Frequency.NU_E1 else r
    down = I2 if pulse.frequency is Frequency.NU_E2 else r
    u = qmath.kron(PROJ_UP, up) + qmath.kron(PROJ_DOWN, down)
    u.flags.writeable = False
    return u


def _node_pulse(joint: np.ndarray, pulse: RotationPulse) -> np.ndarray:
    """The 4x4 array ``joint`` after ``pulse``: the one pulse conjugation
    of the package, shared by the shot engine and the closed forms."""
    u = pulse_unitary(pulse)
    return u @ joint @ u.conj().T


# The prepared states are immutable, so each is built (and validated) once
# per process and shared by every protocol that starts from it.
@cache
def prepare_initial() -> JointState:
    """Product state: the nuclear x-superposition with the electron down."""
    psi = (KET_UP + KET_DOWN) / np.sqrt(2.0)
    rho_n = np.outer(psi, psi.conj())
    return JointState(DensityMatrix(qmath.kron(rho_n, PROJ_DOWN)))


@cache
def prepare_bell() -> JointState:
    """Maximally entangled state (|down,down> + |up,up>)/sqrt(2).

    Built the way the experiment does it: nuclear x-superposition with the
    electron down, then a pi pulse conditioned on the nuclear up state.
    """
    state = prepare_initial()
    pulse = RotationPulse(Frequency.NU_E2, np.pi)
    return JointState(DensityMatrix(_node_pulse(state.rho.matrix, pulse)))


def negativity(state: JointState) -> float:
    """Sum of |negative eigenvalues| of the electron partial transpose."""
    pt = state.rho.matrix.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return -sum(float(x) for x in np.linalg.eigvalsh(pt) if x < 0.0)

