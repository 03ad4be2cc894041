"""Physical model of the electron-nuclear spin pair.

Conventions, fixed once and used everywhere:

* joint basis order |Un Ue>, |Un De>, |Dn Ue>, |Dn De> (U = spin up,
  D = spin down; nucleus is the left/slow tensor factor),
* nuclear 2x2 matrices in the (up, down) basis,
* a rotation pulse of angle ``theta`` at phase 0 acts on a single spin as
  ``[[cos(t/2), sin(t/2)], [-sin(t/2), cos(t/2)]]``, so that driving the
  electron (initially down) creates a *positive* up amplitude.  The phase
  argument moves the rotation axis around the equator.

The NU_E2 electron resonance drives the electron conditionally on the
nucleus being up; NU_E1 conditions on nucleus down.
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

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class Frequency(enum.Enum):
    """Drive frequency of a rotation pulse."""

    NU_E1 = "nu_e1"      # electron rotation conditional on nucleus down
    NU_E2 = "nu_e2"      # electron rotation conditional on nucleus up
    ESR_BOTH = "esr_both"  # both ESR lines at once: unconditional electron rotation
    NMR = "nmr"          # nuclear rotation

    @property
    def is_esr(self) -> bool:
        return self is not Frequency.NMR

    @property
    def is_conditional(self) -> bool:
        return self in (Frequency.NU_E1, Frequency.NU_E2)


@dataclass(frozen=True)
class RotationPulse:
    """One resonant pulse: which line, rotation angle, axis phase."""

    frequency: Frequency
    angle: float
    phase: float = 0.0

    def __post_init__(self):
        if not (isfinite(self.angle) and isfinite(self.phase)):
            raise ValueError("pulse angle and phase must be finite")


@dataclass(frozen=True)
class JointState:
    """Electron-nuclear state: a validated 4x4 density matrix."""

    rho: DensityMatrix

    def __post_init__(self):
        if self.rho.dim != 4:
            raise DimensionError("JointState requires a 4x4 density matrix")


@dataclass(frozen=True)
class NuclearState:
    """Nuclear-spin state: a validated 2x2 density matrix."""

    rho: DensityMatrix

    def __post_init__(self):
        if self.rho.dim != 2:
            raise DimensionError("NuclearState requires a 2x2 density matrix")


def pauli(axis: str, subsystem: str) -> np.ndarray:
    """Pauli operator, as a bare 2x2 or embedded in the 4-dim joint space."""
    try:
        p = _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown axis {axis!r}") from None
    if subsystem == "nuclear-only-2x2":
        return p.copy()
    if subsystem == qmath.NUCLEUS:
        return qmath.kron(p, I2)
    if subsystem == qmath.ELECTRON:
        return qmath.kron(I2, p)
    raise ValueError(f"unknown subsystem {subsystem!r}")


def half_angle_rotation(angle: float, phase: float = 0.0) -> np.ndarray:
    """Single-spin rotation unitary, half-angle convention.

    At phase 0 the matrix is real, [[c, s], [-s, c]] with c = cos(angle/2),
    s = sin(angle/2); it takes the lower basis state to the upper one with
    positive amplitude, which is the sign convention the conditional-state
    formulas assume.
    """
    c = cos(angle / 2.0)
    s = sin(angle / 2.0)
    ph = np.exp(-1j * phase)
    return np.array([[c, ph * s], [-np.conj(ph) * s, c]], dtype=complex)


def conditional_unitary(pulse: RotationPulse) -> np.ndarray:
    """Block-diagonal electron rotation conditioned on one nuclear state."""
    if not pulse.frequency.is_conditional:
        raise ValueError("conditional_unitary needs an NU_E1 or NU_E2 pulse")
    r = half_angle_rotation(pulse.angle, pulse.phase)
    if pulse.frequency is Frequency.NU_E2:
        return qmath.kron(PROJ_UP, r) + qmath.kron(PROJ_DOWN, I2)
    return qmath.kron(PROJ_UP, I2) + qmath.kron(PROJ_DOWN, r)


def unconditional_unitary(pulse: RotationPulse) -> np.ndarray:
    """Unconditional rotation of one subsystem in the joint space.

    ESR pulses (both lines driven) rotate the electron; NMR pulses rotate
    the nucleus.
    """
    r = half_angle_rotation(pulse.angle, pulse.phase)
    if pulse.frequency.is_esr:
        return qmath.kron(I2, r)
    return qmath.kron(r, I2)


# Pulses are immutable, so each distinct pulse's unitary is built once per
# process and shared, read-only, by every protocol that applies it.
@cache
def pulse_unitary(pulse: RotationPulse) -> np.ndarray:
    """Joint-space unitary for any pulse type."""
    if pulse.frequency.is_conditional:
        u = conditional_unitary(pulse)
    else:
        u = unconditional_unitary(pulse)
    u.flags.writeable = False
    return u


_NUCLEAR_PREPARATIONS = {
    "superposition_x": (KET_UP + KET_DOWN) / np.sqrt(2.0),
    "up": KET_UP,
    "down": KET_DOWN,
}


# The prepared states are immutable, so each is built (and validated) once
# per process and shared by every protocol that starts from it.
@cache
def prepare_initial(nuclear: str = "superposition_x") -> JointState:
    """Product state: requested nuclear pure state with the electron down."""
    try:
        psi = _NUCLEAR_PREPARATIONS[nuclear]
    except KeyError:
        raise ValueError(f"unknown nuclear preparation {nuclear!r}") from None
    rho_n = np.outer(psi, psi.conj())
    return JointState(DensityMatrix(qmath.kron(rho_n, PROJ_DOWN)))


@cache
def prepare_bell() -> JointState:
    """Maximally entangled state (|down,down> + |up,up>)/sqrt(2).

    Built the way the experiment does it: nuclear x-superposition with the
    electron down, then a pi pulse conditioned on the nuclear up state.
    """
    state = prepare_initial("superposition_x")
    u = conditional_unitary(RotationPulse(Frequency.NU_E2, np.pi))
    return JointState(DensityMatrix(u @ state.rho.matrix @ u.conj().T))


def negativity(state: JointState) -> float:
    """Sum of |negative eigenvalues| of the electron partial transpose."""
    pt = qmath.partial_transpose_electron(state.rho.matrix)
    return -sum(x for x in qmath.hermitian_eigenvalues(pt) if x < 0.0)

