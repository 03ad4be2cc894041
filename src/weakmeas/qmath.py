"""Dense complex-matrix kernel for the 2- and 4-dimensional spaces used here.

Everything is a plain ``numpy`` complex array; these wrappers add the
dimension checks and tolerances the rest of the package relies on.  The
joint-system basis order is |up-n,up-e>, |up-n,down-e>, |down-n,up-e>,
|down-n,down-e| (nucleus is the slow index), and nuclear 2x2 matrices use
(up, down).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

NUCLEUS = "nucleus"
ELECTRON = "electron"


class DimensionError(ValueError):
    """Matrix dimensions do not match what the operation requires."""


class NotHermitianError(ValueError):
    """Input expected to be Hermitian is not, within tolerance."""


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def partial_trace(a, subsystem: str) -> np.ndarray:
    """Trace the 4x4 matrix ``a`` over the named subsystem.

    The left (slow) tensor factor is the nucleus, the right (fast) factor
    the electron; tracing over one returns the 2x2 state of the other.
    """
    a = _as_matrix(a)
    if a.shape[0] != 4:
        raise DimensionError("partial_trace requires a 4x4 matrix")
    t = a.reshape(2, 2, 2, 2)
    if subsystem == ELECTRON:
        return np.einsum("ikjk->ij", t)
    if subsystem == NUCLEUS:
        return np.einsum("kikj->ij", t)
    raise ValueError(f"unknown subsystem {subsystem!r}")


def partial_transpose_electron(a) -> np.ndarray:
    """Transpose only the electron indices of a 4x4 matrix."""
    a = _as_matrix(a)
    if a.shape[0] != 4:
        raise DimensionError("partial transpose requires a 4x4 matrix")
    return a.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2x2 arrays, the same products bit for bit, by one
    broadcast multiply instead of ``np.kron``'s generic reshaping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    return max_abs(m - m.conj().T) <= tol


def is_hermitian(a, tol: float = HERMITICITY_TOL) -> bool:
    return _is_hermitian(_as_matrix(a), tol)


def hermitian_eigenvalues(a, tol: float = HERMITICITY_TOL) -> list[float]:
    """Ascending real eigenvalues of a Hermitian 2x2 or 4x4 matrix.

    Dimension 2 is solved in closed form; dimension 4 goes through LAPACK,
    which converges far below the 1e-12 residual we need.
    """
    a = _as_matrix(a)
    if not _is_hermitian(a, tol):
        raise NotHermitianError("hermitian_eigenvalues requires a Hermitian matrix")
    return _eigenvalues(a)


def _eigenvalues(a: np.ndarray) -> list[float]:
    """``hermitian_eigenvalues`` of a matrix already checked to be a
    finite Hermitian 2x2 or 4x4."""
    if a.shape[0] == 2:
        tr = (a[0, 0] + a[1, 1]).real
        det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
        disc = max(tr * tr / 4.0 - det, 0.0)
        r = np.sqrt(disc)
        return [tr / 2.0 - r, tr / 2.0 + r]
    return [float(x) for x in np.linalg.eigvalsh(a)]


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        if m.shape[0] not in (2, 4):
            raise DimensionError("only dimensions 2 and 4 are supported")
        if not _is_hermitian(m, HERMITICITY_TOL):
            raise NotHermitianError("density matrix must be Hermitian")
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace is {np.trace(m)}, expected 1")
        if min(_eigenvalues(m)) < -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    m = rho.matrix
    return float(np.trace(m @ m).real)
