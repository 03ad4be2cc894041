"""Matrix-kernel tests: worked examples plus property checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakmeas import qmath
from weakmeas.qmath import (
    DensityMatrix,
    DimensionError,
    NotHermitianError,
    _eigenvalues,
    _nuclear_reduced,
    purity,
)
from weakmeas.spinsys import JointState, negativity

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def char_poly_eigs_oracle(m):
    """Independent eigenvalue oracle: roots of the characteristic polynomial."""
    coeffs = np.poly(m)
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-8
    return sorted(roots.real)


def electron_reduced(m):
    """The nucleus partial trace, the electron's 2x2 state, by index sum."""
    return np.einsum("kikj->ij", m.reshape(2, 2, 2, 2))


def partial_transpose_by_index(m):
    """The electron partial transpose, entry by entry:
    pt[(i, k), (j, l)] = m[(i, l), (j, k)]."""
    t = m.reshape(2, 2, 2, 2)
    pt = np.zeros((2, 2, 2, 2), dtype=complex)
    for i, k, j, l in np.ndindex(2, 2, 2, 2):
        pt[i, k, j, l] = t[i, l, j, k]
    return pt.reshape(4, 4)


class TestPartialTrace:
    def test_maximally_mixed(self):
        assert np.allclose(_nuclear_reduced(np.eye(4) / 4), I2 / 2)
        assert np.allclose(electron_reduced(np.eye(4) / 4), I2 / 2)

    def test_post_rotation_nuclear_marginal(self):
        # conditional rotation of the electron leaves the nuclear marginal
        # (1/2) [[1, cos(t/2)], [cos(t/2), 1]]
        theta = math.pi / 2
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        joint = 0.5 * np.array(
            [
                [s * s, c * s, 0, s],
                [c * s, c * c, 0, c],
                [0, 0, 0, 0],
                [s, c, 0, 1],
            ],
            dtype=complex,
        )
        reduced = _nuclear_reduced(joint)
        assert np.allclose(reduced, 0.5 * np.array([[1, 0.70710678], [0.70710678, 1]]), atol=1e-8)

    def test_bell_marginal(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / math.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(_nuclear_reduced(rho), I2 / 2)
        assert np.allclose(electron_reduced(rho), I2 / 2)

    def test_oracle_elementwise_sum(self):
        # brute-force index-summation oracle
        rng = np.random.default_rng(0)
        m = random_density(rng, 4).reshape(2, 2, 2, 2)
        by_hand_e = np.zeros((2, 2), dtype=complex)
        by_hand_n = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    by_hand_e[i, j] += m[i, k, j, k]
                    by_hand_n[i, j] += m[k, i, k, j]
        flat = m.reshape(4, 4)
        assert np.allclose(_nuclear_reduced(flat), by_hand_e, atol=1e-14)
        assert np.allclose(electron_reduced(flat), by_hand_n, atol=1e-14)


class TestHermitianEigenvalues:
    def test_identity(self):
        assert _eigenvalues(I2.astype(complex)) == [1, 1]

    def test_pauli_x(self):
        assert np.allclose(_eigenvalues(X), [-1, 1])

    def test_partial_transpose_negative_eigenvalue(self):
        # entangled post-rotation state: its electron partial transpose has
        # a negative eigenvalue, confirmed by the characteristic-polynomial
        # oracle, and negativity sums the negative ones
        theta = math.pi / 2
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        joint = 0.5 * np.array(
            [
                [s * s, c * s, 0, s],
                [c * s, c * c, 0, c],
                [0, 0, 0, 0],
                [s, c, 0, 1],
            ],
            dtype=complex,
        )
        pt = partial_transpose_by_index(joint)
        eigs = _eigenvalues(pt)
        oracle = char_poly_eigs_oracle(pt)
        assert np.allclose(eigs, oracle, atol=1e-8)
        assert eigs[0] < -1e-3
        state = JointState(DensityMatrix(joint))
        assert negativity(state) == pytest.approx(-sum(x for x in oracle if x < 0), abs=1e-8)

    def test_residual_4x4(self):
        rng = np.random.default_rng(11)
        m = random_density(rng, 4)
        for lam in _eigenvalues(m):
            # eigenvalue must make the shifted matrix singular
            assert abs(np.linalg.det(m - lam * np.eye(4))) < 1e-12


class TestKron:
    def test_equals_np_kron_bytes(self):
        """Every product, signed zeros included, is np.kron's bit for bit."""
        rng = np.random.default_rng(5)
        up, down = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
        matrices = [I2.astype(complex), up, down, X, np.array([[-0.0, 0.0], [0.0, -0.0]])]
        matrices += [
            math.sqrt(e_up) * up + math.sqrt(e_down) * down  # readout Kraus operators
            for e_up in (0.0, 0.3, 1.0)
            for e_down in (0.0, 0.7, 1.0)
        ]
        matrices += [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)]
        matrices += [np.array([[1.0, -0.0j], [-1.0 + 0.0j, -0.0]]), rng.normal(size=(2, 2))]
        for a in matrices:
            for b in matrices:
                got, want = qmath.kron(a, b), np.kron(a, b)
                assert got.dtype == want.dtype and got.shape == want.shape == (4, 4)
                assert got.tobytes() == want.tobytes()


class TestDensityMatrix:
    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            (np.ones((2, 3)) / 2, DimensionError, "square"),
            (np.array([[0.5, np.nan], [np.nan, 0.5]]), ValueError, "finite"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitianError, "Hermitian"),
            (np.eye(2), ValueError, "trace"),
            (np.diag([1.5, -0.5]), ValueError, "negative eigenvalue"),
            (np.diag([1.2, -0.2, 0.0, 0.0]), ValueError, "negative eigenvalue"),
            (np.eye(3) / 3, DimensionError, "dimensions 2 and 4"),
        ],
        ids=["not square", "non-finite", "not hermitian", "trace", "negative 2x2",
             "negative 4x4", "dimension 3"],
    )
    def test_each_invalid_input_raises_its_error(self, matrix, error, message):
        with pytest.raises(error, match=message) as info:
            DensityMatrix(matrix)
        assert type(info.value) is error

    def test_rejects_non_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix(np.array([[0.5, 0.5], [0, 0.5]], dtype=complex))

    def test_purity_mixed(self):
        assert purity(DensityMatrix(I2 / 2)) == pytest.approx(0.5)

    def test_purity_projector(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        assert purity(DensityMatrix(np.outer(psi, psi))) == pytest.approx(1.0)


@st.composite
def density_matrices(draw, dim):
    entries = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, allow_infinity=False),
            min_size=2 * dim * dim,
            max_size=2 * dim * dim,
        )
    )
    a = np.array(entries[: dim * dim]).reshape(dim, dim) + 1j * np.array(
        entries[dim * dim :]
    ).reshape(dim, dim)
    m = a @ a.conj().T + 1e-3 * np.eye(dim)
    return m / np.trace(m)


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(density_matrices(2), density_matrices(2))
    def test_kron_partial_trace_roundtrip(self, rho_a, rho_b):
        assert np.max(np.abs(_nuclear_reduced(np.kron(rho_a, rho_b)) - rho_a)) < 1e-12
        assert np.max(np.abs(electron_reduced(np.kron(rho_a, rho_b)) - rho_b)) < 1e-12

    @settings(deadline=None, max_examples=60)
    @given(density_matrices(4))
    def test_eigenvalue_sum_is_trace(self, m):
        eigs = _eigenvalues(m)
        assert abs(sum(eigs) - np.trace(m).real) < 1e-10
        assert min(eigs) >= -1e-9

    @settings(deadline=None, max_examples=60)
    @given(density_matrices(2))
    def test_purity_one_iff_max_eigenvalue_one(self, m):
        rho = DensityMatrix(m)
        top = max(_eigenvalues(rho.matrix))
        assert (abs(purity(rho) - 1.0) < 1e-9) == (abs(top - 1.0) < 1e-9)
