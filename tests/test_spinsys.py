"""Spin-system model tests: conventions, unitaries, preparations, PPT."""

import math

import numpy as np
import pytest

from weakmeas import qmath, spinsys
from weakmeas.spinsys import (
    Frequency,
    JointState,
    RotationPulse,
    conditional_unitary,
    half_angle_rotation,
    negativity,
    pauli,
    prepare_bell,
    prepare_initial,
    pulse_unitary,
    unconditional_unitary,
)

THETA_GRID = [2 * math.pi * k / 14 for k in range(15)]


def post_rotation_joint(theta):
    """Joint state after the conditional rotation, written out by hand."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return 0.5 * np.array(
        [
            [s * s, c * s, 0, s],
            [c * s, c * c, 0, c],
            [0, 0, 0, 0],
            [s, c, 0, 1],
        ],
        dtype=complex,
    )


class TestPauli:
    def test_nuclear_2x2(self):
        assert np.allclose(pauli("z", "nuclear-only-2x2"), np.diag([1, -1]))

    def test_embedded_nucleus(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(pauli("x", qmath.NUCLEUS), np.kron(x, np.eye(2)))

    def test_initial_state_has_unit_sigma_x(self):
        rho0 = np.full((2, 2), 0.5, dtype=complex)
        assert np.trace(rho0 @ pauli("x", "nuclear-only-2x2")).real == pytest.approx(1.0)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w", qmath.NUCLEUS)


class TestHalfAngleRotation:
    def test_zero_angle(self):
        assert np.allclose(half_angle_rotation(0.0, 1.2), np.eye(2))

    def test_spinor_periodicity(self):
        assert np.allclose(half_angle_rotation(2 * math.pi, 0.0), -np.eye(2))

    def test_pi_flips_down_to_up(self):
        out = half_angle_rotation(math.pi, 0.0) @ np.array([0, 1], dtype=complex)
        assert abs(abs(out[0]) - 1) < 1e-15 and abs(out[1]) < 1e-15

    def test_unitary_any_phase(self):
        u = half_angle_rotation(1.3, 0.7)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


class TestConditionalUnitary:
    def test_zero_angle_is_identity(self):
        u = conditional_unitary(RotationPulse(Frequency.NU_E2, 0.0))
        assert np.allclose(u, np.eye(4))

    def test_reproduces_post_rotation_state(self):
        rho0 = prepare_initial().rho.matrix
        for theta in THETA_GRID:
            u = conditional_unitary(RotationPulse(Frequency.NU_E2, theta))
            assert np.max(np.abs(u @ rho0 @ u.conj().T - post_rotation_joint(theta))) < 1e-12

    def test_nu_e1_pi_entangles_with_down_nucleus(self):
        # (up_n + down_n)/sqrt2 with the electron down
        psi = np.array([0, 1, 0, 1], dtype=complex) / math.sqrt(2)
        u = conditional_unitary(RotationPulse(Frequency.NU_E1, math.pi))
        out = u @ psi
        # nuclear down paired with electron up, nuclear up stays with down
        assert abs(out[1]) == pytest.approx(1 / math.sqrt(2))
        assert abs(out[2]) == pytest.approx(1 / math.sqrt(2))
        assert abs(out[0]) < 1e-15 and abs(out[3]) < 1e-15

    def test_rejects_nmr(self):
        with pytest.raises(ValueError):
            conditional_unitary(RotationPulse(Frequency.NMR, 1.0))

    def test_unitarity_grid(self):
        for theta in THETA_GRID:
            for freq in (Frequency.NU_E1, Frequency.NU_E2):
                u = conditional_unitary(RotationPulse(freq, theta, 0.4))
                assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_blocks_commute(self):
        for theta in (0.3, 1.1, 2.9):
            for phi in (0.8, 2.2):
                a = conditional_unitary(RotationPulse(Frequency.NU_E1, theta))
                b = conditional_unitary(RotationPulse(Frequency.NU_E2, phi))
                assert np.max(np.abs(a @ b - b @ a)) < 1e-14


class TestUnconditionalUnitary:
    def test_zero_angle(self):
        u = unconditional_unitary(RotationPulse(Frequency.ESR_BOTH, 0.0))
        assert np.allclose(u, np.eye(4))

    def test_esr_is_product_of_conditionals(self):
        for theta in THETA_GRID:
            u = unconditional_unitary(RotationPulse(Frequency.ESR_BOTH, theta))
            prod = conditional_unitary(
                RotationPulse(Frequency.NU_E1, theta)
            ) @ conditional_unitary(RotationPulse(Frequency.NU_E2, theta))
            assert np.max(np.abs(u - prod)) < 1e-14

    def test_nmr_half_pulse_gives_sigma_x(self):
        psi = np.array([0, 0, 0, 1], dtype=complex)  # nucleus down, electron down
        u = unconditional_unitary(RotationPulse(Frequency.NMR, math.pi / 2))
        out = u @ psi
        rho_n = qmath.partial_trace(np.outer(out, out.conj()), qmath.ELECTRON)
        sigma_x = np.trace(rho_n @ pauli("x", "nuclear-only-2x2")).real
        assert sigma_x == pytest.approx(1.0)

    def test_unitarity_grid(self):
        for theta in THETA_GRID:
            u = unconditional_unitary(RotationPulse(Frequency.NMR, theta, 1.0))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_zero_angle_preserves_populations(self):
        for prep in ("superposition_x", "up", "down"):
            state = prepare_initial(prep)
            u = unconditional_unitary(RotationPulse(Frequency.ESR_BOTH, 0.0))
            rotated = u @ state.rho.matrix @ u.conj().T
            # projective electron measurement then nuclear populations
            before = np.diag(qmath.partial_trace(state.rho.matrix, qmath.ELECTRON)).real
            after = np.diag(qmath.partial_trace(rotated, qmath.ELECTRON)).real
            assert np.allclose(before, after, atol=1e-14)


class TestPulseUnitary:
    def test_joint_unitaries_equal_np_kron_bytes(self):
        """The joint unitaries of every line at 404 angles and 4 phases equal
        their np.kron formulas bit for bit, signed zeros included."""
        angles = np.linspace(-2 * math.pi, 4 * math.pi, 400).tolist()
        angles += [0.0, -0.0, math.pi, -math.pi]
        up, down, i2 = spinsys.PROJ_UP, spinsys.PROJ_DOWN, spinsys.I2
        for phase in (0.0, 0.7, math.pi, -math.pi / 2):
            for angle in angles:
                r = half_angle_rotation(angle, phase)
                for freq, want in (
                    (Frequency.NU_E2, np.kron(up, r) + np.kron(down, i2)),
                    (Frequency.NU_E1, np.kron(up, i2) + np.kron(down, r)),
                    (Frequency.ESR_BOTH, np.kron(i2, r)),
                    (Frequency.NMR, np.kron(r, i2)),
                ):
                    pulse = RotationPulse(freq, angle, phase)
                    build = conditional_unitary if freq.is_conditional else unconditional_unitary
                    assert build(pulse).tobytes() == want.tobytes(), pulse

    def test_equal_pulses_share_one_read_only_array(self):
        u = pulse_unitary(RotationPulse(Frequency.NU_E2, 1.3, 0.2))
        assert pulse_unitary(RotationPulse(Frequency.NU_E2, 1.3, 0.2)) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


class TestPreparations:
    def test_superposition_matches_reference(self):
        expected = np.zeros((4, 4))
        for i in (1, 3):
            for j in (1, 3):
                expected[i, j] = 0.5
        assert np.allclose(prepare_initial().rho.matrix, expected)

    def test_up_down_projectors(self):
        up = prepare_initial("up").rho.matrix
        down = prepare_initial("down").rho.matrix
        assert up[1, 1] == pytest.approx(1.0)
        assert down[3, 3] == pytest.approx(1.0)

    def test_unknown_preparation(self):
        with pytest.raises(ValueError):
            prepare_initial("sideways")

    def test_bell_marginals_maximally_mixed(self):
        bell = prepare_bell().rho.matrix
        assert np.allclose(qmath.partial_trace(bell, qmath.ELECTRON), np.eye(2) / 2, atol=1e-14)
        assert np.allclose(qmath.partial_trace(bell, qmath.NUCLEUS), np.eye(2) / 2, atol=1e-14)

    def test_bell_zz_correlation(self):
        bell = prepare_bell().rho.matrix
        zz = np.kron(pauli("z", "nuclear-only-2x2"), pauli("z", "nuclear-only-2x2"))
        assert np.trace(bell @ zz).real == pytest.approx(1.0)

    def test_bell_purity(self):
        assert qmath.purity(prepare_bell().rho) == pytest.approx(1.0)

    def test_bell_is_named_state(self):
        # amplitudes sit exactly on |up_n up_e> and |down_n down_e>
        bell = prepare_bell().rho.matrix
        assert bell[0, 0] == pytest.approx(0.5)
        assert bell[3, 3] == pytest.approx(0.5)
        assert bell[0, 3].real == pytest.approx(0.5)


class TestEntanglement:
    def test_bell_negativity(self):
        assert negativity(prepare_bell()) == pytest.approx(0.5, abs=1e-10)

    def test_product_state_not_entangled(self):
        assert negativity(prepare_initial("up")) < 1e-12

    def test_post_rotation_negativity_profile(self):
        from weakmeas.qmath import DensityMatrix

        for theta in THETA_GRID:
            state = JointState(DensityMatrix(post_rotation_joint(theta)))
            n = negativity(state)
            if theta in (0.0, 2 * math.pi) or abs(theta - 2 * math.pi) < 1e-12:
                assert n < 1e-10
            else:
                assert n > 1e-6
