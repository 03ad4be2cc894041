"""Spin-system model tests: conventions, unitaries, preparations, PPT."""

import math

import numpy as np
import pytest

from weakmeas import qmath, spinsys
from weakmeas.qmath import DimensionError, _nuclear_reduced
from weakmeas.spinsys import (
    FieldTypeError,
    Frequency,
    JointState,
    NuclearState,
    RotationPulse,
    negativity,
    prepare_bell,
    prepare_initial,
    pulse_unitary,
)

THETA_GRID = [2 * math.pi * k / 14 for k in range(15)]

# the nucleus up or down, the electron down
NUCLEUS_UP = JointState(qmath.DensityMatrix(qmath.kron(spinsys.PROJ_UP, spinsys.PROJ_DOWN)))
NUCLEUS_DOWN = JointState(qmath.DensityMatrix(qmath.kron(spinsys.PROJ_DOWN, spinsys.PROJ_DOWN)))


def both_lines(angle):
    return pulse_unitary(RotationPulse(Frequency.ESR_BOTH, angle))


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


class TestHalfAngleRotation:
    """The half-angle convention, seen through the pulse driving both lines."""

    def test_zero_angle(self):
        assert np.allclose(both_lines(0.0), np.eye(4))

    def test_spinor_periodicity(self):
        assert np.allclose(both_lines(2 * math.pi), -np.eye(4))

    def test_pi_flips_down_to_up(self):
        # |up_n down_e> goes to |up_n up_e> with amplitude +1
        out = both_lines(math.pi) @ np.array([0, 1, 0, 0], dtype=complex)
        assert abs(out[0] - 1) < 1e-15 and max(abs(out[1:])) < 1e-15


class TestConditionalUnitary:
    def test_zero_angle_is_identity(self):
        u = pulse_unitary(RotationPulse(Frequency.NU_E2, 0.0))
        assert np.allclose(u, np.eye(4))

    def test_reproduces_post_rotation_state(self):
        rho0 = prepare_initial().rho.matrix
        for theta in THETA_GRID:
            u = pulse_unitary(RotationPulse(Frequency.NU_E2, theta))
            assert np.max(np.abs(u @ rho0 @ u.conj().T - post_rotation_joint(theta))) < 1e-12

    def test_nu_e1_pi_entangles_with_down_nucleus(self):
        # (up_n + down_n)/sqrt2 with the electron down
        psi = np.array([0, 1, 0, 1], dtype=complex) / math.sqrt(2)
        u = pulse_unitary(RotationPulse(Frequency.NU_E1, math.pi))
        out = u @ psi
        # nuclear down paired with electron up, nuclear up stays with down
        assert abs(out[1]) == pytest.approx(1 / math.sqrt(2))
        assert abs(out[2]) == pytest.approx(1 / math.sqrt(2))
        assert abs(out[0]) < 1e-15 and abs(out[3]) < 1e-15

    def test_unitarity_grid(self):
        for theta in THETA_GRID:
            for freq in (Frequency.NU_E1, Frequency.NU_E2):
                u = pulse_unitary(RotationPulse(freq, theta))
                assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_blocks_commute(self):
        for theta in (0.3, 1.1, 2.9):
            for phi in (0.8, 2.2):
                a = pulse_unitary(RotationPulse(Frequency.NU_E1, theta))
                b = pulse_unitary(RotationPulse(Frequency.NU_E2, phi))
                assert np.max(np.abs(a @ b - b @ a)) < 1e-14


class TestUnconditionalUnitary:
    def test_zero_angle(self):
        u = both_lines(0.0)
        assert np.allclose(u, np.eye(4))

    def test_esr_is_product_of_conditionals(self):
        for theta in THETA_GRID:
            u = both_lines(theta)
            prod = pulse_unitary(
                RotationPulse(Frequency.NU_E1, theta)
            ) @ pulse_unitary(RotationPulse(Frequency.NU_E2, theta))
            assert np.max(np.abs(u - prod)) < 1e-14

    def test_unitarity_grid(self):
        for theta in THETA_GRID:
            u = both_lines(theta)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_zero_angle_preserves_populations(self):
        for state in (prepare_initial(), NUCLEUS_UP, NUCLEUS_DOWN):
            u = both_lines(0.0)
            rotated = u @ state.rho.matrix @ u.conj().T
            # projective electron measurement then nuclear populations
            before = np.diag(_nuclear_reduced(state.rho.matrix)).real
            after = np.diag(_nuclear_reduced(rotated)).real
            assert np.allclose(before, after, atol=1e-14)


class TestPulseUnitary:
    def test_joint_unitaries_equal_np_kron_bytes(self):
        """The joint unitaries of every line at 4,409 angles equal their
        np.kron formulas bit for bit, signed zeros included.  Both lines'
        oracle is kron(I2, r), not the sum pulse_unitary builds.  The build
        is called past the cache, whose keys do not tell -0.0 from 0.0."""
        angles = np.linspace(-2 * math.pi, 4 * math.pi, 400).tolist()
        angles += [0.0, -0.0, math.pi, -math.pi, 1e-300, -1e-300, 1e300]
        angles += [4 * math.pi, -4 * math.pi]
        angles += np.random.default_rng(2017).uniform(-20.0, 20.0, 4000).tolist()
        up, down, i2 = spinsys.PROJ_UP, spinsys.PROJ_DOWN, spinsys.I2
        for angle in angles:
            c, s = math.cos(angle / 2), math.sin(angle / 2)
            r = np.array([[c, s], [-s, c]], dtype=complex)
            for freq, want in (
                (Frequency.NU_E2, np.kron(up, r) + np.kron(down, i2)),
                (Frequency.NU_E1, np.kron(up, i2) + np.kron(down, r)),
                (Frequency.ESR_BOTH, np.kron(i2, r)),
            ):
                pulse = RotationPulse(freq, angle)
                assert pulse_unitary.__wrapped__(pulse).tobytes() == want.tobytes(), pulse

    def test_equal_pulses_share_one_read_only_array(self):
        u = pulse_unitary(RotationPulse(Frequency.NU_E2, 1.3))
        assert pulse_unitary(RotationPulse(Frequency.NU_E2, 1.3)) is u
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 0.0


class TestValidation:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: RotationPulse(Frequency.NU_E2, math.nan), ValueError,
             "pulse angle must be finite"),
            (lambda: RotationPulse(Frequency.ESR_BOTH, -math.inf), ValueError,
             "pulse angle must be finite"),
            (lambda: JointState(qmath.DensityMatrix(np.eye(2) / 2)), DimensionError,
             "JointState requires a 4x4"),
            (lambda: NuclearState(qmath.DensityMatrix(np.eye(4) / 4)), DimensionError,
             "NuclearState requires a 2x2"),
            (lambda: RotationPulse("nu_e2", 1.0), FieldTypeError,
             "RotationPulse.frequency must be a Frequency, not 'nu_e2'"),
            (lambda: RotationPulse(None, 1.0), FieldTypeError,
             "RotationPulse.frequency must be a Frequency, not None"),
            (lambda: RotationPulse(2, 1.0), FieldTypeError,
             "RotationPulse.frequency must be a Frequency, not 2"),
            (lambda: JointState(np.eye(4) / 4), FieldTypeError,
             "JointState.rho must be a DensityMatrix, not ndarray"),
            (lambda: JointState(None), FieldTypeError,
             "JointState.rho must be a DensityMatrix, not NoneType"),
            (lambda: NuclearState(np.eye(2) / 2), FieldTypeError,
             "NuclearState.rho must be a DensityMatrix, not ndarray"),
            (lambda: NuclearState(None), FieldTypeError,
             "NuclearState.rho must be a DensityMatrix, not NoneType"),
        ],
        ids=["nan angle", "infinite angle", "2x2 joint state", "4x4 nuclear state",
             "frequency string", "frequency None", "frequency int", "joint raw array",
             "joint None", "nuclear raw array", "nuclear None"],
    )
    def test_each_invalid_input_raises_its_error(self, build, error, message):
        with pytest.raises(error, match=message) as info:
            build()
        assert type(info.value) is error


class TestPreparations:
    def test_superposition_matches_reference(self):
        expected = np.zeros((4, 4))
        for i in (1, 3):
            for j in (1, 3):
                expected[i, j] = 0.5
        assert np.allclose(prepare_initial().rho.matrix, expected)

    def test_up_down_projectors(self):
        up = NUCLEUS_UP.rho.matrix
        down = NUCLEUS_DOWN.rho.matrix
        assert up[1, 1] == pytest.approx(1.0)
        assert down[3, 3] == pytest.approx(1.0)

    def test_bell_marginals_maximally_mixed(self):
        bell = prepare_bell().rho.matrix
        electron = np.einsum("kikj->ij", bell.reshape(2, 2, 2, 2))  # the nucleus traced out
        assert np.allclose(_nuclear_reduced(bell), np.eye(2) / 2, atol=1e-14)
        assert np.allclose(electron, np.eye(2) / 2, atol=1e-14)

    def test_bell_zz_correlation(self):
        bell = prepare_bell().rho.matrix
        z = np.diag([1.0, -1.0])
        zz = np.kron(z, z)
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
        assert negativity(NUCLEUS_UP) < 1e-12

    def test_post_rotation_negativity_profile(self):
        from weakmeas.qmath import DensityMatrix

        for theta in THETA_GRID:
            state = JointState(DensityMatrix(post_rotation_joint(theta)))
            n = negativity(state)
            if theta in (0.0, 2 * math.pi) or abs(theta - 2 * math.pi) < 1e-12:
                assert n < 1e-10
            else:
                assert n > 1e-6
