"""Closed-form protocol tests, with a step-by-step channel oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weakmeas import montecarlo as mc
from weakmeas import qmath
from weakmeas.protocols import (
    BLIP,
    DOWN,
    NO_BLIP,
    UP,
    ImpossibleBranchError,
    MeasurementTooWeakError,
    PostSelectedState,
    ProjectiveLimitError,
    TomographyResult,
    TunnelModel,
    closed_form_sequence,
    extract_tunnel_rate,
    reversal_success_probability,
    sigma_z_noblip,
    steering_scan,
    success_probability_n,
    tomography_expectations,
    tunnel_rate_limits,
    unconditional_nuclear_channel,
    weak_electron_window,
    weak_nuclear_measure,
)
from weakmeas.qmath import DensityMatrix
from weakmeas.spinsys import (
    Frequency,
    JointState,
    NuclearState,
    RotationPulse,
    prepare_bell,
    prepare_initial,
)


def reattach_down_electron(nuclear: NuclearState) -> JointState:
    """Embed a nuclear state back into the joint space with a fresh down
    electron, as the sequence driver does between measurements."""
    down = np.array([[0, 0], [0, 1]], dtype=complex)
    return JointState(DensityMatrix(np.kron(nuclear.rho.matrix, down)))


def stepwise_sequence(thetas):
    """Oracle for closed_form_sequence: apply each conditional measurement
    one at a time through the full 4x4 channel, multiplying branch weights."""
    state = prepare_initial()
    probability = 1.0
    nuclear = None
    for angle, freq in thetas:
        post = weak_nuclear_measure(state, RotationPulse(freq, angle), DOWN)
        probability *= post.success_probability
        nuclear = post.state
        state = reattach_down_electron(nuclear)
    return nuclear, probability


class TestWeakNuclearMeasure:
    def test_quarter_strength_state(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi / 2), DOWN
        )
        expected = np.array(
            [[1 / 3, 0.47140452079103173], [0.47140452079103173, 2 / 3]]
        )
        assert np.allclose(post.state.rho.matrix, expected, atol=1e-12)
        assert post.success_probability == pytest.approx(0.75, abs=1e-12)

    def test_projective_pulse(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi), DOWN
        )
        # full-strength pulse collapses the nucleus to down
        assert post.state.rho.matrix[1, 1].real == pytest.approx(1.0, abs=1e-12)
        assert post.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_up_branch_heralds_nuclear_up(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, 1.1), UP
        )
        assert post.state.rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_branch_weights_complete(self):
        for theta in (0.3, 1.3, 2.4, 3.0):
            state = prepare_initial()
            pulse = RotationPulse(Frequency.NU_E2, theta)
            w_down = weak_nuclear_measure(state, pulse, DOWN).success_probability
            w_up = weak_nuclear_measure(state, pulse, UP).success_probability
            assert w_down + w_up == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_up_branch_impossible(self):
        with pytest.raises(ImpossibleBranchError):
            weak_nuclear_measure(
                prepare_initial(), RotationPulse(Frequency.NU_E2, 0.0), UP
            )


class TestUnconditionalChannel:
    def test_populations_preserved_coherence_shrinks(self):
        for theta in (0.0, 0.9, math.pi / 2, 2.5, math.pi):
            out = unconditional_nuclear_channel(
                prepare_initial(), RotationPulse(Frequency.NU_E2, theta)
            )
            m = out.rho.matrix
            assert m[0, 0].real == pytest.approx(0.5, abs=1e-12)
            assert m[1, 1].real == pytest.approx(0.5, abs=1e-12)
            assert m[0, 1].real == pytest.approx(
                0.5 * math.cos(theta / 2), abs=1e-12
            )

    def test_full_strength_dephases(self):
        out = unconditional_nuclear_channel(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi)
        )
        assert qmath.purity(out.rho) == pytest.approx(0.5, abs=1e-12)


class TestClosedFormSequence:
    def test_single_pulse_matches_direct(self):
        post = closed_form_sequence([(math.pi / 2, Frequency.NU_E2)])
        direct = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi / 2), DOWN
        )
        assert np.allclose(post.state.rho.matrix, direct.state.rho.matrix, atol=1e-12)
        assert post.success_probability == pytest.approx(
            direct.success_probability, abs=1e-12
        )

    def test_reversal_restores_superposition(self):
        theta = 2.1
        post = closed_form_sequence(
            [(theta, Frequency.NU_E2), (theta, Frequency.NU_E1)]
        )
        assert np.allclose(post.state.rho.matrix, np.full((2, 2), 0.5), atol=1e-12)
        assert post.success_probability == pytest.approx(
            reversal_success_probability(theta), abs=1e-12
        )

    def test_always_pure(self):
        seqs = [
            [(0.7, Frequency.NU_E2)],
            [(1.2, Frequency.NU_E1), (2.8, Frequency.NU_E2)],
            [(0.4, Frequency.NU_E2)] * 4,
        ]
        for seq in seqs:
            post = closed_form_sequence(seq)
            assert qmath.purity(post.state.rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_and_nmr(self):
        with pytest.raises(ValueError):
            closed_form_sequence([])
        with pytest.raises(ValueError):
            closed_form_sequence([(0.5, Frequency.NMR)])

    def test_impossible_at_double_pi(self):
        with pytest.raises(ImpossibleBranchError):
            closed_form_sequence(
                [(math.pi, Frequency.NU_E2), (math.pi, Frequency.NU_E1)]
            )

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 3.0, allow_nan=False),
                st.sampled_from([Frequency.NU_E1, Frequency.NU_E2]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_stepwise_oracle(self, seq):
        closed = closed_form_sequence(seq)
        nuclear, probability = stepwise_sequence(seq)
        assert np.max(np.abs(closed.state.rho.matrix - nuclear.rho.matrix)) < 1e-12
        assert abs(closed.success_probability - probability) < 1e-12


class TestSuccessProbabilities:
    def test_single_projective(self):
        assert success_probability_n(math.pi, 1) == pytest.approx(0.5)

    def test_repeated_weak(self):
        theta = math.pi / 2
        for n in (1, 2, 5):
            expected = (1 + math.cos(theta / 2) ** (2 * n)) / 2
            assert success_probability_n(theta, n) == pytest.approx(expected)
            # and it must agree with the explicit sequence
            seq = [(theta, Frequency.NU_E2)] * n
            assert closed_form_sequence(seq).success_probability == pytest.approx(
                expected, abs=1e-12
            )

    def test_reversal_vanishes_at_pi(self):
        assert reversal_success_probability(math.pi) == pytest.approx(0.0, abs=1e-12)
        assert reversal_success_probability(0.0) == pytest.approx(1.0)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            success_probability_n(1.0, 0)


class TestTunnelModel:
    def test_survival(self):
        model = TunnelModel(gamma_up_out=2.0, t_m=1.5)
        assert model.survival_up == pytest.approx(math.exp(-3.0))
        assert model.survival_down == 1.0

    def test_projective_limit(self):
        assert TunnelModel.projective().survival_up == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TunnelModel(gamma_up_out=0.0, t_m=1.0)
        with pytest.raises(ValueError):
            TunnelModel(gamma_up_out=1.0, t_m=-1.0)


class TestWeakElectronWindow:
    def entangled_state(self, theta=math.pi):
        state = prepare_initial()
        from weakmeas.spinsys import conditional_unitary

        u = conditional_unitary(RotationPulse(Frequency.NU_E2, theta))
        return JointState(DensityMatrix(u @ state.rho.matrix @ u.conj().T))

    @settings(deadline=None, max_examples=200)
    @given(
        st.floats(1e-3, 1e6),
        st.floats(0.0, 5.0),
        st.one_of(st.just(0.0), st.floats(1e-3, 1e2)),
        st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    )
    def test_branch_weights_complete(self, gamma_up, t_m, gamma_down, entries):
        """Against the engine's window on a random mixed joint state: the
        branch weights sum to 1 (sum of K^dagger K is the identity), and the
        engine's weights and nuclear states equal the closed form's."""
        re, im = np.array(entries).reshape(2, 4, 4)
        a = re + 1j * im
        rho = a @ a.conj().T
        trace = np.trace(rho).real
        assume(trace > 1e-6)
        joint = (rho + rho.conj().T) / (2.0 * trace)
        model = TunnelModel(gamma_up_out=gamma_up, t_m=t_m, gamma_down_out=gamma_down)
        step = mc.ReadoutWindow(model)
        w_up, w_down = mc._node_blip_weights(joint, step)
        closed, weight = {}, dict.fromkeys((NO_BLIP, BLIP), 0.0)
        for outcome in weight:
            try:
                closed[outcome] = weak_electron_window(
                    JointState(DensityMatrix(joint)), model, outcome
                )
            except ImpossibleBranchError:  # weight below ZERO_BRANCH_TOL
                continue
            weight[outcome] = closed[outcome].success_probability
        assert weight[NO_BLIP] + weight[BLIP] == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - (w_up + w_down) == pytest.approx(weight[NO_BLIP], abs=1e-12)

        def nuclear_after(branch):
            return mc._nuclear_reduced(mc._node_after_window(joint, step, branch, None))

        if NO_BLIP in closed:
            want = closed[NO_BLIP].state.rho.matrix
            assert np.max(np.abs(nuclear_after(0) - want)) < 1e-12
        if BLIP in closed:
            mix = sum(w * nuclear_after(b) for b, w in ((1, w_up), (2, w_down)) if w > 0.0)
            want = closed[BLIP].state.rho.matrix
            assert np.max(np.abs(mix / (w_up + w_down) - want)) < 1e-12

    def test_projective_blip_heralds_nuclear_up(self):
        # the conditional pulse flips the electron on the nuclear-up branch,
        # so a tunnel event heralds the nucleus up
        post = weak_electron_window(
            self.entangled_state(), TunnelModel.projective(), BLIP
        )
        assert post.state.rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert post.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_noblip_sigma_z_frozen_value(self):
        model = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        post = weak_electron_window(
            self.entangled_state(math.pi / 2), model, NO_BLIP
        )
        result = tomography_expectations(post.state)
        assert result.sigma_z == pytest.approx(-0.18769096990261877, abs=1e-12)
        assert result.sigma_z == pytest.approx(
            sigma_z_noblip(math.pi / 2, model), abs=1e-12
        )

    def test_blip_impossible_without_decay(self):
        state = prepare_initial()  # electron down, nothing tunnels
        model = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        with pytest.raises(ImpossibleBranchError):
            weak_electron_window(state, model, BLIP)

    def test_unknown_outcome(self):
        with pytest.raises(ValueError):
            weak_electron_window(
                prepare_initial(), TunnelModel(gamma_up_out=1.0, t_m=1.0), "maybe"
            )


class TestTunnelRateInversion:
    def test_frozen_value(self):
        assert extract_tunnel_rate(-0.5, 1.5) == pytest.approx(
            1.365358839940256, abs=1e-12
        )

    def test_roundtrip(self):
        for gamma in (0.2, 0.7, 2.0, 5.0):
            model = TunnelModel(gamma_up_out=gamma, t_m=1.5)
            sz = sigma_z_noblip(math.pi, model)
            assert extract_tunnel_rate(sz, 1.5) == pytest.approx(
                1.0 / gamma, rel=1e-12
            )

    def test_weak_limit_raises(self):
        with pytest.raises(MeasurementTooWeakError):
            extract_tunnel_rate(0.0, 1.0)
        with pytest.raises(MeasurementTooWeakError):
            extract_tunnel_rate(0.3, 1.0)

    def test_projective_limit_raises(self):
        with pytest.raises(ProjectiveLimitError):
            extract_tunnel_rate(-1.0, 1.0)

    def test_limits_wrapper(self):
        assert tunnel_rate_limits(0.2, 1.0) == math.inf
        assert tunnel_rate_limits(-1.0, 1.0) == 0.0
        assert tunnel_rate_limits(-0.5, 1.5) == pytest.approx(1.365358839940256)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            extract_tunnel_rate(-0.5, 0.0)

    def test_sigma_z_monotone_in_rate(self):
        rates = np.geomspace(0.01, 30, 25)
        values = [
            sigma_z_noblip(math.pi, TunnelModel(gamma_up_out=g, t_m=1.0))
            for g in rates
        ]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[0] > -0.02  # weak limit: almost no information
        assert values[-1] < -0.999  # strong limit: projective


class TestTomography:
    def test_superposition(self):
        result = tomography_expectations(
            NuclearState(DensityMatrix(np.full((2, 2), 0.5, dtype=complex)))
        )
        assert (result.sigma_x, result.sigma_y, result.sigma_z) == (1.0, 0.0, 0.0)

    def test_partially_measured_bloch(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi / 2), DOWN
        )
        result = tomography_expectations(post.state)
        assert result.sigma_x == pytest.approx(0.9428090415820635, abs=1e-12)
        assert result.sigma_y == pytest.approx(0.0, abs=1e-12)
        assert result.sigma_z == pytest.approx(-1 / 3, abs=1e-12)
        assert result.bloch_norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_sigma_y_sign(self):
        # rho01 = -i/2 means the Bloch vector points along +y
        m = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        result = tomography_expectations(NuclearState(DensityMatrix(m)))
        assert result.sigma_y == pytest.approx(1.0)

    def test_result_validation(self):
        with pytest.raises(ValueError):
            TomographyResult(sigma_x=1.5, sigma_y=0.0, sigma_z=0.0)
        with pytest.raises(ValueError):
            TomographyResult(sigma_x=0.9, sigma_y=0.9, sigma_z=0.0)


class TestSteeringScan:
    def test_endpoints(self):
        assert steering_scan(0.0).sigma_z == pytest.approx(-1.0, abs=1e-12)
        assert steering_scan(math.pi).sigma_z == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_grid(self):
        for theta in np.linspace(0.05, 2 * math.pi - 0.05, 17):
            result = steering_scan(theta)
            assert result.sigma_z == pytest.approx(-math.cos(theta), abs=1e-12)
            assert result.sigma_x == pytest.approx(-math.sin(theta), abs=1e-12)
            assert result.sigma_y == pytest.approx(0.0, abs=1e-12)
            assert result.bloch_norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_steered_states_are_pure(self):
        # every post-selected nuclear state sits on the Bloch sphere: the
        # hallmark of steering a maximally entangled pair
        bell = prepare_bell()
        assert qmath.purity(bell.rho) == pytest.approx(1.0)
        for theta in (0.4, 1.7, 3.0, 5.1):
            assert steering_scan(theta).bloch_norm_sq == pytest.approx(
                1.0, abs=1e-10
            )


class TestPostSelectedState:
    def test_rejects_bad_probability(self):
        nuclear = NuclearState(DensityMatrix(np.eye(2, dtype=complex) / 2))
        with pytest.raises(ValueError):
            PostSelectedState(nuclear, 1.5)
