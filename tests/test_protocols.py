"""Closed-form protocol tests, with a step-by-step channel oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from weakmeas import qmath
from weakmeas.experiments.config import default_theta_grid
from weakmeas.protocols import (
    BLIP,
    NO_BLIP,
    ImpossibleBranchError,
    MeasurementTooWeakError,
    PostSelectedState,
    ProjectiveLimitError,
    TomographyResult,
    TunnelModel,
    _no_blip_damping,
    _node_after_window,
    _node_blip_weight,
    closed_form_sequence,
    extract_tunnel_rate,
    reversal_success_probability,
    sigma_z_noblip,
    steering_scan,
    success_probability_n,
    tomography_expectations,
    tunnel_rate_limits,
    weak_electron_window,
    weak_nuclear_measure,
)
from weakmeas.qmath import DensityMatrix
from weakmeas.spinsys import (
    PROJ_DOWN,
    PROJ_UP,
    Frequency,
    JointState,
    NuclearState,
    RotationPulse,
    _node_pulse,
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
        post = weak_nuclear_measure(state, RotationPulse(freq, angle), NO_BLIP)
        probability *= post.success_probability
        nuclear = post.state
        state = reattach_down_electron(nuclear)
    return nuclear, probability


class TestWeakNuclearMeasure:
    def test_quarter_strength_state(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi / 2), NO_BLIP
        )
        expected = np.array(
            [[1 / 3, 0.47140452079103173], [0.47140452079103173, 2 / 3]]
        )
        assert np.allclose(post.state.rho.matrix, expected, atol=1e-12)
        assert post.success_probability == pytest.approx(0.75, abs=1e-12)

    def test_projective_pulse(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi), NO_BLIP
        )
        # full-strength pulse collapses the nucleus to down
        assert post.state.rho.matrix[1, 1].real == pytest.approx(1.0, abs=1e-12)
        assert post.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_up_branch_heralds_nuclear_up(self):
        post = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, 1.1), BLIP
        )
        assert post.state.rho.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_branch_weights_complete(self):
        for theta in (0.3, 1.3, 2.4, 3.0):
            state = prepare_initial()
            pulse = RotationPulse(Frequency.NU_E2, theta)
            w_down = weak_nuclear_measure(state, pulse, NO_BLIP).success_probability
            w_up = weak_nuclear_measure(state, pulse, BLIP).success_probability
            assert w_down + w_up == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_up_branch_impossible(self):
        with pytest.raises(ImpossibleBranchError):
            weak_nuclear_measure(
                prepare_initial(), RotationPulse(Frequency.NU_E2, 0.0), BLIP
            )

    def test_outcome_is_a_window_outcome(self):
        """The outcomes are the readout window's; an electron spin is not one."""
        with pytest.raises(ValueError, match="unknown outcome 'down'"):
            weak_nuclear_measure(
                prepare_initial(), RotationPulse(Frequency.NU_E2, 1.1), "down"
            )


class TestClosedFormSequence:
    def test_single_pulse_matches_direct(self):
        post = closed_form_sequence([(math.pi / 2, Frequency.NU_E2)])
        direct = weak_nuclear_measure(
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi / 2), NO_BLIP
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

    def test_rejects_empty_and_esr_both(self):
        with pytest.raises(ValueError):
            closed_form_sequence([])
        with pytest.raises(ValueError):
            closed_form_sequence([(0.5, Frequency.ESR_BOTH)])

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

    @given(st.floats(5e-324, 1e3))
    def test_projective_limit(self, t_m):
        """Exactly projective however short the window, and as long as asked."""
        model = TunnelModel.projective(t_m)
        assert model.survival_up == 0.0
        assert model.t_m == t_m

    def test_validation(self):
        with pytest.raises(ValueError):
            TunnelModel(gamma_up_out=0.0, t_m=1.0)
        with pytest.raises(ValueError):
            TunnelModel(gamma_up_out=math.nan, t_m=1.0)
        with pytest.raises(ValueError):
            TunnelModel(gamma_up_out=1.0, t_m=-1.0)
        with pytest.raises(ValueError):
            TunnelModel.projective(0.0)

    @settings(deadline=None, max_examples=300)
    @given(
        st.one_of(
            st.builds(
                TunnelModel,
                gamma_up_out=st.floats(1e-300, 1e300),
                t_m=st.floats(0.0, 1e3),
            ),
            st.builds(TunnelModel.projective, st.floats(5e-324, 1e3)),
        )
    )
    def test_kraus_complete(self, model):
        """The window's two branches (no blip, up tunneled out) preserve
        the trace: on each basis state the no-blip damping and the blip
        weight add up to 1."""
        assert 0.0 <= model.survival_up <= 1.0
        damping = _no_blip_damping(model)
        for i in range(4):
            basis = np.zeros((4, 4), dtype=complex)
            basis[i, i] = 1.0
            w_blip = _node_blip_weight(basis, model)
            assert damping[i, i] + w_blip == pytest.approx(1.0, abs=1e-15)


WINDOWS = st.one_of(
    st.builds(TunnelModel, gamma_up_out=st.floats(1e-3, 1e3), t_m=st.floats(0.0, 5.0)),
    st.builds(TunnelModel.projective, st.floats(5e-324, 1e3)),
)


def trace_free_blip_weight(joint, model):
    """The window's blip weight as it was before it read the state's
    trace: exactly 1.0 where the no-blip child has zero trace, else the
    up population times 1 - survival_up."""
    if np.trace(joint * _no_blip_damping(model)).real == 0.0:
        return 1.0
    return (joint[0, 0].real + joint[2, 2].real) * (1.0 - model.survival_up)


@st.composite
def window_inputs(draw):
    """A joint state A A^dagger / Tr, with its electron possibly up or
    down for certain, then maybe reloaded after a window and maybe
    pulsed, and the window that reads it."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    re, im = np.array(entries).reshape(2, 4, 4)
    a = re + 1j * im
    electron = draw(st.sampled_from([None, 0, 1]))  # None, or the level left empty: 0 up, 1 down
    if electron is not None:
        a[electron::2] = 0.0
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    joint = (rho + rho.conj().T) / (2.0 * trace)
    model = draw(WINDOWS)
    reload = draw(st.sampled_from([None, 0, 1]))  # none, or the window's outcome
    if reload is not None:
        weight = trace_free_blip_weight(joint, model)
        assume((weight if reload else 1.0 - weight) > 1e-6)
        joint = _node_after_window(joint, model, reload)
    if draw(st.booleans()):
        pulse = RotationPulse(draw(st.sampled_from(Frequency)), draw(st.floats(0.0, 2.0 * math.pi)))
        joint = _node_pulse(joint, pulse)
    return joint, model


class TestBlipWeight:
    @settings(deadline=None, max_examples=500)
    @given(window_inputs())
    def test_born_rule_is_the_trace_free_weight(self, inputs):
        """The blip weight lies in [0, 1] and is the weight that did not
        read the state's trace, up to the few epsilon by which rounding
        leaves that trace off 1; it is exactly 1.0 where the no-blip child
        has zero trace and exactly 0.0 where nothing is up."""
        joint, model = inputs
        weight = _node_blip_weight(joint, model)
        want = trace_free_blip_weight(joint, model)
        assert 0.0 <= weight <= 1.0
        assert abs(weight - want) <= 4.0 * np.finfo(float).eps * want
        if np.trace(joint * _no_blip_damping(model)).real == 0.0:
            assert weight == 1.0
        if joint[0, 0].real + joint[2, 2].real == 0.0:
            assert weight == 0.0


class TestWeakElectronWindow:
    def entangled_state(self, theta=math.pi):
        state = prepare_initial()
        from weakmeas.spinsys import pulse_unitary

        u = pulse_unitary(RotationPulse(Frequency.NU_E2, theta))
        return JointState(DensityMatrix(u @ state.rho.matrix @ u.conj().T))

    @settings(deadline=None, max_examples=200)
    @given(
        st.floats(1e-3, 1e6),
        st.floats(0.0, 5.0),
        st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
    )
    def test_branch_weights_complete(self, gamma_up, t_m, entries):
        """On a random mixed joint state, each outcome's weight and nuclear
        state equal those of the window's Kraus operators, built here:
        sqrt(S_up) P_up + sqrt(S_down) P_down for no blip, and
        sqrt(1 - S_up) P_up for the up electron tunneling out, where a
        down electron never tunnels (S_down = 1).  The weights sum to 1
        (sum of K^dagger K is the identity)."""
        re, im = np.array(entries).reshape(2, 4, 4)
        a = re + 1j * im
        rho = a @ a.conj().T
        trace = np.trace(rho).real
        assume(trace > 1e-6)
        joint = (rho + rho.conj().T) / (2.0 * trace)
        model = TunnelModel(gamma_up_out=gamma_up, t_m=t_m)
        su, sd = model.survival_up, 1.0

        def branch(*kraus):
            return sum(k @ joint @ k.conj().T for k in (np.kron(np.eye(2), e) for e in kraus))

        kraus_branches = {
            NO_BLIP: branch(np.sqrt(su) * PROJ_UP + np.sqrt(sd) * PROJ_DOWN),
            BLIP: branch(np.sqrt(1.0 - su) * PROJ_UP, np.sqrt(1.0 - sd) * PROJ_DOWN),
        }
        total = 0.0
        for outcome, kraus_branch in kraus_branches.items():
            weight = np.trace(kraus_branch).real
            total += weight
            try:
                post = weak_electron_window(JointState(DensityMatrix(joint)), model, outcome)
            except ImpossibleBranchError:  # weight below ZERO_BRANCH_TOL
                assert weight < 1e-12
                continue
            assert post.success_probability == pytest.approx(weight, abs=1e-12)
            want = qmath._nuclear_reduced(kraus_branch / weight)
            assert np.max(np.abs(post.state.rho.matrix - want)) < 1e-12
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_projective_blip_heralds_nuclear_up(self):
        # the conditional pulse flips the electron on the nuclear-up branch,
        # so a tunnel event heralds the nucleus up
        post = weak_electron_window(
            self.entangled_state(), TunnelModel.projective(1.0), BLIP
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

    def test_blip_without_down_electron(self):
        """No electron is down, but p_up = 0.1/0.4 + 0.3/0.4 rounds below 1:
        the blip is the up electron's alone, its state the up block
        renormalised, with no 0 / 0 from the empty down block."""
        rho = np.diag([0.1 / 0.4, 0.0, 0.3 / 0.4, 0.0]).astype(complex)
        assert rho[0, 0].real + rho[2, 2].real < 1.0
        model = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        post = weak_electron_window(JointState(DensityMatrix(rho)), model, BLIP)
        assert np.max(np.abs(post.state.rho.matrix - np.diag([0.25, 0.75]))) < 1e-15
        assert post.success_probability == pytest.approx(-math.expm1(-1.0), abs=1e-15)

    def test_blip_impossible_without_decay(self):
        state = prepare_initial()  # electron down, nothing tunnels
        model = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        with pytest.raises(ImpossibleBranchError):
            weak_electron_window(state, model, BLIP)

    def test_zero_trace_no_blip_child_leaves_a_certain_blip(self):
        """An electron up for certain, in a state whose trace is one ulp
        below 1, blips at a projective window with a product that rounds
        to 1 - 2**-53, yet its no-blip child has trace 0.  The channel's
        blip weight is then exactly 1.0, the blip branch is certain, and
        the no-blip branch stays impossible."""
        nucleus = np.diag([0.1, np.nextafter(0.9, 0.0)])
        state = JointState(DensityMatrix(qmath.kron(nucleus, PROJ_UP)))
        model = TunnelModel.projective(1.0)
        assert _node_blip_weight(state.rho.matrix, model) == 1.0
        assert weak_electron_window(state, model, BLIP).success_probability == 1.0
        with pytest.raises(ImpossibleBranchError):
            weak_electron_window(state, model, NO_BLIP)

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

    @pytest.mark.parametrize("p_fn, p_fp", [(0.2, 0.05), (0.2, 0.0), (0.0, 0.1), (0.45, 0.5)])
    def test_roundtrip_under_label_errors(self, p_fn, p_fp):
        """The kept no-blip sigma_z of the Bell window under label errors,
        built from the window's two forced outcomes: true no-blips kept with
        weight 1 - p_fp, true blips read as none with weight p_fn.  The
        inversion given the same rates returns 1/Gamma."""
        for gamma in (0.2, 0.7, 2.0, 5.0):
            model = TunnelModel(gamma_up_out=gamma, t_m=1.5)
            mass = moment = 0.0
            for outcome, label_weight in ((NO_BLIP, 1.0 - p_fp), (BLIP, p_fn)):
                post = weak_electron_window(prepare_bell(), model, outcome)
                w = label_weight * post.success_probability
                mass += w
                moment += w * tomography_expectations(post.state).sigma_z
            inv_gamma = extract_tunnel_rate(moment / mass, 1.5, p_fn, p_fp)
            assert inv_gamma == pytest.approx(1.0 / gamma, rel=1e-9)

    @settings(max_examples=500)
    @given(st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True), st.floats(0.1, 10.0))
    def test_no_label_errors_is_the_noiseless_inversion(self, sigma_z, t_m):
        """Without label errors the inversion is -t_m / log((1 + s) / (1 - s)),
        bit for bit, wherever that is finite."""
        ratio = (1.0 + sigma_z) / (1.0 - sigma_z)
        assume(ratio < 1.0)
        assert extract_tunnel_rate(sigma_z, t_m) == -t_m / math.log(ratio)

    def test_projective_end_under_label_errors(self):
        """sigma_z = (b - a) / (a + b), with a = 1 - p_fp and b = p_fn, is
        the projective end: Gamma -> inf."""
        end = (0.2 - 0.95) / (0.95 + 0.2)
        with pytest.raises(ProjectiveLimitError):
            extract_tunnel_rate(end - 1e-9, 1.0, 0.2, 0.05)
        assert tunnel_rate_limits(end - 1e-9, 1.0, 0.2, 0.05) == 0.0
        assert 0.0 < extract_tunnel_rate(end + 1e-9, 1.0, 0.2, 0.05) < 0.1
        assert tunnel_rate_limits(0.1, 1.0, 0.2, 0.05) == math.inf

    def test_sigma_z_too_close_to_zero(self):
        """A sigma_z so near 0 that exp(-Gamma t_m) rounds to 1 is too weak,
        not a division by zero."""
        with pytest.raises(MeasurementTooWeakError):
            extract_tunnel_rate(-1e-17, 1.0)
        with pytest.raises(MeasurementTooWeakError):
            extract_tunnel_rate(-1e-17, 1.0, 0.2, 0.05)

    @pytest.mark.parametrize("p_fn, p_fp", [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.6, 0.5)])
    def test_refuses_labels_without_information(self, p_fn, p_fp):
        """Where p_fn >= 1 - p_fp a blip reads as no blip at least as often
        as a no blip does, so the labels carry no information on Gamma: the
        inversion refuses, and neither inverts nor maps to a limit."""
        for sigma_z in (-0.5, 0.0, 0.5):
            for invert in (extract_tunnel_rate, tunnel_rate_limits):
                with pytest.raises(ValueError, match="no information") as err:
                    invert(sigma_z, 1.0, p_fn, p_fp)
                assert type(err.value) is ValueError

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
            prepare_initial(), RotationPulse(Frequency.NU_E2, math.pi / 2), NO_BLIP
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

    @staticmethod
    def steered(theta: float) -> NuclearState:
        """The forced-outcome channel: the Bell pair's electron rotated by
        theta, then a projective window kept on no-blip."""
        pulse = RotationPulse(Frequency.ESR_BOTH, theta)
        return weak_nuclear_measure(prepare_bell(), pulse).state

    @classmethod
    def assert_closed_form(cls, thetas):
        """``steering_scan`` is the closed form (-sin theta, 0, -cos theta),
        bit for bit, so supp6's analytic column shares no arithmetic with
        the shot engine; the channel the engine runs, pulse and readout
        window on the Bell pair, equals it to 1e-12."""
        for theta in thetas:
            want = (-math.sin(theta), 0.0, -math.cos(theta))
            result = steering_scan(theta)
            got = (result.sigma_x, result.sigma_y, result.sigma_z)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            channel = tomography_expectations(cls.steered(theta))
            assert channel.sigma_x == pytest.approx(want[0], abs=1e-12)
            assert channel.sigma_y == pytest.approx(want[1], abs=1e-12)
            assert channel.sigma_z == pytest.approx(want[2], abs=1e-12)
            assert channel.bloch_norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_grid(self):
        self.assert_closed_form(default_theta_grid())  # the figure's 41 angles
        self.assert_closed_form(np.linspace(0.05, 2 * math.pi - 0.05, 17))

    @settings(deadline=None, max_examples=300)
    @given(st.floats(-4 * math.pi, 4 * math.pi))
    def test_closed_form_random(self, theta):
        self.assert_closed_form([theta])

    def test_steered_states_are_pure(self):
        # every post-selected nuclear state sits on the Bloch sphere: the
        # hallmark of steering a maximally entangled pair
        bell = prepare_bell()
        assert qmath.purity(bell.rho) == pytest.approx(1.0)
        for theta in (0.4, 1.7, 3.0, 5.1):
            assert qmath.purity(self.steered(theta).rho) == pytest.approx(1.0, abs=1e-10)
            assert steering_scan(theta).bloch_norm_sq == pytest.approx(
                1.0, abs=1e-10
            )


class TestPostSelectedState:
    def test_rejects_bad_probability(self):
        nuclear = NuclearState(DensityMatrix(np.eye(2, dtype=complex) / 2))
        with pytest.raises(ValueError):
            PostSelectedState(nuclear, 1.5)
