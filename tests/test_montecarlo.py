"""Trajectory sampler tests: determinism, agreement with the closed forms,
noise knobs, the shot columns and the estimators that read them."""

import itertools
import math

import numpy as np
import pytest

import reference_sampler as ref
from weakmeas.montecarlo import (
    CHI2_1DOF_95,
    NO_NOISE,
    GammaEstimate,
    NoInformationError,
    NoiseConfig,
    Protocol,
    ProtocolError,
    SHOT_BLOCK,
    Shots,
    _dephasing_factor,
    conditional_state,
    estimate_gamma_from_blips,
    recorded_blip_times,
    run_shots,
    stats_from_records,
)
from weakmeas.protocols import (
    BLIP,
    NO_BLIP,
    TunnelModel,
    _no_blip_damping,
    _node_after_window,
    _node_blip_weight,
    closed_form_sequence,
    sigma_z_noblip,
    success_probability_n,
)
from weakmeas.qmath import DensityMatrix, _nuclear_reduced, kron
from weakmeas.spinsys import (
    PROJ_DOWN,
    PROJ_UP,
    Frequency,
    JointState,
    RotationPulse,
    _node_pulse,
    prepare_bell,
)

PROJECTIVE = TunnelModel.projective(1.0)
NUCLEUS_UP = JointState(DensityMatrix(kron(PROJ_UP, PROJ_DOWN)))  # the electron down


def measure_protocol(theta, n=1):
    """n equal conditional measurements, each read out projectively."""
    steps = []
    for _ in range(n):
        steps.append(RotationPulse(Frequency.NU_E2, theta))
        steps.append(PROJECTIVE)
    return Protocol(steps=tuple(steps))


def bell_window_protocol(gamma, t_m):
    return Protocol(steps=(TunnelModel(gamma_up_out=gamma, t_m=t_m),), initial=prepare_bell())


REVERSAL_AT_PI = Protocol(
    steps=(
        RotationPulse(Frequency.NU_E2, math.pi),
        PROJECTIVE,
        RotationPulse(Frequency.NU_E1, math.pi),
        PROJECTIVE,
    )
)


class TestProtocolValidation:
    @pytest.mark.parametrize(
        "bad",
        [object(), None, "z", Frequency.NU_E2, (PROJECTIVE,)],
        ids=["object", "None", "str", "Frequency", "tuple"],
    )
    def test_rejects_a_step_that_is_not_a_pulse_or_a_window(self, bad):
        """A malformed step is refused when the protocol is built, not
        deep in the engine with an AttributeError, wherever it stands."""
        for steps in ((bad,), (bad, PROJECTIVE), (RotationPulse(Frequency.NU_E2, 1.0), bad)):
            with pytest.raises(ProtocolError, match="RotationPulse or TunnelModel"):
                Protocol(steps=steps)

    def test_windows_property(self):
        p = measure_protocol(1.0, n=3)
        assert len(p.windows) == 3

    def test_no_blip_damping_is_shared_and_read_only(self):
        model = TunnelModel(gamma_up_out=0.7, t_m=1.5)
        damping = _no_blip_damping(model)
        assert _no_blip_damping(TunnelModel(0.7, 1.5)) is damping
        d = np.sqrt([model.survival_up, 1.0] * 2)
        assert np.array_equal(damping, np.outer(d, d))
        with pytest.raises(ValueError):
            damping[0, 0] = 1.0


class TestDeterminism:
    def test_same_stream_same_record(self):
        p = measure_protocol(math.pi / 2)
        a = run_shots(p, n_shots=8, rng_seed=7)
        b = run_shots(p, n_shots=8, rng_seed=7)
        assert a == b

    def test_streams_are_independent(self):
        p = bell_window_protocol(gamma=1.0, t_m=1.5)
        outcomes = set(run_shots(p, n_shots=64, rng_seed=7).outcome[:, 2].tolist())  # z
        assert outcomes >= {1, -1}

    def test_seed_must_be_a_philox_key(self):
        p = measure_protocol(math.pi / 2)
        for seed in (2**64 + 5, -(2**63) - 1):
            with pytest.raises(ValueError, match="rng_seed"):
                run_shots(p, n_shots=8, rng_seed=seed)
        # a negative seed keys the stream as its 64-bit mask
        assert run_shots(p, n_shots=8, rng_seed=-5) == run_shots(
            p, n_shots=8, rng_seed=2**64 - 5
        )
        run_shots(p, n_shots=8, rng_seed=-(2**63))

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_jobs_must_be_positive(self, n_jobs):
        """A non-positive job count is refused, as RunConfig refuses it,
        not run serially."""
        p = measure_protocol(math.pi / 2)
        with pytest.raises(ValueError, match=r"^n_jobs must be >= 1$"):
            run_shots(p, NO_NOISE, 100, 1, n_jobs)

    def test_parallel_matches_serial(self, worker_chunks):
        p = bell_window_protocol(gamma=1.0, t_m=1.5)
        n = 3 * SHOT_BLOCK + 7  # three chunks at n_jobs=3
        serial = run_shots(p, n_shots=n, rng_seed=11)
        parallel = run_shots(p, n_shots=n, rng_seed=11, n_jobs=3)
        assert serial == parallel
        assert worker_chunks() > 0

    def test_record_carries_stream_id(self):
        """Row i of the columns is shot i, drawn from stream (seed, i)."""
        p = bell_window_protocol(gamma=1.0, t_m=1.5)
        shots = run_shots(p, n_shots=40, rng_seed=3)
        for i in range(40):
            one = ref.sample_columns(p, NO_NOISE, 3, i, i + 1)
            assert np.array_equal(shots.outcome[i], one.outcome[0])
            assert np.array_equal(shots.blip_times[i], one.blip_times[0], equal_nan=True)


class TestTrivialProtocols:
    def test_eigenstate_tomography_is_deterministic(self):
        p = Protocol(steps=(), initial=NUCLEUS_UP)
        stats = stats_from_records(run_shots(p, n_shots=50, rng_seed=1), "z")
        assert stats.n_kept == 50
        assert stats.mean == 1.0

    def test_superposition_x_tomography(self):
        p = Protocol(steps=())
        stats = stats_from_records(run_shots(p, n_shots=50, rng_seed=1), "x")
        assert stats.mean == 1.0

    def test_superposition_z_is_a_coin_flip(self):
        p = Protocol(steps=())
        stats = stats_from_records(run_shots(p, n_shots=4000, rng_seed=1), "z")
        assert abs(stats.mean) < 4 * stats.std_error + 1e-12
        assert stats.std_error == pytest.approx(
            math.sqrt((1 - stats.mean**2) / 4000)
        )


class TestAgainstClosedForms:
    def test_single_measurement_success_fraction(self):
        theta = math.pi / 2
        p = measure_protocol(theta)
        stats = stats_from_records(run_shots(p, n_shots=10_000, rng_seed=3), "z")
        expected = success_probability_n(theta, 1)
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(stats.success_fraction - expected) < 4 * se

    def test_single_measurement_mean(self):
        p = measure_protocol(math.pi / 2)
        stats = stats_from_records(run_shots(p, n_shots=10_000, rng_seed=3), "z")
        assert abs(stats.mean - (-1 / 3)) < 4 * stats.std_error

    def test_repeated_measurement_success_fraction(self):
        theta, n = math.pi / 2, 3
        shots = run_shots(measure_protocol(theta, n=n), n_shots=10_000, rng_seed=5)
        stats = stats_from_records(shots, "z")
        expected = success_probability_n(theta, n)
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(stats.success_fraction - expected) < 4 * se

    def test_finite_window_sigma_z(self):
        model = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        p = Protocol(steps=(RotationPulse(Frequency.NU_E2, math.pi / 2), model))
        stats = stats_from_records(run_shots(p, n_shots=20_000, rng_seed=9), "z")
        expected = sigma_z_noblip(math.pi / 2, model)
        assert abs(stats.mean - expected) < 4 * stats.std_error


class TestForcedOutcomes:
    def test_matches_closed_form_single(self):
        p = measure_protocol(math.pi / 2)
        forced = conditional_state(p, [NO_BLIP])
        closed = closed_form_sequence([(math.pi / 2, Frequency.NU_E2)])
        assert np.max(np.abs(forced.state.rho.matrix - closed.state.rho.matrix)) < 1e-12
        assert forced.success_probability == pytest.approx(
            closed.success_probability, abs=1e-12
        )

    def test_matches_closed_form_repeated(self):
        theta, n = 1.1, 3
        p = measure_protocol(theta, n=n)
        forced = conditional_state(p, [NO_BLIP] * n)
        closed = closed_form_sequence([(theta, Frequency.NU_E2)] * n)
        assert np.max(np.abs(forced.state.rho.matrix - closed.state.rho.matrix)) < 1e-12
        assert forced.success_probability == pytest.approx(
            closed.success_probability, abs=1e-12
        )

    def test_outcome_count_mismatch(self):
        with pytest.raises(ProtocolError):
            conditional_state(measure_protocol(1.0), [NO_BLIP, NO_BLIP])

    def test_unknown_outcome(self):
        with pytest.raises(ProtocolError):
            conditional_state(measure_protocol(1.0), ["shrug"])

    def test_branch_probabilities_complete(self):
        p = bell_window_protocol(gamma=1.0, t_m=1.5)
        w = conditional_state(p, [NO_BLIP]).success_probability
        w += conditional_state(p, [BLIP]).success_probability
        assert w == pytest.approx(1.0, abs=1e-12)


DOWN_ELECTRON = np.array([[0, 0], [0, 1]], dtype=complex)


class TestDephasing:
    def test_frozen_factor(self):
        """One 1 ms window at T2* = 1 ms scales sigma_x and sigma_y by exp(-1);
        two windows by exp(-(T/T2*)^2) at their total time T."""
        window = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        assert _dephasing_factor((window,), 1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        second = TunnelModel.projective(0.5)
        assert _dephasing_factor((window, second), 2.0) == pytest.approx(
            math.exp(-0.5625), abs=1e-15
        )

    def test_factor_is_the_average_over_static_detunings(self):
        """A Gaussian T2* is the free-induction decay of a detuning that is
        static within a shot and drawn as delta ~ N(0, 2/T2*^2) across
        shots.  Each window advances the nuclear coherence by its own phase
        delta * t_m; the sigma_x of two kept windows, averaged over 400,000
        sampled detunings, is the forced state's times the engine's one
        factor, exp(-(T/T2*)^2) at total time T = 2.5 ms, not the
        per-window product exp(-0.8125)."""
        t2star = 2.0
        windows = (TunnelModel(gamma_up_out=0.3, t_m=1.0), TunnelModel(gamma_up_out=0.8, t_m=1.5))
        state = conditional_state(Protocol(windows), [NO_BLIP, NO_BLIP]).state
        delta = np.random.default_rng(5).normal(0.0, math.sqrt(2.0) / t2star, 400_000)
        phase = np.zeros_like(delta)
        for window in windows:
            phase += delta * window.t_m
        sigma_x = 2.0 * (state.rho.matrix[0, 1] * np.exp(1j * phase)).real
        error = sigma_x.std() / math.sqrt(len(delta))
        want = 2.0 * state.rho.matrix[0, 1].real * _dephasing_factor(windows, t2star)
        assert want == pytest.approx(math.exp(-1.5625), abs=1e-15)
        assert sigma_x.mean() == pytest.approx(want, abs=5.0 * error)

    def test_no_t2star_is_exactly_one(self):
        windows = (TunnelModel(gamma_up_out=1.0, t_m=1e200), PROJECTIVE)
        assert _dephasing_factor(windows, None) == 1.0
        assert _dephasing_factor((), 1.0) == 1.0

    def test_populations_untouched(self):
        """The tests' per-window reference scales only the coherences."""
        m = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        out = ref._dephase_joint(np.kron(m, DOWN_ELECTRON), 1.0, 2.0, 0.5)
        nuclear = _nuclear_reduced(out)
        assert nuclear[0, 0].real == pytest.approx(0.7)
        assert nuclear[1, 1].real == pytest.approx(0.3)

    @pytest.mark.filterwarnings("error")
    def test_ratio_beyond_the_float_range_dephases_fully(self):
        """At t_m/T2* = 1e200 the square overflows a float; the factor is
        then exactly 0.0, as exp gives long before, with no warning, also
        when another window's factor is finite."""
        huge = TunnelModel(gamma_up_out=1.0, t_m=1e200)
        assert _dephasing_factor((huge,), 1.0) == 0.0
        assert _dephasing_factor((PROJECTIVE, huge), 1.0) == 0.0

    def test_shrinks_transverse_not_longitudinal(self):
        noise = NoiseConfig(nuclear_dephasing_time=0.1)
        window = TunnelModel(gamma_up_out=1e-6, t_m=1.0)
        # coherence protocol: x tomography on the untouched superposition
        px = Protocol(steps=(window,))
        clean = stats_from_records(run_shots(px, n_shots=4000, rng_seed=4), "x")
        noisy = stats_from_records(run_shots(px, noise=noise, n_shots=4000, rng_seed=4), "x")
        assert clean.mean == 1.0
        assert abs(noisy.mean) < 0.05
        # population protocol: z tomography on an eigenstate is unaffected
        pz = Protocol(steps=(window,), initial=NUCLEUS_UP)
        shots = run_shots(pz, noise=noise, n_shots=200, rng_seed=4)
        assert stats_from_records(shots, "z").mean == 1.0


def random_joint(seed):
    """A random full-rank 4x4 joint density matrix."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def nuclear_z_phase(phi):
    """exp(-i phi sigma_z / 2) on the nucleus, identity on the electron."""
    return np.kron(np.diag([np.exp(-0.5j * phi), np.exp(0.5j * phi)]), np.eye(2))


class TestStepsCommuteWithNuclearZPhase:
    """The engine applies the windows' dephasing once at tomography, which
    is exact because every step commutes with a nuclear z phase Z: it maps
    Z rho Z^dagger to Z step(rho) Z^dagger, and no blip weight moves."""

    PHI = 0.7

    @pytest.mark.parametrize("frequency", list(Frequency), ids=lambda f: f.name)
    @pytest.mark.parametrize("seed", range(3))
    def test_pulse(self, frequency, seed):
        rho, z = random_joint(seed), nuclear_z_phase(self.PHI)
        pulse = RotationPulse(frequency, 1.0 + seed)
        got = _node_pulse(z @ rho @ z.conj().T, pulse)
        want = z @ _node_pulse(rho, pulse) @ z.conj().T
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize(
        "window", [TunnelModel(gamma_up_out=0.8, t_m=1.3), PROJECTIVE], ids=["finite", "projective"]
    )
    @pytest.mark.parametrize("blip", [0, 1], ids=["no_blip", "blip"])
    @pytest.mark.parametrize("seed", range(3))
    def test_window(self, window, blip, seed):
        rho, z = random_joint(seed), nuclear_z_phase(self.PHI)
        rotated = z @ rho @ z.conj().T
        got = _node_after_window(rotated, window, blip)
        want = z @ _node_after_window(rho, window, blip) @ z.conj().T
        assert np.max(np.abs(got - want)) < 1e-12
        assert _node_blip_weight(rotated, window) == pytest.approx(
            _node_blip_weight(rho, window), abs=1e-12
        )


class TestLabelErrors:
    def test_certain_false_positive_discards_noblip_shots(self):
        noise = NoiseConfig(readout_false_positive=1.0)
        p = Protocol(
            steps=(TunnelModel(gamma_up_out=1.0, t_m=1.0),),
            initial=NUCLEUS_UP,  # electron down: never tunnels
        )
        stats = stats_from_records(run_shots(p, noise=noise, n_shots=100, rng_seed=6), "z")
        assert stats.n_kept == 0
        assert stats.empty

    def test_certain_false_negative_hides_blips(self):
        """Every up electron tunnels out, and every blip is read as none:
        each shot is kept, and none records a blip time."""
        noise = NoiseConfig(readout_false_negative=1.0)
        p = bell_window_protocol(gamma=1e3, t_m=1.0)
        shots = run_shots(p, noise=noise, n_shots=100, rng_seed=6)
        assert stats_from_records(shots, "z").n_kept == 100
        assert np.isnan(shots.blip_times).all()

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(readout_false_positive=-0.1)
        with pytest.raises(ValueError):
            NoiseConfig(nuclear_dephasing_time=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(nuclear_dephasing_time=math.nan)


class TestStats:
    def test_empty_records(self):
        rejected = Shots(np.zeros((10, 3), dtype=np.int8), np.full((10, 1), np.nan))
        stats = stats_from_records(rejected, "z")
        assert stats.empty
        assert stats.mean is None and stats.std_error is None

    def test_order_insensitive(self):
        p = measure_protocol(math.pi / 2)
        shots = run_shots(p, n_shots=500, rng_seed=8)
        a = stats_from_records(shots, "z")
        b = stats_from_records(Shots(shots.outcome[::-1], shots.blip_times[::-1]), "z")
        assert (a.mean, a.std_error, a.n_kept) == (b.mean, b.std_error, b.n_kept)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            run_shots(measure_protocol(1.0), n_shots=0)


class TestShots:
    def test_equality_is_a_bool_and_nan_aware(self):
        times = [[0.25, np.nan], [np.nan, np.nan], [np.nan, 1.5]]

        def shots(outcome=(1, 0, -1), change_time=None):
            t = np.array(times)
            if change_time is not None:
                t[change_time] = 0.5
            return Shots(np.repeat(np.array(outcome, dtype=np.int8)[:, None], 3, axis=1), t)

        assert (shots() == shots()) is True
        assert (shots() == shots(outcome=(1, 0, 1))) is False
        assert (shots() == shots(change_time=(2, 1))) is False  # a recorded time
        assert (shots() == shots(change_time=(0, 1))) is False  # NaN against a time
        assert shots() != "not shots"

    def test_length_is_the_shot_count(self):
        assert len(run_shots(measure_protocol(1.0), n_shots=7)) == 7


def blip_mle(shots, t_m, p=0.5):
    """The blip-time MLE from every shot of a single-window run."""
    return estimate_gamma_from_blips(recorded_blip_times(shots), len(shots), t_m, p)


def outcome_of(fn, *args):
    """``fn(*args)``, or the type of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err)


class TestEstimatorsMatchRecords:
    """The column estimators give, float for float, what the record-based
    arithmetic of the reference sampler gives on the same shots."""

    @pytest.mark.parametrize(
        "protocol, noise, n_shots, gamma_error",
        [
            (  # fig3's ensemble: Bell pair, one finite window kept on no-blip
                bell_window_protocol(1.0, 1.5),
                NoiseConfig(nuclear_dephasing_time=2.0),
                10_000,
                None,
            ),
            # no electron tunnels, and every shot is read as a blip
            (measure_protocol(0.0), NoiseConfig(readout_false_positive=1.0), 300,
             NoInformationError),
            # reversal at theta = pi: every shot is rejected, in the first
            # window or in the second; the protocol has two windows, so the
            # estimator refuses it
            (REVERSAL_AT_PI, NO_NOISE, 300, ProtocolError),
            (measure_protocol(math.pi / 2, n=2), NO_NOISE, 300, ProtocolError),
        ],
        ids=["dephased bell window", "all rejected", "all rejected, two windows",
             "two windows"],
    )
    def test_estimators(self, protocol, noise, n_shots, gamma_error):
        shots = run_shots(protocol, noise, n_shots, 22)
        records = ref.sample_records(protocol, "z", noise, 22, 0, n_shots)
        n_windows = len(protocol.windows)
        assert Shots(shots.outcome[:, [2]], shots.blip_times) == ref.to_shots(records, n_windows)
        assert stats_from_records(shots, "z") == ref.stats_from_records(records)
        t_m = protocol.windows[0].t_m
        got = outcome_of(blip_mle, shots, t_m)
        assert got == outcome_of(
            ref.estimate_gamma_from_records, records, n_windows, t_m
        )
        if gamma_error is None:
            assert isinstance(got, GammaEstimate)
            # at seed 22 the dephased ensemble's blip times sum to another
            # last bit, and give another MLE, pairwise (np.sum) or correctly
            # rounded (math.fsum, which builtin sum() approaches from Python
            # 3.12) than left to right in shot order, as the reference sums
            times = recorded_blip_times(shots)
            for sum_t in (float(np.sum(times)), math.fsum(times)):
                assert ref.mle_from_sum(sum_t, len(times), n_shots, t_m) != got
        else:
            assert got is gamma_error


class TestGammaEstimator:
    def test_recovers_rate_within_five_percent(self):
        gamma, t_m = 1.0, 1.5
        shots = run_shots(
            bell_window_protocol(gamma, t_m), n_shots=10_000, rng_seed=12
        )
        est = blip_mle(shots, t_m)
        assert est.inv_gamma == pytest.approx(1.0 / gamma, rel=0.05)
        assert est.ci_low < 1.0 / gamma < est.ci_high
        assert est.n_blips + est.n_censored == 10_000

    def test_recovers_fast_rate(self):
        gamma, t_m = 4.0, 1.5
        shots = run_shots(
            bell_window_protocol(gamma, t_m), n_shots=10_000, rng_seed=13
        )
        est = blip_mle(shots, t_m)
        assert est.inv_gamma == pytest.approx(1.0 / gamma, rel=0.05)

    def test_no_blips_raises(self):
        shots = Shots(np.ones((10, 3), dtype=np.int8), np.full((10, 1), np.nan))
        with pytest.raises(NoInformationError):
            blip_mle(shots, 1.5)

    @pytest.mark.parametrize(
        "times, n_shots, end",
        [
            ([0.1], 10**12, "zero rate"),  # one blip in 10**12 shots
            ([0.0, 0.0, 0.0], 3, "infinite rate"),  # every blip at the window's start
        ],
        ids=["zero_rate", "infinite_rate"],
    )
    def test_refuses_a_likelihood_maximized_at_a_bracket_end(self, times, n_shots, end):
        """Where the likelihood rises all the way to an end of the rate
        bracket there is no estimate to report: the MLE refuses with the
        NoInformationError that a run turns into empty cells."""
        with pytest.raises(NoInformationError, match=f"^likelihood is maximized at {end}$"):
            estimate_gamma_from_blips(np.array(times), n_shots, 1.5, 0.5)

    @pytest.mark.parametrize("t_m", [1e-303, 5e-324])
    def test_refuses_a_window_whose_rate_bracket_overflows(self, t_m):
        """Below t_m of about 5.6e-303 the rate bracket 1e6 / t_m is
        infinite, and the MLE read 0 [0, inf] whatever the data.  It
        refuses with a ValueError naming t_m, which is not the
        NoInformationError a run turns into empty cells."""
        times = np.array([0.3, 0.5, 0.9]) * t_m
        with pytest.raises(ValueError, match="t_m") as info:
            estimate_gamma_from_blips(times, 10, t_m, 0.5)
        assert not isinstance(info.value, NoInformationError)

    def test_rejects_multi_window_records(self):
        shots = Shots(np.ones((1, 3), dtype=np.int8), np.array([[0.1, np.nan]]))
        with pytest.raises(ProtocolError):
            recorded_blip_times(shots)

    def test_rejects_two_windows_when_every_shot_stops_at_the_first(self):
        """Every up electron tunnels in the first window and is rejected
        there, so no shot reaches the second; the blip times still come
        from a two-window protocol."""
        window = TunnelModel(20.0, 1.5)
        p = Protocol(
            steps=(RotationPulse(Frequency.ESR_BOTH, math.pi), window, window)
        )
        shots = run_shots(p, n_shots=1000, rng_seed=1)
        assert not shots.outcome.any()
        assert np.isnan(shots.blip_times[:, 1]).all()
        with pytest.raises(ProtocolError):
            recorded_blip_times(shots)

    def test_interval_narrows_with_data(self):
        gamma, t_m = 1.0, 1.5
        p = bell_window_protocol(gamma, t_m)
        small = blip_mle(run_shots(p, n_shots=500, rng_seed=14), t_m)
        large = blip_mle(run_shots(p, n_shots=8_000, rng_seed=14), t_m)
        assert (large.ci_high - large.ci_low) < (small.ci_high - small.ci_low)

    def test_matches_brentq(self):
        """The estimator's roots equal scipy's brentq run at its finest
        tolerance, on a grid of (n_blips, n_censored, sum of times, p, t_m)."""
        from scipy.optimize import brentq

        def reference(n_blips, n_censored, sum_t, p, t_m):
            def loglik(g):
                return (n_blips * math.log(p * g) - g * sum_t
                        + n_censored * math.log(1.0 - p + p * math.exp(-g * t_m)))

            def score(g):
                e = math.exp(-g * t_m)
                return n_blips / g - sum_t - n_censored * p * t_m * e / (1.0 - p + p * e)

            tight = dict(xtol=1e-300, rtol=4 * np.finfo(float).eps)
            lo, hi = 1e-9 / t_m, 1e6 / t_m
            g_hat = brentq(score, lo, hi, **tight)
            target = loglik(g_hat) - CHI2_1DOF_95 / 2.0

            def deficit(g):
                return loglik(g) - target

            g_low = brentq(deficit, lo, g_hat, **tight) if deficit(lo) < 0 else lo
            g_high = brentq(deficit, g_hat, hi, **tight) if deficit(hi) < 0 else hi
            return 1.0 / g_hat, 1.0 / g_high, math.inf if g_low <= lo else 1.0 / g_low

        for n_blips, n_censored, mean_t, p, t_m in itertools.product(
            (1, 40, 900), (0, 25, 1500), (0.05, 0.3), (0.5, 0.8), (0.2, 1.5, 12.0)
        ):
            times = [mean_t * t_m * (0.5 + (i % 5) / 4) for i in range(n_blips)]
            est = estimate_gamma_from_blips(np.array(times), n_blips + n_censored, t_m, p)
            expected = reference(n_blips, n_censored, float(sum(times)), p, t_m)
            case = (n_blips, n_censored, mean_t, p, t_m)
            assert (est.inv_gamma, est.ci_low, est.ci_high) == pytest.approx(
                expected, rel=1e-12
            ), case
