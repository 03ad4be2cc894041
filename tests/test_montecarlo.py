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
    NuclearTomography,
    Protocol,
    ProtocolError,
    ReadoutWindow,
    SHOT_BLOCK,
    Shots,
    _dephase_joint,
    _no_blip_damping,
    conditional_state,
    estimate_gamma_from_blips,
    run_shots,
    stats_from_records,
)
from weakmeas.protocols import (
    BLIP,
    NO_BLIP,
    TunnelModel,
    closed_form_sequence,
    sigma_z_noblip,
    success_probability_n,
)
from weakmeas.qmath import ELECTRON, partial_trace
from weakmeas.spinsys import (
    Frequency,
    RotationPulse,
    prepare_bell,
    prepare_initial,
)

PROJECTIVE = TunnelModel.projective()


def measure_protocol(theta, axis="z", keep=NO_BLIP, n=1):
    """n equal conditional measurements, each read out projectively."""
    steps = []
    for _ in range(n):
        steps.append(RotationPulse(Frequency.NU_E2, theta))
        steps.append(ReadoutWindow(PROJECTIVE, keep=keep))
    steps.append(NuclearTomography(axis))
    return Protocol(steps=tuple(steps))


def bell_window_protocol(gamma, t_m, keep="both", axis="z"):
    return Protocol(
        steps=(
            ReadoutWindow(TunnelModel(gamma_up_out=gamma, t_m=t_m), keep=keep),
            NuclearTomography(axis),
        ),
        initial=prepare_bell(),
    )


class TestProtocolValidation:
    def test_requires_terminal_tomography(self):
        with pytest.raises(ProtocolError):
            Protocol(steps=(RotationPulse(Frequency.NU_E2, 1.0),))

    def test_rejects_mid_sequence_tomography(self):
        with pytest.raises(ProtocolError):
            Protocol(
                steps=(
                    NuclearTomography("z"),
                    RotationPulse(Frequency.NU_E2, 1.0),
                    NuclearTomography("z"),
                )
            )

    def test_rejects_bad_keep_policy(self):
        with pytest.raises(ProtocolError):
            ReadoutWindow(PROJECTIVE, keep="sometimes")

    def test_rejects_bad_axis(self):
        with pytest.raises(ProtocolError):
            NuclearTomography("r")

    def test_windows_property(self):
        p = measure_protocol(1.0, n=3)
        assert len(p.windows) == 3

    def test_no_blip_damping_is_shared_and_read_only(self):
        model = TunnelModel(gamma_up_out=0.7, t_m=1.5, gamma_down_out=0.2)
        damping = _no_blip_damping(model)
        assert _no_blip_damping(TunnelModel(0.7, 1.5, 0.2)) is damping
        d = np.sqrt([model.survival_up, model.survival_down] * 2)
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
        outcomes = set(run_shots(p, n_shots=64, rng_seed=7).outcome[:, 0].tolist())
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
            one = ref.to_shots([ref.sample_shot(p, rng_seed=3, shot_index=i)], 1)
            assert (shots.outcome[i], shots.windows_seen[i]) == (
                one.outcome[0], one.windows_seen[0]
            )
            assert np.array_equal(shots.blip_times[i], one.blip_times[0], equal_nan=True)


class TestTrivialProtocols:
    def test_eigenstate_tomography_is_deterministic(self):
        p = Protocol(steps=(NuclearTomography("z"),), initial=prepare_initial("up"))
        stats = stats_from_records(run_shots(p, n_shots=50, rng_seed=1))
        assert stats.n_kept == 50
        assert stats.mean == 1.0

    def test_superposition_x_tomography(self):
        p = Protocol(steps=(NuclearTomography("x"),))
        stats = stats_from_records(run_shots(p, n_shots=50, rng_seed=1))
        assert stats.mean == 1.0

    def test_superposition_z_is_a_coin_flip(self):
        p = Protocol(steps=(NuclearTomography("z"),))
        stats = stats_from_records(run_shots(p, n_shots=4000, rng_seed=1))
        assert abs(stats.mean) < 4 * stats.std_error + 1e-12
        assert stats.std_error == pytest.approx(
            math.sqrt((1 - stats.mean**2) / 4000)
        )


class TestAgainstClosedForms:
    def test_single_measurement_success_fraction(self):
        theta = math.pi / 2
        p = measure_protocol(theta)
        stats = stats_from_records(run_shots(p, n_shots=10_000, rng_seed=3))
        expected = success_probability_n(theta, 1)
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(stats.success_fraction - expected) < 4 * se

    def test_single_measurement_mean(self):
        p = measure_protocol(math.pi / 2)
        stats = stats_from_records(run_shots(p, n_shots=10_000, rng_seed=3))
        assert abs(stats.mean - (-1 / 3)) < 4 * stats.std_error

    def test_repeated_measurement_success_fraction(self):
        theta, n = math.pi / 2, 3
        shots = run_shots(measure_protocol(theta, n=n), n_shots=10_000, rng_seed=5)
        stats = stats_from_records(shots)
        expected = success_probability_n(theta, n)
        se = math.sqrt(expected * (1 - expected) / 10_000)
        assert abs(stats.success_fraction - expected) < 4 * se

    def test_finite_window_sigma_z(self):
        model = TunnelModel(gamma_up_out=1.0, t_m=1.0)
        p = Protocol(
            steps=(
                RotationPulse(Frequency.NU_E2, math.pi / 2),
                ReadoutWindow(model, keep=NO_BLIP),
                NuclearTomography("z"),
            )
        )
        stats = stats_from_records(run_shots(p, n_shots=20_000, rng_seed=9))
        expected = sigma_z_noblip(math.pi / 2, model)
        assert abs(stats.mean - expected) < 4 * stats.std_error

    def test_blip_branch_heralds_nuclear_up(self):
        p = measure_protocol(math.pi / 2, keep=BLIP)
        stats = stats_from_records(run_shots(p, n_shots=2_000, rng_seed=2))
        assert stats.mean == 1.0  # every kept shot has the nucleus up


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
        joint = np.kron(np.full((2, 2), 0.5, dtype=complex), DOWN_ELECTRON)
        out = _dephase_joint(joint, duration=1.0, t2star=1.0)
        nuclear = partial_trace(out, ELECTRON)
        assert nuclear[0, 1].real == pytest.approx(0.18393972058572117, abs=1e-15)

    def test_populations_untouched(self):
        m = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        out = _dephase_joint(np.kron(m, DOWN_ELECTRON), 2.0, 0.5)
        nuclear = partial_trace(out, ELECTRON)
        assert nuclear[0, 0].real == pytest.approx(0.7)
        assert nuclear[1, 1].real == pytest.approx(0.3)

    def test_shrinks_transverse_not_longitudinal(self):
        noise = NoiseConfig(nuclear_dephasing_time=0.1)
        window = ReadoutWindow(TunnelModel(gamma_up_out=1e-6, t_m=1.0))
        # coherence protocol: x tomography on the untouched superposition
        px = Protocol(steps=(window, NuclearTomography("x")))
        clean = stats_from_records(run_shots(px, n_shots=4000, rng_seed=4))
        noisy = stats_from_records(run_shots(px, noise=noise, n_shots=4000, rng_seed=4))
        assert clean.mean == 1.0
        assert abs(noisy.mean) < 0.05
        # population protocol: z tomography on an eigenstate is unaffected
        pz = Protocol(
            steps=(window, NuclearTomography("z")), initial=prepare_initial("up")
        )
        shots = run_shots(pz, noise=noise, n_shots=200, rng_seed=4)
        assert stats_from_records(shots).mean == 1.0


class TestLabelErrors:
    def test_certain_false_positive_discards_noblip_shots(self):
        noise = NoiseConfig(readout_false_positive=1.0)
        p = Protocol(
            steps=(
                ReadoutWindow(TunnelModel(gamma_up_out=1.0, t_m=1.0)),
                NuclearTomography("z"),
            ),
            initial=prepare_initial("up"),  # electron down: never tunnels
        )
        stats = stats_from_records(run_shots(p, noise=noise, n_shots=100, rng_seed=6))
        assert stats.n_kept == 0
        assert stats.empty

    def test_certain_false_negative_hides_blips(self):
        noise = NoiseConfig(readout_false_negative=1.0)
        p = bell_window_protocol(gamma=1e3, t_m=1.0, keep=BLIP)
        stats = stats_from_records(run_shots(p, noise=noise, n_shots=100, rng_seed=6))
        assert stats.n_kept == 0

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(readout_false_positive=-0.1)
        with pytest.raises(ValueError):
            NoiseConfig(nuclear_dephasing_time=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(nuclear_dephasing_time=math.nan)


class TestStats:
    def test_empty_records(self):
        rejected = Shots(
            np.zeros((10, 1), dtype=np.int8), np.full((10, 1), np.nan), np.ones(10, dtype=int)
        )
        stats = stats_from_records(rejected)
        assert stats.empty
        assert stats.mean is None and stats.std_error is None

    def test_order_insensitive(self):
        p = measure_protocol(math.pi / 2)
        shots = run_shots(p, n_shots=500, rng_seed=8)
        a = stats_from_records(shots)
        b = stats_from_records(
            Shots(shots.outcome[::-1], shots.blip_times[::-1], shots.windows_seen[::-1])
        )
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
            return Shots(np.array(outcome, dtype=np.int8)[:, None], t, np.array([2, 1, 2]))

        assert (shots() == shots()) is True
        assert (shots() == shots(outcome=(1, 0, 1))) is False
        assert (shots() == shots(change_time=(2, 1))) is False  # a recorded time
        assert (shots() == shots(change_time=(0, 1))) is False  # NaN against a time
        assert shots() != "not shots"

    def test_length_is_the_shot_count(self):
        assert len(run_shots(measure_protocol(1.0), n_shots=7)) == 7


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
                bell_window_protocol(1.0, 1.5, keep=NO_BLIP),
                NoiseConfig(nuclear_dephasing_time=2.0),
                10_000,
                None,
            ),
            (measure_protocol(0.0, keep=BLIP), NO_NOISE, 300, NoInformationError),
            # every shot is rejected in the first of two windows: the records
            # hold one window each, so this is no-information, not malformed
            (measure_protocol(0.0, keep=BLIP, n=2), NO_NOISE, 300, NoInformationError),
            (measure_protocol(math.pi / 2, n=2), NO_NOISE, 300, ProtocolError),
        ],
        ids=["dephased bell window", "all rejected", "all rejected, two windows",
             "two windows"],
    )
    def test_estimators(self, protocol, noise, n_shots, gamma_error):
        # at seed 22 the dephased ensemble's blip times sum to a different
        # last bit in shot order than pairwise (np.sum), and so does the MLE
        shots = run_shots(protocol, noise, n_shots, 22)
        records = ref.sample_records(protocol, noise, 22, 0, n_shots)
        assert shots == ref.to_shots(records, len(protocol.windows))
        assert stats_from_records(shots) == ref.stats_from_records(records)
        t_m = protocol.windows[0].model.t_m
        got = outcome_of(estimate_gamma_from_blips, shots, t_m)
        assert got == outcome_of(ref.estimate_gamma_from_records, records, t_m)
        if gamma_error is None:
            assert isinstance(got, GammaEstimate)
        else:
            assert got is gamma_error


class TestGammaEstimator:
    def test_recovers_rate_within_five_percent(self):
        gamma, t_m = 1.0, 1.5
        shots = run_shots(
            bell_window_protocol(gamma, t_m), n_shots=10_000, rng_seed=12
        )
        est = estimate_gamma_from_blips(shots, t_m)
        assert est.inv_gamma == pytest.approx(1.0 / gamma, rel=0.05)
        assert est.ci_low < 1.0 / gamma < est.ci_high
        assert est.n_blips + est.n_censored == 10_000

    def test_recovers_fast_rate(self):
        gamma, t_m = 4.0, 1.5
        shots = run_shots(
            bell_window_protocol(gamma, t_m), n_shots=10_000, rng_seed=13
        )
        est = estimate_gamma_from_blips(shots, t_m)
        assert est.inv_gamma == pytest.approx(1.0 / gamma, rel=0.05)

    def test_no_blips_raises(self):
        shots = Shots(
            np.ones((10, 1), dtype=np.int8), np.full((10, 1), np.nan), np.ones(10, dtype=int)
        )
        with pytest.raises(NoInformationError):
            estimate_gamma_from_blips(shots, 1.5)

    def test_rejects_multi_window_records(self):
        shots = Shots(np.ones((1, 1), dtype=np.int8), np.array([[0.1, np.nan]]), np.array([2]))
        with pytest.raises(ProtocolError):
            estimate_gamma_from_blips(shots, 1.5)

    def test_interval_narrows_with_data(self):
        gamma, t_m = 1.0, 1.5
        p = bell_window_protocol(gamma, t_m)
        small = estimate_gamma_from_blips(run_shots(p, n_shots=500, rng_seed=14), t_m)
        large = estimate_gamma_from_blips(
            run_shots(p, n_shots=8_000, rng_seed=14), t_m
        )
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
            n = n_blips + n_censored
            shots = Shots(
                np.ones((n, 1), dtype=np.int8),
                np.array(times + [np.nan] * n_censored)[:, None],
                np.ones(n, dtype=int),
            )
            est = estimate_gamma_from_blips(shots, t_m, p)
            expected = reference(n_blips, n_censored, float(sum(times)), p, t_m)
            case = (n_blips, n_censored, mean_t, p, t_m)
            assert (est.inv_gamma, est.ci_low, est.ci_high) == pytest.approx(
                expected, rel=1e-12
            ), case
