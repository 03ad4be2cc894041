"""Block shot engine tests: its Philox uniforms, shot-for-shot equality
with the scalar ``sample_shot`` of ``reference_sampler``, the branch
histories each block walks, evolving only those its shots reach, a row
of uniforms as wide as the widest path a shot can take, any split of the
shots adding up to the whole run, byte-identical CSVs, one fork-and-join
map per run over ranges of shots, at most one per CPU, each run in a process
of its own at every sweep point and sent back as counts, that leaves no
process behind, writes the bytes of --jobs 1 at any --jobs, and ends on
one line, with no partial file, when interrupted, when a worker is lost or
when a write fails, a CLI start and fig3 run that do not import scipy, a
CLI start that imports neither PyYAML nor multiprocessing until a run
reads a config or starts a worker (nor signal, which only a worker uses),
a CLI start that runs one BLAS thread unless the caller asks for more, and
a run whose bytes the BLAS thread count does not move."""

import errno
import itertools
import math
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_sampler as ref
import weakmeas
from weakmeas import montecarlo as mc, qmath, spinsys
from weakmeas.experiments import presets
from weakmeas.experiments.cli import main
from weakmeas.experiments.config import default_theta_grid
from weakmeas.protocols import (
    BLIP,
    NO_BLIP,
    ImpossibleBranchError,
    TunnelModel,
)
from weakmeas.qmath import DensityMatrix
from weakmeas.spinsys import (
    Frequency,
    JointState,
    RotationPulse,
    prepare_bell,
    prepare_initial,
)

MASK64 = (1 << 64) - 1


class TestPhiloxUniforms:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "seed, start",
        [(0, 0), (MASK64, 3), (-7, 11), (12345, 2**32 - 5), (1, 2**40), (2, 2**63 + 1)],
    )
    @pytest.mark.parametrize("n_draws", [1, 4, 5, 13])
    def test_matches_numpy_philox(self, seed, start, n_draws):
        got = mc._philox_uniforms(seed, start, start + 9, n_draws)
        want = np.array(
            [ref.shot_rng(seed, i).random(n_draws) for i in range(start, start + 9)]
        )
        assert got.shape == (9, n_draws)
        assert np.array_equal(got, want)


def mixed_initial(p):
    """Bell pair mixed with the maximally mixed state: not a pure state."""
    rho = p * prepare_bell().rho.matrix + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return JointState(DensityMatrix(rho))


def nuclear_y_initial():
    """Nucleus along +y with the electron down: a complex state, so that
    sigma_y is not 0 when the pulses and windows act."""
    psi = np.array([1.0, 1j]) / math.sqrt(2.0)
    rho = np.kron(np.outer(psi, psi.conj()), spinsys.PROJ_DOWN)
    return JointState(DensityMatrix(rho))


def nuclear_eigenstate_initial(nuclear_projector):
    """Nucleus in the eigenstate of ``nuclear_projector``, electron down."""
    rho = qmath.kron(nuclear_projector, spinsys.PROJ_DOWN)
    return JointState(DensityMatrix(rho))


INITIALS = {
    "superposition_x": prepare_initial,
    "superposition_y": nuclear_y_initial,
    "up": lambda: nuclear_eigenstate_initial(spinsys.PROJ_UP),
    "down": lambda: nuclear_eigenstate_initial(spinsys.PROJ_DOWN),
    "bell": prepare_bell,
    "mixed": lambda: mixed_initial(0.6),
}


def sometimes(rng, p, value, otherwise):
    """``value`` as a float with probability p, else ``otherwise``."""
    return float(value) if rng.random() < p else otherwise


def random_pulse(rng):
    freq = list(Frequency)[int(rng.integers(len(Frequency)))]
    return RotationPulse(freq, float(rng.uniform(0.0, 2 * math.pi)))


def random_window(rng):
    if rng.random() < 0.3:
        return TunnelModel.projective(1.0)
    return TunnelModel(
        gamma_up_out=float(10 ** rng.uniform(-1.5, 1.0)),
        t_m=float(rng.uniform(0.2, 2.0)),
    )


def random_case(seed):
    """A random protocol, noise setting and shot range."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(int(rng.integers(0, 4))):
        steps += [random_pulse(rng) for _ in range(int(rng.integers(0, 3)))]
        steps.append(random_window(rng))
    if rng.random() < 0.3:
        steps.append(random_pulse(rng))
    initial = INITIALS[str(rng.choice(list(INITIALS)))]()
    noise = mc.NoiseConfig(
        nuclear_dephasing_time=sometimes(rng, 0.5, rng.uniform(0.5, 5.0), None),
        readout_false_negative=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
        readout_false_positive=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
    )
    rng_seed = int(rng.integers(-5, 2**40))
    start = int(rng.integers(0, 2**34))
    return mc.Protocol(tuple(steps), initial=initial), noise, rng_seed, start


# Each feature the engine must reproduce, on its own.  Every window keeps
# the shots that show no blip, so a blip history is kept only through a
# false negative, a real blip read as none.
NAMED_CASES = {
    # false negatives keep both outcome histories of each window
    "two finite windows, both kept": (
        mc.Protocol(
            (
                RotationPulse(Frequency.NU_E2, 1.3),
                TunnelModel(1.0, 1.0),
                RotationPulse(Frequency.NU_E1, 0.8),
                TunnelModel(2.0, 0.5),
            )
        ),
        mc.NoiseConfig(readout_false_negative=0.3),
    ),
    "partial collapse, then a projective window kept on no blip": (
        mc.Protocol(
            (
                RotationPulse(Frequency.ESR_BOTH, 1.1),
                TunnelModel(0.5, 1.0),
                RotationPulse(Frequency.NU_E1, 2.0),
                TunnelModel.projective(1.0),
            ),
            initial=nuclear_y_initial(),
        ),
        mc.NO_NOISE,
    ),
    # the first window's blip history, kept through a false negative, has
    # its electron up for certain after the second pulse, the other down
    "electron up in one history only": (
        mc.Protocol(
            (
                RotationPulse(Frequency.NU_E2, math.pi),
                TunnelModel.projective(1.0),
                RotationPulse(Frequency.NU_E2, math.pi),
                TunnelModel(1.0, 1.0),
            )
        ),
        mc.NoiseConfig(readout_false_negative=0.25),
    ),
    "bell window, dephasing": (
        mc.Protocol(
            (TunnelModel(0.7, 1.5),),
            initial=prepare_bell(),
        ),
        mc.NoiseConfig(nuclear_dephasing_time=2.0),
    ),
    # the reference dephases after each window, the engine once at
    # tomography, across a pulse and a kept blip history
    "two dephased windows of different t_m, both kept": (
        mc.Protocol(
            (
                RotationPulse(Frequency.NU_E2, 1.3),
                TunnelModel(1.0, 0.6),
                RotationPulse(Frequency.ESR_BOTH, 0.9),
                TunnelModel(2.0, 1.4),
            )
        ),
        mc.NoiseConfig(nuclear_dephasing_time=1.0, readout_false_negative=0.3),
    ),
    "bell window, label errors": (
        mc.Protocol(
            (TunnelModel(2.0, 1.5),),
            initial=prepare_bell(),
        ),
        mc.NoiseConfig(readout_false_negative=0.2, readout_false_positive=0.15),
    ),
    "mixed initial state, no window": (
        mc.Protocol(
            (RotationPulse(Frequency.NU_E2, 0.9),),
            initial=mixed_initial(0.3),
        ),
        mc.NO_NOISE,
    ),
}


class TestAgainstSampleShot:
    @pytest.mark.parametrize("name", list(NAMED_CASES))
    def test_named_case(self, name):
        protocol, noise = NAMED_CASES[name]
        got = mc.run_shots(protocol, noise, 600, 17)
        assert got == ref.run_shots(protocol, noise, 600, 17)
        # a projective window records +0.0, which np.array_equal does not
        # tell from -0.0
        for w, window in enumerate(protocol.windows):
            if math.isinf(window.gamma_up_out):
                times = got.blip_times[:, w][~np.isnan(got.blip_times[:, w])]
                assert times.size and not times.any() and not np.signbit(times).any()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_case_chunk(self, seed):
        protocol, noise, rng_seed, start = random_case(seed)
        got = mc._run_chunk((protocol, noise, rng_seed, start, start + 250))
        assert got == ref.sample_columns(protocol, noise, rng_seed, start, start + 250)

    def test_random_cases_cover_every_branch(self):
        """The random cases reach rejections, kept shots, kept shots whose
        history took the blip branch (false negatives), label flips, mixed
        initial states and dephasing."""
        counters = ("rejected", "kept", "kept blip history", "flips", "mixed", "dephased")
        seen = dict.fromkeys(counters, 0)
        for seed in range(40):
            protocol, noise, _, _ = random_case(seed)
            windows = protocol.windows
            recs = ref.sample_records(protocol, "z", noise, 0, 0, 50)
            seen["rejected"] += sum(not r.kept for r in recs)
            seen["kept"] += sum(r.kept for r in recs)
            seen["kept blip history"] += sum(r.kept and any(r.blips) for r in recs)
            seen["mixed"] += protocol.initial_statevector is None
            seen["dephased"] += noise.nuclear_dephasing_time is not None
            seen["flips"] += bool(windows) and (
                noise.readout_false_negative > 0 or noise.readout_false_positive > 0
            )
        assert all(count > 0 for count in seen.values()), seen

    def test_more_shots_than_a_block(self):
        protocol, noise = NAMED_CASES["bell window, dephasing"]
        n = mc.SHOT_BLOCK + 150
        got = mc.run_shots(protocol, noise, n, 5)
        assert got == ref.run_shots(protocol, noise, n, 5)

    def test_blocks_of_a_range_off_block_boundaries(self):
        """A range of several blocks that starts at a nonzero shot, with label
        errors on, writes each block's shots into its own rows."""
        protocol, noise = NAMED_CASES["two dephased windows of different t_m, both kept"]
        start, stop = 5, 5 + 2 * mc.SHOT_BLOCK + 7
        got = mc._run_chunk((protocol, noise, 3, start, stop))
        assert got == ref.sample_columns(protocol, noise, 3, start, stop)

    def test_blip_times_bit_equal(self):
        protocol = mc.Protocol((TunnelModel(0.3, 1.5),), initial=prepare_bell())
        got = mc.run_shots(protocol, n_shots=3000).blip_times[:, 0].tolist()
        records = ref.sample_records(protocol, "z", mc.NO_NOISE, 0, 0, 3000)
        want = [r.blip_times[0] for r in records]
        assert sum(t is not None for t in want) > 500
        assert [math.isnan(t) or t.hex() for t in got] == [
            t is None or t.hex() for t in want
        ]


def assert_columns_are_reference_axis_runs(got, protocol, noise, rng_seed, start):
    """Column k of ``got``, with the blip times, equals the scalar
    reference's run of shots start.. on axis k (x, y, z) alone."""
    assert got.outcome.shape == (len(got), 3)
    for k, axis in enumerate("xyz"):
        records = ref.sample_records(protocol, axis, noise, rng_seed, start, start + len(got))
        one = ref.to_shots(records, len(protocol.windows))
        assert mc.Shots(got.outcome[:, [k]], got.blip_times) == one


class TestSeveralAxes:
    """One pass samples every axis: column k, in x, y, z order, is the
    reference sampler's run on axis k."""

    @pytest.mark.parametrize("name", list(NAMED_CASES))
    def test_named_case(self, name):
        protocol, noise = NAMED_CASES[name]
        got = mc.run_shots(protocol, noise, 600, 17)
        assert_columns_are_reference_axis_runs(got, protocol, noise, 17, 0)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_case_chunk(self, seed):
        protocol, noise, rng_seed, start = random_case(seed)
        got = mc._run_chunk((protocol, noise, rng_seed, start, start + 250))
        assert_columns_are_reference_axis_runs(got, protocol, noise, rng_seed, start)

    def test_more_shots_than_a_block_and_parallel(self, worker_chunks):
        for name in ("bell window, dephasing", "bell window, label errors"):
            protocol, noise = NAMED_CASES[name]
            n = mc.SHOT_BLOCK + 150
            assert mc.run_shots(protocol, noise, n, 5) == ref.run_shots(protocol, noise, n, 5)
            n = 2 * mc.SHOT_BLOCK + 150  # two chunks at n_jobs=2
            got = mc.run_shots(protocol, noise, n, 5)
            assert mc.run_shots(protocol, noise, n, 5, n_jobs=2) == got
        assert worker_chunks() > 0

    def test_stats_read_one_column(self):
        protocol, noise = NAMED_CASES["two finite windows, both kept"]
        shots = mc.run_shots(protocol, noise, 500, 3)
        for k, axis in enumerate("xyz"):
            records = ref.sample_records(protocol, axis, noise, 3, 0, 500)
            assert mc.stats_from_records(shots, axis) == ref.stats_from_records(records)


# every named case, and the protocol and noise of each random case
TABLE_CASES = {
    **NAMED_CASES,
    **{f"random {seed}": random_case(seed)[:2] for seed in range(40)},
}


@pytest.fixture
def evolved_children(monkeypatch):
    """Each child history the engine evolves, as (window, blip): the
    windows its parent passed, counted from 0, and its outcome.  A state's
    window count follows it through ``_node_pulse`` and
    ``_node_after_window``; every state they return is kept, so that no
    ``id`` is reused."""
    windows_passed, states, calls = {}, [], []

    def pulse(joint, step, _fn=mc._node_pulse):
        new = _fn(joint, step)
        windows_passed[id(new)] = windows_passed.get(id(joint), 0)
        states.append(new)
        return new

    def after_window(joint, model, blip, _fn=mc._node_after_window):
        w = windows_passed.get(id(joint), 0)
        calls.append((w, blip))
        new = _fn(joint, model, blip)
        windows_passed[id(new)] = w + 1
        states.append(new)
        return new

    monkeypatch.setattr(mc, "_node_pulse", pulse)
    monkeypatch.setattr(mc, "_node_after_window", after_window)
    return calls


class TestHistoryWalk:
    """Each block walks the branch histories its shots reach, and evolves
    a child history only where a shot of the block goes."""

    @pytest.mark.parametrize("name", list(TABLE_CASES))
    def test_a_child_is_evolved_only_where_a_shot_reaches_it(self, name, evolved_children):
        """No blip child is evolved without false negatives, and a block of
        one shot evolves one child at each window the shot passes and none
        once it is rejected."""
        protocol, noise = TABLE_CASES[name]
        n_windows = len(protocol.windows)
        mc._run_chunk((protocol, noise, 2, 0, 300))
        if noise.readout_false_negative == 0.0:
            assert all(blip == 0 for _, blip in evolved_children)
        for i in range(10):
            evolved_children.clear()
            shot = mc._run_chunk((protocol, noise, 2, i, i + 1))
            passed = len(evolved_children)
            assert [w for w, _ in evolved_children] == list(range(passed))
            assert (passed == n_windows) == bool(shot.outcome.any())

    @pytest.mark.parametrize("name", list(TABLE_CASES))
    def test_histories_are_bounded(self, name, evolved_children):
        """At window w, counted from 0, a block evolves at most 2**(w+1)
        children with false negatives and one without, and never more than
        it has shots."""
        protocol, noise = TABLE_CASES[name]
        bound = 2 if noise.readout_false_negative > 0.0 else 1
        for n in (3, 600):
            evolved_children.clear()
            mc._run_chunk((protocol, noise, 2, 0, n))
            for w, count in Counter(window for window, _ in evolved_children).items():
                assert count <= min(bound ** (w + 1), n)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", list(TABLE_CASES))
    def test_block_runs_warning_free(self, name):
        """No history's arithmetic warns, a 0/0 included, and the block
        equals the reference shot for shot."""
        protocol, noise = TABLE_CASES[name]
        got = mc._run_chunk((protocol, noise, 11, 0, 300))
        assert got == ref.sample_columns(protocol, noise, 11, 0, 300)

    @pytest.mark.parametrize("name", list(NAMED_CASES))
    def test_final_history_is_its_forced_outcomes(self, name, monkeypatch):
        """Each nuclear state read at tomography is that of
        ``conditional_state`` forced through some outcome tuple."""
        read = []

        def bloch(nuc, _fn=mc._bloch):
            read.append(nuc)
            return _fn(nuc)

        monkeypatch.setattr(mc, "_bloch", bloch)
        protocol, noise = NAMED_CASES[name]
        mc._run_chunk((protocol, noise, 17, 0, 600))
        forced = []
        for outcomes in itertools.product((NO_BLIP, BLIP), repeat=len(protocol.windows)):
            try:
                forced.append(mc.conditional_state(protocol, outcomes).state.rho.matrix)
            except ImpossibleBranchError:
                continue
        assert read
        for nuc in read:
            assert any(np.allclose(nuc, want, rtol=0.0, atol=1e-12) for want in forced)

    @pytest.mark.parametrize("p_fn", [0.0, 0.3])
    def test_certain_blip_leaves_no_no_blip_child(self, p_fn, evolved_children):
        """A projective window on an up electron blips with probability
        exactly 1.0: it evolves no no-blip child, and the range still
        matches the reference shot for shot."""
        initial = JointState(DensityMatrix(qmath.kron(spinsys.PROJ_UP, spinsys.PROJ_UP)))
        steps = (TunnelModel.projective(1.0), RotationPulse(Frequency.NU_E1, 0.7))
        protocol = mc.Protocol(steps, initial=initial)
        noise = mc.NoiseConfig(readout_false_negative=p_fn)
        got = mc._run_chunk((protocol, noise, 4, 0, 300))
        assert all(blip for _, blip in evolved_children)  # no no-blip child
        assert got == ref.sample_columns(protocol, noise, 4, 0, 300)
        assert got.outcome.any() == bool(p_fn)  # kept only through a false negative

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p_fn", [0.0, 0.3])
    def test_no_blip_child_of_zero_trace_is_unreachable(self, p_fn, evolved_children):
        """An electron up for certain, in a state whose trace is one ulp
        below 1, meets a projective window: the blip product rounds to
        1 - 2**-53, but the no-blip child has trace 0, so
        ``_node_blip_weight`` returns exactly 1.0.  That child is
        unreachable: it is never evolved, with no 0/0, and the shots run
        warning-free."""
        nucleus = np.diag([0.1, np.nextafter(0.9, 0.0)])
        initial = JointState(DensityMatrix(qmath.kron(nucleus, spinsys.PROJ_UP)))
        protocol = mc.Protocol((TunnelModel.projective(1.0),), initial=initial)
        noise = mc.NoiseConfig(readout_false_negative=p_fn)
        shots = mc.run_shots(protocol, noise, n_shots=300, rng_seed=4)
        assert all(blip for _, blip in evolved_children)  # no no-blip child
        assert shots.outcome.any() == bool(p_fn)  # kept only through a false negative

    def test_many_windows_evolve_only_the_histories_shots_reach(self, evolved_children):
        """Fourteen windows with false negatives can reach 2**15 - 2
        histories, but 200 shots evolve at most one child per shot and
        window, and still match the reference shot for shot."""
        pulse = RotationPulse(Frequency.NU_E2, 0.7)
        protocol = mc.Protocol((pulse, TunnelModel(1.0, 1.0)) * 14)
        noise = mc.NoiseConfig(readout_false_negative=0.2)
        got = mc.run_shots(protocol, noise, 200, 3)
        assert len(evolved_children) <= 14 * 200
        assert got == ref.run_shots(protocol, noise, 200, 3)


# One protocol under each label setting.  Its electron pulses act whatever
# the nucleus, so every history blips at each window with a probability
# strictly between 0 and 1, and every path of outcomes can be taken.
TWO_ROTATED_WINDOWS = mc.Protocol(
    (
        RotationPulse(Frequency.ESR_BOTH, 1.0),
        TunnelModel(1.0, 1.0),
        RotationPulse(Frequency.ESR_BOTH, 0.7),
        TunnelModel(2.0, 0.5),
    )
)
LABEL_CASES = {
    f"two rotated windows, label errors: {name}": (
        TWO_ROTATED_WINDOWS,
        mc.NoiseConfig(readout_false_negative=p_fn, readout_false_positive=p_fp),
    )
    for name, p_fn, p_fp in [
        ("none", 0.0, 0.0),
        ("p_fp only", 0.0, 0.1),
        ("p_fn only", 0.2, 0.0),
        ("both", 0.2, 0.1),
    ]
}
ROW_CASES = {**NAMED_CASES, **LABEL_CASES}


class TestRowWidth:
    """A shot's row of uniforms is ``_draws_per_shot`` columns wide: the
    columns the widest path through ``_shot_block`` steps through."""

    @pytest.mark.parametrize("name", list(ROW_CASES))
    def test_row_is_as_wide_as_the_widest_path(self, name):
        """The widest path advances a shot the most columns at every
        window: with false negatives a hidden blip (every draw 0.0), else a
        kept no-blip (every draw the largest float below 1).  A row of
        ``_draws_per_shot`` uniforms runs it, and where its outcomes can
        happen the shot is kept and a row one column narrower raises
        IndexError."""
        protocol, noise = ROW_CASES[name]
        hidden_blips = noise.readout_false_negative > 0.0
        draw = 0.0 if hidden_blips else np.nextafter(1.0, 0.0)
        n_windows = len(protocol.windows)

        def run(width):
            out = mc.Shots(np.zeros((1, 3), dtype=np.int8), np.full((1, n_windows), np.nan))
            mc._shot_block(protocol, noise, np.full((1, width), draw), out)
            return out

        width = mc._draws_per_shot(protocol, noise)
        shot = run(width)
        try:
            mc.conditional_state(protocol, [BLIP if hidden_blips else NO_BLIP] * n_windows)
        except ImpossibleBranchError:
            assert name not in LABEL_CASES
            return
        assert shot.outcome.all()
        with pytest.raises(IndexError):
            run(width - 1)


@settings(deadline=None, max_examples=40)
@given(
    name=st.sampled_from(sorted(NAMED_CASES)),
    n_and_split=st.integers(2, 700).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(-5, 2**40),
)
def test_any_split_adds_up_to_the_whole_run(name, n_and_split, seed):
    """Shots 0..a-1 and a..n-1, run apart, give the whole run's rows :a and
    a:, and their statistics on every axis add up to the whole run's."""
    n, a = n_and_split
    protocol, noise = NAMED_CASES[name]
    whole = mc.run_shots(protocol, noise, n, seed)
    head = mc.run_shots(protocol, noise, a, seed)
    tail = mc.run_shots(protocol, noise, n - a, seed, 1, a)
    assert head == mc.Shots(whole.outcome[:a], whole.blip_times[:a])
    assert tail == mc.Shots(whole.outcome[a:], whole.blip_times[a:])
    for axis in "xyz":
        added = mc.stats_from_records(head, axis) + mc.stats_from_records(tail, axis)
        assert added == mc.stats_from_records(whole, axis)


def test_shot_indices_must_be_philox_keys():
    """The shot index is a 64-bit key word: the last shot below 2**64 runs
    as the reference runs it, and a range that starts below 0 or ends past
    2**64 is refused."""
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    got = mc.run_shots(protocol, noise, 3, 5, 1, MASK64 - 2)
    assert got == ref.run_shots(protocol, noise, 3, 5, 1, MASK64 - 2)
    for start in (-1, MASK64 - 1):
        with pytest.raises(ValueError, match="outside"):
            mc.run_shots(protocol, noise, 3, 5, 1, start)


def test_philox_ranges_are_cached_and_read_only():
    """Runs at two seeds and two shot ranges, interleaved and on protocols
    with different draw counts, equal each run alone."""
    runs = [
        (NAMED_CASES[name], seed, start)
        for name in ("bell window, label errors",
                     "two finite windows, both kept")
        for seed in (3, 8)
        for start in (0, 5000)
    ]

    def run(case, seed, start):
        protocol, noise = case
        return mc._run_chunk((protocol, noise, seed, start, start + 300))

    alone = []
    for args in runs:
        mc._philox_uniforms.cache_clear()
        alone.append(run(*args))
    mc._philox_uniforms.cache_clear()
    for _ in range(2):
        assert [run(*args) for args in runs] == alone
    info = mc._philox_uniforms.cache_info()
    assert info.hits >= len(runs) and info.currsize <= info.maxsize
    u = mc._philox_uniforms(3, 0, 300, 5)
    assert u is mc._philox_uniforms(3, 0, 300, 5)
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 0.5
    assert np.array_equal(u, np.array([ref.shot_rng(3, i).random(5) for i in range(300)]))


def test_each_philox_block_is_generated_once(monkeypatch):
    """A serial range of more than 16 blocks is one cache entry, so a second
    run over it generates no block again."""
    calls = []
    block = mc._philox_block

    def counted(rng_seed, start, stop, n_draws):
        calls.append((start, stop))
        return block(rng_seed, start, stop, n_draws)

    monkeypatch.setattr(mc, "_philox_block", counted)
    protocol, noise = NAMED_CASES["bell window, label errors"]
    n = 17 * mc.SHOT_BLOCK + 5
    mc._philox_uniforms.cache_clear()
    try:
        first = mc.run_shots(protocol, noise, n, 11)
        assert mc.run_shots(protocol, noise, n, 11) == first
    finally:
        mc._philox_uniforms.cache_clear()
    blocks = [(a, min(a + mc.SHOT_BLOCK, n)) for a in range(0, n, mc.SHOT_BLOCK)]
    assert len(blocks) == 18 and calls == blocks


# argv, config and the tomography axes the run's CSVs read (fig3 writes z only)
CLI_CASES = {
    "fig2": (["fig2", "--variant", "all", "--shots", "150", "--grid", "5"], None, "xyz"),
    "fig2 dephased": (
        ["fig2", "--variant", "all", "--shots", "150", "--grid", "5"],
        "noise_t2star: 1.0\n",
        "xyz",
    ),
    "fig3 dephased": (["fig3", "--shots", "1500"], "noise_t2star: 2.0\n", "z"),
    "fig3 label errors": (
        ["fig3", "--shots", "1500"],
        "noise_false_negative: 0.2\nnoise_false_positive: 0.05\n",
        "z",
    ),
    "supp": (["supp", "--shots", "100", "--grid", "5"], None, "xyz"),
}


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_csv_bytes_match_scalar_sampler(tmp_path, monkeypatch, capsys, name):
    argv, config, axes = CLI_CASES[name]
    if config is not None:
        (tmp_path / "run.yaml").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.yaml")]
    assert main(argv + ["--no-svg", "--out", str(tmp_path / "engine")]) == 0
    monkeypatch.setattr(mc, "run_shots", partial(ref.run_shots, axes=axes))
    assert main(argv + ["--no-svg", "--out", str(tmp_path / "scalar")]) == 0
    engine = {p.name: p.read_bytes() for p in (tmp_path / "engine").glob("*.csv")}
    scalar = {p.name: p.read_bytes() for p in (tmp_path / "scalar").glob("*.csv")}
    assert engine and engine == scalar


# shots that run_shots splits in two chunks of at least a block, off block boundaries
SPLIT = 2 * mc.SHOT_BLOCK + 5
SPLIT_FIG2 = ["fig2", "--variant", "single", "--shots", str(SPLIT), "--grid", "3", "--no-svg"]


def test_no_worker_process_left(tmp_path, capsys, worker_chunks):
    assert main(SPLIT_FIG2 + ["--jobs", "2", "--out", str(tmp_path)]) == 0
    assert multiprocessing.active_children() == []
    ran = worker_chunks()
    assert ran > 0
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    mc.run_shots(protocol, noise, 3 * mc.SHOT_BLOCK, 9, n_jobs=3)
    assert multiprocessing.active_children() == []
    assert worker_chunks() > ran


def test_no_worker_process_left_after_a_failed_run(tmp_path, monkeypatch, capsys):
    """--out names a file: the run's two shot ranges, each over its three
    points, are mapped over two processes, then writing the first CSV
    raises OSError and main returns 2."""
    calls = []
    parallel_map = mc._parallel_map

    def counted(fn, items):
        if len(items) > 1:
            calls.append(len(items))
        return parallel_map(fn, items)

    monkeypatch.setattr(mc, "_parallel_map", counted)
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(SPLIT_FIG2 + ["--jobs", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert calls == [2]
    assert multiprocessing.active_children() == []


@pytest.fixture
def recording_map(monkeypatch, four_cpus):
    """Stands in for _parallel_map on four CPUs: records, for each call that
    would start a worker, the processes the map would use (one per item)
    and the items, and runs the items in this process, so no worker
    starts."""
    calls = []

    def recording(fn, items):
        if len(items) > 1:
            calls.append((len(items), items))
        return [fn(item) for item in items]

    monkeypatch.setattr(mc, "_parallel_map", recording)
    return calls


@pytest.fixture
def process_starts(monkeypatch):
    """The processes started so far, and the (fn, items, results) of each
    ``_parallel_map`` call over more than one item."""
    starts, maps = [], []
    start, parallel_map = multiprocessing.process.BaseProcess.start, mc._parallel_map

    def counted_start(proc):
        starts.append(proc)
        start(proc)

    def recorded_map(fn, items):
        results = parallel_map(fn, items)
        if len(items) > 1:
            maps.append((fn, list(items), results))
        return results

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted_start)
    monkeypatch.setattr(mc, "_parallel_map", recorded_map)
    return starts, maps


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("points", [1, 3, 5])
def test_one_map_over_shot_ranges(tmp_path, capsys, worker_chunks, process_starts, points, jobs):
    """A --jobs run of any number of points maps the shot_ranges of its
    shots once, each range run at every point: it starts each of its
    jobs - 1 workers once and writes the bytes of --jobs 1."""
    starts, maps = process_starts
    shots = jobs * mc.SHOT_BLOCK + 5  # jobs ranges of at least a block
    if points == 1:
        config = tmp_path / "one.yaml"
        config.write_text("experiment: fig3_tunnel\ngamma_grid: [0.5]\n", encoding="utf-8")
        argv = ["custom", "--config", str(config)]
        keys = [(presets.BELL_WINDOW, 0.5)]
    else:
        argv = ["fig2", "--variant", "single", "--grid", str(points)]
        keys = [("single", theta) for theta in default_theta_grid(points)]
    argv += ["--shots", str(shots)]
    assert main(argv + ["--jobs", str(jobs), "--out", str(tmp_path / "par")]) == 0
    assert len(starts) == jobs - 1
    ((fn, items, answers),) = maps
    assert fn.func is presets._run_range
    assert items == mc.shot_ranges(shots, jobs) and len(items) == jobs
    assert [key for key, _ in fn.args[1]] == keys
    assert all(len(answer) == points for answer in answers)
    assert worker_chunks() > 0
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert len(starts) == jobs - 1
    par, serial = (
        {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("par", "serial")
    )
    assert len(par) == (3 if points == 1 else 6) and par == serial


def test_worker_answers_are_counts_and_blip_times(tmp_path, capsys, worker_chunks, process_starts):
    """What a range sends back, also from a worker, is per point a
    SweepPoint: the EnsembleStats of each axis and, at a Gamma point alone,
    the 1-D array of the blip times its range recorded: no Shots column
    crosses a pipe."""
    _, maps = process_starts
    config = tmp_path / "run.yaml"
    config.write_text(
        "experiment: custom\ntheta_grid: [0.0, 2.0]\ngamma_grid: [0.5, 3.0]\n", encoding="utf-8"
    )
    argv = ["custom", "--config", str(config), "--shots", str(SPLIT), "--no-svg"]
    assert main(argv + ["--jobs", "2", "--out", str(tmp_path)]) == 0
    assert worker_chunks() > 0
    ((fn, ranges, answers),) = maps
    work = fn.args[1]
    assert len(work) == 4 * 2 + 2
    for (a, b), answer in zip(ranges, answers):
        assert len(answer) == len(work)
        for ((sequence, _), protocol), point in zip(work, answer):
            assert type(point) is presets.SweepPoint
            stats, times = point.stats, point.blip_times
            assert list(stats) == list(presets.AXES)
            assert all(type(s) is mc.EnsembleStats and s.n_total == b - a for s in stats.values())
            if sequence == presets.BELL_WINDOW:
                assert type(times) is np.ndarray and times.ndim == 1
                assert 0 < len(times) <= b - a
            else:
                assert times is None


@pytest.mark.parametrize(
    "shots, jobs, workers",
    [
        (2 * mc.SHOT_BLOCK, 64, 2),
        (3 * mc.SHOT_BLOCK + 1, 3, 3),
        (2 * mc.SHOT_BLOCK - 1, 8, None),
        (1, 8, None),
    ],
)
def test_run_maps_one_process_per_shot_range(tmp_path, recording_map, capsys, shots, jobs, workers):
    """The run maps its points over one process per shot range of --shots:
    at most --jobs ranges, at most one per CPU and each of at least a
    block; a run of one range asks for no second process at all."""
    argv = ["fig2", "--variant", "single", "--grid", "3", "--no-svg", "--shots", str(shots)]
    assert main(argv + ["--jobs", str(jobs), "--out", str(tmp_path)]) == 0
    assert [n for n, _ in recording_map] == ([] if workers is None else [workers])


def pin_cpus(monkeypatch, affinity: bool, cpus) -> None:
    """This process may run on ``cpus`` CPUs, read from its affinity or,
    without one, from ``cpu_count``."""
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


@pytest.mark.parametrize(
    "cpus, n_shots, counts",
    [
        (1000, 1, {1: 1, 2: 1, 8: 1}),
        (1000, 2 * mc.SHOT_BLOCK - 1, {1: 1, 2: 1, 64: 1}),
        (1000, 2 * mc.SHOT_BLOCK, {1: 1, 2: 2, 3: 2, 64: 2}),
        (1000, 10**6, {1: 1, 3: 3, 64: 64, 244: 244, 1000: 244}),
        (2, 10**6, {1: 1, 2: 2, 3: 2, 64: 2}),
        (1, 10**6, {1: 1, 2: 1, 64: 1}),
        (4, 3 * mc.SHOT_BLOCK, {2: 2, 4: 3, 64: 3}),
    ],
)
def test_chunk_count(monkeypatch, cpus, n_shots, counts):
    """shot_ranges cuts at most n_jobs chunks, at most one per CPU this
    process may run on, each of at least a block, and at least one."""
    pin_cpus(monkeypatch, True, cpus)
    assert {n_jobs: len(mc.shot_ranges(n_shots, n_jobs)) for n_jobs in counts} == counts


@pytest.mark.parametrize(
    "n_shots, n_jobs", [(2 * mc.SHOT_BLOCK, 64), (3 * mc.SHOT_BLOCK + 1, 3), (5 * mc.SHOT_BLOCK - 1, 8)]
)
def test_chunks_are_contiguous_blocks_and_more(recording_map, n_shots, n_jobs):
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    mc.run_shots(protocol, noise, n_shots, 4, n_jobs)
    ((processes, chunks),) = recording_map
    bounds = [(start, stop) for *_, start, stop in chunks]
    assert len(bounds) == processes == len(mc.shot_ranges(n_shots, n_jobs))
    assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
    assert bounds[-1][1] == n_shots
    assert min(b - a for a, b in bounds) >= mc.SHOT_BLOCK


def test_split_run_shots_maps_one_process_per_range(recording_map):
    """run_shots maps a split call over one process per shot range, and a
    sub-block call over no second process."""
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    serial = mc.run_shots(protocol, noise, SPLIT, 4)
    sub_block = mc.run_shots(protocol, noise, 2 * mc.SHOT_BLOCK - 1, 4)
    assert mc.run_shots(protocol, noise, SPLIT, 4, n_jobs=8) == serial
    assert mc.run_shots(protocol, noise, 2 * mc.SHOT_BLOCK - 1, 4, n_jobs=8) == sub_block
    assert [n for n, _ in recording_map] == [2]


def test_sub_block_run_starts_no_second_process(tmp_path, recording_map, capsys):
    """A custom run whose ensembles are all smaller than two blocks asks
    for no second process at --jobs 4 and writes the bytes of --jobs 1."""
    config = tmp_path / "custom.yaml"
    config.write_text("experiment: custom\nn_shots: 50\n", encoding="utf-8")
    argv = ["custom", "--config", str(config), "--grid", "5"]
    for jobs in ("1", "4"):
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert recording_map == []
    one, four = ({p.name: p.read_bytes() for p in (tmp_path / d).glob("*.csv")} for d in ("1", "4"))
    assert one and one == four


@pytest.mark.parametrize("affinity", [True, False])
def test_ranges_no_more_than_cpus(monkeypatch, affinity):
    """shot_ranges cuts one range per CPU this process may run on when
    n_jobs asks for more, reading them from its affinity or, without one,
    cpu_count; a cpu_count of None means one CPU."""
    pin_cpus(monkeypatch, affinity, 2)
    block = mc.SHOT_BLOCK
    assert mc.shot_ranges(8 * block, 8) == [(0, 4 * block), (4 * block, 8 * block)]
    if not affinity:
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc.shot_ranges(8 * block, 8) == [(0, 8 * block)]


@pytest.mark.parametrize("affinity", [True, False])
def test_jobs_beyond_the_cpus_fork_one_worker_per_range(
    tmp_path, capsys, monkeypatch, two_cpus, process_starts, affinity
):
    """fig2 at --jobs 8 on two CPUs maps two ranges, not eight, starts one
    worker, and writes the bytes of --jobs 1."""
    pin_cpus(monkeypatch, affinity, 2)
    starts, maps = process_starts
    shots = 8 * mc.SHOT_BLOCK
    argv = ["fig2", "--variant", "single", "--grid", "3", "--no-svg", "--shots", str(shots)]
    assert main(argv + ["--jobs", "8", "--out", str(tmp_path / "par")]) == 0
    ((_, items, _),) = maps
    assert items == [(0, shots // 2), (shots // 2, shots)]
    assert len(starts) == 1
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert len(maps) == 1 and len(starts) == 1
    par, serial = (
        {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("par", "serial")
    )
    assert len(par) == 3 and par == serial


LABEL_ERRORS = "noise_false_negative: 0.2\nnoise_false_positive: 0.05\n"


@pytest.mark.parametrize(
    "argv, config, jobs",
    [
        (["custom", "--shots", "8200", "--grid", "3"], "experiment: custom\n", [2]),
        # nine points' blip times, each joined over two ranges
        (["fig3", "--shots", "8200"], LABEL_ERRORS, [2]),
        (["fig2", "--shots", "8200", "--grid", "5", "--no-svg"],
         "noise_t2star: 0.5\n" + LABEL_ERRORS, [2]),
        # more than 16 Philox blocks; --jobs 64 asks for more ranges than CPUs
        (["fig2", "--variant", "single", "--shots", "70000", "--grid", "3", "--no-svg"], None,
         [3, 64]),
    ],
    ids=["custom", "fig3_label_errors", "fig2_t2star_label_errors", "fig2_70000_shots"],
)
def test_jobs_write_the_bytes_of_one_job(
    tmp_path, capsys, four_cpus, worker_chunks, argv, config, jobs
):
    """Each --jobs value writes, warning-free, the files of --jobs 1 byte
    for byte, cutting the ranges it would on four CPUs."""
    if config is not None:
        (tmp_path / "run.yaml").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.yaml")]

    def tree(n):
        out = tmp_path / f"jobs{n}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--jobs", str(n), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    serial = tree(1)
    assert serial
    for n in jobs:
        assert tree(n) == serial, n
    assert worker_chunks() > 0


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_stopped_worker_still_gives_the_serial_result(two_cpus):
    """A worker stopped while the caller runs its own item, and resumed a
    second later, still answers: the map waits for it and returns the
    serial result."""
    caller = os.getpid()
    resumed, timers = [], []

    def resume(pid):
        resumed.append(time.monotonic())
        os.kill(pid, signal.SIGCONT)

    def square(x):
        if os.getpid() != caller:
            time.sleep(0.5)  # the caller stops this worker meanwhile
        elif not timers:
            (worker,) = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGSTOP)
            timers.append(threading.Timer(1.0, resume, (worker.pid,)))
            timers[0].start()
        return x * x

    try:
        with time_limit(30):
            assert mc._parallel_map(square, [3, 4]) == [9, 16]
        returned = time.monotonic()
    finally:
        for timer in timers:
            timer.join()
    assert returned > resumed[0]


def test_worker_error_reaches_the_caller(monkeypatch, four_cpus):
    """A chunk that raises in a worker raises in the caller."""
    caller = os.getpid()
    run_chunk = mc._run_chunk

    def failing_in_workers(chunk):
        if os.getpid() != caller:
            raise ValueError("failed in a worker")
        return run_chunk(chunk)

    monkeypatch.setattr(mc, "_run_chunk", failing_in_workers)
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    with time_limit(30), pytest.raises(ValueError, match="failed in a worker"):
        mc.run_shots(protocol, noise, SPLIT, 9, n_jobs=2)


def test_lost_worker_is_reported(two_cpus):
    """A worker killed before it answered makes the map raise
    WorkerLostError once the caller has run its own item."""
    caller = os.getpid()
    killed = []

    def kill_the_worker_first(x):
        if os.getpid() != caller:
            time.sleep(0.5)  # the caller kills this worker meanwhile
        elif not killed:
            (worker,) = multiprocessing.active_children()
            worker.kill()
            worker.join()
            killed.append(worker)
        return x

    with time_limit(30), pytest.raises(mc.WorkerLostError, match="exited unexpectedly"):
        mc._parallel_map(kill_the_worker_first, [0, 1])
    assert killed


def test_ctrl_c_during_a_workers_start_stops_that_worker(monkeypatch):
    """A KeyboardInterrupt raised in the caller after a worker's fork but
    before its start returns, where a Ctrl-C during the fork raises it,
    still ends that worker: the map kills and reaps it.  The child
    never sees that SIGINT, and multiprocessing does not list it yet, so
    ``no_worker_left_running`` cannot see it; its pid can."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the interrupt is injected into the fork start method")
    from multiprocessing import popen_fork

    launch, forked = popen_fork.Popen._launch, []

    def interrupted_launch(self, process_obj):
        launch(self, process_obj)  # the child never returns from it
        forked.append(self.pid)
        signal.raise_signal(signal.SIGINT)

    monkeypatch.setattr(popen_fork.Popen, "_launch", interrupted_launch)
    with time_limit(30), pytest.raises(KeyboardInterrupt):
        mc._parallel_map(time.sleep, [0, 30])
    (pid,) = forked
    try:
        left = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:  # reaped by the map
        return
    if left == (0, 0):  # still running its 30 s item
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    pytest.fail(f"worker {pid} was not reaped: waitpid gave {left}")

def test_lost_worker_ends_the_run_on_one_line(tmp_path, capsys, monkeypatch, two_cpus):
    """A worker killed with SIGKILL during a --jobs 2 run ends it with exit
    1 and one error line, not a traceback, and nothing written."""
    caller = os.getpid()
    parallel_map = mc._parallel_map
    killed = []

    def killing_map(fn, items):
        def kill_the_worker_first(item):
            if os.getpid() != caller:
                time.sleep(30)  # the caller kills this worker meanwhile
            elif not killed:
                (worker,) = multiprocessing.active_children()
                os.kill(worker.pid, signal.SIGKILL)
                killed.append(worker)
            return fn(item)

        return parallel_map(kill_the_worker_first, items)

    monkeypatch.setattr(mc, "_parallel_map", killing_map)
    out = tmp_path / "out"
    with time_limit(30):
        assert main(SPLIT_FIG2 + ["--jobs", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: a worker process exited unexpectedly"]
    assert killed and not out.exists()


def child_env(openblas_threads: str | None = None) -> dict:
    """This process's environment for a child interpreter that imports this
    checkout's weakmeas, with OPENBLAS_NUM_THREADS set as given or unset:
    this process imported weakmeas, which set the variable, and a child
    that inherited it would pass a BLAS test without the package doing
    anything."""
    src = Path(weakmeas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return env


# A --jobs run through the CLI's entry whose two ranges would each take a
# minute; each range says so once it runs, a worker's after it has set
# SIGINT aside.
INTERRUPTED_RUN = """
import os, time
from weakmeas import montecarlo as mc
from weakmeas.experiments import cli

os.sched_getaffinity = lambda pid: {0, 1}  # two ranges on any machine
parallel_map = mc._parallel_map

def slow_map(fn, items):
    def slow(item):
        os.write(1, b"running\\n")
        time.sleep(60)
        return fn(item)

    return parallel_map(slow, items)

mc._parallel_map = slow_map
cli.entry()
"""


def group_report(pgid: int) -> str:
    """One line per process of group ``pgid``: its pid and command, and its
    state, wait channel and ignored and blocked signal masks as
    /proc/<pid>/stat, wchan and status show them.  A SIGTERM inherited as
    ignored shows in SigIgn; ``terminate`` would not end such a worker."""
    lines = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
            name_end = text.rindex(")") + 1  # "pid (comm)", comm may hold ")"
            fields = text[name_end:].split()
            if int(fields[2]) != pgid:  # field 5, the process group
                continue
            status = dict(
                line.split(":\t", 1)
                for line in (stat.parent / "status").read_text().splitlines()
                if ":\t" in line
            )
            wchan = (stat.parent / "wchan").read_text() or "0"
        except (OSError, ValueError):  # the process exited meanwhile
            continue
        lines.append(
            f"{text[:name_end]} state {fields[0]} wchan {wchan} "
            f"SigIgn {status.get('SigIgn')} SigBlk {status.get('SigBlk')}"
        )
    return "\n".join(lines) or "(none)"


@pytest.mark.parametrize(
    "sigterm", [signal.SIG_DFL, signal.SIG_IGN], ids=["sigterm_default", "sigterm_ignored"]
)
def test_ctrl_c_ends_a_jobs_run_at_once(tmp_path, sigterm):
    """SIGINT sent to the process group of a --jobs 2 run, as Ctrl-C sends
    it, ends the run at once, long before its ranges would: exit 130, one
    line on stderr, nothing written, and no process of the group left.
    So too for a run started with SIGTERM ignored, as under ``trap '' TERM``:
    its workers inherit that, so a SIGTERM would not stop them."""
    out = tmp_path / "out"
    argv = SPLIT_FIG2 + ["--jobs", "2", "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED_RUN, *argv],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGTERM, sigterm),
    )
    try:
        with time_limit(30):
            assert [proc.stdout.readline() for _ in range(2)] == [b"running\n"] * 2
            sent = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate()
            took = time.monotonic() - sent
    except TimeoutError as timeout:
        raise TimeoutError(
            f"{timeout}; processes left in the group:\n{group_report(proc.pid)}"
        ) from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
        proc.wait()
    assert proc.returncode == 130
    assert err.decode().splitlines() == ["error: interrupted"]
    assert took < 10, took
    assert not left
    assert not out.exists()


SMALL_FIG2 = ["fig2", "--variant", "single", "--grid", "5", "--shots", "50"]


def written(argv: list[str], out: Path, capsys) -> dict[str, bytes]:
    """The files a ``main`` run of ``argv`` writes to ``out``, by name in the
    order it prints them, and their bytes."""
    assert main(argv + ["--out", str(out)]) == 0
    return {Path(line).name: Path(line).read_bytes() for line in capsys.readouterr().out.splitlines()}


def run_under_file_size_limit(argv: list[str], limit: int) -> subprocess.CompletedProcess:
    """``python -m weakmeas.experiments.cli`` on ``argv`` in a child that can
    write no file past ``limit`` bytes.  RLIMIT_FSIZE is set and SIGXFSZ
    ignored in the child alone, so a write past the limit fails with EFBIG
    instead of killing it."""

    def limit_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    return subprocess.run(
        [sys.executable, "-m", "weakmeas.experiments.cli", *argv],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit_file_size,
    )


def first_past(files: dict[str, bytes], limit: int) -> int:
    """The index of the first of ``files`` longer than ``limit`` bytes."""
    return next(i for i, data in enumerate(files.values()) if len(data) > limit)


def efbig_line(path: Path) -> str:
    return f"error: cannot write output file {path}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"


def test_write_past_the_file_size_limit_leaves_no_partial_file(tmp_path, capsys):
    """A run that cannot write one SVG whole, its file size limit below that
    SVG's size, exits 2 with one line naming it.  The files written before
    it are whole, and neither a file at its path nor a temporary file is
    left."""
    files = written(SMALL_FIG2, tmp_path / "whole", capsys)
    limit = max(map(len, files.values())) - 1
    failed = first_past(files, limit)
    names = list(files)
    assert failed > 0 and names[failed].endswith(".svg")
    out = tmp_path / "out"
    proc = run_under_file_size_limit(SMALL_FIG2 + ["--out", str(out)], limit)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [efbig_line(out / names[failed])]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == dict(list(files.items())[:failed])


def test_failed_rerun_leaves_the_earlier_file(tmp_path, capsys):
    """A rerun at another seed over an earlier run's output, whose write of
    one file fails, leaves that file and the ones after it byte for byte as
    the earlier run wrote them; the files before it are the rerun's own."""
    out = tmp_path / "out"
    earlier = written(SMALL_FIG2, out, capsys)
    rerun = written(SMALL_FIG2 + ["--seed", "2"], tmp_path / "rerun", capsys)
    limit = max(map(len, rerun.values())) - 1
    failed = first_past(rerun, limit)
    names = list(rerun)
    assert list(earlier) == names and failed > 0
    assert earlier[names[failed]] != rerun[names[failed]]
    proc = run_under_file_size_limit(SMALL_FIG2 + ["--seed", "2", "--out", str(out)], limit)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [efbig_line(out / names[failed])]
    want = {name: (rerun if i < failed else earlier)[name] for i, name in enumerate(names)}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == want


def test_chi2_quantile_constant():
    from scipy.stats import chi2

    assert mc.CHI2_1DOF_95 == chi2.ppf(0.95, df=1)


def test_cli_import_skips_scipy(tmp_path):
    """scipy is a test dependency only: neither starting the CLI nor a whole
    fig3 run (the blip-time MLE included) may load it."""
    for run in (
        "",
        "weakmeas.experiments.cli.main(['fig3', '--no-svg', '--out', sys.argv[1]])\n",
    ):
        code = (
            "import sys, weakmeas.experiments.cli\n"
            + run
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "fig3_tunnel.csv").exists()


def test_cli_loads_yaml_and_multiprocessing_on_demand(tmp_path):
    """Importing the CLI loads neither PyYAML, multiprocessing nor signal; a
    run with a config file at --jobs 2, split in two, then loads the first
    two and writes the bytes of the serial run."""
    config = tmp_path / "run.yaml"
    config.write_text("rng_seed: 3\n", encoding="utf-8")
    argv = SPLIT_FIG2 + ["--config", str(config)]
    code = (
        "import sys, weakmeas.experiments.cli as cli\n"
        "def loaded(names):\n"
        "    print(sorted({m.split('.')[0] for m in sys.modules} & names))\n"
        "loaded({'yaml', 'multiprocessing', 'signal'})\n"
        f"assert cli.main({argv!r} + ['--jobs', '2', '--out', sys.argv[1]]) == 0\n"
        "loaded({'yaml', 'multiprocessing'})\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "par")],
        env=child_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip().splitlines()[0] == "[]"
    assert out.stdout.strip().splitlines()[-1] == "['multiprocessing', 'yaml']"
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    par, serial = (
        {p.name: p.read_bytes() for p in (tmp_path / d).glob("*.csv")} for d in ("par", "serial")
    )
    assert par and par == serial


@pytest.mark.parametrize("caller_value", [None, "2"])
def test_cli_import_runs_one_blas_thread(caller_value):
    """Importing the CLI leaves one OS thread: weakmeas sets
    OPENBLAS_NUM_THREADS to 1 before numpy loads, unless the caller set it."""
    code = (
        "import os, weakmeas.experiments.cli\n"
        "task = '/proc/self/task'\n"
        "print(len(os.listdir(task)) if os.path.isdir(task) else -1)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(caller_value),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    threads, value = out.stdout.split()
    assert value == (caller_value or "1")
    if caller_value is None:
        if threads == "-1":
            pytest.skip("no /proc/self/task to count threads")
        assert threads == "1"


def test_blas_thread_count_leaves_the_bytes(tmp_path):
    """fig3 with dephasing writes the same bytes with OPENBLAS_NUM_THREADS=4
    as with the variable unset, which weakmeas then sets to 1."""
    config = tmp_path / "dephased.yaml"
    config.write_text("noise_t2star: 2.0\n", encoding="utf-8")
    trees = []
    for threads in ("4", None):
        out = tmp_path / f"blas_{threads}"
        subprocess.run(
            [sys.executable, "-m", "weakmeas.experiments.cli", "fig3", "--shots", "10000",
             "--config", str(config), "--out", str(out)],
            env=child_env(threads),
            capture_output=True,
            check=True,
            timeout=120,
        )
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert trees[0] and trees[0] == trees[1]
