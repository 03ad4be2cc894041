"""Block shot engine tests: its Philox uniforms, shot-for-shot equality
with the scalar ``sample_shot`` of ``reference_sampler``, byte-identical
CSVs, one worker pool per run that shares each call's chunks with the
caller and leaves no process behind, a CLI start and fig3 run that do
not import scipy, a CLI start that imports neither PyYAML nor
multiprocessing until a run reads a config or opens a pool, and a CLI
start that runs one BLAS thread unless the caller asks for more."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import reference_sampler as ref
import weakmeas
from weakmeas import montecarlo as mc
from weakmeas.experiments.cli import main
from weakmeas.protocols import TunnelModel
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


INITIALS = {
    "superposition_x": prepare_initial,
    "up": lambda: prepare_initial("up"),
    "down": lambda: prepare_initial("down"),
    "bell": prepare_bell,
    "mixed": lambda: mixed_initial(0.6),
}


def sometimes(rng, p, value, otherwise):
    """``value`` as a float with probability p, else ``otherwise``."""
    return float(value) if rng.random() < p else otherwise


def random_pulse(rng):
    freq = list(Frequency)[int(rng.integers(len(Frequency)))]
    return RotationPulse(
        freq, float(rng.uniform(0.0, 2 * math.pi)), float(rng.uniform(-1, 1))
    )


def random_window(rng):
    if rng.random() < 0.3:
        model = TunnelModel.projective()
    else:
        model = TunnelModel(
            gamma_up_out=float(10 ** rng.uniform(-1.5, 1.0)),
            t_m=float(rng.uniform(0.2, 2.0)),
            gamma_down_out=sometimes(rng, 0.5, 10 ** rng.uniform(-1.5, 0.5), 0.0),
        )
    return mc.ReadoutWindow(model, keep=str(rng.choice(["no_blip", "blip", "both"])))


def random_case(seed):
    """A random protocol, noise setting and shot range."""
    rng = np.random.default_rng(seed)
    steps = []
    for _ in range(int(rng.integers(0, 4))):
        steps += [random_pulse(rng) for _ in range(int(rng.integers(0, 3)))]
        steps.append(random_window(rng))
    if rng.random() < 0.3:
        steps.append(random_pulse(rng))
    steps.append(mc.NuclearTomography(str(rng.choice(["x", "y", "z"]))))
    initial = INITIALS[str(rng.choice(list(INITIALS)))]()
    noise = mc.NoiseConfig(
        nuclear_dephasing_time=sometimes(rng, 0.5, rng.uniform(0.5, 5.0), None),
        readout_false_negative=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
        readout_false_positive=sometimes(rng, 0.4, rng.uniform(0, 0.3), 0.0),
    )
    rng_seed = int(rng.integers(-5, 2**40))
    start = int(rng.integers(0, 2**34))
    return mc.Protocol(tuple(steps), initial=initial), noise, rng_seed, start


# Each feature the engine must reproduce, on its own.
NAMED_CASES = {
    "two finite windows, down tunneling, both kept": (
        mc.Protocol(
            (
                RotationPulse(Frequency.NU_E2, 1.3),
                mc.ReadoutWindow(TunnelModel(1.0, 1.0, gamma_down_out=0.4), keep="both"),
                RotationPulse(Frequency.NMR, 0.8),
                mc.ReadoutWindow(TunnelModel(2.0, 0.5, gamma_down_out=0.2), keep="both"),
                mc.NuclearTomography("x"),
            )
        ),
        mc.NO_NOISE,
    ),
    "partial collapse, then a projective window kept on blip": (
        mc.Protocol(
            (
                RotationPulse(Frequency.ESR_BOTH, 1.1),
                mc.ReadoutWindow(TunnelModel(0.5, 1.0), keep="no_blip"),
                RotationPulse(Frequency.NU_E1, 2.0),
                mc.ReadoutWindow(TunnelModel.projective(), keep="blip"),
                mc.NuclearTomography("y"),
            )
        ),
        mc.NO_NOISE,
    ),
    # after the first window one history has its electron up for certain
    # (w_blip_down exactly 0: no branch draw), the other almost surely down
    "tunnel branch drawn for some histories only": (
        mc.Protocol(
            (
                RotationPulse(Frequency.NU_E2, math.pi),
                mc.ReadoutWindow(TunnelModel.projective(), keep="both"),
                RotationPulse(Frequency.NU_E2, math.pi),
                mc.ReadoutWindow(TunnelModel(1.0, 1.0, gamma_down_out=0.5), keep="both"),
                mc.NuclearTomography("x"),
            )
        ),
        mc.NO_NOISE,
    ),
    "bell window, dephasing": (
        mc.Protocol(
            (mc.ReadoutWindow(TunnelModel(0.7, 1.5)), mc.NuclearTomography("z")),
            initial=prepare_bell(),
        ),
        mc.NoiseConfig(nuclear_dephasing_time=2.0),
    ),
    "bell window, label errors, kept on blip": (
        mc.Protocol(
            (
                mc.ReadoutWindow(TunnelModel(2.0, 1.5), keep="blip"),
                mc.NuclearTomography("x"),
            ),
            initial=prepare_bell(),
        ),
        mc.NoiseConfig(readout_false_negative=0.2, readout_false_positive=0.15),
    ),
    "mixed initial state, no window": (
        mc.Protocol(
            (RotationPulse(Frequency.NMR, 0.9), mc.NuclearTomography("x")),
            initial=mixed_initial(0.3),
        ),
        mc.NO_NOISE,
    ),
}


class TestAgainstSampleShot:
    @pytest.mark.parametrize("name", list(NAMED_CASES))
    def test_named_case(self, name):
        protocol, noise = NAMED_CASES[name]
        assert mc.run_shots(protocol, noise, 600, 17) == ref.run_shots(
            protocol, noise, 600, 17
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_case_chunk(self, seed):
        protocol, noise, rng_seed, start = random_case(seed)
        got = mc._run_chunk((protocol, noise, rng_seed, start, start + 250))
        want = ref.sample_records(protocol, noise, rng_seed, start, start + 250)
        assert got == ref.to_shots(want, len(protocol.windows))

    def test_random_cases_cover_every_branch(self):
        """The random cases reach rejections, both tunnel branches, label
        flips, mixed initial states and dephasing."""
        seen = dict.fromkeys(
            ("rejected", "kept", "down_tunnel_draws", "flips", "mixed", "dephased"), 0
        )
        for seed in range(40):
            protocol, noise, _, _ = random_case(seed)
            windows = protocol.windows
            recs = ref.sample_records(protocol, noise, 0, 0, 50)
            seen["rejected"] += sum(not r.kept for r in recs)
            seen["kept"] += sum(r.kept for r in recs)
            seen["mixed"] += protocol.initial_statevector is None
            seen["dephased"] += noise.nuclear_dephasing_time is not None
            seen["down_tunnel_draws"] += any(w.model.gamma_down_out > 0 for w in windows)
            seen["flips"] += bool(windows) and (
                noise.readout_false_negative > 0 or noise.readout_false_positive > 0
            )
        assert all(count > 0 for count in seen.values()), seen

    def test_more_shots_than_a_block(self):
        protocol, noise = NAMED_CASES["bell window, dephasing"]
        n = mc.SHOT_BLOCK + 150
        got = mc.run_shots(protocol, noise, n, 5)
        assert got == ref.run_shots(protocol, noise, n, 5)

    def test_blip_times_bit_equal(self):
        protocol = mc.Protocol(
            (
                mc.ReadoutWindow(TunnelModel(0.3, 1.5), keep="both"),
                mc.NuclearTomography("z"),
            ),
            initial=prepare_bell(),
        )
        got = mc.run_shots(protocol, n_shots=3000).blip_times[:, 0].tolist()
        records = ref.sample_records(protocol, mc.NO_NOISE, 0, 0, 3000)
        want = [r.blip_times[0] for r in records]
        assert sum(t is not None for t in want) > 500
        assert [math.isnan(t) or t.hex() for t in got] == [
            t is None or t.hex() for t in want
        ]


def assert_columns_are_one_axis_runs(got, protocol, run):
    """Column k of ``got`` equals ``run`` of ``protocol`` on axis k alone."""
    for k, axis in enumerate(protocol.steps[-1].axes):
        one = run(ref.with_axes(protocol, axis))
        assert one.outcome.shape == (len(got), 1)
        assert mc.Shots(got.outcome[:, [k]], got.blip_times, got.windows_seen) == one


class TestSeveralAxes:
    """One pass samples every axis the tomography names: column k is the
    one-axis run on axis k, and the reference sampler's run on axis k."""

    @pytest.mark.parametrize("name", list(NAMED_CASES))
    def test_named_case(self, name):
        protocol, noise = NAMED_CASES[name]
        several = ref.with_axes(protocol, "zxy")
        got = mc.run_shots(several, noise, 600, 17)
        assert got.outcome.shape == (600, 3)
        assert got == ref.run_shots(several, noise, 600, 17)
        assert_columns_are_one_axis_runs(
            got, several, lambda p: mc.run_shots(p, noise, 600, 17)
        )

    @pytest.mark.parametrize("seed", range(40))
    def test_random_case_chunk(self, seed):
        protocol, noise, rng_seed, start = random_case(seed)
        axes = "".join(np.random.default_rng(seed).permutation(list("xyz"))[: 2 + seed % 2])
        several = ref.with_axes(protocol, axes)
        got = mc._run_chunk((several, noise, rng_seed, start, start + 250))
        assert got == ref.sample_columns(several, noise, rng_seed, start, start + 250)
        assert_columns_are_one_axis_runs(
            got, several, lambda p: mc._run_chunk((p, noise, rng_seed, start, start + 250))
        )

    def test_more_shots_than_a_block_and_parallel(self, worker_chunks):
        for name in ("bell window, dephasing", "bell window, label errors, kept on blip"):
            protocol, noise = NAMED_CASES[name]
            several = ref.with_axes(protocol, "xyz")
            n = mc.SHOT_BLOCK + 150
            assert mc.run_shots(several, noise, n, 5) == ref.run_shots(several, noise, n, 5)
            n = 2 * mc.SHOT_BLOCK + 150  # two chunks at n_jobs=2
            got = mc.run_shots(several, noise, n, 5)
            assert mc.run_shots(several, noise, n, 5, n_jobs=2) == got
        assert worker_chunks() > 0

    def test_stats_read_one_column(self):
        protocol, noise = NAMED_CASES["two finite windows, down tunneling, both kept"]
        shots = mc.run_shots(ref.with_axes(protocol, "yz"), noise, 500, 3)
        for k, axis in enumerate("yz"):
            one = mc.run_shots(ref.with_axes(protocol, axis), noise, 500, 3)
            assert mc.stats_from_records(shots, k) == mc.stats_from_records(one)

    @pytest.mark.parametrize("axes", ["", "xx", "zxz", "xw"])
    def test_rejects_repeated_or_missing_axes(self, axes):
        with pytest.raises(mc.ProtocolError):
            mc.NuclearTomography(axes)


def test_philox_ranges_are_cached_and_read_only():
    """Runs at two seeds and two shot ranges, interleaved and on protocols
    with different draw counts, equal each run alone."""
    runs = [
        (NAMED_CASES[name], seed, start)
        for name in ("bell window, label errors, kept on blip",
                     "two finite windows, down tunneling, both kept")
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
    protocol, noise = NAMED_CASES["bell window, label errors, kept on blip"]
    n = 17 * mc.SHOT_BLOCK + 5
    mc._philox_uniforms.cache_clear()
    try:
        first = mc.run_shots(protocol, noise, n, 11)
        assert mc.run_shots(protocol, noise, n, 11) == first
    finally:
        mc._philox_uniforms.cache_clear()
    blocks = [(a, min(a + mc.SHOT_BLOCK, n)) for a in range(0, n, mc.SHOT_BLOCK)]
    assert len(blocks) == 18 and calls == blocks


CLI_CASES = {
    "fig2": (["fig2", "--variant", "all", "--shots", "150", "--grid", "5"], None),
    "fig2 dephased": (
        ["fig2", "--variant", "all", "--shots", "150", "--grid", "5"],
        "noise_t2star: 1.0\n",
    ),
    "fig3 dephased": (["fig3", "--shots", "1500"], "noise_t2star: 2.0\n"),
    "fig3 label errors": (
        ["fig3", "--shots", "1500"],
        "noise_false_negative: 0.2\nnoise_false_positive: 0.05\n",
    ),
    "supp": (["supp", "--shots", "100", "--grid", "5"], None),
}


@pytest.mark.parametrize("name", list(CLI_CASES))
def test_csv_bytes_match_scalar_sampler(tmp_path, monkeypatch, capsys, name):
    argv, config = CLI_CASES[name]
    if config is not None:
        (tmp_path / "run.yaml").write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "run.yaml")]
    assert main(argv + ["--no-svg", "--out", str(tmp_path / "engine")]) == 0
    monkeypatch.setattr(mc, "run_shots", ref.run_shots)
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
    """--out names a file: the first panel's ensembles run in the pool, then
    writing its CSV raises OSError and main returns 2."""
    ensembles = []
    run_shots = mc.run_shots

    def counted(*args):
        ensembles.append(args)
        return run_shots(*args)

    monkeypatch.setattr(mc, "run_shots", counted)
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(SPLIT_FIG2 + ["--jobs", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert len(ensembles) == 3
    assert multiprocessing.active_children() == []


@pytest.fixture
def recording_pool(monkeypatch):
    """Stands in for WorkerPool: records the process count each pool asks
    for and runs the chunks in this process, so no worker starts.  Each pool
    keeps the chunks of each of its calls in ``calls``."""
    asked = []

    class RecordingPool:
        def __init__(self, n_jobs):
            asked.append(n_jobs)
            self.calls = []

        def run_chunks(self, chunks):
            self.calls.append(chunks)
            return [mc._run_chunk(c) for c in chunks]

        def shutdown(self):
            pass

    monkeypatch.setattr(mc, "WorkerPool", RecordingPool)
    return asked


def test_one_pool_per_run(tmp_path, monkeypatch, capsys, worker_chunks):
    """A --jobs 2 run of several ensembles starts its workers once."""
    pools = []

    class CountingPool(mc.WorkerPool):
        def __init__(self, n_jobs):
            pools.append(n_jobs)
            super().__init__(n_jobs)

    monkeypatch.setattr(mc, "WorkerPool", CountingPool)
    assert main(SPLIT_FIG2 + ["--jobs", "2", "--out", str(tmp_path / "par")]) == 0
    assert pools == [2]
    assert worker_chunks() > 0
    assert main(SPLIT_FIG2 + ["--out", str(tmp_path / "serial")]) == 0
    assert pools == [2]
    par, serial = (
        {p.name: p.read_bytes() for p in (tmp_path / d).glob("*.csv")} for d in ("par", "serial")
    )
    assert par and par == serial


@pytest.mark.parametrize(
    "shots, jobs, workers",
    [
        (2 * mc.SHOT_BLOCK, 64, 2),
        (3 * mc.SHOT_BLOCK + 1, 3, 3),
        (2 * mc.SHOT_BLOCK - 1, 8, None),
        (1, 8, None),
    ],
)
def test_run_pool_workers_bounded(tmp_path, recording_pool, capsys, shots, jobs, workers):
    """The run's pool is for as many processes as run_shots makes chunks of
    --shots, at most --jobs and each of at least a block, and there is none
    at all when that is one."""
    argv = ["fig2", "--variant", "single", "--grid", "3", "--no-svg", "--shots", str(shots)]
    assert main(argv + ["--jobs", str(jobs), "--out", str(tmp_path)]) == 0
    assert recording_pool == ([] if workers is None else [workers])


@pytest.mark.parametrize(
    "n_shots, counts",
    [
        (1, {1: 1, 2: 1, 8: 1}),
        (2 * mc.SHOT_BLOCK - 1, {1: 1, 2: 1, 64: 1}),
        (2 * mc.SHOT_BLOCK, {1: 1, 2: 2, 3: 2, 64: 2}),
        (10**6, {1: 1, 3: 3, 64: 64, 244: 244, 1000: 244}),
    ],
)
def test_chunk_count(n_shots, counts):
    """At most n_jobs chunks, each of at least a block, and at least one."""
    assert {n_jobs: mc.chunk_count(n_shots, n_jobs) for n_jobs in counts} == counts


@pytest.mark.parametrize(
    "n_shots, n_jobs", [(2 * mc.SHOT_BLOCK, 64), (3 * mc.SHOT_BLOCK + 1, 3), (5 * mc.SHOT_BLOCK - 1, 8)]
)
def test_chunks_are_contiguous_blocks_and_more(recording_pool, n_shots, n_jobs):
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    with mc.worker_pool(n_jobs) as pool:
        mc.run_shots(protocol, noise, n_shots, 4, n_jobs)
    (chunks,) = pool.calls
    bounds = [(start, stop) for *_, start, stop in chunks]
    assert len(bounds) == mc.chunk_count(n_shots, n_jobs)
    assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
    assert bounds[-1][1] == n_shots
    assert min(b - a for a, b in bounds) >= mc.SHOT_BLOCK


def test_worker_pool_is_shared_and_call_pools_bounded(recording_pool):
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    serial = mc.run_shots(protocol, noise, SPLIT, 4)
    sub_block = mc.run_shots(protocol, noise, 2 * mc.SHOT_BLOCK - 1, 4)
    assert mc.run_shots(protocol, noise, SPLIT, 4, n_jobs=8) == serial
    assert mc.run_shots(protocol, noise, 2 * mc.SHOT_BLOCK - 1, 4, n_jobs=8) == sub_block
    assert recording_pool == [2]
    with mc.worker_pool(3) as outer:
        with mc.worker_pool(5) as inner:
            assert inner is outer
            assert mc.run_shots(protocol, noise, SPLIT, 4, n_jobs=4) == serial
            # one chunk runs here, not in the open pool
            assert mc.run_shots(protocol, noise, 2 * mc.SHOT_BLOCK - 1, 4, n_jobs=4) == sub_block
    assert recording_pool == [2, 3]
    assert [len(chunks) for chunks in outer.calls] == [2]
    with mc.worker_pool(1) as none:
        assert none is None
    assert recording_pool == [2, 3]


def test_sub_block_run_starts_no_pool(tmp_path, recording_pool, capsys):
    """A custom run whose ensembles are all smaller than two blocks opens no
    pool at --jobs 4 and writes the bytes of --jobs 1."""
    config = tmp_path / "custom.yaml"
    config.write_text("experiment: custom\nn_shots: 50\n", encoding="utf-8")
    argv = ["custom", "--config", str(config), "--grid", "5"]
    for jobs in ("1", "4"):
        assert main(argv + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert recording_pool == []
    one, four = ({p.name: p.read_bytes() for p in (tmp_path / d).glob("*.csv")} for d in ("1", "4"))
    assert one and one == four


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


def test_caller_runs_the_chunks_of_a_stopped_worker(worker_chunks):
    """A worker that is not running costs the call nothing: the caller
    claims every chunk and does not wait for it."""
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    serial = mc.run_shots(protocol, noise, SPLIT, 9)
    with mc.worker_pool(2):
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGSTOP)
        try:
            with time_limit(30):
                assert mc.run_shots(protocol, noise, SPLIT, 9, n_jobs=2) == serial
                assert mc.run_shots(protocol, noise, SPLIT, 9, n_jobs=4) == serial
        finally:
            os.kill(worker.pid, signal.SIGCONT)
        assert worker_chunks() == 0
        for _ in range(20):  # the late answers are taken and the worker rejoins
            assert mc.run_shots(protocol, noise, SPLIT, 9, n_jobs=2) == serial
        assert worker_chunks() > 0


def test_worker_error_reaches_the_caller(monkeypatch):
    """A chunk that raises in a worker raises in the caller; the caller's
    own chunk is slowed so that the worker surely claims one."""
    caller = os.getpid()
    run_chunk = mc._run_chunk

    def failing_in_workers(chunk):
        if os.getpid() != caller:
            raise ValueError("failed in a worker")
        time.sleep(0.2)
        return run_chunk(chunk)

    monkeypatch.setattr(mc, "_run_chunk", failing_in_workers)
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    with time_limit(30), pytest.raises(ValueError, match="failed in a worker"):
        mc.run_shots(protocol, noise, SPLIT, 9, n_jobs=2)


def test_lost_worker_is_reported():
    protocol, noise = NAMED_CASES["bell window, dephasing"]
    with mc.worker_pool(2):
        (worker,) = multiprocessing.active_children()
        worker.kill()
        worker.join()
        with time_limit(30), pytest.raises((RuntimeError, BrokenPipeError)):
            mc.run_shots(protocol, noise, SPLIT, 9, n_jobs=2)


def test_chi2_quantile_constant():
    from scipy.stats import chi2

    assert mc.CHI2_1DOF_95 == chi2.ppf(0.95, df=1)


def test_cli_import_skips_scipy(tmp_path):
    """scipy is a test dependency only: neither starting the CLI nor a whole
    fig3 run (the blip-time MLE included) may load it."""
    src = Path(weakmeas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
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
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "fig3_tunnel.csv").exists()


def test_cli_loads_yaml_and_multiprocessing_on_demand(tmp_path):
    """Importing the CLI loads neither PyYAML nor multiprocessing; a run
    with a config file at --jobs 2, split in two, then loads both and
    writes the bytes of the serial run."""
    src = Path(weakmeas.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    config = tmp_path / "run.yaml"
    config.write_text("rng_seed: 3\n", encoding="utf-8")
    argv = SPLIT_FIG2 + ["--config", str(config)]
    code = (
        "import sys, weakmeas.experiments.cli as cli\n"
        "def loaded():\n"
        "    print(sorted({m.split('.')[0] for m in sys.modules} & {'yaml', 'multiprocessing'}))\n"
        "loaded()\n"
        f"assert cli.main({argv!r} + ['--jobs', '2', '--out', sys.argv[1]]) == 0\n"
        "loaded()\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "par")],
        env=env,
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
    src = Path(weakmeas.__file__).resolve().parent.parent
    env = dict(os.environ)
    # this process imported weakmeas, which set the variable; a child that
    # inherited it would pass without the package doing anything
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import os, weakmeas.experiments.cli\n"
        "task = '/proc/self/task'\n"
        "print(len(os.listdir(task)) if os.path.isdir(task) else -1)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
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
