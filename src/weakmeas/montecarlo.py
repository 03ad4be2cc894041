"""Single-shot trajectory simulation of the full pulse-and-readout sequence.

A protocol is data: an initial state and a list of immutable physics
steps, ``RotationPulse``s and readout windows, each a
``protocols.TunnelModel``.  Every readout window post-selects the shots
that show no blip, as the paper's readouts do, and every kept shot ends in
nuclear tomography on x, y and z.  The arrays derived from a step, a
pulse's unitary and a window's no-blip damping, are memoised by value:
equal steps of any protocols share one read-only array per process.  Each
shot evolves the electron-nuclear state through the steps, draws tunnel
events and times, applies optional label errors, and records whether the
shot passed post-selection plus the sampled tomography eigenvalue on each
axis.  Dephasing is applied once, at tomography: the quasi-static decay
exp(-(T/T2*)^2) of the nuclear coherences over the windows' total time T
commutes with every step, since pulses and windows act within each
nuclear up/down block and no blip weight reads a coherence, so it is one
factor that scales the kept shots' sigma_x and sigma_y.

Reproducibility contract: shot ``i`` of a run with root seed ``s`` always
uses the counter-based stream ``Philox(key=(s, i))``, so serial and
parallel runs (any worker count) give bit-identical aggregates.

``run_shots`` simulates shots in blocks of ``SHOT_BLOCK``: the uniforms of
every shot come from one vectorised Philox4x64-10 pass, and each block
walks the protocol's steps once, carrying the branch histories its shots
reach.  A window has two outcomes, no blip or a blip (the up electron
tunneled out), and keeps the shots that show no blip; a kept shot reaches
a blip history only through a false negative, a real blip read as none.
The state is a function of the outcomes drawn so far, not of the shot, and
so is the column of a shot's next uniform: at a window a shot reads its
blip draw, its blip time only on a blip, and a label flip only where that
flip's rate is above 0.  So each live history is its state, a mask of the
block's rows in it and the column of their next uniform: at window w,
counted from 0, a block carries at most min(2**w, its shots) histories,
and one without false negatives.  A window draws each history's blip
against its blip probability in that column, and evolves a child history
only when its mask holds a shot; at tomography each final history's rows
read their last column against its P(+1) on each axis.  Each history's
state is the 4x4 electron-nuclear density matrix: a finite readout window
leaves the nucleus mixed once the electron is traced out, so the pulse,
the window and the tomography each have one arithmetic.  The pulse is
``spinsys._node_pulse``, the window the helpers of ``protocols``, the
package's one readout-window channel (``conditional_state`` forces
outcomes through them by ``protocols._force_outcomes``, the one
forced-outcome walk), and the tomography thresholds each history's
``protocols._bloch`` vector, the Bloch readout of
``tomography_expectations``; the window's blip weight is the Born rule
over the state's trace, so it is exactly 1.0 where the no-blip child has
zero trace.  Only the blip-time draw, the label errors and the dephasing
factor at tomography are the engine's own.  Each range fills one
``Shots``, each block its own rows in place, one row per shot: its
tomography outcomes on x, y and z (0 for a rejected shot) and the blip
time of each window (NaN where none was recorded or the shot was rejected
before it; 0.0 at a projective window, whose electron tunnels at once).

The axis only sets the threshold the shot's last uniform is compared
with, so that one draw samples all three axes.  Every ensemble of a run
reads the same seed and chunk ranges, so each chunk range's uniforms are
generated once per process, kept as one read-only cache entry per range,
and shared by every ensemble that reads them.

``n_jobs`` cuts the shots into ``shot_ranges(n_shots, n_jobs)``: at most
``n_jobs`` contiguous ranges and at most one per CPU this process may run
on, each of at least ``SHOT_BLOCK`` shots, since a smaller range saves
less than its round trip through a worker costs.  So the ranges are the
processes: ``_parallel_map``, the one fork-and-join map of the package,
runs the first range in the caller and each further range in a worker
process of its own.  A figure run makes one such map over the ranges of
its shots, each range run at every sweep point with
``run_shots(..., start=a)`` and reduced to counts where it ran.
``multiprocessing`` is imported only when a worker starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .protocols import (
    PostSelectedState,
    ProtocolError,
    TunnelModel,
    _bloch,
    _force_outcomes,
    _node_after_window,
    _node_blip_weight,
)
from .qmath import _nuclear_reduced
from .spinsys import JointState, RotationPulse, _node_pulse, prepare_initial

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


class NoInformationError(ValueError):
    """An estimator was asked to run on data that carries no information."""


class WorkerLostError(RuntimeError):
    """A worker process of ``_parallel_map`` ended before it answered."""


# A readout window is its TunnelModel.
ProtocolStep = Union[RotationPulse, TunnelModel]


@dataclass(frozen=True)
class Protocol:
    """Declarative pulse sequence: the initial state, then pulses and
    readout windows.  Every kept shot ends in nuclear tomography on x, y
    and z.

    A step must commute with a nuclear z phase, as the pulses of every
    ``Frequency`` and the windows do: the shot engine applies the windows'
    dephasing as one factor at tomography, which a step that rotates the
    nucleus (an NMR pulse) would make wrong.

    Each block of shots evolves only the outcome histories its shots
    reach: one per window without false negatives, and with them at most
    min(2**w, the block's shots) before window w, counted from 0, since
    then both the blip and the no-blip history of each window can be
    kept."""

    steps: tuple[ProtocolStep, ...]
    initial: JointState = field(default_factory=prepare_initial)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, (RotationPulse, TunnelModel)):
                raise ProtocolError(f"a step must be a RotationPulse or TunnelModel: {step!r}")

    @cached_property
    def windows(self) -> tuple[TunnelModel, ...]:
        return tuple(s for s in self.steps if isinstance(s, TunnelModel))

    @cached_property
    def initial_statevector(self) -> Optional[np.ndarray]:
        """Amplitudes of the initial state when it is pure, else None."""
        m = self.initial.rho.matrix
        vals, vecs = np.linalg.eigh(m)
        if vals[-1] < 1.0 - 1e-12:
            return None
        psi = vecs[:, -1].astype(complex)
        psi.flags.writeable = False
        return psi


@dataclass(frozen=True)
class NoiseConfig:
    """Phenomenological knobs; the all-off default reproduces the closed forms.

    T2* is Gaussian: the free-induction decay of a nuclear detuning that is
    static within a shot and drawn as delta ~ N(0, 2/T2*^2) across shots.
    After readout windows of total time T ms the nuclear coherences have
    shrunk by exp(-(T/T2*)^2), which is 0 (full dephasing) once T/T2* is
    large, also where the square overflows a float."""

    nuclear_dephasing_time: Optional[float] = None  # Gaussian T2*, in ms
    readout_false_negative: float = 0.0
    readout_false_positive: float = 0.0

    def __post_init__(self):
        t2star = self.nuclear_dephasing_time
        if t2star is not None and not t2star > 0:  # NaN included
            raise ValueError("nuclear_dephasing_time must be positive")
        for p in (self.readout_false_negative, self.readout_false_positive):
            if not 0.0 <= p <= 1.0:
                raise ValueError("readout error rates must be in [0, 1]")


NO_NOISE = NoiseConfig()


@dataclass(frozen=True, eq=False)
class Shots:
    """Outcomes of consecutive shots, one array row per shot, in shot order:
    the tomography outcome on each of x, y and z, and the blip time of each
    readout window."""

    outcome: np.ndarray  # (shots, 3) int8 eigenvalue on x, y and z, 0 if rejected
    blip_times: np.ndarray  # (shots, windows) float, NaN where no blip was recorded

    def __len__(self) -> int:
        return len(self.outcome)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Shots):
            return NotImplemented
        return (
            np.array_equal(self.outcome, other.outcome)
            and np.array_equal(self.blip_times, other.blip_times, equal_nan=True)
        )


@dataclass(frozen=True)
class EnsembleStats:
    """Post-selected ensemble counts of the +-1 tomography outcomes.  The
    counts of disjoint shot ranges add up to those of their union."""

    n_total: int
    n_kept: int
    n_plus: int  # kept shots that read +1

    def __add__(self, other: "EnsembleStats") -> "EnsembleStats":
        return EnsembleStats(
            self.n_total + other.n_total, self.n_kept + other.n_kept, self.n_plus + other.n_plus
        )

    @property
    def success_fraction(self) -> float:
        return self.n_kept / self.n_total

    @property
    def empty(self) -> bool:
        return self.n_kept == 0

    @property
    def mean(self) -> Optional[float]:
        """The kept shots' mean outcome, None when none was kept."""
        return None if self.empty else (2 * self.n_plus - self.n_kept) / self.n_kept

    @property
    def std_error(self) -> Optional[float]:
        """The standard error of ``mean``, None when no shot was kept."""
        mean = self.mean
        return None if mean is None else math.sqrt(max(1.0 - mean * mean, 0.0) / self.n_kept)


def _dephasing_factor(windows: Sequence[TunnelModel], t2star: Optional[float]) -> float:
    """The factor by which the windows' dephasing scales a kept shot's
    nuclear sigma_x and sigma_y: the free-induction decay of a quasi-static
    detuning, exp(-(T/T2*)^2) after the windows' total time T, exactly 1.0
    without T2*."""
    if t2star is None:
        return 1.0
    try:
        return math.exp(-((math.fsum(w.t_m for w in windows) / t2star) ** 2))
    except OverflowError:  # the square of a ratio past ~1.34e154; exp is 0.0 from ~27.3 on
        return 0.0


# Block engine: the shots of one block walk the branch histories together.
SHOT_BLOCK = 4096  # shots per block; bounds each history's row mask

# Philox4x64-10 (Salmon et al., SC'11) exactly as numpy's ``Philox`` runs it.
_MASK64 = (1 << 64) - 1
_PHILOX_ROUNDS = 10
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & 0xFFFFFFFF
_PHILOX_M_HI = _PHILOX_M >> 32
# Round r uses the key plus r Weyl increments.  The offsets are reduced
# mod 2**64 as Python ints: numpy scalars would warn on the overflow.
_PHILOX_KEY0_OFFSETS = tuple(
    (r * 0x9E3779B97F4A7C15) & _MASK64 for r in range(_PHILOX_ROUNDS)
)
_PHILOX_KEY1_OFFSETS = np.array(
    [[(r * 0xBB67AE8584CAA73B) & _MASK64] for r in range(_PHILOX_ROUNDS)],
    dtype=np.uint64,
)


def _philox_mulhilo(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products of each row of ``a``
    with its Philox multiplier, the high word built from 32-bit limbs."""
    a_lo = a & 0xFFFFFFFF
    a_hi = a >> 32
    t = a_lo * _PHILOX_M_HI + ((a_lo * _PHILOX_M_LO) >> 32)  # cannot overflow
    w = (t & 0xFFFFFFFF) + a_hi * _PHILOX_M_LO  # cannot overflow
    hi = a_hi * _PHILOX_M_HI + (t >> 32) + (w >> 32)
    return hi, a * _PHILOX_M  # array products wrap mod 2**64


def _philox_block(rng_seed: int, start: int, stop: int, n_draws: int) -> np.ndarray:
    """The first ``n_draws`` uniforms of shots start..stop-1, one row each.

    Row j equals ``Generator(Philox(key=(rng_seed, start + j))).random(n_draws)``
    bit for bit: numpy's ``Philox`` increments its counter before each output of
    four words, so draw k is word k % 4 of the output at counter k // 4 + 1,
    mapped to ``(x >> 11) * 2**-53``.  Every (shot, counter) lane runs in
    one pass.
    """
    n_counters = -(-n_draws // 4)
    n = stop - start
    # counter words 0 and 2 in ``a``, words 1 and 3 in ``b``
    a = np.zeros((2, n * n_counters), dtype=np.uint64)
    a[0] = np.tile(np.arange(1, n_counters + 1, dtype=np.uint64), n)
    b = np.zeros_like(a)
    key0 = rng_seed & _MASK64
    key1 = (
        np.repeat(np.arange(start, stop, dtype=np.uint64), n_counters)
        + _PHILOX_KEY1_OFFSETS
    )
    for r in range(_PHILOX_ROUNDS):
        hi, lo = _philox_mulhilo(a)
        a = hi[::-1] ^ b
        a[0] ^= (key0 + _PHILOX_KEY0_OFFSETS[r]) & _MASK64
        a[1] ^= key1[r]
        b = lo[::-1]
    words = np.stack((a[0], b[0], a[1], b[1]), axis=1).reshape(n, 4 * n_counters)
    return (words[:, :n_draws] >> 11) * 2.0**-53


# Every ensemble of a run reads the same seed and chunk ranges, so each
# (seed, start, stop, draws) is generated once per process, one entry per
# chunk whatever its length, and shared read-only; a run touches a few
# entries per chunk, one per draw count.  An entry is (stop - start) x
# draws float64: row j is shot start + j, and column k its draw k, the same
# float whatever the width.  ``_draws_per_shot`` gives the width, 1 + W * s
# for W windows and s = 1, 2 or 3 columns a window may advance a kept shot,
# so 8 * (1 + W * s) bytes per shot.  Each entry is built block by block
# so that the Philox temporaries stay at SHOT_BLOCK rows.  Forked workers
# start from the parent's cache and fill their own.
@lru_cache(maxsize=16)
def _philox_uniforms(rng_seed: int, start: int, stop: int, n_draws: int) -> np.ndarray:
    """``_philox_block`` of shots start..stop-1, as one read-only array."""
    u = np.empty((stop - start, n_draws))
    for a in range(start, stop, SHOT_BLOCK):
        b = min(a + SHOT_BLOCK, stop)
        u[a - start : b - start] = _philox_block(rng_seed, a, b, n_draws)
    u.flags.writeable = False
    return u


# A branch history's state is the 4x4 joint density matrix shared by every
# shot with the same outcomes so far; ``spinsys._node_pulse`` and the window
# helpers of ``protocols`` evolve it, once per block for each history a shot
# of the block reaches.  Each shot therefore sees the probabilities the
# scalar ``sample_shot`` in tests/reference_sampler.py gives it on its own,
# up to rounding: that reference keeps a statevector while the state stays
# pure, and dephases after every window, an independent arithmetic for the
# same channels.  Of the engine's code it uses only ``spinsys.pulse_unitary``
# and the record types: its reload and electron trace are its own.


def _shot_block(protocol: Protocol, noise: NoiseConfig, u: np.ndarray, out: Shots) -> None:
    """Write the shots whose uniforms are the rows of ``u``, drawing from
    them in a lone shot's order, into ``out``'s rows, which read 0, NaN.

    Each live history is its state, the mask of the rows in it and the
    column of their next uniform.  At a window its rows draw the blip at
    column c, the blip time at c + 1, and a label flip where that flip's
    rate is above 0: at c + 1 after no blip, at c + 2 after a blip.  So a
    no-blip child reads on from c + 1, or c + 2 after a flip draw, and a
    hidden blip from c + 3, which ``_draws_per_shot`` counts."""
    p_fn, p_fp = noise.readout_false_negative, noise.readout_false_positive
    histories = [(protocol.initial.rho.matrix, np.ones(len(u), dtype=bool), 0)]
    w = 0
    for step in protocol.steps:
        if type(step) is RotationPulse:
            histories = [(_node_pulse(x, step), rows, c) for x, rows, c in histories]
            continue
        children = []
        for x, rows, c in histories:
            p_blip = _node_blip_weight(x, step)
            # a uniform in [0, 1) falls below p_blip only if it is > 0, and
            # at or above it only if it is < 1
            blip = u[:, c] < p_blip
            recorded = rows & blip
            # every window keeps the shots that show no blip: the rows of
            # the history that are not in its subset ``recorded``
            kept = rows ^ recorded
            if p_fp > 0.0:  # a false positive rejects a no-blip shot
                kept &= u[:, c + 1] >= p_fp
            if kept.any():
                children.append((_node_after_window(x, step, 0), kept, c + 1 + (p_fp > 0.0)))
            if p_fn > 0.0:  # a false negative keeps a blip shot, its time unrecorded
                hidden = recorded & (u[:, c + 2] < p_fn)
                recorded ^= hidden  # hidden is a subset of recorded
                if hidden.any():
                    children.append((_node_after_window(x, step, 1), hidden, c + 3))
            recorded = np.flatnonzero(recorded)
            if math.isinf(step.gamma_up_out):  # projective: the formula gives +0.0
                out.blip_times[recorded, w] = 0.0
            elif recorded.size:
                # inverse CDF of the tunnel time on [0, t_m] given a blip; q
                # is the blip probability within the window.  math, not
                # numpy: np.log1p can differ in the last bit.
                gamma = step.gamma_up_out
                q = -math.expm1(-gamma * step.t_m)
                out.blip_times[recorded, w] = [
                    -math.log1p(-r * q) / gamma for r in u[recorded, c + 1].tolist()
                ]
        histories = children
        w += 1
    # every kept shot passed every window, so each dephased its coherence
    # by the same factor
    factor = _dephasing_factor(protocol.windows, noise.nuclear_dephasing_time)
    for x, rows, c in histories:
        bloch = np.array(_bloch(_nuclear_reduced(x)))
        bloch[:2] *= factor
        # a draw in [0, 1) needs no clipping against P(+1), and one draw
        # serves every axis; rows are written faster by index than by mask
        rows = np.flatnonzero(rows)
        out.outcome[rows] = np.where(u[rows, c][:, None] < (1.0 + bloch) / 2.0, 1, -1)


def _draws_per_shot(protocol: Protocol, noise: NoiseConfig) -> int:
    """The width of a shot's row of uniforms, 1 + W * s for W windows: the
    columns ``_shot_block`` steps through.  A kept shot moves from column c
    to at most c + s at each window, and reads column c once more at
    tomography.  s is 3 with false negatives (a hidden blip: its blip
    draw, the unread time draw and the false negative), 2 with false
    positives alone (a no-blip and its flip draw), else 1 (a no-blip)."""
    p_fn, p_fp = noise.readout_false_negative, noise.readout_false_positive
    return 1 + len(protocol.windows) * (3 if p_fn > 0.0 else 2 if p_fp > 0.0 else 1)


def _run_chunk(args) -> Shots:
    protocol, noise, rng_seed, start, stop = args
    u = _philox_uniforms(rng_seed, start, stop, _draws_per_shot(protocol, noise))
    n = stop - start
    shots = Shots(np.zeros((n, 3), dtype=np.int8), np.full((n, len(protocol.windows)), np.nan))
    for a in range(0, n, SHOT_BLOCK):
        b = a + SHOT_BLOCK
        _shot_block(protocol, noise, u[a:b], Shots(shots.outcome[a:b], shots.blip_times[a:b]))
    return shots


def _map_worker(fn, item, conn: Connection) -> None:
    """Run ``fn(item)``, then send ``(result, error)`` once and exit."""
    import signal  # here, so that importing the CLI does not load it

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    result, error = None, None
    try:
        result = fn(item)
    except Exception as err:
        error = err
    try:
        conn.send((result, error))
    except OSError:  # the caller stopped listening: it failed itself
        pass
    conn.close()


def _parallel_map(fn, items: Sequence) -> list:
    """``[fn(x) for x in items]`` over one process per item.

    The caller runs the first item and forks one worker for each further
    item, which runs that item alone and sends its result and any error
    once; a lone item forks nothing and does not import
    ``multiprocessing``.  The callers pass no more items than
    ``shot_ranges`` cuts, at most one per usable CPU.  A worker's error is
    raised here, and a worker lost before it answered raises
    ``WorkerLostError``.  However the call ends, every worker is joined
    before it returns; when it ends by an exception, ``KeyboardInterrupt``
    included, the workers are killed first, so none runs on to the end of
    its item for a caller that no longer waits for it.  Killed, not
    terminated: a run started with SIGTERM ignored passes that to its
    workers, which would ignore ``terminate`` and hold the join until
    their items end.  Where the platform can block signals, a worker's
    start holds Ctrl-C until the worker is recorded: a
    ``KeyboardInterrupt`` raised after the fork but before ``start``
    returned would leave a worker that nothing kills.  The worker inherits
    SIGINT blocked, and ignores it anyway.

    Workers start by the platform's default method, fork on Linux: two
    spawned workers took 0.45-0.65 s to start on a 2-vCPU machine, about as
    long as a whole ``fig2 --shots 2000`` run.  Under the CLI's ``entry`` a
    forked worker inherits the frozen import-time heap: the collector never
    walks it there either, so it does not write to those pages and copy
    them, which is why the ``gc.freeze`` docs advise freezing before
    ``fork``.
    """
    if len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing  # here, so that a run with no worker never loads it
    import signal

    ctx = multiprocessing.get_context()
    hold = hasattr(signal, "pthread_sigmask")  # POSIX only
    conns, procs = [], []
    try:
        for item in items[1:]:
            here, there = ctx.Pipe(duplex=False)
            conns.append(here)
            proc = ctx.Process(target=_map_worker, args=(fn, item, there), daemon=True)
            if hold:
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                proc.start()
                procs.append(proc)
            finally:
                there.close()
                if hold:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [fn(items[0])]
        for conn in conns:
            try:
                result, error = conn.recv()
            except EOFError:
                raise WorkerLostError("a worker process exited unexpectedly") from None
            if error is not None:
                raise error
            results.append(result)
    except BaseException:
        for proc in procs:
            proc.kill()  # harmless to one that answered: it is exiting anyway
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    return results


def _brief_int(n: int) -> str:
    """``n`` as a message shows it: itself up to 20 digits, else its
    digit count."""
    text = str(n)
    digits = len(text.lstrip("-"))
    return text if digits <= 20 else f"an integer of {digits} digits"


def _check_run(n_shots: int, rng_seed: int, n_jobs: int) -> None:
    """Refuse a run's shot count, seed or process count, in that order:
    at least one shot, a seed that is a key numpy's ``Philox`` takes, in
    [-2**63, 2**64), and at least one process."""
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if not -(1 << 63) <= rng_seed <= _MASK64:
        raise ValueError(f"rng_seed is outside [-2**63, 2**64): {_brief_int(rng_seed)}")
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shot_ranges(n_shots: int, n_jobs: int) -> list[tuple[int, int]]:
    """Shots 0..n_shots-1 cut into contiguous ``(start, stop)`` ranges of
    as equal sizes as can be, one per process: at most ``n_jobs`` of them,
    at most one per CPU this process may run on, each of at least
    ``SHOT_BLOCK`` shots, and never fewer than one.  A range smaller than a
    block saves less time than its round trip through a worker costs, and
    a range beyond the CPUs only competes for them."""
    n = max(1, min(n_jobs, _usable_cpus(), n_shots // SHOT_BLOCK))
    return [(n_shots * k // n, n_shots * (k + 1) // n) for k in range(n)]


def run_shots(
    protocol: Protocol,
    noise: NoiseConfig = NO_NOISE,
    n_shots: int = 1,
    rng_seed: int = 0,
    n_jobs: int = 1,
    start: int = 0,
) -> Shots:
    """The outcomes of shots start..start+n_shots-1, in shot order.

    The shots are cut into ``shot_ranges(n_shots, n_jobs)``, each of at
    least ``SHOT_BLOCK`` shots, and ``_parallel_map`` runs each range in a
    process of its own; a lone range runs in this process.  The result is
    identical to the serial run, and shots a..b-1 of any run equal the run
    of those shots alone, because every shot has its own stream.
    ``rng_seed`` must be a key numpy's ``Philox`` takes, in [-2**63, 2**64);
    a negative seed keys the stream as its 64-bit mask.  The shot indices
    are the other key word, so they must lie in [0, 2**64).  A run whose
    float64 uniforms would pass numpy's largest array, np.intp's maximum of
    bytes, is refused before anything is allocated.
    """
    _check_run(n_shots, rng_seed, n_jobs)
    if start < 0 or start + n_shots > 1 << 64:
        raise ValueError(
            f"shots start..start + n_shots - 1 are outside [0, 2**64): "
            f"start {_brief_int(start)}, n_shots {_brief_int(n_shots)}"
        )
    max_bytes = np.iinfo(np.intp).max
    if n_shots * _draws_per_shot(protocol, noise) * 8 > max_bytes:
        raise ValueError(
            f"n_shots {_brief_int(n_shots)} is too many to simulate: their uniforms "
            f"would pass numpy's largest array, {max_bytes} bytes"
        )
    chunks = [
        (protocol, noise, rng_seed, start + a, start + b) for a, b in shot_ranges(n_shots, n_jobs)
    ]
    parts = _parallel_map(_run_chunk, chunks)
    if len(parts) == 1:
        return parts[0]
    return Shots(
        np.concatenate([p.outcome for p in parts]), np.concatenate([p.blip_times for p in parts])
    )


def stats_from_records(shots: Shots, axis: str) -> EnsembleStats:
    """Order-insensitive aggregation of the kept shots' tomography outcomes
    on ``axis``, "x", "y" or "z"."""
    outcome = shots.outcome[:, ("x", "y", "z").index(axis)]
    return EnsembleStats(
        n_total=len(shots),
        n_kept=int(np.count_nonzero(outcome)),
        n_plus=int(np.count_nonzero(outcome > 0)),
    )


def conditional_state(
    protocol: Protocol, window_outcomes: Sequence[str]
) -> PostSelectedState:
    """Deterministic evolution with forced readout outcomes.

    Forces one outcome ("no_blip" or "blip") per readout window through the
    shot engine's window arithmetic, reloading a down electron after each,
    and returns the final nuclear state with the joint probability of that
    outcome sequence.  It is one call of ``protocols``' forced-outcome walk,
    the one that ``weak_electron_window`` and ``weak_nuclear_measure`` make,
    so all three raise the same ``ProtocolError`` for an outcome count that
    does not match the windows or an outcome other than those two.  Noise
    is not applied.
    """
    return _force_outcomes(protocol.initial.rho.matrix, protocol.steps, window_outcomes)


# 95% quantile of the chi-squared law with one degree of freedom: the exact
# float scipy.stats.chi2.ppf(0.95, df=1) returns (1.959963984540054**2 is a
# different float).
CHI2_1DOF_95 = 3.841458820694124


@dataclass(frozen=True)
class GammaEstimate:
    """Tunnel-time MLE from blip times, with a 95% likelihood-ratio interval."""

    inv_gamma: float          # 1/Gamma, in ms
    ci_low: float
    ci_high: float            # may be inf when the data cannot bound Gamma below
    n_blips: int
    n_censored: int


def _bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` between ``lo`` and ``hi``, where it changes sign, found
    by halving the bracket until no float lies strictly inside it."""
    lo_positive = f(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def recorded_blip_times(shots: Shots) -> np.ndarray:
    """The blip times a single-window protocol recorded, in shot order."""
    if shots.blip_times.shape[1] != 1:
        raise ProtocolError("shots must come from a single-window protocol")
    column = shots.blip_times[:, 0]
    return column[~np.isnan(column)]


def estimate_gamma_from_blips(
    times: np.ndarray,
    n_shots: int,
    t_m: float,
    p: float,
) -> GammaEstimate:
    """Censored-exponential MLE of the up-electron tunnel-out rate from the
    ``recorded_blip_times`` of ``n_shots`` shots.

    Observed blip times follow the exponential law truncated to the
    window; no-blip shots are right-censored at t_m within the branch that
    records a time, which occurs with probability ``p``: 1/2 for the Bell
    protocol, times 1 - p_fn under false negatives, which drop a real
    blip's time (a false positive records none).  The 95% interval comes
    from the likelihood-ratio statistic.  A ``t_m`` so short that the rate
    bracket overflows is refused with a ValueError.
    """
    lo, hi = 1e-9 / t_m, 1e6 / t_m
    if not math.isfinite(hi):  # then lo = 1e-15 * hi is finite
        raise ValueError(f"t_m = {t_m} is too short for the blip-time MLE: 1e6 / t_m overflows")
    n_blips = len(times)
    n_censored = n_shots - n_blips
    if n_blips == 0:
        raise NoInformationError("no tunnel events observed")
    # one left-to-right pass in shot order: not np.sum's pairwise sum, nor
    # builtin sum(), which is compensated from Python 3.12.  The fig3 CSV
    # depends on the last bit of it.
    sum_t = float(np.cumsum(times)[-1])

    def loglik(gamma: float) -> float:
        return (
            n_blips * math.log(p * gamma)
            - gamma * sum_t
            + n_censored * math.log(1.0 - p + p * math.exp(-gamma * t_m))
        )

    def score(gamma: float) -> float:
        e = math.exp(-gamma * t_m)
        return n_blips / gamma - sum_t - n_censored * p * t_m * e / (1.0 - p + p * e)

    if score(lo) <= 0.0:
        raise NoInformationError("likelihood is maximized at zero rate")
    if score(hi) >= 0.0:
        raise NoInformationError("likelihood is maximized at infinite rate")
    gamma_hat = _bisect(score, lo, hi)

    target = loglik(gamma_hat) - CHI2_1DOF_95 / 2.0

    def deficit(gamma: float) -> float:
        return loglik(gamma) - target

    g_low = _bisect(deficit, lo, gamma_hat) if deficit(lo) < 0 else lo
    g_high = _bisect(deficit, gamma_hat, hi) if deficit(hi) < 0 else hi
    # low rate -> long tunnel time
    return GammaEstimate(
        inv_gamma=1.0 / gamma_hat,
        ci_low=1.0 / g_high,
        ci_high=math.inf if g_low <= lo else 1.0 / g_low,
        n_blips=n_blips,
        n_censored=n_censored,
    )
