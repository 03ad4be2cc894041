"""Single-shot trajectory simulation of the full pulse-and-readout sequence.

A protocol is data: a list of immutable physics steps (``RotationPulse``s,
``ReadoutWindow``s of a ``TunnelModel`` and a keep policy) and one terminal
``NuclearTomography``.  The arrays derived from a step, a pulse's unitary
and a window's no-blip damping, are memoised by value: equal steps of any
protocols share one read-only array per process.  Each shot evolves the
electron-nuclear state through the steps, draws tunnel events and times,
applies optional label errors and dephasing, and records whether the shot
passed post-selection plus the sampled tomography eigenvalue on each axis
the tomography names.

Reproducibility contract: shot ``i`` of a run with root seed ``s`` always
uses the counter-based stream ``Philox(key=(s, i))``, so serial and
parallel runs (any worker count) give bit-identical aggregates.

``run_shots`` simulates shots in blocks of ``SHOT_BLOCK``: the uniforms of
every shot come from one vectorised Philox4x64-10 pass, each shot keeps its
own draw pointer, and the state is evolved once per distinct branch
history (the state is a function of the outcomes drawn so far, not of the
shot).  That state is always the 4x4 electron-nuclear density matrix: a
finite readout window leaves the nucleus mixed once the electron is traced
out, so the pulse, the window and the tomography each have one arithmetic,
with or without dephasing.  It returns ``Shots``, one array row per shot:
one tomography outcome per named axis (0 for a rejected shot), the blip
time of each window (NaN where none was recorded) and the windows each
shot reached.  The estimators read these columns directly.

The axis only sets the threshold the shot's last uniform is compared
with, so one pass samples every named axis, and column k equals a run of
the same protocol with axis k alone, bit for bit.  Every ensemble of a run
reads the same seed and chunk ranges, so each chunk range's uniforms are
generated once per process, kept as one read-only cache entry per range,
and shared by every ensemble that reads them.

``n_jobs`` splits the shot range into ``chunk_count(n_shots, n_jobs)``
chunks: at most ``n_jobs``, each of at least ``SHOT_BLOCK`` shots, since a
smaller chunk saves less than its round trip through a worker costs.  One
chunk runs in the caller, with no pool.  Several are claimed from one
shared counter by the caller and the pool's worker processes, and the
caller waits only for chunks a worker claimed: a worker the machine is slow
to schedule costs no more than running its chunk in the caller.
``worker_pool`` opens one pool that every ``run_shots`` call inside it
shares, so a whole CLI run starts its workers once; a call outside any
``worker_pool`` opens its own.  ``multiprocessing`` is imported only when a
pool starts.
"""

from __future__ import annotations

import math
import signal
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from . import qmath
from .qmath import DensityMatrix
from .protocols import (
    BLIP,
    NO_BLIP,
    PostSelectedState,
    TunnelModel,
    weak_electron_window,
)
from .spinsys import (
    JointState,
    NuclearState,
    RotationPulse,
    prepare_initial,
    pulse_unitary,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


class NoInformationError(ValueError):
    """An estimator was asked to run on data that carries no information."""


class ProtocolError(ValueError):
    """Malformed protocol description."""


@dataclass(frozen=True)
class ReadoutWindow:
    model: TunnelModel
    keep: str = NO_BLIP  # "no_blip", "blip" or "both"

    def __post_init__(self):
        if self.keep not in (NO_BLIP, BLIP, "both"):
            raise ProtocolError(f"unknown keep policy {self.keep!r}")


@dataclass(frozen=True)
class NuclearTomography:
    """Projective nuclear measurement along each of ``axes`` ("x", "zxy", ...),
    all sampled from the shot's one tomography draw."""

    axes: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        for axis in self.axes:
            if axis not in ("x", "y", "z"):
                raise ProtocolError(f"unknown tomography axis {axis!r}")
        if not self.axes or len(set(self.axes)) != len(self.axes):
            raise ProtocolError(f"tomography needs distinct axes, got {self.axes!r}")


ProtocolStep = Union[RotationPulse, ReadoutWindow, NuclearTomography]


@dataclass(frozen=True)
class Protocol:
    """Declarative pulse sequence ending in one nuclear tomography, which
    may name several axes."""

    steps: tuple[ProtocolStep, ...]
    initial: JointState = field(default_factory=prepare_initial)

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps or not isinstance(self.steps[-1], NuclearTomography):
            raise ProtocolError("protocol must end with a NuclearTomography step")
        if any(isinstance(s, NuclearTomography) for s in self.steps[:-1]):
            raise ProtocolError("only the terminal step may be a tomography")

    @property
    def windows(self) -> tuple[ReadoutWindow, ...]:
        return tuple(s for s in self.steps if isinstance(s, ReadoutWindow))

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
    """Phenomenological knobs; the all-off default reproduces the closed forms."""

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
    """Outcomes of consecutive shots, one array row per shot, in shot order."""

    outcome: np.ndarray  # (shots, axes) int8 eigenvalue per named axis, 0 if rejected
    blip_times: np.ndarray  # (shots, windows) float, NaN where no blip was recorded
    windows_seen: np.ndarray  # windows reached; a rejected shot stops at its window

    def __len__(self) -> int:
        return len(self.outcome)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Shots):
            return NotImplemented
        return (
            np.array_equal(self.outcome, other.outcome)
            and np.array_equal(self.blip_times, other.blip_times, equal_nan=True)
            and np.array_equal(self.windows_seen, other.windows_seen)
        )

    @staticmethod
    def concat(parts: Sequence["Shots"]) -> "Shots":
        if len(parts) == 1:
            return parts[0]
        return Shots(
            *(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Shots))
        )


@dataclass(frozen=True)
class EnsembleStats:
    """Post-selected ensemble statistics of the +-1 tomography outcomes."""

    n_total: int
    n_kept: int
    mean: Optional[float]
    std_error: Optional[float]

    @property
    def success_fraction(self) -> float:
        return self.n_kept / self.n_total

    @property
    def empty(self) -> bool:
        return self.n_kept == 0


def _dephase_joint(joint: np.ndarray, duration: float, t2star: float) -> np.ndarray:
    f = math.exp(-((duration / t2star) ** 2))
    out = joint.copy()
    out[:2, 2:] *= f  # nuclear up-down coherence blocks
    out[2:, :2] *= f
    return out


def _nuclear_reduced(joint: np.ndarray) -> np.ndarray:
    """Manual electron partial trace (hot path; avoids einsum overhead)."""
    t = joint.reshape(2, 2, 2, 2)
    return t[:, 0, :, 0] + t[:, 1, :, 1]


def _embed_nuclear(nuc: np.ndarray) -> np.ndarray:
    """Joint state with the given nuclear 2x2 and a fresh down electron."""
    out = np.zeros((4, 4), dtype=complex)
    out[1, 1] = nuc[0, 0]
    out[1, 3] = nuc[0, 1]
    out[3, 1] = nuc[1, 0]
    out[3, 3] = nuc[1, 1]
    return out


# The tunnel model is hashable, so each window's matrix is built once per
# process; it is read-only because every protocol shares it.
@cache
def _no_blip_damping(model: TunnelModel) -> np.ndarray:
    """Elementwise factor a no-blip window applies to the joint density
    matrix: d d^T for the per-basis-state amplitudes d."""
    su, sd = math.sqrt(model.survival_up), math.sqrt(model.survival_down)
    d = np.array([su, sd, su, sd])
    damping = d[:, None] * d[None, :]
    damping.flags.writeable = False
    return damping


# Block engine: the shots of one block advance together.
SHOT_BLOCK = 4096  # shots per block; bounds the engine's per-shot arrays

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
# entries per chunk, one per draw count.  Each entry is built block by block
# to keep the Philox temporaries at SHOT_BLOCK rows.  Forked workers start
# from the parent's cache and fill their own.
@lru_cache(maxsize=16)
def _philox_uniforms(rng_seed: int, start: int, stop: int, n_draws: int) -> np.ndarray:
    """``_philox_block`` of shots start..stop-1, as one read-only array."""
    u = np.empty((stop - start, n_draws))
    for a in range(start, stop, SHOT_BLOCK):
        b = min(a + SHOT_BLOCK, stop)
        u[a - start : b - start] = _philox_block(rng_seed, a, b, n_draws)
    u.flags.writeable = False
    return u


# A node is the 4x4 joint density matrix shared by every shot with the
# same outcomes so far.  Each shot therefore sees the probabilities the
# scalar ``sample_shot`` in tests/reference_sampler.py gives it on its
# own, up to rounding: that reference keeps a statevector while the
# state stays pure, an independent arithmetic for the same channels.


def _node_pulse(joint: np.ndarray, pulse: RotationPulse) -> np.ndarray:
    u = pulse_unitary(pulse)
    return u @ joint @ u.conj().T


def _node_blip_weights(joint: np.ndarray, step: ReadoutWindow) -> tuple[float, float]:
    """Probabilities that the up / the down electron tunnels out."""
    model = step.model
    p_up = joint[0, 0].real + joint[2, 2].real
    return p_up * (1.0 - model.survival_up), (1.0 - p_up) * (1.0 - model.survival_down)


def _node_after_window(
    joint: np.ndarray, step: ReadoutWindow, branch: int, t2star: Optional[float]
) -> np.ndarray:
    """State after a window with no blip (branch 0) or with the up (1) or
    down (2) electron tunneled out, dephased when ``t2star`` is set."""
    if branch:
        nuc = joint.reshape(2, 2, 2, 2)[:, branch - 1, :, branch - 1]
        joint = _embed_nuclear(nuc / (nuc[0, 0].real + nuc[1, 1].real))
    else:
        joint = joint * _no_blip_damping(step.model)
        w = (joint[0, 0] + joint[1, 1] + joint[2, 2] + joint[3, 3]).real
        joint = _embed_nuclear(_nuclear_reduced(joint / w))  # reload a down electron
    if t2star is not None:
        joint = _dephase_joint(joint, step.model.t_m, t2star)
    return joint


def _node_p_plus(joint: np.ndarray, axis: str) -> float:
    """Probability of the +1 tomography outcome."""
    nuc = _nuclear_reduced(joint)
    if axis == "z":
        expectation = nuc[0, 0].real - nuc[1, 1].real
    elif axis == "x":
        expectation = 2.0 * nuc[0, 1].real
    else:
        expectation = -2.0 * nuc[0, 1].imag
    return min(max((1.0 + expectation) / 2.0, 0.0), 1.0)


def _shot_block(protocol: Protocol, noise: NoiseConfig, uniforms: np.ndarray) -> Shots:
    """The shots whose uniforms are the rows of ``uniforms``, drawing from
    them in a lone shot's order."""
    steps = protocol.steps
    windows = protocol.windows
    p_fn, p_fp = noise.readout_false_negative, noise.readout_false_positive
    flip = p_fn > 0.0 or p_fp > 0.0
    n, n_draws = uniforms.shape
    u = uniforms.ravel()
    axes = steps[-1].axes
    outcome = np.zeros((n, len(axes)), dtype=np.int8)
    blip_times = np.full((n, len(windows)), np.nan)
    windows_seen = np.full(n, len(windows))
    # shots still kept: block row, branch-history node, index of next draw in u
    rows = np.arange(n)
    node = np.zeros(n, dtype=np.intp)
    cursor = rows * n_draws
    nodes = [protocol.initial.rho.matrix]
    t2star = noise.nuclear_dephasing_time
    log1p = math.log1p  # local: called once per recorded blip
    w = -1
    for step in steps[:-1]:
        if type(step) is RotationPulse:
            nodes = [_node_pulse(x, step) for x in nodes]
            continue
        w += 1
        weights = np.array([_node_blip_weights(x, step) for x in nodes])
        w_up, w_down = weights[node, 0], weights[node, 1]
        p_blip = w_up + w_down
        blip = u[cursor] < p_blip
        cursor += 1
        # a lone shot draws which electron tunneled only where w_blip_down > 0
        down = choose = blip & (w_down > 0.0)
        if choose.any():
            down = choose & (u[cursor] * p_blip >= w_up)
            cursor += choose
        t_draw = u[cursor]
        cursor += blip
        observed = blip
        if flip:
            flip_p = np.where(blip, p_fn, p_fp)
            drawn = flip_p > 0.0
            observed = blip ^ (drawn & (u[cursor] < flip_p))
            cursor += drawn
        recorded = blip & observed
        model = step.model
        for sel, gamma in (
            (recorded & ~down, model.gamma_up_out),
            (recorded & down, model.gamma_down_out),
        ):
            if sel.any():
                # inverse CDF of the tunnel time on [0, t_m] given a blip; q
                # is the blip probability within the window.  math, not
                # numpy: np.log1p can differ in the last bit.
                q = -math.expm1(-gamma * model.t_m)
                blip_times[rows[sel], w] = [
                    -log1p(-x * q) / gamma for x in t_draw[sel].tolist()
                ]
        if step.keep != "both":
            ok = observed if step.keep == BLIP else ~observed
            windows_seen[rows[~ok]] = w + 1
            rows, node, cursor, blip, down = (
                a[ok] for a in (rows, node, cursor, blip, down)
            )
            if not rows.size:
                break
        key = node * 3 + blip + down
        used = np.flatnonzero(np.bincount(key, minlength=3 * len(nodes)))
        remap = np.empty(3 * len(nodes), dtype=np.intp)
        remap[used] = np.arange(used.size)
        nodes = [
            _node_after_window(nodes[k // 3], step, k % 3, t2star) for k in used.tolist()
        ]
        node = remap[key]
    if rows.size:
        draw = u[cursor]  # one draw serves every axis
        for k, axis in enumerate(axes):
            p_plus = np.array([_node_p_plus(x, axis) for x in nodes])
            outcome[rows, k] = np.where(draw < p_plus[node], 1, -1)
    return Shots(outcome, blip_times, windows_seen)


def _run_chunk(args) -> Shots:
    protocol, noise, rng_seed, start, stop = args
    flip = noise.readout_false_negative > 0.0 or noise.readout_false_positive > 0.0
    # per window at most: blip?, which electron, when, label flip; then the tomography
    n_draws = 1 + sum(2 + (w.model.survival_down < 1.0) + flip for w in protocol.windows)
    u = _philox_uniforms(rng_seed, start, stop, n_draws)
    blocks = range(0, stop - start, SHOT_BLOCK)
    return Shots.concat([_shot_block(protocol, noise, u[a : a + SHOT_BLOCK]) for a in blocks])


def _claim_chunk(claim, call: int, n_chunks: int) -> Optional[int]:
    """The next unclaimed chunk of call number ``call``, if one is left;
    ``claim`` holds the current call number and its next unclaimed chunk."""
    with claim.get_lock():
        current = claim.get_obj()
        if current[0] != call or current[1] >= n_chunks:
            return None
        current[1] += 1
        return current[1] - 1


def _serve(conn: Connection, claim, inherited: list[Connection]) -> None:
    """Worker loop: run the chunks it can claim of each (call, chunks)
    received and answer (call, [(chunk index, Shots), ...], error)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
    for other in inherited:  # else the pool's closing them would not end us
        other.close()
    while True:
        try:
            call, chunks = conn.recv()
        except (EOFError, OSError):  # the pool shut down
            return
        done, error = [], None
        try:
            while (i := _claim_chunk(claim, call, len(chunks))) is not None:
                done.append((i, _run_chunk(chunks[i])))
        except Exception as err:
            error = err
        try:
            conn.send((call, done, error))
        except OSError:
            return


class WorkerPool:
    """``n_jobs - 1`` worker processes that share each call's chunks with
    the caller.  They start by the platform's default method, fork on Linux:
    two spawned workers took 0.45-0.65 s to start on a 2-vCPU machine, about
    as long as a whole ``fig2 --shots 2000`` run."""

    def __init__(self, n_jobs: int):
        import multiprocessing  # here, so that a run with no pool never loads it

        ctx = multiprocessing.get_context()
        self._claim = ctx.Array("q", 2)  # call number, next unclaimed chunk
        self._calls = 0
        self._conns: list[Connection] = []
        self._procs = []
        self._busy: set[Connection] = set()  # workers yet to answer a call
        for _ in range(n_jobs - 1):
            here, there = ctx.Pipe()
            proc = ctx.Process(
                target=_serve, args=(there, self._claim, [*self._conns, here]), daemon=True
            )
            proc.start()
            there.close()
            self._conns.append(here)
            self._procs.append(proc)

    def _answer(self, conn: Connection) -> tuple:
        try:
            answer = conn.recv()
        except EOFError:
            raise RuntimeError("a worker process exited unexpectedly") from None
        self._busy.discard(conn)
        return answer

    def run_chunks(self, chunks: Sequence[tuple]) -> list[Shots]:
        """``[_run_chunk(c) for c in chunks]``: idle workers get the chunks,
        then this process claims chunks too and waits only for the ones a
        worker claimed."""
        from multiprocessing.connection import wait

        self._calls += 1
        call = self._calls
        with self._claim.get_lock():
            self._claim.get_obj()[:] = [call, 0]
        for conn in self._conns:
            if conn in self._busy:
                if not conn.poll():
                    continue  # still on an earlier call
                self._answer(conn)  # an earlier call's late answer
            conn.send((call, chunks))
            self._busy.add(conn)
        results = {}
        while (i := _claim_chunk(self._claim, call, len(chunks))) is not None:
            results[i] = _run_chunk(chunks[i])
        while len(results) < len(chunks):
            for conn in wait(list(self._busy)):
                answer_call, done, error = self._answer(conn)
                if answer_call == call:
                    if error is not None:
                        raise error
                    results.update(done)
        return [results[i] for i in range(len(chunks))]

    def shutdown(self) -> None:
        """Close the pipes and join the workers; each ends its chunk first."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join()


# The pool that run_shots shares its chunks with while a worker_pool block is open.
_OPEN_POOL: ContextVar[Optional[WorkerPool]] = ContextVar(
    "weakmeas_worker_pool", default=None
)


def chunk_count(n_shots: int, n_jobs: int) -> int:
    """How many chunks ``run_shots`` splits ``n_shots`` shots into at
    ``n_jobs`` processes: at most ``n_jobs``, each of at least ``SHOT_BLOCK``
    shots, and never fewer than one.  A chunk smaller than a block saves
    less time than its round trip through the pool costs."""
    return max(1, min(n_jobs, n_shots // SHOT_BLOCK))


@contextmanager
def worker_pool(n_jobs: int) -> Iterator[Optional[WorkerPool]]:
    """One process pool for every ``run_shots`` call made inside the block.

    Opens a pool for ``n_jobs`` processes (the caller and ``n_jobs - 1``
    workers), unless ``n_jobs`` is 1 or a pool is open already: then the
    block uses that pool (or none), so nested blocks share the outermost
    one.  A caller that knows its shot counts sizes the pool with
    ``chunk_count``, so that it starts no worker its calls would not use.
    The pool a block opens is shut down and its workers joined when that
    block exits, whether or not it raised.
    """
    pool = _OPEN_POOL.get()
    if pool is not None or n_jobs <= 1:
        yield pool
        return
    pool = WorkerPool(n_jobs)
    token = _OPEN_POOL.set(pool)
    try:
        yield pool
    finally:
        _OPEN_POOL.reset(token)
        pool.shutdown()


def run_shots(
    protocol: Protocol,
    noise: NoiseConfig = NO_NOISE,
    n_shots: int = 1,
    rng_seed: int = 0,
    n_jobs: int = 1,
) -> Shots:
    """The outcomes of shots 0..n_shots-1, in shot order.

    The shots are split into ``chunk_count(n_shots, n_jobs)`` contiguous
    chunks, each of at least ``SHOT_BLOCK`` shots.  One chunk runs in this
    process and touches no pool, inside a ``worker_pool`` block or not.
    Several are shared between this process and the pool of the enclosing
    ``worker_pool`` block, or a pool opened for this call when there is
    none.  The result is identical to the serial run because every shot has
    its own stream.  ``rng_seed`` must be a key numpy's ``Philox`` takes, in
    [-2**63, 2**64); a negative seed keys the stream as its 64-bit mask.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be >= 1")
    if not -(1 << 63) <= rng_seed <= _MASK64:
        raise ValueError(f"rng_seed {rng_seed} is outside [-2**63, 2**64)")
    n_chunks = chunk_count(n_shots, n_jobs)
    if n_chunks == 1:
        return _run_chunk((protocol, noise, rng_seed, 0, n_shots))
    bounds = np.linspace(0, n_shots, n_chunks + 1, dtype=int).tolist()
    chunks = [(protocol, noise, rng_seed, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    with worker_pool(n_chunks) as pool:
        return Shots.concat(pool.run_chunks(chunks))


def stats_from_records(shots: Shots, column: int = 0) -> EnsembleStats:
    """Order-insensitive aggregation of the kept shots' tomography outcomes
    on the ``column``-th axis the protocol's tomography names."""
    outcome = shots.outcome[:, column]
    n_total = len(shots)
    n_kept = int(np.count_nonzero(outcome))
    if n_kept == 0:
        return EnsembleStats(n_total=n_total, n_kept=0, mean=None, std_error=None)
    mean = int(outcome.sum()) / n_kept
    std_error = math.sqrt(max(1.0 - mean * mean, 0.0) / n_kept)
    return EnsembleStats(n_total=n_total, n_kept=n_kept, mean=mean, std_error=std_error)


def conditional_state(
    protocol: Protocol, window_outcomes: Sequence[str]
) -> PostSelectedState:
    """Deterministic evolution with forced readout outcomes.

    Applies ``protocols.weak_electron_window`` with one forced outcome
    ("no_blip" or "blip") per readout window, reloading a down electron
    after each, and returns the final nuclear state with the joint
    probability of that outcome sequence.
    """
    outcomes = list(window_outcomes)
    if len(outcomes) != len(protocol.windows):
        raise ProtocolError("need one forced outcome per readout window")
    joint = protocol.initial.rho.matrix
    probability = 1.0
    for step in protocol.steps[:-1]:
        if isinstance(step, RotationPulse):
            joint = _node_pulse(joint, step)
            continue
        outcome = outcomes.pop(0)
        if outcome not in (NO_BLIP, BLIP):
            raise ProtocolError(f"unknown forced outcome {outcome!r}")
        post = weak_electron_window(JointState(DensityMatrix(joint)), step.model, outcome)
        probability *= post.success_probability
        joint = _embed_nuclear(post.state.rho.matrix)
    nuclear = qmath.partial_trace(joint, qmath.ELECTRON)
    return PostSelectedState(NuclearState(DensityMatrix(nuclear)), probability)


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


def estimate_gamma_from_blips(
    shots: Shots,
    t_m: float,
    up_branch_probability: float = 0.5,
) -> GammaEstimate:
    """Censored-exponential MLE of the up-electron tunnel-out rate.

    Observed blip times follow the exponential law truncated to the
    window; no-blip shots are right-censored at t_m within the up branch,
    which occurs with the given probability (1/2 for the Bell protocol).
    The 95% interval comes from the likelihood-ratio statistic.
    """
    if np.any(shots.windows_seen != 1):
        raise ProtocolError("shots must come from a single-window protocol")
    column = shots.blip_times[:, 0]
    times = column[~np.isnan(column)].tolist()
    # Python's left-to-right sum in shot order, not np.sum's pairwise one:
    # the fig3 CSV depends on the last bit of it.
    return _censored_exp_mle(
        len(times), len(shots) - len(times), float(sum(times)), t_m, up_branch_probability
    )


def _censored_exp_mle(
    n_blips: int, n_censored: int, sum_t: float, t_m: float, p: float
) -> GammaEstimate:
    """The MLE of ``estimate_gamma_from_blips`` from its sufficient statistics."""
    if n_blips == 0:
        raise NoInformationError("no tunnel events observed")

    def loglik(gamma: float) -> float:
        return (
            n_blips * math.log(p * gamma)
            - gamma * sum_t
            + n_censored * math.log(1.0 - p + p * math.exp(-gamma * t_m))
        )

    def score(gamma: float) -> float:
        e = math.exp(-gamma * t_m)
        return n_blips / gamma - sum_t - n_censored * p * t_m * e / (1.0 - p + p * e)

    lo, hi = 1e-9 / t_m, 1e6 / t_m
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
