"""Process-sharded multi-chain power sampling with a deterministic sample merge.

:class:`ShardedPowerSampler` is the multi-process counterpart of
:class:`~repro.core.batch_sampler.BatchPowerSampler`: the ``num_chains``
lock-step chains are partitioned into word-aligned lane shards and each shard
is simulated by a persistent worker process owning a real
:class:`BatchPowerSampler` (with its own zero-delay and event-driven engine
instances) over just its lanes.  The DIPE flow is embarrassingly parallel at
the chain level, so the only hard part is determinism — and the design here
makes the merged sample stream **draw-for-draw identical** to the
single-process engine by construction:

* The *parent* owns the run's single RNG and the stimulus.  It draws latch
  randomisations and input patterns in exactly the order the in-process
  sampler would (the stream of one
  :meth:`~repro.stimulus.base.Stimulus.next_pattern_words` call per clock
  cycle, drawn in blocks, and one ``integers(0, 2, size=num_chains)`` call
  per latch), then scatters each worker its word-aligned lane slice.
  Workers never draw randomness; they consume parent-fed pattern words
  through a FIFO feed.
  Chain *k* therefore sees the identical bit stream no matter how many
  workers exist — including ``num_workers=1`` and the in-process engine.
* Workers produce their shard's ``sample_block`` concurrently; the parent
  merges the per-shard ``(sweeps, shard_width)`` blocks with a deterministic
  lane-order interleave (``concatenate`` along the lane axis, then the same
  chain-major reshape the in-process sampler uses), so stopping decisions,
  adaptive-chain resizes and final estimates are pinned equal to
  :class:`BatchPowerSampler` with the same ``num_chains``.
* :meth:`get_state` gathers the per-shard simulator words and merges them —
  together with the parent's RNG bit-generator state and stimulus state —
  into the *same checkpoint schema* :class:`BatchPowerSampler` produces, so
  resumed sharded runs are bit-identical and checkpoints are interchangeable
  between the sharded and the in-process engine (pinned by tests).
* :meth:`resize` re-partitions the shards (workers rebuild their engines at
  the new widths and the parent re-feeds the re-warm randomness), so
  adaptive chain scaling crosses shard boundaries freely — growing past
  ``max_chains // num_workers`` or shrinking below the worker count simply
  changes the partition, idling surplus workers.

Shards are word-aligned (64 lanes per ``uint64`` word), so scattering a
pattern block and merging simulator state are pure word-slice operations; an
ensemble narrower than ``64 * num_workers`` lanes leaves the surplus workers
idle.

Workers receive the parent's prebuilt
:class:`~repro.circuits.program.CircuitProgram` (pickled through the process
boundary, or inherited on fork), so pool startup performs exactly one
circuit lowering no matter how many workers exist — worker engines bind the
shared tables instead of recompiling them (gated by
``benchmarks/test_bench_compile.py``).

Worker processes are spawn-safe (the worker entry point is a module-level
function fed picklable state), default to the platform's fastest start
method, and fall back to an in-process serial shard pool on platforms
without multiprocessing support — results are identical either way, only
wall-clock time changes.

**Fault tolerance.**  Every pool seat is a :class:`_SupervisedShard`: a
replay log wrapped around a raw transport (:class:`_ProcessShard` process,
:class:`_LocalShard` in-process, or
:class:`~repro.core.transport._SocketShard` remote TCP).  Workers are
deterministic functions of
the message stream they were fed — they own no RNG — so the supervisor
recovers a dead, hung or garbled worker by respawning the process and
replaying the logged messages since the last synchronized shard state,
re-receiving the replayed replies and delivering only the ones the caller
has not seen yet.  Merged samples are therefore *bit-identical with or
without faults* (pinned by ``tests/core/test_faults.py`` and
``benchmarks/test_bench_faults.py``).  Hangs are detected with a shared
heartbeat counter plus a per-collect deadline
(``EstimationConfig.worker_hang_timeout``); respawns back off exponentially
(``worker_retry_backoff``); a seat that keeps dying past
``worker_max_restarts`` consecutive recoveries degrades to a clean
in-process replica and the pool re-partitions onto the surviving workers at
the next round boundary.  Replay logs are truncated at every checkpoint and
every ``shard_sync_interval`` collect rounds.  Supervision incidents surface
as :class:`~repro.api.events.WorkerLost` /
:class:`~repro.api.events.WorkerRecovered` progress events via
:meth:`ShardedPowerSampler.take_fault_incidents`, and deterministic worker
*errors* (as opposed to transport failures) raise a typed
:class:`ShardWorkerError` carrying the shard index, pid, exit code and
remote traceback.

**Cross-host distribution.**  With ``EstimationConfig(worker_hosts=...)``
(or ``REPRO_SHARD_HOSTS``, or an explicit ``coordinator=``) the pool draws
its seats from remote ``repro shard-worker`` processes through a
:class:`~repro.core.transport.ShardCoordinator` instead of spawning local
processes.  The supervised contract is unchanged — remote workers consume
the same message stream over length-prefixed framed TCP, so connection
loss, partitions, slow links and truncated frames recover through the
identical destroy → backoff → reacquire → replay path (a failed seat
acquires a *fresh* member; the old worker, if it reconnects, is fenced by
its stale epoch and rejoins as new).  Membership is elastic: workers that
join mid-run are adopted — and seats whose restart budget is exhausted are
folded off — at the next round boundary via the same gather-checkpoint →
re-partition → restore path ``_heal_pool`` uses locally, surfacing as
:class:`~repro.api.events.WorkerJoined` /
:class:`~repro.api.events.WorkerLeft` events.  Merged samples stay
draw-for-draw identical to :class:`BatchPowerSampler` for any topology,
including runs where workers die and join mid-flight (pinned by
``tests/core/test_distributed.py`` and
``benchmarks/test_bench_distributed.py``).  See ``docs/distributed.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
import traceback
import weakref
from collections import deque
from typing import Callable, Sequence

import numpy as np

from repro.circuits.program import CircuitProgram
from repro.core.batch_sampler import BatchPowerSampler
from repro.core.config import EstimationConfig
from repro.core.transport import ShardCoordinator
from repro.core.transport import WorkerDown as _WorkerDown
from repro.faults import FaultInjector, FaultSchedule, SimulatedWorkerDeath
from repro.faults import active_schedule as _ambient_fault_schedule
from repro.simulation.zero_delay import resolve_backend
from repro.stimulus.base import Stimulus
from repro.utils.bitpack import (
    bits_to_words,
    pack_int_to_words,
    unpack_words_to_int,
    words_per_width,
    words_to_bits,
)
from repro.utils.rng import RandomSource

__all__ = ["ShardWorkerError", "ShardedPowerSampler", "partition_chains"]

#: Clock cycles of pattern words shipped per feed message; bounds the size of
#: one pipe write while keeping the per-command message count small.
_FEED_CHUNK = 2048

#: Seconds between liveness checks while the supervisor waits for a reply;
#: bounds fault-detection latency without busy-polling the pipe.
_POLL_TICK = 0.05


class ShardWorkerError(RuntimeError):
    """A shard worker raised a deterministic error while handling a command.

    Unlike transport failures (death, hang, garbled reply) — which the
    supervisor recovers by respawn-and-replay — a worker *error* is a real
    exception out of the shard's own sampler code; replaying it would fail
    identically, so it is surfaced to the caller with full context instead.

    Attributes
    ----------
    shard_index:
        Pool seat (worker index) the failure came from.
    pid:
        Worker process id (``None`` for the in-process serial transport).
    exitcode:
        Worker process exit code at the time the error surfaced (usually
        ``None``: the process is still alive after reporting an error).
    remote_traceback:
        The worker-side traceback, formatted.
    reason:
        Short failure class, e.g. ``"remote-error"`` or
        ``"unrecoverable"``.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_index: int = -1,
        pid: int | None = None,
        exitcode: int | None = None,
        remote_traceback: str | None = None,
        reason: str = "remote-error",
    ):
        detail = f"{message} [shard {shard_index}, pid {pid}, exitcode {exitcode}, {reason}]"
        if remote_traceback:
            detail = f"{detail}\n{remote_traceback}"
        super().__init__(detail)
        self.shard_index = shard_index
        self.pid = pid
        self.exitcode = exitcode
        self.remote_traceback = remote_traceback
        self.reason = reason


def partition_chains(num_chains: int, num_workers: int) -> list[tuple[int, int]]:
    """Partition *num_chains* lanes into word-aligned shards, one per worker.

    Returns ``(lane_offset, width)`` per worker.  The underlying uint64 lane
    words are distributed as evenly as possible (so shard widths are
    multiples of 64 except possibly the last non-empty shard); workers beyond
    the available words receive ``width == 0`` and idle.  Worker 0 always
    holds chain 0 of a non-empty ensemble.
    """
    if num_chains < 1:
        raise ValueError("num_chains must be at least 1")
    if num_workers < 1:
        raise ValueError("num_workers must be at least 1")
    total_words = words_per_width(num_chains)
    base, extra = divmod(total_words, num_workers)
    shards: list[tuple[int, int]] = []
    word_offset = 0
    for worker in range(num_workers):
        words = base + (1 if worker < extra else 0)
        lane_offset = word_offset * 64
        width = max(0, min(num_chains - lane_offset, words * 64))
        shards.append((lane_offset, width))
        word_offset += words
    return shards


# --------------------------------------------------------------------- worker
class _PatternFeed:
    """FIFO of parent-generated pattern/latch word blocks for one shard."""

    def __init__(self) -> None:
        self._patterns: deque[np.ndarray] = deque()
        self._latches: deque[np.ndarray] = deque()

    def push_patterns(self, block: np.ndarray) -> None:
        """Queue a ``(cycles, num_inputs, num_words)`` block, one entry per cycle."""
        for index in range(block.shape[0]):
            self._patterns.append(block[index])

    def push_latches(self, words: np.ndarray) -> None:
        self._latches.append(words)

    def pop_pattern(self) -> np.ndarray:
        if not self._patterns:
            raise RuntimeError("shard pattern feed exhausted (parent under-fed a command)")
        return self._patterns.popleft()

    def pop_latches(self) -> np.ndarray:
        if not self._latches:
            raise RuntimeError("shard latch feed exhausted (parent under-fed a command)")
        return self._latches.popleft()


class _FeedStimulus(Stimulus):
    """Stimulus facade over a :class:`_PatternFeed` (consumes no RNG)."""

    def __init__(self, num_inputs: int, feed: _PatternFeed):
        super().__init__(num_inputs)
        self._feed = feed

    def next_bits(self, rng, width: int = 1) -> np.ndarray:
        return words_to_bits(self._feed.pop_pattern(), width)


class _ShardSampler(BatchPowerSampler):
    """A :class:`BatchPowerSampler` over one lane shard, driven by fed patterns.

    Identical to its base in every engine-facing respect; only the sources of
    randomness are replaced: input patterns pop from the parent-fed FIFO and
    the latch randomisation loads parent-drawn bits instead of consuming a
    local RNG stream.

    The parent resolves both simulator backends at the *full* ensemble width
    and forces them on every shard (``backend`` and ``event_backend`` arrive
    pre-resolved), so every shard runs the engines the in-process full-width
    sampler runs.  Per-lane energies agree on any backend (they come from
    integer per-class toggle counts); forcing the backends keeps the shard
    snapshots in the full-width sampler's state format.
    """

    def __init__(
        self,
        program: CircuitProgram,
        config,
        width: int,
        backend: str,
        event_backend: str,
        feed: _PatternFeed,
    ):
        self._feed = feed
        self._event_backend_request = event_backend
        super().__init__(
            program,
            _FeedStimulus(program.circuit.num_inputs, feed),
            config,
            rng=0,  # never drawn from — all randomness arrives through the feed
            num_chains=width,
            backend=backend,
        )

    def _next_pattern(self):
        words = self._feed.pop_pattern()
        if self._use_words:
            return words
        return [unpack_words_to_int(row) for row in words]

    def _warm_up(self, warmup_cycles: int | None = None) -> None:
        warmup = self.config.warmup_cycles if warmup_cycles is None else warmup_cycles
        self._engine.load_latch_lanes(self._feed.pop_latches())
        self._engine.settle(self._next_pattern())
        self._prepared = True
        for _ in range(warmup):
            self._advance_one_cycle()

    def restart_from_random_state(self) -> None:
        self._engine.load_latch_lanes(self._feed.pop_latches())
        self._engine.settle(self._next_pattern())
        self._prepared = True


class _ShardServer:
    """Executes shard commands against a worker-local :class:`_ShardSampler`.

    The same server runs inside a worker process (via
    :func:`_shard_worker_main`) and in-process (via :class:`_LocalShard`), so
    the process pool and the serial fallback share one code path.
    """

    def __init__(self, program: CircuitProgram, config: EstimationConfig, backend: str):
        # The parent's prebuilt program crosses the process boundary whole
        # (or is inherited on fork), so shard engines never recompile it.
        self.program = program
        self.config = config
        self.backend_request = backend
        self.feed = _PatternFeed()
        self.sampler: _ShardSampler | None = None

    def _require_sampler(self) -> _ShardSampler:
        if self.sampler is None:
            raise RuntimeError("shard has no chains (width 0); command not expected")
        return self.sampler

    def handle(self, message: tuple):
        op = message[0]
        if op == "feed":
            self.feed.push_patterns(message[1])
            return None
        if op == "feed_latch":
            self.feed.push_latches(message[1])
            return None
        if op == "build":
            # Fresh engines at the new width — the shard-level equivalent of
            # BatchPowerSampler._build_engines during construction or resize.
            # Both backends arrive pre-resolved at the full ensemble width.
            width, zd_backend, event_backend = message[1], message[2], message[3]
            self.sampler = (
                _ShardSampler(
                    self.program, self.config, width, zd_backend, event_backend, self.feed
                )
                if width > 0
                else None
            )
            return self.sampler.backend if self.sampler is not None else None
        if op == "prepare":
            self._require_sampler().prepare(message[1])
            return None
        if op == "warm_up":
            self._require_sampler()._warm_up(message[1])
            return None
        if op == "restart":
            self._require_sampler().restart_from_random_state()
            return None
        if op == "advance":
            self._require_sampler().advance(message[1])
            return None
        if op == "sample_block":
            interval, sweeps = message[1], message[2]
            sampler = self._require_sampler()
            block = sampler.sample_block(interval, sweeps * sampler.num_chains)
            return block.reshape(sweeps, sampler.num_chains)
        if op == "collect_sequence":
            interval, length, want = message[1], message[2], message[3]
            sampler = self._require_sampler()
            if want:
                return sampler.collect_sequence(interval, length)
            # Measuring is state- and feed-neutral, so shards that do not own
            # chain 0 advance through the same cycles without resolving lanes.
            sampler.advance((interval + 1) * length)
            return None
        if op == "get_state":
            sampler = self._require_sampler()
            return {
                "engine": sampler._engine.get_state(),
                "prepared": sampler._prepared,
                "num_chains": sampler.num_chains,
            }
        if op == "set_state":
            payload = message[1]
            sampler = self._require_sampler()
            sampler._engine.set_state(payload["engine"])
            sampler._prepared = payload["prepared"]
            return None
        raise ValueError(f"unknown shard command {op!r}")


def _shard_worker_main(
    conn, program, config, backend_request, heartbeat=None, fault_plan=None
) -> None:
    """Worker process entry point: serve shard commands until "stop" or EOF."""
    server = _ShardServer(program, config, backend_request)
    injector = FaultInjector(fault_plan, mode="process")
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                conn.send(("ok", None))
                break
            command = injector.begin()
            injector.trip(command, "recv")
            try:
                reply = ("ok", server.handle(message))
            except BaseException:  # noqa: BLE001 — errors travel back to the parent
                reply = ("error", traceback.format_exc())
            injector.trip(command, "handle")
            conn.send("!garbled!" if injector.garbled(command) else reply)
            if heartbeat is not None:
                heartbeat.value += 1
            injector.trip(command, "reply")
    finally:
        conn.close()


def _seat_cpus(num_workers: int) -> list[int]:
    """The CPUs local worker seats are pinned to, one each; empty for none.

    Seats are pinned only when the pool fills every CPU this process may use
    (``num_workers >= CPUs > 1``).  Then each CPU runs a worker anyway, and a
    pinned worker starts on its own CPU instead of being queued on the waking
    parent's.  A smaller pool stays unpinned, so the scheduler can spread
    concurrent pools (batch-runner jobs, service workers) over the other CPUs.
    """
    if not hasattr(os, "sched_getaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2 or num_workers < len(cpus):
        return []
    return cpus


class _ProcessShard:
    """Raw parent-side transport of one worker process (request/reply pipe).

    Pure plumbing: ships messages, receives wire replies, reports liveness
    (process state + a lock-free shared heartbeat the worker bumps after
    every handled command).  All bookkeeping, error typing and recovery live
    in :class:`_SupervisedShard`.
    """

    kind = "process"

    def __init__(self, ctx, program, config, backend_request, fault_plan=None, cpu=None):
        self._heartbeat = ctx.Value("Q", 0, lock=False)
        self.connection, child_conn = mp.Pipe()
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, program, config, backend_request, self._heartbeat, fault_plan),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        if cpu is not None:
            # Pipe writes wake the reader "synchronously", which makes the
            # scheduler queue every woken worker on the parent's CPU until
            # load balancing moves it, milliseconds later.  Pinning seat i to
            # its own CPU lets the workers of a round start together.
            try:
                os.sched_setaffinity(self.process.pid, {cpu})
            except OSError:
                pass

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode

    def _reaped_exitcode(self) -> int | None:
        # A pipe EOF can beat the dying child becoming waitable (its fds
        # close before the exit code is published), so reap with a bounded
        # join before reading — a dying process joins near-instantly.
        self.process.join(timeout=1.0)
        return self.process.exitcode

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def heartbeat_count(self) -> int:
        return int(self._heartbeat.value)

    def send_raw(self, message: tuple) -> None:
        try:
            self.connection.send(message)
        except (BrokenPipeError, ConnectionError, OSError, ValueError) as error:
            raise _WorkerDown("died", self.pid, self._reaped_exitcode()) from error

    def poll(self, timeout: float) -> bool:
        try:
            return self.connection.poll(timeout)
        except (EOFError, OSError):
            return True  # let recv_raw surface the failure

    def recv_raw(self):
        try:
            return self.connection.recv()
        except (EOFError, OSError) as error:
            raise _WorkerDown("died", self.pid, self._reaped_exitcode()) from error

    def destroy(self) -> None:
        """Tear the transport down hard (no stop handshake); never raises."""
        try:
            self.connection.close()
        except Exception:  # noqa: BLE001
            pass
        try:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=2.0)
        except Exception:  # noqa: BLE001 — shutdown-time join can fail harmlessly
            pass

    def stop(self) -> None:
        # Idempotent and silent: this also runs from a ``weakref.finalize``
        # callback during interpreter shutdown, where the pipe may already be
        # closed and parts of the multiprocessing machinery already torn
        # down — nothing here may raise or print.
        if getattr(self, "_stopped", False):
            return
        self._stopped = True
        try:
            self.connection.send(("stop",))
            self.connection.recv()
        except Exception:  # noqa: BLE001 — peer already gone is fine
            pass
        self.destroy()


class _LocalShard:
    """In-process stand-in for a worker (serial fallback; same command path).

    Executes commands synchronously at ``send_raw`` time and queues the wire
    replies.  Injected ``kill``/``hang`` faults surface as
    :class:`~repro.faults.SimulatedWorkerDeath`, which this transport
    converts into the same :class:`_WorkerDown` signal a broken pipe
    produces — so the supervisor exercises the identical recovery path.
    """

    kind = "local"

    def __init__(self, program, config, backend_request, fault_plan=None):
        self._server = _ShardServer(program, config, backend_request)
        self._injector = FaultInjector(fault_plan, mode="local")
        self._replies: deque = deque()
        self._dead: str | None = None
        self._handled = 0

    pid: int | None = None
    exitcode: int | None = None

    def is_alive(self) -> bool:
        return self._dead is None

    def heartbeat_count(self) -> int:
        return self._handled

    def send_raw(self, message: tuple) -> None:
        if self._dead is not None:
            raise _WorkerDown(self._dead)
        if message[0] == "stop":
            self._replies.append(("ok", None))
            return
        command = self._injector.begin()
        try:
            self._injector.trip(command, "recv")
            try:
                reply = ("ok", self._server.handle(message))
            except Exception:  # noqa: BLE001 — mirror the process transport
                reply = ("error", traceback.format_exc())
            self._injector.trip(command, "handle")
            self._replies.append("!garbled!" if self._injector.garbled(command) else reply)
            self._handled += 1
            self._injector.trip(command, "reply")
        except SimulatedWorkerDeath as death:
            self._dead = death.reason
            raise _WorkerDown(death.reason) from death

    def poll(self, timeout: float) -> bool:
        return True  # replies (or the dead flag) are available synchronously

    def recv_raw(self):
        if self._replies:
            return self._replies.popleft()
        if self._dead is not None:
            raise _WorkerDown(self._dead)
        raise RuntimeError("local shard has no pending reply (supervisor bug)")

    def destroy(self) -> None:
        self._replies.clear()
        self._dead = "destroyed"
        self._server.sampler = None

    def stop(self) -> None:
        self._replies.clear()
        self._server.sampler = None


class _SupervisedShard:
    """One supervised seat of the shard pool: replay log + recovery policy.

    Wraps a raw transport and keeps the full message *history* since the
    seat's last ``build``/``set_state``/sync point, plus how many replies
    have already been *delivered* to the caller.  Because workers are
    deterministic functions of their fed message stream, any transport
    failure (death, hang past the deadline, garbled reply) is recovered by
    spawning a fresh transport, replaying the history and re-receiving the
    replies — delivering only the not-yet-seen tail, so the caller observes
    an uninterrupted, bit-identical reply stream.

    Consecutive recoveries of one in-flight round back off exponentially and
    are bounded by ``max_restarts``; past the bound the seat *degrades* to a
    clean in-process replica (restored the same way) and flags itself so the
    pool can re-partition onto the surviving workers at the next round
    boundary.  Deterministic worker errors are not recovered: they raise
    :class:`ShardWorkerError`.
    """

    def __init__(
        self,
        spawn: Callable[[int], object],
        shard_index: int,
        *,
        fallback: Callable[[], object],
        max_restarts: int,
        hang_timeout: float,
        backoff: float,
        on_incident: Callable[[dict], None] | None = None,
    ):
        self._spawn = spawn
        self._fallback = fallback
        self.shard_index = shard_index
        self.max_restarts = max_restarts
        self.hang_timeout = hang_timeout
        self.backoff = backoff
        self._on_incident = on_incident if on_incident is not None else (lambda incident: None)
        self.incarnation = 0
        self.respawns = 0
        self.degraded = False
        # Respawn-backoff jitter comes from a dedicated parent-owned stream
        # (seeded per seat, never the run RNG): simultaneous seat deaths must
        # not respawn in lockstep, and seeded fault tests must not see their
        # sample streams perturbed by supervision randomness.
        self._jitter_rng = np.random.default_rng((0xB0FF, shard_index))
        self._history: list[tuple] = []
        self._received: list = []
        self._delivered = 0
        self._failures = 0  # consecutive recoveries while the current round is in flight
        self._stopped = False
        self.transport = spawn(0)

    # Tests reach through the seat to the live pipe/process.
    @property
    def connection(self):
        return self.transport.connection

    @property
    def process(self):
        return self.transport.process

    def send(self, *message) -> None:
        op = message[0]
        if op == "build":
            # A build makes the worker a fresh function of what follows.
            self._history = [message]
            self._received = []
            self._delivered = 0
        elif op == "set_state":
            # The restored engine state fully determines the shard from here
            # on; everything between the build and now is dead history.
            # (set_state is only ever sent at a drained round boundary.)
            self._history = [self._history[0], message]
            self._received = [None]
            self._delivered = 1
        else:
            self._history.append(message)
        try:
            self.transport.send_raw(message)
        except _WorkerDown:
            pass  # collect() detects the failure, respawns and replays

    def mark_synced(self, state_payload: dict) -> None:
        """Truncate the replay log: *state_payload* reproduces the shard.

        Must be called at a drained round boundary, with the payload the
        worker just returned for ``get_state`` (minus ``num_chains``).  From
        now on recovery replays ``build`` + ``set_state`` instead of the
        whole history.
        """
        self._history = [self._history[0], ("set_state", state_payload)]
        self._received = [None, None]
        self._delivered = 2

    def collect(self) -> list:
        """Deliver one reply per outstanding request, recovering as needed."""
        total = len(self._history)
        while len(self._received) < total:
            try:
                self._received.append(self._receive_one())
            except _WorkerDown as failure:
                self._recover(failure)
        payloads = self._received[self._delivered : total]
        # Delivered payloads are never read again — keep placeholders only,
        # so the log does not pin every sample block in parent memory.
        self._received[:] = [None] * total
        self._delivered = total
        self._failures = 0
        return payloads

    def _receive_one(self):
        transport = self.transport
        last_beat = transport.heartbeat_count()
        deadline = time.monotonic() + self.hang_timeout
        while True:
            if transport.poll(_POLL_TICK):
                reply = transport.recv_raw()
                if (
                    not isinstance(reply, tuple)
                    or len(reply) != 2
                    or reply[0] not in ("ok", "error")
                ):
                    # The stream is no longer trustworthy: treat like death.
                    raise _WorkerDown("garbled", transport.pid, transport.exitcode)
                status, payload = reply
                if status == "error":
                    raise ShardWorkerError(
                        "shard worker failed",
                        shard_index=self.shard_index,
                        pid=transport.pid,
                        exitcode=transport.exitcode,
                        remote_traceback=payload,
                        reason="remote-error",
                    )
                return payload
            if not transport.is_alive():
                raise _WorkerDown("died", transport.pid, transport.exitcode)
            beat = transport.heartbeat_count()
            if beat != last_beat:
                # The worker is making progress through queued feed
                # messages — extend the deadline rather than declaring a
                # hang mid-burst.
                last_beat = beat
                deadline = time.monotonic() + self.hang_timeout
            elif time.monotonic() >= deadline:
                raise _WorkerDown("hung", transport.pid, transport.exitcode)

    def _recover(self, failure: _WorkerDown) -> None:
        began = time.perf_counter()
        self._on_incident(
            {
                "kind": "lost",
                "worker": self.shard_index,
                "pid": failure.pid,
                "exitcode": failure.exitcode,
                "reason": failure.reason,
            }
        )
        self.transport.destroy()
        self._failures += 1
        if self._failures > self.max_restarts:
            # Unrecoverable seat: fall back to a clean in-process replica
            # (no fault injection) so the round completes, and flag the seat
            # for re-partitioning at the next boundary.
            self.degraded = True
            transport = self._fallback()
        else:
            # Full jitter: a uniform draw from [0, base * 2**(n-1)] (capped).
            # Deterministic exponential backoff makes seats that died
            # together retry together forever; jitter de-synchronises them.
            ceiling = min(self.backoff * (2 ** (self._failures - 1)), 2.0)
            if ceiling > 0.0:
                time.sleep(float(self._jitter_rng.uniform(0.0, ceiling)))
            self.incarnation += 1
            try:
                transport = self._spawn(self.incarnation)
            except (OSError, PermissionError, RuntimeError, AssertionError):
                self.degraded = True
                transport = self._fallback()
        self.transport = transport
        self.respawns += 1
        self._received = []
        try:
            for message in self._history:
                transport.send_raw(message)
        except _WorkerDown:
            pass  # the replacement died mid-replay; collect() loops again
        self._on_incident(
            {
                "kind": "recovered",
                "worker": self.shard_index,
                "pid": transport.pid,
                "respawns": self._failures,
                "replayed": len(self._history),
                "seconds": time.perf_counter() - began,
                "degraded": self.degraded,
            }
        )

    def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        try:
            self.transport.stop()
        except Exception:  # noqa: BLE001 — runs from weakref.finalize too
            pass


def _shutdown_pool(handles: list, coordinator: ShardCoordinator | None = None) -> None:
    """Stop every shard handle; never raises (runs from weakref.finalize)."""
    for handle in handles:
        try:
            handle.stop()
        except Exception:  # noqa: BLE001 — one bad handle must not strand the rest
            pass
    if coordinator is not None:
        try:
            coordinator.close()
        except Exception:  # noqa: BLE001
            pass


# --------------------------------------------------------------------- parent
class ShardedPowerSampler(BatchPowerSampler):
    """Multi-chain power sampler sharded across a pool of worker processes.

    Drop-in replacement for :class:`BatchPowerSampler` (same constructor
    signature plus the worker knobs, same public API): with the same seed and
    ``num_chains`` it produces identical samples, stopping decisions,
    checkpoints and estimates for *any* worker count.  Selected by
    :func:`~repro.core.batch_sampler.make_sampler` when
    ``EstimationConfig(num_workers > 1)``.

    Parameters
    ----------
    circuit, stimulus, config, rng, num_chains, backend:
        As for :class:`BatchPowerSampler`.
    num_workers:
        Size of the worker pool; defaults to ``config.num_workers``.
    start_method:
        Multiprocessing start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``) or ``"serial"`` for the in-process fallback pool;
        defaults to the ``REPRO_SHARD_START_METHOD`` environment variable or
        the platform's fastest available method.  Platforms where worker
        processes cannot be created fall back to ``"serial"`` transparently.
    fault_schedule:
        Optional :class:`~repro.faults.FaultSchedule` injected into the
        worker pool (testing/chaos only); defaults to the ambient schedule
        from :func:`repro.faults.inject` or ``REPRO_FAULTS``.
    coordinator:
        An externally-owned :class:`~repro.core.transport.ShardCoordinator`
        to draw remote TCP workers from.  Defaults to ``None``, in which
        case ``config.worker_hosts`` (or ``REPRO_SHARD_HOSTS``) makes the
        sampler bind and own a coordinator of its own; with neither, the
        pool runs on local process pipes.
    """

    def __init__(
        self,
        circuit,
        stimulus: Stimulus,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
        num_chains: int | None = None,
        backend: str | None = None,
        num_workers: int | None = None,
        start_method: str | None = None,
        fault_schedule: FaultSchedule | None = None,
        coordinator: ShardCoordinator | None = None,
    ):
        config = config or EstimationConfig()
        self.num_workers = config.num_workers if num_workers is None else num_workers
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self._start_method = (
            start_method
            if start_method is not None
            else os.environ.get("REPRO_SHARD_START_METHOD") or None
        )
        self._fault_schedule = (
            fault_schedule if fault_schedule is not None else _ambient_fault_schedule()
        )
        # A deque because the coordinator's membership thread appends
        # join/leave incidents concurrently with the parent draining them.
        self._fault_incidents: deque[dict] = deque()
        self._coordinator = coordinator
        self._owns_coordinator = False
        self._listen_address = config.worker_hosts or os.environ.get("REPRO_SHARD_HOSTS") or None
        self._next_seat = 0
        self._rounds_since_sync = 0
        self._syncing = False
        self._healing = False
        self._handles: list | None = None
        self._finalizer = None
        super().__init__(
            circuit, stimulus, config, rng=rng, num_chains=num_chains, backend=backend
        )

    # ------------------------------------------------------------------- pool
    def _supervise(self, index: int, spawn) -> _SupervisedShard:
        """Wrap a raw-transport factory in a supervised pool seat.

        Seat closures (here and in the spawn factories) deliberately capture
        program/config/transport objects, never ``self``: the seats are held
        alive by the ``weakref.finalize`` shutdown callback's arguments, so a
        closure back-reference to the sampler would root it and reduce the
        finalizer to an interpreter-exit hook — remote workers would never be
        released when an estimator drops its sampler without closing it.
        """
        program, config, backend = self.program, self.config, self._backend_request
        return _SupervisedShard(
            spawn,
            index,
            # The degradation fallback is a clean local replica: never
            # injected with faults, so an exhausted retry budget cannot loop.
            fallback=lambda: _LocalShard(program, config, backend),
            max_restarts=config.worker_max_restarts,
            hang_timeout=config.worker_hang_timeout,
            backoff=config.worker_retry_backoff,
            on_incident=self._fault_incidents.append,
        )

    def _local_seat(self, index: int) -> _SupervisedShard:
        program, config, backend = self.program, self.config, self._backend_request
        schedule = self._fault_schedule
        return self._supervise(
            index,
            lambda incarnation, index=index: _LocalShard(
                program,
                config,
                backend,
                schedule.plan_for(index, incarnation) if schedule is not None else None,
            ),
        )

    def _socket_seat(self, index: int) -> _SupervisedShard:
        """A supervised seat whose transports are acquired from the coordinator.

        Every (re)spawn acquires the oldest pending remote member and ships
        it the program/config and the seat's fault plan in the ``assign``
        frame; a recovery therefore replays onto a *fresh* member (the
        failed one, if it reconnects, is fenced and rejoins as new).  An
        acquire timeout raises ``RuntimeError``, which the supervisor treats
        like a failed process spawn: the seat degrades to a clean local
        replica and the pool re-partitions at the next round boundary.
        """
        coordinator = self._coordinator
        program, config, backend = self.program, self.config, self._backend_request
        schedule = self._fault_schedule

        def spawn(incarnation: int, index: int = index):
            return coordinator.acquire(
                index,
                incarnation,
                program,
                config,
                backend,
                fault_plan=(
                    schedule.plan_for(index, incarnation) if schedule is not None else None
                ),
                timeout=config.worker_join_timeout,
            )

        return self._supervise(index, spawn)

    def _take_seat_index(self) -> int:
        # Seat indices are never reused across elastic joins, so fault plans
        # and incident streams stay unambiguous about which seat they mean.
        index = self._next_seat
        self._next_seat += 1
        return index

    def _spawn_socket_pool(self) -> list:
        if self._coordinator is None:
            token = self.config.worker_auth_token or os.environ.get("REPRO_SHARD_TOKEN", "")
            self._coordinator = ShardCoordinator(
                self._listen_address,
                token,
                on_incident=self._fault_incidents.append,
            )
            self._owns_coordinator = True
        elif self._coordinator.on_incident is None:
            # Workers may have joined the pre-started coordinator already;
            # attach_observer replays their buffered join incidents.
            self._coordinator.attach_observer(self._fault_incidents.append)
        joined = self._coordinator.wait_for_members(
            self.num_workers, timeout=self.config.worker_join_timeout
        )
        if joined == 0:
            if self._owns_coordinator:
                self._coordinator.close()
            raise RuntimeError(
                f"no shard workers joined {self._coordinator.address} within "
                f"{self.config.worker_join_timeout:.1f}s; start them with "
                f"'repro shard-worker --connect {self._coordinator.address}'"
            )
        # Elastic membership: start on whoever showed up.  Fewer members than
        # requested shrinks the pool; extra members stay pending and are
        # adopted at the first round boundary.  Either way the merged samples
        # are pinned equal to the in-process engine.
        self.num_workers = min(self.num_workers, joined)
        return [self._socket_seat(self._take_seat_index()) for _ in range(self.num_workers)]

    def _spawn_pool(self) -> list:
        if self._coordinator is not None or self._listen_address:
            return self._spawn_socket_pool()
        if self._start_method == "serial":
            return [self._local_seat(index) for index in range(self.num_workers)]
        if self._start_method is not None:
            ctx = mp.get_context(self._start_method)
        elif sys.platform == "linux" and "fork" in mp.get_all_start_methods():
            # Fork is the cheap path (no re-import per worker) and safe on
            # Linux; macOS forks crash in Accelerate/ObjC runtimes, which is
            # why CPython made spawn the default there — honour that default
            # everywhere else.
            ctx = mp.get_context("fork")
        else:
            ctx = mp.get_context()
        program, config, backend = self.program, self.config, self._backend_request
        schedule = self._fault_schedule
        cpus = _seat_cpus(self.num_workers)
        handles: list = []
        try:
            for index in range(self.num_workers):
                handles.append(
                    self._supervise(
                        index,
                        lambda incarnation, index=index: _ProcessShard(
                            ctx,
                            program,
                            config,
                            backend,
                            schedule.plan_for(index, incarnation)
                            if schedule is not None
                            else None,
                            cpu=cpus[index % len(cpus)] if cpus else None,
                        ),
                    )
                )
        except (OSError, PermissionError, RuntimeError, AssertionError):
            # Sandboxes (or daemonic parents) that cannot create processes:
            # identical results from the in-process pool, one process.
            _shutdown_pool(handles)
            return [self._local_seat(index) for index in range(self.num_workers)]
        return handles

    def _build_engines(self) -> None:
        """(Re)partition the ensemble and rebuild every shard's engines."""
        if self._handles is None:
            if self.config.power_simulator == "event-driven":
                # Warm the configured delay schedule before the program
                # crosses the process boundary, so spawned workers
                # deserialize the quantization instead of each repeating it.
                self.program.delay_schedule(self.config.delay_model)
            self._handles = self._spawn_pool()
            self._finalizer = weakref.finalize(
                self,
                _shutdown_pool,
                self._handles,
                self._coordinator if self._owns_coordinator else None,
            )
        self._shards = partition_chains(self.num_chains, self.num_workers)
        self._num_words = words_per_width(self.num_chains)
        # No in-process engines: every engine-facing base-class method is
        # overridden to delegate to the shard pool.
        self._engine = None
        self._power = None
        self._event_engine = None
        self._use_words = True
        # Backends are resolved at the FULL ensemble width and forced on all
        # shards, so each shard runs (and snapshots) the engines of the
        # equivalent in-process sampler.
        zd_backend = resolve_backend(self._backend_request, self.num_chains)
        event_backend = "scalar" if self.num_chains == 1 else "numpy"
        for handle, (_, width) in zip(self._handles, self._shards):
            handle.send("build", width, zd_backend, event_backend)
        self._shard_backends = [replies[0] for replies in self._collect_all()]
        self._rounds_since_sync = 0

    def close(self) -> None:
        """Shut the worker pool down (also runs on garbage collection)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._handles = None

    def __enter__(self) -> "ShardedPowerSampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -------------------------------------------------------------- messaging
    def _active(self) -> list[tuple[object, int, int, int, int, int]]:
        """(handle, worker, lane_offset, width, word_offset, word_count) per live shard."""
        active = []
        for worker, (handle, (offset, width)) in enumerate(zip(self._handles, self._shards)):
            if width > 0:
                active.append(
                    (handle, worker, offset, width, offset // 64, words_per_width(width))
                )
        return active

    def _collect_all(self) -> list[list]:
        replies = [handle.collect() for handle in self._handles]
        self._after_round()
        return replies

    def _collect_active(self) -> list[list]:
        replies = [entry[0].collect() for entry in self._active()]
        self._after_round()
        return replies

    # ------------------------------------------------------------ supervision
    def _after_round(self) -> None:
        """Round-boundary housekeeping: periodic replay-log truncation."""
        if self._syncing or self._healing:
            return
        self._rounds_since_sync += 1
        if self._rounds_since_sync >= max(1, self.config.shard_sync_interval):
            self._sync_shards()

    def _sync_shards(self) -> None:
        """Snapshot every live shard and truncate the replay logs.

        Bounds recovery replay (and parent memory) to at most
        ``shard_sync_interval`` rounds of traffic; costs one ``get_state``
        round trip per shard.  Checkpoints (:meth:`get_state`) sync for
        free.
        """
        self._syncing = True
        try:
            active = self._active()
            for entry in active:
                entry[0].send("get_state")
            for entry in active:
                state = entry[0].collect()[-1]
                entry[0].mark_synced({"engine": state["engine"], "prepared": state["prepared"]})
        finally:
            self._syncing = False
            self._rounds_since_sync = 0

    def _heal_pool(self) -> None:
        """Re-partition the ensemble at a round boundary when membership changed.

        Two triggers, one mechanism: a seat that exhausted its restart
        budget finished its round on a clean in-process replica and must be
        folded off; a remote worker that joined the coordinator since the
        last boundary is waiting for a seat.  Both re-partition through the
        ordinary checkpoint machinery (state gather → re-partition →
        restore), which is bit-identical because the merged state is
        lane-ordered regardless of the partitioning and
        ``get_state``/``set_state`` consume no RNG.
        """
        if self._handles is None or self._healing:
            return
        pending = self._coordinator.pending_count() if self._coordinator is not None else 0
        degraded = [seat for seat in self._handles if seat.degraded]
        if not degraded and not pending:
            return
        if degraded and len(degraded) == len(self._handles) and not pending:
            # Nowhere to go: every seat already runs in-process and no remote
            # member is waiting.  Keep the degraded pool.
            return
        self._healing = True
        try:
            state = self.get_state()
            survivors = [seat for seat in self._handles if not seat.degraded]
            adopted: list[_SupervisedShard] = []
            if self._coordinator is not None:
                while self._coordinator.pending_count() > 0:
                    try:
                        adopted.append(self._socket_seat(self._take_seat_index()))
                    except RuntimeError:
                        break  # the pending member vanished mid-adoption
            if not survivors and not adopted:
                return  # adoption failed after all; keep the degraded pool
            for seat in degraded:
                seat.stop()
                self._fault_incidents.append(
                    {
                        "kind": "left",
                        "worker": f"seat-{seat.shard_index}",
                        "pid": getattr(seat.transport, "pid", None),
                        "epoch": seat.incarnation,
                        "reason": "exhausted-restarts",
                    }
                )
            # In-place: the weakref.finalize shutdown callback holds this
            # exact list object.
            self._handles[:] = survivors + adopted
            self.num_workers = len(self._handles)
            self._build_engines()
            self.set_state(state)
        finally:
            self._healing = False

    def take_fault_incidents(self) -> list[dict]:
        """Drain supervision incidents (worker losses/recoveries) since last call.

        Each incident is a dict whose ``kind`` is ``"lost"``,
        ``"recovered"``, ``"joined"`` or ``"left"`` plus context fields;
        :class:`~repro.core.dipe.DipeEstimator` turns them into
        :class:`~repro.api.events.WorkerLost` /
        :class:`~repro.api.events.WorkerRecovered` /
        :class:`~repro.api.events.WorkerJoined` /
        :class:`~repro.api.events.WorkerLeft` progress events.  Drained
        with ``popleft`` because the coordinator's membership thread may
        append concurrently.
        """
        incidents: list[dict] = []
        while True:
            try:
                incidents.append(self._fault_incidents.popleft())
            except IndexError:
                return incidents

    @property
    def worker_restarts(self) -> int:
        """Total worker respawns performed by the supervision layer."""
        return sum(seat.respawns for seat in self._handles or [])

    def _scatter_patterns(self, cycles: int) -> None:
        """Draw *cycles* input patterns from the run RNG and feed shard slices.

        Consumes the RNG stream exactly like *cycles* successive
        ``stimulus.next_pattern_words(rng, num_chains)`` calls (the
        in-process sampler's draw order), then word-slices the block per
        shard.
        """
        active = self._active()
        for start in range(0, cycles, _FEED_CHUNK):
            chunk = min(_FEED_CHUNK, cycles - start)
            words = self.stimulus.next_words_block(self.rng, self.num_chains, chunk)
            for handle, _, _, _, word_offset, word_count in active:
                shard_words = words[:, :, word_offset : word_offset + word_count]
                handle.send("feed", np.ascontiguousarray(shard_words))

    def _scatter_latches(self) -> None:
        """Draw the latch randomisation and feed shard slices.

        One ``integers(0, 2, size=num_chains)`` call per latch, in latch
        order — the exact stream ``randomize_state`` consumes in-process.
        """
        num_latches = self.circuit.num_latches
        bits = np.empty((num_latches, self.num_chains), dtype=np.uint8)
        for index in range(num_latches):
            bits[index] = self.rng.integers(0, 2, size=self.num_chains, dtype="uint8")
        words = bits_to_words(bits, self._num_words)
        for handle, _, _, _, word_offset, word_count in self._active():
            handle.send(
                "feed_latch",
                np.ascontiguousarray(words[:, word_offset : word_offset + word_count]),
            )

    # ------------------------------------------------------------- properties
    @property
    def backend(self) -> str:
        """Backend the equivalent in-process sampler would resolve (state format)."""
        return resolve_backend(self._backend_request, self.num_chains)

    def shard_progress(self):
        """Current :class:`~repro.api.events.ShardProgress` tuple (for events)."""
        from repro.api.events import ShardProgress

        return tuple(
            ShardProgress(
                worker=index, num_chains=width, lane_offset=min(offset, self.num_chains)
            )
            for index, (offset, width) in enumerate(self._shards)
        )

    # ----------------------------------------------------------------- set-up
    def _warm_up(self, warmup_cycles: int | None = None) -> None:
        warmup = self.config.warmup_cycles if warmup_cycles is None else warmup_cycles
        self._heal_pool()
        self._scatter_latches()
        self._scatter_patterns(1 + warmup)
        for entry in self._active():
            entry[0].send("prepare", warmup)
        self._collect_active()
        self._prepared = True
        self.cycles_simulated += warmup

    def restart_from_random_state(self) -> None:
        self._heal_pool()
        self._scatter_latches()
        self._scatter_patterns(1)
        for entry in self._active():
            entry[0].send("restart")
        self._collect_active()
        self._prepared = True

    # ------------------------------------------------------------------ steps
    def advance(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._require_prepared()
        if cycles == 0:
            return
        self._heal_pool()
        self._scatter_patterns(cycles)
        for entry in self._active():
            entry[0].send("advance", cycles)
        self._collect_active()
        self.cycles_simulated += cycles

    def _sample_sweeps(self, interval: int, sweeps: int) -> np.ndarray:
        """Run *sweeps* measured sweeps; return the merged (sweeps, num_chains) block."""
        self._require_prepared()
        self._heal_pool()
        self._scatter_patterns(sweeps * (interval + 1))
        for entry in self._active():
            entry[0].send("sample_block", interval, sweeps)
        parts = [replies[-1] for replies in self._collect_active()]
        self.cycles_simulated += sweeps * (interval + 1)
        return np.concatenate(parts, axis=1)

    def measure_cycle(self) -> np.ndarray:
        self._require_prepared()
        return self._sample_sweeps(0, 1).reshape(-1)

    def measure_cycle_total(self) -> float:
        """Lane-resolved measurement summed over the merged ensemble."""
        return float(self.measure_cycle().sum())

    def next_samples(self, interval: int) -> np.ndarray:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self._require_prepared()
        return self._sample_sweeps(interval, 1).reshape(-1)

    def sample_block(self, interval: int, min_count: int) -> np.ndarray:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        sweeps = -(-min_count // self.num_chains)
        return self._sample_sweeps(interval, sweeps).reshape(-1)

    def collect_sequence(self, interval: int, length: int) -> list[float]:
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if length < 1:
            raise ValueError("length must be at least 1")
        self._require_prepared()
        self._heal_pool()
        self._scatter_patterns((interval + 1) * length)
        active = self._active()
        for position, entry in enumerate(active):
            # Chain 0 lives in the first non-empty shard; only it resolves lanes.
            entry[0].send("collect_sequence", interval, length, position == 0)
        sequence = self._collect_active()[0][-1]
        self.cycles_simulated += (interval + 1) * length
        return sequence

    # ------------------------------------------------------------------ state
    def get_state(self) -> dict:
        """Gather per-shard states into the :class:`BatchPowerSampler` schema.

        The returned snapshot is interchangeable with an in-process
        sampler's: it restores into either engine and the continued runs are
        bit-identical (the parent's RNG consumed the same stream the
        in-process sampler would have).
        """
        self._heal_pool()
        active = self._active()
        for entry in active:
            entry[0].send("get_state")
        states = [replies[-1] for replies in self._collect_active()]
        # A checkpoint is a free sync point: each shard's snapshot reproduces
        # it exactly, so the replay logs truncate to build + set_state.
        for entry, state in zip(active, states):
            entry[0].mark_synced({"engine": state["engine"], "prepared": state["prepared"]})
        self._rounds_since_sync = 0
        return {
            "rng": self.rng.bit_generator.state,
            "num_chains": self.num_chains,
            "cycles_simulated": self.cycles_simulated,
            "prepared": self._prepared,
            "engine": self._merge_engine_states([state["engine"] for state in states]),
            "stimulus": self.stimulus.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from either the sharded or the in-process sampler."""
        chains = state.get("num_chains", self.num_chains)
        if chains != self.num_chains:
            self.num_chains = chains
            self._build_engines()
        self.rng.bit_generator.state = state["rng"]
        self.cycles_simulated = state["cycles_simulated"]
        self._prepared = state["prepared"]
        shard_states = self._split_engine_state(state["engine"])
        for entry, shard_state in zip(self._active(), shard_states):
            entry[0].send("set_state", {"engine": shard_state, "prepared": self._prepared})
        self._collect_active()
        self.stimulus.set_state(state["stimulus"])

    def _merge_engine_states(self, states: Sequence[dict]) -> dict:
        """Merge per-shard engine snapshots into one full-width snapshot."""
        columns = []
        for state, (_, _, _, width, _, word_count) in zip(states, self._active()):
            if state["backend"] == "numpy":
                columns.append(np.asarray(state["words"], dtype=np.uint64))
            else:
                columns.append(
                    np.stack(
                        [pack_int_to_words(value, word_count) for value in state["values"]]
                    )
                )
        words = np.concatenate(columns, axis=1)
        settled = states[0]["settled"]
        cycles = states[0]["cycles"]
        if self.backend != "bigint":
            return {"backend": "numpy", "words": words, "settled": settled, "cycles": cycles}
        return {
            "backend": "bigint",
            "values": [unpack_words_to_int(row) for row in words],
            "settled": settled,
            "cycles": cycles,
        }

    def _split_engine_state(self, engine_state: dict) -> list[dict]:
        """Slice a full-width engine snapshot into per-shard snapshots."""
        if engine_state["backend"] == "numpy":
            words = np.asarray(engine_state["words"], dtype=np.uint64)
        else:
            words = np.stack(
                [
                    pack_int_to_words(value, self._num_words)
                    for value in engine_state["values"]
                ]
            )
        settled = engine_state["settled"]
        cycles = engine_state["cycles"]
        shard_states = []
        for _, worker, _, width, word_offset, word_count in self._active():
            shard_words = np.ascontiguousarray(words[:, word_offset : word_offset + word_count])
            if self._shard_backends[worker] != "bigint":
                shard_states.append(
                    {"backend": "numpy", "words": shard_words, "settled": settled, "cycles": cycles}
                )
            else:
                mask = (1 << width) - 1
                shard_states.append(
                    {
                        "backend": "bigint",
                        "values": [unpack_words_to_int(row) & mask for row in shard_words],
                        "settled": settled,
                        "cycles": cycles,
                    }
                )
        return shard_states

    # ---------------------------------------------------- inherited semantics
    # prepare(), resize(), plan_chain_resize(), samples(), chain_cycles and
    # the make_sampler/draw_sample_block integration are inherited verbatim
    # from BatchPowerSampler: resize() calls the overridden _build_engines()
    # (re-partitioning the pool) and _warm_up() (re-feeding the re-warm
    # randomness), so adaptive chain scaling crosses shard boundaries with
    # the exact RNG consumption of the in-process sampler.
