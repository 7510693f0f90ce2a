"""Cross-host shard transport: framed TCP, membership, heartbeats, fencing.

This module extends the supervised shard-pool machinery of
:mod:`repro.core.sharded_sampler` across machine boundaries.  It keeps the
same contract the process-pipe transport satisfies — workers are pure
deterministic consumers of the parent-fed message stream, so any transport
failure is recoverable by respawn-and-replay without changing one merged
sample — and adds the pieces a network needs:

* **Framing** — every message travels as a 4-byte big-endian length header
  followed by the body, so a half-delivered write is detectable (a short
  read at EOF surfaces as a ``"truncated"`` failure, never as silent data
  loss).  Post-handshake frames are pickled ``(kind, payload)`` tuples;
  handshake frames are JSON so a socket is never unpickled before it has
  authenticated.
* **Handshake + token auth** — a connecting worker sends a JSON ``hello``
  carrying a shared secret token; the coordinator answers ``welcome`` (with
  a freshly assigned, strictly monotone *epoch*) or ``reject``.  Tokens are
  compared with :func:`hmac.compare_digest`.
* **Fencing** — the epoch doubles as a fencing token: a worker that offers a
  prior epoch when reconnecting (a stale incarnation resuming after the
  coordinator declared it dead) is rejected with reason ``"fenced"`` and
  must rejoin as a fresh member.  Recovery is therefore always replay onto a
  fresh seat, never resumption of stale worker state.
* **Heartbeats** — assigned workers stream ``heartbeat`` frames carrying
  their handled-command count, feeding the same progress-based hang
  detection the process transport gets from its shared counter; pending
  (unassigned) workers heartbeat the coordinator, which prunes members
  silent past ``member_timeout``.
* **Elastic membership** — :class:`ShardCoordinator` keeps a FIFO registry
  of authenticated pending workers.  The sampler acquires seats from it
  (:meth:`ShardCoordinator.acquire` ships the circuit program, config and
  backend in an ``assign`` frame), re-acquires on failure, and adopts
  newly-joined members at round boundaries.

:func:`run_shard_worker` is the remote counterpart (exposed as
``repro shard-worker``): an outer join/rejoin loop around the same
:class:`~repro.core.sharded_sampler._ShardServer` command loop the process
workers run, plus the injected network-fault behaviours
(drop-connection, partition, slow-link, truncated-frame) used by the chaos
suite.  See ``docs/distributed.md`` for the deployment guide and the
failure matrix.

Security note: after authentication the wire format is pickle, which is
code-execution-equivalent — the token gates message deserialization, so
treat it as a secret and run coordinator and workers only on networks where
every host is trusted.
"""

from __future__ import annotations

import hmac
import json
import os
import pickle
import select
import socket
import struct
import threading
import time
from collections import deque
from typing import Callable

__all__ = [
    "FrameError",
    "ShardCoordinator",
    "WorkerDown",
    "recv_frame",
    "run_shard_worker",
    "send_frame",
]

#: Length-prefix framing: 4-byte big-endian unsigned body length.
_HEADER = struct.Struct(">I")

#: Hard ceiling on one frame body; a header past it means a garbled stream
#: (random bytes decode to multi-gigabyte lengths), not a huge message.
MAX_FRAME_BYTES = 1 << 28

#: Seconds a handshake (hello/welcome exchange) may take end to end.
_HANDSHAKE_TIMEOUT = 10.0

#: Coordinator serve-loop tick: bounds join/prune/acquire latency.
_SERVE_TICK = 0.1

#: Default seconds an injected ``partition`` blackholes the link (heartbeats
#: included) when the action gives no duration — long enough to trip any
#: test-sized ``worker_hang_timeout``.
_DEFAULT_PARTITION_SECONDS = 6.0

#: Default per-reply delay of an injected ``slow-link`` (must stay far below
#: any reasonable hang timeout: a slow link is degraded, not dead).
_DEFAULT_SLOW_LINK_SECONDS = 0.02


class WorkerDown(Exception):
    """A shard transport failed (recoverable by respawn-and-replay).

    Raised by every raw transport (process pipe, in-process serial, TCP
    socket) towards :class:`~repro.core.sharded_sampler._SupervisedShard`,
    which recovers by acquiring a fresh transport and replaying its logged
    message history.  ``reason`` is a short failure class (``"died"``,
    ``"hung"``, ``"garbled"``, ``"truncated"``, ``"partitioned"``, ...).
    """

    def __init__(self, reason: str, pid: int | None = None, exitcode: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.pid = pid
        self.exitcode = exitcode


class FrameError(RuntimeError):
    """The framed byte stream is unusable (closed, truncated or garbled)."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"frame error: {reason}" + (f" ({detail})" if detail else ""))
        self.reason = reason


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly *count* bytes; raise :class:`FrameError` on early EOF."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise FrameError("closed" if remaining == count and not chunks else "truncated")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _send_body(sock: socket.socket, body: bytes) -> None:
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_body(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError("oversized", f"{length} bytes")
    return _recv_exact(sock, length)


def send_frame(sock: socket.socket, kind: str, payload: object = None) -> None:
    """Send one pickled ``(kind, payload)`` frame (post-handshake wire format)."""
    _send_body(sock, pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL))


def recv_frame(sock: socket.socket) -> tuple[str, object]:
    """Receive one pickled frame; raises :class:`FrameError` on a bad stream."""
    body = _recv_body(sock)
    try:
        kind, payload = pickle.loads(body)
    except Exception as error:  # noqa: BLE001 — any unpickling failure is garbling
        raise FrameError("garbled", repr(error)) from error
    return kind, payload


def _send_json_frame(sock: socket.socket, obj: dict) -> None:
    """Send a JSON frame (handshake only: parseable before authentication)."""
    _send_body(sock, json.dumps(obj).encode("utf-8"))


def _recv_json_frame(sock: socket.socket) -> dict:
    body = _recv_body(sock)
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError("garbled", repr(error)) from error
    if not isinstance(obj, dict):
        raise FrameError("garbled", "handshake frame is not an object")
    return obj


class _FrameBuffer:
    """Incremental frame parser for the parent's non-blocking receive path."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Append *data*; return the bodies of every newly completed frame."""
        self._buffer.extend(data)
        bodies: list[bytes] = []
        while len(self._buffer) >= _HEADER.size:
            (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
            if length > MAX_FRAME_BYTES:
                raise FrameError("oversized", f"{length} bytes")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                break
            bodies.append(bytes(self._buffer[_HEADER.size : end]))
            del self._buffer[:end]
        return bodies


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"host:port"`` into a ``(host, port)`` pair, validating both."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(f"address must look like 'host:port', got {address!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"address must end in an integer port, got {address!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port must lie in [0, 65535], got {port}")
    return host, port


class _Member:
    """One authenticated, not-yet-assigned worker connection."""

    def __init__(self, sock: socket.socket, epoch: int, worker: str, pid: int | None, host: str):
        self.sock = sock
        self.epoch = epoch
        self.worker = worker
        self.pid = pid
        self.host = host
        self.last_seen = time.monotonic()
        #: Set once the coordinator starts dropping the member: it is no
        #: longer offered to seats, and a second drop is a no-op.
        self.leaving = False


class ShardCoordinator:
    """Listener + membership registry for remote TCP shard workers.

    Accepts worker connections on *bind* (``"host:port"``; port 0 picks an
    ephemeral port, readable from :attr:`address`), authenticates each
    ``hello`` against the shared *token*, assigns strictly monotone epochs,
    and keeps the authenticated-but-unassigned workers in a FIFO *pending*
    registry ordered by epoch.  A background thread services joins, consumes
    pending members' heartbeats and prunes members silent past
    *member_timeout*.  Membership changes are reported through
    *on_incident* as ``{"kind": "joined"|"left", ...}`` dicts — the same
    channel the shard supervisor uses, so they surface as
    :class:`~repro.api.events.WorkerJoined` /
    :class:`~repro.api.events.WorkerLeft` progress events.

    The sampler side calls :meth:`wait_for_members` during pool
    construction, :meth:`acquire` to turn the oldest pending member into a
    live :class:`_SocketShard` seat (shipping program/config/backend and the
    seat's fault plan in the ``assign`` frame), and :meth:`pending_count` at
    round boundaries to adopt newly-joined workers elastically.
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        token: str = "",
        *,
        heartbeat_interval: float = 0.5,
        member_timeout: float | None = None,
        on_incident: Callable[[dict], None] | None = None,
    ):
        host, port = parse_address(bind)
        self.token = token
        self.heartbeat_interval = heartbeat_interval
        self.member_timeout = (
            member_timeout if member_timeout is not None else max(6 * heartbeat_interval, 3.0)
        )
        self.on_incident = on_incident
        self.fenced_rejects = 0
        self._unobserved: list[dict] = []
        self._pending: list[_Member] = []
        self._epoch = 0
        self._lock = threading.Lock()
        self._joined = threading.Condition(self._lock)
        self._closed = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self._host, self._port = self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._serve, name="shard-coordinator", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------- properties
    @property
    def port(self) -> int:
        return self._port

    @property
    def address(self) -> str:
        """The bound ``host:port`` (with the resolved ephemeral port)."""
        return f"{self._host}:{self._port}"

    def _incident(self, incident: dict) -> None:
        sink = self.on_incident
        if sink is None:
            # Members can join before the sampler attaches its observer (a
            # pre-started coordinator handed to the pool): keep the incident
            # for attach_observer instead of dropping it.
            with self._lock:
                if self.on_incident is None:
                    self._unobserved.append(incident)
                    return
                sink = self.on_incident
        try:
            sink(incident)
        except Exception:  # noqa: BLE001 — observers must not kill the serve loop
            pass

    def attach_observer(self, sink: Callable[[dict], None]) -> None:
        """Attach *sink*, first replaying incidents emitted while unobserved.

        The backlog replays under the membership lock so a concurrent join
        cannot overtake it — *sink* must therefore not call back into the
        coordinator (the pool's incident sink is a plain ``deque.append``).
        """
        with self._lock:
            backlog, self._unobserved = self._unobserved, []
            self.on_incident = sink
            for incident in backlog:
                try:
                    sink(incident)
                except Exception:  # noqa: BLE001 — same contract as _incident
                    pass

    # ------------------------------------------------------------- serve loop
    def _serve(self) -> None:
        while not self._closed:
            with self._lock:
                watched = [member.sock for member in self._pending]
            try:
                readable, _, _ = select.select([self._listener] + watched, [], [], _SERVE_TICK)
            except (OSError, ValueError):
                continue  # a socket was closed under us; rebuild the watch list
            for sock in readable:
                if self._closed:
                    return
                if sock is self._listener:
                    self._accept_one()
                else:
                    self._pump_member(sock)
            self._prune_members()

    def _accept_one(self) -> None:
        try:
            sock, peer = self._listener.accept()
        except OSError:
            return
        try:
            sock.settimeout(_HANDSHAKE_TIMEOUT)
            hello = _recv_json_frame(sock)
            if not hmac.compare_digest(str(hello.get("token", "")), self.token):
                _send_json_frame(sock, {"kind": "reject", "reason": "bad-token"})
                sock.close()
                return
            if hello.get("epoch") is not None:
                # A stale incarnation trying to resume after the supervisor
                # declared it dead: fence it off.  Recovery is always replay
                # onto a fresh seat — the worker must rejoin from scratch.
                with self._lock:
                    self.fenced_rejects += 1
                _send_json_frame(sock, {"kind": "reject", "reason": "fenced"})
                sock.close()
                return
            with self._lock:
                self._epoch += 1
                epoch = self._epoch
            member = _Member(
                sock,
                epoch,
                worker=str(hello.get("worker") or f"worker-{epoch}"),
                pid=hello.get("pid"),
                host=peer[0],
            )
            _send_json_frame(
                sock,
                {
                    "kind": "welcome",
                    "epoch": epoch,
                    "heartbeat_interval": self.heartbeat_interval,
                },
            )
            sock.settimeout(None)
        except (FrameError, OSError):
            try:
                sock.close()
            except OSError:
                pass
            return
        with self._joined:
            self._pending.append(member)
            self._joined.notify_all()
        self._incident(
            {
                "kind": "joined",
                "worker": member.worker,
                "pid": member.pid,
                "epoch": member.epoch,
                "host": member.host,
            }
        )

    def _pump_member(self, sock: socket.socket) -> None:
        with self._lock:
            member = next((m for m in self._pending if m.sock is sock), None)
        if member is None:
            return  # acquired between select and read; the seat owns it now
        try:
            kind, _ = recv_frame(sock)
        except (FrameError, OSError):
            self._drop_member(member, "disconnected")
            return
        if kind == "heartbeat":
            member.last_seen = time.monotonic()

    def _prune_members(self) -> None:
        deadline = time.monotonic() - self.member_timeout
        with self._lock:
            silent = [m for m in self._pending if m.last_seen < deadline]
        for member in silent:
            self._drop_member(member, "timed-out")

    def _drop_member(self, member: _Member, reason: str) -> None:
        with self._lock:
            if member.leaving or member not in self._pending:
                return
            member.leaving = True
        # Deliver the incident while the member still counts as pending, so
        # an observer that sees pending_count() fall has already heard why.
        self._incident(
            {
                "kind": "left",
                "worker": member.worker,
                "pid": member.pid,
                "epoch": member.epoch,
                "reason": reason,
            }
        )
        with self._lock:
            if member in self._pending:  # close() may have emptied the registry
                self._pending.remove(member)
        try:
            member.sock.close()
        except OSError:
            pass

    # -------------------------------------------------------------- sampler API
    def pending_count(self) -> int:
        """Authenticated workers waiting for a seat."""
        with self._lock:
            return len(self._pending)

    def wait_for_members(self, count: int, timeout: float) -> int:
        """Block until *count* members are pending (or *timeout*); return how many are."""
        deadline = time.monotonic() + timeout
        with self._joined:
            while len(self._pending) < count and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._joined.wait(remaining)
            return len(self._pending)

    def acquire(
        self,
        seat_index: int,
        incarnation: int,
        program,
        config,
        backend_request: str,
        *,
        fault_plan=None,
        timeout: float = 30.0,
    ) -> "_SocketShard":
        """Assign the oldest pending member to a pool seat; return its transport.

        FIFO by epoch keeps seat assignment deterministic given a join
        order.  The ``assign`` frame ships everything a process worker would
        receive at spawn (program, config, backend request, fault plan), so
        the remote :class:`~repro.core.sharded_sampler._ShardServer` starts
        from the same clean state and the supervisor's replayed ``build`` is
        the first history message either way.  Raises ``RuntimeError`` when
        no member joins within *timeout* (the supervisor degrades the seat
        to a local replica, exactly like a failed process spawn).
        """
        deadline = time.monotonic() + timeout
        with self._joined:
            while not (candidates := [m for m in self._pending if not m.leaving]):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    raise RuntimeError(
                        f"no shard worker joined within {timeout:.1f}s "
                        f"(coordinator {self.address}, seat {seat_index})"
                    )
                self._joined.wait(min(remaining, _SERVE_TICK))
            member = min(candidates, key=lambda m: m.epoch)
            self._pending.remove(member)
        shard = _SocketShard(
            member.sock,
            pid=member.pid,
            epoch=member.epoch,
            worker=member.worker,
            send_timeout=max(float(config.worker_hang_timeout), 1.0),
        )
        try:
            shard.send_assign(
                {
                    "seat": seat_index,
                    "incarnation": incarnation,
                    "program": program,
                    "config": config,
                    "backend": backend_request,
                    "fault_plan": fault_plan,
                }
            )
        except WorkerDown:
            shard.destroy()
            raise RuntimeError(
                f"shard worker {member.worker!r} (epoch {member.epoch}) "
                "dropped during seat assignment"
            ) from None
        return shard

    def close(self) -> None:
        """Stop the serve loop and close every socket; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._joined:
            pending, self._pending = self._pending, []
            self._joined.notify_all()
        for member in pending:
            try:
                member.sock.close()
            except OSError:
                pass
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=2.0)


class _SocketShard:
    """Raw parent-side transport of one remote worker (framed TCP).

    Duck-types the raw-transport protocol the supervisor drives
    (``send_raw`` / ``poll`` / ``recv_raw`` / ``heartbeat_count`` /
    ``is_alive`` / ``destroy`` / ``stop``), so
    :class:`~repro.core.sharded_sampler._SupervisedShard` treats a remote
    worker exactly like a process or serial one.  Replies and heartbeat
    frames are demultiplexed in :meth:`poll`; the progress counter advances
    on every received reply and every heartbeat reporting new handled
    commands, feeding the supervisor's hang detection.  Any framing or
    socket failure latches a terminal failure reason which
    :meth:`recv_raw` re-raises as :class:`WorkerDown`.
    """

    kind = "socket"

    def __init__(
        self,
        sock: socket.socket,
        *,
        pid: int | None,
        epoch: int,
        worker: str,
        send_timeout: float,
    ):
        self._sock = sock
        self.pid = pid
        self.epoch = epoch
        self.worker = worker
        self.exitcode: int | None = None
        self._buffer = _FrameBuffer()
        self._replies: deque = deque()
        self._progress = 0
        self._handled_seen = 0
        self._failure: str | None = None
        self._stopped = False
        sock.settimeout(send_timeout)

    def is_alive(self) -> bool:
        return self._failure is None

    def heartbeat_count(self) -> int:
        return self._progress

    def _fail(self, reason: str) -> None:
        if self._failure is None:
            self._failure = reason
        try:
            self._sock.close()
        except OSError:
            pass

    def send_assign(self, spec: dict) -> None:
        """Ship the seat-assignment frame (not part of the supervised history)."""
        try:
            send_frame(self._sock, "assign", spec)
        except (socket.timeout, OSError) as error:
            self._fail("partitioned" if isinstance(error, socket.timeout) else "died")
            raise WorkerDown(self._failure, self.pid) from error

    def send_raw(self, message: tuple) -> None:
        if self._failure is not None:
            raise WorkerDown(self._failure, self.pid)
        try:
            send_frame(self._sock, "cmd", message)
        except (socket.timeout, OSError) as error:
            # A blocked sendall means the peer stopped draining: a partition
            # (or a dead peer with full buffers).  Either way the stream is
            # unusable — latch the failure and let the supervisor replay.
            self._fail("partitioned" if isinstance(error, socket.timeout) else "died")
            raise WorkerDown(self._failure, self.pid) from error

    def poll(self, timeout: float) -> bool:
        if self._replies or self._failure is not None:
            return True
        try:
            readable, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            self._fail("died")
            return True
        if not readable:
            return False
        try:
            chunk = self._sock.recv(1 << 16)
        except (socket.timeout, OSError):
            self._fail("died")
            return True
        if not chunk:
            # EOF: buffered partial bytes mean a frame was cut mid-flight.
            self._fail("truncated" if self._buffer.pending else "died")
            return True
        try:
            bodies = self._buffer.feed(chunk)
        except FrameError as error:
            self._fail(error.reason)
            return True
        for body in bodies:
            try:
                kind, payload = pickle.loads(body)
            except Exception:  # noqa: BLE001 — undecodable frame = garbled stream
                self._fail("garbled")
                return True
            if kind == "reply":
                self._replies.append(payload)
                self._progress += 1
            elif kind == "heartbeat":
                handled = int(payload.get("handled", 0)) if isinstance(payload, dict) else 0
                if handled > self._handled_seen:
                    self._handled_seen = handled
                    self._progress += 1
        return bool(self._replies or self._failure is not None)

    def recv_raw(self):
        if self._replies:
            return self._replies.popleft()
        if self._failure is not None:
            raise WorkerDown(self._failure, self.pid)
        # The supervisor only calls recv_raw after poll() returned True, so
        # spin briefly rather than assert — a heartbeat may have woken poll.
        if self.poll(0.0) and self._replies:
            return self._replies.popleft()
        raise WorkerDown(self._failure or "died", self.pid)

    def destroy(self) -> None:
        """Tear the link down hard; the worker will rejoin as a fresh member."""
        self._fail("destroyed")

    def stop(self) -> None:
        # Idempotent and silent (also runs from weakref.finalize at
        # interpreter shutdown).  A polite stop lets the worker reply, drop
        # the connection and rejoin the coordinator's pending registry.
        if self._stopped:
            return
        self._stopped = True
        try:
            send_frame(self._sock, "cmd", ("stop",))
            self._sock.settimeout(1.0)
            recv_frame(self._sock)
        except Exception:  # noqa: BLE001 — peer already gone is fine
            pass
        self._fail("stopped")


# ------------------------------------------------------------------ worker side
class _SessionEnd(Exception):
    """Internal: the worker must drop this connection and rejoin."""

    def __init__(self, reason: str, rejoin: bool = True):
        super().__init__(reason)
        self.reason = reason
        self.rejoin = rejoin


def _connect(address: tuple[str, int], token: str, worker_id: str, epoch: int | None):
    """One join attempt: connect + hello/welcome handshake.

    Returns ``(sock, welcome)`` on success, the string ``"fenced"`` when the
    coordinator fenced a stale-epoch resume (the caller must rejoin fresh),
    or ``None`` when the coordinator is unreachable or rejected the token.
    """
    try:
        sock = socket.create_connection(address, timeout=_HANDSHAKE_TIMEOUT)
    except OSError:
        return None
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_HANDSHAKE_TIMEOUT)
        _send_json_frame(
            sock,
            {"token": token, "worker": worker_id, "pid": os.getpid(), "epoch": epoch},
        )
        answer = _recv_json_frame(sock)
    except (FrameError, OSError):
        sock.close()
        return None
    if answer.get("kind") == "welcome":
        sock.settimeout(None)
        return sock, answer
    sock.close()
    return "fenced" if answer.get("reason") == "fenced" else None


class _HeartbeatPump:
    """Background thread streaming heartbeat frames for one worker session."""

    def __init__(self, sock: socket.socket, send_lock: threading.Lock, interval: float):
        self._sock = sock
        self._send_lock = send_lock
        self._interval = max(interval, 0.05)
        self._stop = threading.Event()
        self.handled = 0
        self._thread = threading.Thread(target=self._run, name="shard-heartbeat", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._send_lock:
                    send_frame(self._sock, "heartbeat", {"handled": self.handled})
            except OSError:
                return  # connection gone; the session loop notices on its own

    def stop(self) -> None:
        self._stop.set()


def run_shard_worker(
    address: str,
    token: str = "",
    *,
    worker_id: str | None = None,
    fault_schedule=None,
    heartbeat_interval: float = 0.5,
    max_reconnects: int = 64,
    reconnect_backoff: float = 0.2,
) -> dict:
    """Serve shard commands to a coordinator at *address* until it goes away.

    The standalone remote worker process (``repro shard-worker``): joins the
    coordinator, heartbeats while pending, and — once assigned a seat —
    builds a :class:`~repro.core.sharded_sampler._ShardServer` from the
    shipped program/config and serves the supervised command stream.  Every
    connection loss (including injected drop-connection and truncated-frame
    faults) first attempts a resume with its stale epoch, gets fenced, and
    rejoins as a fresh member — so the fencing path is exercised on every
    reconnect.  Returns a summary dict
    (``sessions``/``assignments``/``handled``/``fenced``) once
    *max_reconnects* consecutive join attempts fail (coordinator gone).

    *fault_schedule* (or, when it is ``None``, the plan shipped in the
    ``assign`` frame, or the ambient ``REPRO_FAULTS`` schedule) drives the
    chaos suite; see :mod:`repro.faults` for the socket-mode action kinds.
    """
    # Imported lazily: sharded_sampler imports this module at the top level.
    from repro.faults import schedule_from_env

    host_port = parse_address(address)
    name = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    ambient = fault_schedule if fault_schedule is not None else schedule_from_env()
    summary = {"worker": name, "sessions": 0, "assignments": 0, "handled": 0, "fenced": 0}
    epoch: int | None = None
    misses = 0
    while misses <= max_reconnects:
        joined = _connect(host_port, token, name, epoch)
        if joined == "fenced":
            summary["fenced"] += 1
            epoch = None  # stale incarnation confirmed dead: rejoin fresh
            continue
        if joined is None:
            epoch = None
            misses += 1
            time.sleep(reconnect_backoff)
            continue
        misses = 0
        sock, welcome = joined
        epoch = int(welcome["epoch"])
        summary["sessions"] += 1
        try:
            _serve_session(sock, welcome, summary, ambient)
        except _SessionEnd as end:
            if not end.rejoin:
                break
        finally:
            try:
                sock.close()
            except OSError:
                pass
    return summary


def _serve_session(sock, welcome, summary, ambient_schedule) -> None:
    """Serve one coordinator connection: pending → assigned → command loop."""
    from repro.core.sharded_sampler import _ShardServer
    from repro.faults import FaultInjector, InjectedNetworkFault

    send_lock = threading.Lock()
    pump = _HeartbeatPump(
        sock, send_lock, float(welcome.get("heartbeat_interval", 0.5))
    )
    server: _ShardServer | None = None
    injector = FaultInjector(None, mode="socket")
    slow_link = 0.0

    def network_effect(fault: InjectedNetworkFault) -> None:
        nonlocal slow_link
        if fault.kind == "drop-connection":
            raise _SessionEnd("dropped")
        if fault.kind == "truncated-frame":
            # A frame header promising more bytes than ever arrive: the
            # parent must detect the cut (EOF with a partial buffer), not
            # consume garbage.
            try:
                with send_lock:
                    sock.sendall(_HEADER.pack(1 << 20) + b"half a frame")
            except OSError:
                pass
            raise _SessionEnd("truncated")
        if fault.kind == "partition":
            # Blackhole the link both ways: hold the send lock so even the
            # heartbeat pump goes silent, exactly like a dropped route.
            with send_lock:
                time.sleep(fault.seconds or _DEFAULT_PARTITION_SECONDS)
            return
        if fault.kind == "slow-link":
            slow_link = fault.seconds or _DEFAULT_SLOW_LINK_SECONDS
            return
        raise _SessionEnd(fault.kind)

    def trip(command: int, point: str) -> None:
        try:
            injector.trip(command, point)
        except InjectedNetworkFault as fault:
            network_effect(fault)

    try:
        while True:
            try:
                kind, payload = recv_frame(sock)
            except (FrameError, OSError):
                raise _SessionEnd("connection-lost") from None
            if kind == "assign":
                summary["assignments"] += 1
                plan = payload.get("fault_plan")
                if plan is None and ambient_schedule is not None:
                    plan = ambient_schedule.plan_for(
                        payload["seat"], payload["incarnation"]
                    )
                injector = FaultInjector(plan, mode="socket")
                server = _ShardServer(payload["program"], payload["config"], payload["backend"])
                continue
            if kind != "cmd":
                continue  # unknown frame kinds are ignored for forward compatibility
            message = payload
            if message[0] == "stop":
                # A released worker exits instead of rejoining: the run that
                # owned it is over, and its coordinator is about to close.
                try:
                    with send_lock:
                        send_frame(sock, "reply", ("ok", None))
                except OSError:
                    pass
                raise _SessionEnd("stopped", rejoin=False)
            if server is None:
                raise _SessionEnd("command-before-assign")
            command = injector.begin()
            trip(command, "recv")
            try:
                reply = ("ok", server.handle(message))
            except InjectedNetworkFault as fault:
                network_effect(fault)
                reply = ("error", "network fault mid-handle")
            except Exception:  # noqa: BLE001 — errors travel back to the parent
                import traceback

                reply = ("error", traceback.format_exc())
            trip(command, "handle")
            if slow_link:
                time.sleep(slow_link)
            try:
                with send_lock:
                    send_frame(
                        sock, "reply", "!garbled!" if injector.garbled(command) else reply
                    )
            except OSError:
                raise _SessionEnd("connection-lost") from None
            summary["handled"] += 1
            pump.handled += 1
            trip(command, "reply")
    finally:
        pump.stop()
