"""Scheduling core of the estimation service: job records and the worker pool.

:class:`EstimationService` is the transport-independent heart of
``repro serve``: it validates submitted :class:`~repro.api.jobs.JobSpec`
payloads at the boundary (malformed requests are rejected *before* they can
reach a worker), queues accepted jobs with bounded backpressure, runs them on
a pool of persistent worker threads, publishes one totally ordered event log
per job, snapshots a resumable checkpoint on cancellation, and persists
everything through a :class:`~repro.service.store.ResultStore` so completed
jobs survive restarts.

Worker threads all live in one process, so every job of the same circuit
shares one in-process :class:`~repro.circuits.program.CircuitProgram` memo
(plus the optional ``REPRO_PROGRAM_CACHE`` disk cache): a per-circuit warm
lock makes the pool lower each distinct circuit exactly once no matter how
many jobs land concurrently.

Execution is deterministic per spec — the service adds scheduling, not
randomness — so a job's result is byte-identical to
:class:`~repro.api.batch.BatchRunner` running the same spec, and a
cancelled job resumed from its checkpoint finishes bit-identical to an
uninterrupted run (both pinned by the test suite and the load-test bench).
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
import uuid
from typing import Any, Callable

from repro.api.events import EstimateCompleted, ProgressEvent
from repro.api.jobs import JobResult, JobSpec, resolve_circuit
from repro.api.registry import ESTIMATOR_REGISTRY, STIMULUS_REGISTRY
from repro.service.events import (
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobQueued,
    JobResumed,
    JobRetrying,
    JobStarted,
)
from repro.service.store import ResultStore

#: Statuses a job can be in.  ``interrupted`` marks jobs found mid-flight
#: when a server restarted on an existing store.
JOB_STATUSES = ("queued", "running", "completed", "failed", "cancelled", "interrupted")

#: Statuses in which a job's event log is complete (no more events coming).
FINISHED_STATUSES = frozenset({"completed", "failed", "cancelled", "interrupted"})

#: Statuses from which :meth:`EstimationService.resume` can re-queue a job.
RESUMABLE_STATUSES = frozenset({"cancelled", "interrupted"})

#: Top-level keys accepted in a submitted spec payload; anything else is a
#: client error (the library's ``from_dict`` is lenient, the service is not).
_SPEC_KEYS = frozenset({"circuit", "estimator", "stimulus", "config", "seed", "params", "label"})

#: Keys accepted in the ``{"spec": ..., ...}`` wrapper form: the spec plus
#: per-job service policy.
_WRAPPER_KEYS = frozenset({"spec", "max_retries"})


class ServiceError(Exception):
    """Base class of service-level request errors (mapped to HTTP statuses)."""


class InvalidJobError(ServiceError):
    """The submitted payload is not a valid, runnable JobSpec (HTTP 400)."""


class ServiceFullError(ServiceError):
    """The pending queue is at capacity; retry later (HTTP 429)."""


class UnknownJobError(ServiceError):
    """No job with the requested id exists (HTTP 404)."""


class JobStateError(ServiceError):
    """The job is not in a state that allows the request (HTTP 409)."""


def validate_job_payload(payload: Any) -> JobSpec:
    """Parse and fully validate a submitted job payload at the service boundary.

    Accepts the spec dict directly or wrapped as ``{"spec": {...}}`` — the
    wrapper form may also carry per-job service policy
    (``"max_retries"``, validated by :func:`validate_retry_policy`).  Beyond
    :meth:`JobSpec.from_dict` (which validates the config through the plugin
    registries), this rejects unknown top-level keys, unknown estimator and
    stimulus names, unresolvable circuits and unbuildable stimulus parameters
    — so every accepted job can actually start, and a malformed request can
    never crash a pool worker.  Raises :class:`InvalidJobError` with a
    client-presentable message.
    """
    if isinstance(payload, dict) and "spec" in payload:
        unknown = set(payload) - _WRAPPER_KEYS
        if unknown:
            raise InvalidJobError(
                f"unknown wrapper fields {sorted(unknown)}; allowed: {sorted(_WRAPPER_KEYS)}"
            )
        validate_retry_policy(payload.get("max_retries", 0))
        payload = payload["spec"]
    if not isinstance(payload, dict):
        raise InvalidJobError(
            f"job payload must be a JSON object, got {type(payload).__name__}"
        )
    unknown = set(payload) - _SPEC_KEYS
    if unknown:
        raise InvalidJobError(
            f"unknown spec fields {sorted(unknown)}; allowed: {sorted(_SPEC_KEYS)}"
        )
    if "circuit" not in payload:
        raise InvalidJobError("spec is missing the required 'circuit' field")
    config_payload = payload.get("config")
    if isinstance(config_payload, dict) and config_payload.get("worker_hosts"):
        from repro.core.transport import parse_address

        try:
            parse_address(str(config_payload["worker_hosts"]))
        except ValueError as error:
            raise InvalidJobError(f"invalid 'config.worker_hosts': {error}") from None
    try:
        spec = JobSpec.from_dict(payload)
    except (TypeError, ValueError, KeyError) as error:
        raise InvalidJobError(f"invalid job spec: {error}") from None
    if spec.estimator not in ESTIMATOR_REGISTRY:
        raise InvalidJobError(
            f"invalid 'estimator': unknown estimator {spec.estimator!r}; "
            f"registered: {sorted(ESTIMATOR_REGISTRY.names())}"
        )
    if spec.stimulus.kind not in STIMULUS_REGISTRY:
        raise InvalidJobError(
            f"invalid 'stimulus.kind': unknown stimulus {spec.stimulus.kind!r}; "
            f"registered: {sorted(STIMULUS_REGISTRY.names())}"
        )
    try:
        circuit = resolve_circuit(spec.circuit)
    except ValueError as error:
        raise InvalidJobError(str(error)) from None
    except OSError as error:
        raise InvalidJobError(f"cannot read circuit {spec.circuit!r}: {error}") from None
    try:
        spec.stimulus.build(circuit.num_inputs)
    except (TypeError, ValueError) as error:
        raise InvalidJobError(f"invalid 'stimulus.params': invalid stimulus parameters: {error}") from None
    return spec


def validate_retry_policy(value: Any) -> int:
    """Validate a ``max_retries`` value; returns it as a plain int.

    Raises :class:`InvalidJobError` for anything but a non-negative integer
    (booleans included — ``True`` is not a retry count).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidJobError(
            f"'max_retries' must be a non-negative integer, got {value!r}"
        )
    if value < 0:
        raise InvalidJobError(f"'max_retries' must be non-negative, got {value}")
    return value


class JobRecord:
    """One job's full in-memory state: spec, status, event log, result.

    Thread-safety: status transitions and event publication are serialized by
    ``_lock``; the event list is append-only, so readers may index it without
    locking.  ``wait_finished`` blocks synchronous callers;
    ``async_change`` is an :class:`asyncio.Event` chain the SSE streamer
    awaits (replaced on every publish, set exactly once).
    """

    def __init__(self, job_id: str, spec: JobSpec, submitted_at: float, max_retries: int = 0):
        self.id = job_id
        self.spec = spec
        self.status = "queued"
        self.error: str | None = None
        self.result_payload: dict[str, Any] | None = None
        self.checkpoint_available = False
        self.max_retries = max_retries
        self.retries = 0
        self.events: list[dict[str, Any]] = []
        self.next_seq = 0
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.resumed = 0
        self.progress: tuple[int, int] = (0, 0)  # (samples_drawn, cycles_simulated)
        self.cancel_requested = threading.Event()
        self._memory_checkpoint: Any | None = None
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self.async_change = asyncio.Event()

    @property
    def is_finished(self) -> bool:
        """True when no more events will be appended to this job's log."""
        return self.status in FINISHED_STATUSES

    def wait_finished(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a finished status (or *timeout*)."""
        with self._cond:
            return self._cond.wait_for(lambda: self.is_finished, timeout)

    def snapshot(self) -> dict[str, Any]:
        """JSON summary of the job as served by ``GET /jobs/{id}``."""
        samples, cycles = self.progress
        data: dict[str, Any] = {
            "id": self.id,
            "label": self.spec.label,
            "name": self.spec.name,
            "circuit": self.spec.circuit,
            "estimator": self.spec.estimator,
            "seed": self.spec.seed,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "samples_drawn": samples,
            "cycles_simulated": cycles,
            "num_events": len(self.events),
            "resumed": self.resumed,
            "max_retries": self.max_retries,
            "retries": self.retries,
            "checkpoint_available": self.checkpoint_available,
            "error": self.error,
        }
        if self.result_payload is not None:
            data["result"] = self.result_payload
        return data

    def meta_dict(self) -> dict[str, Any]:
        """The persisted ``meta.json`` document (a snapshot sans result body)."""
        meta = self.snapshot()
        meta.pop("result", None)
        return meta


class EstimationService:
    """Validating, persisting, event-streaming scheduler over a thread pool.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore` (or a path for one).  With a store,
        results, event logs and checkpoints survive restarts — construction
        rehydrates every stored job, marking jobs a dead server left
        mid-flight as ``"interrupted"`` (resumable if checkpointed).  Without
        one, the service is fully functional in memory.
    num_workers:
        Persistent worker threads executing jobs.
    max_pending:
        Bound on jobs waiting in the queue; submissions beyond it raise
        :class:`ServiceFullError` (HTTP 429) instead of growing unboundedly.
    max_retries:
        Default per-job retry budget: a job whose attempt raises is
        re-queued (emitting ``job-retrying``) up to this many times before
        it is marked ``failed``.  Retried jobs resume from their
        auto-snapshot checkpoint when one exists.  Submissions can override
        it per job via the ``{"spec": ..., "max_retries": n}`` wrapper.
        Jobs found ``interrupted`` during rehydration are auto-requeued
        while their budget allows (they count a retry).
    auto_checkpoint_events:
        Snapshot a resumable checkpoint every this many estimator progress
        events while a job runs (0 disables).  The snapshots are what
        retries and restart-rehydration resume from, so interrupted work is
        bounded instead of lost.
    """

    def __init__(
        self,
        store: ResultStore | str | None = None,
        num_workers: int = 2,
        max_pending: int = 1024,
        max_retries: int = 0,
        auto_checkpoint_events: int = 32,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if auto_checkpoint_events < 0:
            raise ValueError("auto_checkpoint_events must be non-negative")
        self.store = ResultStore(store) if isinstance(store, (str, bytes)) else store
        self.num_workers = num_workers
        self.max_pending = max_pending
        self.max_retries = max_retries
        self.auto_checkpoint_events = auto_checkpoint_events
        self.started_at = time.time()
        self._records: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._records_lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._pending = 0
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._program_guard = threading.Lock()
        self._program_locks: dict[str, threading.Lock] = {}
        self._program_keys: set[str] = set()
        self._events_published = 0
        if self.store is not None:
            self._rehydrate()

    # -------------------------------------------------------------- lifecycle
    def start(self) -> "EstimationService":
        """Spawn the worker threads (idempotent)."""
        if not self._threads:
            self._stop.clear()
            for index in range(self.num_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(index,),
                    name=f"repro-service-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def attach_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        """Register the asyncio loop that async (SSE) subscribers run on."""
        self._loop = loop

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the worker pool; running jobs finish, queued jobs stay queued."""
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "EstimationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ rehydration
    def _rehydrate(self) -> None:
        """Reload every stored job; mark a dead server's in-flight jobs.

        Jobs found mid-flight become ``interrupted``; those with a
        checkpoint and retry budget left are auto-requeued immediately
        (consuming one retry), so a restarted server picks interrupted work
        back up from the auto-snapshot instead of leaving it dead.
        """
        for job_id, meta, spec_dict in self.store.scan():
            try:
                spec = JobSpec.from_dict(spec_dict)
            except (TypeError, ValueError, KeyError):
                continue  # stored by an incompatible version; leave on disk
            record = JobRecord(
                job_id,
                spec,
                meta.get("submitted_at") or self.started_at,
                max_retries=int(meta.get("max_retries", 0)),
            )
            record.status = meta.get("status", "interrupted")
            record.started_at = meta.get("started_at")
            record.finished_at = meta.get("finished_at")
            record.error = meta.get("error")
            record.resumed = int(meta.get("resumed", 0))
            record.retries = int(meta.get("retries", 0))
            record.events = self.store.read_events(job_id)
            record.next_seq = (record.events[-1]["seq"] + 1) if record.events else 0
            record.progress = (
                int(meta.get("samples_drawn", 0)),
                int(meta.get("cycles_simulated", 0)),
            )
            record.checkpoint_available = self.store.has_checkpoint(job_id)
            if record.status == "completed":
                record.result_payload = self.store.load_result(job_id)
            if record.status not in FINISHED_STATUSES:
                record.status = "interrupted"
                self.store.write_meta(job_id, record.meta_dict())
            with self._records_lock:
                self._records[job_id] = record
                self._order.append(job_id)
        for record in self.jobs():
            if (
                record.status == "interrupted"
                and record.checkpoint_available
                and record.retries < record.max_retries
            ):
                with record._lock:
                    record.status = "queued"
                    record.finished_at = None
                    record.resumed += 1
                    record.retries += 1
                with self._records_lock:
                    self._pending += 1
                self._publish(
                    record, self._lifecycle(record, JobResumed, from_checkpoint=True)
                )
                self._persist_meta(record)
                self._queue.put(record.id)

    # ------------------------------------------------------------- submission
    def submit(self, payload: Any) -> JobRecord:
        """Validate *payload*, persist it, queue it, and return its record.

        Raises :class:`InvalidJobError` on malformed payloads and
        :class:`ServiceFullError` when the pending queue is at capacity.
        """
        record = self._accept(payload)
        self._queue.put(record.id)
        return record

    def submit_snapshot(self, payload: Any) -> dict[str, Any]:
        """Like :meth:`submit`, but return the job's snapshot as accepted.

        The snapshot is taken before the job reaches the worker queue, so it
        always reads ``queued``: a snapshot read after :meth:`submit` returns
        may already show a short job finished.  This is the ``201`` body of
        ``POST /jobs``.
        """
        record = self._accept(payload)
        snapshot = record.snapshot()
        self._queue.put(record.id)
        return snapshot

    def _accept(self, payload: Any) -> JobRecord:
        """Validate, register, persist and announce a job; do not queue it."""
        spec = validate_job_payload(payload)
        max_retries = self.max_retries
        if isinstance(payload, dict) and "spec" in payload and "max_retries" in payload:
            max_retries = validate_retry_policy(payload["max_retries"])
        now = time.time()
        with self._records_lock:
            if self._pending >= self.max_pending:
                raise ServiceFullError(
                    f"queue is full ({self._pending} pending jobs, "
                    f"max_pending={self.max_pending}); retry later"
                )
            job_id = self._new_job_id()
            record = JobRecord(job_id, spec, now, max_retries=max_retries)
            self._records[job_id] = record
            self._order.append(job_id)
            self._pending += 1
            position = self._pending
        if self.store is not None:
            self.store.create_job(job_id, spec.to_dict(), record.meta_dict())
        self._publish(
            record,
            self._lifecycle(
                record, JobQueued, label=spec.label, queue_position=position
            ),
        )
        return record

    def _new_job_id(self) -> str:
        """A fresh collision-checked job id (``_records_lock`` held)."""
        while True:
            job_id = "j" + uuid.uuid4().hex[:10]
            if job_id not in self._records and not (
                self.store is not None and self.store.has_job(job_id)
            ):
                return job_id

    # ----------------------------------------------------------------- access
    def get(self, job_id: str) -> JobRecord:
        """The record of *job_id*; raises :class:`UnknownJobError`."""
        record = self._records.get(job_id)
        if record is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return record

    def jobs(self) -> list[JobRecord]:
        """All records in submission order."""
        with self._records_lock:
            return [self._records[job_id] for job_id in self._order]

    def stats(self) -> dict[str, Any]:
        """Service counters served by ``GET /stats``."""
        counts = dict.fromkeys(JOB_STATUSES, 0)
        for record in self.jobs():
            counts[record.status] = counts.get(record.status, 0) + 1
        return {
            "jobs": counts,
            "num_jobs": sum(counts.values()),
            "retries_scheduled": sum(record.retries for record in self.jobs()),
            "pending": self._pending,
            "max_pending": self.max_pending,
            "num_workers": self.num_workers,
            "programs_lowered": len(self._program_keys),
            "events_published": self._events_published,
            "uptime_seconds": time.time() - self.started_at,
            "store": str(self.store.root) if self.store is not None else None,
        }

    # ---------------------------------------------------------- cancel/resume
    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued or running job.

        Queued jobs cancel immediately.  Running jobs are flagged; the worker
        snapshots a resumable checkpoint at the next event boundary and emits
        the terminal ``job-cancelled`` event.  Raises :class:`JobStateError`
        for jobs already finished.
        """
        record = self.get(job_id)
        with record._lock:
            if record.status == "queued":
                record.status = "cancelled"
                record.finished_at = time.time()
                was_queued = True
            elif record.status == "running":
                record.cancel_requested.set()
                was_queued = False
            else:
                raise JobStateError(f"job {job_id} is {record.status}; nothing to cancel")
        if was_queued:
            self._pending_done()
            self._publish(
                record, self._lifecycle(record, JobCancelled, checkpoint_available=False)
            )
            self._persist_meta(record)
            self._notify(record)
        return record

    def resume(self, job_id: str) -> JobRecord:
        """Re-queue a cancelled/interrupted job, continuing from its checkpoint.

        With a checkpoint the resumed run continues the interrupted random
        stream and finishes bit-identical to an uninterrupted run; without
        one the job simply restarts from its seed — which, by construction,
        produces the identical result too.
        """
        record = self.get(job_id)
        with self._records_lock:
            if self._pending >= self.max_pending:
                raise ServiceFullError(
                    f"queue is full ({self._pending} pending jobs); retry later"
                )
            with record._lock:
                if record.status not in RESUMABLE_STATUSES:
                    raise JobStateError(
                        f"job {job_id} is {record.status}; only "
                        f"{sorted(RESUMABLE_STATUSES)} jobs can be resumed"
                    )
                record.status = "queued"
                record.finished_at = None
                record.resumed += 1
                record.cancel_requested.clear()
            self._pending += 1
        self._publish(
            record,
            self._lifecycle(record, JobResumed, from_checkpoint=record.checkpoint_available),
        )
        self._persist_meta(record)
        self._queue.put(job_id)
        return record

    # ------------------------------------------------------------ worker pool
    def _worker_loop(self, index: int) -> None:
        while True:
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            if job_id is None:
                return
            record = self._records.get(job_id)
            if record is not None:
                self._run_job(record, index)

    def _run_job(self, record: JobRecord, worker: int) -> None:
        with record._lock:
            if record.status != "queued":
                return  # cancelled while waiting in the queue
            record.status = "running"
            record.started_at = time.time()
        self._pending_done()
        self._persist_meta(record)
        try:
            checkpoint = (
                self._load_checkpoint(record) if (record.resumed or record.retries) else None
            )
            self._warm_circuit(record.spec.circuit)
            estimator = record.spec.build_estimator()
            self._publish(
                record,
                self._lifecycle(
                    record, JobStarted, worker=worker, resumed=checkpoint is not None
                ),
            )
            stream = estimator.run(resume_from=checkpoint)
            final: EstimateCompleted | None = None
            events_since_snapshot = 0
            for event in stream:
                self._publish(record, event)
                if isinstance(event, EstimateCompleted):
                    final = event
                    continue  # the stream ends right after; cancellation is moot
                if record.cancel_requested.is_set():
                    self._cancel_in_flight(record, estimator, stream)
                    return
                events_since_snapshot += 1
                if (
                    self.auto_checkpoint_events
                    and events_since_snapshot >= self.auto_checkpoint_events
                ):
                    events_since_snapshot = 0
                    self._snapshot_checkpoint(record, estimator)
            if final is None:
                raise RuntimeError("estimator stream ended without an EstimateCompleted event")
            result = JobResult(spec=record.spec, result=final.estimate)
            payload = result.to_dict()
            record.result_payload = payload
            record.error = None
            if self.store is not None:
                self.store.save_result(record.id, payload)
            elapsed = time.time() - (record.started_at or time.time())
            self._finish(
                record,
                "completed",
                self._lifecycle(
                    record, JobCompleted, result=payload["result"], elapsed_seconds=elapsed
                ),
            )
        except Exception as exc:  # noqa: BLE001 — job errors must not kill the worker
            record.error = f"{type(exc).__name__}: {exc}"
            if record.retries < record.max_retries and not self._stop.is_set():
                self._retry_job(record, record.error)
            else:
                self._finish(
                    record, "failed", self._lifecycle(record, JobFailed, error=record.error)
                )

    def _snapshot_checkpoint(self, record: JobRecord, estimator: Any) -> None:
        """Best-effort auto-snapshot so a crashed or retried job resumes mid-run."""
        try:
            checkpoint = estimator.make_checkpoint()
        except Exception:  # noqa: BLE001 — e.g. before sampling began
            return
        if checkpoint is None:
            return
        record._memory_checkpoint = checkpoint
        if self.store is not None:
            self.store.save_checkpoint(record.id, checkpoint)
        if not record.checkpoint_available:
            record.checkpoint_available = True
            self._persist_meta(record)

    def _retry_job(self, record: JobRecord, error: str) -> None:
        """Re-queue a failed attempt that still has retry budget."""
        with record._lock:
            record.retries += 1
            record.status = "queued"
            attempt = record.retries
        with self._records_lock:
            self._pending += 1
        self._publish(
            record,
            self._lifecycle(
                record,
                JobRetrying,
                error=error,
                attempt=attempt,
                max_retries=record.max_retries,
                from_checkpoint=record.checkpoint_available,
            ),
        )
        self._persist_meta(record)
        self._notify(record)
        self._queue.put(record.id)

    def _cancel_in_flight(self, record: JobRecord, estimator: Any, stream: Any) -> None:
        """Snapshot a checkpoint (when possible) and finish as cancelled."""
        checkpoint = None
        try:
            checkpoint = estimator.make_checkpoint()
        except Exception:  # noqa: BLE001 — e.g. cancelled before sampling began
            checkpoint = None
        stream.close()
        if checkpoint is not None:
            record._memory_checkpoint = checkpoint
            if self.store is not None:
                self.store.save_checkpoint(record.id, checkpoint)
        record.checkpoint_available = checkpoint is not None
        self._finish(
            record,
            "cancelled",
            self._lifecycle(
                record, JobCancelled, checkpoint_available=record.checkpoint_available
            ),
        )

    def _load_checkpoint(self, record: JobRecord) -> Any | None:
        if record._memory_checkpoint is not None:
            return record._memory_checkpoint
        if self.store is not None:
            return self.store.load_checkpoint(record.id)
        return None

    def _finish(self, record: JobRecord, status: str, event: ProgressEvent) -> None:
        """Publish the terminal event, then flip the status (in that order).

        Stream readers drain the log first and only stop once the status is
        finished, so publishing before the flip guarantees they always see
        the terminal event.
        """
        self._publish(record, event)
        with record._lock:
            record.status = status
            record.finished_at = time.time()
        self._persist_meta(record)
        if self.store is not None:
            self.store.close_events(record.id)
        self._notify(record)

    # -------------------------------------------------------------- internals
    def _pending_done(self) -> None:
        with self._records_lock:
            self._pending = max(0, self._pending - 1)

    def _persist_meta(self, record: JobRecord) -> None:
        if self.store is not None:
            self.store.write_meta(record.id, record.meta_dict())

    def _lifecycle(self, record: JobRecord, cls: Callable, **extra: Any) -> ProgressEvent:
        """Build a lifecycle event carrying the job's current progress."""
        samples, cycles = record.progress
        return cls(
            circuit=record.spec.circuit,
            method=record.spec.estimator,
            samples_drawn=samples,
            cycles_simulated=cycles,
            job_id=record.id,
            **extra,
        )

    def _publish(self, record: JobRecord, event: ProgressEvent) -> None:
        """Append *event* to the job's log (seq-stamped), persist, notify."""
        with record._lock:
            envelope = {
                "seq": record.next_seq,
                "job": record.id,
                "time": time.time(),
                "event": event.to_dict(),
            }
            record.next_seq += 1
            record.events.append(envelope)
            record.progress = (event.samples_drawn, event.cycles_simulated)
            if self.store is not None:
                self.store.append_event(record.id, envelope)
        self._events_published += 1
        self._notify(record)

    def _notify(self, record: JobRecord) -> None:
        """Wake synchronous and asyncio waiters of *record*."""
        with record._cond:
            record._cond.notify_all()
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._async_notify, record)
            except RuntimeError:
                pass  # loop shut down between the check and the call

    @staticmethod
    def _async_notify(record: JobRecord) -> None:
        """Replace-and-set the record's change event (runs on the loop)."""
        change = record.async_change
        record.async_change = asyncio.Event()
        change.set()

    def _warm_circuit(self, ref: str) -> None:
        """Lower the job's circuit exactly once across the whole pool.

        The first worker to touch *ref* holds its warm lock through the
        lowering; concurrent jobs of the same circuit wait here and then hit
        the in-process program memo instead of lowering again.
        """
        from repro.circuits.program import CircuitProgram

        with self._program_guard:
            lock = self._program_locks.setdefault(ref, threading.Lock())
        with lock:
            program = CircuitProgram.of(resolve_circuit(ref))
        with self._program_guard:
            self._program_keys.add(program.key)
