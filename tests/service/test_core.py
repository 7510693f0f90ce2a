"""In-process EstimationService: scheduling, event logs, cancel/resume, store."""

from __future__ import annotations

import json
import time

import pytest

from repro.api import JobSpec
from repro.api.jobs import run_job
from repro.core.config import EstimationConfig
from repro.service import EstimationService
from repro.service.core import JobStateError, ServiceFullError, UnknownJobError
from repro.service.events import TERMINAL_EVENT_KINDS

TINY = EstimationConfig(
    randomness_sequence_length=16,
    max_independence_interval=4,
    min_samples=16,
    check_interval=16,
    max_samples=48,
    warmup_cycles=4,
)

#: Long enough that a cancel reliably lands mid-sampling.
LONG = EstimationConfig(
    randomness_sequence_length=32,
    max_independence_interval=4,
    min_samples=64,
    check_interval=16,
    max_samples=1536,
    warmup_cycles=4,
)


def _canon(payload):
    """Canonical JSON with the wall-clock elapsed_seconds field stripped."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_seconds"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(payload), sort_keys=True)


def _wait_for_progress(record, timeout=30.0):
    """Block until the job has published at least one sample-progress event."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(e["event"]["kind"] == "sample-progress" for e in record.events):
            return
        time.sleep(0.001)
    raise AssertionError(f"no sample-progress within {timeout}s; log: "
                         f"{[e['event']['kind'] for e in record.events]}")


class TestLifecycle:
    def test_submit_completes_byte_identical_to_run_job(self):
        spec = JobSpec(circuit="s27", config=TINY, seed=11)
        with EstimationService(num_workers=2) as service:
            record = service.submit(spec.to_dict())
            assert record.wait_finished(timeout=60)
            assert record.status == "completed"
            assert _canon(record.result_payload) == _canon(run_job(spec).to_dict())

    def test_submit_snapshot_reads_queued_even_after_the_job_finished(self):
        spec = JobSpec(circuit="s27", config=TINY, seed=5, label="accepted")
        with EstimationService(num_workers=1) as service:
            snapshot = service.submit_snapshot(spec.to_dict())
            record = service.get(snapshot["id"])
            assert record.wait_finished(timeout=60)
        assert record.status == "completed"
        assert snapshot["status"] == "queued"
        assert snapshot["label"] == "accepted"
        assert snapshot["num_events"] == 1
        assert snapshot["started_at"] is None and snapshot["finished_at"] is None

    def test_event_log_contiguous_and_bracketed(self):
        with EstimationService(num_workers=1) as service:
            record = service.submit(JobSpec(circuit="s27", config=TINY, seed=3).to_dict())
            assert record.wait_finished(timeout=60)
        kinds = [e["event"]["kind"] for e in record.events]
        seqs = [e["seq"] for e in record.events]
        assert seqs == list(range(len(seqs)))
        assert kinds[0] == "job-queued"
        assert kinds[1] == "job-started"
        assert kinds[-1] == "job-completed"
        assert sum(1 for k in kinds if k in TERMINAL_EVENT_KINDS) == 1
        # The estimator's own stream is forwarded verbatim in between.
        assert "run-started" in kinds and "sample-progress" in kinds

    def test_failing_job_finishes_failed_and_pool_survives(self):
        with EstimationService(num_workers=1) as service:
            # Unknown estimator params pass boundary validation (they belong
            # to the estimator factory) and fail at build time — i.e. on the
            # worker, which must report job-failed and keep running.
            record = service.submit(
                JobSpec(circuit="s27", config=TINY, seed=1,
                        params={"bogus_param": 1}).to_dict()
            )
            assert record.wait_finished(timeout=60)
            assert record.status == "failed"
            assert record.error
            assert record.events[-1]["event"]["kind"] == "job-failed"
            # The worker thread survived and still runs jobs.
            ok = service.submit(JobSpec(circuit="s27", config=TINY, seed=2).to_dict())
            assert ok.wait_finished(timeout=60)
            assert ok.status == "completed"

    def test_unknown_job_raises(self):
        with EstimationService(num_workers=1) as service:
            with pytest.raises(UnknownJobError):
                service.get("jnope")


class TestBackpressure:
    def test_submissions_beyond_max_pending_rejected(self):
        service = EstimationService(num_workers=1, max_pending=2)
        # Workers not started: everything submitted stays queued.
        service.submit(JobSpec(circuit="s27", config=TINY, seed=1).to_dict())
        service.submit(JobSpec(circuit="s27", config=TINY, seed=2).to_dict())
        with pytest.raises(ServiceFullError):
            service.submit(JobSpec(circuit="s27", config=TINY, seed=3).to_dict())
        service.shutdown()


class TestCancelResume:
    def test_cancel_queued_job_is_immediate(self):
        service = EstimationService(num_workers=1)
        record = service.submit(JobSpec(circuit="s27", config=TINY, seed=5).to_dict())
        service.cancel(record.id)  # workers not started: still queued
        assert record.status == "cancelled"
        assert not record.checkpoint_available
        assert record.events[-1]["event"]["kind"] == "job-cancelled"
        service.start()
        time.sleep(0.05)
        assert record.status == "cancelled"  # the pool skips cancelled jobs
        service.shutdown()

    def test_cancel_running_then_resume_bit_identical(self):
        spec = JobSpec(circuit="s27", config=LONG, seed=90125)
        uninterrupted = _canon(run_job(spec).to_dict())
        with EstimationService(num_workers=1) as service:
            record = service.submit(spec.to_dict())
            _wait_for_progress(record)
            service.cancel(record.id)
            assert record.wait_finished(timeout=60)
            assert record.status == "cancelled"
            assert record.checkpoint_available
            service.resume(record.id)
            assert record.wait_finished(timeout=60)
            assert record.status == "completed"
            assert _canon(record.result_payload) == uninterrupted
        kinds = [e["event"]["kind"] for e in record.events]
        assert kinds.count("job-cancelled") == 1
        assert kinds.count("job-resumed") == 1
        assert kinds[-1] == "job-completed"

    def test_resume_without_checkpoint_restarts_identically(self):
        spec = JobSpec(circuit="s27", config=TINY, seed=17)
        uninterrupted = _canon(run_job(spec).to_dict())
        service = EstimationService(num_workers=1)
        record = service.submit(spec.to_dict())
        service.cancel(record.id)  # cancelled while queued: no checkpoint
        service.start()
        service.resume(record.id)
        assert record.wait_finished(timeout=60)
        assert record.status == "completed"
        assert _canon(record.result_payload) == uninterrupted
        service.shutdown()

    def test_resume_rejects_non_resumable_states(self):
        with EstimationService(num_workers=1) as service:
            record = service.submit(JobSpec(circuit="s27", config=TINY, seed=9).to_dict())
            assert record.wait_finished(timeout=60)
            with pytest.raises(JobStateError):
                service.resume(record.id)
            with pytest.raises(JobStateError):
                service.cancel(record.id)


class TestStoreIntegration:
    def test_restart_rehydrates_completed_jobs(self, tmp_path):
        spec = JobSpec(circuit="s27", config=TINY, seed=21, label="persisted")
        with EstimationService(store=str(tmp_path), num_workers=1) as service:
            record = service.submit(spec.to_dict())
            assert record.wait_finished(timeout=60)
            job_id = record.id
            payload = _canon(record.result_payload)
            num_events = len(record.events)

        reborn = EstimationService(store=str(tmp_path), num_workers=1)
        revived = reborn.get(job_id)
        assert revived.status == "completed"
        assert _canon(revived.result_payload) == payload
        assert len(revived.events) == num_events
        assert [e["seq"] for e in revived.events] == list(range(num_events))
        reborn.shutdown()

    def test_restart_marks_inflight_jobs_interrupted(self, tmp_path):
        service = EstimationService(store=str(tmp_path), num_workers=1)
        record = service.submit(JobSpec(circuit="s27", config=TINY, seed=23).to_dict())
        # Simulate a crash: never start workers, never finish the job.
        service.store.close()
        job_id = record.id

        reborn = EstimationService(store=str(tmp_path), num_workers=1)
        revived = reborn.get(job_id)
        assert revived.status == "interrupted"
        reborn.start()
        reborn.resume(job_id)
        assert revived.wait_finished(timeout=60)
        assert revived.status == "completed"
        reborn.shutdown()

    def test_checkpoint_survives_restart(self, tmp_path):
        spec = JobSpec(circuit="s27", config=LONG, seed=90125)
        uninterrupted = _canon(run_job(spec).to_dict())
        with EstimationService(store=str(tmp_path), num_workers=1) as service:
            record = service.submit(spec.to_dict())
            _wait_for_progress(record)
            service.cancel(record.id)
            assert record.wait_finished(timeout=60)
            assert record.status == "cancelled"
            job_id = record.id
            had_checkpoint = record.checkpoint_available

        reborn = EstimationService(store=str(tmp_path), num_workers=1)
        revived = reborn.get(job_id)
        assert revived.checkpoint_available == had_checkpoint
        reborn.start()
        reborn.resume(job_id)
        assert revived.wait_finished(timeout=60)
        assert revived.status == "completed"
        assert _canon(revived.result_payload) == uninterrupted
        reborn.shutdown()


class TestProgramSharing:
    def test_pool_lowers_each_circuit_exactly_once(self, tmp_path, monkeypatch):
        import uuid

        from repro.circuits.library import S27_BENCH
        from repro.circuits.program import clear_program_memo, compile_count

        monkeypatch.delenv("REPRO_PROGRAM_CACHE", raising=False)
        # A structurally unique circuit: no memo, disk cache or attached
        # program can satisfy it, so lowerings are observable via
        # compile_count().
        tag = f"N{uuid.uuid4().hex[:8]}"
        bench = tmp_path / "unique.bench"
        bench.write_text(S27_BENCH.replace("G", tag))
        clear_program_memo()
        before = compile_count()
        with EstimationService(num_workers=4) as service:
            records = [
                service.submit(
                    JobSpec(circuit=str(bench), config=TINY, seed=seed).to_dict()
                )
                for seed in range(8)
            ]
            for record in records:
                assert record.wait_finished(timeout=120)
                assert record.status == "completed"
        assert compile_count() - before == 1
