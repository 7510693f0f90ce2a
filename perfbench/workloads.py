"""Job lists, job runners and result checks of the benchmark workloads.

Every job seed derives from the workload seed, and the size of each job list
derives from ``--seconds`` only, so one (workload, seed, seconds) triple always
names the same work.  The runners call the program through its public
surface: :func:`repro.api.run_job` for the in-process workloads and
:class:`repro.service.client.ServiceClient` against a ``repro serve``
subprocess for ``service``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.api import JobSpec, derive_job_seeds, run_job
from repro.core.config import EstimationConfig

#: Seconds one round of each in-process job list takes on a 2-CPU x86 VM with
#: warm caches.  ``--seconds`` buys ``round(seconds / nominal)`` rounds, at
#: least one, so the work done never depends on how fast the host happens to
#: be during a run.
NOMINAL_ROUND_SECONDS = {"glitch": 9.0, "sharded": 1.1}

#: Closed-loop service throughput on the same VM (jobs per second).
NOMINAL_SERVICE_JOBS_PER_SECOND = 30

#: A glitch round: twenty single-chain runs of s27 (scalar event engine), one
#: 64-chain run of s27 (vectorized time wheel) and one single-chain run of
#: s208 or s344 in turn, the cheapest Table 1 circuits under this engine.  The
#: short s27 jobs make up most of the latency percentiles, which keeps them
#: steady across seeds; s298 and s386-s526 take 3-7 s a job.  Each round also
#: runs two paper-default jobs (one chain, zero-delay power): s27, and s208 or
#: s298 in turn, so the width-1 zero-delay power path is timed and checked
#: against the reference.  A whole Table 1 job list spread too much across
#: seeds to be a workload of its own (perfbench/README.md, "Measured spread").
GLITCH_CIRCUITS = ("s208", "s344")
PAPER_CIRCUITS = ("s208", "s298")
PAPER_CONFIG = EstimationConfig()
GLITCH_CONFIG = EstimationConfig(power_simulator="event-driven")
GLITCH_WIDE_CONFIG = EstimationConfig(power_simulator="event-driven", num_chains=64)

SHARD_WORKERS = 2
SHARDED_CONFIG = EstimationConfig(num_chains=256, num_workers=SHARD_WORKERS)
#: One round: s5378 once, s1494 twice (an s5378 job takes ~4x longer).
SHARDED_ROUND = ("s5378", "s1494", "s1494")

SERVICE_CIRCUITS = ("s27", "s298")
SERVICE_CALLERS = 2
SERVICE_SERVER_WORKERS = 2


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_SECONDS[workload]))


def job_specs(workload: str, seed: int, seconds: int) -> list[JobSpec]:
    """The fixed job list of *workload* for one run."""
    if workload == "service":
        from repro.service.loadtest import make_small_specs

        count = max(SERVICE_CALLERS * 20, NOMINAL_SERVICE_JOBS_PER_SECOND * seconds)
        base_seed = derive_job_seeds(seed, 1)[0] % 2**31
        return make_small_specs(count, circuits=SERVICE_CIRCUITS, base_seed=base_seed)
    rounds = rounds_for(workload, seconds)
    plan: list[tuple[str, EstimationConfig]] = []
    for index in range(rounds):
        if workload == "glitch":
            plan += [("s27", GLITCH_CONFIG)] * 10 + [("s27", GLITCH_WIDE_CONFIG)]
            plan += [("s27", GLITCH_CONFIG)] * 10
            plan.append((GLITCH_CIRCUITS[index % len(GLITCH_CIRCUITS)], GLITCH_CONFIG))
            plan += [("s27", PAPER_CONFIG), (PAPER_CIRCUITS[index % len(PAPER_CIRCUITS)],
                                             PAPER_CONFIG)]
        elif workload == "sharded":
            plan += [(name, SHARDED_CONFIG) for name in SHARDED_ROUND]
        else:
            raise ValueError(f"unknown workload {workload!r}")
    seeds = derive_job_seeds(seed, len(plan))
    return [
        JobSpec(
            circuit=circuit,
            config=config,
            seed=job_seed,
            label=f"{workload}-{index:04d}-{circuit}-c{config.num_chains}-{config.power_simulator}",
        )
        for index, ((circuit, config), job_seed) in enumerate(zip(plan, seeds))
    ]


def distinct_setups(specs: list[JobSpec]) -> list[tuple[str, EstimationConfig]]:
    """(circuit, config) pairs a process must be ready for, pools excluded.

    Shard pools start per job by design, so set-up builds the same engines
    in-process (``num_workers=1``) instead.
    """
    seen: dict[str, tuple[str, EstimationConfig]] = {}
    for spec in specs:
        config = spec.config
        if config.num_workers > 1:
            config = replace(config, num_workers=1)
        key = json.dumps([spec.circuit, config.to_dict()], sort_keys=True)
        seen.setdefault(key, (spec.circuit, config))
    return list(seen.values())


def get_ready(specs: list[JobSpec]) -> dict[str, float]:
    """Build every circuit, program and engine the job list needs, and load the kernel.

    This is what a fresh process does before its first job: circuit builds,
    program lowering (a disk-cache hit once the cache is warm) and the
    native kernel load.  Returns the seconds each phase took.
    """
    from repro.circuits.iscas89 import build_circuit
    from repro.circuits.program import CircuitProgram
    from repro.simulation._native import native_kernel_available

    start = time.perf_counter()
    for circuit in dict.fromkeys(spec.circuit for spec in specs):
        CircuitProgram.of(build_circuit(circuit))
    circuits_done = time.perf_counter()
    for circuit, config in distinct_setups(specs):
        JobSpec(circuit=circuit, config=config, seed=0).build_estimator()
    engines_done = time.perf_counter()
    kernel = native_kernel_available()
    return {
        "circuits_s": circuits_done - start,
        "engines_s": engines_done - circuits_done,
        "kernel_s": time.perf_counter() - engines_done,
        "kernel_loaded": kernel,
    }


# --------------------------------------------------------------------- results
@dataclass
class JobOutcome:
    """One job of a timed pass: latency, digest of its result, and any failure."""

    name: str
    circuit: str
    latency_s: float
    digest: str | None = None
    error: str | None = None
    estimate: dict[str, Any] | None = None
    extra: dict[str, Any] = field(default_factory=dict)


def digest_of(estimate: dict[str, Any]) -> str:
    """Exact fingerprint of a result: estimate, sample size, interval, cycles."""
    key = [
        float(estimate["average_power_w"]).hex(),
        int(estimate["sample_size"]),
        int(estimate["independence_interval"]),
        int(estimate["cycles_simulated"]),
    ]
    return hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]


def run_inprocess(specs: list[JobSpec], tracer=None, first_index: int = 0) -> list[JobOutcome]:
    """Run *specs* one after another through ``run_job``, timing each call."""
    outcomes = []
    for index, spec in enumerate(specs, first_index):
        start = time.perf_counter()
        error = result = None
        span = tracer.begin_job(index) if tracer is not None else None
        try:
            result = run_job(spec)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if span is not None:
                tracer.end_job(span)
        latency = time.perf_counter() - start
        estimate = result.estimate.to_dict() if result is not None else None
        outcomes.append(
            JobOutcome(
                name=spec.name,
                circuit=spec.circuit,
                latency_s=latency,
                digest=digest_of(estimate) if estimate is not None else None,
                error=error,
                estimate=estimate,
            )
        )
    return outcomes


# --------------------------------------------------------------------- service
@dataclass
class Server:
    """A ``repro serve`` subprocess and how long it took to get ready."""

    process: subprocess.Popen
    url: str
    ready_s: float = 0.0

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (VmHWM), read before it stops."""
        try:
            status = Path(f"/proc/{self.process.pid}/status").read_text()
        except OSError:
            return 0.0
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        return int(match.group(1)) / 1024.0 if match else 0.0

    def stats(self) -> dict[str, Any]:
        from repro.service.client import ServiceClient

        with ServiceClient(self.url) as client:
            return client.stats()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_server(root: Path, store: Path, env: dict[str, str], log) -> Server:
    """Start ``repro serve``; ready once ``/health`` answers and each circuit ran once."""
    from repro.service.client import ServiceClient
    from repro.service.loadtest import SMALL_JOB_CONFIG

    start = time.perf_counter()
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", str(SERVICE_SERVER_WORKERS), "--store", str(store),
        ],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=log,
        text=True,
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"listening on (http://\S+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        server = Server(process, match.group(1))
        with ServiceClient(server.url, timeout=30.0) as client:
            client.health()
            for index, circuit in enumerate(SERVICE_CIRCUITS):
                warm = JobSpec(circuit=circuit, config=SMALL_JOB_CONFIG, seed=index,
                               label=f"warm-{circuit}")
                final = client.wait(client.submit(warm)["id"])
                if final["status"] != "completed":
                    raise RuntimeError(f"warm-up job on {circuit} ended {final['status']}")
    except BaseException:
        process.kill()
        process.wait(timeout=15)
        raise
    server.ready_s = time.perf_counter() - start
    return server


def run_service(url: str, specs: list[JobSpec], tracer=None) -> list[JobOutcome]:
    """Closed loop: each caller submits a job, follows its SSE stream to the end, repeats."""
    from repro.service.client import ServiceClient

    outcomes: list[JobOutcome | None] = [None] * len(specs)
    next_index = iter(range(len(specs)))
    take = threading.Lock()

    def caller() -> None:
        with ServiceClient(url) as client:
            while True:
                with take:
                    index = next(next_index, None)
                if index is None:
                    return
                outcomes[index] = _service_job(client, index, specs[index], tracer)

    threads = [threading.Thread(target=caller) for _ in range(SERVICE_CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def _service_job(client, index: int, spec: JobSpec, tracer) -> JobOutcome:
    from repro.service.client import ServiceClientError

    outcome = JobOutcome(name=spec.name, circuit=spec.circuit, latency_s=math.nan)
    span = tracer.begin_job(index, "service.job") if tracer is not None else None
    start = time.perf_counter()
    try:
        submit = tracer.span("service.submit") if tracer is not None else None
        try:
            job_id = client.submit(spec)["id"]
        except ServiceClientError as error:
            outcome.error = f"refused: {error}" if error.status == 429 else str(error)
            outcome.extra["rejected"] = error.status == 429
            return outcome
        finally:
            if submit is not None:
                tracer.close(submit)
        submitted = time.perf_counter()
        wait = tracer.span("service.wait") if tracer is not None else None
        try:
            envelopes = list(client.events(job_id))
        finally:
            if wait is not None:
                tracer.close(wait)
        seen_at = time.time()
        outcome.latency_s = time.perf_counter() - start
        outcome.extra.update(
            envelopes=envelopes, submit_s=submitted - start, seen_at=seen_at, job_id=job_id
        )
        terminal = envelopes[-1]["event"] if envelopes else {}
        if terminal.get("kind") != "job-completed":
            outcome.error = f"job ended with {terminal.get('kind')!r}: {terminal.get('error')}"
            return outcome
        outcome.extra["result"] = terminal["result"]
        outcome.estimate = terminal["result"]["data"]
        outcome.digest = digest_of(outcome.estimate)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        if span is not None:
            tracer.end_job(span)
    return outcome


def in_process_payload(spec: JobSpec) -> str:
    """What ``run_job`` returns for *spec* in this process, in canonical form."""
    from repro.service.loadtest import _canonical

    return _canonical(run_job(spec).to_dict()["result"])


def environment(root: Path, cache: Path) -> dict[str, str]:
    """Environment of the benchmark's child processes (server, probes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_PROGRAM_CACHE"] = str(cache)
    return env
