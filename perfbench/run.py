"""Run one DIPE benchmark workload and print its metrics.

    python3 perfbench/run.py --workload glitch --seed 1 --seconds 18 --trace 0

Workloads: glitch, sharded and service.  Run it from the root of a checkout.
Every job is checked, and the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it records the run's settings
and host.  The program cache, result digests, traces and run records live
under ``.perfbench/``; digests and references are kept per version of the
program (:func:`program_version`).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Seed of the long-simulation reference ("SIM" of Table 1); fixed so the
#: reference never depends on the workload seed it checks.
REFERENCE_SEED = 1997
SERVICE_VERIFY_EVERY = 4


def program_version() -> str:
    """Hash of the program's sources and of the job lists.

    Kept digests and references are filed under it, so a run never compares
    its results with those of another version of the program.
    """
    digest = hashlib.sha256()
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for path in sources + [ROOT / "perfbench" / "workloads.py"]:
        digest.update(f"{path.relative_to(ROOT)}\0".encode() + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def calibrate() -> float:
    """Median time of a fixed pure-Python loop: the host's speed, not the program's."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        value = 0
        for step in range(400_000):
            value = (value * 1103515245 + step) & 0xFFFFFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Checks:
    """Failures by job (counted against attempted) and for the run as a whole."""

    def __init__(self) -> None:
        self.jobs: dict[tuple[int, str], str] = {}
        self.run: list[str] = []
        self.spec_misses = 0

    def fail(self, job: tuple[int, str], reason: str) -> None:
        self.jobs.setdefault(job, reason)

    def messages(self) -> list[str]:
        return [f"{name} (pass {p}): {why}" for (p, name), why in self.jobs.items()] + self.run


# ------------------------------------------------------------------ set-up
def process_age() -> float | None:
    """Seconds since this process was created (Linux ``/proc``; ``None`` elsewhere)."""
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def probe_setup(args, env, log, count: int) -> list[dict]:
    """Time *count* fresh processes from spawn until ready for the workload's first job."""
    samples = []
    command = [
        sys.executable, str(ROOT / "perfbench" / "probe.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True
        ) as process:
            line = process.stdout.readline()
            ready = time.perf_counter() - start
            process.stdout.read()
            if process.wait(timeout=120) != 0 or not line.startswith("ready "):
                raise RuntimeError(f"set-up probe failed: {line!r}")
        samples.append(dict(json.loads(line[len("ready "):]), setup_s=ready))
    return samples


def reference_powers(circuits, version: str) -> dict[str, float]:
    """Long-simulation zero-delay reference power per circuit (outside every timed region).

    The reference is a pure function of the circuit and the program, so it is
    computed once per program version and kept under ``.perfbench``.
    """
    from repro.circuits.iscas89 import build_circuit
    from repro.power.reference import estimate_reference_power
    from repro.stimulus.random_inputs import BernoulliStimulus

    path = STATE / "references" / f"{version}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    powers = {}
    for name in dict.fromkeys(circuits):
        key = f"{name}@{REFERENCE_SEED}"
        if key not in known:
            circuit = build_circuit(name)
            known[key] = estimate_reference_power(
                circuit, BernoulliStimulus(circuit.num_inputs, 0.5), rng=REFERENCE_SEED
            ).average_power_w
        powers[name] = known[key]
    temp = path.with_suffix(f".tmp{os.getpid()}")
    temp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(temp, path)
    return powers


# --------------------------------------------------------------- workloads
def run_in_process(args, specs, wl, checks: Checks, log, env) -> dict:
    from repro.circuits.program import compile_count
    from repro.simulation._native import compiler_invocations
    from tracing import Tracer

    # This process is one set-up sample: created, imported, and now ready.
    ready = wl.get_ready(specs)
    age = process_age()
    setup = [dict(ready, setup_s=age)] if age is not None else []
    # Only zero-delay estimates are checked: the reference is zero-delay power.
    references = reference_powers(
        (s.circuit for s in specs if s.config.power_simulator == "zero-delay"), args.version
    )
    report: dict = {"kernel_loaded": ready["kernel_loaded"]}

    report["calib_before"] = calibrate()
    gc.collect()
    counts = compile_count(), compiler_invocations()
    start = time.perf_counter()
    if args.trace:
        tracer = report["tracer"] = Tracer()
        report["outcomes"], report["traced"] = interleaved_pass(specs, wl, tracer)
        report["trace_overhead"] = (
            sum(o.latency_s for o in report["traced"])
            / sum(o.latency_s for o in report["outcomes"]) - 1.0
        )
    else:
        report["outcomes"] = wl.run_inprocess(specs)
    report["wall_s"] = time.perf_counter() - start
    lowered, compiled = compile_count() - counts[0], compiler_invocations() - counts[1]
    if lowered or compiled:
        checks.run.append(f"timed pass lowered {lowered} programs, ran the compiler "
                          f"{compiled} times (both must be 0)")
    report["timed_lowerings"], report["timed_compiler_invocations"] = lowered, compiled
    # Peaks of the workload itself, before the checks and set-up probes run;
    # shard workers are the only children so far.
    report["self_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    report["children_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)

    for pass_index, outcomes in enumerate((report["outcomes"], report.get("traced", []))):
        accuracy_check(outcomes, specs, references, pass_index, checks)

    replay_check(args, specs, wl, report["outcomes"], checks)
    report["setup"] = setup + probe_setup(args, env, log, SETUP_SAMPLES - len(setup))
    return report


def interleaved_pass(specs, wl, tracer) -> tuple[list, list]:
    """Every job twice, plain and then traced, so host drift cancels out of the overhead."""
    plain, traced = [], []
    for index, spec in enumerate(specs):
        plain += wl.run_inprocess([spec], first_index=index)
        tracer.install()
        try:
            traced += wl.run_inprocess([spec], tracer, first_index=index)
        finally:
            tracer.uninstall()
    return plain, traced


def allowed_misses(jobs: int, miss_rate: float) -> int:
    """Most spec misses that *jobs* estimates at *miss_rate* give with probability >= 0.999."""
    tail, misses = 1.0, 0
    while True:
        tail -= math.comb(jobs, misses) * miss_rate**misses * (1 - miss_rate) ** (jobs - misses)
        if tail < 1e-3:
            return misses
        misses += 1


def accuracy_check(outcomes, specs, references, pass_index, checks: Checks) -> None:
    """Estimates against the reference, by the paper's spec: 5 % error at 0.99 confidence.

    The spec lets 1 % of estimates miss the 5 %, so a pass fails its misses
    only when there are more than a correct estimator gives with probability
    0.999, or when one misses by more than twice the spec.
    """
    misses, checked = [], 0
    for outcome, spec in zip(outcomes, specs):
        reference = references.get(outcome.circuit)
        if spec.config.power_simulator != "zero-delay" or not reference:
            continue
        checked += 1
        if outcome.estimate is None:
            continue
        error = abs(outcome.estimate["average_power_w"] / reference - 1.0)
        outcome.extra["rel_error"] = error
        limit = spec.config.max_relative_error
        if error > 2 * limit:
            checks.fail((pass_index, outcome.name), f"{error:.2%} off the reference")
        elif error > limit:
            misses.append((outcome, error))
    checks.spec_misses += len(misses)
    if misses and len(misses) > allowed_misses(checked, 1 - specs[0].config.confidence):
        for outcome, error in misses:
            checks.fail((pass_index, outcome.name), f"{error:.2%} off the reference "
                                                    f"({len(misses)} misses in the pass)")


def replay_check(args, specs, wl, outcomes, checks: Checks) -> None:
    """Re-run jobs untimed and compare digests: the first job, or for ``sharded``
    the cheapest job of each circuit with one worker (the in-process sampler)."""
    done = [(o, s) for o, s in zip(outcomes, specs) if o.digest is not None]
    if args.workload == "sharded":
        cheapest = {}
        for outcome, spec in sorted(done, key=lambda pair: pair[0].estimate["cycles_simulated"]):
            cheapest.setdefault(spec.circuit, (outcome, spec))
        chosen = [(o, replace(s, config=replace(s.config, num_workers=1)))
                  for o, s in cheapest.values()]
    else:
        chosen = done[:1]
    for outcome, spec in chosen:
        again = wl.run_inprocess([spec])[0]
        if again.digest != outcome.digest:
            checks.fail((0, outcome.name), f"replay with {spec.config.num_workers} worker(s) "
                                           f"gave {again.digest}, timed run {outcome.digest}")


def run_service(args, specs, wl, checks: Checks, log, env) -> dict:
    from repro.service.loadtest import _audit_event_log, _canonical
    from tracing import Tracer

    stores = STATE / "stores" / f"run-{os.getpid()}"
    report: dict = {"setup": []}
    server = None
    try:
        for index in range(SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server = wl.start_server(ROOT, stores / f"store-{index}", env, log)
            report["setup"].append({"setup_s": server.ready_s})
        report["calib_before"] = calibrate()
        gc.collect()
        start = time.perf_counter()
        report["outcomes"] = wl.run_service(server.url, specs)
        report["wall_s"] = time.perf_counter() - start
        report["self_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        if args.trace:
            tracer = Tracer()
            gc.collect()
            start = time.perf_counter()
            report["traced"] = wl.run_service(server.url, specs, tracer)
            report["trace_overhead"] = (time.perf_counter() - start) / report["wall_s"] - 1.0
            report["tracer"] = tracer
            report["snapshots"] = server_snapshots(server.url, report["traced"])
        report["server_stats"] = server.stats()
        report["children_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(stores, ignore_errors=True)

    from repro.simulation._native import native_kernel_available

    report["kernel_loaded"] = native_kernel_available()
    expected: dict[str, str] = {}
    for pass_index, outcomes in enumerate((report["outcomes"], report.get("traced", []))):
        for index, (spec, outcome) in enumerate(zip(specs, outcomes)):
            if outcome.error is not None:
                continue
            problems = _audit_event_log(outcome.extra["job_id"], outcome.extra["envelopes"])
            if problems:
                checks.fail((pass_index, outcome.name), "; ".join(problems))
            # In-process runs cost ~10 ms a job: compare every SERVICE_VERIFY_EVERY-th
            # job, a different share for each seed; digests cover every job.
            if (index - args.seed) % SERVICE_VERIFY_EVERY:
                continue
            if spec.name not in expected:
                expected[spec.name] = wl.in_process_payload(spec)
            if _canonical(outcome.extra["result"]) != expected[spec.name]:
                checks.fail((pass_index, outcome.name), "result differs from in-process run_job")
    return report


def server_snapshots(url, outcomes) -> list[dict]:
    """The server's own timestamps of each traced job (fetched after the pass)."""
    from repro.service.client import ServiceClient

    with ServiceClient(url) as client:
        return [client.job(o.extra["job_id"]) if "job_id" in o.extra else {} for o in outcomes]


# ----------------------------------------------------------------- metrics
def latency_summary(outcomes) -> dict:
    """Median and the highest percentile with at least ten jobs beyond it.

    A failed job counts as infinitely slow.
    """
    latencies = sorted(
        o.latency_s if o.error is None else float("inf") for o in outcomes
    )
    count = len(latencies)
    summary = {"jobs": count, "p50_ms": 1e3 * statistics.median(latencies)}
    if count > 20:
        summary["tail_percentile"] = 100.0 * (count - 10) / count
        summary["tail_ms"] = 1e3 * latencies[count - 11]
    return summary


def end_to_end(report, latency) -> dict:
    completed = sum(o.error is None for o in report["outcomes"])
    return {
        "wall_s": report["wall_s"],
        "jobs_per_s": completed / report["wall_s"],
        "job_latency_p50_ms": latency["p50_ms"],
        "setup_s": median(s["setup_s"] for s in report["setup"]),
        "peak_rss_mb": report["self_rss_mb"] + report["children_rss_mb"],
    }


def per_layer(args, specs, report, calib) -> dict:
    from tracing import SpanTable

    table = SpanTable(report["tracer"])
    traced = report["traced"]
    estimates = [(o.estimate, s) for o, s in zip(traced, specs) if o.estimate is not None]
    chain_cycles = sum(e["cycles_simulated"] * s.config.num_chains for e, s in estimates)
    sampler_s = sum(table.total(n) for n in ("sampler.warmup", "sampler.collect", "sampler.draw"))
    ed = {
        width: (table.count(f"simulation.ed_measure.w{width}"),
                table.self_total(f"simulation.ed_measure.w{width}"))
        for width in (1, 64)
    }
    zero_delay = ("simulation.zd_step", "simulation.zd_settle", "simulation.zd_measure")
    counts = report["tracer"].counts
    metrics = {
        "api.build_s": table.self_total("api.build"),
        "api.jobs": table.count("api.run_job"),
        "circuits.lower_s": median(s.get("circuits_s", 0.0) for s in report["setup"]),
        "circuits.lowerings": report.get("timed_lowerings", 0),
        "dipe.self_s": table.self_total("dipe.run"),
        "dipe.samples": sum(e["sample_size"] for e, _ in estimates),
        "dipe.cycles": sum(e["cycles_simulated"] for e, _ in estimates),
        "dipe.rel_error_max": max((o.extra.get("rel_error", 0.0) for o in traced), default=0.0),
        "interval.s": table.total("interval.select"),
        "interval.self_s": table.self_total("interval.select"),
        "interval.trials": table.count("stats.runs_test"),
        "sampler.warmup_s": table.total("sampler.warmup"),
        "sampler.collect_s": table.total("sampler.collect"),
        "sampler.draw_s": table.total("sampler.draw"),
        "sampler.chain_cycles_per_s": chain_cycles / sampler_s if sampler_s else 0.0,
        "stimulus.s": table.total("stimulus", outermost=True),
        "stimulus.calls": table.count("stimulus", outermost=True),
        "simulation.zd_s": table.total(zero_delay, outermost=True),
        "simulation.zd_steps": table.count(("simulation.zd_step", "simulation.zd_measure")),
        "simulation.zd_measure_s": table.total("simulation.zd_measure"),
        "simulation.ed_measure_s": table.self_total("simulation.ed_measure"),
        "simulation.ed_measures": table.count("simulation.ed_measure"),
        "simulation.ed_w1_cycles_per_s": ed[1][0] / ed[1][1] if ed[1][1] else 0.0,
        "simulation.ed_w64_cycles_per_s": 64 * ed[64][0] / ed[64][1] if ed[64][1] else 0.0,
        "simulation.compiler_invocations": report.get("timed_compiler_invocations", 0),
        "stats.runs_test_s": table.total("stats.runs_test"),
        "stats.runs_tests": table.count("stats.runs_test"),
        "stats.stop_check_s": table.total("stats.stop_check", outermost=True),
        "stats.stop_checks": table.count("stats.stop_check", outermost=True),
        "shard.spawn_s": table.total("shard.spawn"),
        "shard.round_s": table.total("shard.round"),
        "shard.rounds": table.count("shard.round"),
        "shard.close_s": table.total("shard.close"),
        "shard.workers_lost": counts["shard.incident.lost"],
        "shard.workers_recovered": counts["shard.incident.recovered"],
    }
    metrics.update(service_layer(report))
    metrics["host.calib_s"] = (calib[0] + calib[1]) / 2.0
    metrics["trace.overhead"] = report["trace_overhead"]
    job_span = "service.job" if args.workload == "service" else "api.run_job"
    metrics["trace.coverage"] = table.coverage(job_span)
    return metrics


def service_layer(report) -> dict:
    snapshots = report.get("snapshots")
    if not snapshots:
        return dict.fromkeys(
            ("service.submit_ms", "service.queue_wait_ms", "service.run_ms",
             "service.estimator_ms", "service.overhead_ms", "service.notify_ms",
             "service.events_per_job", "service.rejected", "service.programs_lowered"), 0)
    rows = []
    for outcome, snap in zip(report["traced"], snapshots):
        if outcome.error is not None or not snap.get("finished_at"):
            continue
        run = snap["finished_at"] - snap["started_at"]
        estimator = outcome.estimate["elapsed_seconds"]
        rows.append({
            "submit": outcome.extra["submit_s"],
            "queue": snap["started_at"] - snap["submitted_at"],
            "run": run,
            "estimator": estimator,
            "overhead": run - estimator,
            "notify": outcome.extra["seen_at"] - snap["finished_at"],
            "events": len(outcome.extra["envelopes"]),
        })
    outcomes = report["outcomes"] + report["traced"]
    return {
        "service.submit_ms": 1e3 * median(r["submit"] for r in rows),
        "service.queue_wait_ms": 1e3 * median(r["queue"] for r in rows),
        "service.run_ms": 1e3 * median(r["run"] for r in rows),
        "service.estimator_ms": 1e3 * median(r["estimator"] for r in rows),
        "service.overhead_ms": 1e3 * median(r["overhead"] for r in rows),
        "service.notify_ms": 1e3 * median(r["notify"] for r in rows),
        "service.events_per_job": statistics.mean(r["events"] for r in rows) if rows else 0.0,
        "service.rejected": sum(bool(o.extra.get("rejected")) for o in outcomes),
        "service.programs_lowered": report["server_stats"].get("programs_lowered", 0),
    }


def work_done(outcomes, specs) -> dict:
    """Exact work of a pass, which tells a heavy seed from a slow host."""
    done = [(o.estimate, s.config.num_chains) for o, s in zip(outcomes, specs) if o.estimate]
    return {
        "samples": sum(e["sample_size"] for e, _ in done),
        "cycles": sum(e["cycles_simulated"] for e, _ in done),
        "chain_cycles": sum(e["cycles_simulated"] * chains for e, chains in done),
    }


# -------------------------------------------------------------------- main
def digest_check(args, outcomes, checks: Checks) -> None:
    """Every job's digest must repeat exactly in any later run at the same seed."""
    name = f"{args.workload}-n{args.seconds}-seed{args.seed}.json"
    path = STATE / "digests" / args.version / name
    current = {o.name: o.digest for o in outcomes if o.digest is not None}
    if path.exists():
        for name, digest in json.loads(path.read_text()).items():
            if name in current and current[name] != digest:
                checks.fail((0, name), f"digest {current[name]} differs from earlier {digest}")
    elif len(current) == len(outcomes):
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(f".tmp{os.getpid()}")
        temp.write_text(json.dumps(current, indent=1, sort_keys=True))
        os.replace(temp, path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("glitch", "sharded", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    cache = STATE / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_PROGRAM_CACHE"] = str(cache)
    for name in ("REPRO_FAULTS", "REPRO_SHARD_HOSTS", "REPRO_SHARD_START_METHOD"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    args.version = program_version()
    import numpy

    import workloads as wl

    env = wl.environment(ROOT, cache)
    specs = wl.job_specs(args.workload, args.seed, args.seconds)
    checks = Checks()
    log_path = STATE / "logs" / f"{args.workload}-{os.getpid()}.log"
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        runner = run_service if args.workload == "service" else run_in_process
        report = runner(args, specs, wl, checks, log, env)
    if log_path.stat().st_size == 0:
        log_path.unlink()
    calib_before, calib_after = report["calib_before"], calibrate()

    for pass_index, outcomes in enumerate((report["outcomes"], report.get("traced", []))):
        for outcome in outcomes:
            if outcome.error is not None:
                checks.fail((pass_index, outcome.name), outcome.error)
            elif args.workload != "service" and not outcome.estimate["accuracy_met"]:
                # Service jobs cap their samples (SMALL_JOB_CONFIG) on purpose.
                checks.fail((pass_index, outcome.name), "stopped without meeting the accuracy")
    if "traced" in report:
        for plain, traced in zip(report["outcomes"], report["traced"]):
            if traced.digest != plain.digest:
                checks.fail((1, traced.name), "traced result differs from the untraced one")
    digest_check(args, report["outcomes"], checks)

    latency = latency_summary(report["outcomes"])
    if args.trace:
        metrics = per_layer(args, specs, report, (calib_before, calib_after))
        kind = "per_layer"
    else:
        metrics = end_to_end(report, latency)
        kind = "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[kind]}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} "
                         f"disagree with BENCHMARK.json")

    callers = wl.SERVICE_CALLERS if args.workload == "service" else 1
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "program_version": args.version,
        "trace": args.trace, "jobs": len(specs), "nproc": os.cpu_count(),
        "client_threads": callers, "connections": callers,
        "server_workers": wl.SERVICE_SERVER_WORKERS if args.workload == "service" else 0,
        "shard_workers": wl.SHARD_WORKERS if args.workload == "sharded" else 0,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "native_kernel": report["kernel_loaded"],
        "host.calib_s": {"before": calib_before, "after": calib_after},
        "job_latency_tail": {"ms": latency.get("tail_ms"), "unit": "ms",
                             "percentile": latency.get("tail_percentile"),
                             "jobs": latency["jobs"]},
        "setup": report["setup"],
        "work": work_done(report["outcomes"], specs),
        "rss_mb": {"self": report["self_rss_mb"], "largest_child": report["children_rss_mb"]},
        "accuracy_spec_misses": checks.spec_misses,
        "failures": checks.messages()[:20],
    }
    if "tracer" in report:
        trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        report["tracer"].write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT)) + ".npz"
        info["trace_skipped"] = report["tracer"].skipped
    attempted = len(report["outcomes"]) + len(report.get("traced", []))
    result = {
        "correct": not checks.jobs and not checks.run,
        "attempted": attempted,
        "failed": len(checks.jobs),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = STATE / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    )
    record.parent.mkdir(parents=True, exist_ok=True)
    jobs = [
        [o.name, o.latency_s, o.estimate["cycles_simulated"] if o.estimate else None]
        for o in report["outcomes"]
    ]
    record.write_text(json.dumps({"info": info, "result": result, "jobs": jobs}))
    for name in units:
        print(f"{name:34s} {metrics[name]:>14.6g} {units[name]}")
    if "tail_ms" in latency:
        # Reported, not bounded: over tens of DIPE jobs its spread across
        # seeds reached 0.24-0.43 (perfbench/README.md, "Measured spread").
        print(f"{'job_latency_tail_ms':34s} {latency['tail_ms']:>14.6g} ms "
              f"(p{latency['tail_percentile']:.1f} of {latency['jobs']} jobs, not bounded)")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
