"""Command-line interface for the DIPE reproduction.

The CLI is a thin veneer over the job-oriented API in :mod:`repro.api` —
every estimation verb builds a serializable :class:`~repro.api.JobSpec` and
executes it through :func:`~repro.api.run_job`:

* ``repro circuits`` — list the registered benchmark circuits and sizes.
* ``repro compile s5378`` — lower one circuit to its cached
  :class:`~repro.circuits.program.CircuitProgram` and print the program
  statistics (gates per level, cache key, delay-model tick schedules).
* ``repro estimate s298`` — run a registered estimator (DIPE by default) on
  one circuit, either a registered benchmark or a ``.bench`` file, with
  optional streaming progress (``--progress``).
* ``repro batch jobs.json --workers N`` — fan a JSON list of job specs
  across worker processes and write a results manifest.  Exits nonzero when
  any job in the batch errored (the manifest still records every job).
* ``repro serve --store runs/`` — run the estimation service: an HTTP server
  accepting JobSpec submissions, streaming progress over SSE, persisting
  results and checkpoints (see ``docs/service.md``).
* ``repro submit s298 --watch`` / ``repro watch <job-id>`` / ``repro jobs``
  — the matching client verbs: submit a spec to a running server, follow a
  job's event stream, list the server's jobs.
* ``repro shard-worker --connect HOST:PORT`` — join a distributed estimation
  run (one started with ``--shard-hosts``) as a remote TCP shard worker and
  serve sampling commands until released (see ``docs/distributed.md``).
* ``repro table1`` / ``table2`` / ``figure3`` — regenerate the paper's
  tables and figure with configurable budgets (``--workers`` shards the
  estimation jobs; results are identical for any worker count).

Every verb accepts ``--seed`` for reproducibility and ``--json`` for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

import numpy as np

from repro.api.batch import BatchRunner, load_jobs
from repro.api.jobs import JobSpec, StimulusSpec, run_job
from repro.api.registry import (
    DELAY_MODEL_REGISTRY,
    ESTIMATOR_REGISTRY,
    SIMULATOR_REGISTRY,
    STIMULUS_REGISTRY,
    STOPPING_CRITERION_REGISTRY,
)
from repro.circuits.iscas89 import (
    SMALL_CIRCUIT_NAMES,
    TABLE_CIRCUIT_NAMES,
    circuit_summary,
    list_circuits,
)
from repro.core.config import SIMULATION_BACKENDS, EstimationConfig
from repro.experiments.figure3 import format_figure3, run_figure3
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.power.reference import estimate_reference_power
from repro.utils.tables import TextTable


def _estimation_config(args: argparse.Namespace, num_workers: int = 1) -> EstimationConfig:
    return EstimationConfig(
        significance_level=args.alpha,
        max_relative_error=args.max_error,
        confidence=args.confidence,
        stopping_criterion=args.stopping,
        power_simulator=args.power_simulator,
        delay_model=args.delay_model,
        num_chains=args.chains,
        adaptive_chains=args.adaptive_chains,
        max_chains=args.max_chains,
        num_workers=num_workers,
        worker_hosts=getattr(args, "shard_hosts", None),
        worker_auth_token=getattr(args, "shard_token", None) or "",
        simulation_backend=args.backend,
    )


#: Registered stimulus kinds whose factory takes a ``probability`` keyword —
#: for these, ``--input-probability`` is forwarded into the spec's params.
_PROBABILITY_STIMULI = ("antithetic", "stratified", "sobol", "lag-one-markov")


def _stimulus_spec(args: argparse.Namespace) -> StimulusSpec:
    kind = getattr(args, "stimulus", "bernoulli")
    if kind == "bernoulli":
        return StimulusSpec.bernoulli(args.input_probability)
    if kind in _PROBABILITY_STIMULI:
        return StimulusSpec(kind=kind, params={"probability": args.input_probability})
    return StimulusSpec(kind=kind)


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.20,
                        help="runs-test significance level (paper: 0.20)")
    parser.add_argument("--max-error", type=float, default=0.05,
                        help="maximum relative error of the estimate (paper: 0.05)")
    parser.add_argument("--confidence", type=float, default=0.99,
                        help="confidence of the estimate (paper: 0.99)")
    parser.add_argument("--stopping", choices=STOPPING_CRITERION_REGISTRY,
                        default="order-statistic", help="stopping criterion")
    parser.add_argument("--power-simulator", choices=SIMULATOR_REGISTRY,
                        default="zero-delay",
                        help="power engine for the sampled cycles "
                             "(any registered simulator name)")
    parser.add_argument("--delay-model", choices=DELAY_MODEL_REGISTRY,
                        default="fanout",
                        help="gate delay model of the event-driven power engine "
                             "(ignored by zero-delay)")
    parser.add_argument("--chains", type=int, default=1,
                        help="independent Monte Carlo chains advanced per gate sweep "
                             "(>1 uses the vectorized multi-chain sampler; composes "
                             "with either power simulator)")
    parser.add_argument("--adaptive-chains", action="store_true",
                        help="let the sampler grow/shrink the chain ensemble between "
                             "batches from the stopping criterion's running accuracy")
    parser.add_argument("--max-chains", type=int, default=1024,
                        help="chain-count ceiling for --adaptive-chains")
    parser.add_argument("--backend", choices=SIMULATION_BACKENDS, default="auto",
                        help="zero-delay simulator backend (auto picks numpy whenever "
                             "the native kernel loads, bigint for narrow ensembles "
                             "without it)")
    parser.add_argument("--stimulus", choices=STIMULUS_REGISTRY,
                        default="bernoulli",
                        help="input-pattern generator (any registered stimulus "
                             "name; the variance-reduction stimuli antithetic/"
                             "stratified/sobol need --chains > 1 to couple lanes)")
    parser.add_argument("--input-probability", type=float, default=0.5,
                        help="probability of 1 at every primary input (paper: 0.5); "
                             "forwarded to stimuli that accept a probability")
    parser.add_argument("--seed", type=int, default=2025, help="random seed")


def _add_shard_host_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shard-hosts", default=None, metavar="HOST:PORT",
                        help="listen address for remote TCP shard workers; the run "
                             "coordinates 'repro shard-worker --connect' processes "
                             "instead of spawning local ones (env: REPRO_SHARD_HOSTS; "
                             "results are identical for any topology)")
    parser.add_argument("--shard-token", default=None,
                        help="shared secret remote shard workers must present "
                             "(env: REPRO_SHARD_TOKEN)")


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _print_progress_event(event) -> None:
    print(json.dumps(event.to_dict()), file=sys.stderr)


# --------------------------------------------------------------------- verbs
def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.api.jobs import resolve_circuit
    from repro.circuits.program import CircuitProgram, program_cache_dir

    try:
        circuit = resolve_circuit(args.circuit)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    program = CircuitProgram.of(circuit)
    if args.optimize:
        original_gates = program.circuit.num_gates
        original_nets = program.circuit.num_nets
        program = program.optimize()

    stats = program.stats()
    schedules = {}
    for name in args.delay_models:
        schedule = program.delay_schedule(name)
        ticks = schedule.ticks
        schedules[name] = {
            "tick": schedule.tick,
            "min_ticks": int(ticks.min()) if ticks.size else 0,
            "max_ticks": int(ticks.max()) if ticks.size else 0,
            "zero_tick_gates": int((ticks == 0).sum()),
            "distinct_ticks": int(np.unique(ticks).size) if ticks.size else 0,
        }
    cache_dir = program_cache_dir()
    payload = {
        **stats,
        "delay_models": schedules,
        "cache_dir": str(cache_dir) if cache_dir is not None else None,
    }
    if args.optimize:
        payload["optimized"] = {
            "gates_removed": original_gates - program.circuit.num_gates,
            "nets_removed": original_nets - program.circuit.num_nets,
        }
    if args.json:
        _print_json(payload)
        return 0

    print(f"circuit      : {stats['circuit']}")
    print(f"cache key    : {stats['key']}")
    print(f"cache dir    : {payload['cache_dir'] or '(disabled; set REPRO_PROGRAM_CACHE)'}")
    print(f"nets / gates : {stats['nets']} / {stats['gates']} "
          f"({stats['const_gates']} const)")
    print(f"inputs/outputs/latches : {stats['inputs']} / {stats['outputs']} "
          f"/ {stats['latches']}")
    print(f"max fan-in   : {stats['max_arity']}")
    if args.optimize:
        print(f"optimized    : -{payload['optimized']['gates_removed']} gates, "
              f"-{payload['optimized']['nets_removed']} nets")
    per_level = stats["gates_per_level"]
    print(f"logic levels : {stats['levels']}")
    width = max(per_level) if per_level else 1
    for level, count in enumerate(per_level, start=1):
        bar = "#" * max(1, round(40 * count / width)) if count else ""
        print(f"  level {level:>3} : {count:>5} {bar}")
    table = TextTable(
        headers=["Delay model", "Tick (t.u.)", "Ticks min..max", "Zero-tick", "Distinct"],
        precision=6,
    )
    for name, info in schedules.items():
        table.add_row(
            [name, info["tick"], f"{info['min_ticks']}..{info['max_ticks']}",
             info["zero_tick_gates"], info["distinct_ticks"]]
        )
    print("\nQuantized delay schedules:")
    print(table.render())
    return 0


def _cmd_circuits(args: argparse.Namespace) -> int:
    summaries = [dict(circuit_summary(name), circuit=name) for name in list_circuits()]
    if args.json:
        _print_json(summaries)
        return 0
    table = TextTable(headers=["Circuit", "Inputs", "Outputs", "Latches", "Gates", "Nets"])
    for summary in summaries:
        table.add_row(
            [summary["circuit"], summary["inputs"], summary["outputs"], summary["latches"],
             summary["gates"], summary["nets"]]
        )
    print(table.render())
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if not isinstance(args.params, dict):
        raise SystemExit("--params must be a JSON object, e.g. '{\"warmup_period\": 12}'")
    spec = JobSpec(
        circuit=args.circuit,
        estimator=args.estimator,
        stimulus=_stimulus_spec(args),
        config=_estimation_config(args, num_workers=args.workers),
        seed=args.seed,
        params=args.params,
    )
    progress = _print_progress_event if args.progress else None
    try:
        result = run_job(spec, progress=progress)
    except ValueError as error:
        raise SystemExit(str(error)) from None
    if not result.ok or not hasattr(result.result, "average_power_mw"):
        # Estimator kinds with non-PowerEstimate payloads (e.g. the
        # figure3-profile sweep) have no tabular text form here; emit the
        # serialized job result instead.
        _print_json(result.to_dict())
        return 0 if result.ok else 1
    estimate = result.estimate

    reference = None
    if args.reference_cycles > 0:
        from repro.api.jobs import resolve_circuit
        from repro.stimulus.random_inputs import BernoulliStimulus

        circuit = resolve_circuit(args.circuit)
        reference = estimate_reference_power(
            circuit,
            BernoulliStimulus(circuit.num_inputs, args.input_probability),
            total_cycles=args.reference_cycles,
            rng=args.seed + 1,
        )

    if args.json:
        payload = result.to_dict()
        if reference is not None:
            payload["reference"] = {
                "average_power_w": reference.average_power_w,
                "total_cycles": reference.total_cycles,
                "relative_error": estimate.relative_error_to(reference.average_power_w),
            }
        _print_json(payload)
        return 0

    config = spec.config
    print(f"circuit               : {estimate.circuit_name}")
    print(f"estimator             : {spec.estimator}")
    print(f"chains / backend      : {config.num_chains} / {config.simulation_backend}")
    if config.num_workers > 1:
        print(f"shard workers         : {config.num_workers}")
    print(f"average power         : {estimate.average_power_mw:.4f} mW")
    print(f"confidence interval   : [{estimate.lower_bound_w * 1e3:.4f}, "
          f"{estimate.upper_bound_w * 1e3:.4f}] mW")
    print(f"independence interval : {estimate.independence_interval} cycles")
    print(f"sample size           : {estimate.sample_size}")
    print(f"cycles simulated      : {estimate.cycles_simulated}")
    print(f"accuracy met          : {estimate.accuracy_met}")
    if reference is not None:
        error = estimate.relative_error_to(reference.average_power_w)
        print(f"reference power       : {reference.average_power_mw:.4f} mW "
              f"({reference.total_cycles} cycles)")
        print(f"relative error        : {100 * error:.2f} %")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    try:
        specs = load_jobs(args.jobs_file)
    except (OSError, ValueError, KeyError) as error:
        raise SystemExit(f"cannot load jobs from {args.jobs_file!r}: {error}") from None
    if not specs:
        raise SystemExit(f"jobs file {args.jobs_file!r} contains no jobs")

    result = BatchRunner(workers=args.workers).run(specs)
    output = args.output or "batch_results.json"
    try:
        result.write_manifest(output)
    except OSError as error:
        raise SystemExit(f"cannot write manifest to {output!r}: {error}") from None

    if args.json:
        _print_json(result.to_dict())
    else:
        table = TextTable(
            headers=["Job", "Circuit", "Status", "Power (mW)", "Samples", "I.I."], precision=4
        )
        for job in result.results:
            estimate = job.result if job.ok else None
            power = getattr(estimate, "average_power_mw", None)
            table.add_row(
                [
                    job.spec.name,
                    job.spec.circuit,
                    job.status,
                    power if power is not None else "-",
                    getattr(estimate, "sample_size", "-"),
                    getattr(estimate, "independence_interval", "-"),
                ]
            )
        print(table.render())
        print(f"\n{len(result.results)} jobs, {result.num_errors} errors; "
              f"manifest written to {output}")
        for job in result.results:
            if not job.ok:
                print(f"  FAILED {job.spec.name}: {job.error}")
    return 0 if result.all_ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.core import EstimationService
    from repro.service.server import ServiceServer

    try:
        service = EstimationService(
            store=args.store,
            num_workers=args.workers,
            max_pending=args.max_pending,
            max_retries=args.max_retries,
            auto_checkpoint_events=args.auto_checkpoint_events,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot start service: {error}") from None

    async def _serve() -> None:
        server = ServiceServer(service, host=args.host, port=args.port)
        await server.start()
        host, port = server.address
        jobs = len(service.jobs())
        print(f"estimation service listening on http://{host}:{port} "
              f"({args.workers} workers, {jobs} jobs rehydrated, "
              f"store: {args.store or 'in-memory'})")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down")
    except OSError as error:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {error}") from None
    return 0


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.core.transport import parse_address, run_shard_worker
    from repro.faults import schedule_from_env

    try:
        parse_address(args.connect)
    except ValueError as error:
        raise SystemExit(f"invalid --connect address: {error}") from None
    try:
        schedule = schedule_from_env()
    except ValueError as error:
        raise SystemExit(str(error)) from None
    summary = run_shard_worker(
        args.connect,
        args.token,
        worker_id=args.worker_id,
        fault_schedule=schedule,
        heartbeat_interval=args.heartbeat_interval,
        max_reconnects=args.max_reconnects,
        reconnect_backoff=args.reconnect_backoff,
    )
    if args.json:
        _print_json(summary)
    else:
        print(f"worker {summary['worker']} done: {summary['sessions']} sessions, "
              f"{summary['assignments']} assignments, {summary['handled']} commands handled, "
              f"{summary['fenced']} fenced rejects")
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url)


def _service_call(call):
    """Run one client call, mapping connection/HTTP errors to clean exits."""
    from repro.service.client import ServiceClientError

    try:
        return call()
    except ServiceClientError as error:
        raise SystemExit(str(error)) from None
    except (ConnectionError, OSError) as error:
        raise SystemExit(f"cannot reach the estimation service: {error}") from None


def _cmd_submit(args: argparse.Namespace) -> int:
    if not isinstance(args.params, dict):
        raise SystemExit("--params must be a JSON object, e.g. '{\"warmup_period\": 12}'")
    spec = JobSpec(
        circuit=args.circuit,
        estimator=args.estimator,
        stimulus=_stimulus_spec(args),
        config=_estimation_config(args),
        seed=args.seed,
        params=args.params,
        label=args.label,
    )
    client = _service_client(args)
    payload: Any = spec.to_dict()
    if args.max_retries is not None:
        payload = {"spec": payload, "max_retries": args.max_retries}
    snapshot = _service_call(lambda: client.submit(payload))
    job_id = snapshot["id"]
    if not args.watch:
        if args.json:
            _print_json(snapshot)
        else:
            print(f"submitted {job_id} ({snapshot['name']}): {snapshot['status']}")
        return 0
    stream = client.events(job_id)
    while True:
        envelope = _service_call(lambda: next(stream, None))
        if envelope is None:
            break
        print(json.dumps(envelope), file=sys.stderr)
    final = _service_call(lambda: client.job(job_id))
    if args.json:
        _print_json(final)
    else:
        print(f"{job_id} ({final['name']}): {final['status']}")
        if final.get("error"):
            print(f"  error: {final['error']}")
    return 0 if final["status"] == "completed" else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    client = _service_client(args)
    terminal_kind = None
    stream = _service_call(lambda: client.events(args.job_id, from_seq=args.from_seq))
    while True:
        envelope = _service_call(lambda: next(stream, None))
        if envelope is None:
            break
        print(json.dumps(envelope))
        terminal_kind = envelope["event"]["kind"]
    return 0 if terminal_kind in (None, "job-completed") else 1


def _cmd_jobs(args: argparse.Namespace) -> int:
    client = _service_client(args)
    if args.stats:
        stats = _service_call(client.stats)
        if args.json:
            _print_json(stats)
        else:
            for key, value in sorted(stats.items()):
                print(f"{key:>20} : {value}")
        return 0
    jobs = _service_call(client.jobs)
    if args.json:
        _print_json(jobs)
        return 0
    table = TextTable(
        headers=["Job", "Name", "Status", "Samples", "Events", "Ckpt"], precision=4
    )
    for job in jobs:
        table.add_row(
            [job["id"], job["name"], job["status"], job["samples_drawn"],
             job["num_events"], "yes" if job["checkpoint_available"] else "-"]
        )
    print(table.render())
    print(f"\n{len(jobs)} jobs")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    names = (
        TABLE_CIRCUIT_NAMES if args.all_circuits else tuple(args.circuits) or SMALL_CIRCUIT_NAMES
    )
    result = run_table1(
        circuit_names=names,
        config=_estimation_config(args),
        reference_cycles=args.reference_cycles,
        seed=args.seed,
        input_probability=args.input_probability,
        workers=args.workers,
    )
    if args.json:
        _print_json(result.to_dict())
    else:
        print(format_table1(result))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    names = (
        TABLE_CIRCUIT_NAMES if args.all_circuits else tuple(args.circuits) or SMALL_CIRCUIT_NAMES
    )
    result = run_table2(
        circuit_names=names,
        runs_per_circuit=args.runs,
        config=_estimation_config(args),
        reference_cycles=args.reference_cycles,
        seed=args.seed,
        input_probability=args.input_probability,
        workers=args.workers,
    )
    if args.json:
        _print_json(result.to_dict())
    else:
        print(format_table2(result))
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    result = run_figure3(
        circuit_name=args.circuit,
        max_interval=args.max_interval,
        sequence_length=args.sequence_length,
        significance_level=args.alpha,
        seed=args.seed,
        input_probability=args.input_probability,
    )
    if args.json:
        _print_json(result.to_dict())
    else:
        print(format_figure3(result))
    return 0


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-dipe",
        description="DIPE: statistical average-power estimation for sequential circuits (DAC 1997)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    circuits = subparsers.add_parser("circuits", help="list the registered benchmark circuits")
    _add_json_argument(circuits)
    circuits.set_defaults(handler=_cmd_circuits)

    compile_verb = subparsers.add_parser(
        "compile",
        help="lower one circuit to its cached CircuitProgram and print program stats",
    )
    compile_verb.add_argument("circuit", help="benchmark name or path to a .bench file")
    compile_verb.add_argument(
        "--delay-models", nargs="*", choices=DELAY_MODEL_REGISTRY,
        default=["zero", "unit", "fanout", "type-table"],
        help="delay models to quantize and report (default: the built-ins)")
    compile_verb.add_argument(
        "--optimize", action="store_true",
        help="apply the optional program optimization passes "
             "(dead-net sweep + buffer/inverter collapse) before reporting")
    _add_json_argument(compile_verb)
    compile_verb.set_defaults(handler=_cmd_compile)

    estimate = subparsers.add_parser("estimate", help="estimate one circuit's average power")
    estimate.add_argument("circuit", help="benchmark name or path to a .bench file")
    estimate.add_argument("--estimator", choices=ESTIMATOR_REGISTRY, default="dipe",
                          help="registered estimator kind (default: dipe)")
    estimate.add_argument("--params", type=json.loads, default={},
                          help="extra estimator parameters as a JSON object "
                               "(e.g. '{\"warmup_period\": 12}' for fixed-warmup)")
    estimate.add_argument("--reference-cycles", type=int, default=0,
                          help="also run a reference simulation of this many cycles (0 = skip)")
    estimate.add_argument("--progress", action="store_true",
                          help="stream JSON progress events to stderr while running")
    estimate.add_argument("--workers", type=int, default=1,
                          help="worker processes the chain ensemble is sharded across "
                               "(results are identical for any count; composes with "
                               "'repro batch --workers', which parallelises whole jobs)")
    _add_shard_host_arguments(estimate)
    _add_config_arguments(estimate)
    _add_json_argument(estimate)
    estimate.set_defaults(handler=_cmd_estimate)

    batch = subparsers.add_parser(
        "batch",
        help="run a JSON list of job specs, optionally across worker processes",
        description="Run every job in a JSON jobs file and write a results manifest. "
                    "Exits 0 only when all jobs succeeded; any errored job makes the "
                    "exit code 1 (the manifest still records all jobs, including "
                    "failures and their error messages).",
    )
    batch.add_argument("jobs_file",
                       help="JSON file: a list of JobSpec dicts or {'jobs': [...]}")
    batch.add_argument("--workers", type=int, default=1,
                       help="worker processes (results are identical for any count)")
    batch.add_argument("--output", default=None,
                       help="results manifest path (default: batch_results.json)")
    _add_json_argument(batch)
    batch.set_defaults(handler=_cmd_batch)

    serve = subparsers.add_parser(
        "serve",
        help="run the estimation service (HTTP + SSE job server)",
        description="Long-running job server: POST JobSpecs to /jobs, stream "
                    "progress from /jobs/{id}/events, cancel with DELETE. "
                    "See docs/service.md for the endpoint reference.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8642, help="bind port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2,
                       help="persistent estimation worker threads")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="queued-job bound; submissions beyond it get HTTP 429")
    serve.add_argument("--max-retries", type=int, default=0,
                       help="default per-job retry budget for failed attempts "
                            "(jobs resume from their auto-snapshot checkpoint)")
    serve.add_argument("--auto-checkpoint-events", type=int, default=32,
                       help="snapshot a resumable checkpoint every N estimator "
                            "events while a job runs")
    serve.add_argument("--store", default=None,
                       help="result-store directory (results/checkpoints survive "
                            "restarts; omit for in-memory only)")
    serve.set_defaults(handler=_cmd_serve)

    shard_worker = subparsers.add_parser(
        "shard-worker",
        help="run a remote TCP shard worker for a distributed estimation run",
        description="Connect to a run's shard coordinator (an estimation "
                    "started with --shard-hosts or REPRO_SHARD_HOSTS), "
                    "authenticate with the shared token, and serve sampling "
                    "commands until the run releases the worker. Workers are "
                    "deterministic executors: adding, losing, or moving them "
                    "never changes results. See docs/distributed.md.",
    )
    shard_worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                              help="coordinator address of the estimation run")
    shard_worker.add_argument("--token", default=os.environ.get("REPRO_SHARD_TOKEN", ""),
                              help="shared auth token (env: REPRO_SHARD_TOKEN)")
    shard_worker.add_argument("--worker-id", default=None,
                              help="self-reported worker name (default: host-pid)")
    shard_worker.add_argument("--heartbeat-interval", type=float, default=0.5,
                              help="seconds between liveness heartbeats")
    shard_worker.add_argument("--max-reconnects", type=int, default=64,
                              help="consecutive failed connection attempts before giving up")
    shard_worker.add_argument("--reconnect-backoff", type=float, default=0.2,
                              help="base delay between reconnection attempts")
    _add_json_argument(shard_worker)
    shard_worker.set_defaults(handler=_cmd_shard_worker)

    submit = subparsers.add_parser(
        "submit", help="submit one estimation job to a running service"
    )
    submit.add_argument("circuit", help="benchmark name or path to a .bench file")
    submit.add_argument("--url", default="http://127.0.0.1:8642", help="service base URL")
    submit.add_argument("--estimator", choices=ESTIMATOR_REGISTRY, default="dipe",
                        help="registered estimator kind (default: dipe)")
    submit.add_argument("--params", type=json.loads, default={},
                        help="extra estimator parameters as a JSON object")
    submit.add_argument("--label", default=None, help="label shown in job listings")
    submit.add_argument("--max-retries", type=int, default=None,
                        help="per-job retry budget (overrides the server default)")
    submit.add_argument("--watch", action="store_true",
                        help="stream the job's events to stderr and wait for the result "
                             "(exit code reflects the job's final status)")
    _add_shard_host_arguments(submit)
    _add_config_arguments(submit)
    _add_json_argument(submit)
    submit.set_defaults(handler=_cmd_submit)

    watch = subparsers.add_parser(
        "watch", help="stream a job's event log (SSE) as JSON lines"
    )
    watch.add_argument("job_id", help="job id returned by 'repro submit'")
    watch.add_argument("--url", default="http://127.0.0.1:8642", help="service base URL")
    watch.add_argument("--from", dest="from_seq", type=int, default=0,
                       help="first event seq to replay (resume a dropped stream)")
    watch.set_defaults(handler=_cmd_watch)

    jobs_verb = subparsers.add_parser(
        "jobs", help="list the jobs of a running service"
    )
    jobs_verb.add_argument("--url", default="http://127.0.0.1:8642", help="service base URL")
    jobs_verb.add_argument("--stats", action="store_true",
                           help="show scheduler counters instead of the job table")
    _add_json_argument(jobs_verb)
    jobs_verb.set_defaults(handler=_cmd_jobs)

    table1 = subparsers.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("circuits", nargs="*", help="circuit names (default: quick subset)")
    table1.add_argument("--all-circuits", action="store_true", help="use all 24 paper circuits")
    table1.add_argument("--reference-cycles", type=int, default=50_000)
    table1.add_argument("--workers", type=int, default=1,
                        help="worker processes for the estimation jobs")
    _add_config_arguments(table1)
    _add_json_argument(table1)
    table1.set_defaults(handler=_cmd_table1)

    table2 = subparsers.add_parser("table2", help="regenerate the paper's Table 2")
    table2.add_argument("circuits", nargs="*", help="circuit names (default: quick subset)")
    table2.add_argument("--all-circuits", action="store_true", help="use all 24 paper circuits")
    table2.add_argument(
        "--runs", type=int, default=25, help="repeated runs per circuit (paper: 1000)"
    )
    table2.add_argument("--reference-cycles", type=int, default=50_000)
    table2.add_argument("--workers", type=int, default=1,
                        help="worker processes for the estimation jobs")
    _add_config_arguments(table2)
    _add_json_argument(table2)
    table2.set_defaults(handler=_cmd_table2)

    figure3 = subparsers.add_parser("figure3", help="regenerate the paper's Figure 3 sweep")
    figure3.add_argument("--circuit", default="s1494", help="circuit to sweep (paper: s1494)")
    figure3.add_argument("--max-interval", type=int, default=30)
    figure3.add_argument("--sequence-length", type=int, default=10_000)
    _add_config_arguments(figure3)
    _add_json_argument(figure3)
    figure3.set_defaults(handler=_cmd_figure3)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
