"""Start-up and stopping-check cost of the statistics layer.

Every estimator checks its stopping criterion once per block of new samples,
on the whole growing sample, and every fresh process (the CLI, ``repro
serve``, shard workers) pays the import of the package first.  This
benchmark records both:

* the cost of one ``evaluate`` call of each criterion on a buffer view of
  n = 256, 2048 and 16384 samples (what the estimators pass);
* the time and peak RSS of ``import repro.api`` in fresh subprocesses.

Only deterministic facts are hard-asserted: no scipy module is loaded, and a
repeated order-statistic rank lookup is served from its memo.  The one
timing assert (an order-statistic check at n = 16384) keeps a margin of more
than 4x over the measured cost, so a slow or busy host cannot flake it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from benchmarks.conftest import write_bench_json, write_report
from repro.stats.sample_buffer import SampleBuffer
from repro.stats.stopping import GroupedStoppingCriterion, make_stopping_criterion
from repro.stats.stopping.order_stat import _order_statistic_rank
from repro.utils.tables import TextTable

SIZES = (256, 2048, 16384)
#: Sweep width of the grouped (variance-stimulus) criterion.
GROUP_WIDTH = 32
#: Order-statistic check at n = 16384 must stay under this (about 9x the
#: 21-23 us measured on a 2-CPU VM).
ORDER_STAT_16K_LIMIT_S = 200e-6
IMPORT_PROBES = 3

# Peak RSS is the process's VmHWM: getrusage's ru_maxrss survives exec, so
# in a child of the test process it would report the parent's peak.
_PROBE = """
import json, re, sys, time
start = time.perf_counter()
import repro.api
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm_kb = int(re.search(r"^VmHWM:\\s+(\\d+) kB", status.read(), re.MULTILINE).group(1))
print(json.dumps({
    "import_s": seconds,
    "peak_rss_mb": hwm_kb / 1024.0,
    "scipy_modules": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def _criteria():
    criteria = {
        name: make_stopping_criterion(name, min_samples=64)
        for name in ("order-statistic", "clt", "ks")
    }
    criteria["grouped-order-statistic"] = GroupedStoppingCriterion(
        make_stopping_criterion("order-statistic", min_samples=16), GROUP_WIDTH
    )
    return criteria


def _seconds_per_call(call, calls: int, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def _import_probe() -> dict:
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_bench_stopping_checks_and_startup(results_dir):
    rng = np.random.default_rng(20)
    buffer = SampleBuffer()
    buffer.extend(rng.gamma(4.0, 2.5e-13, size=max(SIZES)))
    full = buffer.view()

    costs: dict[str, dict[str, float]] = {}
    for name, criterion in _criteria().items():
        costs[name] = {}
        for size in SIZES:
            view = full[:size]
            criterion.evaluate(view)  # warm the order-statistic rank memo
            calls = max(20, 40_000 // size)
            costs[name][str(size)] = _seconds_per_call(lambda: criterion.evaluate(view), calls)

    # Deterministic: the order-statistic rank depends only on
    # (num_batches, confidence), so a repeated lookup is a memo hit.
    _order_statistic_rank(16, 0.99)
    hits = _order_statistic_rank.cache_info().hits
    _order_statistic_rank(16, 0.99)
    assert _order_statistic_rank.cache_info().hits == hits + 1

    probes = [_import_probe() for _ in range(IMPORT_PROBES)]
    for probe in probes:
        assert probe["scipy_modules"] == []
    import_s = statistics.median(p["import_s"] for p in probes)
    import_rss_mb = statistics.median(p["peak_rss_mb"] for p in probes)

    table = TextTable(
        headers=["Criterion", *(f"n={size} (us)" for size in SIZES)], precision=1
    )
    for name, by_size in costs.items():
        table.add_row([name, *(by_size[str(size)] * 1e6 for size in SIZES)])
    report = (
        "Stopping-check cost: one evaluate() on a float64 buffer view "
        "(best of 5 rounds)\n\n"
        + table.render()
        + f"\n\nfresh `import repro.api` (median of {IMPORT_PROBES} subprocesses): "
        f"{import_s:.3f} s, peak RSS {import_rss_mb:.1f} MB, no scipy module loaded\n"
    )
    write_report(results_dir, "stopping", report)
    write_bench_json(
        results_dir,
        "stopping",
        {
            "evaluate_seconds": costs,
            "group_width": GROUP_WIDTH,
            "import_repro_api_s": import_s,
            "import_repro_api_peak_rss_mb": import_rss_mb,
            "import_probes": probes,
            "order_statistic_16384_limit_s": ORDER_STAT_16K_LIMIT_S,
        },
    )

    assert costs["order-statistic"]["16384"] <= ORDER_STAT_16K_LIMIT_S
