"""Set-up probe: a fresh process that gets one workload ready for its first job.

    python3 perfbench/probe.py --workload glitch --seed 1 --seconds 18

Prints one line, ``ready {...}``, once every circuit, program and engine the
workload's job list needs is built and the native kernel is loaded, then
exits.  ``run.py`` times each probe from spawn to that line (``setup_s``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    import workloads
    from repro.circuits.program import compile_count
    from repro.simulation._native import compiler_invocations

    imported = time.perf_counter()
    phases = workloads.get_ready(workloads.job_specs(args.workload, args.seed, args.seconds))
    phases.update(
        imports_s=imported - START,
        lowerings=compile_count(),
        compiler_invocations=compiler_invocations(),
    )
    print("ready " + json.dumps(phases), flush=True)


if __name__ == "__main__":
    main()
