"""Throughput benchmark: vectorized vs. scalar event-driven (glitch) engine.

The glitch-aware power workloads rest on the claim that one time-wheel sweep
of the vectorized event-driven engine over a wide lane ensemble is much
cheaper than simulating the same chains one at a time through the scalar
Python event loop.  This benchmark pins that claim down: it measures
chain-cycles/second of both backends at an ensemble width of 256 on mid-size
and large ISCAS'89-style circuits under the default :class:`FanoutDelay`
model and asserts the speed-up (>= 10x on the asserted circuits; the small
s298 row doubles as the CI perf-smoke gate, which only requires the numpy
backend to beat the scalar one).

Because these are wall-clock assertions on shared machines, a failing ratio
is re-measured once before the benchmark actually fails; set
``REPRO_BENCH_STRICT=0`` to relax the 10x floor to a no-regression floor.

The formatted comparison is written to ``benchmarks/results/event_driven.txt``
and the machine-readable metrics to ``benchmarks/results/BENCH_event_driven.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from benchmarks.conftest import write_bench_json, write_report
from repro.circuits.iscas89 import build_circuit
from repro.power.capacitance import CapacitanceModel
from repro.simulation.event_driven import EventDrivenSimulator
from repro.stimulus.random_inputs import BernoulliStimulus
from repro.utils.tables import TextTable

#: Ensemble width of the comparison (the acceptance point of the claim).
_WIDTH = 256

#: Circuits the >=10x assertion is evaluated on (mid-size and large).
_ASSERTED_CIRCUITS = ("s1494", "s5378")

#: Small circuit rows: no 10x assertion, but the numpy engine must not lose
#: to the scalar one (the CI perf-smoke gate runs exactly this check).
_SMOKE_CIRCUITS = ("s298",)


def _strict() -> bool:
    """False relaxes the 10x assertion to a no-regression floor (noisy machines)."""
    return os.environ.get("REPRO_BENCH_STRICT", "1") not in ("", "0", "false", "no")


def _scalar_rate(circuit, cycles: int, repeats: int = 3) -> float:
    """Best-of-*repeats* scalar event-engine throughput in cycles/second."""
    caps = CapacitanceModel().node_capacitances(circuit)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    rng = np.random.default_rng(1)
    simulator = EventDrivenSimulator(circuit, node_capacitance=caps, backend="scalar")
    simulator.randomize_state(rng)
    patterns = [stimulus.next_pattern(rng, width=1) for _ in range(cycles)]
    simulator.settle(patterns[0])
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for pattern in patterns:
            simulator.cycle(pattern)
        best = min(best, time.perf_counter() - start)
    return cycles / best


def _vectorized_rate(circuit, sweeps: int, repeats: int = 3) -> float:
    """Best-of-*repeats* vectorized engine throughput in chain-cycles/second."""
    caps = CapacitanceModel().node_capacitances(circuit)
    stimulus = BernoulliStimulus(circuit.num_inputs, 0.5)
    rng = np.random.default_rng(1)
    simulator = EventDrivenSimulator(
        circuit, node_capacitance=caps, width=_WIDTH, backend="numpy"
    )
    simulator.randomize_state(rng)
    patterns = [stimulus.next_pattern_words(rng, width=_WIDTH) for _ in range(sweeps)]
    simulator.settle(patterns[0])
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for pattern in patterns:
            simulator.cycle_lanes(pattern)
        best = min(best, time.perf_counter() - start)
    return sweeps * _WIDTH / best


def _measure(circuit) -> tuple[float, float]:
    small = circuit.num_gates < 1000
    scalar = _scalar_rate(circuit, 60 if small else 16)
    vectorized = _vectorized_rate(circuit, 40 if small else 10)
    return scalar, vectorized


def test_bench_event_driven_speedup(results_dir):
    """The numpy event engine sustains >=10x scalar chain-cycle throughput at width 256."""
    table = TextTable(
        headers=["Circuit", "Gates", "scalar cyc/s", "numpy chain-cyc/s", "Speed-up"],
        precision=1,
    )
    metrics: dict[str, dict] = {}
    ratios: dict[str, float] = {}
    for name in _SMOKE_CIRCUITS + _ASSERTED_CIRCUITS:
        circuit = build_circuit(name)
        scalar, vectorized = _measure(circuit)
        floor = 10.0 if name in _ASSERTED_CIRCUITS and _strict() else 1.0
        if vectorized < floor * scalar:
            # Timing assertions on shared machines deserve one clean retry.
            scalar, vectorized = _measure(circuit)
        ratios[name] = vectorized / scalar
        metrics[name] = {
            "circuit": name,
            "gates": circuit.num_gates,
            "width": _WIDTH,
            "scalar_cycles_per_second": scalar,
            "numpy_chain_cycles_per_second": vectorized,
            "speedup": ratios[name],
        }
        table.add_row([name, circuit.num_gates, scalar, vectorized, ratios[name]])

    lines = [
        f"Event-driven simulator backend comparison at width {_WIDTH} "
        f"(256 independent chains per time-wheel sweep, FanoutDelay model)",
        "",
        table.render(),
    ]
    write_report(results_dir, "event_driven", "\n".join(lines))
    write_bench_json(results_dir, "event_driven", {"width": _WIDTH, "circuits": metrics})

    for name in _SMOKE_CIRCUITS:
        assert ratios[name] >= 1.0, (
            f"{name}: the numpy event-driven backend fell behind the scalar engine "
            f"({ratios[name]:.2f}x)"
        )
    for name in _ASSERTED_CIRCUITS:
        if _strict():
            assert ratios[name] >= 10.0, (
                f"{name}: numpy event engine only {ratios[name]:.1f}x the scalar rate "
                f"at width {_WIDTH} (expected >= 10x; set REPRO_BENCH_STRICT=0 on "
                f"machines too noisy for timing assertions)"
            )
        else:
            assert ratios[name] >= 1.0, (
                f"{name}: numpy event engine regressed below the scalar one "
                f"({ratios[name]:.2f}x)"
            )


def test_bench_event_driven_equivalence_spot_check():
    """The two backends count identical energy on the benchmark circuit.

    A cheap non-timing guard: a wrong-but-fast engine must not pass the
    throughput assertion above.
    """
    circuit = build_circuit("s298")
    caps = CapacitanceModel().node_capacitances(circuit)
    width = 64
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(6, circuit.num_inputs, width), dtype=np.uint8)
    from repro.stimulus.base import pack_bit_matrix

    vector = EventDrivenSimulator(circuit, node_capacitance=caps, width=width)
    vector.reset(latch_state=0)
    vector.settle(pack_bit_matrix(bits[0]))
    scalars = []
    for lane in range(width):
        scalar = EventDrivenSimulator(circuit, node_capacitance=caps, backend="scalar")
        scalar.reset(latch_state=0)
        scalar.settle(bits[0][:, lane].tolist())
        scalars.append(scalar)
    for step in range(1, 6):
        lanes = vector.cycle_lanes(pack_bit_matrix(bits[step]))
        expected = [s.cycle(bits[step][:, lane].tolist()) for lane, s in enumerate(scalars)]
        np.testing.assert_allclose(lanes, expected)
