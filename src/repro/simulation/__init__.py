"""Logic simulation engines.

Two complementary simulators are provided, matching the two-phase simulation
strategy of the paper (Section IV):

* :class:`~repro.simulation.zero_delay.ZeroDelaySimulator` — a cycle-based,
  zero-delay simulator.  It is bit-parallel: every net carries one bit per
  independent simulation lane, so one pass over the gates advances up to
  hundreds of statistically independent chains at once.  It is used (a) to advance the circuit state cheaply during
  the independence interval and (b) with many lanes for the long-run
  reference ("SIM") power estimate.
* :class:`~repro.simulation.event_driven.EventDrivenSimulator` — a
  general-delay, event-driven simulator that counts every transition,
  including glitches, for the cycles in which power is actually sampled.

Both simulators are backend-switching facades over a word-sliced numpy
engine (:class:`~repro.simulation.vectorized.VectorizedZeroDelaySimulator`,
:class:`~repro.simulation.vectorized_timing.VectorizedEventDrivenSimulator`)
that advances all chains and lanes together, and a scalar/big-int engine: the
single-chain event loop, and the zero-delay reference oracle and
no-compiler fallback.
"""

from repro.simulation.activity import ActivityRecord, collect_activity
from repro.simulation.compiled import CompiledCircuit, CompiledGate
from repro.simulation.delay_models import (
    DelayModel,
    FanoutDelay,
    TypeTableDelay,
    UnitDelay,
    ZeroDelay,
    quantize_delays,
)
from repro.simulation.event_driven import EventDrivenSimulator, resolve_event_backend
from repro.simulation.power_engines import EventDrivenPowerEngine, ZeroDelayPowerEngine
from repro.simulation.vectorized import VectorizedZeroDelaySimulator
from repro.simulation.vectorized_timing import VectorizedEventDrivenSimulator
from repro.simulation.zero_delay import ZeroDelaySimulator, resolve_backend

__all__ = [
    "EventDrivenPowerEngine",
    "ZeroDelayPowerEngine",
    "CompiledCircuit",
    "CompiledGate",
    "DelayModel",
    "UnitDelay",
    "ZeroDelay",
    "FanoutDelay",
    "TypeTableDelay",
    "EventDrivenSimulator",
    "ZeroDelaySimulator",
    "VectorizedZeroDelaySimulator",
    "VectorizedEventDrivenSimulator",
    "resolve_backend",
    "resolve_event_backend",
    "quantize_delays",
    "ActivityRecord",
    "collect_activity",
]
