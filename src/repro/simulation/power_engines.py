"""Power-measurement engines, dispatched through the simulator registry.

The samplers (:class:`~repro.core.batch_sampler.BatchPowerSampler` and its
sharded counterpart) always own a cheap zero-delay *state engine* that
advances the chain ensemble through the independence interval.  What varies
between power engines is how the sampled cycle itself is measured; that
choice is a string key
(``EstimationConfig(power_simulator=...)``) resolved through
:data:`~repro.api.registry.SIMULATOR_REGISTRY`, so new measurement engines
plug in by registration instead of new ``if``/``elif`` arms in every sampler.

Factory contract (what :func:`~repro.api.registry.register_simulator`
documents)::

    factory(program, width=1, node_capacitance=None,
            delay_model=None, backend="auto") -> engine

The returned engine exposes:

* ``measure_lanes(state_engine, pattern) -> np.ndarray`` — advance the state
  engine through one clock cycle driven by *pattern* and return the
  per-lane switched capacitance, shape ``(width,)``;
* ``measure_total(state_engine, pattern) -> float`` — same cycle, lane-summed
  (cheaper when per-chain resolution is not needed);
* ``measure_lane0(state_engine, pattern) -> float`` — same cycle, advancing
  every lane but measuring lane 0 only; must equal entry 0 of
  ``measure_lanes`` exactly.  Interval selection reads one ordered sequence
  (chain 0's), so this is all the runs test pays for at any width;
* ``measure_lanes_with_control(state_engine, pattern) -> (np.ndarray,
  np.ndarray)`` *(optional)* — same cycle measured by **both** this engine
  and the cheap zero-delay state engine on identical lanes; the second array
  is the zero-delay switched capacitance, used as the control variable by
  :class:`repro.variance.control_variate.ControlVariateEstimator`;
* ``engine`` — the underlying simulator object, or ``None`` when measurement
  happens on the state engine itself.

Both built-ins keep the exact cycle semantics the samplers used to inline:
the zero-delay engine measures the functional transitions of the state
engine's own sweep; the event-driven engine re-simulates the sampled cycle
with general delays (glitches included) from the state engine's settled
network, then advances the state engine identically so both agree on the
next present state.  Every energy comes from integer toggle counts per
capacitance class (:class:`~repro.circuits.program.CapacitanceClasses`), so
a lane measured alone equals the same lane measured in any ensemble — which
is also why a single-chain (width-1) measurement reads lane 0 alone.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.registry import register_simulator
from repro.simulation.delay_models import DelayModel, make_delay_model
from repro.simulation.event_driven import EventDrivenSimulator

__all__ = ["EventDrivenPowerEngine", "ZeroDelayPowerEngine"]


def _lane0_cycle(engine: EventDrivenSimulator, state_engine, pattern) -> float:
    """Re-simulate lane 0 of *state_engine*'s next cycle on a width-1 scalar *engine*.

    The scalar engine keeps bit 0 of every entry it is given: lane 0 of the
    first settled word (or packed integer) of each net, and of the first
    pattern word (or packed integer) of each input.  No per-net lane
    integers are built.
    """
    words = state_engine.words_view()
    engine.load_settled_state(state_engine.values if words is None else words[:, 0].tolist())
    return engine.cycle(pattern[:, 0].tolist() if isinstance(pattern, np.ndarray) else pattern)


# The per-circuit generated-C engines of release 1.3 ("compiled",
# "zero-delay-compiled", "event-driven-compiled") were bit-identical to these
# two; their names stay loadable as aliases so saved job specs keep running.
@register_simulator("zero-delay", aliases=("compiled", "zero-delay-compiled"))
class ZeroDelayPowerEngine:
    """Functional-transition measurement on the state engine's own sweep."""

    #: No engine of its own — the state engine is the measurement engine.
    engine = None

    def __init__(
        self,
        program,
        width: int = 1,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        delay_model: DelayModel | str | None = None,
        backend: str = "auto",
    ):
        from repro.circuits.program import CircuitProgram

        self.program = CircuitProgram.of(program)

    def measure_lanes(self, state_engine, pattern) -> np.ndarray:
        if state_engine.width == 1:
            # One chain: one bit column, no lane resolution.
            return np.array([state_engine.step_and_measure_lane0(pattern)])
        return state_engine.step_and_measure_lanes(pattern)

    def measure_total(self, state_engine, pattern) -> float:
        return state_engine.step_and_measure(pattern)

    def measure_lane0(self, state_engine, pattern) -> float:
        # One bit column of the transition words.
        return state_engine.step_and_measure_lane0(pattern)

    def measure_lanes_with_control(self, state_engine, pattern) -> tuple[np.ndarray, np.ndarray]:
        # The zero-delay measurement *is* the control here: the pair is
        # degenerate (identical arrays), which the control-variate estimator
        # rejects up front — kept for interface completeness.
        switched = state_engine.step_and_measure_lanes(pattern)
        return switched, switched


@register_simulator("event-driven", aliases=("event-driven-compiled",))
class EventDrivenPowerEngine:
    """General-delay re-simulation of the sampled cycle (glitches included)."""

    def __init__(
        self,
        program,
        width: int = 1,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        delay_model: DelayModel | str | None = None,
        backend: str = "auto",
    ):
        from repro.circuits.program import CircuitProgram

        self.program = CircuitProgram.of(program)
        if delay_model is None:
            delay_model = "fanout"
        if isinstance(delay_model, str):
            delay_model = make_delay_model(delay_model)
        self.engine = EventDrivenSimulator(
            self.program,
            delay_model=delay_model,
            node_capacitance=node_capacitance,
            width=width,
            backend=backend,
        )
        self._lane0_engine = self.engine if self.engine.backend == "scalar" else None

    def _load_settled(self, state_engine) -> None:
        """Load the state engine's settled network (vectorized engine only)."""
        words = state_engine.words_view()
        self.engine.load_settled_state(state_engine.values if words is None else words)

    def _cycle_lanes(self, state_engine, pattern) -> np.ndarray:
        # A single chain runs on the scalar engine, which adopts lane 0 only.
        if self.engine.backend == "scalar":
            return np.array([_lane0_cycle(self.engine, state_engine, pattern)])
        self._load_settled(state_engine)
        return self.engine.cycle_lanes(pattern)

    def measure_lanes(self, state_engine, pattern) -> np.ndarray:
        # Re-simulate the same cycle with general delays for every chain:
        # load the settled zero-delay network, run the event-driven cycle
        # (counts glitches per lane), and advance the cheap state engine
        # identically so both engines agree on the next present state.
        switched = self._cycle_lanes(state_engine, pattern)
        state_engine.step(pattern)
        return switched

    def measure_total(self, state_engine, pattern) -> float:
        if self.engine.backend == "scalar":
            switched = _lane0_cycle(self.engine, state_engine, pattern)
        else:
            self._load_settled(state_engine)
            switched = self.engine.cycle(pattern)
        state_engine.step(pattern)
        return switched

    def measure_lane0(self, state_engine, pattern) -> float:
        # Re-simulate chain 0 alone on a width-1 scalar engine (the engine
        # single-chain glitch runs use) while the state engine steps the
        # whole ensemble; class-count energies make it equal lane 0 of
        # measure_lanes bit for bit.
        if self._lane0_engine is None:
            engine = self.engine
            self._lane0_engine = EventDrivenSimulator(
                self.program,
                delay_model=engine.delay_model,
                node_capacitance=engine.node_capacitance,
                backend="scalar",
            )
        switched = _lane0_cycle(self._lane0_engine, state_engine, pattern)
        state_engine.step(pattern)
        return switched

    def measure_lanes_with_control(self, state_engine, pattern) -> tuple[np.ndarray, np.ndarray]:
        # Same cycle, both engines, identical lanes: the event-driven
        # measurement (glitches included) and the zero-delay functional
        # transitions.  Advancing the state engine with step_and_measure_lanes
        # keeps the state trajectory identical to measure_lanes — only the
        # extra per-lane readout differs.
        switched = self._cycle_lanes(state_engine, pattern)
        control = state_engine.step_and_measure_lanes(pattern)
        return switched, control
