"""Event-driven general-delay simulation with glitch-aware transition counting.

The independence-interval machinery of the paper only needs cheap zero-delay
simulation, but the power *samples* are taken with a general-delay simulator
so that hazard/glitch transitions contribute to the switched capacitance.
:class:`EventDrivenSimulator` is the backend-switching facade over two
interchangeable engines:

* ``"scalar"`` — the transport-delay event loop in this module: one chain,
  one Python ``heapq`` of pending net updates.  Lowest constant overhead for
  a single trajectory, and the executable specification the vectorized
  engine is pinned against.
* ``"numpy"`` — :class:`~repro.simulation.vectorized_timing.VectorizedEventDrivenSimulator`,
  which advances ``width`` independent chains through one shared time wheel,
  re-evaluating the active gate frontier with grouped ufuncs (or a compiled
  kernel) over ``(num_nets, num_words)`` uint64 lane words.

Both engines schedule on the same *integer tick* time base (see
:func:`~repro.simulation.delay_models.quantize_delays`): float delay sums
along reconvergent paths would make "same instant" depend on rounding, and
the two backends must group simultaneous events identically to count the
same glitch transitions.  With a :class:`~repro.simulation.delay_models.ZeroDelay`
model the counted transitions match the zero-delay simulator exactly (a
property exercised by the test suite); with unequal delays reconvergent
paths produce additional glitch transitions.

The per-cycle algorithm (identical in both backends):

1. At the clock edge the latch outputs take their newly captured values and
   the primary inputs take the new pattern; every net that changes seeds an
   event at tick 0.
2. Events are processed one time point at a time.  When a net actually
   changes value the transition is counted (per capacitance class, converted
   to farads when the cycle ends) and the gates it feeds are re-evaluated;
   their outputs are scheduled ``delay(gate)`` later.  Zero-delay gates
   cascade within the same instant in topological order.
3. The cycle ends when the event queue drains; because the combinational
   block is acyclic the queue always drains.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.netlist.cell_library import evaluate_gate_bitparallel
from repro.simulation.backends import resolve_backend_choice
from repro.simulation.delay_models import DelayModel, FanoutDelay
from repro.utils.rng import RandomSource, spawn_rng

#: Backends accepted by :class:`EventDrivenSimulator`.
EVENT_BACKENDS = ("auto", "scalar", "numpy")


def resolve_event_backend(backend: str, width: int) -> str:
    """Resolve a user-facing backend choice to ``"scalar"`` or ``"numpy"``.

    The scalar engine carries one chain; ``"auto"`` therefore selects it only
    for ``width == 1`` and the vectorized engine for every wider ensemble.
    """
    if backend == "scalar" and width > 1:
        raise ValueError("the scalar event-driven backend is single-chain (width must be 1)")
    return resolve_backend_choice(
        backend, width, options=EVENT_BACKENDS, narrow="scalar", wide="numpy", wide_threshold=2
    )


class EventDrivenSimulator:
    """General-delay event-driven simulator over *width* parallel chains.

    Parameters
    ----------
    circuit:
        Compiled circuit to simulate.
    delay_model:
        Gate delay model; defaults to :class:`FanoutDelay`.
    node_capacitance:
        Optional per-net capacitance (farads); defaults to 1.0 per net so the
        simulator reports raw transition counts.  Sequences and numpy arrays
        are both accepted and held as a float64 array without list copies.
    width:
        Number of independent simulation chains (lanes) advanced per cycle.
    backend:
        ``"scalar"``, ``"numpy"`` or ``"auto"`` (scalar at width 1, numpy
        otherwise).  Both backends count identical transitions for identical
        stimuli, lane for lane.
    """

    def __init__(
        self,
        circuit,
        delay_model: DelayModel | None = None,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        width: int = 1,
        backend: str = "auto",
    ):
        # Imported lazily: the program module imports from repro.simulation.
        from repro.circuits.program import CircuitProgram, node_capacitance_array

        if width < 1:
            raise ValueError("width must be at least 1")
        self.program = CircuitProgram.of(circuit)
        circuit = self.circuit = self.program.circuit
        self.width = width
        self.delay_model = delay_model or FanoutDelay()
        self.backend = resolve_event_backend(backend, width)
        # One memoized quantization per (program, delay model): the public
        # gate_delays/ticks always describe the delays actually simulated.
        schedule = self.program.delay_schedule(self.delay_model)
        self.gate_delays = list(schedule.delays)
        self.gate_ticks = [int(tick) for tick in schedule.ticks]
        self.tick = schedule.tick
        self.node_capacitance = node_capacitance_array(self.program, node_capacitance)

        self._vec = None
        if self.backend == "numpy":
            from repro.simulation.vectorized_timing import VectorizedEventDrivenSimulator

            self._vec = VectorizedEventDrivenSimulator(
                self.program,
                delay_model=self.delay_model,
                node_capacitance=self.node_capacitance,
                width=width,
                schedule=schedule,
            )
            return

        # Scalar-backend state.  The event loop counts transitions per
        # capacitance class and converts once per cycle, in the class order
        # every engine shares.
        self._classes = self.program.capacitance_classes(self.node_capacitance)
        self._values: list[int] = [0] * circuit.num_nets
        self._transition_counts: list[int] = [0] * circuit.num_nets
        self._cycles = 0
        self._sequence = 0
        self.reset()

    # ----------------------------------------------------------------- state
    @property
    def values(self) -> list[int]:
        """Lane-packed value of every net (0/1 per net on the scalar backend)."""
        if self._vec is not None:
            return self._vec.values
        return self._values

    @values.setter
    def values(self, new_values: list[int]) -> None:
        if self._vec is not None:
            raise AttributeError("values is read-only with the numpy backend")
        self._values = new_values

    @property
    def cycles_simulated(self) -> int:
        """Number of measured clock cycles since the last reset."""
        if self._vec is not None:
            return self._vec.cycles_simulated
        return self._cycles

    @cycles_simulated.setter
    def cycles_simulated(self, count: int) -> None:
        if self._vec is not None:
            self._vec.cycles_simulated = count
        else:
            self._cycles = count

    @property
    def transition_counts(self) -> np.ndarray:
        """Per-net transition count since the last reset (summed over lanes)."""
        if self._vec is not None:
            return self._vec.transition_counts
        return np.asarray(self._transition_counts, dtype=np.int64)

    def reset(self, latch_state: int | None = None) -> None:
        """Reset nets to 0, load *latch_state* (or init values) and clear counters."""
        if self._vec is not None:
            self._vec.reset(latch_state)
            return
        self.values = [0] * self.circuit.num_nets
        if latch_state is None:
            bits = self.circuit.latch_init
        else:
            bits = [(latch_state >> i) & 1 for i in range(self.circuit.num_latches)]
        for q_id, bit in zip(self.circuit.latch_q, bits):
            self.values[q_id] = bit
        self._transition_counts = [0] * self.circuit.num_nets
        self.cycles_simulated = 0
        self._settled = False

    def randomize_state(self, rng: RandomSource = None) -> None:
        """Load a uniform-random state into the latches of every lane.

        Draws one ``integers(0, 2, size=width)`` call per latch — the same
        stream as the vectorized backend, so the two are reproducible from
        the same seed at any width.
        """
        if self._vec is not None:
            self._vec.randomize_state(rng)
            return
        generator = spawn_rng(rng)
        for q_id in self.circuit.latch_q:
            self.values[q_id] = int(generator.integers(0, 2, size=1, dtype="uint8")[0])
        self._settled = False

    def load_settled_state(self, values) -> None:
        """Adopt an externally settled network (e.g. from the zero-delay simulator).

        Used by the two-phase sampler: the cheap zero-delay simulator advances
        the circuit through the independence interval, then its settled net
        values are loaded here so the sampled cycle can be re-simulated with
        general delays (glitches included) from the correct starting network.

        Accepts one lane-packed integer per net (any backend) or, on the
        numpy backend, a ``(num_nets, num_words)`` uint64 word matrix.
        """
        if self._vec is not None:
            self._vec.load_settled_state(values)
            return
        if len(values) != self.circuit.num_nets:
            raise ValueError(f"expected {self.circuit.num_nets} net values, got {len(values)}")
        self.values = [int(value) & 1 for value in values]
        self._settled = True

    def get_state(self) -> dict:
        """Snapshot net values and counters (checkpoint support; owns its storage)."""
        if self._vec is not None:
            return self._vec.get_state()
        return {
            "backend": "scalar",
            "values": list(self.values),
            "transition_counts": list(self._transition_counts),
            "settled": self._settled,
            "cycles": self.cycles_simulated,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state` (same backend only)."""
        if self._vec is not None:
            self._vec.set_state(state)
            return
        if state.get("backend") != "scalar":
            raise ValueError(
                f"cannot restore a {state.get('backend')!r} snapshot into a scalar simulator"
            )
        if len(state["values"]) != self.circuit.num_nets:
            raise ValueError("snapshot does not match this circuit")
        self.values = list(state["values"])
        self._transition_counts = list(state["transition_counts"])
        self._settled = state["settled"]
        self.cycles_simulated = state["cycles"]

    def latch_state_scalar(self, lane: int = 0) -> int:
        """Return the present state of one lane as an integer (bit *i* = latch *i*)."""
        if self._vec is not None:
            return self._vec.latch_state_scalar(lane)
        if lane != 0:
            raise ValueError("the scalar backend carries a single lane")
        state = 0
        for i, q_id in enumerate(self.circuit.latch_q):
            state |= (self.values[q_id] & 1) << i
        return state

    def net_value(self, name: str, lane: int = 0) -> int:
        """Return the current settled value (0/1) of net *name* in *lane*."""
        if self._vec is not None:
            return self._vec.net_value(name, lane)
        if lane != 0:
            raise ValueError("the scalar backend carries a single lane")
        return self.values[self.circuit.net_id(name)]

    # ------------------------------------------------------------- evaluation
    def _evaluate_gate(self, gate_index: int) -> int:
        gate = self.circuit.gates[gate_index]
        operands = [self.values[src] for src in gate.inputs]
        return evaluate_gate_bitparallel(gate.gate_type, operands, mask=1)

    def settle(self, pattern) -> None:
        """Drive *pattern*, settle the logic, count nothing.

        Used to establish the initial settled network before the first
        measured cycle (mirrors :meth:`ZeroDelaySimulator.settle`).
        """
        if self._vec is not None:
            self._vec.settle(pattern)
            return
        self._apply_pattern(pattern)
        for gate_index in range(len(self.circuit.gates)):
            gate = self.circuit.gates[gate_index]
            self.values[gate.output] = self._evaluate_gate(gate_index)
        self._settled = True

    def _apply_pattern(self, pattern: Sequence[int]) -> None:
        if len(pattern) != self.circuit.num_inputs:
            raise ValueError(
                f"pattern must have {self.circuit.num_inputs} entries, got {len(pattern)}"
            )
        for pi_id, value in zip(self.circuit.primary_inputs, pattern):
            self.values[pi_id] = int(value) & 1

    def cycle(self, pattern) -> float:
        """Simulate one full clock cycle and return the switched capacitance.

        The cycle consists of the clock edge (latch outputs take the D values
        settled at the end of the previous cycle), application of the new
        input *pattern*, and event-driven propagation until quiescence.  Every
        transition — functional or glitch — adds its net's capacitance.  With
        multiple lanes the return value is summed over lanes (use
        :meth:`cycle_lanes` for per-chain resolution).

        Events are processed one *time point* at a time: all net updates
        scheduled for the same tick are applied together (a net changes at
        most once per tick), then the affected gates are evaluated.
        Zero-delay gates are resolved within the same time point in
        topological order, so with a pure zero-delay model the counted
        transitions equal the functional (zero-delay simulator) transitions;
        positive, unequal delays expose hazard glitches on reconvergent paths.
        """
        if self._vec is not None:
            return self._vec.cycle(pattern)
        if len(pattern) != self.circuit.num_inputs:
            raise ValueError(
                f"pattern must have {self.circuit.num_inputs} entries, got {len(pattern)}"
            )
        if not self._settled:
            # Establish a settled network from the current (reset) values with
            # an all-unchanged pseudo-pattern so the first cycle has a
            # well-defined "previous" state.
            self.settle([self.values[pi] for pi in self.circuit.primary_inputs])

        # Clock edge: capture settled D values.
        new_q = [self.values[d_id] for d_id in self.circuit.latch_d]

        events: list[tuple[int, int, int, int]] = []
        self._sequence = 0

        def schedule(tick: int, net_id: int, value: int) -> None:
            self._sequence += 1
            heapq.heappush(events, (tick, self._sequence, net_id, value))

        for q_id, value in zip(self.circuit.latch_q, new_q):
            if self.values[q_id] != value:
                schedule(0, q_id, value)
        for pi_id, value in zip(self.circuit.primary_inputs, pattern):
            bit = int(value) & 1
            if self.values[pi_id] != bit:
                schedule(0, pi_id, bit)

        class_counts = [0] * self._classes.values.size
        net_class = self._classes.class_list
        values = self.values
        counts = self._transition_counts
        fanout_gates = self.circuit.fanout_gates
        gates = self.circuit.gates
        ticks = self.gate_ticks

        while events:
            current_tick = events[0][0]
            # Gather every event scheduled for this instant; the last scheduled
            # value per net wins (it was computed with the freshest inputs).
            pending: dict[int, int] = {}
            while events and events[0][0] == current_tick:
                _tick, _seq, net_id, value = heapq.heappop(events)
                pending[net_id] = value

            # Apply the updates of this instant and collect the gates to
            # (re-)evaluate, keyed by gate index so they run in topological
            # order — zero-delay gates cascade within the same instant.
            affected: set[int] = set()
            for net_id, value in pending.items():
                if values[net_id] == value:
                    continue
                values[net_id] = value
                counts[net_id] += 1
                class_counts[net_class[net_id]] += 1
                affected.update(fanout_gates[net_id])

            # Gate indices are topological, and a gate's fanout always has a
            # larger index, so a min-heap of gate indices evaluates this
            # instant's cone of influence in topological order.
            worklist = list(affected)
            heapq.heapify(worklist)
            queued = set(worklist)
            while worklist:
                gate_index = heapq.heappop(worklist)
                queued.discard(gate_index)
                gate = gates[gate_index]
                operands = [values[src] for src in gate.inputs]
                new_output = evaluate_gate_bitparallel(gate.gate_type, operands, mask=1)
                delay = ticks[gate_index]
                if delay == 0:
                    if values[gate.output] != new_output:
                        values[gate.output] = new_output
                        counts[gate.output] += 1
                        class_counts[net_class[gate.output]] += 1
                        for successor in fanout_gates[gate.output]:
                            if successor not in queued:
                                heapq.heappush(worklist, successor)
                                queued.add(successor)
                else:
                    schedule(current_tick + delay, gate.output, new_output)

        self.cycles_simulated += 1
        return self._classes.energy(class_counts)

    def cycle_lanes(self, pattern) -> np.ndarray:
        """Simulate one clock cycle; return each lane's switched capacitance.

        The result has shape ``(width,)``: entry *k* is the capacitance-
        weighted transition count of chain *k* in this cycle — the per-chain
        power observation the multi-chain glitch sampler is built on.
        """
        if self._vec is not None:
            return self._vec.cycle_lanes(pattern)
        return np.array([self.cycle(pattern)], dtype=np.float64)

    def run(self, patterns: Sequence) -> list[float]:
        """Simulate one cycle per pattern; return per-cycle switched capacitance."""
        return [self.cycle(pattern) for pattern in patterns]

    # ------------------------------------------------------------- statistics
    def total_transitions(self) -> int:
        """Total number of transitions counted since the last reset (all lanes)."""
        if self._vec is not None:
            return self._vec.total_transitions()
        return sum(self._transition_counts)

    def transition_density(self) -> np.ndarray:
        """Average transitions per cycle per lane for every net.

        Returns a float64 array (0.0 everywhere if nothing was simulated) on
        every backend, so downstream consumers see one dtype regardless of
        which engine produced the counts.
        """
        if self._vec is not None:
            return self._vec.transition_density()
        if self.cycles_simulated == 0:
            return np.zeros(self.circuit.num_nets, dtype=np.float64)
        counts = np.asarray(self._transition_counts, dtype=np.float64)
        return counts / float(self.cycles_simulated)
