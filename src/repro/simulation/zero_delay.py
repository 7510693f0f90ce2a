"""Bit-parallel, cycle-based zero-delay simulator with switchable backends.

Every net value carries the logic value of the net in ``width`` independent
simulation lanes.  All lanes are advanced simultaneously by one pass over the
topologically ordered gates, so the simulator doubles as:

* a fast single-chain next-state engine (``width=1``) used during the
  independence interval, where no power needs to be measured, and
* a many-lane ensemble simulator used by the long-run reference power
  estimator and the multi-chain Monte Carlo sampler, where hundreds to
  thousands of independent chains share one gate sweep.

Two interchangeable backends implement the lane storage:

* ``"numpy"`` — every net is a ``(num_words,)`` uint64 array (64 lanes per
  word); see :class:`~repro.simulation.vectorized.VectorizedZeroDelaySimulator`.
  The gate sweep runs in the runtime-compiled native kernel, or as grouped
  numpy bitwise operations without a C compiler.  This is the production
  engine at every width.
* ``"bigint"`` — every net is a Python integer whose bit *k* is lane *k*.
  It is the narrow-ensemble fallback when no C compiler is available (the
  grouped-numpy sweep needs wide ensembles to amortise its dispatch
  overhead) and the reference oracle the equivalence tests pin the numpy
  engine against.

``backend="auto"`` (the default) resolves to ``"numpy"`` whenever the native
kernel loads; without it, to ``"bigint"`` below
:data:`AUTO_NUMPY_WIDTH_PORTABLE` lanes.  Snapshots (:meth:`get_state`) of
either backend restore into either backend.

Power accounting follows the zero-delay convention: the energy of clock cycle
*t* is proportional to the capacitance-weighted number of nets whose settled
value differs between cycle *t-1* and cycle *t* (Eq. (1) of the paper with
``n_i`` restricted to functional transitions; the event-driven simulator adds
glitch transitions).  Both backends count those transitions per capacitance
class in integers and share one conversion to farads
(:class:`~repro.circuits.program.CapacitanceClasses`), so their energies are
identical, lane for lane.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation.backends import resolve_backend_choice
from repro.utils.bitpack import pack_int_to_words, unpack_words_to_int
from repro.utils.rng import RandomSource, spawn_rng

#: Backends accepted by :class:`ZeroDelaySimulator`.
BACKENDS = ("auto", "bigint", "numpy")

#: Without the native kernel, ``backend="auto"`` switches to the numpy engine
#: at this width (pure-numpy sweeps need wide ensembles to amortise their
#: dispatch overhead); with the kernel it picks numpy at every width.
AUTO_NUMPY_WIDTH_PORTABLE = 256


def _auto_numpy_threshold() -> int:
    """Auto-switch width; probed lazily so explicit backends never touch _native."""
    from repro.simulation._native import native_kernel_available

    return 1 if native_kernel_available() else AUTO_NUMPY_WIDTH_PORTABLE


def snapshot_words(state: dict, num_words: int) -> np.ndarray:
    """The ``(num_nets, num_words)`` uint64 lane words of a snapshot of either backend.

    :meth:`ZeroDelaySimulator.get_state` snapshots hold lane-packed integers
    (``"bigint"``) or lane words (``"numpy"``); this is the lossless
    conversion :meth:`ZeroDelaySimulator.set_state` and the sharded sampler's
    merge/split share.
    """
    if state.get("backend") == "numpy":
        return np.asarray(state["words"], dtype=np.uint64)
    if state.get("backend") == "bigint":
        values = state["values"]
        words = np.zeros((len(values), num_words), dtype=np.uint64)
        for row, value in enumerate(values):
            words[row] = pack_int_to_words(value, num_words)
        return words
    raise ValueError(f"cannot restore a {state.get('backend')!r} snapshot")


def resolve_backend(backend: str, width: int) -> str:
    """Resolve a user-facing backend choice to ``"bigint"`` or ``"numpy"``."""
    return resolve_backend_choice(
        backend,
        width,
        options=BACKENDS,
        narrow="bigint",
        wide="numpy",
        wide_threshold=_auto_numpy_threshold,
    )


class ZeroDelaySimulator:
    """Cycle-based zero-delay simulator over *width* parallel lanes.

    Parameters
    ----------
    circuit:
        Compiled circuit to simulate.
    width:
        Number of independent simulation lanes packed into each net value.
    node_capacitance:
        Optional per-net capacitance (farads) used to weight transitions when
        measuring switched capacitance.  When omitted, every net weighs 1.0
        (the simulator then reports toggle counts instead of farads).
    backend:
        ``"bigint"``, ``"numpy"`` or ``"auto"`` (see module docstring).  Both
        backends are reproducible from the same seed and produce identical
        net values and transition counts.
    """

    def __init__(
        self,
        circuit,
        width: int = 1,
        node_capacitance: Sequence[float] | None = None,
        backend: str = "auto",
    ):
        # Imported lazily: the program module imports from repro.simulation.
        from repro.circuits.program import CircuitProgram

        if width < 1:
            raise ValueError("width must be at least 1")
        self.program = CircuitProgram.of(circuit)
        circuit = self.program.circuit
        self.backend = resolve_backend(backend, width)
        self._vec = None
        if self.backend == "numpy":
            from repro.simulation.vectorized import VectorizedZeroDelaySimulator

            self._vec = VectorizedZeroDelaySimulator(
                self.program, width=width, node_capacitance=node_capacitance
            )
            self.circuit = circuit
            self.width = width
            self.mask = self._vec.mask
            self.node_capacitance = self._vec.node_capacitance
            return
        self.circuit = circuit
        self.width = width
        self.mask = (1 << width) - 1
        if node_capacitance is None:
            self.node_capacitance = [1.0] * circuit.num_nets
        else:
            if len(node_capacitance) != circuit.num_nets:
                raise ValueError(
                    "node_capacitance must have one entry per net "
                    f"({circuit.num_nets}), got {len(node_capacitance)}"
                )
            self.node_capacitance = [float(value) for value in node_capacitance]
        self._classes = self.program.capacitance_classes(self.node_capacitance)
        self._values: list[int] = [0] * circuit.num_nets
        self._settled = False
        self._cycles = 0
        self.reset()

    # -------------------------------------------------- backend-shared state
    @property
    def values(self) -> list[int]:
        """Lane-packed value of every net (bit *k* of entry *i* = net *i*, lane *k*)."""
        if self._vec is not None:
            return self._vec.values
        return self._values

    @values.setter
    def values(self, new_values: list[int]) -> None:
        if self._vec is not None:
            raise AttributeError("values is read-only with the numpy backend")
        self._values = new_values

    def words_view(self) -> np.ndarray | None:
        """The numpy backend's ``(num_nets, num_words)`` lane-word matrix.

        Returns ``None`` on the big-int backend.  The view aliases live
        simulator storage — callers must treat it as read-only; it exists so
        the vectorized event-driven engine can adopt the settled network
        without a lane-unpacking round-trip.
        """
        if self._vec is None:
            return None
        return self._vec.words

    @property
    def cycles_simulated(self) -> int:
        """Number of clock cycles advanced since the last reset."""
        if self._vec is not None:
            return self._vec.cycles_simulated
        return self._cycles

    @cycles_simulated.setter
    def cycles_simulated(self, count: int) -> None:
        if self._vec is not None:
            self._vec.cycles_simulated = count
        else:
            self._cycles = count

    # ----------------------------------------------------------------- state
    def get_state(self) -> dict:
        """Snapshot every lane's net values (checkpoint support).

        The snapshot is an opaque dict for :meth:`set_state`; it owns its
        storage, so continuing the simulation does not mutate it.
        """
        if self._vec is not None:
            return self._vec.get_state()
        return {
            "backend": "bigint",
            "values": list(self._values),
            "settled": self._settled,
            "cycles": self._cycles,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state` on either backend.

        A snapshot of the other backend is converted losslessly (lane-packed
        integers <-> uint64 lane words), so a checkpoint resumes whichever
        engine ``backend="auto"`` picks on this host.
        """
        if self._vec is not None:
            if state.get("backend") != "numpy":
                words = snapshot_words(state, self._vec.num_words)
                state = {**state, "backend": "numpy", "words": words}
            self._vec.set_state(state)
            return
        if state.get("backend") == "numpy":
            values = [unpack_words_to_int(row) & self.mask for row in state["words"]]
        elif state.get("backend") == "bigint":
            values = list(state["values"])
        else:
            raise ValueError(f"cannot restore a {state.get('backend')!r} snapshot")
        if len(values) != self.circuit.num_nets:
            raise ValueError("snapshot does not match this circuit")
        self._values = values
        self._settled = state["settled"]
        self._cycles = state["cycles"]

    def reset(self, latch_state: int | Sequence[int] | None = None) -> None:
        """Reset all nets to 0 and load *latch_state* into the flip-flops.

        ``latch_state`` may be ``None`` (use each latch's declared init
        value), an integer whose bit *i* is broadcast to every lane of latch
        *i*, or a sequence of per-latch lane-packed integers.
        """
        if self._vec is not None:
            self._vec.reset(latch_state)
            return
        self._values = [0] * self.circuit.num_nets
        if latch_state is None:
            packed = [self.mask if init else 0 for init in self.circuit.latch_init]
        elif isinstance(latch_state, int):
            packed = [
                self.mask if (latch_state >> i) & 1 else 0
                for i in range(self.circuit.num_latches)
            ]
        else:
            if len(latch_state) != self.circuit.num_latches:
                raise ValueError(f"latch_state must have {self.circuit.num_latches} entries")
            packed = [value & self.mask for value in latch_state]
        for q_id, value in zip(self.circuit.latch_q, packed):
            self._values[q_id] = value
        self._settled = False
        self._cycles = 0

    def randomize_state(self, rng: RandomSource = None) -> None:
        """Load an independent uniform-random state into every latch of every lane."""
        if self._vec is not None:
            self._vec.randomize_state(rng)
            return
        generator = spawn_rng(rng)
        for q_id in self.circuit.latch_q:
            self._values[q_id] = self._random_word(generator)
        self._settled = False

    def _random_word(self, generator) -> int:
        bits = generator.integers(0, 2, size=self.width, dtype="uint8")
        word = 0
        for bit in bits[::-1]:
            word = (word << 1) | int(bit)
        return word

    def load_latch_lanes(self, latch_words: np.ndarray) -> None:
        """Load externally drawn latch bits, one ``(num_words,)`` word row per latch.

        The counterpart of :meth:`randomize_state` for callers that draw the
        random latch bits themselves (the sharded sampler's parent process
        draws them from the run's single RNG stream and scatters lane slices
        to the workers).  Unlike :meth:`reset` this touches only the latch
        outputs — other net values and the cycle counter are left alone, so
        the engine behaves exactly as if :meth:`randomize_state` had produced
        these bits.
        """
        if self._vec is not None:
            self._vec.load_latch_lanes(latch_words)
            return
        if len(latch_words) != self.circuit.num_latches:
            raise ValueError(f"expected {self.circuit.num_latches} latch rows")
        for q_id, row in zip(self.circuit.latch_q, latch_words):
            self._values[q_id] = unpack_words_to_int(np.asarray(row, dtype=np.uint64)) & self.mask
        self._settled = False

    def latch_state(self) -> list[int]:
        """Return the current lane-packed value of every latch output."""
        if self._vec is not None:
            return self._vec.latch_state()
        return [self._values[q_id] for q_id in self.circuit.latch_q]

    def latch_state_scalar(self, lane: int = 0) -> int:
        """Return the state of one lane as an integer (bit *i* = latch *i*)."""
        if self._vec is not None:
            return self._vec.latch_state_scalar(lane)
        state = 0
        for i, q_id in enumerate(self.circuit.latch_q):
            state |= ((self._values[q_id] >> lane) & 1) << i
        return state

    def net_value(self, name: str, lane: int = 0) -> int:
        """Return the current value (0/1) of net *name* in *lane*."""
        if self._vec is not None:
            return self._vec.net_value(name, lane)
        return (self._values[self.circuit.net_id(name)] >> lane) & 1

    def lane_values(self, lane: int = 0) -> list[int]:
        """The value (0/1) of every net in one *lane*, in net order.

        Lets a width-1 engine adopt one chain of the ensemble (the
        event-driven power engine's lane-0 measurement).
        """
        if self._vec is not None:
            word, bit = divmod(lane, 64)
            return ((self._vec.words[:, word] >> np.uint64(bit)) & np.uint64(1)).tolist()
        return [(value >> lane) & 1 for value in self._values]

    # ------------------------------------------------------------- evaluation
    def apply_inputs(self, pattern) -> None:
        """Drive the primary inputs with lane-packed *pattern* values.

        Patterns are a sequence of lane-packed integers (one per primary
        input); the numpy backend additionally accepts a
        ``(num_inputs, num_words)`` uint64 word array.
        """
        if self._vec is not None:
            self._vec.apply_inputs(pattern)
            return
        if len(pattern) != self.circuit.num_inputs:
            raise ValueError(
                f"pattern must have {self.circuit.num_inputs} entries, got {len(pattern)}"
            )
        for pi_id, value in zip(self.circuit.primary_inputs, pattern):
            self._values[pi_id] = value & self.mask

    def evaluate(self) -> None:
        """Propagate the combinational logic (one pass in topological order)."""
        if self._vec is not None:
            self._vec.evaluate()
            return
        values = self._values
        mask = self.mask
        for gate in self.circuit.gates:
            gate_type = gate.gate_type
            name = gate_type.value
            inputs = gate.inputs
            if name == "AND" or name == "NAND":
                result = values[inputs[0]]
                for src in inputs[1:]:
                    result &= values[src]
                if name == "NAND":
                    result ^= mask
            elif name == "OR" or name == "NOR":
                result = values[inputs[0]]
                for src in inputs[1:]:
                    result |= values[src]
                if name == "NOR":
                    result ^= mask
            elif name == "XOR" or name == "XNOR":
                result = values[inputs[0]]
                for src in inputs[1:]:
                    result ^= values[src]
                if name == "XNOR":
                    result ^= mask
            elif name == "NOT":
                result = values[inputs[0]] ^ mask
            elif name == "BUFF":
                result = values[inputs[0]]
            elif name == "CONST0":
                result = 0
            else:  # CONST1
                result = mask
            values[gate.output] = result
        self._settled = True

    def clock(self) -> None:
        """Clock edge: copy each latch's settled D value onto its Q output."""
        if self._vec is not None:
            self._vec.clock()
            return
        values = self._values
        new_q = [values[d_id] for d_id in self.circuit.latch_d]
        for q_id, value in zip(self.circuit.latch_q, new_q):
            values[q_id] = value
        self._settled = False

    def settle(self, pattern) -> None:
        """Apply *pattern* and settle the logic without counting transitions.

        Used once after :meth:`reset`/:meth:`randomize_state` so the very
        first measured cycle starts from a consistent settled network.
        """
        if self._vec is not None:
            self._vec.settle(pattern)
            return
        self.apply_inputs(pattern)
        self.evaluate()

    def step(self, pattern) -> None:
        """Advance one clock cycle without measuring power.

        Sequence: clock edge (capture previous D values), drive the new input
        *pattern*, settle the combinational logic.
        """
        if self._vec is not None:
            self._vec.step(pattern)
            return
        if not self._settled:
            self.evaluate()
        self.clock()
        self.apply_inputs(pattern)
        self.evaluate()
        self._cycles += 1

    def _advance(self, pattern) -> list[int]:
        """Advance one clock cycle (big-int backend); return the previous net values."""
        if not self._settled:
            self.evaluate()
        previous = list(self._values)
        self.step(pattern)
        return previous

    def step_and_measure(self, pattern) -> float:
        """Advance one clock cycle and return the lane-summed switched capacitance.

        With ``width == 1`` the return value is the switched capacitance of
        that single cycle; with more lanes it is the sum over all lanes (used
        by the ensemble reference estimator, which only needs the aggregate).
        """
        if self._vec is not None:
            return self._vec.step_and_measure(pattern)
        previous = self._advance(pattern)
        counts = [0] * self._classes.values.size
        for net_class, before, after in zip(self._classes.class_list, previous, self._values):
            if before != after:
                counts[net_class] += (before ^ after).bit_count()
        return self._classes.energy(counts)

    def step_and_measure_lanes(self, pattern) -> np.ndarray:
        """Advance one clock cycle; return the switched capacitance of every lane.

        One gate sweep yields ``width`` independent per-chain power
        observations — the primitive the multi-chain Monte Carlo sampler is
        built on.  The numpy backend counts lanes in its native kernel; this
        big-int implementation unpacks every net's transition word to lane
        bits and exists mainly so narrow ensembles and equivalence tests can
        use either backend.
        """
        if self._vec is not None:
            return self._vec.step_and_measure_lanes(pattern)
        previous = self._advance(pattern)
        num_bytes = (self.width + 7) // 8
        raw = b"".join(
            (before ^ after).to_bytes(num_bytes, "little")
            for before, after in zip(previous, self._values)
        )
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(self.circuit.num_nets, num_bytes),
            axis=1,
            bitorder="little",
        )[:, : self.width]
        return self._classes.lane_energies(self._classes.lane_counts(bits))

    def step_and_measure_lane0(self, pattern) -> float:
        """Advance one clock cycle; return lane 0's switched capacitance.

        Equal to entry 0 of :meth:`step_and_measure_lanes` for the same
        cycle; only bit 0 of each transition word is read.
        """
        if self._vec is not None:
            return self._vec.step_and_measure_lane0(pattern)
        previous = self._advance(pattern)
        counts = [0] * self._classes.values.size
        for net_class, before, after in zip(self._classes.class_list, previous, self._values):
            if (before ^ after) & 1:
                counts[net_class] += 1
        return self._classes.energy(counts)

    def step_and_count(self, pattern) -> list[int]:
        """Advance one cycle and return the per-net toggle count (summed over lanes)."""
        if self._vec is not None:
            return self._vec.step_and_count(pattern)
        previous = self._advance(pattern)
        return [(before ^ after).bit_count() for before, after in zip(previous, self._values)]

    # --------------------------------------------------------------- sequences
    def run(self, patterns: Sequence, measure: bool = True) -> list[float]:
        """Run one cycle per pattern; return the switched capacitance per cycle.

        With ``measure=False`` an empty list is returned and only the state is
        advanced (the zero-delay phase of the two-phase sampling scheme).
        """
        energies: list[float] = []
        for pattern in patterns:
            if measure:
                energies.append(self.step_and_measure(pattern))
            else:
                self.step(pattern)
        return energies
