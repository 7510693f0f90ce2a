"""Word-sliced, array-backed zero-delay simulator.

This is the numpy backend of :class:`~repro.simulation.zero_delay.ZeroDelaySimulator`.
Where the big-int backend packs all simulation lanes into one Python integer
per net, this engine stores each net as a row of ``num_words`` ``uint64``
words — lane *k* of net *i* lives in bit ``k % 64`` of ``words[i, k // 64]``
— so the whole Monte Carlo ensemble advances through one gate sweep with
C-speed bitwise operations instead of per-gate Python big-int arithmetic.

Three sweep strategies share the same word tables:

* **grouped numpy** (always available): gates are levelized and grouped by
  reduction kind (AND-like, OR-like, XOR-like); each group is evaluated with
  one gather / one ``ufunc.reduce`` / one scatter, so the interpreter cost is
  per *level group*, not per gate;
* **generic compiled kernel** (optional, see :mod:`repro.simulation._native`):
  a small C routine runs the topologically ordered gate list directly over the
  same flat word buffer, removing the remaining per-group dispatch overhead;
* **per-program codegen kernel** (optional, see
  :mod:`repro.simulation.codegen`, requested via ``sweep="codegen"``): C
  generated *for this specific circuit* with every gate a literal expression,
  removing even the generic kernel's per-gate opcode dispatch and CSR gather.

Transition counting compares consecutive settled states and counts toggles
per capacitance class (:class:`~repro.circuits.program.CapacitanceClasses`):
summed over lanes (:meth:`step_and_measure`), per lane
(:meth:`step_and_measure_lanes`, one power sample per chain for the
multi-chain sampler) or for lane 0 alone (:meth:`step_and_measure_lane0`,
the runs-test sequence of interval selection).  Per-lane counts come from
the native kernel's count-trailing-zeros walk over the transition words, or
from ``np.unpackbits`` without it; lane-summed counts from
``np.bitwise_count``.  Either way the energies come from one shared
class-order conversion, so every lane's value is exact whatever the width.

Input patterns are accepted either in the lane-packed integer form used by
the big-int backend, or as ``(num_inputs, num_words)`` uint64 word arrays
(the fast path used by :class:`~repro.core.batch_sampler.BatchPowerSampler`).

All width-independent tables (level groups, native sweep tables, constant
rows) come from the shared :class:`~repro.circuits.program.CircuitProgram`
lowering; this engine only derives the width-dependent gather/scatter index
vectors and owns the lane-word storage.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.simulation import _native
from repro.utils.bitpack import (
    bits_to_words,
    lane_mask_words,
    pack_int_to_words,
    unpack_words_to_int,
    words_per_width,
)
from repro.utils.rng import RandomSource, spawn_rng

__all__ = [
    "VectorizedZeroDelaySimulator",
    "bits_to_words",
    "lane_mask_words",
    "pack_int_to_words",
    "unpack_words_to_int",
    "words_per_width",
]

_LANE0 = np.uint64(1)

_REDUCERS = {
    _native.OP_AND: np.bitwise_and,
    _native.OP_OR: np.bitwise_or,
    _native.OP_XOR: np.bitwise_xor,
}


class _LevelGroup:
    """One gather/reduce/scatter unit of the grouped-numpy sweep."""

    __slots__ = ("reducer", "gather", "shape", "out_invert", "scatter", "buffer", "acc")

    def __init__(self, reducer, gather, shape, out_invert, scatter):
        self.reducer = reducer
        self.gather = gather
        self.shape = shape
        self.out_invert = out_invert  # (G, 1) uint64 or None
        self.scatter = scatter
        self.buffer = np.empty(gather.size, dtype=np.uint64)
        self.acc = np.empty((shape[0], shape[2]), dtype=np.uint64)


class VectorizedZeroDelaySimulator:
    """Cycle-based zero-delay simulator over word-sliced uint64 lane arrays.

    Mirrors the public API and semantics of the big-int
    :class:`~repro.simulation.zero_delay.ZeroDelaySimulator` (same RNG
    consumption, same cycle ordering, same return values) so the two are
    interchangeable backends.
    """

    backend = "numpy"

    #: Sweep strategy choices.  "auto" is the classic numpy backend: the
    #: generic native kernel when available, else grouped numpy.  "codegen"
    #: (the ``compiled`` facade backend) asks for the per-program generated
    #: kernel first and degrades codegen -> native -> groups, so a missing
    #: compiler never fails construction.  "native" and "groups" pin the
    #: generic kernel / pure-numpy strategies (tests and benchmarks).
    SWEEPS = ("auto", "codegen", "native", "groups")

    def __init__(
        self,
        circuit,
        width: int = 1,
        node_capacitance: Sequence[float] | None = None,
        sweep: str = "auto",
    ):
        # Imported lazily: the program module imports from repro.simulation,
        # so a module-level import here would be circular.
        from repro.circuits.program import CircuitProgram

        if width < 1:
            raise ValueError("width must be at least 1")
        self.program = CircuitProgram.of(circuit)
        self.circuit = self.program.circuit
        circuit = self.circuit
        self.width = width
        self.num_words = words_per_width(width)
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
        self._mask_words = lane_mask_words(width)
        self._partial_last_word = bool(width % 64)

        num_nets = circuit.num_nets
        num_words = self.num_words
        # Two virtual rows behind the real nets: an all-ones row (AND-group
        # fan-in padding) and an all-zeros row (OR/XOR-group padding).  The
        # program's group plans are padded with exactly these row ids.
        self._row_one = self.program.row_one
        self._row_zero = self.program.row_zero
        self._flat = np.zeros((num_nets + 2) * num_words, dtype=np.uint64)
        self.words = self._flat[: num_nets * num_words].reshape(num_nets, num_words)
        self._flat[self._row_one * num_words : (self._row_one + 1) * num_words] = self._mask_words

        word_span = np.arange(num_words, dtype=np.intp)
        self._latch_q_rows = np.asarray(circuit.latch_q, dtype=np.intp)
        self._latch_d_rows = np.asarray(circuit.latch_d, dtype=np.intp)
        self._input_rows = np.asarray(circuit.primary_inputs, dtype=np.intp)
        self._input_flat = (self._input_rows[:, None] * num_words + word_span).reshape(-1)
        self._latch_q_flat = (self._latch_q_rows[:, None] * num_words + word_span).reshape(-1)
        self._latch_d_flat = (self._latch_d_rows[:, None] * num_words + word_span).reshape(-1)

        self._const_rows = self.program.const_rows
        # The compiled kernels and the grouped-numpy schedule are alternative
        # sweep strategies; only materialise the (index-table heavy) groups
        # when no kernel is available.
        if sweep not in self.SWEEPS:
            raise ValueError(f"unknown sweep strategy {sweep!r}; choose from {self.SWEEPS}")
        self._native_call = None
        self.sweep = "groups"
        if sweep == "codegen":
            self._native_call = self._build_codegen_call()
            if self._native_call is not None:
                self.sweep = "codegen"
        if self._native_call is None and sweep in ("auto", "codegen", "native"):
            self._native_call = self._build_native_call()
            if self._native_call is not None:
                self.sweep = "native"
        self._groups = self._build_groups() if self._native_call is None else None
        self._prev = np.empty_like(self.words)
        self._diff = np.empty_like(self.words)
        self._count_lanes = None
        if self._native_call is not None:
            self._bind_native_counts()

        self._settled = False
        self.cycles_simulated = 0
        self.reset()

    # ------------------------------------------------------------- schedules
    def _build_groups(self) -> list[_LevelGroup]:
        """Derive the width-dependent gather/scatter units from the program plan."""
        num_words = self.num_words
        word_span = np.arange(num_words, dtype=np.intp)
        groups = []
        for plan in self.program.level_groups:
            gather = (plan.rows[:, :, None] * num_words + word_span).reshape(-1)
            scatter = (plan.outs[:, None] * num_words + word_span).reshape(-1)
            groups.append(
                _LevelGroup(
                    reducer=_REDUCERS[plan.opcode],
                    gather=gather,
                    shape=(plan.rows.shape[0], plan.rows.shape[1], num_words),
                    out_invert=plan.out_invert,
                    scatter=scatter,
                )
            )
        return groups

    def _build_codegen_call(self):
        # Imported lazily: codegen imports from this package at module scope.
        from repro.simulation import codegen

        kernel = codegen.load_program_kernel(self.program)
        if kernel is None:
            return None
        return codegen.bind_sweep(kernel, self._flat, int(self.num_words), self._mask_words)

    def _build_native_call(self):
        kernel = _native.load_kernel()
        if kernel is None:
            return None
        program = self.program
        # The table arrays live on the shared program; bind their raw
        # pointers once so the per-sweep call avoids ctypes argument
        # marshalling on the hot path.
        self._native_arrays = (
            program.sweep_ops,
            program.sweep_out_rows,
            program.sweep_in_ptr,
            program.sweep_in_rows,
        )
        return _native.bind_sweep(
            kernel,
            self._flat,
            int(self.num_words),
            int(program.num_sweep_gates),
            *self._native_arrays,
            self._mask_words,
        )

    def _bind_native_counts(self) -> None:
        """Count per-lane class toggles in the generic kernel (any sweep but "groups")."""
        kernel = _native.load_kernel()
        if kernel is None:
            return
        words = int(self.num_words)
        self._lane_buffer = np.zeros((self._classes.values.size, words * 64), dtype=np.int64)
        self._count_lanes = _native.bind_class_counts(
            kernel,
            self._prev,
            self.words,
            self.circuit.num_nets,
            words,
            self._classes.net_class,
            self._lane_buffer,
        )

    # ----------------------------------------------------------------- state
    def reset(self, latch_state: int | Sequence[int] | None = None) -> None:
        """Reset all nets to 0 and load *latch_state* into the flip-flops.

        Accepts the same forms as the big-int backend: ``None`` (declared
        init values), a scalar integer broadcast across lanes, or one
        lane-packed integer per latch.
        """
        self.words[:] = 0
        for row, is_one in self._const_rows:
            self.words[row] = self._mask_words if is_one else 0
        if latch_state is None:
            packed = [
                self._mask_words if init else np.zeros(self.num_words, dtype=np.uint64)
                for init in self.circuit.latch_init
            ]
        elif isinstance(latch_state, int):
            packed = [
                self._mask_words
                if (latch_state >> i) & 1
                else np.zeros(self.num_words, dtype=np.uint64)
                for i in range(self.circuit.num_latches)
            ]
        else:
            if len(latch_state) != self.circuit.num_latches:
                raise ValueError(f"latch_state must have {self.circuit.num_latches} entries")
            packed = [
                pack_int_to_words(int(value) & self.mask, self.num_words)
                for value in latch_state
            ]
        for row, value in zip(self._latch_q_rows, packed):
            self.words[row] = value
        self._settled = False
        self.cycles_simulated = 0

    def randomize_state(self, rng: RandomSource = None) -> None:
        """Load an independent uniform-random state into every latch of every lane.

        Draws exactly the same RNG stream as the big-int backend (one
        ``integers(0, 2, size=width)`` call per latch) so the two backends
        are reproducible from the same seed.
        """
        generator = spawn_rng(rng)
        for row in self._latch_q_rows:
            bits = generator.integers(0, 2, size=self.width, dtype="uint8")
            self.words[row] = bits_to_words(bits, self.num_words)
        self._settled = False

    def load_latch_lanes(self, latch_words: np.ndarray) -> None:
        """Load externally drawn latch bits (see the facade's docstring)."""
        latch_words = np.asarray(latch_words, dtype=np.uint64)
        if latch_words.shape != (self.circuit.num_latches, self.num_words):
            raise ValueError(
                f"expected latch words of shape "
                f"({self.circuit.num_latches}, {self.num_words}), got {latch_words.shape}"
            )
        self.words[self._latch_q_rows] = latch_words & self._mask_words
        self._settled = False

    def get_state(self) -> dict:
        """Snapshot the word matrix (checkpoint support; owns its storage)."""
        return {
            "backend": "numpy",
            "words": self.words.copy(),
            "settled": self._settled,
            "cycles": self.cycles_simulated,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state` (same backend only)."""
        if state.get("backend") != "numpy":
            raise ValueError(
                f"cannot restore a {state.get('backend')!r} snapshot into a numpy simulator"
            )
        if state["words"].shape != self.words.shape:
            raise ValueError("snapshot does not match this circuit/width")
        self.words[:] = state["words"]
        self._settled = state["settled"]
        self.cycles_simulated = state["cycles"]

    @property
    def values(self) -> list[int]:
        """Current net values as lane-packed integers (big-int compatible view)."""
        return [unpack_words_to_int(self.words[row]) for row in range(self.circuit.num_nets)]

    def latch_state(self) -> list[int]:
        """Return the current lane-packed value of every latch output."""
        return [unpack_words_to_int(self.words[row]) for row in self._latch_q_rows]

    def latch_state_scalar(self, lane: int = 0) -> int:
        """Return the state of one lane as an integer (bit *i* = latch *i*)."""
        word, bit = divmod(lane, 64)
        state = 0
        for i, row in enumerate(self._latch_q_rows):
            state |= ((int(self.words[row, word]) >> bit) & 1) << i
        return state

    def net_value(self, name: str, lane: int = 0) -> int:
        """Return the current value (0/1) of net *name* in *lane*."""
        word, bit = divmod(lane, 64)
        return (int(self.words[self.circuit.net_id(name), word]) >> bit) & 1

    # ------------------------------------------------------------- evaluation
    def _pattern_words(self, pattern) -> np.ndarray:
        """Coerce a pattern (packed ints or a word array) to (num_inputs, W)."""
        if isinstance(pattern, np.ndarray) and pattern.dtype == np.uint64:
            if pattern.shape != (self.circuit.num_inputs, self.num_words):
                raise ValueError(
                    f"pattern words must have shape "
                    f"({self.circuit.num_inputs}, {self.num_words}), got {pattern.shape}"
                )
            if not self._partial_last_word:
                return pattern
            return pattern & self._mask_words
        if len(pattern) != self.circuit.num_inputs:
            raise ValueError(
                f"pattern must have {self.circuit.num_inputs} entries, got {len(pattern)}"
            )
        words = np.empty((self.circuit.num_inputs, self.num_words), dtype=np.uint64)
        for index, value in enumerate(pattern):
            words[index] = pack_int_to_words(int(value) & self.mask, self.num_words)
        return words

    def apply_inputs(self, pattern) -> None:
        """Drive the primary inputs with *pattern* (packed ints or word array)."""
        self._flat[self._input_flat] = self._pattern_words(pattern).reshape(-1)

    def evaluate(self) -> None:
        """Propagate the combinational logic (one word-sliced gate sweep)."""
        if self._native_call is not None:
            self._native_call()
        else:
            flat = self._flat
            partial = self._partial_last_word
            mask = self._mask_words
            for group in self._groups:
                np.take(flat, group.gather, out=group.buffer)
                inputs = group.buffer.reshape(group.shape)
                group.reducer.reduce(inputs, axis=1, out=group.acc)
                if group.out_invert is not None:
                    np.bitwise_xor(group.acc, group.out_invert, out=group.acc)
                    if partial:
                        np.bitwise_and(group.acc, mask, out=group.acc)
                flat[group.scatter] = group.acc.reshape(-1)
        self._settled = True

    def clock(self) -> None:
        """Clock edge: copy each latch's settled D value onto its Q output."""
        captured = self._flat.take(self._latch_d_flat)
        self._flat[self._latch_q_flat] = captured
        self._settled = False

    def settle(self, pattern) -> None:
        """Apply *pattern* and settle the logic without counting transitions."""
        self.apply_inputs(pattern)
        self.evaluate()

    def step(self, pattern) -> None:
        """Advance one clock cycle without measuring power."""
        if not self._settled:
            self.evaluate()
        self.clock()
        self.apply_inputs(pattern)
        self.evaluate()
        self.cycles_simulated += 1

    def _advance(self, pattern) -> None:
        """Advance one cycle, keeping the previous settled words in ``_prev``."""
        if not self._settled:
            self.evaluate()
        np.copyto(self._prev, self.words)
        self.step(pattern)

    def _diff_words(self) -> np.ndarray:
        return np.bitwise_xor(self._prev, self.words, out=self._diff)

    def step_and_measure(self, pattern) -> float:
        """Advance one clock cycle and return the lane-summed switched capacitance."""
        self._advance(pattern)
        toggles = np.bitwise_count(self._diff_words()).sum(axis=1)
        return self._classes.energy(self._classes.totals(toggles))

    def step_and_measure_lanes(self, pattern) -> np.ndarray:
        """Advance one clock cycle; return the switched capacitance of every lane.

        This is the per-chain measurement the multi-chain Monte Carlo sampler
        is built on: one gate sweep yields ``width`` independent power
        observations.
        """
        self._advance(pattern)
        if self._count_lanes is not None:
            self._lane_buffer.fill(0)
            self._count_lanes()
            counts = self._lane_buffer[:, : self.width]
        else:
            bits = np.unpackbits(
                self._diff_words().view(np.uint8).reshape(self.circuit.num_nets, -1),
                axis=1,
                bitorder="little",
            )[:, : self.width]
            counts = self._classes.lane_counts(bits)
        return self._classes.lane_energies(counts)

    def step_and_measure_lane0(self, pattern) -> float:
        """Advance one clock cycle; return lane 0's switched capacitance.

        Reads only bit 0 of each net's first transition word, so the cost
        does not grow with the width.  Equal to entry 0 of
        :meth:`step_and_measure_lanes` for the same cycle.
        """
        if not self._settled:
            self.evaluate()
        before = self.words[:, 0] & _LANE0
        self.step(pattern)
        toggled = (self.words[:, 0] & _LANE0) ^ before
        return self._classes.energy(self._classes.totals(toggled))

    def step_and_count(self, pattern) -> list[int]:
        """Advance one cycle and return the per-net toggle count (summed over lanes)."""
        self._advance(pattern)
        return [int(count) for count in np.bitwise_count(self._diff_words()).sum(axis=1)]

    # --------------------------------------------------------------- sequences
    def run(self, patterns: Sequence, measure: bool = True) -> list[float]:
        """Run one cycle per pattern; return the switched capacitance per cycle."""
        energies: list[float] = []
        for pattern in patterns:
            if measure:
                energies.append(self.step_and_measure(pattern))
            else:
                self.step(pattern)
        return energies
