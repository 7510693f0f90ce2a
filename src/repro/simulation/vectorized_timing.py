"""Word-sliced, time-wheel event-driven simulator (general delays, glitches).

This is the numpy backend of
:class:`~repro.simulation.event_driven.EventDrivenSimulator`.  Where the
scalar backend walks a Python ``heapq`` of single-chain net updates, this
engine advances ``width`` independent chains *and* all 64-lane words together
through one discrete time wheel:

* Gate delays are quantized onto a shared integer tick base
  (:func:`~repro.simulation.delay_models.quantize_delays`), so every event
  time is an exact integer and both backends group "simultaneous" events
  identically — the property that makes their glitch counts bit-identical.
* Net values live in the same ``(num_nets, num_words)`` uint64 lane matrix as
  the zero-delay engine (lane *k* of net *i* in bit ``k % 64`` of
  ``words[i, k // 64]``; see :mod:`repro.utils.bitpack`).
* Per time point, the pending net updates are applied with one vectorized
  XOR/popcount pass, and the *active gate frontier* — the union over
  lanes of every gate fed by a changed net — is re-evaluated level by level
  with grouped ufunc reductions, or with the optional runtime-compiled C
  kernel from :mod:`repro.simulation._native`.  Zero-delay gates cascade
  within the instant; positive-delay gates schedule their computed output
  words ``ticks`` later on the wheel.

Evaluating the frontier for *all* lanes whenever *any* lane is active is
safe: a lane whose gate inputs did not change at this instant re-computes the
same output it scheduled at its own last active instant, which necessarily
lands on the wheel no later than the new event — re-applying an equal value
changes nothing and counts nothing.  The union-activity engine therefore does
(bounded) redundant evaluation work but counts exactly the per-lane
transitions of the scalar engine, a property pinned by the equivalence tests
in ``tests/property_based``.

Lane energies are exact: transitions are counted as *integers* per
``(net, lane)`` during the cycle, summed per capacitance class when it ends,
and converted to farads by
:meth:`~repro.circuits.program.CapacitanceClasses.lane_energies`, which adds
the class products in one fixed order, lane by lane.  (A float
``capacitance @ counts`` product is not enough: a BLAS ``gemv`` rounds each
column differently depending on how many columns share the call.)  So a
lane's energy depends only on its own transitions — not on the event order,
the width, or which other lanes share the engine — and it equals the scalar
engine's value bit for bit.  That is what lets the process-sharded sampler
split an ensemble across engine instances, and interval selection measure
lane 0 alone, with bit-identical results.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.simulation import _native
from repro.simulation.delay_models import DelayModel, FanoutDelay
from repro.utils.bitpack import (
    bits_to_words,
    lane_mask_words,
    pack_int_to_words,
    unpack_words_to_int,
    words_per_width,
)
from repro.utils.rng import RandomSource, spawn_rng

__all__ = ["VectorizedEventDrivenSimulator"]

_REDUCERS = {
    _native.OP_AND: np.bitwise_and,
    _native.OP_OR: np.bitwise_or,
    _native.OP_XOR: np.bitwise_xor,
}


class VectorizedEventDrivenSimulator:
    """Event-driven general-delay simulator over word-sliced uint64 lane arrays.

    Mirrors the cycle semantics of the scalar backend (same clock-edge
    ordering, same instant grouping, same glitch counting) so the two are
    interchangeable behind :class:`~repro.simulation.event_driven.EventDrivenSimulator`.
    """

    backend = "numpy"

    def __init__(
        self,
        circuit,
        delay_model: DelayModel | None = None,
        node_capacitance: Sequence[float] | np.ndarray | None = None,
        width: int = 1,
        schedule=None,
    ):
        # Imported lazily: the program module imports from repro.simulation.
        from repro.circuits.program import CircuitProgram, node_capacitance_array

        if width < 1:
            raise ValueError("width must be at least 1")
        self.program = CircuitProgram.of(circuit)
        circuit = self.circuit = self.program.circuit
        self.width = width
        self.num_words = words_per_width(width)
        self.mask = (1 << width) - 1
        self.delay_model = delay_model or FanoutDelay()
        # The facade passes its already-computed (memoized) schedule so the
        # model is quantized exactly once per program; standalone users get
        # the same schedule through the program memo.
        if schedule is None:
            schedule = self.program.delay_schedule(self.delay_model)
        self.gate_delays = list(schedule.delays)
        self.tick = schedule.tick
        self.node_capacitance = node_capacitance_array(self.program, node_capacitance)
        self._classes = self.program.capacitance_classes(self.node_capacitance)
        self._mask_words = lane_mask_words(width)
        self._partial_last_word = bool(width % 64)

        num_nets = circuit.num_nets
        num_words = self.num_words
        # Two virtual rows behind the real nets: an all-ones row (AND-group
        # fan-in padding) and an all-zeros row (OR/XOR-group padding).  The
        # program's padded fan-in tables reference exactly these row ids.
        self._row_one = self.program.row_one
        self._row_zero = self.program.row_zero
        self._flat = np.zeros((num_nets + 2) * num_words, dtype=np.uint64)
        self.words = self._flat[: num_nets * num_words].reshape(num_nets, num_words)
        self._flat[self._row_one * num_words : (self._row_one + 1) * num_words] = self._mask_words

        self._latch_q_rows = np.asarray(circuit.latch_q, dtype=np.intp)
        self._latch_d_rows = np.asarray(circuit.latch_d, dtype=np.intp)
        self._input_rows = np.asarray(circuit.primary_inputs, dtype=np.intp)

        self._adopt_program_tables(schedule)
        self._native_eval = self._build_native_eval()

        self._counts = np.zeros(num_nets, dtype=np.int64)
        # Per-(net, lane) transition counts of the cycle in flight.  uint16
        # keeps the per-event scatter-add memory traffic low (a net toggling
        # 65k times within one cycle is far beyond any acyclic cascade); only
        # rows touched by events are written and re-zeroed, tracked in
        # `_touched_rows`.
        self._lane_counts = np.zeros((num_nets, width), dtype=np.uint16)
        self._touched_rows: list[np.ndarray] = []
        self._wheel: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._times: list[int] = []

        self._settled = False
        self.cycles_simulated = 0
        self.reset()

    # --------------------------------------------------------------- schedules
    def _adopt_program_tables(self, schedule) -> None:
        """Bind the program's shared gate/fan-out tables and this model's ticks.

        Everything here is read-only shared state from the
        :class:`~repro.circuits.program.CircuitProgram`; the only array built
        locally is the width-dependent flat gather index.
        """
        program = self.program
        num_words = self.num_words
        word_span = np.arange(num_words, dtype=np.intp)

        self._gate_op = program.gate_op
        self._gate_invert = program.gate_invert
        self._gate_out = program.gate_out
        self._gate_tick = schedule.ticks
        self._gate_level = program.gate_level
        self._const_rows = program.const_rows
        self._max_arity = program.max_arity
        self._in_ptr = program.in_ptr
        self._in_rows = program.in_rows
        #: With no zero-delay gate anywhere there can be no intra-instant
        #: cascade, so each instant's frontier is evaluated in one batch
        #: instead of level by level (the hot path for realistic delay models).
        self._any_zero_ticks = schedule.any_zero_ticks
        self._gate_gather = (program.padded_rows[:, :, None] * num_words + word_span).reshape(
            len(self.circuit.gates), -1
        )
        #: Non-const gate ids grouped by level, ascending — the full-sweep
        #: schedule used by :meth:`settle`.
        self._levels_all = program.levels_all
        self._fanout_ptr = program.fanout_ptr
        self._fanout_idx = program.fanout_idx

    def _build_native_eval(self):
        kernel = _native.load_kernel()
        if kernel is None:
            return None
        flat = self._flat
        num_words = int(self.num_words)
        invert_flag = np.where(self._gate_invert != 0, _native.OP_INVERT, 0)
        ops_invert = (self._gate_op | invert_flag).astype(np.uint8)
        in_ptr = self._in_ptr
        in_rows = self._in_rows
        mask = self._mask_words
        # Keep every table alive on the instance; the closure passes the
        # varying frontier/output arrays per call.
        self._native_tables = (ops_invert, in_ptr, in_rows, mask)

        def evaluate(gate_ids: np.ndarray, out: np.ndarray) -> None:
            kernel.ed_eval(
                flat, num_words, gate_ids, gate_ids.size, ops_invert, in_ptr, in_rows, mask, out
            )

        return evaluate

    # ------------------------------------------------------------------- state
    def reset(self, latch_state: int | Sequence[int] | None = None) -> None:
        """Reset all nets to 0, load *latch_state* into the flip-flops, clear counters."""
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
        self._counts[:] = 0
        self._lane_counts[:] = 0
        self._touched_rows.clear()
        self.cycles_simulated = 0
        self._settled = False

    def randomize_state(self, rng: RandomSource = None) -> None:
        """Load an independent uniform-random state into every latch of every lane.

        Draws the same RNG stream as the vectorized zero-delay engine (one
        ``integers(0, 2, size=width)`` call per latch).
        """
        generator = spawn_rng(rng)
        for row in self._latch_q_rows:
            bits = generator.integers(0, 2, size=self.width, dtype="uint8")
            self.words[row] = bits_to_words(bits, self.num_words)
        self._settled = False

    def load_settled_state(self, values) -> None:
        """Adopt an externally settled network (zero-delay words or packed ints)."""
        if isinstance(values, np.ndarray) and values.dtype == np.uint64:
            if values.shape != self.words.shape:
                raise ValueError(
                    f"expected settled words of shape {self.words.shape}, got {values.shape}"
                )
            np.copyto(self.words, values)
            if self._partial_last_word:
                self.words &= self._mask_words
        else:
            if len(values) != self.circuit.num_nets:
                raise ValueError(
                    f"expected {self.circuit.num_nets} net values, got {len(values)}"
                )
            for row, value in enumerate(values):
                self.words[row] = pack_int_to_words(int(value) & self.mask, self.num_words)
        self._settled = True

    def get_state(self) -> dict:
        """Snapshot the word matrix and counters (checkpoint support; owns its storage)."""
        return {
            "backend": "numpy",
            "words": self.words.copy(),
            "transition_counts": self._counts.copy(),
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
        self._counts[:] = state["transition_counts"]
        self._settled = state["settled"]
        self.cycles_simulated = state["cycles"]

    @property
    def values(self) -> list[int]:
        """Current net values as lane-packed integers (scalar-compatible view)."""
        return [unpack_words_to_int(self.words[row]) for row in range(self.circuit.num_nets)]

    @property
    def transition_counts(self) -> np.ndarray:
        """Per-net transition count since the last reset, summed over lanes."""
        return self._counts

    def latch_state_scalar(self, lane: int = 0) -> int:
        """Return the state of one lane as an integer (bit *i* = latch *i*)."""
        word, bit = divmod(lane, 64)
        state = 0
        for i, row in enumerate(self._latch_q_rows):
            state |= ((int(self.words[row, word]) >> bit) & 1) << i
        return state

    def net_value(self, name: str, lane: int = 0) -> int:
        """Return the current settled value (0/1) of net *name* in *lane*."""
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

    def _evaluate_gates(self, gates: np.ndarray) -> np.ndarray:
        """Re-evaluate *gates* (sorted non-const ids); return their ``(len(gates), W)`` words."""
        out = np.empty((gates.size, self.num_words), dtype=np.uint64)
        if self._native_eval is not None:
            self._native_eval(gates, out)
            return out
        flat = self._flat
        ops = self._gate_op[gates]
        for opcode, reducer in _REDUCERS.items():
            member = ops == opcode
            if not member.any():
                continue
            selected = gates[member]
            gathered = flat[self._gate_gather[selected]].reshape(
                selected.size, self._max_arity, self.num_words
            )
            acc = reducer.reduce(gathered, axis=1)
            invert = self._gate_invert[selected]
            if invert.any():
                np.bitwise_xor(acc, invert[:, None], out=acc)
                if self._partial_last_word:
                    np.bitwise_and(acc, self._mask_words, out=acc)
            out[member] = acc
        return out

    def settle(self, pattern) -> None:
        """Drive *pattern*, settle the logic with one full sweep, count nothing."""
        self._apply_inputs(pattern)
        self._full_sweep()
        self._settled = True

    def _apply_inputs(self, pattern) -> None:
        words = self._pattern_words(pattern)
        self.words[self._input_rows] = words

    def _full_sweep(self) -> None:
        for level_gates in self._levels_all:
            outs = self._evaluate_gates(level_gates)
            self.words[self._gate_out[level_gates]] = outs

    # ----------------------------------------------------------------- cycle
    def _schedule(self, time: int, rows: np.ndarray, vals: np.ndarray) -> None:
        bucket = self._wheel.get(time)
        if bucket is None:
            self._wheel[time] = bucket = []
            heapq.heappush(self._times, time)
        bucket.append((rows, vals))

    def _fanout_of(self, rows: np.ndarray) -> np.ndarray:
        """Gate ids reading any of *rows* (duplicates possible, unique'd later)."""
        ptr = self._fanout_ptr
        counts = ptr[rows + 1] - ptr[rows]
        total = int(counts.sum())
        if total == 0:
            return self._fanout_idx[:0]
        base = np.repeat(ptr[rows] - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        return self._fanout_idx[base + np.arange(total, dtype=np.int64)]

    def _apply_rows(self, rows: np.ndarray, vals: np.ndarray) -> np.ndarray | None:
        """Apply scheduled values; return the rows whose value changed (``None`` if none).

        Counts per-net and per-``(net, lane)`` transitions.
        """
        diff = self.words[rows] ^ vals
        changed = diff.any(axis=1)
        if not changed.any():
            return None
        rows_changed = rows[changed]
        diff_changed = diff[changed]
        self.words[rows_changed] = vals[changed]
        self._counts[rows_changed] += np.bitwise_count(diff_changed).sum(axis=1, dtype=np.int64)
        bits = np.unpackbits(
            np.ascontiguousarray(diff_changed).view(np.uint8).reshape(rows_changed.size, -1),
            axis=1,
            bitorder="little",
        )
        self._lane_counts[rows_changed] += bits[:, : self.width]
        self._touched_rows.append(rows_changed)
        return rows_changed

    def _push_levels(self, buckets: dict[int, list], gates: np.ndarray) -> None:
        levels = self._gate_level[gates]
        for level in np.unique(levels):
            buckets.setdefault(int(level), []).append(gates[levels == level])

    def _schedule_outputs(
        self, time: int, gates: np.ndarray, outs: np.ndarray, ticks: np.ndarray
    ) -> None:
        """Schedule each gate's output words ``ticks`` after *time*, one batch per delay."""
        for tick_delay in np.unique(ticks):
            member = ticks == tick_delay
            # Boolean indexing copies, so the scheduled batch owns its rows.
            self._schedule(
                time + int(tick_delay),
                self._gate_out[gates[member]],
                outs if member.all() else outs[member],
            )

    def _run_instant(self, time: int) -> None:
        batches = self._wheel.pop(time)
        # Each output row is scheduled at most once per instant, so the
        # instant's batches merge into a single apply pass.
        if len(batches) == 1:
            rows, vals = batches[0]
        else:
            rows = np.concatenate([batch[0] for batch in batches])
            vals = np.concatenate([batch[1] for batch in batches])
        changed_rows = self._apply_rows(rows, vals)
        if changed_rows is None:
            return
        frontier = self._fanout_of(changed_rows)
        if frontier.size == 0:
            return
        if not self._any_zero_ticks:
            # Purely positive delays: no same-instant cascade is possible, so
            # the whole frontier evaluates as one batch and every output is
            # scheduled — the per-level worklist below exists only for
            # zero-delay gates.
            gates = np.unique(frontier)
            self._schedule_outputs(time, gates, self._evaluate_gates(gates), self._gate_tick[gates])
            return
        buckets: dict[int, list] = {}
        self._push_levels(buckets, frontier)
        while buckets:
            level = min(buckets)
            arrays = buckets.pop(level)
            gates = np.unique(arrays[0] if len(arrays) == 1 else np.concatenate(arrays))
            outs = self._evaluate_gates(gates)
            ticks = self._gate_tick[gates]
            zero = ticks == 0
            if zero.any():
                applied = self._apply_rows(self._gate_out[gates[zero]], outs[zero])
                if applied is not None:
                    cascade = self._fanout_of(applied)
                    if cascade.size:
                        self._push_levels(buckets, cascade)
            delayed = ~zero
            if delayed.any():
                self._schedule_outputs(time, gates[delayed], outs[delayed], ticks[delayed])

    def cycle_lanes(self, pattern) -> np.ndarray:
        """Simulate one clock cycle; return each lane's switched capacitance.

        Mirrors the scalar backend cycle: clock edge (latches capture the
        settled D values), new input pattern, event-driven propagation over
        the integer time wheel until quiescence.  Entry *k* of the result is
        the capacitance-weighted transition count of chain *k*, glitches
        included.
        """
        return self._classes.lane_energies(self._cycle_class_counts(pattern))

    def cycle(self, pattern) -> float:
        """Simulate one clock cycle; return the switched capacitance summed over lanes."""
        return self._classes.energy(self._cycle_class_counts(pattern).sum(axis=1))

    def _cycle_class_counts(self, pattern) -> np.ndarray:
        """Run one cycle; return its ``(num_classes, width)`` transition counts."""
        pattern_words = self._pattern_words(pattern)
        if not self._settled:
            self._full_sweep()
            self._settled = True

        captured = self.words[self._latch_d_rows].copy()

        seed_rows = [self._latch_q_rows.astype(np.int64), self._input_rows.astype(np.int64)]
        seed_vals = [captured, pattern_words]
        rows = np.concatenate(seed_rows)
        vals = (
            np.concatenate(seed_vals)
            if rows.size
            else np.empty((0, self.num_words), dtype=np.uint64)
        )
        if rows.size:
            self._schedule(0, rows, vals)

        while self._times:
            self._run_instant(heapq.heappop(self._times))

        self.cycles_simulated += 1
        counts = self._classes.lane_counts(self._lane_counts)
        for touched in self._touched_rows:
            self._lane_counts[touched] = 0
        self._touched_rows.clear()
        return counts

    def run(self, patterns: Sequence) -> list[float]:
        """Simulate one cycle per pattern; return per-cycle lane-summed energies."""
        return [self.cycle(pattern) for pattern in patterns]

    # ------------------------------------------------------------- statistics
    def total_transitions(self) -> int:
        """Total transitions counted since the last reset, over all lanes."""
        return int(self._counts.sum())

    def transition_density(self) -> np.ndarray:
        """Average transitions per cycle *per lane* for every net (float64)."""
        if self.cycles_simulated == 0:
            return np.zeros(self.circuit.num_nets, dtype=np.float64)
        return self._counts / float(self.cycles_simulated * self.width)
