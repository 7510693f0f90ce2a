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

Two refinements ride on that invariant:

* **Wavefront compaction**: before re-evaluating the frontier, the pending
  XOR is inspected per value *word* (64 lanes); word columns whose pending
  XOR is all-zero carry no new event anywhere in their 64 lanes, so the
  evaluation, scheduling and apply passes of the instant are restricted to
  the still-active columns.  Glitch tails typically collapse onto a few
  lanes, so wide ensembles skip most of the value words of late instants.
  Disable with ``wavefront_compaction=False`` (the engine then always
  processes every word, as before) — results are bit-identical either way.
* **Exact lane energies**: transitions are counted as *integers* per
  ``(net, lane)`` during the cycle, summed per capacitance class when it
  ends, and converted to farads by
  :meth:`~repro.circuits.program.CapacitanceClasses.lane_energies`, which
  adds the class products in one fixed order, lane by lane.  (A float
  ``capacitance @ counts`` product is not enough: a BLAS ``gemv`` rounds
  each column differently depending on how many columns share the call.)
  So a lane's energy depends only on its own transitions — not on the
  event order, the width, or which other lanes share the engine — and it
  equals the scalar engine's value bit for bit.  That is what lets the
  process-sharded sampler split an ensemble across engine instances, and
  interval selection measure lane 0 alone, with bit-identical results.
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
        wavefront_compaction: bool = True,
        codegen: bool = False,
    ):
        # Imported lazily: the program module imports from repro.simulation.
        from repro.circuits.program import CircuitProgram, node_capacitance_array

        if width < 1:
            raise ValueError("width must be at least 1")
        self.wavefront_compaction = bool(wavefront_compaction)
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
        #: How gate frontiers evaluate: "codegen" (per-program generated C),
        #: "native" (generic C kernel) or "groups" (pure numpy); requesting
        #: codegen degrades down this chain when kernels are unavailable.
        self.eval_mode = "groups"
        self._cg_sweep = None
        self._native_eval = None
        if codegen:
            self._native_eval = self._build_codegen_eval()
        if self._native_eval is None:
            self._native_eval = self._build_native_eval()
            if self._native_eval is not None:
                self.eval_mode = "native"

        self._counts = np.zeros(num_nets, dtype=np.int64)
        # Per-(net, lane) transition counts of the cycle in flight.  uint16
        # keeps the per-event scatter-add memory traffic low (a net toggling
        # 65k times within one cycle is far beyond any acyclic cascade); only
        # rows touched by events are written and re-zeroed, tracked in
        # `_touched_rows`.
        self._lane_counts = np.zeros((num_nets, width), dtype=np.uint16)
        self._touched_rows: list[np.ndarray] = []
        self._wheel: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]] = {}
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
        self._padded_rows = program.padded_rows
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

    def _build_codegen_eval(self):
        # Imported lazily: codegen imports from this package at module scope.
        from repro.simulation import codegen

        kernel = codegen.load_program_kernel(self.program)
        if kernel is None:
            return None
        self.eval_mode = "codegen"
        # settle()'s full sweep can skip the frontier machinery entirely and
        # run the straight-line level schedule baked into the kernel.
        self._cg_sweep = codegen.bind_sweep(
            kernel, self._flat, int(self.num_words), self._mask_words
        )
        flat = self._flat
        num_words = int(self.num_words)
        mask = self._mask_words

        def evaluate(gate_ids: np.ndarray, out: np.ndarray, cols: np.ndarray | None) -> bool:
            if cols is None:
                kernel.cg_ed_eval(flat, num_words, gate_ids, gate_ids.size, mask, out)
            else:
                kernel.cg_ed_eval_cols(
                    flat, num_words, gate_ids, gate_ids.size, mask, cols, cols.size, out
                )
            return True

        return evaluate

    def _build_native_eval(self):
        kernel = _native.load_kernel()
        if kernel is None or not hasattr(kernel, "ed_eval"):
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
        has_cols = hasattr(kernel, "ed_eval_cols")

        def evaluate(gate_ids: np.ndarray, out: np.ndarray, cols: np.ndarray | None) -> bool:
            if cols is None:
                kernel.ed_eval(
                    flat, num_words, gate_ids, gate_ids.size, ops_invert, in_ptr, in_rows,
                    mask, out,
                )
                return True
            if not has_cols:
                return False
            kernel.ed_eval_cols(
                flat, num_words, gate_ids, gate_ids.size, ops_invert, in_ptr, in_rows,
                mask, cols, cols.size, out,
            )
            return True

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

    def _evaluate_gates(self, gates: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        """Re-evaluate *gates* (sorted non-const ids); return their output words.

        With ``cols=None`` all ``num_words`` value words are evaluated
        (shape ``(len(gates), num_words)``); otherwise only the given word
        columns (shape ``(len(gates), len(cols))``) — the wavefront-compacted
        path, where quiescent 64-lane words are skipped.
        """
        num_cols = self.num_words if cols is None else cols.size
        out = np.empty((gates.size, num_cols), dtype=np.uint64)
        if self._native_eval is not None and self._native_eval(gates, out, cols):
            return out
        flat = self._flat
        ops = self._gate_op[gates]
        mask = self._mask_words if cols is None else self._mask_words[cols]
        for opcode, reducer in _REDUCERS.items():
            member = ops == opcode
            if not member.any():
                continue
            selected = gates[member]
            if cols is None:
                gathered = flat[self._gate_gather[selected]].reshape(
                    selected.size, self._max_arity, self.num_words
                )
            else:
                gather = self._padded_rows[selected][:, :, None] * self.num_words + cols
                gathered = flat[gather.reshape(-1)].reshape(
                    selected.size, self._max_arity, num_cols
                )
            acc = reducer.reduce(gathered, axis=1)
            invert = self._gate_invert[selected]
            if invert.any():
                np.bitwise_xor(acc, invert[:, None], out=acc)
                if self._partial_last_word:
                    np.bitwise_and(acc, mask, out=acc)
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
        if self._cg_sweep is not None:
            self._cg_sweep()
            return
        for level_gates in self._levels_all:
            outs = self._evaluate_gates(level_gates)
            self.words[self._gate_out[level_gates]] = outs

    # ----------------------------------------------------------------- cycle
    def _schedule(
        self, time: int, rows: np.ndarray, vals: np.ndarray, cols: np.ndarray | None
    ) -> None:
        bucket = self._wheel.get(time)
        if bucket is None:
            self._wheel[time] = bucket = []
            heapq.heappush(self._times, time)
        bucket.append((rows, vals, cols))

    def _fanout_of(self, rows: np.ndarray) -> np.ndarray:
        """Gate ids reading any of *rows* (duplicates possible, unique'd later)."""
        ptr = self._fanout_ptr
        counts = ptr[rows + 1] - ptr[rows]
        total = int(counts.sum())
        if total == 0:
            return self._fanout_idx[:0]
        base = np.repeat(ptr[rows] - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
        return self._fanout_idx[base + np.arange(total, dtype=np.int64)]

    def _apply_rows(
        self, rows: np.ndarray, vals: np.ndarray, cols: np.ndarray | None
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Apply scheduled values restricted to word columns *cols* (``None`` = all).

        Counts per-net and per-``(net, lane)`` transitions and returns
        ``(changed_rows, active_cols)``: the rows whose value changed and the
        word columns in which any lane actually changed (``None`` when every
        column is still active).  Both are ``None`` when nothing changed.
        """
        if cols is None:
            current = self.words[rows]
        else:
            current = self.words[np.ix_(rows, cols)]
        diff = current ^ vals
        changed = diff.any(axis=1)
        if not changed.any():
            return None, None
        rows_changed = rows[changed]
        diff_changed = diff[changed]
        if cols is None:
            self.words[rows_changed] = vals[changed]
        else:
            self.words[np.ix_(rows_changed, cols)] = vals[changed]
        self._counts[rows_changed] += np.bitwise_count(diff_changed).sum(axis=1, dtype=np.int64)
        bits = np.unpackbits(
            np.ascontiguousarray(diff_changed).view(np.uint8).reshape(rows_changed.size, -1),
            axis=1,
            bitorder="little",
        )
        if cols is None:
            self._lane_counts[rows_changed] += bits[:, : self.width]
        else:
            for index, col in enumerate(cols):
                low = int(col) * 64
                high = min(self.width, low + 64)
                self._lane_counts[rows_changed, low:high] += bits[
                    :, index * 64 : index * 64 + (high - low)
                ]
        self._touched_rows.append(rows_changed)

        active: np.ndarray | None = None
        if self.wavefront_compaction and self.num_words >= 8:
            live = diff_changed.any(axis=0)
            # Restricting to a column subset trades slab indexing for fancy
            # indexing on every downstream pass, so the word count must be
            # substantial (>= 8 words, i.e. 512+ lanes) and at most an eighth
            # of the (remaining) words may still carry events before the
            # narrow path pays for itself.
            if 8 * int(live.sum()) <= live.size:
                active = (
                    np.flatnonzero(live) if cols is None else cols[live]
                ).astype(np.int64, copy=False)
        if active is None and cols is not None:
            active = cols
        return rows_changed, active

    def _push_levels(self, buckets: dict[int, list], gates: np.ndarray) -> None:
        levels = self._gate_level[gates]
        for level in np.unique(levels):
            buckets.setdefault(int(level), []).append(gates[levels == level])

    def _run_instant(self, time: int) -> None:
        batches = self._wheel.pop(time)
        # Each output row is scheduled at most once per instant, but batches
        # may carry different column subsets; batches sharing a column set
        # (the overwhelmingly common case — one instant usually schedules one
        # subset) merge into a single apply pass.
        changed: list[np.ndarray] = []
        col_sets: list[np.ndarray | None] = []
        if len(batches) == 1:
            groups = [(batches[0][2], [batches[0]])]
        else:
            grouped: dict = {}
            for batch in batches:
                cols = batch[2]
                key = None if cols is None else cols.tobytes()
                grouped.setdefault(key, (cols, []))[1].append(batch)
            groups = list(grouped.values())
        for cols, members in groups:
            if len(members) == 1:
                rows, vals = members[0][0], members[0][1]
            else:
                rows = np.concatenate([batch[0] for batch in members])
                vals = np.concatenate([batch[1] for batch in members])
            rows_changed, active = self._apply_rows(rows, vals, cols)
            if rows_changed is not None:
                changed.append(rows_changed)
                col_sets.append(active)
        if not changed:
            return
        changed_rows = changed[0] if len(changed) == 1 else np.concatenate(changed)
        # Word columns the instant's evaluation has to cover: the union of the
        # columns that actually changed.  None means every column is active
        # (the uncompacted fast path).
        if any(cols is None for cols in col_sets):
            eval_cols: np.ndarray | None = None
        else:
            eval_cols = (
                col_sets[0]
                if len(col_sets) == 1
                else np.unique(np.concatenate(col_sets))
            )
            if eval_cols.size == self.num_words:
                eval_cols = None
        frontier = self._fanout_of(changed_rows)
        if frontier.size == 0:
            return
        if not self._any_zero_ticks:
            # Purely positive delays: no same-instant cascade is possible, so
            # the whole frontier evaluates as one batch and every output is
            # scheduled — the per-level worklist below exists only for
            # zero-delay gates.
            gates = np.unique(frontier)
            outs = self._evaluate_gates(gates, eval_cols)
            ticks = self._gate_tick[gates]
            for tick_delay in np.unique(ticks):
                member = ticks == tick_delay
                # Boolean indexing copies, so the scheduled batch owns its rows.
                self._schedule(
                    time + int(tick_delay),
                    self._gate_out[gates[member]],
                    outs if member.all() else outs[member],
                    eval_cols,
                )
            return
        buckets: dict[int, list] = {}
        self._push_levels(buckets, frontier)
        while buckets:
            level = min(buckets)
            arrays = buckets.pop(level)
            gates = np.unique(arrays[0] if len(arrays) == 1 else np.concatenate(arrays))
            outs = self._evaluate_gates(gates, eval_cols)
            ticks = self._gate_tick[gates]
            zero = ticks == 0
            if zero.any():
                applied, _ = self._apply_rows(self._gate_out[gates[zero]], outs[zero], eval_cols)
                if applied is not None:
                    cascade = self._fanout_of(applied)
                    if cascade.size:
                        self._push_levels(buckets, cascade)
            delayed = ~zero
            if delayed.any():
                delayed_gates = gates[delayed]
                delayed_outs = outs[delayed]
                delayed_ticks = ticks[delayed]
                for tick_delay in np.unique(delayed_ticks):
                    member = delayed_ticks == tick_delay
                    self._schedule(
                        time + int(tick_delay),
                        self._gate_out[delayed_gates[member]],
                        delayed_outs[member],
                        eval_cols,
                    )

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
            self._schedule(0, rows, vals, None)

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
