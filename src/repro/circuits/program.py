"""Unified circuit lowering: one cached :class:`CircuitProgram` per netlist.

Simulation touches every gate on every clock cycle, so each engine needs the
same family of dense tables over the compiled circuit — level-grouped
operation tables, padded fan-in gather matrices, fan-out CSR adjacency,
quantized delay schedules, capacitance vectors.  Before this module existed,
every engine rebuilt those tables privately at construction time, which
duplicated the lowering code and paid the compile cost once per simulator
instance — once per *worker* in the sharded sampling pool and once per *job*
in the batch runner.

:class:`CircuitProgram` is the single, canonical lowering:

* **Width-independent.**  Everything here depends only on the circuit
  structure, never on the lane count, so one program serves a width-1 state
  engine and a width-4096 Monte Carlo ensemble alike.  The only
  width-dependent artefacts (flat gather/scatter index vectors) are derived
  from the program's row tables by the engines with one vectorized
  multiply-add.
* **Content-addressed.**  :func:`circuit_content_key` hashes the full
  structural identity (net names, gates, latches, port lists), so two loads
  of the same netlist — in the same process or on different machines — map
  to the same program.
* **Cached at two levels.**  An in-process memo keyed by content hash (also
  attached to the :class:`~repro.simulation.compiled.CompiledCircuit`
  instance itself, so repeated engine construction is a dictionary lookup),
  plus an optional on-disk pickle cache in the directory named by the
  ``REPRO_PROGRAM_CACHE`` environment variable.  Sharded workers receive the
  parent's prebuilt program through the process boundary and batch-runner
  workers cache-hit on disk, so neither recompiles per shard or per job.
* **Derived schedules memoized.**  Per-delay-model quantized tick schedules
  (:meth:`CircuitProgram.delay_schedule`), per-capacitance-model node
  vectors (:meth:`CircuitProgram.capacitances`) and their capacitance class
  tables (:meth:`CircuitProgram.capacitance_classes`) are computed once per
  program and shared by every engine built on it.

Optional structural optimization passes (dead-net sweep, fanout-free
buffer/inverter collapse) live behind :meth:`CircuitProgram.optimize`.  They
are **off by default** — they preserve the primary-output and latch behaviour
bit for bit (pinned by property tests) but change the net set, so switched-
capacitance totals are no longer comparable with the unoptimized circuit.

The disk cache stores pickled programs.  It is a private, local cache (a
work directory or a CI cache volume), not an interchange format: do not
point ``REPRO_PROGRAM_CACHE`` at untrusted data.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.netlist.cell_library import GateType
from repro.netlist.netlist import Netlist
from repro.simulation._native import OP_AND, OP_INVERT, OP_OR, OP_XOR
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.delay_models import DelayModel, quantize_delays

__all__ = [
    "CapacitanceClasses",
    "CircuitProgram",
    "DelaySchedule",
    "GateGroupPlan",
    "PROGRAM_CACHE_ENV",
    "circuit_content_key",
    "clear_program_memo",
    "compile_count",
    "program_cache_dir",
]

#: Environment variable naming the on-disk program cache directory.  Unset
#: (the default) disables the disk cache; the in-process memo always runs.
PROGRAM_CACHE_ENV = "REPRO_PROGRAM_CACHE"

#: Bumped whenever the lowered table layout changes; stale cache files from
#: older layouts are ignored rather than mis-read.
_FORMAT_VERSION = 2

#: Reduction kind per gate type: (opcode, output inverted).  This is *the*
#: opcode mapping — both vectorized engines and the native kernels consume
#: tables built from it.
GATE_OPS: dict[GateType, tuple[int, bool]] = {
    GateType.AND: (OP_AND, False),
    GateType.NAND: (OP_AND, True),
    GateType.OR: (OP_OR, False),
    GateType.NOR: (OP_OR, True),
    GateType.XOR: (OP_XOR, False),
    GateType.XNOR: (OP_XOR, True),
    GateType.BUFF: (OP_AND, False),
    GateType.NOT: (OP_AND, True),
}

_CONST_TYPES = (GateType.CONST0, GateType.CONST1)
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_MEMO: dict[str, "CircuitProgram"] = {}
_MEMO_LOCK = threading.Lock()
_COMPILE_COUNT = 0

#: Attribute under which a compiled circuit remembers its program, so the
#: common path (many engines over one circuit object) is one getattr.
_CIRCUIT_ATTR = "_repro_program"


def compile_count() -> int:
    """Number of full lowerings performed by this process (cache misses).

    The startup benchmark asserts on this: building a sharded pool or a batch
    of engines over one circuit must raise it by exactly one.
    """
    return _COMPILE_COUNT


def clear_program_memo() -> None:
    """Drop the in-process program memo (testing/benchmark support).

    Programs already attached to live circuit objects stay attached; the
    on-disk cache is untouched.
    """
    with _MEMO_LOCK:
        _MEMO.clear()


def program_cache_dir() -> Path | None:
    """The on-disk cache directory (from ``REPRO_PROGRAM_CACHE``), or ``None``."""
    value = os.environ.get(PROGRAM_CACHE_ENV, "").strip()
    return Path(value) if value else None


def circuit_content_key(circuit: CompiledCircuit) -> str:
    """Stable content hash of a compiled circuit's full structural identity.

    Covers everything the lowered tables and name-based lookups depend on:
    net names (and therefore dense ids), port lists, latches with init
    values, and the topologically ordered gate list.  Equal circuits hash
    equal across processes and machines; the hash never involves Python's
    randomized ``hash()``.
    """
    digest = hashlib.sha256()
    digest.update(f"repro-program/v{_FORMAT_VERSION}\n".encode())
    digest.update(f"name={circuit.name}\n".encode())
    digest.update(("nets=" + "\x1f".join(circuit.net_names) + "\n").encode())
    for label, ids in (
        ("pi", circuit.primary_inputs),
        ("po", circuit.primary_outputs),
        ("lq", circuit.latch_q),
        ("ld", circuit.latch_d),
        ("li", circuit.latch_init),
    ):
        digest.update(f"{label}={','.join(map(str, ids))}\n".encode())
    for gate in circuit.gates:
        digest.update(
            f"g={gate.gate_type.value}:{gate.output}:{','.join(map(str, gate.inputs))}\n".encode()
        )
    return digest.hexdigest()[:24]


@dataclass(eq=False)
class GateGroupPlan:
    """One (level, opcode) group of the zero-delay grouped-ufunc sweep.

    ``rows`` is the ``(gates, arity)`` fan-in row matrix, padded with the
    program's virtual all-ones/all-zeros rows to the group's widest arity;
    ``outs`` the output rows; ``out_invert`` a ``(gates, 1)`` uint64 XOR mask
    (``None`` when no member inverts).  Width-dependent gather/scatter index
    vectors are derived from these by the engine.
    """

    opcode: int
    rows: np.ndarray
    outs: np.ndarray
    out_invert: np.ndarray | None


@dataclass(eq=False)
class DelaySchedule:
    """A delay model quantized onto the shared integer tick base.

    ``ticks[i] * tick == delays[i]`` for every gate *i* (up to the rational
    approximation of :func:`~repro.simulation.delay_models.quantize_delays`);
    ``any_zero_ticks`` reports whether any non-constant gate switches within
    its instant, which selects the event engines' cascade strategy.
    """

    delays: tuple[float, ...]
    ticks: np.ndarray
    tick: float
    any_zero_ticks: bool


class CapacitanceClasses:
    """The distinct values of one per-net capacitance vector.

    Every engine counts toggles per ``(class, lane)`` in integers and turns
    the counts into switched capacitance with :meth:`lane_energies` or
    :meth:`energy`, which add the per-class products in one fixed order
    (ascending capacitance).  A lane's float therefore depends only on its
    own toggle counts: not on the engine, the event order, or which other
    lanes share the call.  That is what makes a lane subset (a shard, or
    lane 0 alone) reproduce the full ensemble bit for bit.

    Attributes
    ----------
    values:
        ``(num_classes,)`` float64 class capacitances, ascending.
    net_class:
        ``(num_nets,)`` int64 class index of every net.
    order / starts:
        Nets sorted by class, and the offset of each class in that order
        (the :func:`numpy.add.reduceat` segments of :meth:`lane_counts`).
    class_list:
        :attr:`net_class` as Python ints, for the pure-Python engines.
    """

    def __init__(self, capacitance: np.ndarray):
        values, net_class = np.unique(capacitance, return_inverse=True)
        self.values = values
        self.net_class = net_class.astype(np.int64).reshape(-1)
        self.order = np.argsort(self.net_class, kind="stable")
        self.starts = np.searchsorted(self.net_class[self.order], np.arange(values.size))
        self.class_list = self.net_class.tolist()
        self._value_list = values.tolist()

    def lane_counts(self, per_net: np.ndarray) -> np.ndarray:
        """Sum ``(num_nets, lanes)`` integer counts into ``(num_classes, lanes)`` int64."""
        return np.add.reduceat(per_net[self.order], self.starts, axis=0, dtype=np.int64)

    def totals(self, per_net) -> np.ndarray:
        """Sum ``(num_nets,)`` counts into per-class totals (exact integers)."""
        return np.bincount(self.net_class, weights=per_net, minlength=self.values.size)

    def lane_energies(self, counts: np.ndarray) -> np.ndarray:
        """Switched capacitance per lane from ``(num_classes, lanes)`` counts.

        ``cumsum`` along the class axis adds the products strictly in class
        order, lane by lane — the same sequence of roundings as
        :meth:`energy` performs for one lane.
        """
        return np.cumsum(self.values[:, None] * counts, axis=0)[-1]

    def energy(self, counts) -> float:
        """Switched capacitance of one set of per-class counts."""
        if isinstance(counts, np.ndarray):
            counts = counts.tolist()
        total = 0.0
        for value, count in zip(self._value_list, counts):
            if count:
                total += value * count
        return total


class CircuitProgram:
    """The canonical, width-independent lowering of one compiled circuit.

    Build through :meth:`CircuitProgram.of` (memoized + disk-cached), not the
    constructor.  All tables are read-only shared state: engines must never
    mutate them.

    Attributes
    ----------
    circuit:
        The compiled circuit this program lowers.
    key:
        Content hash (:func:`circuit_content_key`) — the cache key.
    row_one / row_zero:
        Ids of the two virtual padding rows engines append behind the real
        nets (all-ones for AND-group padding, all-zeros for OR/XOR).
    gate_level:
        int64 logic level per gate (1-based; inputs/latches are level 0).
    levels_all:
        Non-constant gate ids grouped by level, ascending — the full-sweep
        schedule.
    gate_op / gate_invert / gate_out:
        Per-gate opcode (uint8), output-invert mask (uint64) and output row
        (intp); constants carry opcode 0.
    non_const:
        Boolean mask of non-constant gates.
    const_rows:
        ``(output_row, is_one)`` per constant gate.
    padded_rows / max_arity:
        ``(num_gates, max_arity)`` fan-in row matrix padded per gate with the
        opcode's neutral virtual row.
    in_ptr / in_rows:
        CSR fan-in over *all* gates (constants empty) — the event kernels'
        table.
    sweep_ops / sweep_out_rows / sweep_in_ptr / sweep_in_rows:
        CSR fan-in over non-constant gates only, opcodes carrying the invert
        flag — the zero-delay native kernel's table.
    fanout_ptr / fanout_idx:
        CSR of gate ids reading each net.
    level_groups:
        :class:`GateGroupPlan` list for the grouped-numpy zero-delay sweep.
    """

    def __init__(self, circuit: CompiledCircuit, key: str | None = None):
        self.circuit = circuit
        self.key = key if key is not None else circuit_content_key(circuit)
        self._delay_schedules: dict = {}
        self._capacitances: dict = {}
        self._capacitance_classes: dict = {}
        self._lower()

    # ------------------------------------------------------------------ build
    @classmethod
    def of(cls, source: "CircuitProgram | CompiledCircuit") -> "CircuitProgram":
        """Return the program of *source*, building it at most once.

        Accepts a program (returned as-is) or a compiled circuit.  Resolution
        order: the circuit's attached program, the in-process memo, the
        on-disk cache, and only then a fresh lowering (which is then stored
        at every level).
        """
        if isinstance(source, CircuitProgram):
            return source
        if not isinstance(source, CompiledCircuit):
            raise TypeError(
                f"expected a CompiledCircuit or CircuitProgram, got {type(source).__name__}"
            )
        program = source.__dict__.get(_CIRCUIT_ATTR)
        if program is not None:
            return program
        key = circuit_content_key(source)
        with _MEMO_LOCK:
            program = _MEMO.get(key)
        if program is None:
            program = cls._load_from_disk(key)
        if program is None:
            program = cls(source, key=key)
            program._store_to_disk()
        with _MEMO_LOCK:
            program = _MEMO.setdefault(key, program)
        source.__dict__[_CIRCUIT_ATTR] = program
        return program

    @classmethod
    def from_netlist(cls, netlist: Netlist, validate: bool = True) -> "CircuitProgram":
        """Compile *netlist* and return its (cached) program."""
        return cls.of(CompiledCircuit.from_netlist(netlist, validate=validate))

    def _lower(self) -> None:
        """Build every width-independent table (the one true lowering)."""
        global _COMPILE_COUNT
        _COMPILE_COUNT += 1
        circuit = self.circuit
        gates = circuit.gates
        num_gates = len(gates)
        num_nets = circuit.num_nets
        self.row_one = num_nets
        self.row_zero = num_nets + 1

        # Logic level per gate: 1 + deepest fan-in level (nets default 0).
        net_level = [0] * num_nets
        gate_levels = []
        for gate in gates:
            level = max((net_level[src] for src in gate.inputs), default=0) + 1
            net_level[gate.output] = level
            gate_levels.append(level)
        self.gate_level = np.asarray(gate_levels, dtype=np.int64)

        self.gate_op = np.zeros(num_gates, dtype=np.uint8)
        self.gate_invert = np.zeros(num_gates, dtype=np.uint64)
        self.gate_out = np.zeros(num_gates, dtype=np.intp)
        self.non_const = np.ones(num_gates, dtype=bool)
        self.const_rows: list[tuple[int, bool]] = []

        real_arities = [len(g.inputs) for g in gates if g.gate_type not in _CONST_TYPES]
        self.max_arity = max(real_arities, default=1)
        padded_rows = np.full((num_gates, self.max_arity), self.row_zero, dtype=np.intp)

        in_ptr = np.zeros(num_gates + 1, dtype=np.int64)
        in_rows: list[int] = []
        levels_non_const: dict[int, list[int]] = {}
        buckets: dict[tuple[int, int], list[tuple[int, bool]]] = {}
        for index, gate in enumerate(gates):
            self.gate_out[index] = gate.output
            if gate.gate_type in _CONST_TYPES:
                self.non_const[index] = False
                self.const_rows.append((gate.output, gate.gate_type is GateType.CONST1))
                in_ptr[index + 1] = len(in_rows)
                continue
            opcode, inverted = GATE_OPS[gate.gate_type]
            self.gate_op[index] = opcode
            if inverted:
                self.gate_invert[index] = _ALL_ONES
            pad_row = self.row_one if opcode == OP_AND else self.row_zero
            padded_rows[index, :] = pad_row
            padded_rows[index, : len(gate.inputs)] = gate.inputs
            in_rows.extend(gate.inputs)
            in_ptr[index + 1] = len(in_rows)
            levels_non_const.setdefault(gate_levels[index], []).append(index)
            buckets.setdefault((gate_levels[index], opcode), []).append((index, inverted))

        self.padded_rows = padded_rows
        self.in_ptr = in_ptr
        self.in_rows = np.asarray(in_rows, dtype=np.int64)
        self.levels_all = [
            np.asarray(levels_non_const[level], dtype=np.int64)
            for level in sorted(levels_non_const)
        ]

        # Grouped-sweep plan: one (level, opcode) unit per gather/reduce/
        # scatter pass, members in gate order, padded to the group's arity.
        groups: list[GateGroupPlan] = []
        for (_, opcode), members in sorted(buckets.items()):
            arity = max(len(gates[index].inputs) for index, _ in members)
            pad_row = self.row_one if opcode == OP_AND else self.row_zero
            rows = np.full((len(members), arity), pad_row, dtype=np.intp)
            outs = np.empty(len(members), dtype=np.intp)
            out_invert = np.zeros((len(members), 1), dtype=np.uint64)
            any_invert = False
            for position, (index, inverted) in enumerate(members):
                gate = gates[index]
                rows[position, : len(gate.inputs)] = gate.inputs
                outs[position] = gate.output
                if inverted:
                    out_invert[position, 0] = _ALL_ONES
                    any_invert = True
            groups.append(
                GateGroupPlan(
                    opcode=opcode,
                    rows=rows,
                    outs=outs,
                    out_invert=out_invert if any_invert else None,
                )
            )
        self.level_groups = groups

        # Flat gate list for the native zero-delay sweep (non-const only,
        # invert folded into the opcode byte).
        sweep_gates = [gate for gate in gates if gate.gate_type not in _CONST_TYPES]
        self.sweep_ops = np.empty(len(sweep_gates), dtype=np.uint8)
        self.sweep_out_rows = np.empty(len(sweep_gates), dtype=np.int64)
        sweep_in_ptr = np.zeros(len(sweep_gates) + 1, dtype=np.int64)
        sweep_in_rows: list[int] = []
        for index, gate in enumerate(sweep_gates):
            opcode, inverted = GATE_OPS[gate.gate_type]
            self.sweep_ops[index] = opcode | (OP_INVERT if inverted else 0)
            self.sweep_out_rows[index] = gate.output
            sweep_in_rows.extend(gate.inputs)
            sweep_in_ptr[index + 1] = len(sweep_in_rows)
        self.sweep_in_ptr = sweep_in_ptr
        self.sweep_in_rows = np.asarray(sweep_in_rows, dtype=np.int64)
        self.num_sweep_gates = len(sweep_gates)

        # Fan-out CSR: gate ids reading each net.
        fanout = circuit.fanout_gates
        fanout_ptr = np.zeros(num_nets + 1, dtype=np.int64)
        fanout_idx: list[int] = []
        for net, gate_ids in enumerate(fanout):
            fanout_idx.extend(gate_ids)
            fanout_ptr[net + 1] = len(fanout_idx)
        self.fanout_ptr = fanout_ptr
        self.fanout_idx = np.asarray(fanout_idx, dtype=np.int64)

    # ------------------------------------------------------------ disk cache
    @classmethod
    def _cache_path(cls, key: str) -> Path | None:
        directory = program_cache_dir()
        if directory is None:
            return None
        return directory / f"{key}.v{_FORMAT_VERSION}.program"

    @classmethod
    def _load_from_disk(cls, key: str) -> "CircuitProgram | None":
        path = cls._cache_path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as stream:
                program = pickle.load(stream)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            return None
        if not isinstance(program, CircuitProgram) or program.key != key:
            return None
        return program

    def _store_to_disk(self) -> None:
        path = self._cache_path(self.key)
        if path is None:
            return
        temp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temp, "wb") as stream:
                pickle.dump(self, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp, path)
        except Exception:  # noqa: BLE001 — the disk cache is best-effort only;
            # e.g. a memoized custom model holding an unpicklable member must
            # not break in-process use, which never needs picklability.
            try:
                temp.unlink(missing_ok=True)
            except OSError:
                pass

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        # The circuit's backref (when present) would drag a second program
        # copy through the pickle; the unpickled program re-attaches itself.
        circuit_state = dict(state["circuit"].__dict__)
        circuit_state.pop(_CIRCUIT_ATTR, None)
        clone = CompiledCircuit.__new__(CompiledCircuit)
        clone.__dict__.update(circuit_state)
        state["circuit"] = clone
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.circuit.__dict__[_CIRCUIT_ATTR] = self

    # --------------------------------------------------------- derived plans
    def delay_schedule(self, delay_model: "DelayModel | str") -> DelaySchedule:
        """Quantized integer-tick schedule of *delay_model*, memoized.

        Accepts a :class:`~repro.simulation.delay_models.DelayModel` instance
        or a registry name (``"fanout"``, ``"unit"``, ...).  Instances are
        memoized by their computed delay vector, names additionally by name,
        so repeated engine construction shares one quantization.
        """
        if isinstance(delay_model, str):
            name_key = ("name", delay_model.strip().lower())
            schedule = self._delay_schedules.get(name_key)
            if schedule is None:
                from repro.simulation.delay_models import make_delay_model

                schedule = self.delay_schedule(make_delay_model(delay_model))
                self._delay_schedules[name_key] = schedule
            return schedule
        delays = tuple(float(delay) for delay in delay_model.delays(self.circuit))
        key = ("delays", delays)
        schedule = self._delay_schedules.get(key)
        if schedule is None:
            tick_list, tick = quantize_delays(list(delays))
            ticks = np.asarray(tick_list, dtype=np.int64)
            any_zero = bool((ticks[self.non_const] == 0).any()) if ticks.size else False
            schedule = DelaySchedule(delays=delays, ticks=ticks, tick=tick, any_zero_ticks=any_zero)
            self._delay_schedules[key] = schedule
            # Quantization is the expensive derived plan (one rational
            # approximation per gate); refresh the disk entry so cache hits
            # in other processes deserialize it instead of recomputing.
            self._store_to_disk()
        return schedule

    def capacitances(self, capacitance_model) -> np.ndarray:
        """Per-net capacitance vector of *capacitance_model*, memoized.

        Returns one shared float64 array per (program, model) pair — callers
        must treat it as read-only.
        """
        values = self._capacitances.get(capacitance_model)
        if values is None:
            values = np.asarray(capacitance_model.node_capacitances(self.circuit), dtype=np.float64)
            values.setflags(write=False)
            self._capacitances[capacitance_model] = values
            self._store_to_disk()
        return values

    def capacitance_classes(
        self, node_capacitance: Sequence[float] | np.ndarray | None
    ) -> CapacitanceClasses:
        """The :class:`CapacitanceClasses` of a per-net vector, memoized by value.

        ``None`` means unit weights (toggle counting), as for the engines.
        """
        capacitance = node_capacitance_array(self, node_capacitance)
        key = capacitance.tobytes()
        classes = self._capacitance_classes.get(key)
        if classes is None:
            classes = self._capacitance_classes[key] = CapacitanceClasses(capacitance)
        return classes

    # ----------------------------------------------------------- optimization
    def optimize(
        self, *, dead_net_sweep: bool = True, collapse_buffers: bool = True
    ) -> "CircuitProgram":
        """Return a program for a structurally optimized copy of the circuit.

        Two passes, both preserving primary-output and latch behaviour bit
        for bit (pinned by property tests):

        * **buffer/inverter collapse** — BUFF gates forward their input net
          to their sinks; NOT gates reading a fanout-free NOT collapse the
          pair to the original signal.  Gates whose output is a primary
          output keep driving it.
        * **dead-net sweep** — gates whose output reaches no primary output
          and no latch data pin (transitively) are removed.

        The optimized circuit has fewer nets, so per-net quantities
        (capacitance totals, transition densities) are not comparable with
        the original — which is why these passes are opt-in and never applied
        implicitly.  The original program is untouched.
        """
        netlist = _circuit_to_netlist(self.circuit)
        if collapse_buffers:
            netlist = _collapse_buffers(netlist)
        if dead_net_sweep:
            netlist = _sweep_dead_nets(netlist)
        return CircuitProgram.of(CompiledCircuit.from_netlist(netlist))

    # ------------------------------------------------------------------ query
    def gates_per_level(self) -> list[int]:
        """Number of non-constant gates at each logic level, ascending."""
        return [int(level_gates.size) for level_gates in self.levels_all]

    def stats(self) -> dict:
        """Summary statistics of the lowering (the ``repro compile`` payload)."""
        circuit = self.circuit
        return {
            "circuit": circuit.name,
            "key": self.key,
            "nets": circuit.num_nets,
            "gates": circuit.num_gates,
            "latches": circuit.num_latches,
            "inputs": circuit.num_inputs,
            "outputs": len(circuit.primary_outputs),
            "const_gates": len(self.const_rows),
            "levels": len(self.levels_all),
            "gates_per_level": self.gates_per_level(),
            "max_arity": int(self.max_arity),
            "fanin_entries": int(self.in_rows.size),
            "fanout_entries": int(self.fanout_idx.size),
            "sweep_groups": len(self.level_groups),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitProgram({self.circuit.name!r}, key={self.key!r}, "
            f"gates={self.circuit.num_gates}, levels={len(self.levels_all)})"
        )


# ------------------------------------------------------- optimization passes
def _circuit_to_netlist(circuit: CompiledCircuit) -> Netlist:
    """Rebuild the structural netlist of a compiled circuit (names preserved)."""
    names = circuit.net_names
    netlist = Netlist(name=circuit.name)
    for pi in circuit.primary_inputs:
        netlist.add_input(names[pi])
    for po in circuit.primary_outputs:
        netlist.add_output(names[po])
    for gate in circuit.gates:
        netlist.add_gate(names[gate.output], gate.gate_type, [names[src] for src in gate.inputs])
    for q_id, d_id, init in zip(circuit.latch_q, circuit.latch_d, circuit.latch_init):
        netlist.add_latch(names[q_id], names[d_id], init)
    return netlist


def _sink_counts(netlist: Netlist) -> dict[str, int]:
    counts: dict[str, int] = {}
    for gate in netlist.gates:
        for src in gate.inputs:
            counts[src] = counts.get(src, 0) + 1
    for latch in netlist.latches:
        counts[latch.data] = counts.get(latch.data, 0) + 1
    for po in netlist.primary_outputs:
        counts[po] = counts.get(po, 0) + 1
    return counts


def _collapse_buffers(netlist: Netlist) -> Netlist:
    """Collapse BUFF gates and fanout-free NOT-NOT pairs onto their sources."""
    po_set = set(netlist.primary_outputs)
    drivers = {gate.output: gate for gate in netlist.gates}
    sinks = _sink_counts(netlist)

    alias: dict[str, str] = {}
    for gate in netlist.gates:
        if gate.gate_type is GateType.BUFF and gate.output not in po_set:
            alias[gate.output] = gate.inputs[0]
    for gate in netlist.gates:
        if gate.gate_type is not GateType.NOT or gate.output in po_set:
            continue
        inner = drivers.get(gate.inputs[0])
        if (
            inner is not None
            and inner.gate_type is GateType.NOT
            and inner.output not in po_set
            and sinks.get(inner.output, 0) == 1
        ):
            alias[gate.output] = inner.inputs[0]

    if not alias:
        return netlist

    def resolve(name: str) -> str:
        seen = set()
        while name in alias and name not in seen:
            seen.add(name)
            name = alias[name]
        return name

    rewritten = Netlist(name=netlist.name)
    for pi in netlist.primary_inputs:
        rewritten.add_input(pi)
    for po in netlist.primary_outputs:
        rewritten.add_output(po)
    for gate in netlist.gates:
        if gate.output in alias:
            continue
        rewritten.add_gate(gate.output, gate.gate_type, [resolve(src) for src in gate.inputs])
    for latch in netlist.latches:
        rewritten.add_latch(latch.output, resolve(latch.data), latch.init_value)
    return rewritten


def _sweep_dead_nets(netlist: Netlist) -> Netlist:
    """Drop gates whose output reaches no primary output or latch data pin."""
    drivers = {gate.output: gate for gate in netlist.gates}
    live: set[str] = set()
    frontier: list[str] = list(netlist.primary_outputs)
    frontier.extend(latch.data for latch in netlist.latches)
    while frontier:
        name = frontier.pop()
        if name in live:
            continue
        live.add(name)
        gate = drivers.get(name)
        if gate is not None:
            frontier.extend(gate.inputs)

    swept = Netlist(name=netlist.name)
    for pi in netlist.primary_inputs:
        swept.add_input(pi)
    for po in netlist.primary_outputs:
        swept.add_output(po)
    for gate in netlist.gates:
        if gate.output in live:
            swept.add_gate(gate.output, gate.gate_type, gate.inputs)
    for latch in netlist.latches:
        swept.add_latch(latch.output, latch.data, latch.init_value)
    return swept


def as_compiled_circuit(source) -> CompiledCircuit:
    """Normalise a circuit-like argument to a :class:`CompiledCircuit`.

    Estimator entry points accept a structural :class:`Netlist`, a
    :class:`CompiledCircuit` or a prebuilt :class:`CircuitProgram`; this is
    the one shared coercion.
    """
    if isinstance(source, CircuitProgram):
        return source.circuit
    if isinstance(source, Netlist):
        return CompiledCircuit.from_netlist(source)
    if isinstance(source, CompiledCircuit):
        return source
    raise TypeError(
        f"expected a Netlist, CompiledCircuit or CircuitProgram, got {type(source).__name__}"
    )


def node_capacitance_array(
    program: CircuitProgram, node_capacitance: Sequence[float] | np.ndarray | None
) -> np.ndarray:
    """Normalise an engine's ``node_capacitance`` argument to a float64 vector.

    ``None`` means unit weights (toggle counting).  Length mismatches raise
    the same ``ValueError`` every engine used to raise privately.
    """
    num_nets = program.circuit.num_nets
    if node_capacitance is None:
        return np.ones(num_nets, dtype=np.float64)
    if len(node_capacitance) != num_nets:
        raise ValueError(
            "node_capacitance must have one entry per net "
            f"({num_nets}), got {len(node_capacitance)}"
        )
    return np.asarray(node_capacitance, dtype=np.float64)
