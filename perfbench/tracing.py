"""Outside-in tracing of one benchmark pass.

:meth:`Tracer.install` wraps each layer's public entry points (``TARGETS``)
from this file; nothing under ``src/`` changes.  Every call records a span
(name, start, end, parent span, job) in flat arrays, so a pass with a few
hundred thousand cycles stays small in memory; :meth:`Tracer.write` saves
them when the run ends.  A span's self time is its duration minus the
duration of its child spans.

The wrappers only run in the benchmark process: forked shard workers switch
tracing off, and the ``repro serve`` process is never traced (both wait for
spans inside the program).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_SHARDED = "repro.core.sharded_sampler"
_STIMULUS_ENTRY = ("next_pattern", "next_bits", "next_bits_block", "next_pattern_words")


def _event_span(engine) -> str:
    return f"simulation.ed_measure.w{engine.engine.width}"


#: (module, class or None, attribute, span name(s)).  A tuple of names opens
#: nested spans, outermost first; a callable derives the name from ``self``.
#: Entry points missing from the program (renamed or deleted) are skipped.
TARGETS = (
    ("repro.api.jobs", "JobSpec", "build_estimator", "api.build"),
    ("repro.circuits.iscas89", None, "build_circuit", "circuits.build"),
    ("repro.circuits.program", "CircuitProgram", "of", "circuits.program"),
    ("repro.core.dipe", "DipeEstimator", "run", "dipe.run"),
    ("repro.core.dipe", None, "select_independence_interval", "interval.select"),
    ("repro.core.dipe", None, "draw_sample_block", "sampler.draw"),
    ("repro.core.interval", None, "runs_test_on_values", "stats.runs_test"),
    ("repro.core.sampler", "PowerSampler", "prepare", "sampler.warmup"),
    ("repro.core.sampler", "PowerSampler", "collect_sequence", "sampler.collect"),
    ("repro.core.batch_sampler", "BatchPowerSampler", "prepare", "sampler.warmup"),
    ("repro.core.batch_sampler", "BatchPowerSampler", "collect_sequence", "sampler.collect"),
    (_SHARDED, "ShardedPowerSampler", "__init__", "shard.spawn"),
    (_SHARDED, "ShardedPowerSampler", "prepare", ("sampler.warmup", "shard.round")),
    (_SHARDED, "ShardedPowerSampler", "collect_sequence", ("sampler.collect", "shard.round")),
    (_SHARDED, "ShardedPowerSampler", "sample_block", "shard.round"),
    # The pool's shutdown runs from a finalizer when run_job drops the sampler.
    (_SHARDED, None, "_shutdown_pool", "shard.close"),
    *(("repro.stimulus.base", "Stimulus", name, "stimulus") for name in _STIMULUS_ENTRY),
    ("repro.stimulus.random_inputs", "BernoulliStimulus", "next_bits", "stimulus"),
    ("repro.stimulus.random_inputs", "BernoulliStimulus", "next_bits_block", "stimulus"),
    ("repro.simulation.zero_delay", "ZeroDelaySimulator", "step", "simulation.zd_step"),
    ("repro.simulation.zero_delay", "ZeroDelaySimulator", "settle", "simulation.zd_settle"),
    ("repro.simulation.power_engines", "ZeroDelayPowerEngine", "measure_lanes",
     "simulation.zd_measure"),
    ("repro.simulation.power_engines", "ZeroDelayPowerEngine", "measure_total",
     "simulation.zd_measure"),
    ("repro.simulation.power_engines", "EventDrivenPowerEngine", "measure_lanes", _event_span),
    ("repro.simulation.power_engines", "EventDrivenPowerEngine", "measure_total", _event_span),
    ("repro.stats.stopping.base", "StoppingCriterion", "evaluate", "stats.stop_check"),
    ("repro.stats.stopping.grouped", "GroupedStoppingCriterion", "evaluate", "stats.stop_check"),
)


class _Spans:
    """One thread's spans, in flat arrays, plus its stack of open spans."""

    def __init__(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_job = -1


class Tracer:
    """In-memory span recorder; one per traced pass.

    Each thread records into its own :class:`_Spans`, so recording takes no
    lock; :meth:`arrays` concatenates them when the pass is over.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self.enabled = True
        self._local = threading.local()
        self._threads: list[_Spans] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object, bool]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    # ------------------------------------------------------------------ spans
    def _spans(self) -> _Spans:
        try:
            return self._local.spans
        except AttributeError:
            spans = self._local.spans = _Spans()
            with self._lock:
                self._threads.append(spans)
            return spans

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _open(self, name_id: int) -> int:
        spans = self._spans()
        index = len(spans.start)
        spans.name_id.append(name_id)
        spans.parent.append(spans.stack[-1] if spans.stack else -1)
        spans.job.append(spans.current_job)
        spans.end.append(0.0)
        spans.stack.append(index)
        spans.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        spans = self._spans()
        spans.end[index] = end
        if spans.stack and spans.stack[-1] == index:
            spans.stack.pop()
        elif index in spans.stack:
            spans.stack.remove(index)

    def span(self, name: str) -> int:
        """Open a span under the calling thread's innermost open span."""
        return self._open(self.name_id(name))

    close = _close

    def begin_job(self, job: int, name: str = "api.run_job") -> int:
        self._spans().current_job = job
        return self.span(name)

    def end_job(self, index: int) -> None:
        self._close(index)
        self._spans().current_job = -1

    # --------------------------------------------------------------- wrappers
    def _wrap(self, func, names):
        tracer = self
        if callable(names):

            def open_spans(args) -> list[int]:
                return [tracer.span(names(args[0]))]

        elif len(names) == 1:
            (only,) = [self.name_id(name) for name in names]
            if not inspect.isgeneratorfunction(func):

                @functools.wraps(func)
                def traced(*args, **kwargs):
                    if not tracer.enabled:
                        return func(*args, **kwargs)
                    index = tracer._open(only)
                    try:
                        return func(*args, **kwargs)
                    finally:
                        tracer._close(index)

                traced.__traced_original__ = func
                return traced

            def open_spans(args) -> list[int]:
                return [tracer._open(only)]

        else:
            ids = [self.name_id(name) for name in names]

            def open_spans(args) -> list[int]:
                return [tracer._open(name_id) for name_id in ids]

        def close_spans(opened: list[int]) -> None:
            for index in reversed(opened):
                tracer._close(index)

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def traced(*args, **kwargs):
                opened = open_spans(args) if tracer.enabled else []
                try:
                    return (yield from func(*args, **kwargs))
                finally:
                    close_spans(opened)

        else:

            @functools.wraps(func)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return func(*args, **kwargs)
                opened = open_spans(args)
                try:
                    return func(*args, **kwargs)
                finally:
                    close_spans(opened)

        traced.__traced_original__ = func
        return traced

    def _count_incidents(self, func):
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            incidents = func(*args, **kwargs)
            for incident in incidents:
                tracer.counts[f"shard.incident.{incident.get('kind')}"] += 1
            return incidents

        counted.__traced_original__ = func
        return counted

    def install(self) -> None:
        """Wrap every entry point in ``TARGETS`` (plus the shard incident feed)."""
        self.skipped = []
        incidents = (_SHARDED, "ShardedPowerSampler", "take_fault_incidents", None)
        for module_name, class_name, attribute, names in (*TARGETS, incidents):
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                current = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.skipped.append(f"{module_name}:{class_name}.{attribute}")
                continue
            own = attribute in vars(owner)
            raw = vars(owner)[attribute] if own else current
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if kind is not None else raw
            func = getattr(func, "__traced_original__", func)
            if names is None:
                wrapped = self._count_incidents(func)
            else:
                wrapped = self._wrap(func, (names,) if isinstance(names, str) else names)
            setattr(owner, attribute, kind(wrapped) if kind is not None else wrapped)
            self._restore.append((owner, attribute, raw, own))

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attribute, raw, own in reversed(self._restore):
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)
        self._restore.clear()

    # ---------------------------------------------------------------- results
    def arrays(self) -> dict[str, np.ndarray]:
        """All threads' spans, concatenated; parents index into the result."""
        parts: dict[str, list[np.ndarray]] = {
            key: [] for key in ("name_id", "parent", "job", "start", "end")
        }
        offset = 0
        for spans in self._threads:
            parent = np.frombuffer(spans.parent, dtype=np.int32)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1).astype(np.int32))
            parts["name_id"].append(np.frombuffer(spans.name_id, dtype=np.int32))
            parts["job"].append(np.frombuffer(spans.job, dtype=np.int32))
            parts["start"].append(np.frombuffer(spans.start, dtype=np.float64))
            parts["end"].append(np.frombuffer(spans.end, dtype=np.float64))
            offset += len(spans.start)
        return {
            key: np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int32)
            for key, chunks in parts.items()
        }

    def write(self, path: Path) -> None:
        """Save spans (npz) and counts (json) side by side."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path.with_suffix(".npz"), names=np.array(self.names), **self.arrays())
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "counts": dict(self.counts),
                        "skipped": self.skipped,
                        "spans": sum(len(spans.start) for spans in self._threads)}, indent=1)
        )


class SpanTable:
    """Durations and self times of a tracer's spans, summed by name."""

    def __init__(self, tracer: Tracer) -> None:
        data = tracer.arrays()
        self.names = tracer.names
        self.name = data["name_id"]
        self.duration = data["end"] - data["start"]
        parent = data["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(parent)
        )
        self.self_time = self.duration - child_time
        self.parent_name = np.where(has_parent, self.name[np.maximum(parent, 0)], -1)

    def _mask(self, family: str | tuple[str, ...], outermost: bool = False) -> np.ndarray:
        """Spans named *family* (a name or names) or ``<name>.<anything>``."""
        family = (family,) if isinstance(family, str) else family
        ids = [
            i for i, name in enumerate(self.names)
            if any(name == f or name.startswith(f + ".") for f in family)
        ]
        mask = np.isin(self.name, ids)
        if outermost:
            mask &= ~np.isin(self.parent_name, ids)
        return mask

    def total(self, family, outermost: bool = False) -> float:
        return float(self.duration[self._mask(family, outermost)].sum())

    def self_total(self, family) -> float:
        return float(self.self_time[self._mask(family)].sum())

    def count(self, family, outermost: bool = False) -> int:
        return int(self._mask(family, outermost).sum())

    def coverage(self, job_span: str) -> float:
        """Share of job time spent inside named layer spans below the job span."""
        jobs = self._mask(job_span)
        total = self.duration[jobs].sum()
        return float((total - self.self_time[jobs].sum()) / total) if total > 0 else 0.0
