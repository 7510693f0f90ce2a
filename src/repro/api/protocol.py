"""Shared driver machinery of the incremental estimator protocol.

Every estimator kind implements ``run()`` — a generator of
:class:`~repro.api.events.ProgressEvent` objects ending in an
:class:`~repro.api.events.EstimateCompleted`.  :class:`StreamingEstimator`
holds the one copy of everything built on top of that contract: the
``estimate()`` / ``estimate_from()`` drivers, checkpoint creation, and
checkpoint validation on resume.  Concrete estimators only implement
``run()`` and maintain ``self._samples`` / ``self._interval_result`` /
``self._elapsed_seconds`` while streaming.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.api.checkpoint import RunCheckpoint
from repro.api.events import EstimateCompleted, ProgressEvent

if TYPE_CHECKING:  # import would be circular at runtime (repro.core imports this)
    from repro.core.results import IntervalSelectionResult

ProgressCallback = Callable[[ProgressEvent], None]


class StreamingEstimator:
    """Base class of estimators that execute as progress-event streams.

    Subclasses implement :meth:`run` (and set ``method``); the drivers,
    checkpointing and resume validation below are shared.  Estimators that
    stream must expose ``self.circuit`` (with a ``name``) and
    ``self.sampler`` (with ``get_state``/``set_state``), and keep the
    in-flight attributes below current while ``run()`` executes.
    """

    #: Method string recorded in results, events and checkpoints.
    method: str = "abstract"

    # In-flight state maintained by run(); class-level defaults mean "no run
    # in progress".  ``_samples`` is the growing sample (the built-in
    # estimators keep it in a :class:`~repro.stats.sample_buffer.SampleBuffer`).
    _samples: Iterable[float] | None = None
    _interval_result: "IntervalSelectionResult | None" = None
    _elapsed_seconds: float = 0.0

    def run(self, resume_from: RunCheckpoint | None = None) -> Iterator[ProgressEvent]:
        """Execute incrementally, yielding progress events (subclass hook)."""
        raise NotImplementedError

    # ---------------------------------------------------------------- drivers
    def estimate(self, progress: ProgressCallback | None = None) -> Any:
        """Drive :meth:`run` to completion and return the final estimate."""
        return self._drive(self.run(), progress)

    def estimate_from(
        self, checkpoint: RunCheckpoint, progress: ProgressCallback | None = None
    ) -> Any:
        """Resume a checkpointed run to completion and return its estimate."""
        return self._drive(self.run(resume_from=checkpoint), progress)

    @staticmethod
    def _drive(stream: Iterator[ProgressEvent], progress: ProgressCallback | None) -> Any:
        final: ProgressEvent | None = None
        for event in stream:
            if progress is not None:
                progress(event)
            final = event
        if not isinstance(final, EstimateCompleted):
            raise RuntimeError("estimator stream ended without an EstimateCompleted event")
        return final.estimate

    # ------------------------------------------------------------ checkpoints
    def make_checkpoint(self) -> RunCheckpoint:
        """Freeze the in-flight run (valid between :meth:`run` events)."""
        if self._samples is None:
            raise RuntimeError(
                "no run in progress: checkpoints can only be taken between "
                "events of an active run() stream"
            )
        return RunCheckpoint(
            method=self.method,
            circuit_name=self.circuit.name,
            samples=tuple(self._samples),
            interval_selection=self._interval_result,
            sampler_state=self.sampler.get_state(),
            elapsed_seconds=self._elapsed_seconds,
        )

    def _validate_checkpoint(self, checkpoint: RunCheckpoint) -> None:
        """Reject checkpoints taken by a different estimator kind or circuit."""
        if checkpoint.method != self.method:
            raise ValueError(
                f"checkpoint was taken by {checkpoint.method!r}, not {self.method!r}"
            )
        if checkpoint.circuit_name != self.circuit.name:
            raise ValueError(
                f"checkpoint belongs to circuit {checkpoint.circuit_name!r}, "
                f"not {self.circuit.name!r}"
            )
