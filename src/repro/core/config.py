"""Configuration of a DIPE estimation run.

The defaults reproduce the experimental setup of the paper's Section V:
significance level 0.20 for the runs test, a randomness-test sequence length
of 320, a maximum error of 5 % at 0.99 confidence, and the
distribution-independent (order-statistics) stopping criterion.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.power.capacitance import CapacitanceModel
from repro.power.power_model import PowerModel

#: The built-in power-measurement engines.  Kept for backwards compatibility;
#: validation goes through the extensible simulator registry in
#: :mod:`repro.api.registry`, so names registered by plugins are accepted too.
POWER_SIMULATORS = ("zero-delay", "event-driven")

#: The paper's built-in stopping criteria.  Kept for backwards compatibility;
#: validation goes through the extensible registry in
#: :mod:`repro.api.registry`, so names registered by plugins are accepted too.
STOPPING_CRITERIA = ("order-statistic", "clt", "ks")

#: Simulator backends accepted by :class:`EstimationConfig`.  (The retired
#: ``"compiled"`` backend of release 1.3 was bit-identical to ``"numpy"`` and
#: is mapped onto it, with a ``DeprecationWarning``.)
SIMULATION_BACKENDS = ("auto", "bigint", "numpy")


@dataclass(frozen=True)
class EstimationConfig:
    """All knobs of a DIPE run (paper defaults).

    Attributes
    ----------
    significance_level:
        Significance level of the runs test used for interval selection
        (paper: 0.20).
    randomness_sequence_length:
        Length of the power sequence collected per interval trial
        (paper: 320 — "the gain in statistical stability ... is marginal if
        it is any longer").
    max_independence_interval:
        Upper bound on the trial interval; the sequential procedure gives up
        (and keeps the last trial) beyond it.
    max_relative_error:
        Accuracy specification: maximum half-width of the confidence interval
        relative to the estimate (paper: 0.05).
    confidence:
        Required confidence of the final estimate (paper: 0.99).
    stopping_criterion:
        ``"order-statistic"`` (the paper's distribution-independent choice),
        ``"clt"`` or ``"ks"``.
    min_samples:
        Smallest sample size at which stopping is allowed.
    check_interval:
        The stopping criterion is evaluated every this many new samples
        (the paper's reported sample sizes are multiples of 32).
    max_samples:
        Hard cap on the sample size (guards against a mis-specified accuracy
        target never being reached).
    warmup_cycles:
        Clock cycles simulated before any statistics are collected, so the
        state process is (approximately) stationary when sampling starts.
    power_simulator:
        Power-measurement engine, as a string key from the simulator
        registry: ``"zero-delay"`` measures functional transitions only;
        ``"event-driven"`` uses the general-delay simulator and therefore
        includes glitch power (slower).  Names registered through
        :func:`repro.api.registry.register_simulator` are accepted too.
    delay_model:
        Gate delay model of the event-driven power simulator, as a string
        key from the delay-model registry (``"fanout"``, ``"unit"``,
        ``"type-table"``, ``"zero"``, or any registered plugin name).
        Ignored by the zero-delay power simulator.
    num_chains:
        Number of independent Monte Carlo chains advanced in lock-step by the
        bit-parallel simulator.  1 reproduces the paper's single-chain flow;
        larger values use the multi-chain batch sampler, which amortises
        every gate sweep over all chains.  Composes with both power engines:
        the event-driven engine re-simulates the sampled cycle for all
        chains at once through its vectorized time wheel.
    adaptive_chains:
        When ``True`` the batch sampler resizes the chain ensemble between
        sample batches, consulting the stopping criterion's running accuracy
        to predict how many more samples the run needs (grow while far from
        the target, shrink as it closes in).  Resizes re-warm the new
        ensemble, so the estimate stays unbiased; the sampled trajectory
        necessarily differs from a fixed-chain run.
    max_chains:
        Upper bound on the ensemble width adaptive scaling may grow to
        (ignored when ``adaptive_chains`` is off).
    adaptive_time_aware:
        When ``True`` (and ``adaptive_chains`` is on), the resize policy also
        consults the measured wall-clock seconds per sweep and sizes the
        ensemble so one sampling batch targets ``adaptive_target_seconds`` of
        work — wide ensembles on fast circuits, narrow ones on slow circuits.
        Off by default; when off, no timing is measured and the sampled
        trajectory is bit-identical to earlier releases.
    adaptive_target_seconds:
        Wall-clock budget per sampling batch the time-aware policy aims for
        (ignored unless ``adaptive_time_aware`` is on).
    num_workers:
        Number of worker processes the chain ensemble is sharded across.
        1 (the default) keeps all chains in-process; larger values use
        :class:`~repro.core.sharded_sampler.ShardedPowerSampler`, which
        partitions the chains over a persistent pool of processes while
        producing stopping decisions, checkpoints and estimates
        draw-for-draw identical to the in-process sampler with the same
        ``num_chains`` — worker count changes wall-clock time, never
        results.
    worker_max_restarts:
        How many consecutive respawn-and-replay recoveries the shard
        supervisor attempts for one worker seat within a single collect
        round before declaring the seat unrecoverable.  Past the budget the
        seat degrades to a clean in-process replica and the pool
        re-partitions onto the surviving workers at the next round boundary.
        Recovery never changes results — merged samples stay draw-for-draw
        identical to the fault-free run.
    worker_hang_timeout:
        Seconds a shard worker may go without making progress (no reply and
        no heartbeat advance) before the supervisor declares it hung, kills
        it and recovers.  Must comfortably exceed the longest single shard
        command; the heartbeat only advances between commands.
    worker_retry_backoff:
        Base of the exponential backoff (seconds) between consecutive
        respawns of the same worker seat: attempt *n* waits a full-jitter
        draw from ``[0, worker_retry_backoff * 2**(n-1)]``, capped at 2 s.
        The jitter comes from a dedicated parent-owned RNG stream (never
        the run RNG), so seeded runs stay reproducible while simultaneous
        seat deaths stop respawning in lockstep.
    worker_hosts:
        ``"host:port"`` address the shard pool's
        :class:`~repro.core.transport.ShardCoordinator` listens on for
        remote TCP shard workers (started with ``repro shard-worker
        --connect``).  ``None`` (the default) keeps the pool on local
        process pipes.  The ``REPRO_SHARD_HOSTS`` environment variable
        provides the same address ambiently.  Results are draw-for-draw
        identical for any topology — local, remote, or a mid-run mix.
    worker_auth_token:
        Shared secret remote workers must present in their join handshake
        (compared with ``hmac.compare_digest``).  Falls back to the
        ``REPRO_SHARD_TOKEN`` environment variable when empty.  The
        post-handshake wire format is pickle, so treat the token as a
        secret and only deploy on trusted networks.
    worker_join_timeout:
        Seconds the pool waits for remote workers: at construction, for
        ``num_workers`` members to join; during recovery, for a
        replacement member to acquire a failed seat (past it the seat
        degrades to a clean in-process replica, like a failed process
        spawn).
    shard_sync_interval:
        The supervisor truncates each shard's replay log to a fresh state
        snapshot every this many collect rounds (checkpoints truncate for
        free).  Smaller values bound recovery replay and parent memory
        tighter at the cost of more ``get_state`` round trips.
    simulation_backend:
        Lane-storage backend of the zero-delay simulator: ``"bigint"``
        (Python integers), ``"numpy"`` (word-sliced uint64 arrays) or
        ``"auto"`` (numpy whenever the native kernel loads; without it,
        bigint for narrow ensembles).  The event-driven power engine picks
        its scalar or vectorized backend from the chain count.
    power_model / capacitance_model:
        Electrical models; defaults are the paper's 5 V / 20 MHz operating
        point and the default standard-cell capacitance values.
    """

    significance_level: float = 0.20
    randomness_sequence_length: int = 320
    max_independence_interval: int = 64
    max_relative_error: float = 0.05
    confidence: float = 0.99
    stopping_criterion: str = "order-statistic"
    min_samples: int = 128
    check_interval: int = 32
    max_samples: int = 200_000
    warmup_cycles: int = 64
    power_simulator: str = "zero-delay"
    delay_model: str = "fanout"
    num_chains: int = 1
    adaptive_chains: bool = False
    max_chains: int = 1024
    adaptive_time_aware: bool = False
    adaptive_target_seconds: float = 2.0
    num_workers: int = 1
    worker_max_restarts: int = 3
    worker_hang_timeout: float = 120.0
    worker_retry_backoff: float = 0.05
    worker_hosts: str | None = None
    worker_auth_token: str = ""
    worker_join_timeout: float = 30.0
    shard_sync_interval: int = 16
    simulation_backend: str = "auto"
    power_model: PowerModel = field(default_factory=PowerModel)
    capacitance_model: CapacitanceModel = field(default_factory=CapacitanceModel)

    def __post_init__(self) -> None:
        if not 0.0 < self.significance_level < 1.0:
            raise ValueError("significance_level must lie strictly between 0 and 1")
        if self.randomness_sequence_length < 16:
            raise ValueError("randomness_sequence_length must be at least 16")
        if self.max_independence_interval < 0:
            raise ValueError("max_independence_interval must be non-negative")
        if not 0.0 < self.max_relative_error < 1.0:
            raise ValueError("max_relative_error must lie strictly between 0 and 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        # Imported lazily: repro.api.jobs imports this module, so a top-level
        # import of the registry package would be circular.
        from repro.api.registry import STOPPING_CRITERION_REGISTRY

        if self.stopping_criterion not in STOPPING_CRITERION_REGISTRY:
            raise ValueError(
                f"stopping_criterion must be one of "
                f"{STOPPING_CRITERION_REGISTRY.names()}, "
                f"got {self.stopping_criterion!r}"
            )
        if self.min_samples < 2:
            raise ValueError("min_samples must be at least 2")
        if self.check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        if self.max_samples < self.min_samples:
            raise ValueError("max_samples must be at least min_samples")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be non-negative")
        from repro.api.registry import SIMULATOR_REGISTRY

        if self.power_simulator not in SIMULATOR_REGISTRY:
            raise ValueError(
                f"power_simulator must be one of {SIMULATOR_REGISTRY.names()}, "
                f"got {self.power_simulator!r}"
            )
        from repro.api.registry import DELAY_MODEL_REGISTRY

        if self.delay_model not in DELAY_MODEL_REGISTRY:
            raise ValueError(
                f"delay_model must be one of {DELAY_MODEL_REGISTRY.names()}, "
                f"got {self.delay_model!r}"
            )
        if self.num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        if self.worker_max_restarts < 0:
            raise ValueError("worker_max_restarts must be non-negative")
        if self.worker_hang_timeout <= 0.0:
            raise ValueError("worker_hang_timeout must be positive")
        if self.worker_retry_backoff < 0.0:
            raise ValueError("worker_retry_backoff must be non-negative")
        if self.worker_hosts is not None:
            # Imported lazily like the registries above (transport sits under
            # repro.core, but keep config import-light regardless).
            from repro.core.transport import parse_address

            try:
                parse_address(self.worker_hosts)
            except ValueError as error:
                raise ValueError(f"worker_hosts must be 'host:port': {error}") from None
        if self.worker_join_timeout <= 0.0:
            raise ValueError("worker_join_timeout must be positive")
        if self.shard_sync_interval < 1:
            raise ValueError("shard_sync_interval must be at least 1")
        if self.num_chains < 1:
            raise ValueError("num_chains must be at least 1")
        if self.max_chains < 1:
            raise ValueError("max_chains must be at least 1")
        if self.adaptive_chains and self.max_chains < self.num_chains:
            raise ValueError(
                "adaptive chain scaling needs max_chains >= num_chains "
                f"(got max_chains={self.max_chains}, num_chains={self.num_chains})"
            )
        if self.adaptive_target_seconds <= 0.0:
            raise ValueError("adaptive_target_seconds must be positive")
        if self.simulation_backend == "compiled":
            warnings.warn(
                'simulation_backend="compiled" is retired; it was bit-identical to '
                '"numpy", which runs instead',
                DeprecationWarning,
                stacklevel=3,
            )
            object.__setattr__(self, "simulation_backend", "numpy")
        if self.simulation_backend not in SIMULATION_BACKENDS:
            raise ValueError(
                f"simulation_backend must be one of {SIMULATION_BACKENDS}, "
                f"got {self.simulation_backend!r}"
            )

    def paper_defaults(self) -> "EstimationConfig":
        """Return a copy with the exact statistical settings of the paper.

        Only the paper's statistical knobs are reset; execution choices
        (``power_simulator``, ``num_chains``, ``simulation_backend``) and the
        sampling-budget fields (``min_samples``, ``check_interval``,
        ``max_samples``, ``warmup_cycles``, ``max_independence_interval``)
        carry over unchanged.
        """
        return replace(
            self,
            significance_level=0.20,
            randomness_sequence_length=320,
            max_relative_error=0.05,
            confidence=0.99,
            stopping_criterion="order-statistic",
        )

    # ------------------------------------------------------------ serialization
    _MODEL_FIELDS = ("power_model", "capacitance_model")

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation; inverse of :meth:`from_dict` bit-for-bit."""
        data: dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name not in self._MODEL_FIELDS
        }
        data["power_model"] = {
            "vdd": self.power_model.vdd,
            "clock_frequency_hz": self.power_model.clock_frequency_hz,
        }
        data["capacitance_model"] = {
            f.name: getattr(self.capacitance_model, f.name) for f in fields(self.capacitance_model)
        }
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EstimationConfig":
        """Rebuild a configuration from :meth:`to_dict` output (partial dicts allowed)."""
        data = dict(data)
        power_model = data.pop("power_model", None)
        capacitance_model = data.pop("capacitance_model", None)
        return cls(
            **data,
            power_model=PowerModel(**power_model) if power_model is not None else PowerModel(),
            capacitance_model=(
                CapacitanceModel(**capacitance_model)
                if capacitance_model is not None
                else CapacitanceModel()
            ),
        )
