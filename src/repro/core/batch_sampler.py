"""Multi-chain Monte Carlo power sampling on the vectorized simulators.

:class:`BatchPowerSampler` is the ensemble counterpart of
:class:`~repro.core.sampler.PowerSampler`: instead of one FSM trajectory it
advances ``num_chains`` statistically independent DIPE chains in lock-step,
one lane per chain, so a single gate sweep of the zero-delay simulator
produces ``num_chains`` power observations.  Every chain owns its own
stimulus stream (lane *k* of the vectorized stimulus draws), its own random
initial state and its own warm-up, so the chains are mutually independent and
each one is individually distributed exactly like a single-chain sampler run.

The two-phase sampling scheme of the paper carries over unchanged: during the
independence interval all chains are only *advanced* (cheap zero-delay
sweeps, no measurement); on the sampled cycle one lane-resolved measurement
yields one power sample per chain.  Both power engines are supported:

* ``power_simulator="zero-delay"`` measures the functional transitions of the
  sweep itself;
* ``power_simulator="event-driven"`` re-simulates the sampled cycle for all
  chains at once with the vectorized general-delay engine
  (:mod:`repro.simulation.vectorized_timing`), so glitch power rides the
  same lock-step ensemble.

The samples of consecutive measured cycles are interleaved chain-major into
the growing sample that feeds the stopping criteria — exchangeable,
independent draws from the same stationary power distribution.  Use
:meth:`BatchPowerSampler.sample_block` (or :func:`draw_sample_block`) to
collect a whole stopping-criterion batch without per-sample Python loops.

With ``num_chains=1`` the sampler consumes the RNG stream identically to
:class:`~repro.core.sampler.PowerSampler` and therefore reproduces its
samples one-for-one under a fixed seed (a property the test suite pins down
for both power engines).

**Adaptive chain scaling** (``EstimationConfig(adaptive_chains=True)``):
between sample batches, :meth:`plan_chain_resize` converts the stopping
criterion's running accuracy into the chain count that would finish the run
in a handful more measured sweeps, and :meth:`resize` rebuilds the lock-step
ensemble at that width.  Resized ensembles are re-randomised and re-warmed,
so every sample — before or after a resize — remains an independent draw
from the stationary power distribution.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.api.registry import get_simulator
from repro.circuits.program import CircuitProgram
from repro.core.config import EstimationConfig
from repro.core.sampler import PowerSampler
from repro.simulation.zero_delay import ZeroDelaySimulator
from repro.stats.stopping.base import StoppingDecision
from repro.stimulus.base import Stimulus
from repro.utils.rng import RandomSource, spawn_rng


def make_sampler(
    circuit,
    stimulus: Stimulus,
    config: EstimationConfig,
    rng: RandomSource = None,
) -> "PowerSampler | BatchPowerSampler":
    """Build the sampler the configuration asks for.

    ``num_workers > 1`` — or ``worker_hosts`` naming a coordinator address
    for remote TCP shard workers — selects the sharded sampler (which
    produces results draw-for-draw identical to the in-process one);
    ``num_chains > 1`` (or adaptive chain scaling, which needs a resizable
    ensemble) selects the multi-chain batch sampler; otherwise the
    single-chain two-phase sampler is used.  Every estimator dispatches
    through this single point so the selection rule cannot drift between
    them.
    """
    if config.num_workers > 1 or config.worker_hosts:
        # Imported lazily: the sharded sampler builds on this module.
        from repro.core.sharded_sampler import ShardedPowerSampler

        return ShardedPowerSampler(circuit, stimulus, config, rng=rng)
    if config.num_chains > 1 or config.adaptive_chains:
        return BatchPowerSampler(circuit, stimulus, config, rng=rng)
    return PowerSampler(circuit, stimulus, config, rng=rng)


def draw_samples(sampler: "PowerSampler | BatchPowerSampler", interval: int) -> list[float]:
    """Draw the next batch of power samples: one per chain, or a single one."""
    if isinstance(sampler, BatchPowerSampler):
        # ndarray.tolist() converts lanes to Python floats in C, replacing the
        # old per-sample Python comprehension on this hot path.
        return sampler.next_samples(interval).tolist()
    return [sampler.next_sample(interval)]


def draw_sample_block(
    sampler: "PowerSampler | BatchPowerSampler", interval: int, min_count: int
) -> list[float]:
    """Draw at least *min_count* new samples, chain-major interleaved.

    Draw-for-draw identical to calling :func:`draw_samples` in a loop until
    *min_count* samples accumulate (same RNG consumption, same sample order),
    but the interleaving of per-chain lanes into the flat sample happens as
    one vectorized reshape instead of a Python loop per batch.

    When the configuration enables the wall-clock-aware resize policy
    (``adaptive_chains`` plus ``adaptive_time_aware``), the batch is timed
    and fed to :meth:`BatchPowerSampler.note_sweep_seconds`; with the flag
    off, no clock is read at all, so disabled runs stay bit-identical.
    """
    if isinstance(sampler, BatchPowerSampler):
        config = sampler.config
        if config.adaptive_chains and config.adaptive_time_aware:
            start = time.perf_counter()
            block = sampler.sample_block(interval, min_count)
            sweeps = len(block) // max(1, sampler.num_chains)
            sampler.note_sweep_seconds(time.perf_counter() - start, sweeps)
            return block.tolist()
        return sampler.sample_block(interval, min_count).tolist()
    return [sampler.next_sample(interval) for _ in range(min_count)]


class BatchPowerSampler:
    """Generates per-cycle switched-capacitance observations for N chains at once.

    Parameters
    ----------
    circuit:
        Compiled circuit (or prebuilt
        :class:`~repro.circuits.program.CircuitProgram`) under estimation.
        Either way the sampler and every engine it builds — across resizes —
        share one cached program lowering.
    stimulus:
        Primary-input pattern generator; lane *k* of its draws drives chain *k*.
    config:
        Estimation configuration (either power engine).
    rng:
        Seed or generator; all randomness of the run flows through it.
    num_chains:
        Number of independent chains advanced per gate sweep; defaults to
        ``config.num_chains``.
    backend:
        Zero-delay simulator backend (``"auto"``, ``"bigint"``, ``"numpy"``
        or ``"compiled"``); defaults to ``config.simulation_backend``.  The
        event-driven engine picks scalar/numpy from the chain count.
    """

    def __init__(
        self,
        circuit,
        stimulus: Stimulus,
        config: EstimationConfig | None = None,
        rng: RandomSource = None,
        num_chains: int | None = None,
        backend: str | None = None,
    ):
        self.program = CircuitProgram.of(circuit)
        self.circuit = self.program.circuit
        self.stimulus = stimulus
        self.config = config or EstimationConfig()
        self.rng: np.random.Generator = spawn_rng(rng)
        self.num_chains = self.config.num_chains if num_chains is None else num_chains
        if self.num_chains < 1:
            raise ValueError("num_chains must be at least 1")
        if stimulus.num_inputs != self.circuit.num_inputs:
            raise ValueError(
                f"stimulus drives {stimulus.num_inputs} inputs but circuit "
                f"{self.circuit.name!r} has {self.circuit.num_inputs}"
            )

        self._node_caps = self.program.capacitances(self.config.capacitance_model)
        self._backend_request = (
            self.config.simulation_backend if backend is None else backend
        )
        if self._backend_request == "auto":
            # Registered simulators may pin the state-engine backend (the
            # "compiled"/"event-driven-compiled" engines route the shared
            # state sweeps through the codegen kernel); an explicit user
            # backend always wins over the engine's preference.
            override = getattr(
                get_simulator(self.config.power_simulator), "state_backend", None
            )
            if override is not None:
                self._backend_request = override
        self._build_engines()

        self.cycles_simulated = 0
        self._prepared = False
        self._seconds_per_sweep: float | None = None

    #: Event-engine backend request used by :meth:`_build_engines`; shard
    #: samplers override it with the backend resolved at full ensemble width.
    _event_backend_request = "auto"

    def _build_engines(self) -> None:
        """(Re)build the state and power engines at the current ``num_chains`` width."""
        self._engine = ZeroDelaySimulator(
            self.program,
            width=self.num_chains,
            node_capacitance=self._node_caps,
            backend=self._backend_request,
        )
        self._use_words = self._engine.backend != "bigint"
        # The power engine comes from the simulator registry, so any
        # registered measurement engine composes with the chain ensemble.
        self._power = get_simulator(self.config.power_simulator)(
            self.program,
            width=self.num_chains,
            node_capacitance=self._node_caps,
            delay_model=self.config.delay_model,
            backend=self._event_backend_request,
        )
        self._event_engine = self._power.engine

    @property
    def backend(self) -> str:
        """Resolved zero-delay simulator backend ("bigint", "numpy" or "compiled")."""
        return self._engine.backend

    @property
    def chain_cycles(self) -> int:
        """Total chain-cycles advanced (gate sweeps times chains)."""
        return self.cycles_simulated * self.num_chains

    # ----------------------------------------------------------------- set-up
    def _next_pattern(self):
        if self._use_words:
            return self.stimulus.next_pattern_words(self.rng, width=self.num_chains)
        return self.stimulus.next_pattern(self.rng, width=self.num_chains)

    def prepare(self, warmup_cycles: int | None = None) -> None:
        """Randomise every chain's state, settle, and run the warm-up cycles."""
        self.stimulus.reset()
        self._warm_up(warmup_cycles)

    def _warm_up(self, warmup_cycles: int | None = None) -> None:
        warmup = self.config.warmup_cycles if warmup_cycles is None else warmup_cycles
        self._engine.randomize_state(self.rng)
        self._engine.settle(self._next_pattern())
        self._prepared = True
        for _ in range(warmup):
            self._advance_one_cycle()

    def restart_from_random_state(self) -> None:
        """Re-randomise every chain's latch state and settle (no warm-up).

        Used by the fixed-warm-up baseline, which draws every batch of
        samples from independently re-initialised states.
        """
        self._engine.randomize_state(self.rng)
        self._engine.settle(self._next_pattern())
        self._prepared = True

    def _require_prepared(self) -> None:
        if not self._prepared:
            self.prepare()

    # ------------------------------------------------------- adaptive scaling
    def resize(self, num_chains: int) -> None:
        """Change the number of lock-step chains; re-warm the new ensemble.

        Chains are mutually independent and individually stationary after
        warm-up, so a resize rebuilds the engines at the new width,
        re-randomises every chain and repeats the warm-up — samples drawn
        before and after a resize are identically distributed.  The RNG
        stream continues uninterrupted, so adaptive runs stay reproducible
        from their seed.
        """
        if num_chains < 1:
            raise ValueError("num_chains must be at least 1")
        if num_chains == self.num_chains:
            return
        was_prepared = self._prepared
        self.num_chains = num_chains
        self._build_engines()
        self._prepared = False
        if was_prepared:
            self._warm_up()

    def note_sweep_seconds(self, seconds: float, sweeps: int) -> None:
        """Feed a wall-clock measurement of *sweeps* measured sweeps.

        Maintains an exponential moving average of seconds per sweep for the
        time-aware resize policy.  Only called when
        ``config.adaptive_time_aware`` is enabled (the caller owns the
        clock), so disabled runs never touch a timer.
        """
        if sweeps < 1 or seconds < 0.0:
            return
        per_sweep = seconds / sweeps
        if self._seconds_per_sweep is None:
            self._seconds_per_sweep = per_sweep
        else:
            self._seconds_per_sweep = 0.5 * self._seconds_per_sweep + 0.5 * per_sweep

    def plan_chain_resize(self, decision: StoppingDecision) -> int:
        """Chain count the stopping trajectory asks for (with 2x hysteresis).

        Extrapolates the sample size that meets the accuracy target from the
        criterion's running relative half-width (half-width shrinks like
        ``1/sqrt(n)``), aims to collect the remaining samples in a few more
        measured sweeps, and rounds to a power of two within
        ``[1, config.max_chains]``.  Returns the current chain count when the
        signal is unusable (no samples yet, infinite half-width) or the
        proposed move is smaller than 2x in either direction — rebuilding and
        re-warming the ensemble is only worth a decisive change.

        With ``config.adaptive_time_aware`` on and at least one batch timing
        recorded (:meth:`note_sweep_seconds`), the sweep horizon is derived
        from the measured seconds per sweep instead of the fixed default:
        the policy sizes the ensemble so the remaining work fits in about
        ``config.adaptive_target_seconds`` of sweeping.  When the flag is
        off this branch is never taken and the plan is bit-identical to the
        fixed-horizon policy.
        """
        if decision.should_stop or decision.sample_size == 0:
            return self.num_chains
        half_width = decision.relative_half_width
        if not math.isfinite(half_width) or half_width <= 0.0:
            return self.num_chains
        target = self.config.max_relative_error
        needed_total = decision.sample_size * (half_width / target) ** 2
        remaining = min(needed_total, float(self.config.max_samples)) - decision.sample_size
        if remaining <= 0.0:
            return self.num_chains
        # Aim to finish in ~4 more measured sweeps at the proposed width; the
        # time-aware policy instead spends the configured wall-clock budget.
        sweeps_target = 4.0
        if self.config.adaptive_time_aware and self._seconds_per_sweep:
            sweeps_target = min(
                64.0, max(1.0, self.config.adaptive_target_seconds / self._seconds_per_sweep)
            )
        desired = 1 << max(0, math.ceil(math.log2(max(1.0, remaining / sweeps_target))))
        desired = max(1, min(self.config.max_chains, desired))
        if desired >= 2 * self.num_chains or 2 * desired <= self.num_chains:
            return desired
        return self.num_chains

    # ------------------------------------------------------------------ state
    def get_state(self) -> dict:
        """Snapshot the sampler for checkpoint/resume (see :class:`PowerSampler`).

        The event-driven engine needs no snapshot: every measured cycle
        reloads it from the zero-delay engine's settled network.
        """
        return {
            "rng": self.rng.bit_generator.state,
            "num_chains": self.num_chains,
            "cycles_simulated": self.cycles_simulated,
            "prepared": self._prepared,
            "engine": self._engine.get_state(),
            "stimulus": self.stimulus.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        chains = state.get("num_chains", self.num_chains)
        if chains != self.num_chains:
            self.num_chains = chains
            self._build_engines()
        self.rng.bit_generator.state = state["rng"]
        self.cycles_simulated = state["cycles_simulated"]
        self._prepared = state["prepared"]
        self._engine.set_state(state["engine"])
        self.stimulus.set_state(state["stimulus"])

    # ------------------------------------------------------------------ steps
    def _advance_one_cycle(self) -> None:
        self._engine.step(self._next_pattern())
        self.cycles_simulated += 1

    def _measure_lanes(self) -> np.ndarray:
        switched = self._power.measure_lanes(self._engine, self._next_pattern())
        self.cycles_simulated += 1
        return switched

    # ------------------------------------------------------------------- API
    def advance(self, cycles: int) -> None:
        """Advance all chains *cycles* clock cycles without measuring power."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        self._require_prepared()
        for _ in range(cycles):
            self._advance_one_cycle()

    def measure_cycle(self) -> np.ndarray:
        """Simulate one clock cycle; return each chain's switched capacitance.

        The result has shape ``(num_chains,)``: entry *k* is the
        capacitance-weighted transition count of chain *k* in this cycle
        (glitches included under the event-driven power engine).
        """
        self._require_prepared()
        return self._measure_lanes()

    def measure_cycle_total(self) -> float:
        """Simulate one clock cycle; return the switched capacitance summed over chains.

        Cheaper than :meth:`measure_cycle` on the zero-delay engine (no
        per-lane resolution) — this is the long-run ensemble-reference
        workload.
        """
        self._require_prepared()
        switched = self._power.measure_total(self._engine, self._next_pattern())
        self.cycles_simulated += 1
        return switched

    def collect_sequence(self, interval: int, length: int) -> list[float]:
        """Collect an ordered power sequence from chain 0 for the randomness test.

        Adjacent entries are separated by *interval* un-measured clock cycles.
        All chains advance in lock-step, so the same interval structure holds
        for every chain; chain 0's sequence is returned because the runs test
        needs one temporally ordered series (samples interleaved *across*
        chains would be trivially independent and would bias the test toward
        accepting too-short intervals).  Only chain 0 is measured (the power
        engine's ``measure_lane0``); each entry equals lane 0 of
        :meth:`measure_cycle` on the same cycle.
        """
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if length < 1:
            raise ValueError("length must be at least 1")
        self._require_prepared()
        sequence = []
        for _ in range(length):
            for _ in range(interval):
                self._advance_one_cycle()
            sequence.append(self._power.measure_lane0(self._engine, self._next_pattern()))
            self.cycles_simulated += 1
        return sequence

    def next_samples(self, interval: int) -> np.ndarray:
        """Return one power sample per chain, preceded by *interval* un-measured cycles."""
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self._require_prepared()
        for _ in range(interval):
            self._advance_one_cycle()
        return self.measure_cycle()

    def next_samples_with_control(
        self, interval: int, cheap_cycles: int
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """One control-variate sweep: samples, their controls and a cheap mean.

        Advances all chains ``max(interval, cheap_cycles)`` cycles, measuring
        each advance cycle's *total* zero-delay switched capacitance (the
        advance cycles double as the independence interval, so the cheap
        control costs no extra simulation), then measures the sampled cycle
        with **both** engines on identical lanes via the power engine's
        ``measure_lanes_with_control``.

        Returns ``(samples, controls, cheap_mean)``: the per-chain power
        samples, the per-chain zero-delay controls of the same cycle, and the
        per-chain-cycle mean of the cheap advance measurements.  Under
        stationarity the controls and the cheap mean share one expectation,
        so their difference is a mean-zero control variate for the samples
        (see :class:`repro.variance.control_variate.ControlVariateEstimator`).
        """
        if interval < 0:
            raise ValueError("interval must be non-negative")
        if cheap_cycles < 1:
            raise ValueError("cheap_cycles must be at least 1")
        measure = getattr(self._power, "measure_lanes_with_control", None)
        if measure is None:
            raise ValueError(
                f"power simulator {self.config.power_simulator!r} does not expose "
                f"measure_lanes_with_control; the control-variate estimator needs it"
            )
        self._require_prepared()
        advance = max(interval, cheap_cycles)
        cheap_total = 0.0
        for _ in range(advance):
            cheap_total += float(self._engine.step_and_measure(self._next_pattern()))
            self.cycles_simulated += 1
        samples, controls = measure(self._engine, self._next_pattern())
        self.cycles_simulated += 1
        cheap_mean = cheap_total / (advance * self.num_chains)
        return samples, controls, cheap_mean

    def sample_block(self, interval: int, min_count: int) -> np.ndarray:
        """Return at least *min_count* samples spaced by *interval* cycles.

        Runs ``ceil(min_count / num_chains)`` measured sweeps and interleaves
        the per-chain lanes chain-major with one reshape — the vectorized
        equivalent of extending a Python list one :meth:`next_samples` batch
        at a time (identical RNG consumption and sample order).
        """
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        sweeps = -(-min_count // self.num_chains)
        block = np.empty((sweeps, self.num_chains), dtype=np.float64)
        for index in range(sweeps):
            block[index] = self.next_samples(interval)
        return block.reshape(-1)

    def samples(self, interval: int, count: int) -> list[float]:
        """Return at least *count* samples spaced by *interval* cycles, interleaved chain-major."""
        return self.sample_block(interval, count).tolist()
