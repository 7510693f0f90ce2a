"""String-keyed plugin registries for the estimation API.

Estimators, stimuli and stopping criteria are looked up by name everywhere a
:class:`~repro.api.jobs.JobSpec` is executed, so all three component families
are dispatched through the registries below instead of hard-coded tuples and
``if``/``elif`` chains.  Third-party code extends the system by registering a
factory under a new name::

    from repro.api import register_estimator

    @register_estimator("my-estimator")
    class MyEstimator:
        def __init__(self, circuit, stimulus=None, config=None, rng=None, **params): ...
        def run(self): ...          # yields ProgressEvents
        def estimate(self): ...     # drives run() to completion

The registered name is then valid in ``JobSpec(estimator="my-estimator")``,
in batch job files and on the command line.

Factory contracts
-----------------
* **estimator** — ``factory(circuit, stimulus=, config=, rng=, **params)``
  returning an object with ``estimate(progress=None)`` and (preferably) a
  streaming ``run()`` generator.
* **stimulus** — ``factory(num_inputs, **params)`` returning a
  :class:`~repro.stimulus.base.Stimulus`.
* **stopping criterion** — ``factory(max_relative_error=, confidence=,
  **kwargs)`` returning a
  :class:`~repro.stats.stopping.base.StoppingCriterion`.

This module deliberately imports nothing from the rest of the package at
module level; the built-in components register themselves when their defining
modules are imported, and each registry lazily imports those modules on first
lookup so ``repro.api`` works without requiring callers to pre-import
anything.
"""

from __future__ import annotations

import importlib
from typing import Callable, Iterable, Iterator


class Registry:
    """A case-insensitive name → factory mapping with lazy built-in loading.

    Lookups and ``in`` accept canonical names and their aliases; listings
    (:meth:`names`, iteration) report canonical names only, so a registry
    serves directly as argparse ``choices`` whose help omits the aliases.

    Parameters
    ----------
    kind:
        Human-readable component family name, used in error messages.
    builtin_modules:
        Modules imported (once, on first lookup) to let the built-in
        components register themselves.
    """

    def __init__(self, kind: str, builtin_modules: Iterable[str] = ()):
        self.kind = kind
        self._entries: dict[str, Callable] = {}
        self._canonical: set[str] = set()
        self._builtin_modules = tuple(builtin_modules)
        self._bootstrapped = False

    @staticmethod
    def _normalise(name: str) -> str:
        if not isinstance(name, str) or not name.strip():
            raise ValueError("registry names must be non-empty strings")
        return name.strip().lower()

    def _bootstrap(self) -> None:
        if self._bootstrapped:
            return
        self._bootstrapped = True
        for module in self._builtin_modules:
            importlib.import_module(module)

    def register(self, name: str, factory: Callable | None = None, *, aliases: Iterable[str] = ()):
        """Register *factory* under *name* (and *aliases*).

        Usable as a decorator (``@registry.register("name")``) or as a direct
        call (``registry.register("name", factory)``).  Re-registering a name
        with a different factory raises ``ValueError``; re-registering the
        same factory is a no-op so modules can be re-imported safely.
        """

        def _register(obj: Callable) -> Callable:
            for key in (name, *aliases):
                key = self._normalise(key)
                existing = self._entries.get(key)
                if existing is not None and existing is not obj:
                    raise ValueError(
                        f"{self.kind} {key!r} is already registered to {existing!r}"
                    )
                self._entries[key] = obj
            self._canonical.add(self._normalise(name))
            return obj

        if factory is not None:
            return _register(factory)
        return _register

    def get(self, name: str) -> Callable:
        """Return the factory registered under *name*; ``KeyError`` if unknown."""
        self._bootstrap()
        key = self._normalise(name)
        if key not in self._entries:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered names: {', '.join(self.names())}"
            )
        return self._entries[key]

    def __contains__(self, name: str) -> bool:
        self._bootstrap()
        try:
            return self._normalise(name) in self._entries
        except ValueError:
            return False

    def __iter__(self) -> Iterator[str]:
        """Iterate the canonical names, sorted (as :meth:`names`)."""
        return iter(self.names())

    def names(self) -> tuple[str, ...]:
        """Canonical registered names, sorted (aliases resolve but are not listed)."""
        self._bootstrap()
        # ``_entries`` decides what is registered: a name dropped from it is
        # no longer listed either.
        return tuple(sorted(self._canonical.intersection(self._entries)))


#: Estimator kinds accepted by :class:`~repro.api.jobs.JobSpec`.
ESTIMATOR_REGISTRY = Registry(
    "estimator",
    builtin_modules=(
        "repro.core.dipe",
        "repro.core.baselines",
        "repro.experiments.figure3",
        "repro.variance.control_variate",
    ),
)

#: Stimulus kinds accepted by :class:`~repro.api.jobs.StimulusSpec`.
STIMULUS_REGISTRY = Registry(
    "stimulus",
    builtin_modules=(
        "repro.stimulus.random_inputs",
        "repro.stimulus.correlated_inputs",
        "repro.stimulus.sequence",
        "repro.variance.stimuli",
    ),
)

#: Stopping criteria accepted by :class:`~repro.core.config.EstimationConfig`.
STOPPING_CRITERION_REGISTRY = Registry(
    "stopping criterion",
    builtin_modules=("repro.stats.stopping",),
)

#: Delay models accepted by :class:`~repro.core.config.EstimationConfig`
#: (used by the event-driven power simulator).
DELAY_MODEL_REGISTRY = Registry(
    "delay model",
    builtin_modules=("repro.simulation.delay_models",),
)

#: Power-measurement simulators accepted by
#: :class:`~repro.core.config.EstimationConfig` (``power_simulator=...``).
SIMULATOR_REGISTRY = Registry(
    "simulator",
    builtin_modules=("repro.simulation.power_engines",),
)


def register_estimator(name: str, factory: Callable | None = None, *, aliases: Iterable[str] = ()):
    """Register an estimator factory (see module docstring for the contract)."""
    return ESTIMATOR_REGISTRY.register(name, factory, aliases=aliases)


def register_stimulus(name: str, factory: Callable | None = None, *, aliases: Iterable[str] = ()):
    """Register a stimulus factory ``(num_inputs, **params) -> Stimulus``."""
    return STIMULUS_REGISTRY.register(name, factory, aliases=aliases)


def register_stopping_criterion(
    name: str, factory: Callable | None = None, *, aliases: Iterable[str] = ()
):
    """Register a stopping-criterion factory."""
    return STOPPING_CRITERION_REGISTRY.register(name, factory, aliases=aliases)


def register_delay_model(
    name: str, factory: Callable | None = None, *, aliases: Iterable[str] = ()
):
    """Register a delay-model factory ``(**params) -> DelayModel``.

    The registered name becomes valid in
    ``EstimationConfig(delay_model="name")`` and therefore in serialized
    :class:`~repro.api.jobs.JobSpec`s and on the command line
    (``--delay-model``).
    """
    return DELAY_MODEL_REGISTRY.register(name, factory, aliases=aliases)


def get_estimator(name: str) -> Callable:
    """Look up an estimator factory by registered name."""
    return ESTIMATOR_REGISTRY.get(name)


def get_stimulus(name: str) -> Callable:
    """Look up a stimulus factory by registered name."""
    return STIMULUS_REGISTRY.get(name)


def get_stopping_criterion(name: str) -> Callable:
    """Look up a stopping-criterion factory by registered name."""
    return STOPPING_CRITERION_REGISTRY.get(name)


def register_simulator(
    name: str, factory: Callable | None = None, *, aliases: Iterable[str] = ()
):
    """Register a power-measurement simulator factory.

    The factory contract mirrors the built-in engines in
    :mod:`repro.simulation.power_engines`::

        factory(program, width=1, node_capacitance=None,
                delay_model=None, backend="auto") -> engine

    where *program* is a :class:`~repro.circuits.program.CircuitProgram`
    (or a compiled circuit — normalise with ``CircuitProgram.of``) and the
    returned engine measures power over the sampler's zero-delay state
    engine through ``measure_lanes(state_engine, pattern)``,
    ``measure_total(state_engine, pattern)`` and
    ``measure_lane0(state_engine, pattern)`` (lane 0 only, for interval
    selection; must equal entry 0 of ``measure_lanes``).  The registered name becomes
    valid in ``EstimationConfig(power_simulator="name")`` and therefore in
    serialized :class:`~repro.api.jobs.JobSpec`s and on the command line
    (``--power-simulator``).
    """
    return SIMULATOR_REGISTRY.register(name, factory, aliases=aliases)


def get_delay_model(name: str) -> Callable:
    """Look up a delay-model factory by registered name."""
    return DELAY_MODEL_REGISTRY.get(name)


def get_simulator(name: str) -> Callable:
    """Look up a power-simulator factory by registered name."""
    return SIMULATOR_REGISTRY.get(name)


def external_provider_modules() -> tuple[str, ...]:
    """Modules (outside this package) that registered components, sorted.

    Used by the batch runner to re-import third-party plugins inside worker
    processes, where registrations made in the parent are absent under the
    ``spawn``/``forkserver`` start methods.  ``__main__`` registrations
    cannot be re-imported and are excluded.
    """
    modules = set()
    for registry in (
        ESTIMATOR_REGISTRY,
        STIMULUS_REGISTRY,
        STOPPING_CRITERION_REGISTRY,
        DELAY_MODEL_REGISTRY,
        SIMULATOR_REGISTRY,
    ):
        for factory in registry._entries.values():
            module = getattr(factory, "__module__", None)
            if module and module != "__main__" and not module.startswith("repro."):
                modules.add(module)
    return tuple(sorted(modules))


def estimator_names() -> tuple[str, ...]:
    """All registered estimator names."""
    return ESTIMATOR_REGISTRY.names()


def stimulus_names() -> tuple[str, ...]:
    """All registered stimulus names."""
    return STIMULUS_REGISTRY.names()


def stopping_criterion_names() -> tuple[str, ...]:
    """All registered stopping-criterion names."""
    return STOPPING_CRITERION_REGISTRY.names()


def delay_model_names() -> tuple[str, ...]:
    """All registered delay-model names."""
    return DELAY_MODEL_REGISTRY.names()


def simulator_names() -> tuple[str, ...]:
    """All registered power-simulator names."""
    return SIMULATOR_REGISTRY.names()
