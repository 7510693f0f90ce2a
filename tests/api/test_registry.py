"""Unit tests for the plugin registries."""

import pytest

from repro.api.registry import (
    ESTIMATOR_REGISTRY,
    Registry,
    delay_model_names,
    estimator_names,
    get_delay_model,
    get_estimator,
    get_stimulus,
    get_stopping_criterion,
    stimulus_names,
    stopping_criterion_names,
)
from repro.core.baselines import ConsecutiveCycleEstimator, FixedWarmupEstimator
from repro.core.dipe import DipeEstimator
from repro.stats.stopping import (
    CltStoppingCriterion,
    KolmogorovSmirnovStoppingCriterion,
    OrderStatisticStoppingCriterion,
)
from repro.stimulus.random_inputs import BernoulliStimulus


class TestBuiltinRegistrations:
    def test_builtin_estimators_registered(self):
        assert get_estimator("dipe") is DipeEstimator
        assert get_estimator("consecutive-mc") is ConsecutiveCycleEstimator
        assert get_estimator("fixed-warmup") is FixedWarmupEstimator

    def test_figure3_estimator_registered(self):
        from repro.experiments.figure3 import Figure3Estimator

        assert get_estimator("figure3-profile") is Figure3Estimator

    def test_builtin_stimuli_registered(self):
        assert get_stimulus("bernoulli") is BernoulliStimulus
        for name in ("lag-one-markov", "spatially-correlated", "sequence"):
            assert name in stimulus_names()

    def test_builtin_stopping_criteria_registered(self):
        assert get_stopping_criterion("order-statistic") is OrderStatisticStoppingCriterion
        assert get_stopping_criterion("clt") is CltStoppingCriterion
        assert get_stopping_criterion("ks") is KolmogorovSmirnovStoppingCriterion

    def test_builtin_delay_models_registered(self):
        from repro.simulation.delay_models import (
            FanoutDelay,
            TypeTableDelay,
            UnitDelay,
            ZeroDelay,
        )

        assert get_delay_model("fanout") is FanoutDelay
        assert get_delay_model("unit") is UnitDelay
        assert get_delay_model("zero") is ZeroDelay
        assert get_delay_model("zero-delay") is ZeroDelay
        assert get_delay_model("type-table") is TypeTableDelay
        assert set(delay_model_names()) >= {"fanout", "unit", "zero", "type-table"}

    def test_aliases_resolve(self):
        assert get_stopping_criterion("order_stat") is OrderStatisticStoppingCriterion
        assert get_stopping_criterion("kolmogorov-smirnov") is KolmogorovSmirnovStoppingCriterion

    def test_lookup_is_case_insensitive(self):
        assert get_estimator("DIPE") is DipeEstimator

    def test_names_listing(self):
        for name in ("dipe", "consecutive-mc", "fixed-warmup"):
            assert name in estimator_names()
        assert "order-statistic" in stopping_criterion_names()


class TestRegistryBehaviour:
    def test_unknown_name_raises_keyerror_with_candidates(self):
        with pytest.raises(KeyError, match="unknown estimator"):
            get_estimator("not-a-thing")

    def test_reregistering_same_factory_is_idempotent(self):
        ESTIMATOR_REGISTRY.register("dipe", DipeEstimator)
        assert get_estimator("dipe") is DipeEstimator

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            ESTIMATOR_REGISTRY.register("dipe", ConsecutiveCycleEstimator)

    def test_custom_registration_via_decorator(self):
        registry = Registry("widget")

        @registry.register("fancy", aliases=("shiny",))
        def make_widget():
            return "widget"

        assert registry.get("fancy") is make_widget
        assert registry.get("shiny") is make_widget
        assert "fancy" in registry
        assert "nope" not in registry

    def test_listing_omits_aliases_that_still_resolve(self):
        registry = Registry("widget")

        def make_widget():
            return "widget"

        registry.register("fancy", make_widget, aliases=("shiny",))
        assert registry.names() == ("fancy",)
        assert list(registry) == ["fancy"]
        assert "shiny" in registry
        assert registry.get("SHINY") is make_widget

    def test_empty_name_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError):
            registry.register("  ", lambda: None)

    def test_contains_tolerates_non_string(self):
        assert 42 not in ESTIMATOR_REGISTRY


class TestConfigUsesRegistry:
    def test_config_accepts_registered_aliases(self):
        from repro.core.config import EstimationConfig

        config = EstimationConfig(stopping_criterion="kolmogorov-smirnov")
        assert config.stopping_criterion == "kolmogorov-smirnov"

    def test_config_rejects_unregistered_names(self):
        from repro.core.config import EstimationConfig

        with pytest.raises(ValueError, match="stopping_criterion"):
            EstimationConfig(stopping_criterion="magic")


class TestSimulatorRegistry:
    def test_builtin_simulators_registered(self):
        from repro.api.registry import simulator_names

        names = simulator_names()
        assert "zero-delay" in names
        assert "event-driven" in names

    def test_config_validates_power_simulator_through_registry(self):
        from repro.core.config import EstimationConfig

        with pytest.raises(ValueError, match="power_simulator"):
            EstimationConfig(power_simulator="spice")

    def test_custom_simulator_selectable_by_config_and_sampler(self):
        from repro.api.registry import SIMULATOR_REGISTRY, register_simulator
        from repro.circuits.library import s27
        from repro.core.batch_sampler import BatchPowerSampler
        from repro.core.config import EstimationConfig
        from repro.simulation.compiled import CompiledCircuit
        from repro.stimulus.random_inputs import BernoulliStimulus

        class ConstantPower:
            """Trivial plugin engine: advances the state engine, reports 1.0/lane."""

            engine = None

            def __init__(self, program, width=1, node_capacitance=None,
                         delay_model=None, backend="auto"):
                self.width = width

            def measure_lanes(self, state_engine, pattern):
                import numpy as np

                state_engine.step(pattern)
                return np.ones(self.width, dtype=np.float64)

            def measure_total(self, state_engine, pattern):
                return float(self.measure_lanes(state_engine, pattern).sum())

            def measure_lane0(self, state_engine, pattern):
                state_engine.step(pattern)
                return 1.0

        register_simulator("constant-test", ConstantPower)
        try:
            config = EstimationConfig(power_simulator="constant-test", num_chains=4)
            circuit = CompiledCircuit.from_netlist(s27())
            sampler = BatchPowerSampler(
                circuit, BernoulliStimulus(circuit.num_inputs, 0.5), config, rng=5
            )
            samples = sampler.next_samples(interval=1)
            assert samples.tolist() == [1.0, 1.0, 1.0, 1.0]
            assert sampler.collect_sequence(interval=1, length=3) == [1.0, 1.0, 1.0]
        finally:
            # Plain deletion: monkeypatch would restore the entry at teardown
            # and leak the test engine into the session-wide registry.
            SIMULATOR_REGISTRY._entries.pop("constant-test", None)
