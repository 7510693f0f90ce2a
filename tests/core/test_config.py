"""Unit tests for the estimation configuration."""

import pytest

from repro.core.config import EstimationConfig


class TestEstimationConfig:
    def test_paper_defaults(self):
        config = EstimationConfig()
        assert config.significance_level == pytest.approx(0.20)
        assert config.randomness_sequence_length == 320
        assert config.max_relative_error == pytest.approx(0.05)
        assert config.confidence == pytest.approx(0.99)
        assert config.stopping_criterion == "order-statistic"
        assert config.power_model.vdd == pytest.approx(5.0)
        assert config.power_model.clock_frequency_hz == pytest.approx(20e6)

    def test_paper_defaults_helper(self):
        custom = EstimationConfig(randomness_sequence_length=64, stopping_criterion="clt")
        restored = custom.paper_defaults()
        assert restored.randomness_sequence_length == 320
        assert restored.stopping_criterion == "order-statistic"

    def test_paper_defaults_preserves_execution_and_budget_fields(self):
        """Regression: paper_defaults() used to silently reset these to defaults."""
        custom = EstimationConfig(
            stopping_criterion="clt",
            max_relative_error=0.10,
            num_chains=8,
            simulation_backend="numpy",
            min_samples=32,
            check_interval=8,
            max_samples=500,
            warmup_cycles=4,
        )
        restored = custom.paper_defaults()
        assert restored.stopping_criterion == "order-statistic"
        assert restored.max_relative_error == pytest.approx(0.05)
        assert restored.num_chains == 8
        assert restored.simulation_backend == "numpy"
        assert restored.min_samples == 32
        assert restored.check_interval == 8
        assert restored.max_samples == 500
        assert restored.warmup_cycles == 4

    def test_paper_defaults_preserves_event_driven_simulator(self):
        custom = EstimationConfig(power_simulator="event-driven", confidence=0.9)
        restored = custom.paper_defaults()
        assert restored.power_simulator == "event-driven"
        assert restored.confidence == pytest.approx(0.99)

    def test_dict_round_trip_bit_exact(self):
        import json

        config = EstimationConfig(
            max_relative_error=0.03, num_chains=4, simulation_backend="numpy"
        )
        restored = EstimationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_from_dict_accepts_partial(self):
        config = EstimationConfig.from_dict({"min_samples": 16, "check_interval": 8})
        assert config.min_samples == 16
        assert config.confidence == pytest.approx(0.99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"significance_level": 0.0},
            {"significance_level": 1.0},
            {"randomness_sequence_length": 4},
            {"max_independence_interval": -1},
            {"max_relative_error": 0.0},
            {"confidence": 1.2},
            {"stopping_criterion": "bogus"},
            {"min_samples": 1},
            {"check_interval": 0},
            {"min_samples": 100, "max_samples": 50},
            {"warmup_cycles": -1},
            {"power_simulator": "spice"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EstimationConfig(**kwargs)

    def test_frozen(self):
        config = EstimationConfig()
        with pytest.raises(AttributeError):
            config.confidence = 0.5

    @pytest.mark.parametrize(
        "hosts", ["nohost", ":8642", "host:", "host:words", "host:70000"]
    )
    def test_invalid_worker_hosts_rejected(self, hosts):
        with pytest.raises(ValueError, match="worker_hosts"):
            EstimationConfig(worker_hosts=hosts)

    def test_invalid_worker_join_timeout_rejected(self):
        with pytest.raises(ValueError):
            EstimationConfig(worker_join_timeout=0.0)

    def test_distributed_fields_round_trip(self):
        import json

        config = EstimationConfig(
            worker_hosts="127.0.0.1:9750",
            worker_auth_token="secret",
            worker_join_timeout=5.0,
            num_workers=3,
        )
        restored = EstimationConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.worker_hosts == "127.0.0.1:9750"
        assert restored.worker_auth_token == "secret"

    def test_retired_compiled_backend_maps_to_numpy(self):
        """The 1.3 "compiled" backend was bit-identical to numpy; old specs still load."""
        with pytest.warns(DeprecationWarning, match="compiled"):
            config = EstimationConfig.from_dict({"simulation_backend": "compiled"})
        assert config.simulation_backend == "numpy"
        assert EstimationConfig.from_dict(config.to_dict()) == config
