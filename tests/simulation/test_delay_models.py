"""Unit tests for the gate delay models."""

import pytest

from repro.netlist.cell_library import GateType
from repro.simulation.delay_models import FanoutDelay, TypeTableDelay, UnitDelay, ZeroDelay


class TestZeroDelay:
    def test_all_delays_zero(self, s27_circuit):
        assert ZeroDelay().delays(s27_circuit) == [0.0] * s27_circuit.num_gates


class TestUnitDelay:
    def test_default_is_one(self, s27_circuit):
        assert UnitDelay().delays(s27_circuit) == [1.0] * s27_circuit.num_gates

    def test_custom_value(self, s27_circuit):
        assert set(UnitDelay(2.5).delays(s27_circuit)) == {2.5}

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            UnitDelay(-1.0)


class TestFanoutDelay:
    def test_higher_fanout_means_longer_delay(self, s27_circuit):
        model = FanoutDelay(intrinsic=1.0, load_factor=0.5)
        delays = {gate.output: model.gate_delay(s27_circuit, gate) for gate in s27_circuit.gates}
        g11 = s27_circuit.net_id("G11")  # fanout 3
        g17 = s27_circuit.net_id("G17")  # fanout 1 (primary output)
        assert delays[g11] > delays[g17]

    def test_formula(self, s27_circuit):
        model = FanoutDelay(intrinsic=2.0, load_factor=0.25)
        gate = s27_circuit.gates[0]
        fanout = s27_circuit.fanout_counts[gate.output]
        assert model.gate_delay(s27_circuit, gate) == pytest.approx(2.0 + 0.25 * fanout)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            FanoutDelay(intrinsic=-0.1)
        with pytest.raises(ValueError):
            FanoutDelay(load_factor=-0.1)


class TestTypeTableDelay:
    def test_inverter_faster_than_xor(self, s27_circuit):
        model = TypeTableDelay()
        not_gate = next(g for g in s27_circuit.gates if g.gate_type is GateType.NOT)
        assert model.gate_delay(s27_circuit, not_gate) < model.DEFAULT_TABLE[GateType.XOR]

    def test_table_override(self, s27_circuit):
        model = TypeTableDelay({GateType.NOT: 5.0})
        not_gate = next(g for g in s27_circuit.gates if g.gate_type is GateType.NOT)
        assert model.gate_delay(s27_circuit, not_gate) == pytest.approx(5.0)

    def test_fanin_penalty(self, s27_circuit):
        model = TypeTableDelay(fanin_factor=1.0)
        nor2 = next(
            g for g in s27_circuit.gates if g.gate_type is GateType.NOR and len(g.inputs) == 2
        )
        base = model.table[GateType.NOR]
        assert model.gate_delay(s27_circuit, nor2) == pytest.approx(base)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            TypeTableDelay({GateType.AND: -1.0})


class TestDelayModelSelection:
    """String-keyed delay-model selection through the registry and config."""

    def test_make_delay_model(self):
        from repro.simulation.delay_models import (
            FanoutDelay,
            UnitDelay,
            make_delay_model,
        )

        assert isinstance(make_delay_model("fanout"), FanoutDelay)
        unit = make_delay_model("unit", delay=2.5)
        assert isinstance(unit, UnitDelay)
        assert unit.delay == pytest.approx(2.5)
        with pytest.raises(KeyError):
            make_delay_model("no-such-model")

    def test_config_validates_delay_model(self):
        from repro.core.config import EstimationConfig

        assert EstimationConfig(delay_model="unit").delay_model == "unit"
        with pytest.raises(ValueError, match="delay_model"):
            EstimationConfig(delay_model="no-such-model")

    def test_config_key_reaches_the_event_engine(self, s27_circuit):
        from repro.core.batch_sampler import BatchPowerSampler
        from repro.core.config import EstimationConfig
        from repro.simulation.delay_models import UnitDelay, ZeroDelay
        from repro.stimulus.random_inputs import BernoulliStimulus

        def sampler_for(key):
            config = EstimationConfig(
                warmup_cycles=4, power_simulator="event-driven", delay_model=key
            )
            return BatchPowerSampler(
                s27_circuit, BernoulliStimulus(s27_circuit.num_inputs, 0.5), config, rng=1
            )

        assert isinstance(sampler_for("unit")._event_engine.delay_model, UnitDelay)
        assert isinstance(sampler_for("zero")._event_engine.delay_model, ZeroDelay)

    def test_jobspec_selects_delay_model_by_key(self):
        from repro.api.jobs import JobSpec
        from repro.core.config import EstimationConfig

        spec = JobSpec(
            circuit="s27",
            seed=5,
            config=EstimationConfig(
                randomness_sequence_length=64,
                min_samples=64,
                check_interval=32,
                max_samples=500,
                warmup_cycles=8,
                max_independence_interval=4,
                power_simulator="event-driven",
                delay_model="unit",
            ),
        )
        rebuilt = JobSpec.from_dict(spec.to_dict())
        assert rebuilt.config.delay_model == "unit"
        result = rebuilt.run()
        assert result.ok
        assert result.estimate.average_power_w > 0
