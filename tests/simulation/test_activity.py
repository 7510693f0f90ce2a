"""Unit tests for switching-activity collection."""

import pytest

from repro.simulation.activity import collect_activity
from repro.stimulus.random_inputs import BernoulliStimulus


class TestCollectActivity:
    def test_probabilities_within_bounds(self, s27_circuit):
        record = collect_activity(
            s27_circuit, BernoulliStimulus(4, 0.5), cycles=400, rng=1
        )
        assert record.cycles == 400
        assert all(0.0 <= p <= 1.0 for p in record.signal_probability)
        assert all(d >= 0.0 for d in record.transition_density)

    def test_transition_density_at_most_one_for_zero_delay(self, s27_circuit):
        record = collect_activity(
            s27_circuit, BernoulliStimulus(4, 0.5), cycles=300, rng=2
        )
        assert all(d <= 1.0 + 1e-12 for d in record.transition_density)

    def test_primary_input_probability_close_to_stimulus(self, s27_circuit):
        record = collect_activity(
            s27_circuit, BernoulliStimulus(4, 0.5), cycles=3000, rng=3
        )
        stats = record.by_name()
        for pi in ("G0", "G1", "G2", "G3"):
            probability, density = stats[pi]
            assert probability == pytest.approx(0.5, abs=0.05)
            assert density == pytest.approx(0.5, abs=0.05)

    def test_biased_inputs_reflected(self, s27_circuit):
        record = collect_activity(
            s27_circuit, BernoulliStimulus(4, 0.9), cycles=3000, rng=4
        )
        probability, density = record.by_name()["G0"]
        assert probability == pytest.approx(0.9, abs=0.05)
        # Transition density of an i.i.d. 0.9 stream is 2 * 0.9 * 0.1 = 0.18.
        assert density == pytest.approx(0.18, abs=0.05)

    def test_busiest_nets_sorted(self, s27_circuit):
        record = collect_activity(s27_circuit, BernoulliStimulus(4, 0.5), cycles=200, rng=5)
        busiest = record.busiest_nets(5)
        densities = [density for _name, density in busiest]
        assert densities == sorted(densities, reverse=True)

    def test_invalid_cycle_count_rejected(self, s27_circuit):
        with pytest.raises(ValueError):
            collect_activity(s27_circuit, BernoulliStimulus(4, 0.5), cycles=0)

    def test_identical_records_on_both_backends(self, s298_circuit, monkeypatch):
        """The width-1 bigint and numpy engines yield the same ActivityRecord."""
        import functools

        from repro.simulation import activity
        from repro.simulation.zero_delay import ZeroDelaySimulator

        records = {}
        for backend in ("bigint", "numpy"):
            monkeypatch.setattr(
                activity,
                "ZeroDelaySimulator",
                functools.partial(ZeroDelaySimulator, backend=backend),
            )
            records[backend] = collect_activity(
                s298_circuit, BernoulliStimulus(s298_circuit.num_inputs, 0.5), cycles=300, rng=6
            )
        assert records["numpy"] == records["bigint"]
