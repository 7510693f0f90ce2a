"""Unit tests for the vectorized (time-wheel) event-driven simulator."""

import numpy as np
import pytest

from repro.netlist.cell_library import GateType
from repro.netlist.netlist import Netlist
from repro.simulation.compiled import CompiledCircuit
from repro.simulation.delay_models import UnitDelay, ZeroDelay, quantize_delays
from repro.simulation.event_driven import EventDrivenSimulator, resolve_event_backend
from repro.simulation.vectorized_timing import VectorizedEventDrivenSimulator


def _glitch_circuit() -> CompiledCircuit:
    """y = AND(a, NOT(a)) — a classic static-hazard structure."""
    netlist = Netlist(name="hazard")
    netlist.add_input("a")
    netlist.add_input("dummy")
    netlist.add_output("y")
    netlist.add_latch("q", "y")
    netlist.add_gate("na", GateType.NOT, ["a"])
    netlist.add_gate("slow", GateType.BUFF, ["na"])
    netlist.add_gate("y", GateType.AND, ["a", "slow"])
    return CompiledCircuit.from_netlist(netlist)


class TestQuantizeDelays:
    def test_exact_ticks_for_decimal_delays(self):
        ticks, tick = quantize_delays([0.6, 1.1, 0.0, 1.3])
        assert tick == pytest.approx(0.1)
        assert ticks == [6, 11, 0, 13]

    def test_binary_fraction_delays(self):
        ticks, tick = quantize_delays([1.0, 1.25, 2.5])
        assert [count * tick for count in ticks] == pytest.approx([1.0, 1.25, 2.5])

    def test_empty_and_negative(self):
        assert quantize_delays([]) == ([], 1.0)
        with pytest.raises(ValueError):
            quantize_delays([-1.0])

    def test_coprime_denominators_stay_bounded(self):
        """Arbitrary measured floats must not explode the joint tick base."""
        import math

        delays = [1 / math.pi, math.sqrt(2) / 2, math.log(2), math.e / 7,
                  math.sqrt(3) / 3, 1 / math.sqrt(5), math.pi / 9, 0.123456]
        ticks, tick = quantize_delays(delays)
        assert all(0 <= count <= 2**31 for count in ticks)
        assert [count * tick for count in ticks] == pytest.approx(delays, abs=2e-4)
        # Equal delays still share a tick count under the fallback rounding.
        same, _ = quantize_delays([1 / math.pi, 1 / math.pi, 0.5])
        assert same[0] == same[1]

    def test_numpy_backend_accepts_arbitrary_float_delays(self, s27_circuit):
        """The int64 tick tables must build for irrational delay sets."""
        import math

        class MeasuredDelay(UnitDelay):
            def gate_delay(self, circuit, gate):
                return (gate.output % 7 + 1) / math.pi

        simulator = EventDrivenSimulator(
            s27_circuit, delay_model=MeasuredDelay(), width=4, backend="numpy"
        )
        simulator.reset(latch_state=0)
        simulator.settle([0, 0, 0, 0])
        assert simulator.cycle_lanes([0xF, 0x3, 0x0, 0x1]).shape == (4,)


class TestBackendResolution:
    def test_auto_picks_scalar_then_numpy(self):
        assert resolve_event_backend("auto", 1) == "scalar"
        assert resolve_event_backend("auto", 2) == "numpy"
        assert resolve_event_backend("numpy", 1) == "numpy"

    def test_scalar_rejects_width(self):
        with pytest.raises(ValueError, match="single-chain"):
            resolve_event_backend("scalar", 8)
        with pytest.raises(ValueError, match="backend"):
            resolve_event_backend("bigint", 1)

    def test_facade_reports_backend(self, s27_circuit):
        assert EventDrivenSimulator(s27_circuit).backend == "scalar"
        assert EventDrivenSimulator(s27_circuit, width=16).backend == "numpy"


class TestGlitchesVectorized:
    def test_hazard_glitches_counted_per_lane(self):
        """Lanes where ``a`` rises see the 0->1->0 pulse on y; others see nothing."""
        circuit = _glitch_circuit()
        simulator = VectorizedEventDrivenSimulator(circuit, delay_model=UnitDelay(), width=4)
        simulator.reset()
        # Lanes 0/2 hold a=0, lanes 1/3 hold a=1 in the settled network.
        simulator.settle([0b1010, 0b0000])
        energies = simulator.cycle_lanes([0b0101, 0b0000])  # a flips in every lane
        y_id = circuit.net_id("y")
        # Rising lanes (0 and 2) glitch twice on y; falling lanes cannot.
        assert simulator.transition_counts[y_id] == 4
        assert energies[0] > energies[1]
        assert energies[2] > energies[3]
        # The settled value of y is still the functional 0 in every lane.
        assert simulator.values[y_id] == 0

    def test_zero_delay_model_sees_no_hazard(self):
        circuit = _glitch_circuit()
        simulator = VectorizedEventDrivenSimulator(circuit, delay_model=ZeroDelay(), width=4)
        simulator.reset()
        simulator.settle([0b0000, 0b0000])
        simulator.cycle_lanes([0b1111, 0b0000])
        assert simulator.transition_counts[circuit.net_id("y")] == 0


class TestVectorizedInterface:
    def test_grouped_numpy_matches_native_kernel(self, s27_circuit):
        """The ufunc fallback and the compiled frontier kernel agree bit for bit."""
        rng = np.random.default_rng(3)
        width = 70
        bits = rng.integers(0, 2, size=(8, s27_circuit.num_inputs, width), dtype=np.uint8)
        from repro.stimulus.base import pack_bit_matrix

        native = VectorizedEventDrivenSimulator(s27_circuit, width=width)
        fallback = VectorizedEventDrivenSimulator(s27_circuit, width=width)
        fallback._native_eval = None  # force the grouped-ufunc sweep
        for simulator in (native, fallback):
            simulator.reset(latch_state=3)
            simulator.settle(pack_bit_matrix(bits[0]))
        for step in range(1, 8):
            pattern = pack_bit_matrix(bits[step])
            assert np.array_equal(native.cycle_lanes(pattern), fallback.cycle_lanes(pattern))
        assert np.array_equal(native.transition_counts, fallback.transition_counts)

    def test_load_settled_state_accepts_words_and_ints(self, s27_circuit):
        from repro.simulation.zero_delay import ZeroDelaySimulator

        width = 8
        source = ZeroDelaySimulator(s27_circuit, width=width, backend="numpy")
        source.reset(latch_state=0b110)
        source.settle([0xFF, 0x0F, 0xAA, 0x33])
        by_words = VectorizedEventDrivenSimulator(s27_circuit, width=width)
        by_words.load_settled_state(source.words_view())
        by_ints = VectorizedEventDrivenSimulator(s27_circuit, width=width)
        by_ints.load_settled_state(source.values)
        assert by_words.values == by_ints.values == source.values
        with pytest.raises(ValueError):
            by_words.load_settled_state([0, 1])

    def test_pattern_validation(self, s27_circuit):
        simulator = VectorizedEventDrivenSimulator(s27_circuit, width=4)
        with pytest.raises(ValueError):
            simulator.cycle_lanes([0, 1])
        with pytest.raises(ValueError):
            simulator.cycle_lanes(np.zeros((2, 1), dtype=np.uint64))

    def test_transition_density_is_per_lane_per_cycle(self, s27_circuit):
        rng = np.random.default_rng(5)
        width = 16
        simulator = VectorizedEventDrivenSimulator(s27_circuit, width=width)
        simulator.reset(latch_state=0)
        from repro.stimulus.base import pack_bit_matrix

        bits = rng.integers(0, 2, size=(11, s27_circuit.num_inputs, width), dtype=np.uint8)
        simulator.settle(pack_bit_matrix(bits[0]))
        for step in range(1, 11):
            simulator.cycle_lanes(pack_bit_matrix(bits[step]))
        density = simulator.transition_density()
        assert density.dtype == np.float64
        assert simulator.total_transitions() == pytest.approx(density.sum() * 10 * width)

    def test_state_snapshot_owns_storage(self, s27_circuit):
        simulator = VectorizedEventDrivenSimulator(s27_circuit, width=8)
        simulator.reset(latch_state=1)
        simulator.settle([0, 0, 0, 0])
        snapshot = simulator.get_state()
        simulator.cycle_lanes([0xFF, 0xFF, 0x00, 0x00])
        assert not np.array_equal(snapshot["words"], simulator.words) or (
            snapshot["cycles"] != simulator.cycles_simulated
        )
        with pytest.raises(ValueError):
            simulator.set_state({"backend": "scalar"})

    def test_facade_randomize_state_reproducible_across_backends(self, s27_circuit):
        scalar = EventDrivenSimulator(s27_circuit, backend="scalar")
        vector = EventDrivenSimulator(s27_circuit, width=1, backend="numpy")
        scalar.randomize_state(rng=9)
        vector.randomize_state(rng=9)
        assert scalar.latch_state_scalar() == vector.latch_state_scalar()


class TestWavefrontCompaction:
    """Column-compacted instants count exactly the uncompacted transitions."""

    def _twins(self, circuit, width, caps=None):
        on = VectorizedEventDrivenSimulator(
            circuit, node_capacitance=caps, width=width, wavefront_compaction=True
        )
        off = VectorizedEventDrivenSimulator(
            circuit, node_capacitance=caps, width=width, wavefront_compaction=False
        )
        return on, off

    @pytest.mark.parametrize("width", [512, 520])
    def test_bit_identical_lanes_wide(self, s27_circuit, width):
        from repro.stimulus.random_inputs import BernoulliStimulus

        # Sparse activity drives whole 64-lane words quiescent so the
        # compacted path actually engages at these widths (>= 8 words).
        stimulus = BernoulliStimulus(s27_circuit.num_inputs, 0.05)
        on, off = self._twins(s27_circuit, width)
        rng_on, rng_off = np.random.default_rng(9), np.random.default_rng(9)
        on.randomize_state(rng_on)
        off.randomize_state(rng_off)
        first = stimulus.next_pattern_words(np.random.default_rng(1), width=width)
        on.settle(first)
        off.settle(first)
        rng = np.random.default_rng(2)
        for _ in range(10):
            pattern = stimulus.next_pattern_words(rng, width=width)
            lanes_on = on.cycle_lanes(pattern.copy())
            lanes_off = off.cycle_lanes(pattern)
            assert np.array_equal(lanes_on, lanes_off)
        assert np.array_equal(on.transition_counts, off.transition_counts)
        assert np.array_equal(on.words, off.words)

    def test_bit_identical_with_zero_delay_cascade(self, s27_circuit):
        """Mixed zero/positive delays exercise the compacted level-worklist path."""
        from repro.netlist.cell_library import GateType
        from repro.simulation.delay_models import TypeTableDelay
        from repro.stimulus.random_inputs import BernoulliStimulus

        width = 512
        # NOT/BUFF cells switch instantly: the instant's frontier cascades
        # through the level worklist instead of the single-batch fast path,
        # with eval_cols restricted once whole words go quiescent.
        model = TypeTableDelay({GateType.NOT: 0.0, GateType.BUFF: 0.0}, fanin_factor=0.0)
        on = VectorizedEventDrivenSimulator(
            s27_circuit, delay_model=model, width=width, wavefront_compaction=True
        )
        off = VectorizedEventDrivenSimulator(
            s27_circuit, delay_model=model, width=width, wavefront_compaction=False
        )
        assert on._any_zero_ticks  # the cascade branch is actually in play
        stimulus = BernoulliStimulus(s27_circuit.num_inputs, 0.05)
        on.randomize_state(np.random.default_rng(9))
        off.randomize_state(np.random.default_rng(9))
        rng = np.random.default_rng(2)
        first = stimulus.next_pattern_words(rng, width=width)
        on.settle(first)
        off.settle(first)
        for _ in range(10):
            pattern = stimulus.next_pattern_words(rng, width=width)
            assert np.array_equal(on.cycle_lanes(pattern.copy()), off.cycle_lanes(pattern))
        assert np.array_equal(on.transition_counts, off.transition_counts)
        assert np.array_equal(on.words, off.words)

    def test_compaction_engages_on_sparse_tails(self, s27_circuit):
        """At least one instant must actually evaluate a column subset."""
        width = 512
        on, _ = self._twins(s27_circuit, width)
        subset_calls = []
        original = on._evaluate_gates

        def spy(gates, cols=None):
            if cols is not None:
                subset_calls.append(cols.size)
            return original(gates, cols)

        on._evaluate_gates = spy
        bits = np.zeros((s27_circuit.num_inputs, width), dtype=np.uint8)
        on.reset(latch_state=0)
        from repro.stimulus.base import pack_bit_matrix_words

        on.settle(pack_bit_matrix_words(bits))
        # Toggle one input in a single lane: the whole cascade lives in one
        # 64-lane word, so every other word is quiescent from the seed on.
        bits[0, 3] = 1
        on.cycle_lanes(pack_bit_matrix_words(bits))
        assert subset_calls
        assert max(subset_calls) < on.num_words
