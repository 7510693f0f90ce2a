"""Unit tests for the word-sliced numpy simulator backend."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.simulation import _native
from repro.simulation.vectorized import (
    VectorizedZeroDelaySimulator,
    bits_to_words,
    lane_mask_words,
    pack_int_to_words,
    unpack_words_to_int,
    words_per_width,
)
from repro.simulation.zero_delay import ZeroDelaySimulator, resolve_backend


class TestWordHelpers:
    def test_words_per_width(self):
        assert words_per_width(1) == 1
        assert words_per_width(64) == 1
        assert words_per_width(65) == 2
        assert words_per_width(256) == 4

    def test_lane_mask_partial_word(self):
        mask = lane_mask_words(70)
        assert mask.shape == (2,)
        assert int(mask[0]) == (1 << 64) - 1
        assert int(mask[1]) == (1 << 6) - 1

    def test_int_round_trip(self):
        value = (1 << 130) | (1 << 64) | 0b1011
        words = pack_int_to_words(value, 3)
        assert unpack_words_to_int(words) == value

    def test_bits_to_words_matches_manual_packing(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=100, dtype=np.uint8)
        expected = sum(int(bit) << lane for lane, bit in enumerate(bits))
        assert unpack_words_to_int(bits_to_words(bits, 2)) == expected


class TestFunctionalBehaviour:
    def test_counter_counts_up(self, counter_circuit):
        simulator = VectorizedZeroDelaySimulator(counter_circuit, width=4)
        simulator.reset(latch_state=0)
        simulator.settle([simulator.mask])
        values = []
        for _ in range(6):
            simulator.step([simulator.mask])
            values.append(simulator.latch_state_scalar(lane=3))
        assert values == [1, 2, 3, 4, 5, 6]

    def test_toggle_cell_measures_zero_when_idle(self, toggle_circuit):
        simulator = VectorizedZeroDelaySimulator(toggle_circuit, width=8)
        simulator.reset(latch_state=0)
        simulator.settle([0])
        assert simulator.step_and_measure([0]) == 0.0
        assert np.all(simulator.step_and_measure_lanes([0]) == 0.0)

    def test_lanes_match_independent_scalar_runs(self, s27_circuit):
        width = 8
        rng = np.random.default_rng(7)
        cycles = 30
        patterns = rng.integers(0, 2, size=(cycles, s27_circuit.num_inputs, width))
        initial = rng.integers(0, 2, size=(s27_circuit.num_latches, width))

        packed = VectorizedZeroDelaySimulator(s27_circuit, width=width)
        packed.reset(
            latch_state=[
                sum(int(initial[i, lane]) << lane for lane in range(width))
                for i in range(s27_circuit.num_latches)
            ]
        )
        packed.settle(
            [
                sum(int(patterns[0, i, lane]) << lane for lane in range(width))
                for i in range(s27_circuit.num_inputs)
            ]
        )

        scalars = []
        for lane in range(width):
            scalar = ZeroDelaySimulator(s27_circuit, width=1, backend="bigint")
            scalar.reset(
                latch_state=[int(initial[i, lane]) for i in range(s27_circuit.num_latches)]
            )
            scalar.settle([int(patterns[0, i, lane]) for i in range(s27_circuit.num_inputs)])
            scalars.append(scalar)

        for cycle in range(1, cycles):
            packed.step(
                [
                    sum(int(patterns[cycle, i, lane]) << lane for lane in range(width))
                    for i in range(s27_circuit.num_inputs)
                ]
            )
            packed_values = packed.values
            for lane, scalar in enumerate(scalars):
                scalar.step([int(patterns[cycle, i, lane]) for i in range(s27_circuit.num_inputs)])
                for net_id in range(s27_circuit.num_nets):
                    assert (packed_values[net_id] >> lane) & 1 == scalar.values[net_id]

    def test_unused_lanes_stay_zero_with_partial_word(self, s27_circuit):
        """Inverting gates must not leak ones into the unused lanes of the last word."""
        width = 70
        simulator = VectorizedZeroDelaySimulator(s27_circuit, width=width)
        rng = np.random.default_rng(3)
        simulator.randomize_state(rng)
        for _ in range(5):
            pattern = [int(rng.integers(0, 1 << 63)) for _ in range(s27_circuit.num_inputs)]
            simulator.step(pattern)
            for value in simulator.values:
                assert value <= simulator.mask

    def test_word_array_patterns_equal_packed_int_patterns(self, s27_circuit):
        width = 96
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=(20, s27_circuit.num_inputs, width), dtype=np.uint8)
        via_ints = VectorizedZeroDelaySimulator(s27_circuit, width=width)
        via_words = VectorizedZeroDelaySimulator(s27_circuit, width=width)
        via_ints.reset(latch_state=0)
        via_words.reset(latch_state=0)
        num_words = words_per_width(width)
        for cycle in range(20):
            ints = [
                sum(int(bit) << lane for lane, bit in enumerate(bits[cycle, i]))
                for i in range(s27_circuit.num_inputs)
            ]
            words = bits_to_words(bits[cycle], num_words)
            assert via_ints.step_and_count(ints) == via_words.step_and_count(words)
            assert via_ints.values == via_words.values


class TestSweepStrategies:
    def test_grouped_numpy_matches_native(self, s27_circuit, monkeypatch):
        """The portable grouped-numpy sweep and the compiled kernel agree bit-for-bit."""
        width = 130
        reference = VectorizedZeroDelaySimulator(s27_circuit, width=width)
        monkeypatch.setattr(_native, "native_enabled", lambda: False)
        portable = VectorizedZeroDelaySimulator(s27_circuit, width=width)
        assert portable._native_call is None

        rng = np.random.default_rng(5)
        reference.randomize_state(rng=1)
        portable.randomize_state(rng=1)
        for _ in range(15):
            pattern = [int(rng.integers(0, 1 << 62)) for _ in range(s27_circuit.num_inputs)]
            assert reference.step_and_count(pattern) == portable.step_and_count(pattern)
            assert reference.values == portable.values

    @pytest.mark.parametrize("width", (1, 64, 130))
    def test_class_counts_native_match_numpy(self, width):
        """The kernel's per-class toggle counts equal the numpy fallback's, exactly."""
        from repro.circuits.iscas89 import build_circuit
        from repro.circuits.program import CircuitProgram
        from repro.power.capacitance import CapacitanceModel

        program = CircuitProgram.of(build_circuit("s1494"))
        caps = program.capacitances(CapacitanceModel())
        engines = {
            sweep: VectorizedZeroDelaySimulator(program, width, caps, sweep=sweep)
            for sweep in ("auto", "groups")
        }
        assert engines["groups"]._count_lanes is None
        rng = np.random.default_rng(width)
        for engine in engines.values():
            engine.randomize_state(rng=3)
        for _ in range(6):
            pattern = [int(v) for v in rng.integers(0, 1 << 62, size=program.circuit.num_inputs)]
            native, groups = engines["auto"], engines["groups"]
            lanes = native.step_and_measure_lanes(pattern)
            assert np.array_equal(lanes, groups.step_and_measure_lanes(pattern))
            total = native.step_and_measure(pattern)
            assert total == groups.step_and_measure(pattern)
            lane0 = native.step_and_measure_lane0(pattern)
            assert lane0 == groups.step_and_measure_lane0(pattern)

    @pytest.mark.skipif(
        not _native.native_enabled() or _native.find_compiler() is None,
        reason="native kernels disabled or no C compiler available",
    )
    def test_generic_kernel_disk_memo_spares_gcc(self, tmp_path):
        """A second process finds the kernel on disk: zero invocations; a corrupt one rebuilds."""
        script = (
            "from repro.simulation import _native\n"
            "kernel = _native.load_kernel()\n"
            "assert kernel is not None\n"
            "print(_native.compiler_invocations())\n"
        )
        env = {
            **os.environ,
            "REPRO_PROGRAM_CACHE": str(tmp_path),
            "PYTHONPATH": os.pathsep.join(sys.path),
        }
        env.pop("REPRO_NATIVE", None)

        def invocations() -> str:
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout.strip()

        assert invocations() == "1"  # cold cache: one compile
        assert invocations() == "0"  # warm cache: pure disk hit
        (cached,) = tmp_path.glob("generic.k*.so")
        cached.write_bytes(b"not a shared object")
        assert invocations() == "1"  # corrupt object: unlinked and rebuilt


class TestBackendFacade:
    def test_resolve_backend_explicit(self):
        assert resolve_backend("bigint", 4096) == "bigint"
        assert resolve_backend("numpy", 1) == "numpy"
        with pytest.raises(ValueError):
            resolve_backend("cuda", 64)

    @pytest.mark.parametrize("kernel", (True, False))
    def test_auto_rule_follows_native_kernel(self, s27_circuit, monkeypatch, kernel):
        """With the kernel, auto is numpy at every width; without it, bigint below 256."""
        monkeypatch.setattr(_native, "native_kernel_available", lambda: kernel)
        picks = {
            width: ZeroDelaySimulator(s27_circuit, width=width).backend
            for width in (1, 64, 255, 256, 1024)
        }
        if kernel:
            assert set(picks.values()) == {"numpy"}
        else:
            assert picks == {
                1: "bigint", 64: "bigint", 255: "bigint", 256: "numpy", 1024: "numpy"
            }

    def test_numpy_backend_rejects_values_assignment(self, s27_circuit):
        simulator = ZeroDelaySimulator(s27_circuit, width=8, backend="numpy")
        with pytest.raises(AttributeError):
            simulator.values = [0] * s27_circuit.num_nets

    def test_facade_validates_arguments_for_both_backends(self, s27_circuit):
        for backend in ("bigint", "numpy"):
            with pytest.raises(ValueError):
                ZeroDelaySimulator(s27_circuit, width=0, backend=backend)
            with pytest.raises(ValueError):
                ZeroDelaySimulator(s27_circuit, node_capacitance=[1.0], backend=backend)

    def test_lane_measurement_agrees_across_backends(self, s27_circuit):
        width = 40
        rng = np.random.default_rng(13)
        bigint = ZeroDelaySimulator(s27_circuit, width=width, backend="bigint")
        vector = ZeroDelaySimulator(s27_circuit, width=width, backend="numpy")
        bigint.randomize_state(rng=2)
        vector.randomize_state(rng=2)
        for _ in range(10):
            pattern = [int(rng.integers(0, 1 << 40)) for _ in range(s27_circuit.num_inputs)]
            lanes_a = bigint.step_and_measure_lanes(pattern)
            lanes_b = vector.step_and_measure_lanes(pattern)
            assert lanes_a.shape == (width,)
            assert np.array_equal(lanes_b, lanes_a)

    def test_cycle_accounting_delegates(self, s27_circuit):
        simulator = ZeroDelaySimulator(s27_circuit, width=8, backend="numpy")
        simulator.settle([0] * s27_circuit.num_inputs)
        simulator.run([[1, 0, 1, 0]] * 5, measure=False)
        assert simulator.cycles_simulated == 5
        simulator.reset()
        assert simulator.cycles_simulated == 0
