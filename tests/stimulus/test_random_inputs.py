"""Unit tests for the Bernoulli input generator."""

import numpy as np
import pytest

from repro.stimulus.base import pack_lane_bits, unpack_lane_bits
from repro.stimulus.random_inputs import BernoulliStimulus


class TestPacking:
    def test_pack_unpack_round_trip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        word = pack_lane_bits(bits)
        assert np.array_equal(unpack_lane_bits(word, 8), bits)

    def test_pack_empty(self):
        assert pack_lane_bits(np.array([], dtype=np.uint8)) == 0


class TestBernoulliStimulus:
    def test_pattern_shape(self):
        stimulus = BernoulliStimulus(5, 0.5)
        pattern = stimulus.next_pattern(np.random.default_rng(0), width=8)
        assert len(pattern) == 5
        assert all(0 <= word < (1 << 8) for word in pattern)

    def test_zero_probability_gives_all_zero(self):
        stimulus = BernoulliStimulus(3, 0.0)
        pattern = stimulus.next_pattern(np.random.default_rng(0), width=16)
        assert pattern == [0, 0, 0]

    def test_one_probability_gives_all_ones(self):
        stimulus = BernoulliStimulus(3, 1.0)
        pattern = stimulus.next_pattern(np.random.default_rng(0), width=16)
        assert pattern == [(1 << 16) - 1] * 3

    def test_empirical_probability_matches(self):
        stimulus = BernoulliStimulus(1, 0.3)
        rng = np.random.default_rng(1)
        ones = 0
        cycles = 4000
        for _ in range(cycles):
            ones += stimulus.next_pattern(rng, width=1)[0]
        assert ones / cycles == pytest.approx(0.3, abs=0.03)

    def test_per_input_probabilities(self):
        stimulus = BernoulliStimulus(2, [0.0, 1.0])
        pattern = stimulus.next_pattern(np.random.default_rng(2), width=4)
        assert pattern == [0, 0b1111]

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            BernoulliStimulus(2, 1.5)
        with pytest.raises(ValueError):
            BernoulliStimulus(2, [0.5])

    def test_zero_inputs_supported(self):
        stimulus = BernoulliStimulus(0)
        assert stimulus.next_pattern(np.random.default_rng(0)) == []

    def test_patterns_helper(self):
        stimulus = BernoulliStimulus(2, 0.5)
        patterns = stimulus.patterns(np.random.default_rng(3), cycles=10, width=1)
        assert len(patterns) == 10
        assert all(len(p) == 2 for p in patterns)

    def test_describe_mentions_probability(self):
        assert "0.5" in BernoulliStimulus(4, 0.5).describe()


class TestNextBitsBlock:
    """Blocked draws must consume the RNG stream exactly like per-cycle draws."""

    def test_block_matches_looped_draws(self):
        import numpy as np

        stimulus = BernoulliStimulus(7, 0.3)
        looped_rng = np.random.default_rng(11)
        blocked_rng = np.random.default_rng(11)
        looped = np.stack([stimulus.next_bits(looped_rng, 96) for _ in range(5)])
        blocked = stimulus.next_bits_block(blocked_rng, 96, 5)
        assert np.array_equal(looped, blocked)
        # The streams stay aligned afterwards too.
        assert np.array_equal(
            stimulus.next_bits(looped_rng, 96), stimulus.next_bits(blocked_rng, 96)
        )

    def test_default_block_implementation_for_stateful_stimuli(self):
        import numpy as np

        from repro.stimulus.correlated_inputs import LagOneMarkovStimulus

        looped = LagOneMarkovStimulus(5, 0.5, 0.8)
        blocked = LagOneMarkovStimulus(5, 0.5, 0.8)
        looped_rng = np.random.default_rng(3)
        blocked_rng = np.random.default_rng(3)
        expected = np.stack([looped.next_bits(looped_rng, 32) for _ in range(6)])
        assert np.array_equal(expected, blocked.next_bits_block(blocked_rng, 32, 6))

    def test_block_edge_cases(self):
        import numpy as np

        stimulus = BernoulliStimulus(3, 0.5)
        rng = np.random.default_rng(0)
        assert stimulus.next_bits_block(rng, 8, 0).shape == (0, 3, 8)
        empty = BernoulliStimulus(0, 0.5)
        assert empty.next_bits_block(rng, 8, 4).shape == (4, 0, 8)
        with pytest.raises(ValueError):
            stimulus.next_bits_block(rng, 8, -1)


class TestFairWordStream:
    """Bernoulli(0.5) draws raw 64-bit words; every encoding derives from that draw."""

    WIDTHS = (1, 63, 64, 65, 130, 256)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_encoding_reads_one_stream(self, width):
        from repro.utils.bitpack import bits_to_words, pack_int_to_words, words_per_width

        stimulus = BernoulliStimulus(5, 0.5)
        cycles = 3
        num_words = words_per_width(width)
        block = stimulus.next_words_block(np.random.default_rng(9), width, cycles)
        assert block.shape == (cycles, 5, num_words) and block.dtype == np.uint64
        # Whole generator words, the unused lanes of the last word zeroed.
        raw = np.random.default_rng(9).bit_generator.random_raw(cycles * 5 * num_words)
        raw = raw.reshape(cycles, 5, num_words)
        tail = width % 64
        if tail:
            assert np.any(raw[..., -1] >> np.uint64(tail))
            raw[..., -1] &= np.uint64((1 << tail) - 1)
        assert np.array_equal(block, raw)

        def draws(method):
            rng = np.random.default_rng(9)
            return [method(rng) for _ in range(cycles)]

        words = draws(lambda rng: stimulus.next_pattern_words(rng, width))
        bits = draws(lambda rng: stimulus.next_bits(rng, width))
        ints = draws(lambda rng: stimulus.next_pattern(rng, width))
        bits_block = stimulus.next_bits_block(np.random.default_rng(9), width, cycles)
        for cycle in range(cycles):
            assert np.array_equal(words[cycle], block[cycle])
            assert np.array_equal(bits_to_words(bits[cycle], num_words), block[cycle])
            assert np.array_equal(bits_to_words(bits_block[cycle], num_words), block[cycle])
            assert np.array_equal(
                np.stack([pack_int_to_words(value, num_words) for value in ints[cycle]]),
                block[cycle],
            )

    def test_sharded_parent_block_matches_in_process_draws(self):
        """The sharded parent's block draw is the in-process per-cycle stream."""
        stimulus = BernoulliStimulus(7, 0.5)
        block = stimulus.next_words_block(np.random.default_rng(4), 130, 10)
        rng = np.random.default_rng(4)
        looped = np.stack([stimulus.next_pattern_words(rng, 130) for _ in range(10)])
        assert np.array_equal(block, looped)

    def test_raw_words_are_fair(self):
        bits = BernoulliStimulus(8, 0.5).next_bits_block(np.random.default_rng(1), 256, 40)
        assert bits.mean() == pytest.approx(0.5, abs=0.01)

    def test_32_bit_generator_fills_whole_words(self):
        rng = np.random.Generator(np.random.MT19937(3))
        words = BernoulliStimulus(4, 0.5).next_words_block(rng, 64, 50)
        assert np.any(words >> np.uint64(32))


class TestBiasedStreamUnchanged:
    """Any p other than 0.5 keeps the float-variate stream ``rng.random(shape) < p``."""

    @pytest.mark.parametrize("probabilities", (0.3, [0.1, 0.5, 0.9]))
    @pytest.mark.parametrize("width", (1, 65, 130))
    def test_stream_is_uniform_threshold(self, probabilities, width):
        stimulus = BernoulliStimulus(3, probabilities)
        p = np.broadcast_to(np.asarray(probabilities, dtype=float), (3,))
        expected = np.random.default_rng(6).random((4, 3, width)) < p[None, :, None]
        rng = np.random.default_rng(6)
        looped = np.stack([stimulus.next_bits(rng, width) for _ in range(4)])
        assert np.array_equal(looped, expected)
        block = stimulus.next_bits_block(np.random.default_rng(6), width, 4)
        assert np.array_equal(block, expected)
