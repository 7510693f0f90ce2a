"""Independent (spatially and temporally uncorrelated) input streams."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.registry import register_stimulus
from repro.stimulus.base import Stimulus
from repro.utils.bitpack import words_per_width, words_to_bits


def _raw_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """*count* uniform 64-bit words straight from *rng*'s bit generator.

    ``random_raw`` skips the per-call overhead of ``Generator.integers``.
    MT19937 emits 32-bit outputs, so two of them make one word there.
    """
    bit_generator = rng.bit_generator
    if isinstance(bit_generator, np.random.MT19937):
        halves = bit_generator.random_raw(2 * count).reshape(count, 2)
        return halves[:, 0] | (halves[:, 1] << np.uint64(32))
    return bit_generator.random_raw(count)


@register_stimulus("bernoulli")
class BernoulliStimulus(Stimulus):
    """Mutually independent inputs, each 1 with its own probability.

    This is the input model used in the paper's experiments with every
    probability equal to 0.5.  In that fair case every lane bit is one raw
    bit of the generator: :meth:`next_words_block` draws
    ``(cycles, inputs, words)`` uint64 words and zeroes the lanes past the
    width, and every other encoding (bit matrices, packed integers) derives
    from that draw.  Any other probability draws one float variate per
    ``(input, lane)`` and compares it with *p*.

    Parameters
    ----------
    num_inputs:
        Number of primary inputs.
    probabilities:
        A single probability applied to every input, or one probability per
        input.  Each must lie in [0, 1].
    """

    def __init__(self, num_inputs: int, probabilities: float | Sequence[float] = 0.5):
        super().__init__(num_inputs)
        if isinstance(probabilities, (int, float)):
            probs = np.full(num_inputs, float(probabilities))
        else:
            probs = np.asarray(probabilities, dtype=float)
            if probs.shape != (num_inputs,):
                raise ValueError(f"expected {num_inputs} probabilities, got shape {probs.shape}")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        self.probabilities = probs
        self._fair = bool(np.all(probs == 0.5))

    def next_words_block(
        self, rng: np.random.Generator, width: int = 1, cycles: int = 1
    ) -> np.ndarray:
        if not self._fair:
            return super().next_words_block(rng, width, cycles)
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        num_words = words_per_width(width)
        shape = (cycles, self.num_inputs, num_words)
        words = _raw_words(rng, cycles * self.num_inputs * num_words).reshape(shape)
        tail = width % 64
        if tail:
            words[..., -1] &= np.uint64((1 << tail) - 1)
        return words

    def next_bits(self, rng: np.random.Generator, width: int = 1) -> np.ndarray:
        if self._fair:
            return words_to_bits(self.next_words_block(rng, width, 1)[0], width)
        if self.num_inputs == 0:
            return np.zeros((0, width), dtype=np.uint8)
        draws = rng.random((self.num_inputs, width))
        return (draws < self.probabilities[:, None]).astype(np.uint8)

    def next_bits_block(
        self, rng: np.random.Generator, width: int = 1, cycles: int = 1
    ) -> np.ndarray:
        """One vectorized draw for a whole block of cycles.

        Both draws fill their output from the bit stream in C order, so one
        ``(cycles, num_inputs, ...)`` draw consumes exactly the variates of
        *cycles* successive :meth:`next_bits` calls — the block is
        bit-identical to the looped default (pinned by tests).
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if self._fair:
            return words_to_bits(self.next_words_block(rng, width, cycles), width)
        if self.num_inputs == 0 or cycles == 0:
            return np.zeros((cycles, self.num_inputs, width), dtype=np.uint8)
        draws = rng.random((cycles, self.num_inputs, width))
        return (draws < self.probabilities[None, :, None]).astype(np.uint8)

    def describe(self) -> str:
        unique = np.unique(self.probabilities)
        if unique.size == 1:
            return f"BernoulliStimulus(p={unique[0]:g}, inputs={self.num_inputs})"
        return f"BernoulliStimulus(per-input p, inputs={self.num_inputs})"
