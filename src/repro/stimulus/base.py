"""Stimulus interface and lane-packing helpers.

A stimulus produces one input pattern per clock cycle.  To match the
bit-parallel simulators, patterns exist in three equivalent encodings:

* a **bit matrix** — a ``(num_inputs, width)`` uint8 array of 0/1 values,
  the natural output of the vectorized generators (:meth:`Stimulus.next_bits`);
* **lane-packed integers** — one Python integer per input whose bit *k* is
  the logic value applied in simulation lane *k*, consumed by the big-int
  simulator backend (:meth:`Stimulus.next_pattern`);
* **lane words** — a ``(num_inputs, num_words)`` uint64 array with 64 lanes
  per word, consumed directly by the numpy simulator backend and the
  multi-chain batch sampler (:meth:`Stimulus.next_pattern_words`).

All three draw exactly the same random variates for a given ``(rng, width)``,
so simulations are reproducible from one seed regardless of which simulator
backend consumes the stimulus.  Single-chain simulation simply uses
``width=1``.

The packed encodings derive from :meth:`Stimulus.next_words_block`, whose
default packs :meth:`Stimulus.next_bits_block`.  A stimulus that can draw
lane words natively (the fair Bernoulli stimulus) overrides that one method
and derives its bit matrices from the words instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.bitpack import bits_to_words, unpack_words_to_int, words_per_width


def pack_lane_bits(bits: np.ndarray) -> int:
    """Pack a 1-D array of 0/1 values into an integer (bit *k* = ``bits[k]``)."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def unpack_lane_bits(word: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_lane_bits`: expand *word* into a length-*width* array."""
    num_bytes = (width + 7) // 8
    raw = np.frombuffer(word.to_bytes(num_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width].copy()


def pack_bit_matrix(bits: np.ndarray) -> list[int]:
    """Pack a ``(num_inputs, width)`` bit matrix into lane-packed integers."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def pack_bit_matrix_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(num_inputs, width)`` bit matrix into ``(num_inputs, num_words)`` uint64."""
    bits = np.asarray(bits, dtype=np.uint8)
    return np.ascontiguousarray(bits_to_words(bits, words_per_width(bits.shape[1])))


class Stimulus(ABC):
    """Base class for input-pattern generators.

    Subclasses implement :meth:`next_bits`, producing one bit matrix per
    clock cycle; the packed encodings are derived from it (through
    :meth:`next_words_block`).  Subclasses may keep per-lane state (e.g.
    Markov chains); :meth:`reset` must return the generator to its initial
    condition so repeated estimation runs are statistically independent
    given independent RNG streams.
    """

    #: ``True`` for generators that deliberately correlate the simulation
    #: lanes (the variance-reduction stimuli in :mod:`repro.variance`).
    #: Estimators consult this flag to switch to sweep-grouped confidence
    #: intervals, because per-sample i.i.d. intervals are invalid for
    #: cross-lane-dependent draws.
    lanes_dependent: bool = False

    def __init__(self, num_inputs: int):
        if num_inputs < 0:
            raise ValueError("num_inputs must be non-negative")
        self.num_inputs = num_inputs

    @abstractmethod
    def next_bits(self, rng: np.random.Generator, width: int = 1) -> np.ndarray:
        """Return the next pattern as a ``(num_inputs, width)`` uint8 bit matrix."""

    def next_bits_block(
        self, rng: np.random.Generator, width: int = 1, cycles: int = 1
    ) -> np.ndarray:
        """Return the next *cycles* patterns as a ``(cycles, num_inputs, width)`` matrix.

        Must consume the RNG stream exactly like *cycles* successive
        :meth:`next_bits` calls (the property the sharded sampler and the
        equivalence tests rely on).  The default implementation simply loops;
        stateless generators override it with one vectorized draw.
        """
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        if cycles == 0:
            return np.zeros((0, self.num_inputs, width), dtype=np.uint8)
        if cycles == 1:
            return self.next_bits(rng, width)[None]
        return np.stack([self.next_bits(rng, width) for _ in range(cycles)])

    def next_words_block(
        self, rng: np.random.Generator, width: int = 1, cycles: int = 1
    ) -> np.ndarray:
        """Return the next *cycles* patterns as ``(cycles, num_inputs, num_words)`` uint64.

        Lane *k* of input *i* in cycle *t* is bit ``k % 64`` of
        ``[t, i, k // 64]``; lanes at and beyond *width* are zero.  Consumes
        the RNG stream exactly like *cycles* successive :meth:`next_bits`
        calls.  The sharded sampler's parent slices this block per shard.
        """
        return bits_to_words(self.next_bits_block(rng, width, cycles), words_per_width(width))

    def next_pattern(self, rng: np.random.Generator, width: int = 1) -> list[int]:
        """Return the next pattern: one lane-packed integer per primary input."""
        words = self.next_words_block(rng, width, 1)[0]
        if words.shape[1] == 1:
            return words[:, 0].tolist()
        return [unpack_words_to_int(row) for row in words]

    def next_pattern_words(self, rng: np.random.Generator, width: int = 1) -> np.ndarray:
        """Return the next pattern as a ``(num_inputs, num_words)`` uint64 word array."""
        return self.next_words_block(rng, width, 1)[0]

    def reset(self) -> None:
        """Forget any internal state (default: stateless, nothing to do)."""

    def get_state(self):
        """Snapshot the generator's internal state for checkpointing.

        Stateless generators return ``None`` (the default); stateful
        subclasses must return a copy deep enough that further generation
        does not mutate the snapshot.
        """
        return None

    def set_state(self, state) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        if state is not None:
            raise ValueError(f"{type(self).__name__} is stateless; cannot restore {state!r}")

    def patterns(self, rng: np.random.Generator, cycles: int, width: int = 1) -> list[list[int]]:
        """Convenience: generate *cycles* consecutive patterns."""
        return [self.next_pattern(rng, width) for _ in range(cycles)]

    def describe(self) -> str:
        """Short human-readable description used in experiment reports."""
        return f"{type(self).__name__}(num_inputs={self.num_inputs})"
