"""Append-only float64 sample buffer with amortized growth.

The estimators append every new block of power samples here and hand the
stopping criterion :meth:`SampleBuffer.view` — the filled prefix of one
float64 array — so a stopping check reads the growing sample in place instead
of copying a Python list into a fresh array on every check.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["SampleBuffer"]

_MIN_CAPACITY = 1024


class SampleBuffer:
    """A growing sample of floats stored in one amortized float64 array.

    Parameters
    ----------
    values:
        Initial contents (e.g. the samples of a checkpoint being resumed).
    """

    def __init__(self, values: Iterable[float] = ()):
        initial = np.asarray(values, dtype=np.float64).reshape(-1)
        self._data = np.empty(max(_MIN_CAPACITY, 2 * initial.size))
        self._size = initial.size
        self._data[: self._size] = initial

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[float]:
        """Iterate as Python floats (what checkpoints and results store)."""
        return iter(self.tolist())

    def extend(self, values: Iterable[float]) -> None:
        """Append *values* in order, doubling the capacity when it runs out."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        end = self._size + values.size
        if end > self._data.size:
            grown = np.empty(max(end, 2 * self._data.size))
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : end] = values
        self._size = end

    def view(self) -> np.ndarray:
        """The samples so far as a read-only view of the buffer (no copy)."""
        view = self._data[: self._size]
        view.flags.writeable = False
        return view

    def tolist(self) -> list[float]:
        """The samples so far as a list of Python floats."""
        return self._data[: self._size].tolist()
