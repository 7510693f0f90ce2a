"""Unit tests for the amortized float64 sample buffer."""

import numpy as np
import pytest

from repro.stats.sample_buffer import SampleBuffer


def test_starts_empty():
    buffer = SampleBuffer()
    assert len(buffer) == 0
    assert buffer.view().size == 0
    assert buffer.tolist() == []


def test_extend_keeps_order_across_growth():
    buffer = SampleBuffer()
    expected: list[float] = []
    for block in range(50):
        values = [float(block * 100 + i) for i in range(block + 7)]
        buffer.extend(values)
        expected.extend(values)
    assert len(buffer) == len(expected) > 1024
    assert buffer.tolist() == expected
    assert buffer.view().tolist() == expected


def test_accepts_arrays_and_initial_values():
    buffer = SampleBuffer((0.5, 1.5))
    buffer.extend(np.array([2.5, 3.5]))
    assert buffer.tolist() == [0.5, 1.5, 2.5, 3.5]


def test_iterates_and_lists_python_floats():
    buffer = SampleBuffer([1.0, 2.0])
    assert tuple(buffer) == (1.0, 2.0)
    assert all(type(value) is float for value in buffer)
    assert all(type(value) is float for value in buffer.tolist())


def test_view_is_read_only_and_not_a_copy():
    buffer = SampleBuffer([1.0, 2.0, 3.0])
    view = buffer.view()
    assert view.dtype == np.float64
    with pytest.raises(ValueError):
        view[0] = 9.0
    assert np.shares_memory(view, buffer.view())


def test_view_taken_before_growth_keeps_its_values():
    buffer = SampleBuffer([1.0])
    early = buffer.view()
    buffer.extend(np.arange(5000, dtype=float))
    assert early.tolist() == [1.0]
