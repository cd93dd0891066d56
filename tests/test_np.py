"""``pairwise_sum`` against the numpy sum it stands in for, bit for bit."""

import struct

import numpy as np
import pytest

from ideadrift._np import pairwise_sum


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def arrays(n: int, rng: np.random.Generator):
    """Arrays of length ``n``: normal values, magnitudes spread over 60
    decades, signed zeros alone and among tiny values, and large values with
    one infinity, so that the order of additions shows in the bits."""
    yield rng.normal(0.0, 1.0, n)
    yield rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 30, n)
    yield np.full(n, -0.0)
    yield rng.choice([0.0, -0.0, 1e-300, -1e-300], n)
    large = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-5, 300, n)
    if n:
        large[rng.integers(0, n)] = rng.choice([np.inf, -np.inf])
    yield large


@pytest.mark.parametrize("lengths", [range(0, 400), range(400, 800), range(800, 1101),
                                     [2047, 4096, 8192, 8193, 10_001]],
                         ids=["0-399", "400-799", "800-1100", "long"])
def test_equals_numpy_sum_bitwise(lengths):
    rng = np.random.default_rng(lengths[0])
    for n in lengths:
        for array in arrays(n, rng):
            assert bits(pairwise_sum(array.tolist())) == bits(float(np.add.reduce(array))), n
            if n:
                assert (bits(pairwise_sum(array.tolist()) / n)
                        == bits(float(np.mean(array)))), n


@pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 127, 128, 129, 135, 136, 137, 257])
def test_block_boundaries(n):
    # values whose sum rounds differently in every other order
    rng = np.random.default_rng(n)
    for _ in range(50):
        array = rng.choice([1.0, -1.0], n) * 2.0 ** rng.integers(-60, 60, n)
        assert bits(pairwise_sum(array.tolist())) == bits(float(np.add.reduce(array)))


def test_opposite_infinities_make_nan():
    assert np.isnan(pairwise_sum([1.0, np.inf, 2.0, -np.inf]))
    assert np.isnan(pairwise_sum([float(v) for v in range(200)] + [np.inf, -np.inf]))
