"""numpy, loaded when a kernel first reads a name from it, and numpy's float64
sum order, without loading numpy.

Every module takes numpy as ``from ._np import np``, and this is the one place
that imports it. A stage that only parses, sums and writes (ingest, lcc,
dynamics, report) never loads numpy, and ``cli`` pins BLAS to one thread
before any kernel can load it. Those stages sum floats with ``pairwise_sum``,
which gives the bits ``np.sum`` gave them when they used numpy.
"""

from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np
else:
    class _LazyNumpy:
        """numpy's attributes, imported on the first read of each name and
        then kept on this object, so later reads skip ``__getattr__``."""

        def __getattr__(self, name: str):
            import numpy

            value = getattr(numpy, name)
            setattr(self, name, value)
            return value

    np = _LazyNumpy()

# numpy adds up to this many values in its 8 accumulators before it halves
_PAIRWISE_BLOCK = 128


def pairwise_sum(values: Sequence[float]) -> float:
    """``np.add.reduce`` of ``values`` as a 1-D float64 array, bit for bit.

    numpy adds 0.0 to a pairwise sum, which adds fewer than 8 values one by
    one from -0.0; up to 128 values in 8 strided accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) before the tail is added
    one by one; and more than 128 as two halves, split at n // 2 rounded down
    to a multiple of 8. The built-in ``sum`` compensates on Python 3.12 and
    ``math.fsum`` rounds once, so either can change the last bit.
    ``values`` are floats; ``np.mean`` is this sum divided by their number.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], first: int, n: int) -> float:
    if n < 8:
        return reduce(add, values[first:first + n], -0.0)
    if n <= _PAIRWISE_BLOCK:
        stop = first + n - n % 8
        r = [reduce(add, values[first + j + 8:stop:8], values[first + j]) for j in range(8)]
        head = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[stop:first + n], head)
    half = n // 2 - n // 2 % 8
    return _pairwise(values, first, half) + _pairwise(values, first + half, n - half)
