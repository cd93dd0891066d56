"""numpy, loaded when a kernel first reads a name from it.

Every module takes numpy as ``from ._np import np``, and this is the one place
that imports it. A stage that only parses and writes corpus files (ingest,
lcc) never loads numpy, and ``cli`` pins BLAS to one thread before any kernel
can load it.
"""

from typing import TYPE_CHECKING

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
