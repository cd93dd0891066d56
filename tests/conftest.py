import os

import pytest

# One BLAS thread, as the CLI sets before numpy loads, so that the tests that
# fork do so from a process with one thread: forking a multi-threaded
# process can deadlock the child, and Python 3.12 warns when it happens.
# Set before any test module imports numpy.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))


@pytest.fixture(autouse=True)
def no_child_left():
    """Every process a test starts has been reaped when it ends."""
    yield
    if hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
