"""Work cut into contiguous parts, the parts after the first on forked processes.

``run(work, parts)`` returns ``[work(part) for part in parts]``, and raises
what that loop would raise first. Part 0 runs in the calling process. Each
later part runs in an ``os.fork()`` child, which pickles its result or its
exception back through a pipe and leaves by ``os._exit``: it runs no atexit
handler, flushes no stdio buffer and never returns into the caller's code.
Every child is reaped before ``run`` returns or raises; when it raises, the
children not yet reaped are killed first.

A fork and reap cost 3-6 ms on a 2-vCPU x86-64 VM for a 28-84 MB process,
and a child's first write to each page it shares with the parent copies
that page, even a reference count's. So each caller sets a minimum part
size, and ``count`` turns the caller's worker count and input size into a
number of parts. ``stats.bin_summary`` counts its input in split statistics,
so that one costly pairwise test can be a part of its own.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

Part = TypeVar("Part")
Result = TypeVar("Result")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def count(threads: int, size: int, min_size: int) -> int:
    """The number of parts to cut an input of ``size`` into: ``threads``, but
    no more than ``size // min_size`` and at least 1; 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(threads, size // min_size))


def slices(n: int, parts: int) -> list[slice]:
    """``range(n)`` cut into at most ``parts`` contiguous slices of near-equal
    length, none empty unless ``n`` is 0."""
    parts = max(1, min(parts, n))
    return [slice(n * k // parts, n * (k + 1) // parts) for k in range(parts)]


def run(work: Callable[[Part], Result], parts: Sequence[Part]) -> list[Result]:
    """``[work(part) for part in parts]``, part 0 here and each later part in
    a forked child; see the module docstring."""
    if not parts:
        return []
    children: list[tuple[int, BinaryIO]] = []  # (pid, its pipe), in part order
    try:
        if len(parts) > 1:
            _start(work, parts[1:], children)
        results = [work(parts[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    ok, value = False, None
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if not ok:
                raise value if value is not None else ChildProcessError(
                    f"part {len(results)}: worker {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} and sent no result")
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            # suppressed only if an interrupt fell between a reap and its del
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _start(work: Callable, parts: Sequence, children: list) -> None:
    """Fork one child per part, appending (pid, the read end of its pipe)
    to ``children`` as each starts.

    SIGINT is held back until the child is inside the ``try`` that ends in
    ``os._exit`` and the parent has recorded its pid.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for part in parts:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(work, part, write_fd, mask)
            except BaseException:
                os.close(read_fd)
                raise
            finally:
                os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _child(work: Callable, part, write_fd: int, mask: set) -> NoReturn:
    """Run ``work(part)`` in a forked child, write the pickled outcome to
    ``write_fd`` and exit, whatever happens, by ``os._exit``."""
    status = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            outcome = (True, work(part))
        except BaseException as exc:  # the parent raises it in part order
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, ChildProcessError(f"unpicklable outcome: {exc!r}")))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
