import atexit
import os
import signal
import time

import pytest

from ideadrift import _parts
from ideadrift.errors import DataFormatError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRun:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_results_in_part_order(self, n):
        parent = os.getpid()
        results = _parts.run(lambda part: (part, os.getpid()), list(range(n)))
        assert [part for part, _ in results] == list(range(n))
        pids = [pid for _, pid in results]
        assert pids[:1] == [parent][:n]
        assert parent not in pids[1:] and len(set(pids)) == n

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_first_failure_in_part_order_is_raised(self, failing):
        def work(part):
            if part >= failing:
                raise DataFormatError(f"part {part}")
            return part

        with pytest.raises(DataFormatError, match=f"^part {failing}$"):
            _parts.run(work, [0, 1, 2])
        assert_no_child()

    @pytest.mark.parametrize("error", [DataFormatError("part 0"), KeyboardInterrupt()],
                             ids=["error", "keyboard-interrupt"])
    def test_failure_in_part_0_kills_and_reaps_waiting_children(self, error):
        def work(part):
            if part == 0:
                raise error
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(type(error)):
            _parts.run(work, [0, 1, 2])
        assert time.monotonic() - start < 30
        assert_no_child()

    def test_keyboard_interrupt_in_a_child_is_raised_in_order(self):
        def work(part):
            if part == 1:
                os.kill(os.getpid(), signal.SIGINT)
                time.sleep(60)
            return part

        with pytest.raises(KeyboardInterrupt):
            _parts.run(work, [0, 1])
        assert_no_child()

    def test_a_child_that_dies_is_an_error(self):
        def work(part):
            if part == 1:
                os._exit(3)
            return part

        with pytest.raises(ChildProcessError, match="exited with status 3"):
            _parts.run(work, [0, 1])
        assert_no_child()

    def test_children_leave_by_os_exit(self, tmp_path):
        marker = tmp_path / "atexit"

        def work(part):
            if part:
                atexit.register(marker.write_text, "ran")
            return part

        assert _parts.run(work, [0, 1, 2]) == [0, 1, 2]
        # a child that left any other way would have run the handler, or
        # returned here and written its own line
        with open(tmp_path / "after", "a") as fh:
            fh.write(f"{os.getpid()}\n")
        assert not marker.exists()
        assert (tmp_path / "after").read_text() == f"{os.getpid()}\n"


class TestCount:
    @pytest.mark.parametrize("threads, size, expected", [
        (1, 10**9, 1), (4, 10**9, 4), (4, 25, 2), (4, 9, 1), (4, 0, 1)])
    def test_capped_by_threads_and_size(self, threads, size, expected):
        assert _parts.count(threads, size, 10) == expected

    def test_one_part_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _parts.count(4, 10**9, 10) == 1

    @pytest.mark.parametrize("n, parts", [(0, 3), (1, 3), (2, 3), (7, 3), (9, 1)])
    def test_slices_cover_range_in_order(self, n, parts):
        slices = _parts.slices(n, parts)
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert len(slices) == max(1, min(n, parts))
        assert all(s.stop > s.start for s in slices) or n == 0

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert _parts.usable_cpus() == 3
