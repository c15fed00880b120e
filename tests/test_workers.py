import sys
import threading
import time

import pytest

from simembed import workers

BLAS = workers._openblas()
needs_openblas = pytest.mark.skipif(
    BLAS is None, reason="numpy ships no OpenBLAS with "
    "scipy_openblas_{get,set}_num_threads64_ on this machine")
TWO_RUNS = [range(1), range(1)]


@pytest.fixture
def blas_threads():
    """OpenBLAS at 3 threads for the test, then at the count it had; the
    test gets the count's getter."""
    get, set_ = BLAS
    before = get()
    set_(3)
    if get() != 3:
        set_(before)
        pytest.skip("OpenBLAS does not take 3 threads here")
    yield get
    set_(before)


@needs_openblas
class TestBlasHold:
    def test_one_thread_inside_and_restored_after_a_return(self,
                                                          blas_threads):
        seen = []
        workers.run(lambda i, items: seen.append(blas_threads()), TWO_RUNS)
        assert seen == [1, 1]
        assert blas_threads() == 3

    @pytest.mark.parametrize("raiser", [0, 1], ids=["caller", "worker"])
    def test_restored_after_a_run_raises(self, blas_threads, raiser):
        def work(i, items):
            if i == raiser:
                raise MemoryError("no room")

        with pytest.raises(MemoryError, match="no room"):
            workers.run(work, TWO_RUNS)
        assert blas_threads() == 3

    def test_overlapping_runs_restore_when_the_last_ends(self, blas_threads):
        """Two callers' runs overlap; the first to end leaves the count
        at one, and the last restores it."""
        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]
        errors = []

        def caller(k):
            def work(i, items):
                if i == 0:
                    entered[k].set()
                    assert release[k].wait(10)

            try:
                workers.run(work, TWO_RUNS)
            except BaseException as exc:
                errors.append(exc)

        callers = [threading.Thread(target=caller, args=(k,))
                   for k in (0, 1)]
        try:
            for k in (0, 1):
                callers[k].start()
                assert entered[k].wait(10)
                assert blas_threads() == 1
            release[0].set()
            callers[0].join(10)
            assert not callers[0].is_alive()
            assert blas_threads() == 1
            release[1].set()
            callers[1].join(10)
            assert not callers[1].is_alive()
            assert blas_threads() == 3
        finally:
            for k in (0, 1):
                release[k].set()
                callers[k].join(10)
        assert errors == []

    def test_without_the_library_run_changes_nothing(self, blas_threads,
                                                     monkeypatch):
        monkeypatch.setattr(workers, "_openblas", lambda: None)
        seen = []
        workers.run(lambda i, items: seen.append((i, blas_threads())),
                    [range(2), range(2, 3), range(3, 5)])
        assert sorted(seen) == [(0, 3), (1, 3), (2, 3)]
        assert blas_threads() == 3


@pytest.mark.parametrize("runs", [[], [range(4)]], ids=["none", "one"])
def test_one_run_never_looks_for_the_library(monkeypatch, runs):
    def looked(*args):
        raise AssertionError("looked for OpenBLAS")

    monkeypatch.setattr(workers, "_openblas", looked)
    done = []
    workers.run(lambda i, items: done.append(list(items)), runs)
    assert done == [list(items) for items in runs]


@pytest.mark.parametrize("count, sets", [(1, []), (4, [1, 4])])
def test_the_count_is_set_only_when_it_is_not_one(monkeypatch, count, sets):
    calls = []
    monkeypatch.setattr(workers, "_openblas",
                        lambda: (lambda: count, calls.append))
    workers.run(lambda i, items: None, TWO_RUNS)
    assert calls == sets


def test_many_overlapping_callers_keep_the_hold(monkeypatch):
    """Eight callers, each running two runs 50 times, with the
    interpreter switching threads often: every run sees one thread, and
    the count the first caller found is back at the end."""
    count = [3]

    def get():
        time.sleep(0)  # a ctypes call releases the interpreter lock too
        return count[0]

    def set_(n):
        time.sleep(0)
        count[0] = n

    monkeypatch.setattr(workers, "_openblas", lambda: (get, set_))
    seen = []
    errors = []

    def caller():
        try:
            for _ in range(50):
                workers.run(lambda i, items: seen.append(count[0]),
                            TWO_RUNS)
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(8)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert seen == [1] * (8 * 50 * 2)
    assert count == [3] and workers._holders == 0
