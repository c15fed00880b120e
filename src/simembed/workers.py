"""Contiguous runs of work on every CPU the process may use.

``split`` cuts a range into one contiguous run per usable CPU, and ``run``
works the runs at once: the first in the caller, each other in a thread of
its own.  numpy's ufuncs and BLAS release the GIL, so the threads compute
side by side.  Each thread runs in a copy of the caller's ``contextvars``
context, so the caller's ``np.errstate`` holds there too.  Every thread is
joined before ``run`` returns or raises, and a worker's exception is raised
again in the caller.  One run starts no thread.  ``distance._lk_sums``
splits its row blocks this way, ``net.embed`` its image chunks and
``training._train_step`` the siamese arms of a step.

While any call of ``run`` with more than one run is active, the OpenBLAS
that numpy loaded is held at one thread, so each worker's GEMMs do not
also ask BLAS's own pool for threads; the count is restored when the last
such call ends, also when a worker raises.  The count is process-wide:
meanwhile, a caller's other threads get one BLAS thread too.  Where numpy
ships no OpenBLAS with the thread-count calls, nothing is changed.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import glob
import os
import threading
from typing import Callable, Iterator, Sequence

import numpy as np


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split(items: range) -> list[range]:
    """``items`` cut into contiguous runs of near-equal length, one per
    usable CPU and at most one per item (none for an empty range)."""
    count = min(usable_cpus(), len(items))
    return [items[len(items) * i // count:len(items) * (i + 1) // count]
            for i in range(count)]


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set thread-count calls of the OpenBLAS in numpy's
    wheel (``numpy.libs``), or ``None`` where there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs,
                                              "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_hold_lock = threading.Lock()
_holders = 0  # active calls of ``_one_blas_thread``
_saved_threads = 1  # the count that the last holder restores


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """OpenBLAS at one thread while any caller is inside; the first one
    in saves the count and the last one out restores it."""
    global _holders, _saved_threads
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _hold_lock:
        if _holders == 0:
            _saved_threads = get()
            if _saved_threads != 1:
                set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holders -= 1
            if _holders == 0 and _saved_threads != 1:
                set_(_saved_threads)


def run(work: Callable[[int, range], None], runs: Sequence[range]) -> None:
    """``work(i, runs[i])`` for every run at once: run 0 in the caller and
    each other in a thread; returns once all are done."""
    errors: list[BaseException] = []

    def guarded(i: int, items: range) -> None:
        try:
            work(i, items)
        except BaseException as exc:  # raised again by the caller
            errors.append(exc)

    started = []
    with _one_blas_thread() if len(runs) > 1 else contextlib.nullcontext():
        try:
            for i, items in enumerate(runs[1:], start=1):
                thread = threading.Thread(
                    target=contextvars.copy_context().run,
                    args=(guarded, i, items))
                thread.start()
                started.append(thread)
            if runs:
                work(0, runs[0])
        finally:
            for thread in started:
                thread.join()
    if errors:
        raise errors[0]
