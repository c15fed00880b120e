"""Contiguous runs of work on every CPU the process may use.

``split`` cuts a range into one contiguous run per usable CPU, and ``run``
works the runs at once: the first in the caller, each other in a thread of
its own.  numpy's ufuncs and BLAS release the GIL, so the threads compute
side by side.  Each thread runs in a copy of the caller's ``contextvars``
context, so the caller's ``np.errstate`` holds there too.  Every thread is
joined before ``run`` returns or raises, and a worker's exception is raised
again in the caller.  One run starts no thread.  ``distance._lk_sums``
splits its row blocks this way and ``net.embed`` its image chunks.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, Sequence


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
    try:
        for i, items in enumerate(runs[1:], start=1):
            thread = threading.Thread(target=contextvars.copy_context().run,
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
