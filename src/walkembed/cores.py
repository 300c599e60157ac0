"""The second core: one helper thread, started only where it can run.

Each stage that splits its work (the record load, the table init, a sync
training step, the sampler's shards, a pipeline stage's output hashes, the
eval's row normalization and its distances) opens
`helper_pool()`, which holds one worker thread when the process may use
more than one CPU and none otherwise, and hands its items (blocks, shards,
files, or a step's two halves) to `share`. It returns or raises what the one-thread loop over the
items would, and only after both threads have finished, so nothing still
runs or writes after a failure; the helper is joined when the pool's `with`
block ends.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent import futures


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def helper_pool() -> Iterator[futures.ThreadPoolExecutor | None]:
    """A one-thread pool where the process may use more than one CPU, else
    None: on one CPU a helper thread only adds hand-offs. The thread starts
    at the first submit and is joined on exit."""
    if usable_cpus() < 2:
        yield None
        return
    with futures.ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


def share(pool: futures.Executor | None, fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], raising what that loop raises. This thread and,
    given a pool and two items or more, the pool's thread each take the next
    item in order, so unequal items even out. A failure is stored under its
    item and no further item is taken; once both threads are done, the lowest
    item's failure is raised. Items after it may have run, and all before it
    have finished, so it is the loop's failure."""
    items = list(items)
    results, failures = [None] * len(items), {}
    order = iter(range(len(items)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    helper = pool.submit(drain) if pool is not None and len(items) > 1 else None
    drain()
    if helper is not None:
        helper.result()
    if failures:
        raise failures[min(failures)]
    return results
