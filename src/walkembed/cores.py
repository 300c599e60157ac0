"""The second core: one helper thread, started only where it can run.

Each stage that splits its work (the record load, the table init, a sync
training step, the sampler's shards, a pipeline stage's output hashes, the
eval's row normalization and pair distances) opens `helper_pool()`, which
holds one worker thread when the process may use more than one CPU and none
otherwise, and hands its items (blocks, shards, files, or a step's two
halves) to `share`, where the calling thread and the helper each take the
next item nobody has taken. It returns only after both threads have
finished, also when one of them raised, so nothing still runs or writes
after a failure and the helper is joined when the pool's `with` block ends.
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
    """[fn(x) for x in items], in item order. Without a pool, on this thread
    alone; with one, this thread and the pool's thread each take the next
    item nobody has taken, so unequal items even out. Once a call raises, no
    further item is taken; the failure is raised after both threads have
    finished their current item (this thread's own failure first)."""
    items = list(items)
    if pool is None or len(items) < 2:
        return [fn(x) for x in items]
    results = [None] * len(items)
    order = iter(range(len(items)))
    lock = threading.Lock()
    failed = threading.Event()

    def drain():
        while not failed.is_set():
            with lock:
                i = next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException:
                failed.set()
                raise

    helper = pool.submit(drain)
    try:
        drain()
    except BaseException:
        futures.wait([helper])
        raise
    helper.result()
    return results
