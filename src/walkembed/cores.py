"""The second core: one helper thread, started only where it can run.

Each stage that splits its work (the record load, the table init, a sync
training step, the sampler's shards, a pipeline stage's output hashes, the
eval's row normalization and pair distances, block by block) opens
`helper_pool()`, which holds one worker thread when the process may use
more than one CPU and none otherwise, and hands its work to `halves` (two index ranges) or `share`
(items taken in turn). Both return only after both threads have finished,
also when one of them raised, so nothing still runs or writes after a
failure and the helper is joined when the pool's `with` block ends.
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


def halves(pool: futures.Executor | None, work: Callable[[int, int], object], n: int) -> list:
    """work(lo, hi) over [0, n): on this thread alone without a pool; with
    one, [0, n // 2) here while the pool's thread runs [n // 2, n). Returns
    the results in range order. Both halves have finished when this returns
    or raises, so nothing still writes after a failure."""
    if pool is None:
        return [work(0, n)]
    mid = n // 2
    helper = pool.submit(work, mid, n)
    try:
        first = work(0, mid)
    except BaseException:
        futures.wait([helper])
        raise
    return [first, helper.result()]


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
