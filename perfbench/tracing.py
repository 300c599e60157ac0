"""Spans around walkembed's public entry points, taken from outside.

`Tracer.install` replaces the module attributes that callers look up at call
time (for example `walkembed.trainer.loss_and_grad` or
`walkembed.model.SparseGrad.apply`) with wrappers that record a span: name,
thread, start, end, the enclosing span on the same thread, and an optional
work count. Spans stay in memory; `layer_metrics` turns them into the
per-layer figures and `dump` writes them, with self times, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import walkembed
from walkembed import graph, metrics, model, pipeline, sampler, sbm, shards, trainer

MODULES = (walkembed, sbm, graph, sampler, shards, trainer, model, metrics, pipeline)


@dataclass
class Span:
    id: int
    name: str
    thread: int
    parent: int  # id of the enclosing span on the same thread, -1 at the top
    start: float
    end: float = 0.0
    count: float = 0.0  # work done, when the wrapper counts it
    rss_rise_mb: float = 0.0  # rise of the process high-water mark

    @property
    def duration(self) -> float:
        return self.end - self.start


def maxrss_mb() -> float:
    """High-water mark of this process's resident set."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _len_result(args, kwargs, result):
    return len(result)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _batch_examples(args, kwargs, result):
    return len(args[1])


def _grad_rows(args, kwargs, result):
    return len(args[0].ids)


def _num_records(args, kwargs, result):
    return result.num_records


# (owner, attribute, span name, work count, record the rss rise)
ENTRY_POINTS = (
    (sbm, "generate_sbm", "sbm.generate_sbm", None, False),
    (graph, "load_edge_list", "graph.load_edge_list", None, False),
    (graph, "prune_low_degree", "graph.prune_low_degree", None, False),
    (graph, "save_csr", "graph.save_csr", None, False),
    (graph, "load_csr", "graph.load_csr", None, False),
    (sampler, "run_sampling", "sampler.run_sampling", _num_records, True),
    (sampler, "step_walks", "sampler.step_walks", _len_result, False),
    (shards, "write_shard", "shards.write_shard", _file_size, False),
    (shards, "load_all_records", "shards.load_all_records", None, True),
    (trainer, "train_sync", "trainer.train_sync", None, True),
    (trainer, "train_async", "trainer.train_async", None, True),
    (trainer, "build_batch", "trainer.build_batch", None, False),
    (model, "init_table", "model.init_table", None, False),
    (model, "loss_and_grad", "model.loss_and_grad", _batch_examples, False),
    (model.SparseGrad, "apply", "model.SparseGrad.apply", _grad_rows, False),
    (model, "save_checkpoint", "model.save_checkpoint", None, False),
    (model, "load_checkpoint", "model.load_checkpoint", None, False),
    (metrics, "compute_report", "metrics.compute_report", None, True),
    (metrics, "edge_recall", "metrics.edge_recall", None, False),
    (metrics, "sample_non_edges", "metrics.sample_non_edges", None, False),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.max_threads = 0  # most Python threads alive at any span start

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, rss=False):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            self.max_threads = max(self.max_threads, threading.active_count())
            span = Span(next(self._ids), name, threading.get_ident(), stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(span.id)
            rss0 = maxrss_mb() if rss else 0.0
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if rss:
                span.rss_rise_mb = maxrss_mb() - rss0
            if count is not None:
                span.count = float(count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap each entry point under every name a walkembed module binds it to."""
        for owner, attr, name, count, rss in ENTRY_POINTS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count, rss)
            targets = [owner] if isinstance(owner, type) else MODULES
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def dump(self, path: str | Path) -> None:
        selfs = self_times(self.spans)
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                row = asdict(s)
                row["duration"] = s.duration
                row["self"] = selfs[s.id]
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children on the same thread cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def wrapper_cost_s() -> float:
    """Mean added cost of one traced call, timed on 20 000 calls of a no-op."""
    calls = 20_000

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    bare = clock() - t0
    t0 = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - t0 - bare) / calls)


def layer_metrics(spans: list[Span], edge_lines: int = 0) -> dict[str, float]:
    """Per-layer figures from one traced round; 0 for a layer it never entered."""
    total = defaultdict(float)
    counts = defaultdict(float)
    calls = defaultdict(int)
    rss = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        counts[s.name] += s.count
        calls[s.name] += 1
        rss[s.name] += s.rss_rise_mb
    selfs = self_times(spans)
    self_of = defaultdict(float)
    for s in spans:
        self_of[s.name] += selfs[s.id]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    train_s = total["trainer.train_sync"] + total["trainer.train_async"]
    busy_s = total["trainer.build_batch"] + total["model.loss_and_grad"] + total["model.SparseGrad.apply"]
    return {
        "sbm.generate_s": total["sbm.generate_sbm"],
        "graph.load_edge_list_s": total["graph.load_edge_list"],
        "graph.edge_lines_per_s": rate(edge_lines, total["graph.load_edge_list"]),
        "graph.prune_s": total["graph.prune_low_degree"],
        "graph.csr_io_s": total["graph.save_csr"] + total["graph.load_csr"],
        "sampler.run_sampling_s": total["sampler.run_sampling"],
        "sampler.walk_steps_per_s": rate(counts["sampler.step_walks"], total["sampler.run_sampling"]),
        "sampler.step_walks_s": total["sampler.step_walks"],
        "sampler.combine_s": total["sampler.run_sampling"] - total["sampler.step_walks"] - total["shards.write_shard"],
        "sampler.visits_per_record": rate(counts["sampler.step_walks"], counts["sampler.run_sampling"]),
        "shards.write_shard_s": total["shards.write_shard"],
        "shards.bytes_written": counts["shards.write_shard"],
        "shards.load_all_records_s": total["shards.load_all_records"],
        "trainer.build_batch_s": total["trainer.build_batch"],
        "model.loss_and_grad_s": total["model.loss_and_grad"],
        "model.loss_and_grad_examples_per_s": rate(counts["model.loss_and_grad"], total["model.loss_and_grad"]),
        "model.apply_s": total["model.SparseGrad.apply"],
        "model.rows_per_apply": rate(counts["model.SparseGrad.apply"], calls["model.SparseGrad.apply"]),
        "trainer.sync_reduce_s": self_of["trainer.train_sync"],
        "trainer.worker_overlap": rate(busy_s, train_s),
        "metrics.compute_report_s": total["metrics.compute_report"],
        "metrics.edge_recall_s": total["metrics.edge_recall"],
        "metrics.sample_non_edges_s": total["metrics.sample_non_edges"],
        "pipeline.overhead_s": self_of["pipeline.run_pipeline"],
        "sampler.rss_rise_mb": rss["sampler.run_sampling"],
        "shards.rss_rise_mb": rss["shards.load_all_records"],
        "trainer.rss_rise_mb": rss["trainer.train_sync"] + rss["trainer.train_async"] - rss["shards.load_all_records"],
        "metrics.rss_rise_mb": rss["metrics.compute_report"],
        "trace.span_count": float(len(spans)),
    }


def print_self_times(spans: list[Span]) -> None:
    """Calls, total and self seconds per span name, on standard error."""
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += s.duration
        row[2] += selfs[s.id]
    print(f"{'span':<28} {'calls':>7} {'total_s':>9} {'self_s':>9}", file=sys.stderr)
    for name, (n, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:<28} {n:>7} {tot:>9.3f} {slf:>9.3f}", file=sys.stderr)
