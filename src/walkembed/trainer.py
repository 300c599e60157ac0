"""Skip-gram training over co-occurrence records, sync or async.

Training reads its records from a records directory, one read-only shard
map at a time, filtered in one pass on two threads where two CPUs may be used.
The directory's manifest gives the table's row count: its num_nodes.
Both modes run one training loop, the lane: each step builds one batch of
R * B positives from the lane's record stream, with their negatives, and
applies one mean-reduced gradient over it, which equals the mean of the
gradients of its R micro-batches of B. Each positive keeps its destination,
int32 where the table has at most 2**31 rows, and its float32 weight: 8
bytes. Sources are kept as runs of equal sources, which the shards' order
makes long, and a stream expands the runs of each shuffle window once, when
it draws the window; each batch widens its ids to int64.

Sync mode mirrors replicated data-parallel training: one lane with R =
num_replicas, bitwise deterministic for a fixed seed. Where the process may
use more than one CPU, the calling thread and one helper thread share the
halves of every step, in three hand-offs (see model); the output is bitwise
the same.

Async mode mirrors a parameter-server deployment: num_workers threads each
run a lane with R = 1 over a disjoint record stripe and update the shared
table with no locking or ordering. Lost or torn updates are within contract;
only the W=1 case is deterministic.

In both modes the first failed step raises once every lane has stopped, so a
run that returns has applied its whole budget.
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import cores
from .errors import ValidationError, check_keys
from .graph import run_index, run_starts
from .model import EmbeddingTable, FixedSgd, WarmupDecaySchedule, init_table, loss_and_grad
from .rng import derive_seed
from .shards import check_records, iter_shards, read_manifest

SHUFFLE_BUFFER = 1 << 16  # records per shuffle window of a RecordStream
LOAD_BLOCK = 1 << 16  # records per block of the record load's filter
EXPAND_BLOCK = 1 << 11  # positions of a window whose sources one run_index expands
LOG_EVERY = 50  # steps between progress log entries


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 128
    mode: str = "sync"  # {"sync", "async"}
    per_replica_batch_size: int = 1024
    negatives_per_positive: int = 3
    num_replicas: int = 1  # sync: logical replicas per global step
    num_workers: int = 1  # async: concurrent worker threads
    steps: int = 1000  # sync: global steps; async: total micro-batches
    optimizer: WarmupDecaySchedule | FixedSgd = FixedSgd(0.001)
    seed: int = 0
    distance_weighting: tuple[float, ...] | None = None  # None = all ones

    def __post_init__(self):
        if self.mode not in ("sync", "async"):
            raise ValidationError(f"mode must be sync or async, got {self.mode!r}")
        if self.per_replica_batch_size < 1:
            raise ValidationError("per_replica_batch_size must be >= 1")
        if self.negatives_per_positive < 0:
            raise ValidationError("negatives_per_positive must be >= 0")
        if self.num_replicas < 1 or self.num_workers < 1:
            raise ValidationError("replica and worker counts must be >= 1")
        unread = "num_workers" if self.mode == "sync" else "num_replicas"
        if getattr(self, unread) != 1:
            raise ValidationError(f"trainer config key {unread!r} is not read in {self.mode} mode and must be 1")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.mode == "async" and not isinstance(self.optimizer, FixedSgd):
            raise ValidationError("async mode requires a fixed learning rate")
        w = self.distance_weighting
        if w is not None and not (
            isinstance(w, tuple)
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) and x >= 0 for x in w)
            and any(x > 0 for x in w)
        ):
            raise ValidationError(
                f"trainer config key 'distance_weighting' must be a list of finite non-negative numbers,"
                f" not all 0, got {w!r}"
            )

    def to_dict(self) -> dict:
        """JSON-ready fields; the optimizer becomes a dict with a "kind" key."""
        d = asdict(self)
        d["optimizer"] = _optimizer_to_dict(self.optimizer)
        if self.distance_weighting is not None:
            d["distance_weighting"] = list(self.distance_weighting)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of to_dict; absent fields take their defaults, unknown keys raise."""
        check_keys("trainer", d, cls)
        d = dict(d)
        if "optimizer" in d:
            d["optimizer"] = _optimizer_from_dict(d["optimizer"])
        if isinstance(d.get("distance_weighting"), list):
            d["distance_weighting"] = tuple(d["distance_weighting"])
        return cls(**d)

    @property
    def micro_batch_examples(self) -> int:
        return self.per_replica_batch_size * (1 + self.negatives_per_positive)

    @property
    def step_positives(self) -> int:
        """Positives per step: R * B in sync mode, B in async mode."""
        return self.per_replica_batch_size * (self.num_replicas if self.mode == "sync" else 1)

    @property
    def global_batch_examples(self) -> int:
        return self.step_positives * (1 + self.negatives_per_positive)


def _optimizer_to_dict(opt: WarmupDecaySchedule | FixedSgd) -> dict:
    return {"kind": "fixed_sgd" if isinstance(opt, FixedSgd) else "warmup_decay_sgd", **asdict(opt)}


def _optimizer_from_dict(d: dict) -> WarmupDecaySchedule | FixedSgd:
    """The optimizer named by d["kind"], with every field of its dataclass."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind not in ("fixed_sgd", "warmup_decay_sgd"):
        raise ValidationError(f"optimizer config needs a 'kind' of fixed_sgd or warmup_decay_sgd, got {d!r}")
    cls = FixedSgd if kind == "fixed_sgd" else WarmupDecaySchedule
    params = {k: v for k, v in d.items() if k != "kind"}
    check_keys("optimizer", params, cls)
    return cls(**params)


@dataclass
class ExampleBatch:
    """P positives, each grouped with its k negatives on the same source row.

    dst[:, 0] holds the positives, weighted by weight; dst[:, 1:] holds the
    negatives, weight 1. len() is the example count P * (1+k)."""

    src: np.ndarray  # (P,)
    dst: np.ndarray  # (P, 1+k)
    weight: np.ndarray  # (P,)

    def __len__(self) -> int:
        return self.dst.size


@dataclass
class Positives:
    """Kept positives in record order: a destination and a weight each, and
    the sources as runs. Records are sorted by (source, dest) within a shard,
    so equal sources sit together: positions run_start[r] up to the next
    run's start have source run_src[r]. A run cut at a load block's or a
    shard's edge may repeat its source."""

    dst: np.ndarray  # int32 where the table has at most 2**31 rows, else int64
    weight: np.ndarray  # float32
    run_start: np.ndarray  # int64, ascending from 0
    run_src: np.ndarray  # the ids' dtype

    def __len__(self) -> int:
        return len(self.dst)

    def sources(self, lo: int, hi: int, lane: int = 0, lanes: int = 1) -> np.ndarray:
        """The sources of positions lane + lanes * i for i in [lo, hi), in
        order, by graph.run_index EXPAND_BLOCK positions at a time, so that
        the temporaries stay block-sized however short the runs."""
        out = np.empty(hi - lo, dtype=self.run_src.dtype)
        for a in range(lo, hi, EXPAND_BLOCK):
            b = min(a + EXPAND_BLOCK, hi)
            out[a - lo : b - lo] = self.run_src[run_index(self.run_start, a, b, lane, lanes)]
        return out


def _load_positives(records_dir: str | Path, cfg: TrainConfig, manifest: dict) -> Positives:
    """Every shard's records weighted by co_counts @ the distance weighting,
    less self-pairs and zero weights: dst and weight in columns sized by the
    manifest's record total (int32 ids when its num_nodes <= 2**31), sources
    as runs. Two threads, where two CPUs may be used, share each mapped
    shard's LOAD_BLOCK-record blocks in one pass; each block copies its kept
    rows, at most its own, into the columns from its own first record on, and
    returns its runs; they then move down to the kept count. A fault is
    raised after both are done, as one thread reading in order finds it."""
    num_nodes = manifest["num_nodes"]
    walk_length = manifest["config"]["walk_length"]
    weighting = np.asarray(np.ones(walk_length) if cfg.distance_weighting is None else cfg.distance_weighting, float)
    if len(weighting) != walk_length:  # raised before any shard is read
        n = len(weighting)
        raise ValidationError(f"distance_weighting has {n} entries, records have walk_length {walk_length}")
    ids = np.int32 if num_nodes <= 2**31 else np.int64
    total = sum(manifest["record_counts"])
    columns = np.empty(total, dtype=ids), np.empty(total, dtype=np.float32)
    run_start, run_src = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=ids)]
    kept = 0
    with cores.helper_pool() as pool:
        for path, records in iter_shards(records_dir, manifest):
            starts, base = range(0, len(records), LOAD_BLOCK), kept

            def filter_block(lo):
                part = records[lo : lo + LOAD_BLOCK]
                check_records(path, part, walk_length, num_nodes)
                w = part["counts"] @ weighting
                keep = (w > 0) & (part["source"] != part["dest"])
                n = np.count_nonzero(keep)
                for column, values in zip(columns, (part["dest"], w)):
                    column[base + lo : base + lo + n] = values[keep]
                src = part["source"][keep]
                firsts = run_starts(src)
                return n, firsts, src[firsts].astype(ids)

            try:
                blocks = cores.share(pool, filter_block, starts)
            except ValidationError:  # the shard's check orders its faults by kind, not by block
                check_records(path, records, walk_length, num_nodes)
                raise
            del records  # unmapped before the next shard is mapped
            for lo, (n, firsts, srcs) in zip(starts, blocks):
                for column in columns:
                    column[kept : kept + n] = column[base + lo : base + lo + n]
                run_start.append(firsts + kept)
                run_src.append(srcs)
                kept += n
    dst, weight = (column[:kept] for column in columns)
    return Positives(dst, weight, np.concatenate(run_start), np.concatenate(run_src))


class RecordStream:
    """Endless shuffled stream of positive examples: stripe `lane` of
    `lanes`, the positions lane, lane + lanes, ... of the positives.

    Each epoch visits every position once, through windows of SHUFFLE_BUFFER
    positions. Epoch e cuts its windows on a grid that starts at
    (e * SHUFFLE_BUFFER // 2) % SHUFFLE_BUFFER, so records share windows
    with different neighbours in alternate epochs. Each window is shuffled
    by the epoch's seeded generator when the stream reaches it, and its
    sources are expanded from the runs then: the stream holds one window of
    offsets and sources, never an epoch's order.
    """

    def __init__(self, positives: Positives, seed: int, lane: int = 0, lanes: int = 1):
        if len(positives) <= lane:
            raise ValidationError("record stream is empty after filtering")
        self.positives, self.lane, self.lanes = positives, lane, lanes
        self.dst, self.weight = positives.dst[lane::lanes], positives.weight[lane::lanes]
        self.seed = seed
        self.epochs_completed = 0
        self._order = np.empty(0, dtype=np.int32)  # the current window's offsets from _lo, shuffled
        self._sources = None  # the sources of the window's positions, unshuffled
        self._lo = 0
        self._used = 0  # how many offsets have been taken
        self._end = len(self.dst)  # epoch position where the window ends; the epoch's end starts the next

    def __len__(self) -> int:
        return len(self.dst)

    def _next_window(self) -> None:
        """Shuffle the next window: [0, grid) first, then one SHUFFLE_BUFFER
        from each grid line, the last cut at the epoch's end."""
        n = len(self.dst)
        if self._end == n:
            self._rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.epochs_completed)))
            self._end = 0
        grid = (self.epochs_completed * SHUFFLE_BUFFER // 2) % SHUFFLE_BUFFER
        lo = self._end
        hi = min(grid if lo < grid else lo + SHUFFLE_BUFFER, n)
        self._order = self._sources = None  # free the old window before drawing the next
        self._order = self._rng.permutation(hi - lo).astype(np.int32)  # int64 while drawn
        self._sources = self.positives.sources(lo, hi, self.lane, self.lanes)
        self._lo, self._used, self._end = lo, 0, hi

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Next `count` positions and their sources (int64), wrapping into the next epoch."""
        out, src = np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._used == len(self._order):
                self._next_window()
            got = min(count - filled, len(self._order) - self._used)
            offsets = self._order[self._used : self._used + got].astype(np.intp)  # widened once for both uses
            np.add(offsets, self._lo, out=out[filled : filled + got])
            src[filled : filled + got] = self._sources[offsets]
            del offsets  # freed before the next window is drawn
            self._used += got
            filled += got
            if self._used == len(self._order) and self._end == len(self.dst):
                self.epochs_completed += 1
        return out, src


def build_batch(
    stream: RecordStream, cfg: TrainConfig, rng: np.random.Generator, num_nodes: int
) -> ExampleBatch:
    """One step's batch: cfg.step_positives positives in one take, each
    grouped with its uniform negatives from one draw.

    The R micro-batches of a sync step are its consecutive slices of B
    positives: the stream is sequential, and one draw of (R * B, k)
    negatives equals R draws of (B, k) in turn. Negative destinations are
    drawn uniformly from the whole vocabulary with no rejection, so a
    negative may coincide with a true edge.
    """
    idx, src = stream.take(cfg.step_positives)
    negs = rng.integers(0, num_nodes, size=(len(idx), cfg.negatives_per_positive), dtype=np.int64)
    return ExampleBatch(src, np.column_stack([stream.dst[idx], negs]), stream.weight[idx])


@dataclass
class TrainResult:
    table: EmbeddingTable
    graph_hash: str  # the records manifest's: the graph the records were sampled from
    log: list[dict] = field(default_factory=list)
    examples_processed: int = 0
    elapsed_s: float = 0.0
    worker_failures: int = 0  # always 0 (a failed step raises); kept while perfbench's check_round reads it


class _Progress:
    """The progress log the lanes of one run share.

    Steps are numbered from 0 in the order they complete. An entry is written
    at step 0, every LOG_EVERY steps and the last step; its
    examples_per_sec covers the window since the previous entry.
    """

    def __init__(self, log: list[dict], cfg: TrainConfig):
        self.log, self.cfg = log, cfg
        self.lock = threading.Lock()
        self.steps = self.steps_logged = 0
        self.t0 = self.t_logged = time.monotonic()

    def step_done(self, lr: float, loss: float) -> None:
        with self.lock:
            step = self.steps
            self.steps += 1
            if step % LOG_EVERY and step != self.cfg.steps - 1:
                return
            now = time.monotonic()
            examples = (self.steps - self.steps_logged) * self.cfg.global_batch_examples
            eps = examples / max(now - self.t_logged, 1e-9)
            self.steps_logged, self.t_logged = self.steps, now
            self.log.append({"step": step, "lr": lr, "loss": loss, "examples_per_sec": eps})


def _setup(
    mode: str, records_dir: str | Path, cfg: TrainConfig, table: EmbeddingTable | None
) -> tuple[EmbeddingTable, Positives, list[dict], str]:
    """Set-up shared by both modes: the filtered positives, mapped one shard
    at a time, a table of the manifest's num_nodes rows (the one given, else
    a seeded float32 init), a log opened by the config event and the
    manifest's graph_hash."""
    if cfg.mode != mode:
        raise ValidationError(f"train_{mode} requires cfg.mode == {mode!r}")
    manifest = read_manifest(records_dir)
    n = manifest["num_nodes"]
    if table is not None and table.num_nodes != n:  # raised before any shard is mapped
        rows = table.num_nodes
        raise ValidationError(f"{records_dir}: records of a graph of {n} nodes, but the table has {rows} rows")
    positives = _load_positives(records_dir, cfg, manifest)
    table = table if table is not None else init_table(n, cfg.dim, derive_seed(cfg.seed, "init"))
    parallel = "num_replicas" if mode == "sync" else "num_workers"
    config_event = {
        "event": "config",
        "mode": mode,
        "micro_batch_examples": cfg.micro_batch_examples,
        parallel: getattr(cfg, parallel),
        "global_batch_examples": cfg.global_batch_examples,
        "steps": cfg.steps,
    }
    return table, positives, [config_event], manifest["graph_hash"]


def _lane(
    table: EmbeddingTable, stream: RecordStream, neg_rng: np.random.Generator, cfg: TrainConfig,
    steps: int, stop: threading.Event, progress: _Progress, pool: ThreadPoolExecutor | None,
) -> None:
    """Apply `steps` steps of one batch each, or fewer once `stop` is set.

    Each step takes one mean-reduced gradient over its batch; given a pool,
    its thread shares the halves of each step. A non-finite loss or gradient
    raises in loss_and_grad, before the table is written. A failed step sets
    `stop`, so that the other lanes start no further step, and raises.
    """
    for done in range(steps):
        if stop.is_set():
            return
        lr = cfg.optimizer.lr_at(done)
        try:
            loss, grad = loss_and_grad(table, build_batch(stream, cfg, neg_rng, table.num_nodes), pool)
            # lanes share the table with no lock: a read-modify-write may race (by contract)
            grad.apply(table, lr, pool)
        except Exception:
            stop.set()
            raise
        progress.step_done(lr, loss)


def _result(
    table: EmbeddingTable, cfg: TrainConfig, progress: _Progress, log_path: str | Path | None, graph_hash: str
) -> TrainResult:
    """Write the log and count the examples of the steps the lanes applied."""
    if log_path is not None:
        with Path(log_path).open("w", encoding="utf-8") as fh:
            for e in progress.log:
                fh.write(json.dumps(e) + "\n")
    return TrainResult(
        table=table,
        log=progress.log,
        examples_processed=progress.steps * cfg.global_batch_examples,
        elapsed_s=time.monotonic() - progress.t0,
        graph_hash=graph_hash,
    )


def train_sync(
    records_dir: str | Path, cfg: TrainConfig, table: EmbeddingTable | None = None, *,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Replicated synchronous training, bitwise deterministic for a seed, of
    `table`, else a seeded one, with a row per node of the records manifest.

    One lane: each step builds one batch of R * B positives, the R replica
    micro-batches in replica order, and takes one mean-reduced gradient over
    it, which equals the mean of the R per-replica gradients. The calling
    thread runs the lane; when the process may use more than one CPU, one
    helper thread shares the halves of each step, bitwise the same as one
    thread. A failure is raised at once, after the helper finishes its half.
    """
    table, positives, log, graph_hash = _setup("sync", records_dir, cfg, table)
    stream = RecordStream(positives, derive_seed(cfg.seed, "stream"))
    neg_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xB0)))
    progress = _Progress(log, cfg)
    with cores.helper_pool() as pool:
        _lane(table, stream, neg_rng, cfg, cfg.steps, threading.Event(), progress, pool)
    return _result(table, cfg, progress, log_path, graph_hash)


def train_async(
    records_dir: str | Path, cfg: TrainConfig, table: EmbeddingTable | None = None, *,
    log_path: str | Path | None = None,
) -> TrainResult:
    """Lock-free concurrent training on a shared table, sized as train_sync's.

    One lane of one micro-batch per step on each of num_workers threads.
    cfg.steps counts micro-batches across all workers, so the example budget
    is identical for any worker count. The first failed micro-batch stops
    every worker before its next one and is raised here, as in sync mode, so
    a run that returns has applied its whole budget.
    """
    table, positives, log, graph_hash = _setup("async", records_dir, cfg, table)
    workers = cfg.num_workers
    if len(positives) < workers:  # a worker would stream an empty stripe
        raise ValidationError(f"train_async has {len(positives)} positives for {workers} workers")
    # stripe records across workers; each worker shuffles its own stripe
    streams = [RecordStream(positives, derive_seed(cfg.seed, f"stream-{wk}"), wk, workers) for wk in range(workers)]
    neg_rngs = [np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA5, wk))) for wk in range(workers)]
    quota = [cfg.steps // workers + (1 if wk < cfg.steps % workers else 0) for wk in range(workers)]
    stop = threading.Event()
    progress = _Progress(log, cfg)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_lane, table, streams[wk], neg_rngs[wk], cfg, quota[wk], stop, progress, None)
            for wk in range(workers)
        ]
    for f in futures:
        f.result()  # re-raises a lane's failure
    return _result(table, cfg, progress, log_path, graph_hash)
