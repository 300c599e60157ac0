"""Skip-gram training over co-occurrence records, sync or async.

Training reads its records from a records directory, whose manifest gives
the table's row count: its num_nodes. Set-up indexes them in one pass that
reads and checks one LOAD_BLOCK-record block at a time, on two threads where
two CPUs may be used, keeping only each block's place and positive count.
Both modes run one training loop, the lane: each step builds one batch of
R * B positives from the lane's record stream, with their negatives, and
applies one mean-reduced gradient over it, which equals the mean of the
gradients of its R micro-batches of B. A stream reads the blocks that hold
its next shuffle window when it reaches the window, so training holds the
index, one window and one block of records, never the whole set's positives.

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
from .model import EmbeddingTable, FixedSgd, WarmupDecaySchedule, init_table, loss_and_grad
from .rng import derive_seed
from .shards import iter_shards, read_manifest, read_records

SHUFFLE_BUFFER = 1 << 16  # records per shuffle window of a RecordStream
LOAD_BLOCK = 1 << 13  # records per block of the record index and of a window's reads
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


def _kept(part: np.ndarray, weighting: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which records of a block are positives, and every record's weight,
    counts @ weighting: a positive weighs above 0 and is no self-pair."""
    w = part["counts"] @ weighting
    return (w > 0) & (part["source"] != part["dest"]), w


@dataclass(frozen=True)
class Positives:
    """The kept positives of a records directory, in record order, as an
    index of the blocks that hold them: block b is the `length` records of
    shard paths[shard] from record `first` on, (shard, first, length) =
    blocks[b], and it keeps positions kept[b] up to kept[b + 1]."""

    paths: tuple[Path, ...]
    blocks: np.ndarray  # int64, (blocks, 3): shard, first record, length
    kept: np.ndarray  # int64, ascending from 0, one more entry than blocks
    weighting: np.ndarray  # float64, one per step of the walk length
    num_nodes: int

    def __len__(self) -> int:
        return int(self.kept[-1])

    def read(self, lo: int, hi: int, lane: int = 0, lanes: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (src, dst, weight) columns, int64, int64 and float32, of
        positions lane + lanes * i for i in [lo, hi), read one block at a
        time. Each block is checked again (read_records' checks and its kept
        count): a shard changed since indexed raises ValidationError."""
        columns = np.empty(hi - lo, np.int64), np.empty(hi - lo, np.int64), np.empty(hi - lo, np.float32)
        a, z = lane + lanes * lo, lane + lanes * (hi - 1)  # the window's first and last positions
        b0, b1 = np.searchsorted(self.kept, [a, z], "right") - 1
        for b in range(b0, b1 + 1):
            start, stop = max(a, self.kept[b]), min(z + 1, self.kept[b + 1])
            start += (a - start) % lanes  # the block's first position in the lane
            if start >= stop:
                continue
            (shard, first, length), n = self.blocks[b], self.kept[b + 1] - self.kept[b]
            path, walk_length = self.paths[shard], len(self.weighting)
            part = read_records(path, first, length, walk_length, self.num_nodes)
            keep, w = _kept(part, self.weighting)
            rows = np.flatnonzero(keep)
            if len(rows) != n:
                raise ValidationError(f"{path}: {len(rows)} positives from record {first} on, but {n} when indexed")
            rows, at = rows[start - self.kept[b] : stop - self.kept[b] : lanes], (start - a) // lanes
            for column, values in zip(columns, (part["source"], part["dest"], w)):
                column[at : at + len(rows)] = values[rows]
        return columns


def _index_positives(records_dir: str | Path, cfg: TrainConfig, manifest: dict) -> Positives:
    """The index of every shard's positives (see _kept). Two threads, where
    two CPUs may be used, share each shard's LOAD_BLOCK-record blocks, each
    reading and checking its own and counting its positives. A fault is
    raised after both are done, as one thread reading in order finds it."""
    num_nodes = manifest["num_nodes"]
    walk_length = manifest["config"]["walk_length"]
    weighting = np.asarray(np.ones(walk_length) if cfg.distance_weighting is None else cfg.distance_weighting, float)
    if len(weighting) != walk_length:  # raised before any shard is read
        n = len(weighting)
        raise ValidationError(f"distance_weighting has {n} entries, records have walk_length {walk_length}")
    paths, blocks = [], []  # blocks: (shard, first, length, kept count) each
    with cores.helper_pool() as pool:
        for path, n in iter_shards(records_dir, manifest):
            paths.append(path)

            def count_block(lo):
                part = read_records(path, lo, min(LOAD_BLOCK, n - lo), walk_length, num_nodes)
                return len(paths) - 1, lo, len(part), np.count_nonzero(_kept(part, weighting)[0])

            try:
                blocks += cores.share(pool, count_block, range(0, n, LOAD_BLOCK))
            except ValidationError:  # the whole shard's check orders its faults by kind, not by block
                read_records(path, 0, n, walk_length, num_nodes)
                raise
    blocks = np.array(blocks, dtype=np.int64).reshape(-1, 4)
    kept = np.concatenate([[0], np.cumsum(blocks[:, 3])])
    return Positives(tuple(paths), blocks[:, :3].copy(), kept, weighting, num_nodes)


class RecordStream:
    """Endless shuffled stream of positive examples: stripe `lane` of
    `lanes`, the positions lane, lane + lanes, ... of the positives.

    Each epoch visits every position once, through windows of SHUFFLE_BUFFER
    positions. Epoch e cuts its windows on a grid that starts at
    (e * SHUFFLE_BUFFER // 2) % SHUFFLE_BUFFER, so records share windows
    with different neighbours in alternate epochs. Each window is shuffled
    by the epoch's seeded generator and read (Positives.read) when the
    stream reaches it: the stream holds one window, never an epoch's order.
    """

    def __init__(self, positives: Positives, seed: int, lane: int = 0, lanes: int = 1):
        if len(positives) <= lane:
            raise ValidationError("record stream is empty after filtering")
        self.positives, self.seed, self.lane, self.lanes = positives, seed, lane, lanes
        self.epochs_completed = 0
        self._order = np.empty(0, dtype=np.int32)  # the window's offsets, shuffled, into its _columns
        self._columns = None  # the window's (src, dst, weight), unshuffled
        self._used = 0  # how many offsets have been taken
        self._end = len(self)  # epoch position where the window ends; the epoch's end starts the next

    def __len__(self) -> int:
        return len(range(self.lane, len(self.positives), self.lanes))

    def _next_window(self) -> None:
        """Shuffle the next window: [0, grid) first, then one SHUFFLE_BUFFER
        from each grid line, the last cut at the epoch's end."""
        n = len(self)
        if self._end == n:
            self._rng = np.random.default_rng(np.random.SeedSequence((self.seed, self.epochs_completed)))
            self._end = 0
        grid = (self.epochs_completed * SHUFFLE_BUFFER // 2) % SHUFFLE_BUFFER
        lo = self._end
        hi = min(grid if lo < grid else lo + SHUFFLE_BUFFER, n)
        self._order = self._columns = None  # free the old window before drawing the next
        self._order = self._rng.permutation(hi - lo).astype(np.int32)  # int64 while drawn
        self._columns = self.positives.read(lo, hi, self.lane, self.lanes)
        self._used, self._end = 0, hi

    def take(self, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next `count` positives' (src, dst, weight), wrapping into the next epoch."""
        out = np.empty(count, np.int64), np.empty(count, np.int64), np.empty(count, np.float32)
        filled = 0
        while filled < count:
            if self._used == len(self._order):
                self._next_window()
            got = min(count - filled, len(self._order) - self._used)
            offsets = self._order[self._used : self._used + got].astype(np.intp)  # widened once for all three
            for o, column in zip(out, self._columns):
                np.take(column, offsets, out=o[filled : filled + got])
            del offsets, column  # freed before the next window is drawn
            self._used += got
            filled += got
            if self._used == len(self._order) and self._end == len(self):
                self.epochs_completed += 1
        return out


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
    src, dst, weight = stream.take(cfg.step_positives)
    negs = rng.integers(0, num_nodes, size=(len(src), cfg.negatives_per_positive), dtype=np.int64)
    return ExampleBatch(src, np.column_stack([dst, negs]), weight)


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
    """Set-up shared by both modes: the index of the positives, a table of
    the manifest's num_nodes rows (the one given, else a seeded float32
    init), a log opened by the config event and the manifest's graph_hash."""
    if cfg.mode != mode:
        raise ValidationError(f"train_{mode} requires cfg.mode == {mode!r}")
    manifest = read_manifest(records_dir)
    n = manifest["num_nodes"]
    if table is not None and table.num_nodes != n:  # raised before any shard is read
        rows = table.num_nodes
        raise ValidationError(f"{records_dir}: records of a graph of {n} nodes, but the table has {rows} rows")
    positives = _index_positives(records_dir, cfg, manifest)
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
