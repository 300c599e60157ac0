"""Skip-gram training over co-occurrence records, sync or async.

Sync mode mirrors replicated data-parallel training: R logical replicas each
build a micro-batch, and one update is applied per global step. Under mean
reduction the average of R equal-size micro-batch gradients is the gradient
of their concatenation, so each step takes one gradient over the R
concatenated micro-batches. The trajectory is bitwise deterministic for a
fixed seed.

Async mode mirrors a parameter-server deployment: worker threads build
batches from disjoint record stripes and apply sparse updates to the shared
table with no locking or ordering. Lost or torn updates are within contract;
only the W=1 case is deterministic.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_keys
from .model import (
    EmbeddingTable,
    FixedSgd,
    WarmupDecaySchedule,
    init_table,
    loss_and_grad,
)
from .rng import derive_seed
from .shards import RecordBatch, load_all_records


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
    self_pair_filter: bool = True
    distance_weighting: tuple[float, ...] | None = None  # None = all ones
    shuffle_buffer: int = 1 << 16
    dual_table: bool = False
    table_dtype: str = "float32"

    def __post_init__(self):
        if self.mode not in ("sync", "async"):
            raise ValidationError(f"mode must be sync or async, got {self.mode!r}")
        if self.per_replica_batch_size < 1:
            raise ValidationError("per_replica_batch_size must be >= 1")
        if self.negatives_per_positive < 0:
            raise ValidationError("negatives_per_positive must be >= 0")
        if self.num_replicas < 1 or self.num_workers < 1:
            raise ValidationError("replica and worker counts must be >= 1")
        if self.steps < 1:
            raise ValidationError("steps must be >= 1")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.mode == "async" and not isinstance(self.optimizer, FixedSgd):
            raise ValidationError("async mode requires a fixed learning rate")
        if self.table_dtype not in ("float32", "float64"):
            raise ValidationError("table_dtype must be float32 or float64")

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
        if d.get("distance_weighting") is not None:
            d["distance_weighting"] = tuple(d["distance_weighting"])
        return cls(**d)

    @property
    def micro_batch_examples(self) -> int:
        return self.per_replica_batch_size * (1 + self.negatives_per_positive)

    @property
    def global_batch_examples(self) -> int:
        replicas = self.num_replicas if self.mode == "sync" else 1
        return self.micro_batch_examples * replicas


def _optimizer_to_dict(opt: WarmupDecaySchedule | FixedSgd) -> dict:
    if isinstance(opt, FixedSgd):
        return {"kind": "fixed_sgd", "lr": opt.lr}
    return {
        "kind": "warmup_decay_sgd",
        "warmup_steps": opt.warmup_steps,
        "peak_lr": opt.peak_lr,
        "decay_steps": opt.decay_steps,
        "final_lr": opt.final_lr,
    }


def _optimizer_from_dict(d: dict) -> WarmupDecaySchedule | FixedSgd:
    kind = d.get("kind")
    if kind == "fixed_sgd":
        return FixedSgd(lr=d["lr"])
    if kind == "warmup_decay_sgd":
        return WarmupDecaySchedule(
            warmup_steps=d["warmup_steps"],
            peak_lr=d["peak_lr"],
            decay_steps=d["decay_steps"],
            final_lr=d["final_lr"],
        )
    raise ValidationError(f"unknown optimizer kind {kind!r}")


@dataclass
class ExampleBatch:
    """Positives and their trailing negatives, flattened in emission order."""

    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    positive: np.ndarray

    def __len__(self) -> int:
        return len(self.src)


def prepare_positives(
    records: RecordBatch, cfg: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse histograms to per-pair weights; drop self-pairs and zero weights."""
    wl = records.walk_length
    weighting = (
        np.asarray(cfg.distance_weighting, dtype=np.float64)
        if cfg.distance_weighting is not None
        else np.ones(wl)
    )
    if len(weighting) != wl:
        raise ValidationError(
            f"distance_weighting has {len(weighting)} entries, records have walk_length {wl}"
        )
    weight = records.co_counts @ weighting
    keep = weight > 0
    if cfg.self_pair_filter:
        keep &= records.source != records.dest
    return (
        records.source[keep],
        records.dest[keep],
        weight[keep].astype(np.float32),
    )


class RecordStream:
    """Endless shuffled stream of positive examples.

    Each epoch visits every record once: positions are consumed through a
    shuffle window of `shuffle_buffer` records (the whole epoch order is
    materialized window by window), with a fresh seeded permutation per
    epoch. Wraps around at epoch end.
    """

    def __init__(self, src, dst, weight, seed: int, shuffle_buffer: int = 1 << 16):
        if len(src) == 0:
            raise ValidationError("record stream is empty after filtering")
        self.src, self.dst, self.weight = src, dst, weight
        self.seed = seed
        self.shuffle_buffer = max(1, shuffle_buffer)
        self.epochs_completed = 0
        self._order = self._epoch_order(0)
        self._pos = 0

    def __len__(self) -> int:
        return len(self.src)

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, epoch)))
        n = len(self.src)
        order = np.arange(n, dtype=np.int64)
        for lo in range(0, n, self.shuffle_buffer):
            window = order[lo : lo + self.shuffle_buffer]
            rng.shuffle(window)
        # rotate window boundaries across epochs so records can cross windows
        return np.roll(order, (epoch * self.shuffle_buffer) // 2)

    def take(self, count: int) -> np.ndarray:
        """Next `count` record indices, wrapping into the next epoch."""
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            got = min(count - filled, len(self._order) - self._pos)
            out[filled : filled + got] = self._order[self._pos : self._pos + got]
            self._pos += got
            filled += got
            if self._pos == len(self._order):
                self.epochs_completed += 1
                self._order = self._epoch_order(self.epochs_completed)
                self._pos = 0
        return out


def build_batch(
    stream: RecordStream, cfg: TrainConfig, rng: np.random.Generator, num_nodes: int
) -> ExampleBatch:
    """One micro-batch: B positives, each followed by its uniform negatives.

    Negative destinations are drawn uniformly from the whole vocabulary with
    no rejection, so a negative may coincide with a true edge.
    """
    b = cfg.per_replica_batch_size
    k = cfg.negatives_per_positive
    idx = stream.take(b)
    src_p, dst_p, w_p = stream.src[idx], stream.dst[idx], stream.weight[idx]
    width = 1 + k
    src = np.repeat(src_p, width)
    dst = np.empty(b * width, dtype=np.int64)
    weight = np.ones(b * width, dtype=np.float32)
    positive = np.zeros(b * width, dtype=bool)
    dst[::width] = dst_p
    weight[::width] = w_p
    positive[::width] = True
    if k:
        negs = rng.integers(0, num_nodes, size=b * k, dtype=np.int64)
        mask = ~positive
        dst[mask] = negs
    return ExampleBatch(src, dst, weight, positive)


@dataclass
class TrainResult:
    table: EmbeddingTable
    log: list[dict] = field(default_factory=list)
    examples_processed: int = 0
    elapsed_s: float = 0.0
    worker_failures: int = 0
    context_table: EmbeddingTable | None = None


def _setup(
    mode: str,
    records: RecordBatch | str | Path,
    cfg: TrainConfig,
    table: EmbeddingTable | None,
    num_nodes: int | None,
) -> tuple[EmbeddingTable, EmbeddingTable | None, tuple[np.ndarray, np.ndarray, np.ndarray], list[dict]]:
    """Set-up shared by both modes: the table (seeded init when none is given,
    sized by num_nodes or else by the largest record id), the optional context
    table, the filtered positives, and a log opened by the config event."""
    if cfg.mode != mode:
        raise ValidationError(f"train_{mode} requires cfg.mode == {mode!r}")
    if not isinstance(records, RecordBatch):
        records, _ = load_all_records(records)
    if table is None:
        if num_nodes is None:
            num_nodes = int(max(records.source.max(), records.dest.max())) + 1
        table = init_table(num_nodes, cfg.dim, derive_seed(cfg.seed, "init"), np.dtype(cfg.table_dtype))
    context = (
        init_table(table.num_nodes, cfg.dim, derive_seed(cfg.seed, "context"), table.values.dtype)
        if cfg.dual_table
        else None
    )
    parallel = "num_replicas" if mode == "sync" else "num_workers"
    config_event = {
        "event": "config",
        "mode": mode,
        "micro_batch_examples": cfg.micro_batch_examples,
        parallel: getattr(cfg, parallel),
        "global_batch_examples": cfg.global_batch_examples,
        "steps": cfg.steps,
    }
    return table, context, prepare_positives(records, cfg), [config_event]


def _write_log(log_path: str | Path | None, entries: list[dict]) -> None:
    if log_path is None:
        return
    with Path(log_path).open("w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


def train_sync(
    records: RecordBatch | str | Path,
    cfg: TrainConfig,
    table: EmbeddingTable | None = None,
    num_nodes: int | None = None,
    log_path: str | Path | None = None,
    log_every: int = 50,
) -> TrainResult:
    """Replicated synchronous training, bitwise deterministic for a seed.

    Each step builds the R micro-batches in replica order and takes one
    mean-reduced gradient over their concatenation, which equals the mean
    of the R per-replica gradients.
    """
    table, context, (src, dst, w), log = _setup("sync", records, cfg, table, num_nodes)
    stream = RecordStream(src, dst, w, derive_seed(cfg.seed, "stream"), cfg.shuffle_buffer)
    neg_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xB0)))
    t0 = time.monotonic()
    t_last, ex_last = t0, 0
    examples = 0
    for step in range(cfg.steps):
        lr = cfg.optimizer.lr_at(step)
        batches = [build_batch(stream, cfg, neg_rng, table.num_nodes) for _ in range(cfg.num_replicas)]
        batch = ExampleBatch(
            *(np.concatenate([getattr(b, f) for b in batches]) for f in ("src", "dst", "weight", "positive"))
        )
        out = loss_and_grad(table, batch, context)
        out.main.apply(table, lr)
        if context is not None:
            out.context.apply(context, lr)
        examples += cfg.global_batch_examples
        if step % log_every == 0 or step == cfg.steps - 1:
            now = time.monotonic()
            eps = (examples - ex_last) / max(now - t_last, 1e-9)
            t_last, ex_last = now, examples
            log.append({"step": step, "lr": lr, "loss": out.loss, "examples_per_sec": eps})
    _write_log(log_path, log)
    return TrainResult(
        table=table,
        log=log,
        examples_processed=examples,
        elapsed_s=time.monotonic() - t0,
        context_table=context,
    )


def _async_worker(
    worker_id: int,
    table: EmbeddingTable,
    context: EmbeddingTable | None,
    stream: RecordStream,
    cfg: TrainConfig,
    num_batches: int,
    progress: dict,
    lock: threading.Lock,
    stop: threading.Event,
    log: list[dict],
    log_every: int,
    max_failures: int,
) -> tuple[int, int]:
    """Apply `num_batches` micro-batches; returns (batches applied, failures).

    Raises the last failure once more than `max_failures` batches failed, and
    sets `stop` so that the other workers end early.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xA5, worker_id)))
    lr = cfg.optimizer.lr_at(0)
    failures = 0
    done = 0
    while done < num_batches and not stop.is_set():
        try:
            batch = build_batch(stream, cfg, rng, table.num_nodes)
            out = loss_and_grad(table, batch, context)
            # unsynchronized read-modify-write on the shared table (by contract)
            out.main.apply(table, lr)
            if context is not None and out.context is not None:
                out.context.apply(context, lr)
        except Exception:
            # stream position survives; retry from the next batch
            failures += 1
            if failures > max_failures:
                stop.set()
                raise
            continue
        done += 1
        with lock:
            progress["batches"] += 1
            total = progress["batches"]
            if total % log_every == 0:
                eps = total * cfg.micro_batch_examples / max(time.monotonic() - progress["t0"], 1e-9)
                log.append({"step": total, "lr": lr, "loss": out.loss, "examples_per_sec": eps})
    return done, failures


def train_async(
    records: RecordBatch | str | Path,
    cfg: TrainConfig,
    table: EmbeddingTable | None = None,
    num_nodes: int | None = None,
    log_path: str | Path | None = None,
    log_every: int = 50,
    max_failures: int = 3,
) -> TrainResult:
    """Lock-free concurrent training on a shared table.

    cfg.steps counts micro-batches across all workers, so the example budget
    is identical for any worker count. A failed micro-batch is retried from
    the next one; once a worker has more than `max_failures` failures, every
    worker stops and the failure is raised here, so a run that returns has
    applied its whole budget.
    """
    table, context, (src, dst, w), log = _setup("async", records, cfg, table, num_nodes)
    workers = cfg.num_workers
    # stripe records across workers; each worker shuffles its own stripe
    streams = [
        RecordStream(
            src[wk::workers],
            dst[wk::workers],
            w[wk::workers],
            derive_seed(cfg.seed, f"stream-{wk}"),
            cfg.shuffle_buffer,
        )
        for wk in range(workers)
    ]
    quota = [cfg.steps // workers + (1 if wk < cfg.steps % workers else 0) for wk in range(workers)]
    t0 = time.monotonic()
    progress = {"batches": 0, "t0": t0}
    lock = threading.Lock()
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(
                _async_worker,
                wk, table, context, streams[wk], cfg, quota[wk], progress, lock, stop, log, log_every, max_failures,
            )
            for wk in range(workers)
        ]
    # result() re-raises a worker's exception; the counts are exact because
    # each worker counts only its own batches
    counts = [f.result() for f in futures]
    _write_log(log_path, log)
    return TrainResult(
        table=table,
        log=log,
        examples_processed=sum(done for done, _ in counts) * cfg.micro_batch_examples,
        elapsed_s=time.monotonic() - t0,
        worker_failures=sum(failures for _, failures in counts),
        context_table=context,
    )
