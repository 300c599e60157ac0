"""Embedding table, learning-rate schedule, and the skip-gram loss.

The seeded table is drawn in row blocks, on two threads where two CPUs may
be used; it is bitwise one draw of the whole table.

One table serves both endpoint roles, as in HUGE. Loss is the standard
logistic contrastive objective: positives maximize sigma(e_u . e_v) with a
per-pair weight, uniform negatives minimize it, mean-reduced over all
examples in a batch. A batch groups each positive with its k negatives on
one source row, so a step gathers that row once and sums its 1+k gradient
contributions before the scatter: B * (2+k) scattered rows, not 2B * (1+k).

The scatter sums each touched row's contributions in batch order, as
np.add.at into zeros would, but without it: one packed sort (group_ids)
groups the rows, and the sums are taken rank by rank with plain fancy-index
adds, which release the GIL so concurrent async workers overlap.

Given a thread pool, a step hands work to the pool's thread three times:
the two threads share the two halves of the batch's rows (gathers, scores,
loss terms, contributions), then of the unique ids (the sums, each half
checking its sums are finite), then of the update. Each value is computed
by the same operations on either thread, and only the loss is summed over
the whole batch, after both halves, so the loss, gradient and table are
bitwise the same as on one thread, where each phase runs whole. A half with
a non-finite loss term or sum raises NumericError for its first source row or
id, and cores.share raises the earlier half's, as one thread would.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cores import helper_pool, share
from .errors import NumericError, ValidationError, check_file_size, check_ids
from .graph import group_ids

CKPT_MAGIC = b"WEEMB01\n"
INIT_BLOCK_ROWS = 4096  # rows per block of init_table's draw


@dataclass
class EmbeddingTable:
    values: np.ndarray  # (num_nodes, dim)

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def init_table(num_nodes: int, dim: int, seed: int) -> EmbeddingTable:
    """Seeded float32 uniform init in [-1/(2*dim), +1/(2*dim)] per entry, in
    blocks of INIT_BLOCK_ROWS rows. Each entry is drawn as a double, one
    64-bit PCG64 draw, so a block's generator skips the lo * dim draws of the
    rows before it."""
    if num_nodes < 1 or dim < 1:
        raise ValidationError("num_nodes and dim must be >= 1")
    seq = np.random.SeedSequence((int(seed), num_nodes, dim))
    half = 1.0 / (2.0 * dim)
    values = np.empty((num_nodes, dim), dtype=np.float32)

    def fill(lo):
        rows = values[lo : lo + INIT_BLOCK_ROWS]
        rows[:] = np.random.Generator(np.random.PCG64(seq).advance(lo * dim)).uniform(-half, half, size=rows.shape)

    with helper_pool() as pool:
        share(pool, fill, range(0, num_nodes, INIT_BLOCK_ROWS))
    return EmbeddingTable(values)


@dataclass(frozen=True)
class WarmupDecaySchedule:
    """SGD learning rate: linear ramp 0 -> peak, linear decay to final, hold."""

    warmup_steps: int
    peak_lr: float
    decay_steps: int
    final_lr: float

    def __post_init__(self):
        if self.warmup_steps < 0 or self.decay_steps < 0:
            raise ValidationError("schedule step counts must be >= 0")
        if not (math.isfinite(self.peak_lr) and self.peak_lr > self.final_lr > 0):
            got = f"{self.peak_lr!r} and {self.final_lr!r}"
            raise ValidationError(f"schedule requires finite peak_lr > final_lr > 0, got {got}")

    def lr_at(self, step: int) -> float:
        """Piecewise-linear rate; continuous at both phase boundaries."""
        if step < 0:
            raise ValidationError("step must be >= 0")
        if step < self.warmup_steps:
            return self.peak_lr * step / self.warmup_steps
        t = step - self.warmup_steps
        if t < self.decay_steps:
            frac = t / self.decay_steps
            return self.peak_lr + (self.final_lr - self.peak_lr) * frac
        return self.final_lr


@dataclass(frozen=True)
class FixedSgd:
    lr: float

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"learning rate must be finite and positive, got {self.lr!r}")

    def lr_at(self, step: int) -> float:
        return self.lr


def _halves(pool: futures.Executor | None, n: int) -> list[slice]:
    """[0, n) as two halves to share with a pool's thread, or whole without one."""
    return [slice(0, n)] if pool is None else [slice(0, n // 2), slice(n // 2, n)]


@dataclass
class SparseGrad:
    """Gradient restricted to the rows touched by a batch; loss_and_grad,
    which makes it, returns only finite values."""

    ids: np.ndarray  # unique node ids, ascending
    values: np.ndarray  # (len(ids), dim)

    def apply(self, table: EmbeddingTable, lr: float, pool: futures.Executor | None = None) -> None:
        """table.values[ids] -= lr * values, in one pass; given a pool, the
        two threads share the two halves of the ids."""
        ids, values = self.ids, self.values

        def write(s):
            table.values[ids[s]] -= lr * values[s]

        share(pool, write, _halves(pool, len(ids)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(-np.logaddexp(0.0, -x))


def loss_and_grad(table: EmbeddingTable, batch, pool: futures.Executor | None = None) -> tuple[float, SparseGrad]:
    """Weighted logistic loss and sparse gradient for one grouped batch.

    batch provides src (P,), dst (P, 1+k) and weight (P,) as laid out by
    trainer.ExampleBatch. The returned gradient touches only the batch's
    unique ids and is finite: a non-finite loss or summed row raises
    NumericError before anything is written. Loss is the mean over all
    P * (1+k) examples, accumulated in float64. Given a pool, the two
    threads share the two halves of the rows and of the sums; the result is
    bitwise the same.
    """
    src, dst = batch.src, batch.dst
    check_ids(src, table.num_nodes)
    check_ids(dst, table.num_nodes)
    p, width = dst.shape
    n = p * width
    if n == 0:
        raise ValidationError("empty batch")
    values, dtype = table.values, table.values.dtype
    sign = np.where(np.arange(width) == 0, 1.0, -1.0).astype(dtype)
    per_example = np.empty((p, width), dtype=dtype)
    # one contribution per scattered row: the P source sums, then the P * (1+k) destinations
    contrib = np.empty((p + n, table.dim), dtype=dtype)
    dst_contrib = contrib[p:].reshape(p, width, -1)

    def forward(s):
        # every value of rows s depends on those rows alone
        w = np.ones((len(src[s]), width), dtype=dtype)
        w[:, 0] = batch.weight[s]
        e_src, e_dst = values[src[s]], values[dst[s]]
        signed = sign * np.einsum("pd,pwd->pw", e_src, e_dst)
        np.multiply(w, np.logaddexp(0.0, -signed), out=per_example[s])
        if not np.isfinite(per_example[s]).all():
            bad = src[s][~np.isfinite(per_example[s]).all(axis=1)][0]
            raise NumericError(f"non-finite loss; first offending source row {bad}")
        # d(loss)/d(score): positives w*(sigma-1)/n, negatives sigma/n
        coef = (w * sign * (_sigmoid(signed) - 1.0) / n).astype(dtype)
        np.einsum("pw,pwd->pd", coef, e_dst, out=contrib[s])
        np.multiply(coef[:, :, None], e_src[:, None, :], out=dst_contrib[s])

    share(pool, forward, _halves(pool, p))
    loss = float(np.sum(per_example, dtype=np.float64) / n)
    if not np.isfinite(loss):  # finite float64 terms may still sum to inf
        raise NumericError("non-finite loss: the sum of its finite terms overflows")
    uids, acc = _sum_rows_by_id(np.concatenate([src, dst.ravel()]), contrib, pool)
    return loss, SparseGrad(uids, acc)


def _sum_rows_by_id(
    ids: np.ndarray, contrib: np.ndarray, pool: futures.Executor | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending unique ids and, for each, the sum of its contrib rows;
    a sum that is not finite raises NumericError naming the smallest such id.

    Bitwise equal to np.add.at(zeros, inverse, contrib), which adds each id's
    rows in position order. group_ids groups the rows so (rows of a table
    always fit its keys); each id's first row starts its sum, and the r-th
    rows of all ids with more than r are added in one pass per rank r, whose
    indices are unique: a plain fancy-index add. Each half of the unique ids
    (shared by two threads, given a pool) then checks its sums and raises for
    its first non-finite id; cores.share raises the earlier half's failure."""
    uids, order, starts = group_ids(ids)
    sizes = np.diff(starts, append=len(ids))
    acc = np.empty((len(starts), contrib.shape[1]), dtype=contrib.dtype)

    def add_rows(s):
        part, first, size = acc[s], starts[s], sizes[s]
        np.take(contrib, order[first], axis=0, out=part, mode="clip")  # in range; "clip" skips a buffer
        part += 0  # 0 + x, as the sum into zeros starts: -0.0 becomes +0.0
        by_size = np.argsort(-size)  # the ids with more than r rows lead, for every r
        more_than = np.searchsorted(-size[by_size], -np.arange(1, size.max(initial=1)), side="left")
        for r, count in enumerate(more_than, start=1):
            g = by_size[:count]
            part[g] += contrib[order[first[g] + r]]
        if not np.isfinite(part).all():
            raise NumericError(f"non-finite gradient for row {uids[s][~np.isfinite(part).all(axis=1)][0]}")

    share(pool, add_rows, _halves(pool, len(starts)))
    return uids, acc


def save_checkpoint(path: str | Path, table: EmbeddingTable, step: int, graph_hash: str) -> None:
    """Header (magic, u64 num_nodes, u64 dim, u64 step, the 32 bytes of the
    hex SHA-256 graph_hash of the graph trained on) followed by row-major
    float32 values, little-endian."""
    digest = bytes.fromhex(graph_hash)
    if len(digest) != 32:
        raise ValidationError(f"graph_hash must be a SHA-256 in hex, got {graph_hash!r}")
    with Path(path).open("wb") as fh:
        fh.write(CKPT_MAGIC)
        np.array([table.num_nodes, table.dim, step], dtype="<u8").tofile(fh)
        fh.write(digest)
        np.ascontiguousarray(table.values, dtype="<f4").tofile(fh)


def load_checkpoint(path: str | Path) -> tuple[EmbeddingTable, int, str]:
    """The table (one writable float32 array), step and graph hash (hex); ValidationError
    naming path for a wrong magic, a short header, or a size the header does not imply."""
    with Path(path).open("rb") as fh:
        if fh.read(len(CKPT_MAGIC)) != CKPT_MAGIC:
            raise ValidationError(f"{path} is not an embedding checkpoint")
        head = np.fromfile(fh, dtype="<u8", count=3)
        if len(head) < 3:
            raise ValidationError(f"{path}: truncated header")
        n, d, step = (int(x) for x in head)
        check_file_size(path, fh, len(CKPT_MAGIC) + 24 + 32 + 4 * n * d)
        graph_hash = fh.read(32).hex()
        values = np.fromfile(fh, dtype="<f4", count=n * d)
    return EmbeddingTable(values.reshape(n, d).astype(np.float32, copy=False)), step, graph_hash
