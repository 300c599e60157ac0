"""Random-walk co-occurrence sampling as a staged, sharded pipeline.

Every node seeds a fixed number of walks. Walks advance in lockstep rounds:
each round joins walk endpoints against the adjacency, samples one uniform
neighbor per walk, and records its (seed, endpoint, distance) visit as one
packed int64 key. After the final round, one sort of the keys groups the
visits by (seed, endpoint) and combines them into per-distance count
histograms. A record's source is the seed node of its
walks, so its shard, a hash of the source, is fixed before any walk starts:
each shard is sampled on its own, one range of seed ids at a time, and each
range's records are appended to the shard's file as they are combined, so
no shard is ever held whole. Shards are split between the calling thread
and, where the process may use more than one CPU, one helper thread.

Each walk draws from its own counter-based stream keyed by (seed, walk
id, round), where a walk's id is seed_node * walks_per_node + replica, so
output is bitwise-identical for any partitioning and either thread count.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import cores
from .errors import EmptyGraphError, ValidationError
from .graph import Graph
from .rng import HashStream, splitmix64
from .shards import RecordBatch, append_records, shard_path, write_manifest
from .shards import write_shard  # noqa: F401  perfbench's tests look this name up here

FORMAT_VERSION = 1
PARTITION_NODES = 1 << 14  # seed ids of two ranges: a shard walks ranges of half as many


@dataclass(frozen=True)
class SamplerConfig:
    walks_per_node: int = 128
    walk_length: int = 3
    seed: int = 0
    num_shards: int = 1

    def __post_init__(self):
        for name in ("walks_per_node", "walk_length", "num_shards"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WalkBatch:
    """Walks in flight, column-oriented; all entries share the same step. A
    walk's id, seed_node * walks_per_node + replica, keys its stream."""

    walk_id: np.ndarray
    current_node: np.ndarray
    step: int = 0

    def __len__(self) -> int:
        return len(self.walk_id)


@dataclass
class SamplingStats:
    total_walks: int = 0
    dead_end_terminations: int = 0
    num_records: int = 0
    co_count_total: int = 0
    elapsed_s: float = 0.0
    shard_record_counts: list[int] = field(default_factory=list)


def init_walks(g: Graph, cfg: SamplerConfig, nodes: np.ndarray | None = None) -> WalkBatch:
    """Seed walks_per_node walks at each of the given nodes (default: every node)."""
    if g.num_nodes == 0:
        raise EmptyGraphError("cannot sample an empty graph")
    nodes = np.arange(g.num_nodes, dtype=np.int64) if nodes is None else np.asarray(nodes, dtype=np.int64)
    walk_id = (nodes[:, None] * cfg.walks_per_node + np.arange(cfg.walks_per_node, dtype=np.int64)).ravel()
    return WalkBatch(walk_id=walk_id, current_node=np.repeat(nodes, cfg.walks_per_node), step=0)


def step_walks(g: Graph, walks: WalkBatch, cfg: SamplerConfig, stream: HashStream) -> WalkBatch:
    """Advance every walk one hop; walks at a neighborless node terminate.

    The endpoint join gathers each walk's CSR row, then one neighbor index is
    drawn per walk from its walk id's stream at counter position step+1.
    """
    if walks.step >= cfg.walk_length:
        raise ValidationError("walks already at full length")
    row = g.offsets[walks.current_node]  # each walk's CSR row, gathered once
    deg = g.offsets[walks.current_node + 1] - row
    walk_id, alive = walks.walk_id, deg > 0
    if not alive.all():
        walk_id, row, deg = walk_id[alive], row[alive], deg[alive]
    row += stream.bounded(walk_id, counter=walks.step + 1, bounds=deg)
    return WalkBatch(walk_id, g.targets[row], walks.step + 1)


def _combine_visits(key: np.ndarray, base: int, num_nodes: int, walk_length: int) -> RecordBatch:
    """Group visits by (seed, dest) and histogram them by distance.

    Each visit is one int64 key, ((seed - base) * num_nodes + dest) *
    walk_length + (distance - 1), packed relative to the range's smallest
    seed `base`, so a key spans seed_range * num_nodes * walk_length rather
    than num_nodes**2 * walk_length. One in-place sort of the keys and a
    run-length pass over it give both the (pair, distance) counts and the
    records, which come out sorted by (source, dest).
    """
    key.sort()
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    counts = np.diff(starts, append=len(key))
    pair_keys, slots = np.divmod(key[starts], walk_length)
    del starts  # each temporary is freed once used: this pass sets the sampler's peak
    new_pair = np.concatenate([[True], pair_keys[1:] != pair_keys[:-1]])
    rec_keys = pair_keys[new_pair]
    del pair_keys
    row = np.cumsum(new_pair)
    row -= 1
    co = np.zeros((len(rec_keys), walk_length), dtype=np.int64)
    co[row, slots] = counts
    del row, slots, counts
    source, dest = np.divmod(rec_keys, num_nodes)
    source += base
    return RecordBatch(source=source, dest=dest, co_counts=co)


def _sample_partition(g: Graph, cfg: SamplerConfig, stream: HashStream, nodes: np.ndarray) -> tuple[RecordBatch, int]:
    """Walk the given seed nodes to completion; returns records + dead ends.

    Each round packs every surviving walk's visit into one key (see
    _combine_visits), written into a buffer sized for every walk's every
    round, so no visit is held as columns or copied by a concatenation."""
    walks = init_walks(g, cfg, nodes)
    started, length = len(walks), cfg.walk_length
    base = int(nodes.min())
    keys = np.empty(started * length, dtype=np.int64)
    filled = 0
    for _ in range(length):
        walks = step_walks(g, walks, cfg, stream)
        if len(walks) == 0:
            break
        keys[filled : filled + len(walks)] = (
            (walks.walk_id // cfg.walks_per_node - base) * g.num_nodes + walks.current_node
        ) * length + walks.step - 1
        filled += len(walks)
    dead = started - len(walks)
    del walks  # the last round's columns, freed before the combine
    if not filled:
        empty = np.empty(0, dtype=np.int64)
        return RecordBatch(empty, empty, empty.reshape(0, length)), dead
    return _combine_visits(keys[:filled], base, g.num_nodes, length), dead


def _sample_shard(g: Graph, cfg: SamplerConfig, stream: HashStream, path: Path, shard: int) -> tuple[int, int, int]:
    """Walk the seeds of one shard and append their records to a new file at
    `path`, one id range at a time, in ascending order, which leaves the
    shard in (source, dest) order. A range is ceil(min(PARTITION_NODES,
    num_nodes) / 2) ids wide, whatever the CPU and shard counts, so two
    threads together hold no more visits than one range of PARTITION_NODES.
    Returns (records, dead ends, co-count total)."""
    width = -(-min(PARTITION_NODES, g.num_nodes) // 2)
    records = dead_ends = co_total = 0
    with path.open("wb") as fh:
        for lo in range(0, g.num_nodes, width):
            ids = np.arange(lo, min(lo + width, g.num_nodes), dtype=np.uint64)
            ids = ids[splitmix64(ids) % np.uint64(cfg.num_shards) == shard]
            if not len(ids):
                continue
            rec, dead = _sample_partition(g, cfg, stream, ids)
            append_records(fh, rec)
            records += len(rec)
            dead_ends += dead
            co_total += int(rec.co_counts.sum())
    return records, dead_ends, co_total


def run_sampling(g: Graph, cfg: SamplerConfig, out_dir: str | Path) -> SamplingStats:
    """Full pipeline: seed, walk, group, combine, shard to disk.

    A record's shard is splitmix64(source) % num_shards, and its source is
    the seed of its walks, so each shard is sampled on its own and written
    as it is sampled, one id range's records appended at a time (see
    _sample_shard). Where the process may use more than one CPU, the calling
    thread and one helper thread each take the next shard not yet taken.
    Shards are byte-identical either way. An existing manifest.json is
    removed before the first shard is written and the new one is written
    last, so a run that fails leaves no manifest. Shard files plus
    manifest.json land in out_dir.
    """
    if g.num_nodes == 0:
        raise EmptyGraphError("cannot sample an empty graph")
    t0 = time.monotonic()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    stream = HashStream(cfg.seed)
    paths = [shard_path(out_dir, s, cfg.num_shards) for s in range(cfg.num_shards)]
    with cores.helper_pool() as pool:
        per_shard = cores.share(pool, lambda s: _sample_shard(g, cfg, stream, paths[s], s), range(cfg.num_shards))
    shard_counts = [records for records, _, _ in per_shard]

    stats = SamplingStats(
        total_walks=g.num_nodes * cfg.walks_per_node,
        dead_end_terminations=sum(dead for _, dead, _ in per_shard),
        num_records=sum(shard_counts),
        co_count_total=sum(co for _, _, co in per_shard),
        elapsed_s=time.monotonic() - t0,
        shard_record_counts=shard_counts,
    )
    write_manifest(
        out_dir,
        {
            "format_version": FORMAT_VERSION,
            "config": cfg.to_dict(),
            "graph_hash": g.content_hash(),
            "num_nodes": g.num_nodes,
            "shard_files": [p.name for p in paths],
            "record_counts": shard_counts,
            "stats": {
                "total_walks": stats.total_walks,
                "dead_end_terminations": stats.dead_end_terminations,
                "num_records": stats.num_records,
                "co_count_total": stats.co_count_total,
            },
        },
    )
    return stats
