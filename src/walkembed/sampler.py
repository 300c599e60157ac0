"""Random-walk co-occurrence sampling as a staged, sharded pipeline.

Every node seeds a fixed number of walks. Walks advance in lockstep rounds:
each round joins walk endpoints against the adjacency, samples one uniform
neighbor per walk, and records a (seed, endpoint, distance) visit. After the
final round, visits are grouped by (seed, endpoint) and combined into
per-distance count histograms. A record's source is the seed node of its
walks, so its shard, a hash of the source, is fixed before any walk starts:
sampling runs one shard at a time and writes each shard once.

Each walk draws from its own counter-based stream keyed by
(seed, seed_node, replica, round), so output is bitwise-identical for any
partitioning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyGraphError, ValidationError
from .graph import Graph
from .rng import HashStream, splitmix64
from .shards import RecordBatch, shard_path, write_manifest, write_shard

FORMAT_VERSION = 1


@dataclass(frozen=True)
class SamplerConfig:
    walks_per_node: int = 128
    walk_length: int = 3
    seed: int = 0
    num_shards: int = 1

    def __post_init__(self):
        if self.walks_per_node < 1:
            raise ValidationError("walks_per_node must be >= 1")
        if self.walk_length < 1:
            raise ValidationError("walk_length must be >= 1")
        if self.num_shards < 1:
            raise ValidationError("num_shards must be >= 1")

    def to_dict(self) -> dict:
        return {
            "walks_per_node": self.walks_per_node,
            "walk_length": self.walk_length,
            "seed": self.seed,
            "num_shards": self.num_shards,
        }


@dataclass
class WalkBatch:
    """Walks in flight, column-oriented; all entries share the same step."""

    seed_node: np.ndarray
    replica: np.ndarray
    current_node: np.ndarray
    step: int = 0

    def __len__(self) -> int:
        return len(self.seed_node)


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
    seeds = np.repeat(nodes, cfg.walks_per_node)
    replicas = np.tile(np.arange(cfg.walks_per_node, dtype=np.int64), len(nodes))
    return WalkBatch(seed_node=seeds, replica=replicas, current_node=seeds.copy(), step=0)


def _walk_uid(walks: WalkBatch, cfg: SamplerConfig) -> np.ndarray:
    return walks.seed_node * np.int64(cfg.walks_per_node) + walks.replica


def step_walks(g: Graph, walks: WalkBatch, cfg: SamplerConfig, stream: HashStream) -> WalkBatch:
    """Advance every walk one hop; walks at a neighborless node terminate.

    The endpoint join gathers each walk's CSR row, then one neighbor index is
    drawn per walk from its private stream at counter position step+1.
    """
    if walks.step >= cfg.walk_length:
        raise ValidationError("walks already at full length")
    deg = g.degrees[walks.current_node]
    alive = deg > 0
    if not alive.all():
        walks = WalkBatch(
            seed_node=walks.seed_node[alive],
            replica=walks.replica[alive],
            current_node=walks.current_node[alive],
            step=walks.step,
        )
        deg = deg[alive]
    if len(walks) == 0:
        return WalkBatch(walks.seed_node, walks.replica, walks.current_node, walks.step + 1)
    pick = stream.bounded(_walk_uid(walks, cfg), counter=walks.step + 1, bounds=deg)
    nxt = g.targets[g.offsets[walks.current_node] + pick]
    return WalkBatch(walks.seed_node, walks.replica, nxt, walks.step + 1)


def _combine_visits(
    seeds: np.ndarray, dests: np.ndarray, dists: np.ndarray, num_nodes: int, walk_length: int
) -> RecordBatch:
    """Group visits by (seed, dest) and histogram them by distance.

    Records come out sorted by (source, dest). Keys are packed relative to
    the smallest seed, so a key spans seed_range * num_nodes * walk_length
    rather than num_nodes**2 * walk_length.
    """
    seeds, dests, dists = (np.asarray(a, dtype=np.int64) for a in (seeds, dests, dists))
    base = seeds.min()
    pair = (seeds - base) * np.int64(num_nodes) + dests
    key = pair * np.int64(walk_length) + (dists - 1)
    uniq, counts = np.unique(key, return_counts=True)
    pair_keys = uniq // walk_length
    slots = uniq % walk_length
    rec_keys, rec_index = np.unique(pair_keys, return_inverse=True)
    co = np.zeros((len(rec_keys), walk_length), dtype=np.int64)
    co[rec_index, slots] = counts
    return RecordBatch(
        source=rec_keys // num_nodes + base,
        dest=rec_keys % num_nodes,
        co_counts=co,
    )


def _sample_partition(
    g: Graph, cfg: SamplerConfig, stream: HashStream, nodes: np.ndarray
) -> tuple[RecordBatch, int]:
    """Walk the given seed nodes to completion; returns records + dead ends."""
    walks = init_walks(g, cfg, nodes)
    started = len(walks)
    visits = []
    for _ in range(cfg.walk_length):
        walks = step_walks(g, walks, cfg, stream)
        if len(walks) == 0:
            break
        visits.append((walks.seed_node, walks.current_node, np.full(len(walks), walks.step, dtype=np.int64)))
    dead = started - len(walks)
    if not visits:
        empty = np.empty(0, dtype=np.int64)
        return RecordBatch(empty, empty, empty.reshape(0, cfg.walk_length)), dead
    return _combine_visits(*map(np.concatenate, zip(*visits)), g.num_nodes, cfg.walk_length), dead


def run_sampling(
    g: Graph,
    cfg: SamplerConfig,
    out_dir: str | Path,
    partition_nodes: int = 1 << 14,
) -> SamplingStats:
    """Full pipeline: seed, walk, group, combine, shard to disk.

    A record's shard is splitmix64(source) % num_shards, and its source is
    the seed of its walks, so each shard is sampled on its own: its seeds
    are walked one contiguous range of partition_nodes ids at a time, in
    ascending order, which leaves the shard in (source, dest) order, and the
    shard is written whole. Memory holds one shard's records plus one
    partition's visits. Shard files plus manifest.json land in out_dir.
    """
    if partition_nodes < 1:
        raise ValidationError(f"partition_nodes must be >= 1, got {partition_nodes}")
    if g.num_nodes == 0:
        raise EmptyGraphError("cannot sample an empty graph")
    t0 = time.monotonic()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stream = HashStream(cfg.seed)
    dead_ends = co_total = 0
    shard_files, shard_counts = [], []
    for s in range(cfg.num_shards):
        parts = []
        for lo in range(0, g.num_nodes, partition_nodes):
            ids = np.arange(lo, min(lo + partition_nodes, g.num_nodes), dtype=np.uint64)
            rec, dead = _sample_partition(g, cfg, stream, ids[splitmix64(ids) % np.uint64(cfg.num_shards) == s])
            parts.append(rec)
            dead_ends += dead
        batch = RecordBatch(*(np.concatenate([getattr(p, f) for p in parts]) for f in ("source", "dest", "co_counts")))
        del parts  # free the partitions' records before write_shard builds the file image
        path = shard_path(out_dir, s, cfg.num_shards)
        write_shard(path, batch)
        shard_files.append(path.name)
        shard_counts.append(len(batch))
        co_total += int(batch.co_counts.sum())

    stats = SamplingStats(
        total_walks=g.num_nodes * cfg.walks_per_node,
        dead_end_terminations=dead_ends,
        num_records=sum(shard_counts),
        co_count_total=co_total,
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
            "shard_files": shard_files,
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
