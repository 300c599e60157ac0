"""Sharded co-occurrence record files and their sidecar manifest.

Record wire format (little-endian, packed): u64 source_id | u64
destination_id | u32 walk_length | u64 co_counts[walk_length]. The u32 is
the length prefix for the trailing histogram, so files are self-describing.
A run writes a fixed walk_length throughout; readers reject mixed lengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError


@dataclass
class RecordBatch:
    """Column-oriented co-occurrence records."""

    source: np.ndarray  # int64 (n,)
    dest: np.ndarray  # int64 (n,)
    co_counts: np.ndarray  # int64 (n, walk_length)

    def __len__(self) -> int:
        return len(self.source)

    @property
    def walk_length(self) -> int:
        return self.co_counts.shape[1]


def _record_dtype(walk_length: int) -> np.dtype:
    return np.dtype(
        {
            "names": ["source", "dest", "length", "counts"],
            "formats": ["<u8", "<u8", "<u4", ("<u8", (walk_length,))],
            "offsets": [0, 8, 16, 20],
            "itemsize": 20 + 8 * walk_length,
        }
    )


def shard_path(out_dir: str | Path, shard: int, num_shards: int) -> Path:
    return Path(out_dir) / f"records-{shard:05d}-of-{num_shards:05d}.bin"


def write_shard(path: str | Path, batch: RecordBatch) -> None:
    dt = _record_dtype(batch.walk_length)
    arr = np.zeros(len(batch), dtype=dt)
    arr["source"] = batch.source
    arr["dest"] = batch.dest
    arr["length"] = batch.walk_length
    arr["counts"] = batch.co_counts
    arr.tofile(str(path))


def read_shard(path: str | Path, walk_length: int) -> RecordBatch:
    dt = _record_dtype(walk_length)
    raw = Path(path).read_bytes()
    if len(raw) % dt.itemsize:
        raise ValidationError(f"{path}: size not a multiple of record size")
    arr = np.frombuffer(raw, dtype=dt)
    if len(arr) and not np.all(arr["length"] == walk_length):
        raise ValidationError(f"{path}: mixed walk lengths in shard")
    return RecordBatch(
        source=arr["source"].astype(np.int64),
        dest=arr["dest"].astype(np.int64),
        co_counts=arr["counts"].astype(np.int64).reshape(-1, walk_length),
    )


def write_manifest(out_dir: str | Path, manifest: dict) -> None:
    with (Path(out_dir) / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(records_dir: str | Path) -> dict:
    """The sampler's manifest, checked for the keys its readers use."""
    p = Path(records_dir) / "manifest.json"
    if not p.exists():
        raise ValidationError(f"no manifest.json in {records_dir}")
    manifest = json.loads(p.read_text(encoding="utf-8"))
    missing = [k for k in ("config", "graph_hash", "shard_files", "record_counts") if k not in manifest]
    if missing:
        raise ValidationError(f"{p}: no {', '.join(missing)}")
    files, counts = manifest["shard_files"], manifest["record_counts"]
    if len(counts) != len(files):
        raise ValidationError(f"{p}: {len(counts)} record_counts for {len(files)} shard_files")
    return manifest


def load_all_records(records_dir: str | Path) -> tuple[RecordBatch, dict]:
    """Read every shard listed in the manifest into one RecordBatch, checking
    each shard's record count against the manifest's."""
    manifest = read_manifest(records_dir)
    files = manifest["shard_files"]
    if not files:
        raise ValidationError(f"{records_dir}: manifest lists no shards")
    parts = [read_shard(Path(records_dir) / f, manifest["config"]["walk_length"]) for f in files]
    for f, part, count in zip(files, parts, manifest["record_counts"]):
        if len(part) != count:
            raise ValidationError(f"{Path(records_dir) / f}: {len(part)} records, but the manifest lists {count}")
    return (
        RecordBatch(
            source=np.concatenate([p.source for p in parts]),
            dest=np.concatenate([p.dest for p in parts]),
            co_counts=np.concatenate([p.co_counts for p in parts]),
        ),
        manifest,
    )
