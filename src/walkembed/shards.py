"""Sharded co-occurrence record files and their sidecar manifest.

Record wire format (little-endian, packed): u64 source_id | u64
destination_id | u32 walk_length | u64 co_counts[walk_length]. The u32 is
the length prefix for the trailing histogram, so files are self-describing.
A run writes a fixed walk_length throughout; readers reject mixed lengths.
In memory a record is the same bytes: a structured array of that layout
(record_array), whose columns read as int64 (ids and counts are
non-negative, so the bytes read the same as u64). The sampler combines its
visits straight into one and writes its bytes to the shard file.

Readers go one shard at a time: iter_shards maps each shard read-only, its
size checked against the manifest's count; check_records checks its
records. Training filters the map in blocks; load_all_records copies every
shard into one array.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_ids, read_json

FORMAT_VERSION = 1  # manifest.json's format_version, naming the record wire format above


def _record_dtype(walk_length: int) -> np.dtype:
    # ids and counts are u64 on the wire; as <i8 they read as int64 without a copy
    return np.dtype(
        {
            "names": ["source", "dest", "length", "counts"],
            "formats": ["<i8", "<i8", "<u4", ("<i8", (walk_length,))],
            "offsets": [0, 8, 16, 20],
            "itemsize": 20 + 8 * walk_length,
        }
    )


def shard_path(out_dir: str | Path, shard: int, num_shards: int) -> Path:
    return Path(out_dir) / f"records-{shard:05d}-of-{num_shards:05d}.bin"


def record_array(n: int, walk_length: int) -> np.ndarray:
    """n zeroed records of the wire layout, their length prefixes filled in."""
    records = np.zeros(n, dtype=_record_dtype(walk_length))
    records["length"] = walk_length
    return records


def write_shard(path: str | Path, records: np.ndarray) -> None:
    records.tofile(str(path))


def check_records(path: Path, records: np.ndarray, walk_length: int, num_nodes: int) -> None:
    """Raise on a mixed walk length, else on the first source id, then the
    first dest id, out of the range of a num_nodes-row table."""
    if not np.all(records["length"] == walk_length):
        raise ValidationError(f"{path}: mixed walk lengths in shard")
    try:
        for column in ("source", "dest"):
            check_ids(records[column], num_nodes)
    except IndexError as e:
        raise ValidationError(f"{path}: {e} of the table") from None


def write_manifest(out_dir: str | Path, manifest: dict) -> None:
    with (Path(out_dir) / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(records_dir: str | Path) -> dict:
    """The sampler's manifest, checked for the keys its readers use."""
    p = Path(records_dir) / "manifest.json"
    if not p.exists():
        raise ValidationError(f"no manifest.json in {records_dir}")
    manifest = read_json(p)
    if not isinstance(manifest, dict):
        raise ValidationError(f"{p}: not a JSON object, got {manifest!r}")
    missing = [k for k in ("config", "graph_hash", "num_nodes", "shard_files", "record_counts") if k not in manifest]
    if missing:
        raise ValidationError(f"{p}: no {', '.join(missing)}")
    if type(version := manifest.get("format_version")) is not int or version != FORMAT_VERSION:
        raise ValidationError(f"{p}: format_version {version!r}, but only {FORMAT_VERSION} is read")
    if not isinstance(graph_hash := manifest["graph_hash"], str) or not re.fullmatch("[0-9a-f]{64}", graph_hash):
        raise ValidationError(f"{p}: graph_hash must be 64 lowercase hex digits, got {graph_hash!r}")
    if type(manifest["num_nodes"]) is not int or manifest["num_nodes"] < 1:
        raise ValidationError(f"{p}: num_nodes must be an integer >= 1, got {manifest['num_nodes']!r}")
    config = manifest["config"]
    if not isinstance(config, dict) or type(config.get("walk_length")) is not int or config["walk_length"] < 1:
        raise ValidationError(f"{p}: config must be an object with an integer walk_length >= 1, got {config!r}")
    files, counts = manifest["shard_files"], manifest["record_counts"]
    if not isinstance(files, list) or not all(
        isinstance(f, str) and f not in ("", ".", "..") and Path(f).name == f for f in files
    ):
        raise ValidationError(f"{p}: shard_files must be a list of plain file names, got {files!r}")
    if len(set(files)) < len(files):
        twice = next(f for i, f in enumerate(files) if f in files[:i])
        raise ValidationError(f"{p}: shard_files lists {twice!r} more than once")
    if not isinstance(counts, list) or not all(type(c) is int and c >= 0 for c in counts):
        raise ValidationError(f"{p}: record_counts must be a list of non-negative integers, got {counts!r}")
    if len(counts) != len(files):
        raise ValidationError(f"{p}: {len(counts)} record_counts for {len(files)} shard_files")
    return manifest


def iter_shards(records_dir: str | Path, manifest: dict) -> Iterator[tuple[Path, np.ndarray]]:
    """(path, records) of each shard the manifest lists, in order, after a size
    check against the manifest's count: a read-only map, unmapped once nothing
    refers to it, or an empty array for an empty shard (mmap rejects those)."""
    files, counts = manifest["shard_files"], manifest["record_counts"]
    if not files:
        raise ValidationError(f"{records_dir}: manifest lists no shards")
    dt = _record_dtype(manifest["config"]["walk_length"])
    for f, count in zip(files, counts):
        path = Path(records_dir) / f
        n, rest = divmod(path.stat().st_size, dt.itemsize)
        if rest:
            raise ValidationError(f"{path}: size not a multiple of record size")
        if n != count:
            raise ValidationError(f"{path}: {n} records, but the manifest lists {count}")
        yield path, np.memmap(path, dtype=dt, mode="r", shape=(n,)) if n else np.empty(0, dtype=dt)


def load_all_records(records_dir: str | Path) -> tuple[np.ndarray, dict]:
    """Every shard listed in the manifest, copied into one record array."""
    manifest = read_manifest(records_dir)
    arr = np.empty(sum(manifest["record_counts"]), dtype=_record_dtype(manifest["config"]["walk_length"]))
    at = 0
    for path, records in iter_shards(records_dir, manifest):
        check_records(path, records, manifest["config"]["walk_length"], manifest["num_nodes"])
        arr[at : at + len(records)] = records
        at += len(records)
    return arr, manifest
