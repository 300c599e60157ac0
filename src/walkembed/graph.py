"""Undirected graph in compressed sparse row form, plus ingestion and pruning.

Node ids are dense 0-based ints. Ingested external ids are remapped in
ascending order and the mapping kept so results can be reported in the
caller's id space.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyGraphError, ParseError, ValidationError

_CSR_MAGIC = b"WECSR01\n"


@dataclass(frozen=True)
class Graph:
    """Immutable symmetric adjacency structure.

    offsets has num_nodes+1 entries; neighbors of u are
    targets[offsets[u]:offsets[u+1]], sorted and duplicate-free. Self-loops
    are never stored. len(targets) == 2 * num_edges.
    """

    num_nodes: int
    num_edges: int
    offsets: np.ndarray
    targets: np.ndarray
    external_ids: np.ndarray | None = field(default=None)

    def neighbors(self, u: int) -> np.ndarray:
        if not 0 <= u < self.num_nodes:
            raise IndexError(f"node id {u} out of range [0, {self.num_nodes})")
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edge_array(self) -> np.ndarray:
        """(num_edges, 2) array of edges with u < v."""
        u = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)
        v = self.targets
        keep = u < v
        return np.column_stack([u[keep], v[keep]])

    def has_edge(self, u: int, v: int) -> bool:
        ns = self.neighbors(u)
        i = np.searchsorted(ns, v)
        return i < len(ns) and ns[i] == v

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.num_nodes).tobytes())
        h.update(np.int64(self.num_edges).tobytes())
        h.update(np.ascontiguousarray(self.offsets, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.targets, dtype=np.int64).tobytes())
        return h.hexdigest()


def from_edges(edges: np.ndarray, num_nodes: int, external_ids: np.ndarray | None = None) -> Graph:
    """Build a Graph from an (m, 2) int array of endpoints in [0, num_nodes).

    Symmetrizes, drops self-loops, dedups, sorts neighbor lists.
    """
    if num_nodes <= 0:
        raise EmptyGraphError("graph has no nodes")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges):
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValidationError("edge endpoint out of range")
        keep = edges[:, 0] != edges[:, 1]
        edges = edges[keep]
    if len(edges):
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        key = lo * np.int64(num_nodes) + hi
        key = np.unique(key)
        lo, hi = key // num_nodes, key % num_nodes
    else:
        lo = hi = np.empty(0, dtype=np.int64)
    num_edges = len(lo)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    offsets = np.cumsum(offsets)
    return Graph(num_nodes, num_edges, offsets, dst, external_ids)


def _parse_edge_line(line: str, sep: str | None) -> tuple[int, int]:
    parts = line.split(sep) if sep else line.split()
    parts = [p for p in parts if p]
    if len(parts) < 2:
        raise ValueError("expected at least two integer node ids")
    return int(parts[0]), int(parts[1])  # optional weight column ignored


def load_edge_list(path: str | Path, format: str = "tsv") -> Graph:
    """Load an undirected graph from a text edge list.

    One edge per line, whitespace- (tsv) or comma- (csv) separated integer
    ids; an optional third column is accepted and ignored; lines starting
    with '#' are skipped. External ids are remapped to dense 0-based indices
    in ascending order.
    """
    if format not in ("tsv", "csv"):
        raise ValidationError(f"unknown edge-list format {format!r}")
    sep = "," if format == "csv" else None
    path = Path(path)
    raw: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                raw.append(_parse_edge_line(line, sep))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    if not raw:
        raise EmptyGraphError(f"{path} contains no edges")
    arr = np.asarray(raw, dtype=np.int64)
    ext = np.unique(arr)  # ascending ids -> deterministic remap
    dense = np.searchsorted(ext, arr)
    g = from_edges(dense, num_nodes=len(ext), external_ids=ext)
    if g.num_nodes == 0:
        raise EmptyGraphError(f"{path} produced an empty graph")
    return g


def save_edge_list(g: Graph, path: str | Path, format: str = "tsv") -> None:
    """Write one `u v` line per edge (u < v), in the dense id space."""
    sep = "," if format == "csv" else "\t"
    edges = g.edge_array()
    with Path(path).open("w", encoding="utf-8") as fh:
        for u, v in edges:
            fh.write(f"{u}{sep}{v}\n")


def prune_low_degree(g: Graph, min_degree: int = 2) -> Graph:
    """Drop nodes with degree < min_degree and all their edges, exactly once.

    Single pass: surviving nodes may end up below the threshold (including
    isolated) and are retained. Remaining nodes are re-indexed densely in
    ascending order of their previous ids.
    """
    if min_degree < 0:
        raise ValidationError("min_degree must be >= 0")
    if min_degree == 0:
        return g
    keep = g.degrees >= min_degree
    new_ids = np.cumsum(keep) - 1  # old id -> new id where kept
    if not keep.any():
        raise EmptyGraphError("pruning removed every node")
    edges = g.edge_array()
    if len(edges):
        both = keep[edges[:, 0]] & keep[edges[:, 1]]
        edges = new_ids[edges[both]]
    ext = g.external_ids[keep] if g.external_ids is not None else np.flatnonzero(keep)
    return from_edges(edges, num_nodes=int(keep.sum()), external_ids=ext)


def save_csr(g: Graph, path: str | Path) -> None:
    """Binary CSR cache: magic, LE u64 counts/flags, offsets, neighbors.

    Layout: magic (8 bytes) | u64 num_nodes | u64 num_edges | u64 flags
    (bit 0: external id map present) | u64 offsets[num_nodes+1] |
    u64 neighbors[2*num_edges] | u64 external_ids[num_nodes] if flagged.
    """
    flags = 1 if g.external_ids is not None else 0
    with Path(path).open("wb") as fh:
        fh.write(_CSR_MAGIC)
        np.array([g.num_nodes, g.num_edges, flags], dtype="<u8").tofile(fh)
        g.offsets.astype("<u8").tofile(fh)
        g.targets.astype("<u8").tofile(fh)
        if g.external_ids is not None:
            g.external_ids.astype("<u8").tofile(fh)


def load_csr(path: str | Path) -> Graph:
    with Path(path).open("rb") as fh:
        magic = fh.read(len(_CSR_MAGIC))
        if magic != _CSR_MAGIC:
            raise ValidationError(f"{path} is not a CSR cache file")
        n, m, flags = (int(x) for x in np.fromfile(fh, dtype="<u8", count=3))
        offsets = np.fromfile(fh, dtype="<u8", count=n + 1).astype(np.int64)
        targets = np.fromfile(fh, dtype="<u8", count=2 * m).astype(np.int64)
        ext = None
        if flags & 1:
            ext = np.fromfile(fh, dtype="<u8", count=n).astype(np.int64)
    if len(offsets) != n + 1 or len(targets) != 2 * m:
        raise ValidationError(f"{path} truncated")
    return Graph(n, m, offsets, targets, ext)


def load_graph(path: str | Path) -> Graph:
    """Load either a CSR cache or a text edge list, sniffing the magic bytes."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(len(_CSR_MAGIC))
    if head == _CSR_MAGIC:
        return load_csr(path)
    fmt = "csv" if path.suffix == ".csv" else "tsv"
    return load_edge_list(path, format=fmt)
