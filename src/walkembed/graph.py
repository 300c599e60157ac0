"""Undirected graph in compressed sparse row form, plus ingestion and pruning.

Node ids are dense 0-based ints. Ingested external ids are remapped in
ascending order and the mapping kept so results can be reported in the
caller's id space. Edge lists are parsed with array operations over the
whole file, or line by line when some line is outside the subset the array
parser reads; both parsers accept the same inputs and yield the same ids.
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

    Symmetrizes, drops self-loops, dedups, sorts neighbor lists: one sort of
    the keys u*n+v and v*n+u, whose order is the CSR order.
    """
    if num_nodes <= 0:
        raise EmptyGraphError("graph has no nodes")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValidationError("edge endpoint out of range")
    edges = edges[edges[:, 0] != edges[:, 1]]
    n = np.int64(num_nodes)
    key = np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])
    key.sort()
    fresh = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=fresh[1:])
    src, dst = np.divmod(key[fresh], n)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=offsets[1:])
    return Graph(num_nodes, len(dst) // 2, offsets, dst, external_ids)


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _parse_edge_line(line: str, sep: str | None) -> tuple[int, int]:
    parts = line.split(sep) if sep else line.split()
    parts = [p for p in parts if p]
    if len(parts) < 2:
        raise ValueError("expected at least two integer node ids")
    ids = int(parts[0]), int(parts[1])  # optional weight column ignored
    if not all(_INT64_MIN <= i <= _INT64_MAX for i in ids):
        raise ValueError("node id outside the int64 range")
    return ids


def _parse_lines(path: Path, sep: str | None) -> np.ndarray:
    """The per-line parser: the reference grammar, and the one source of ParseErrors."""
    raw: list[tuple[int, int]] = []
    with path.open("rb") as fh:
        # binary chunks end at LF; splitlines also ends a line at a lone CR, as text mode does
        lines = (line for chunk in fh for line in chunk.splitlines())
        for line_no, line in enumerate(lines, start=1):
            try:
                line = line.decode("utf-8").strip()
                if line and not line.startswith("#"):
                    raw.append(_parse_edge_line(line, sep))
            except UnicodeDecodeError:
                raise ParseError(path, line_no, "not UTF-8") from None
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from exc
    return np.asarray(raw, dtype=np.int64).reshape(-1, 2)


# Outside comment lines the bulk parser reads only ids and numeric columns:
# blanks, digits, signs, '.', 'e', 'E' and commas.
_BLANK = np.isin(np.arange(256), [9, 32])
_DIGIT = np.isin(np.arange(256), np.arange(48, 58))
_NUMERIC = np.isin(np.arange(256), [9, 10, 32, *b"0123456789+-.,eE"])
_NEWLINE, _HASH, _MINUS, _COMMA = 10, 35, 45, 44
_MAX_DIGITS = 18  # every id of up to 18 digits fits int64


def _skip(buf: np.ndarray, pos: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Each position moved past the run of bytes of class cls that starts there."""
    pos = pos.copy()
    idx = np.flatnonzero(cls[buf[pos]])
    while len(idx):
        pos[idx] += 1
        idx = idx[cls[buf[pos[idx]]]]
    return pos


def _parse_ids(buf: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids `-?[0-9]{1,18}` that start at pos, and the positions after them.

    None if some token has no digits or more than _MAX_DIGITS of them.
    """
    neg = buf[pos] == _MINUS
    pos = pos + neg
    digit = buf[pos] - np.uint8(48)  # bytes below '0' wrap past 9
    live = digit < 10
    if not live.all():
        return None
    val = np.zeros(len(pos), dtype=np.int64)
    for _ in range(_MAX_DIGITS):
        np.multiply(val, 10, out=val, where=live)
        np.add(val, digit, out=val, where=live)
        pos += live
        np.subtract(buf[pos], np.uint8(48), out=digit)
        live &= digit < 10
        if not live.any():
            return np.where(neg, -val, val), pos
    return None


def _parse_bulk(data: bytes, sep: str | None) -> np.ndarray | None:
    """The ids of every data line as an (m, 2) int64 array, in file order.

    Reads a subset of the per-line grammar with array operations over the
    whole file. Lines end in LF or CRLF. Blank and comment lines may be
    indented by spaces and tabs. A tsv data line is `-?digits blanks
    -?digits`, then a blank or the line end; a csv one is `-?digits blanks* ,
    blanks* -?digits blanks*`, then a comma or the line end. Blanks are spaces
    and tabs, and ids have at most 18 digits. Further columns are ignored, as
    the per-line parser ignores them, but must be numeric (see _NUMERIC).
    Returns None when any line is outside this subset, and for any file that
    is not ASCII or holds a lone CR, which also ends a line when read as text.
    """
    data = data.replace(b"\r\n", b"\n")
    if b"\r" in data or not data.isascii():
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == _NEWLINE)
    first = _skip(buf, np.concatenate([[0], ends[:-1] + 1]), _BLANK)
    lead = buf[first]
    comment = lead == _HASH
    if not comment[np.searchsorted(ends, np.flatnonzero(~_NUMERIC[buf]))].all():
        return None
    parsed = _parse_ids(buf, first[(lead != _NEWLINE) & ~comment])
    if parsed is None:
        return None
    u, end = parsed
    gap = _skip(buf, end, _BLANK)
    if sep:
        if not (buf[gap] == _COMMA).all():
            return None
        gap = _skip(buf, gap + 1, _BLANK)
    elif not (gap > end).all():
        return None
    parsed = _parse_ids(buf, gap)
    if parsed is None:
        return None
    v, end = parsed
    if sep:
        after = buf[_skip(buf, end, _BLANK)]
        ends_field = (after == _COMMA) | (after == _NEWLINE)
    else:
        after = buf[end]
        ends_field = _BLANK[after] | (after == _NEWLINE)
    return np.column_stack([u, v]) if ends_field.all() else None


def load_edge_list(path: str | Path, format: str = "tsv") -> Graph:
    """Load an undirected graph from a text edge list.

    One edge per line, whitespace- (tsv) or comma- (csv) separated integer
    ids that fit int64; further columns (a weight, say) are accepted and
    ignored; lines whose first non-blank character is '#' are skipped.
    Invalid input raises ParseError naming the first bad line. External ids
    are remapped to dense 0-based indices in ascending order.

    The file is read once and parsed with array operations when every line
    is in the bulk subset (see _parse_bulk); otherwise the per-line parser
    reads it. Both accept the same inputs with the same ids, so the graph
    does not depend on which one ran.
    """
    if format not in ("tsv", "csv"):
        raise ValidationError(f"unknown edge-list format {format!r}")
    sep = "," if format == "csv" else None
    path = Path(path)
    arr = _parse_bulk(path.read_bytes(), sep)
    if arr is None:
        arr = _parse_lines(path, sep)
    if not len(arr):
        raise EmptyGraphError(f"{path} contains no edges")
    ext, dense = np.unique(arr.ravel(), return_inverse=True)  # ascending ids -> deterministic remap
    return from_edges(dense.reshape(-1, 2), num_nodes=len(ext), external_ids=ext)


def save_edge_list(g: Graph, path: str | Path, format: str = "tsv") -> None:
    """Write one `u v` line per edge (u < v), in the dense id space."""
    sep = "," if format == "csv" else "\t"
    edges = g.edge_array()
    lines = map(f"{{}}{sep}{{}}\n".format, edges[:, 0].tolist(), edges[:, 1].tolist())
    Path(path).write_text("".join(lines), encoding="utf-8")


def prune_low_degree(g: Graph, min_degree: int = 2) -> Graph:
    """Drop nodes with degree < min_degree and all their edges, exactly once.

    Single pass: surviving nodes may end up below the threshold (including
    isolated) and are retained. Remaining nodes are re-indexed densely in
    ascending order of their previous ids, so filtering the CSR in place keeps
    every neighbor list sorted.
    """
    if min_degree < 0:
        raise ValidationError("min_degree must be >= 0")
    if min_degree == 0:
        return g
    keep = g.degrees >= min_degree
    if not keep.any():
        raise EmptyGraphError("pruning removed every node")
    new_ids = np.cumsum(keep) - 1  # old id -> new id where kept
    owner = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees)
    both = keep[owner] & keep[g.targets]
    targets = new_ids[g.targets[both]]
    offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[both], minlength=g.num_nodes)[keep], out=offsets[1:])
    ext = g.external_ids[keep] if g.external_ids is not None else np.flatnonzero(keep)
    return Graph(len(offsets) - 1, len(targets) // 2, offsets, targets, ext)


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
