"""Undirected graph in compressed sparse row form, plus ingestion and pruning.

Node ids are dense 0-based ints. Ingested external ids are remapped in
ascending order and the mapping kept so results can be reported in the
caller's id space. An edge list is parsed by one np.loadtxt call over the
whole file, from its path for tsv; only a file that call rejects has its
lines halved, to name its first bad line. The CSR's rows are runs, and the
package's run helpers live here: run_starts, run_index and group_ids, the
one sort of packed (id, position) keys, which also remaps the ids.
"""

from __future__ import annotations

import hashlib
import io
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyGraphError, ParseError, ValidationError, check_file_size

_CSR_MAGIC = b"WECSR01\n"
_WRITE_BLOCK = 1 << 16  # target positions per block of save_edge_list
_MAX_NODES = math.isqrt(1 << 63)  # the most nodes whose largest from_edges key, n*n - 1, fits int64
_DECOMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # suffixes np.loadtxt decompresses when given a path


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

    def edges_at(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """u and v of the edges u < v stored at target positions [start, stop),
        in CSR order; blocks that tile the targets give every edge in CSR
        order. A block may cut a row, so its memory is bounded by its width."""
        stop = min(stop, len(self.targets))
        u, v = run_index(self.offsets, start, stop), self.targets[start:stop]
        keep = u < v
        return u[keep], v[keep]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.int64(self.num_nodes).tobytes())
        h.update(np.int64(self.num_edges).tobytes())
        h.update(np.ascontiguousarray(self.offsets, dtype=np.int64))  # hashed in place, not copied
        h.update(np.ascontiguousarray(self.targets, dtype=np.int64))
        return h.hexdigest()


def run_starts(values: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal values (int64)."""
    if not len(values):
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate([[True], values[1:] != values[:-1]]))


def run_index(starts: np.ndarray, lo: int, hi: int, lane: int = 0, lanes: int = 1) -> np.ndarray:
    """For each i in [lo, hi), the run holding position lane + lanes * i of
    runs that start at the ascending starts: np.searchsorted(starts, lane +
    lanes * i, "right") - 1, as int64, by one search for each end of the
    window and one repeat of the runs it meets."""
    if lo >= hi:
        return np.empty(0, dtype=np.int64)
    first, stop = np.searchsorted(starts, [lane + lanes * lo, lane + lanes * (hi - 1)], "right")
    cuts = np.empty(stop - first + 2, dtype=np.int64)
    cuts[0], cuts[-1], inner = lo, hi, cuts[1:-1]
    # run r starts at the first i with lane + lanes * i >= starts[r]
    np.subtract(lane, starts[first:stop], out=inner)
    np.floor_divide(inner, lanes, out=inner)
    np.negative(inner, out=inner)
    return np.repeat(np.arange(first - 1, stop, dtype=np.int64), np.diff(cuts))


def group_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending unique ids of a non-empty 1-D int array, its positions in
    stable order by id, and where each id's run starts in that order, by one
    sort of the int64 keys (id - min) << shift | position. ValidationError
    where the span and the positions do not fit those keys."""
    m, lo = len(ids), int(ids.min())
    span, shift = int(ids.max()) - lo, (m - 1).bit_length()
    if span.bit_length() + shift > 63:
        raise ValidationError(f"ids spanning {span} at {m} positions do not fit int64 sort keys")
    keys = ids.astype(np.int64)  # widened before packing, which would wrap a narrower dtype
    keys -= lo  # exact: the span fits
    keys <<= shift
    keys |= np.arange(m)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    starts = run_starts(keys)
    return keys[starts] + lo, order, starts


def from_edges(edges: np.ndarray, num_nodes: int, external_ids: np.ndarray | None = None) -> Graph:
    """Build a Graph from an (m, 2) int array of endpoints in [0, num_nodes).

    Symmetrizes, drops self-loops, dedups, sorts neighbor lists: one sort of
    the keys u*n+v and v*n+u, whose order is the CSR order.
    """
    if num_nodes <= 0:
        raise EmptyGraphError("graph has no nodes")
    if num_nodes > _MAX_NODES:
        raise ValidationError(f"num_nodes {num_nodes} is above {_MAX_NODES}, the most whose u*n+v keys fit int64")
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


def _check_format(format: str) -> None:
    if format not in ("tsv", "csv"):
        raise ValidationError(f"unknown edge-list format {format!r}")


def _loadtxt(source) -> np.ndarray:
    """The first two ids of every data line of source, a path or a text
    stream with its line ends translated, as an (m, 2) int64 array."""
    with warnings.catch_warnings():  # a source without data lines yields an empty array
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy 1.23-1.26 only warn on, and truncate, an int that parses as a float (1.5, 1e3, 2**63)
        warnings.filterwarnings("error", category=DeprecationWarning)
        return np.loadtxt(source, dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2, encoding="utf-8")


def _read_ids(text: str, format: str) -> np.ndarray:
    """_loadtxt of a text; in csv a comma counts as a blank."""
    if format == "csv":
        text = text.replace(",", " ")
    # newline=None also ends a line at a lone CR, as bytes.splitlines does below
    return _loadtxt(io.StringIO(text, newline=None))


def _read_edge_list(path: Path, format: str) -> np.ndarray:
    """The ids of every data line of the file, or ParseError at the first bad line.

    The whole file is parsed in one call, a tsv file from its path (numpy
    reads it in blocks), a csv file as text. Only when that fails are its
    lines halved, first half first, down to the first bad one.
    """
    try:
        # given a path, numpy decompresses x.gz, and opens x.gz when x is missing
        if format == "tsv" and path.suffix not in _DECOMPRESSED and path.is_file():
            return _loadtxt(str(path))
        return _read_ids(path.read_bytes().decode("utf-8"), format)
    except (ValueError, DeprecationWarning):  # UnicodeDecodeError included
        lines = path.read_bytes().splitlines()
        lo, hi = 0, len(lines)
        while lo < hi:  # the first line that fails alone, if one does, is in [lo, hi)
            mid = (lo + hi + 1) // 2
            try:
                _read_ids(b"\n".join(lines[lo:mid]).decode("utf-8"), format)
                lo = mid
            except (ValueError, DeprecationWarning) as exc:
                if mid - lo > 1:
                    hi = mid
                elif isinstance(exc, UnicodeDecodeError):  # line mid fails alone
                    raise ParseError(path, mid, "not UTF-8") from None
                else:
                    raise ParseError(path, mid, "expected two decimal node ids in the int64 range") from exc
        raise


def _remap(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) of a non-empty 1-D int64 array:
    the ascending unique ids and each position's index among them, by
    group_ids; ids too wide for its keys take np.unique."""
    try:
        unique, order, starts = group_ids(ids)
    except ValidationError:
        return np.unique(ids, return_inverse=True)
    dense = np.empty_like(order)
    dense[order] = run_index(starts, 0, len(ids))
    return unique, dense


def load_edge_list(path: str | Path, format: str = "tsv") -> Graph:
    """Load an undirected graph from a text edge list.

    One edge per line: two ASCII decimal ids that fit int64, optionally
    signed, separated by blanks (tsv) or by commas and blanks (csv); further
    columns (a weight, say) are ignored, and '#' starts a comment that runs
    to the line end. Lines end at LF, CRLF or a lone CR. Invalid input
    raises ParseError naming the first bad line. External ids are remapped
    to dense 0-based indices in ascending order by one packed-key sort
    (_remap).
    """
    _check_format(format)
    path = Path(path)
    ids = _read_edge_list(path, format).ravel()
    if not len(ids):
        raise EmptyGraphError(f"{path} contains no edges")
    # ascending ids -> deterministic remap; the parsed ids are freed before from_edges
    ext, dense = _remap(ids)
    del ids
    return from_edges(dense.reshape(-1, 2), num_nodes=len(ext), external_ids=ext)


def save_edge_list(g: Graph, path: str | Path, format: str = "tsv") -> None:
    """Write one `u v` line per edge (u < v), in the dense id space, in CSR
    order; the lines are built _WRITE_BLOCK target positions at a time."""
    _check_format(format)
    sep = "," if format == "csv" else "\t"
    line = f"{{}}{sep}{{}}\n".format
    with Path(path).open("w", encoding="utf-8") as fh:
        for start in range(0, len(g.targets), _WRITE_BLOCK):
            u, v = g.edges_at(start, start + _WRITE_BLOCK)
            fh.write("".join(map(line, u.tolist(), v.tolist())))


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
    The int64 arrays are written as they are, not copied: as <i8 they hold
    the bytes of their <u8 casts, negative external ids included.
    """
    flags = 1 if g.external_ids is not None else 0
    with Path(path).open("wb") as fh:
        fh.write(_CSR_MAGIC)
        np.array([g.num_nodes, g.num_edges, flags], dtype="<u8").tofile(fh)
        g.offsets.astype("<i8", copy=False).tofile(fh)
        g.targets.astype("<i8", copy=False).tofile(fh)
        if g.external_ids is not None:
            g.external_ids.astype("<i8", copy=False).tofile(fh)


def _check_csr(path, n: int, offsets: np.ndarray, targets: np.ndarray) -> None:
    """Raise ValidationError naming path, and the first bad row where there is
    one, unless offsets run from 0 to len(targets) without decreasing and
    every row holds strictly ascending targets in [0, n)."""
    if offsets[0] != 0 or offsets[-1] != len(targets):
        raise ValidationError(f"{path}: offsets run from {offsets[0]} to {offsets[-1]}, not from 0 to {len(targets)}")
    falls = np.flatnonzero(offsets[1:] < offsets[:-1])
    if len(falls):
        raise ValidationError(f"{path}: row {falls[0]} ends before it starts")

    def row_of(pos):
        return int(np.searchsorted(offsets, pos, side="right")) - 1

    if len(targets) and (targets.min() < 0 or targets.max() >= n):
        pos = np.flatnonzero((targets < 0) | (targets >= n))[0]
        raise ValidationError(f"{path}: row {row_of(pos)} holds target {targets[pos]}, outside [0, {n})")
    # a position not above the one before it, unless it starts a row
    unsorted = np.zeros(len(targets), dtype=bool)
    np.less_equal(targets[1:], targets[:-1], out=unsorted[1:])
    unsorted[offsets[:-1][offsets[:-1] < len(targets)]] = False
    if unsorted.any():
        raise ValidationError(f"{path}: row {row_of(np.argmax(unsorted))} is not strictly ascending")


def load_csr(path: str | Path) -> Graph:
    """A graph written by save_csr. ValidationError names the file if it is
    not one, is truncated, or holds a malformed CSR (see _check_csr)."""
    with Path(path).open("rb") as fh:
        if fh.read(len(_CSR_MAGIC)) != _CSR_MAGIC:
            raise ValidationError(f"{path} is not a CSR cache file")
        head = np.fromfile(fh, dtype="<u8", count=3)
        if len(head) < 3:
            raise ValidationError(f"{path}: truncated header")
        n, m, flags = (int(x) for x in head)
        if flags not in (0, 1):
            raise ValidationError(f"{path}: flags {flags}, but only 0 and 1 (external ids) are defined")
        check_file_size(path, fh, len(_CSR_MAGIC) + 8 * (3 + n + 1 + 2 * m + (n if flags & 1 else 0)))
        # read as signed: a u64 value above the int64 range fails the checks below
        offsets = np.fromfile(fh, dtype="<i8", count=n + 1).astype(np.int64, copy=False)
        targets = np.fromfile(fh, dtype="<i8", count=2 * m).astype(np.int64, copy=False)
        ext = np.fromfile(fh, dtype="<i8", count=n).astype(np.int64, copy=False) if flags & 1 else None
    _check_csr(path, n, offsets, targets)
    return Graph(n, m, offsets, targets, ext)


def load_graph(path: str | Path) -> Graph:
    """Load a CSR cache, known by its magic bytes, or else a text edge list:
    csv if the suffix is .csv in any case, else tsv."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(len(_CSR_MAGIC))
    if head == _CSR_MAGIC:
        return load_csr(path)
    fmt = "csv" if path.suffix.lower() == ".csv" else "tsv"
    return load_edge_list(path, format=fmt)
