"""Independent brute-force references the fast paths are checked against.

Everything here is deliberately naive: explicit trajectory enumeration,
quadratic nearest-neighbor search, exhaustive pair scans, central finite
differences, a per-example skip-gram loss, a per-line edge-list parser
with sort-based graph building, a whole-epoch record order, a shard parser,
whole-set positives, a one-draw initial table, and whole-graph edge arrays
for the edge distances, the edge-list writer and the non-edge membership
test. None of it shares code with the implementations under test, except
the whole-set shard reference, which reuses the sampler's walks and checks
only how records reach their shards. The small helpers at the end serve
tests only.
"""

import math
import re
from pathlib import Path

import numpy as np

from walkembed import sampler
from walkembed.errors import EmptyGraphError, ParseError
from walkembed.graph import Graph, run_starts
from walkembed.rng import HashStream, splitmix64
from walkembed.shards import FORMAT_VERSION, record_array, shard_path, write_manifest, write_shard
from walkembed.trainer import Positives


def visit_probabilities(g, walk_length: int) -> np.ndarray:
    """prob[u, d, v]: chance a walk from u sits at v after d+1 uniform steps.

    Enumerates every trajectory of length walk_length, multiplying uniform
    transition probabilities; walks stop at neighborless nodes.
    """
    n = g.num_nodes
    prob = np.zeros((n, walk_length, n), dtype=np.float64)

    def extend(seed, cur, depth, p):
        if depth == walk_length:
            return
        ns = g.neighbors(cur)
        if len(ns) == 0:
            return
        q = p / len(ns)
        for v in ns:
            prob[seed, depth, int(v)] += q
            extend(seed, int(v), depth + 1, q)

    for u in range(n):
        extend(u, u, 0, 1.0)
    return prob


def recall_reference(g, values: np.ndarray, node: int) -> float:
    """Quadratic recall@degree with (distance, id) tie-breaking."""
    ranked = sorted(
        (math.dist(values[node], values[v]), v)
        for v in range(g.num_nodes)
        if v != node
    )
    k = g.degree(node)
    top = {v for _, v in ranked[:k]}
    return len(top & set(int(x) for x in g.neighbors(node))) / k


def recall_scan(g, values: np.ndarray, num_sampled_nodes: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Sampled nodes and their recall@degree, one full scan per node.

    Draws nodes like metrics.edge_recall, then for each sampled u computes
    norm(values - values[u]) over every row, sorts all rows by (distance, id)
    and takes the deg(u) first after u itself.
    """
    deg = g.degrees
    perm = rng.permutation(g.num_nodes)
    ok = deg[perm] > 0
    scanned = min(int(np.searchsorted(np.cumsum(ok), num_sampled_nodes) + 1), g.num_nodes)
    chosen = perm[:scanned][ok[:scanned]]
    recalls = np.empty(len(chosen), dtype=np.float64)
    for i, u in enumerate(chosen):
        d = np.linalg.norm(values - values[u], axis=1)
        order = np.lexsort((np.arange(g.num_nodes), d))
        order = order[order != u]
        k = int(deg[u])
        hits = np.intersect1d(order[:k], g.neighbors(u), assume_unique=True)
        recalls[i] = len(hits) / k
    return chosen, recalls


def exhaustive_non_edge_distances(g, values: np.ndarray) -> np.ndarray:
    """Distances of every unordered non-adjacent distinct pair."""
    out = []
    for u in range(g.num_nodes):
        nbrs = set(int(x) for x in g.neighbors(u))
        for v in range(u + 1, g.num_nodes):
            if v not in nbrs:
                out.append(math.dist(values[u], values[v]))
    return np.asarray(out)


def finite_difference_grad(loss_fn, values: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar loss over every table entry."""
    grad = np.zeros_like(values, dtype=np.float64)
    it = np.nditer(values, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = values[idx]
        values[idx] = orig + eps
        hi = loss_fn(values)
        values[idx] = orig - eps
        lo = loss_fn(values)
        values[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


def loss_and_grad_reference(values: np.ndarray, src, dst, weight, positive) -> tuple[float, np.ndarray]:
    """Loss and dense gradient of the flat layout, one example at a time.

    Example i scores values[src[i]] . values[dst[i]]; a positive (positive[i])
    adds weight[i] * log(1 + exp(-score)), a negative log(1 + exp(score)).
    The loss is the mean over all examples, in float64 Python scalars.
    """
    n = len(src)
    grad = np.zeros(values.shape, dtype=np.float64)
    loss = 0.0
    for u, v, w, pos in zip(src, dst, weight, positive):
        eu, ev = values[u].astype(np.float64), values[v].astype(np.float64)
        score = float(eu @ ev)
        sign, w = (1.0, float(w)) if pos else (-1.0, 1.0)
        loss += w * math.log1p(math.exp(-sign * score))
        # d/d(score) of w * log(1 + exp(-sign * score)) is -w * sign * sigma(-sign * score)
        coef = -w * sign / (1.0 + math.exp(sign * score)) / n
        grad[u] += coef * ev
        grad[v] += coef * eu
    return loss / n, grad


def upper_edges(g) -> tuple[np.ndarray, np.ndarray]:
    """u and v of every edge u < v in CSR order, from one whole-graph repeat."""
    u = np.repeat(np.arange(g.num_nodes, dtype=np.int64), np.diff(g.offsets))
    keep = u < g.targets
    return u[keep], g.targets[keep]


def edge_distances_reference(g, values: np.ndarray) -> np.ndarray:
    """norm(values[u] - values[v], axis=1) over every edge u < v at once."""
    u, v = upper_edges(g)
    return np.linalg.norm(values[u] - values[v], axis=1)


def save_edge_list_reference(g, path, format: str = "tsv") -> None:
    """Every `u v` line (u < v) joined in memory and written in one call."""
    sep = "," if format == "csv" else "\t"
    u, v = upper_edges(g)
    Path(path).write_text("".join(f"{a}{sep}{b}\n" for a, b in zip(u.tolist(), v.tolist())), encoding="utf-8")


def sample_non_edges_reference(g, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """metrics.sample_non_edges' draws, with membership by searchsorted over
    the sorted u * n + v keys of every directed edge."""
    n = g.num_nodes
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.offsets)) * np.int64(n) + g.targets
    out_u, out_v = [], []
    got = 0
    while got < count:
        m = max(1024, int((count - got) * 1.2))
        u = rng.integers(0, n, size=m, dtype=np.int64)
        v = rng.integers(0, n, size=m, dtype=np.int64)
        q = u * np.int64(n) + v
        pos = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
        is_edge = keys[pos] == q if len(keys) else np.zeros(m, dtype=bool)
        ok = (u != v) & ~is_edge
        out_u.append(u[ok])
        out_v.append(v[ok])
        got += int(ok.sum())
    return np.concatenate(out_u)[:count], np.concatenate(out_v)[:count]


def validate_graph(g) -> None:
    """Assert the CSR invariants: spanning monotone offsets, in-range sorted
    duplicate-free neighbor lists, no self-loops, symmetric adjacency."""
    assert len(g.offsets) == g.num_nodes + 1, "offsets length != num_nodes + 1"
    assert g.offsets[0] == 0 and g.offsets[-1] == len(g.targets), "offsets do not span the target array"
    assert np.all(np.diff(g.offsets) >= 0), "offsets not monotone"
    assert len(g.targets) == 2 * g.num_edges, "sum of degrees != 2 * num_edges"
    if len(g.targets):
        assert 0 <= g.targets.min() and g.targets.max() < g.num_nodes, "neighbor id out of range"
    fwd = set()
    for u in range(g.num_nodes):
        ns = [int(v) for v in g.targets[g.offsets[u] : g.offsets[u + 1]]]
        assert ns == sorted(set(ns)), f"neighbor list of {u} not sorted/unique"
        assert u not in ns, f"self-loop at {u}"
        fwd.update((u, v) for v in ns)
    assert all((v, u) in fwd for u, v in fwd), "adjacency not symmetric"


def binomial_bound(n: int, p: float, sigmas: float = 4.0) -> float:
    """Allowed absolute deviation of a Binomial(n, p) count from its mean."""
    return sigmas * math.sqrt(n * p * (1.0 - p))


def within_binomial(count: int, n: int, p: float, sigmas: float = 4.0) -> bool:
    if p <= 0.0:
        return count == 0
    if p >= 1.0:
        return count == n
    return abs(count - n * p) <= binomial_bound(n, p, sigmas)


def from_edges_reference(edges, num_nodes: int, external_ids=None) -> Graph:
    """Symmetric, deduplicated CSR by np.unique on u<v keys, a lexsort of both
    directions and np.add.at degree counts."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[edges[:, 0] != edges[:, 1]]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    key = np.unique(lo * np.int64(num_nodes) + hi)
    lo, hi = key // num_nodes, key % num_nodes
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    return Graph(num_nodes, len(key), np.cumsum(offsets), dst, external_ids)


_ID = re.compile(r"[+-]?[0-9]+")  # ASCII digits only


def load_edge_list_reference(path, format: str = "tsv") -> Graph:
    """One int() per id, line by line, then an np.unique plus searchsorted
    remap and from_edges_reference. Lines end at LF, CRLF or a lone CR, and
    each is decoded as UTF-8 on its own. A '#' starts a comment that runs to
    the line end, and in csv a comma counts as a blank. Raises ParseError at
    the first line that is not UTF-8, or whose text before any comment is
    neither blank nor two leading blank-separated ids `[+-]?[0-9]+` that fit
    int64; further fields are ignored."""
    raw = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(path, line_no, "not UTF-8") from None
        line = line.split("#", 1)[0]
        parts = (line.replace(",", " ") if format == "csv" else line).split()
        if not parts:
            continue
        if len(parts) < 2 or not all(_ID.fullmatch(p) for p in parts[:2]):
            raise ParseError(path, line_no, "expected two decimal node ids")
        ids = int(parts[0]), int(parts[1])
        if not all(-(2**63) <= i < 2**63 for i in ids):
            raise ParseError(path, line_no, "node id outside the int64 range")
        raw.append(ids)
    if not raw:
        raise EmptyGraphError(f"{path} contains no edges")
    arr = np.asarray(raw, dtype=np.int64)
    ext = np.unique(arr)
    return from_edges_reference(np.searchsorted(ext, arr), len(ext), ext)


def prune_reference(g: Graph, min_degree: int) -> Graph:
    """Single-pass degree prune through the u<v edge array and a rebuild."""
    deg = np.diff(g.offsets)
    keep = deg >= min_degree
    if not keep.any():
        raise EmptyGraphError("pruning removed every node")
    new_ids = np.cumsum(keep) - 1
    u = np.repeat(np.arange(g.num_nodes, dtype=np.int64), deg)
    edges = np.column_stack([u, g.targets])[u < g.targets]
    edges = new_ids[edges[keep[edges[:, 0]] & keep[edges[:, 1]]]]
    ext = g.external_ids[keep] if g.external_ids is not None else np.flatnonzero(keep)
    return from_edges_reference(edges, int(keep.sum()), ext)


def combine_visits_reference(seeds, dests, dists, num_nodes: int, walk_length: int) -> np.ndarray:
    """Records by two np.unique passes: one counts each (seed, dest,
    distance), the other groups those counts by (seed, dest)."""
    seeds, dests, dists = (np.asarray(a, dtype=np.int64) for a in (seeds, dests, dists))
    key = (seeds * num_nodes + dests) * walk_length + (dists - 1)
    uniq, counts = np.unique(key, return_counts=True)
    rec_keys, rec_index = np.unique(uniq // walk_length, return_inverse=True)
    co = np.zeros((len(rec_keys), walk_length), dtype=np.int64)
    co[rec_index, uniq % walk_length] = counts
    return wire_records(rec_keys // num_nodes, rec_keys % num_nodes, co)


def run_sampling_reference(g, cfg, out_dir, partition_nodes: int = 1 << 14) -> None:
    """Shards and manifest.json by whole-set sharding: every partition of
    partition_nodes seeds is walked and combined, all partitions' records are
    concatenated, each record is hashed to a shard by its source, and each
    shard is cut out of the whole set by a boolean mask."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    stream = HashStream(cfg.seed)
    parts = [
        sampler._sample_partition(g, cfg, stream, np.arange(lo, min(lo + partition_nodes, g.num_nodes)))
        for lo in range(0, g.num_nodes, partition_nodes)
    ]
    whole = np.concatenate([rec for rec, _, _ in parts])
    shard_of = splitmix64(whole["source"].astype(np.uint64)) % np.uint64(cfg.num_shards)
    files, counts = [], []
    for s in range(cfg.num_shards):
        mask = shard_of == s
        path = shard_path(out_dir, s, cfg.num_shards)
        write_shard(path, whole[mask])
        files.append(path.name)
        counts.append(int(mask.sum()))
    stats = {
        "total_walks": g.num_nodes * cfg.walks_per_node,
        "dead_end_terminations": sum(dead for _, dead, _ in parts),
        "num_records": len(whole),
        "co_count_total": int(whole["counts"].sum()),
    }
    write_manifest(
        out_dir,
        {
            "format_version": FORMAT_VERSION,
            "config": cfg.to_dict(),
            "graph_hash": g.content_hash(),
            "num_nodes": g.num_nodes,
            "shard_files": files,
            "record_counts": counts,
            "stats": stats,
        },
    )


def read_shard(path, walk_length: int) -> np.ndarray:
    """A shard file parsed by the wire format alone: packed little-endian
    u64 source, u64 dest, u32 length and u64 counts[walk_length]; its
    columns, read as int64, in a record array."""
    dt = np.dtype({"names": ["source", "dest", "length", "counts"],
                   "formats": ["<u8", "<u8", "<u4", ("<u8", (walk_length,))],
                   "offsets": [0, 8, 16, 20], "itemsize": 20 + 8 * walk_length})
    data = Path(path).read_bytes()
    assert len(data) % dt.itemsize == 0, "partial record"
    arr = np.frombuffer(data, dtype=dt)
    assert np.all(arr["length"] == walk_length), "mixed walk lengths"
    return wire_records(*(arr[k].astype(np.int64) for k in ("source", "dest", "counts")))


def prepare_positives(records: np.ndarray, cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-set positives as training defines them: each record weighs
    counts @ cfg.distance_weighting (all ones when None), and self-pairs
    and zero weights are dropped; ids as read, weights as float32."""
    counts, source, dest = records["counts"], records["source"], records["dest"]
    w = np.ones(counts.shape[1]) if cfg.distance_weighting is None else np.asarray(cfg.distance_weighting, float)
    weight = counts @ w
    keep = (weight > 0) & (source != dest)
    return source[keep], dest[keep], weight[keep].astype(np.float32)


def positives_from_columns(src, dst, weight) -> Positives:
    """Positives holding the given columns, the sources cut into runs
    wherever the source changes, as a stream takes them."""
    src = np.asarray(src)
    firsts = run_starts(src)
    return Positives(np.asarray(dst), np.asarray(weight), firsts, src[firsts])


def positive_columns(positives: Positives) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) of every position, the sources expanded from their runs."""
    src = positives.sources(0, len(positives)) if len(positives) else positives.run_src[:0]
    return src, positives.dst, positives.weight


def init_table_reference(num_nodes: int, dim: int, seed: int) -> np.ndarray:
    """The initial float32 table as one draw of all its entries."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), num_nodes, dim)))
    half = 1.0 / (2.0 * dim)
    return rng.uniform(-half, half, size=(num_nodes, dim)).astype(np.float32)


def epoch_order_reference(seed: int, n: int, epoch: int, window: int) -> np.ndarray:
    """An epoch's whole order of n record positions: arange(n) cut at
    (epoch * window // 2) % window and every `window` positions after it,
    each piece shuffled in turn by the epoch's one generator."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, epoch)))
    order = np.arange(n, dtype=np.int64)
    edges = sorted({0, *range((epoch * window // 2) % window, n, window), n})
    for lo, hi in zip(edges, edges[1:]):
        rng.shuffle(order[lo:hi])
    return order


def has_edge(g, u: int, v: int) -> bool:
    return int(v) in g.neighbors(u).tolist()


def count_zero_rows(table) -> int:
    return sum(1 for row in table.values if not row.any())


def class_of(cfg, i: int) -> int:
    """The planted class of node i: classes are contiguous id blocks."""
    return i * cfg.k // cfg.n


def wire_records(source, dest, counts) -> np.ndarray:
    """A shards.record_array holding the given columns; counts is (n, walk_length)."""
    counts = np.asarray(counts)
    records = record_array(*counts.shape)
    records["source"], records["dest"], records["counts"] = source, dest, counts
    return records


def write_records_dir(out_dir, *shards: np.ndarray, num_nodes: int | None = None) -> Path:
    """A records directory of one shard per record array given, with the
    manifest keys that training reads. num_nodes, the size of the graph the
    records came from, is by default one more than the largest id."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [shard_path(out_dir, i, len(shards)) for i in range(len(shards))]
    for path, records in zip(paths, shards):
        write_shard(path, records)
    if num_nodes is None:
        num_nodes = 1 + max(int(max(r["source"].max(initial=0), r["dest"].max(initial=0))) for r in shards)
    manifest = {"format_version": FORMAT_VERSION, "config": {"walk_length": shards[0]["counts"].shape[1]},
                "graph_hash": "", "num_nodes": num_nodes,
                "shard_files": [p.name for p in paths], "record_counts": [len(r) for r in shards]}
    write_manifest(out_dir, manifest)
    return out_dir
