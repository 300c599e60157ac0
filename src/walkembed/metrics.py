"""Label-free embedding quality metrics and their report artifacts.

Every metric takes its table through one gate: one row per graph node,
L2-normalized, so Euclidean distances live in [0, 2]; a row that is not
finite, or whose norm overflows, raises ValidationError. Edge
signal-to-noise is mean non-edge distance over mean edge distance;
distributions are summarized as nearest-rank percentiles P0..P100; recall@k
uses k = degree(u) with an exact neighbor search: a blocked matrix product
shortlists candidates and an exact re-rank orders them.

Eval holds one table-sized array beside the graph: load_unit_table reads
a checkpoint with model.load_checkpoint and normalizes the rows in place,
and compute_report takes such a UnitTable as it is. The edges come from
blocks of CSR target positions, and a sampled pair is tested for an edge by
a binary search in its CSR row, so the rest is block-sized, plus the
distances of every edge and of the sampled non-edges.

Row normalization runs in fixed blocks of rows, each written to its own
slice of the output; every distance comes from one kernel, _distances, over
blocks of target positions or pairs. Where the process may use more than
one CPU, the calling thread and one helper thread each take the next block
not yet taken (see cores.share); each row's arithmetic is the same on
either thread, so the report is bitwise the same as on one thread, and the
bad row named is the first, as on one thread. The recall search stays on
the calling thread.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import cores
from .errors import MetricError, ValidationError, check_ids
from .graph import Graph
from .model import EmbeddingTable, load_checkpoint

logger = logging.getLogger(__name__)

SNR_CAP = 1.0e12  # reported when mean edge distance is below 1e-12

# Pairs (or CSR target positions) per block of _distances, and rows per
# block of _unit_table. At D = 128 in float32 a pair block gathers two 2 MB
# arrays of rows, about one core's L2 cache; blocks of 16 384 pairs ran
# slower on one thread. Blocks of any size give the same bits.
_PAIR_BLOCK = 4_096
# Table rows per block and sampled nodes per query group in edge_recall; its
# approximate-distance buffer holds at most their product.
_RECALL_ROW_BLOCK = 8_192
_RECALL_QUERY_GROUP = 128
_BAD_ROW = "embedding row {} is not finite or its norm overflows"

# MetricsReport percentile field -> the CSV write_report puts it in
PERCENTILE_CSVS = {
    "edge_distance_percentiles": "edge_distance.csv",
    "non_edge_distance_percentiles": "non_edge_distance.csv",
    "recall_percentiles": "recall.csv",
}


@dataclass
class MetricsReport:
    edge_snr: float
    edge_distance_percentiles: list[float]
    non_edge_distance_percentiles: list[float]
    recall_percentiles: list[float]
    mean_edge_distance: float
    mean_non_edge_distance: float
    mean_recall: float
    num_edges: int
    num_non_edge_samples: int
    num_recall_nodes: int
    zero_degree_resamples: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        return cls(**json.loads(text))


def _normalize_rows(values: np.ndarray, out: np.ndarray, lo: int, hi: int) -> int:
    """out[lo:hi] = values[lo:hi] over their row norms, zero rows unchanged;
    returns the zero rows' count. A row with a non-finite norm raises
    ValidationError naming the first one, and nothing is written."""
    rows = values[lo:hi]
    with np.errstate(over="ignore"):  # an overflowing norm is reported, not warned of
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(norms))
    if len(bad):
        raise ValidationError(_BAD_ROW.format(lo + int(bad[0])))
    zero = norms == 0.0
    np.divide(rows, np.where(zero, 1.0, norms), out=out[lo:hi])
    return int(np.count_nonzero(zero))


class UnitTable(EmbeddingTable):
    """A table whose nonzero rows l2_normalize has unit-normalized; its values
    are read-only, so it stays normalized and compute_report takes it as is."""


def _unit_table(values: np.ndarray, out: np.ndarray) -> UnitTable:
    """out as a UnitTable once _normalize_rows has written values' rows to it
    _PAIR_BLOCK at a time, on this thread and, where the process may use two
    CPUs, one helper thread; out may be values itself. One warning carries
    the zero rows that the blocks return."""
    with cores.helper_pool() as pool:
        blocks = range(0, len(out), _PAIR_BLOCK)
        zeros = sum(cores.share(pool, lambda lo: _normalize_rows(values, out, lo, lo + _PAIR_BLOCK), blocks))
    if zeros:
        logger.warning("l2_normalize: %d zero rows left unnormalized", zeros)
    out.flags.writeable = False
    return UnitTable(out)


def l2_normalize(table: EmbeddingTable) -> UnitTable:
    """Unit-normalize every nonzero row; zero rows pass through unchanged.

    Rows are taken _PAIR_BLOCK at a time into one preallocated output. Each
    row's norm and quotient are computed on their own, so the result equals
    the unblocked values / norm(values, axis=1) bit for bit. A row whose norm
    is not finite raises ValidationError naming the first such row."""
    values = table.values
    return _unit_table(values, np.empty(values.shape, dtype=np.result_type(values.dtype, 1.0)))


def _unit(g: Graph, table: EmbeddingTable) -> UnitTable:
    """The table every metric reads: a UnitTable as it is, else l2_normalize(table); one row per node."""
    if table.num_nodes != g.num_nodes:
        raise ValidationError(f"embedding has {table.num_nodes} rows, graph has {g.num_nodes} nodes")
    return table if isinstance(table, UnitTable) else l2_normalize(table)


def load_unit_table(path: str | Path) -> UnitTable:
    """l2_normalize(load_checkpoint(path)[0]), bit for bit, normalized in
    place in the array read, so the memory is one table. A file that is not
    a whole checkpoint raises load_checkpoint's ValidationError."""
    values = load_checkpoint(path)[0].values
    return _unit_table(values, values)


def _distances(values: np.ndarray, pairs, starts) -> np.ndarray:
    """norm(values[u] - values[v], axis=1) over (u, v) = pairs(start) for each
    start, joined in order, bit for bit, where pairs gives at most _PAIR_BLOCK
    pairs. The blocks are shared between this thread and, where the process
    may use two CPUs, one helper thread; each block is one gather of both
    ends, then the norm's own operations (square, row sum, square root) in
    place in the gathered rows."""

    def block(start):
        u, v = pairs(start)
        diff = values[u]
        diff -= values[v]
        diff *= diff
        return np.sqrt(np.add.reduce(diff, axis=1))

    with cores.helper_pool() as pool:
        parts = cores.share(pool, block, starts)
    return np.concatenate(parts) if parts else np.empty(0, dtype=values.dtype)


def pair_distances(table: EmbeddingTable, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Euclidean distance of every pair (u[i], v[i]); u and v must have the
    same length. Blocks of _PAIR_BLOCK pairs go to _distances, so the result
    equals the unblocked norm(values[u] - values[v], axis=1) bit for bit. An
    id outside [0, rows) raises IndexError before any block is handed out."""
    if len(u) != len(v):
        raise ValidationError(f"pair_distances: {len(u)} u ids but {len(v)} v ids")
    values = table.values
    check_ids(u, len(values))
    check_ids(v, len(values))
    return _distances(
        values, lambda lo: (u[lo : lo + _PAIR_BLOCK], v[lo : lo + _PAIR_BLOCK]), range(0, len(u), _PAIR_BLOCK)
    )


def edge_distances(g: Graph, table: EmbeddingTable) -> np.ndarray:
    """pair_distances over g.edge_array(), bit for bit, without an array of
    every edge: _distances takes the edges of _PAIR_BLOCK CSR target
    positions at a time (Graph.edges_at), at most _PAIR_BLOCK pairs."""
    values = table.values
    if len(values) != g.num_nodes:
        raise ValidationError(f"embedding has {len(values)} rows, graph has {g.num_nodes} nodes")
    starts = range(0, len(g.targets), _PAIR_BLOCK)
    return _distances(values, lambda start: g.edges_at(start, start + _PAIR_BLOCK), starts)


def _is_edge(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each v[i] is a neighbor of u[i]: a binary search for v in the
    sorted row of u, all pairs at once, one pass per bit of the top degree."""
    lo, end = g.offsets[u], g.offsets[u + 1]
    hi = end
    for _ in range(int(g.degrees.max(initial=0)).bit_length()):
        # the first position of u's row holding a target >= v lies in [lo, hi]
        active = lo < hi
        mid = (lo + hi) >> 1
        below = active & (np.take(g.targets, mid, mode="clip") < v)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    found = lo < end
    found[found] = g.targets[lo[found]] == v[found]
    return found


def sample_non_edges(g: Graph, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform node pairs, rejecting self-pairs and edges, with replacement."""
    if count < 1:
        raise ValidationError("non-edge sample count must be >= 1")
    if g.num_nodes * (g.num_nodes - 1) // 2 <= g.num_edges:
        raise MetricError("graph has no non-edges to sample")
    n = g.num_nodes
    out_u, out_v = [], []
    got = 0
    while got < count:
        m = max(1024, int((count - got) * 1.2))
        u = rng.integers(0, n, size=m, dtype=np.int64)
        v = rng.integers(0, n, size=m, dtype=np.int64)
        ok = (u != v) & ~_is_edge(g, u, v)
        out_u.append(u[ok])
        out_v.append(v[ok])
        got += int(ok.sum())
    u = np.concatenate(out_u)[:count]
    v = np.concatenate(out_v)[:count]
    return u, v


def _distance_split(
    g: Graph, table: EmbeddingTable, non_edge_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Distances of every edge and of sampled non-edges, their two means, and
    the SNR (capped at SNR_CAP when the edge mean is below 1e-12)."""
    if g.num_edges == 0:
        raise MetricError("metrics undefined on a graph with no edges")
    edge_d = edge_distances(g, table)
    u, v = sample_non_edges(g, non_edge_samples, rng)
    non_d = pair_distances(table, u, v)
    mean_edge = float(np.mean(edge_d, dtype=np.float64))
    mean_non = float(np.mean(non_d, dtype=np.float64))
    snr = SNR_CAP if mean_edge < 1e-12 else mean_non / mean_edge
    return edge_d, non_d, mean_edge, mean_non, snr


def edge_snr(
    g: Graph,
    table: EmbeddingTable,
    non_edge_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> float:
    """Mean sampled non-edge distance over mean edge distance, over every
    edge, on the table normalized as compute_report normalizes it."""
    rng = rng if rng is not None else np.random.default_rng(0)
    return _distance_split(g, _unit(g, table), non_edge_samples, rng)[-1]


def nearest_rank_percentiles(values: np.ndarray) -> np.ndarray:
    """P0..P100 by the nearest-rank rule, the ceil(q * n / 100)-th smallest
    in exact integer arithmetic; P0 is the minimum."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValidationError("cannot take percentiles of an empty sample")
    s = np.sort(values)
    rank = (np.arange(101, dtype=np.int64) * len(s) + 99) // 100
    return s[np.clip(rank - 1, 0, len(s) - 1)]


@dataclass
class RecallResult:
    nodes: np.ndarray
    recalls: np.ndarray
    zero_degree_resamples: int


def edge_recall(
    g: Graph,
    table: EmbeddingTable,
    num_sampled_nodes: int = 100,
    rng: np.random.Generator | None = None,
) -> RecallResult:
    """Per-node recall@deg(u) over a uniform node sample.

    For each sampled u the deg(u) nearest rows of the normalized table
    (excluding u, ties broken by node id) are compared against the true
    neighbor set. The search is exact: a blocked matrix product of
    approximate squared distances shortlists every row that can be among the
    deg(u) nearest, and the shortlist is re-ranked by norm(values[cand] -
    values[u]) in (distance, id) order. The product runs over
    _RECALL_ROW_BLOCK table rows and _RECALL_QUERY_GROUP sampled nodes at a
    time, so its memory is bounded by the block sizes.
    """
    if num_sampled_nodes < 1:
        raise ValidationError("recall node count must be >= 1")
    values = _unit(g, table).values
    rng = rng if rng is not None else np.random.default_rng(0)
    deg = g.degrees
    if not np.any(deg > 0):
        raise MetricError("edge recall undefined: every node has degree 0")
    perm = rng.permutation(g.num_nodes)
    ok = deg[perm] > 0
    # walk the permutation until num_sampled_nodes eligible nodes are found;
    # zero-degree draws along the way count as resamples
    enough = np.searchsorted(np.cumsum(ok), num_sampled_nodes) + 1
    scanned = min(int(enough), g.num_nodes)
    chosen = perm[:scanned][ok[:scanned]]
    resamples = scanned - len(chosen)
    recalls = np.empty(len(chosen), dtype=np.float64)
    dim = values.shape[1]
    sq = np.einsum("ij,ij->i", values, values)
    max_sq = float(np.max(sq))
    fin = np.finfo(values.dtype)
    mu = (dim + 4) * float(fin.eps) / 2
    gamma = mu / (1 - mu)
    for lo in range(0, len(chosen), _RECALL_QUERY_GROUP):
        nodes = chosen[lo : lo + _RECALL_QUERY_GROUP]
        reach = (np.sqrt(sq[nodes].astype(np.float64)) + np.sqrt(max_sq)) ** 2
        slack = 4.0 * (2.0 * gamma * reach + 3 * dim * float(fin.smallest_subnormal))
        pools = _shortlist(values, sq, nodes, deg[nodes], slack)
        for i, (u, cand) in enumerate(zip(nodes, pools), start=lo):
            d = np.linalg.norm(values[cand] - values[u], axis=1)
            k = int(deg[u])
            top = cand[np.lexsort((cand, d))[:k]]
            hits = np.intersect1d(top, g.neighbors(u), assume_unique=True)
            recalls[i] = len(hits) / k
    return RecallResult(nodes=chosen, recalls=recalls, zero_degree_resamples=resamples)


# Why _shortlist never drops a row of the exact top k.
#
# Take a query row q, a table row x, the dimension D, the dtype's unit
# roundoff u = eps/2, gamma(m) = m*u / (1 - m*u) and tiny, the dtype's
# smallest subnormal. s(x) = |q - x|^2 in exact arithmetic. A rounded sum or
# difference has relative error at most u; a rounded product also may lose up
# to tiny/2 to underflow.
#
# Re-rank: d(x) = norm(x - q) rounds D differences, D squares, D - 1
# additions (in any order) and one square root, so
#     |d(x)^2 - s(x)| <= gamma(D + 4) * s(x) + D * tiny.
# Shortlist: a(x) = (-2 q.x + |x|^2) + |q|^2, where the dot product and both
# squared norms are each within gamma(D) times their sum of absolute terms
# (|q.x| <= |q| |x| by Cauchy-Schwarz, in any summation order) and the two
# additions round once each, so
#     |a(x) - s(x)| <= gamma(D + 2) * (|q| + |x|)^2 + 2D * tiny.
# With R^2 the largest squared row norm, for every x both errors add to at most
#     E = 2 * gamma(D + 4) * (|q| + R)^2 + 3D * tiny.
# Let tau be the k-th smallest a(x) over the rows x != q. The k rows that
# reach it have d^2 <= a + E <= tau + E, so the k-th row of the exact
# (d, id) order, and every row ranked before it, has d^2 <= tau + E. Each of
# those rows has a <= d^2 + E <= tau + 2E: keeping every row with
# a <= tau + slack for any slack >= 2E keeps the exact top k, ties included.
# The slack used is 4E; the extra factor 2 covers the rounding of |q|, R and
# the bound itself, each relatively far below gamma(D + 4). Unit rows, R^2
# about 1, keep every intermediate of a(x) finite.
def _shortlist(
    values: np.ndarray, sq: np.ndarray, nodes: np.ndarray, ks: np.ndarray, slack: np.ndarray
) -> list[np.ndarray]:
    """Ascending row ids with a(x) <= tau + slack for each query node (itself
    excluded), from approximate squared distances taken one row block at a
    time. The running tau only falls as blocks arrive, so pruning each pool
    by it drops nothing the final threshold keeps."""
    q = values[nodes]
    q_sq = sq[nodes]
    ids = [np.empty(0, dtype=np.int64)] * len(nodes)
    approx = [np.empty(0, dtype=values.dtype)] * len(nodes)
    cut = np.full(len(nodes), np.inf)
    for lo in range(0, len(values), _RECALL_ROW_BLOCK):
        hi = min(lo + _RECALL_ROW_BLOCK, len(values))
        a = q @ values[lo:hi].T
        a *= -2
        a += sq[lo:hi]
        a += q_sq[:, None]
        own = np.flatnonzero((nodes >= lo) & (nodes < hi))
        a[own, nodes[own] - lo] = np.nan  # compares false: never its own candidate
        for j, k in enumerate(ks):
            sel = np.flatnonzero(a[j] <= cut[j])
            ids[j] = np.concatenate([ids[j], sel + lo])
            approx[j] = np.concatenate([approx[j], a[j, sel]])
            if len(approx[j]) >= k:
                cut[j] = np.partition(approx[j], k - 1)[k - 1] + slack[j]
                keep = approx[j] <= cut[j]
                ids[j], approx[j] = ids[j][keep], approx[j][keep]
    return ids


def compute_report(
    g: Graph,
    table: EmbeddingTable,
    non_edge_samples: int = 10_000,
    recall_nodes: int = 100,
    seed: int = 0,
) -> MetricsReport:
    """Normalize, then compute SNR, both distance distributions, and recall.

    A UnitTable (l2_normalize's or load_unit_table's) is already normalized
    and taken as it is, so passing l2_normalize(table) gives the same report
    as passing table. The table must hold one row per graph node, and the
    seed be >= 0."""
    if seed < 0:
        raise ValidationError(f"eval seed must be >= 0, got {seed}")
    normalized = _unit(g, table)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7)))
    edge_d, non_d, mean_edge, mean_non, snr = _distance_split(g, normalized, non_edge_samples, rng)
    rec = edge_recall(g, normalized, recall_nodes, rng)
    return MetricsReport(
        edge_snr=snr,
        edge_distance_percentiles=nearest_rank_percentiles(edge_d).tolist(),
        non_edge_distance_percentiles=nearest_rank_percentiles(non_d).tolist(),
        recall_percentiles=nearest_rank_percentiles(rec.recalls).tolist(),
        mean_edge_distance=mean_edge,
        mean_non_edge_distance=mean_non,
        mean_recall=float(np.mean(rec.recalls, dtype=np.float64)),
        num_edges=g.num_edges,
        num_non_edge_samples=non_edge_samples,
        num_recall_nodes=len(rec.nodes),
        zero_degree_resamples=rec.zero_degree_resamples,
        seed=seed,
    )


def _write_percentile_csv(path: Path, labels: list[str], columns: list[list[float]]) -> None:
    """The plotting layout: a Quantiles,<label...> header, then one row per
    percentile q with q / 100 and each column's value at q."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Quantiles", *labels])
        for q, row in enumerate(zip(*columns)):
            writer.writerow([f"{q / 100:.2f}", *(repr(float(v)) for v in row)])


def write_report(report: MetricsReport, out_dir: str | Path, label: str = "embedding") -> Path:
    """report.json plus the three percentile CSVs used for plotting."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    path.write_text(report.to_json() + "\n", encoding="utf-8")
    for attr, name in PERCENTILE_CSVS.items():
        _write_percentile_csv(out_dir / name, [label], [getattr(report, attr)])
    return path


def read_report(path: str | Path) -> MetricsReport:
    return MetricsReport.from_json(Path(path).read_text(encoding="utf-8"))
