"""Correctness checks computed apart from the program.

Files are parsed from their documented byte layouts, and every reference
figure is recomputed here with plain numpy. Each check returns a list of
problems; an empty list means the check passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

CSR_MAGIC = b"WECSR01\n"
CKPT_MAGIC = b"WEEMB01\n"


@dataclass
class Csr:
    offsets: np.ndarray
    targets: np.ndarray
    external_ids: np.ndarray | None

    @property
    def num_nodes(self) -> int:
        return len(self.offsets) - 1

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sources(self) -> np.ndarray:
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)

    def undirected_edges(self) -> np.ndarray:
        """(m, 2) pairs with u < v."""
        u, v = self.sources(), self.targets
        keep = u < v
        return np.column_stack([u[keep], v[keep]])

    def edge_keys(self) -> np.ndarray:
        """Sorted u * n + v keys of every directed entry."""
        return np.sort(self.sources() * np.int64(self.num_nodes) + self.targets)


def read_csr(path: str | Path) -> Csr:
    raw = Path(path).read_bytes()
    if raw[:8] != CSR_MAGIC:
        raise ValueError(f"{path}: bad CSR magic")
    n, m, flags = (int(x) for x in np.frombuffer(raw, dtype="<u8", count=3, offset=8))
    body = np.frombuffer(raw, dtype="<u8", offset=32).astype(np.int64)
    offsets, targets = body[: n + 1], body[n + 1 : n + 1 + 2 * m]
    ext = body[n + 1 + 2 * m : 2 * n + 1 + 2 * m] if flags & 1 else None
    return Csr(offsets, targets, ext)


def read_checkpoint(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:8] != CKPT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    n, d, _ = (int(x) for x in np.frombuffer(raw, dtype="<u8", count=3, offset=8))
    return np.frombuffer(raw, dtype="<f4", count=n * d, offset=64).reshape(n, d)


def read_shards(records_dir: str | Path, walk_length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenated (source, dest, co_counts) of every shard file."""
    dt = np.dtype(
        {
            "names": ["source", "dest", "length", "counts"],
            "formats": ["<u8", "<u8", "<u4", ("<u8", (walk_length,))],
            "offsets": [0, 8, 16, 20],
            "itemsize": 20 + 8 * walk_length,
        }
    )
    files = sorted(Path(records_dir).glob("records-*-of-*.bin"))
    arrs = [np.fromfile(f, dtype=dt) for f in files]
    arr = np.concatenate(arrs) if arrs else np.zeros(0, dtype=dt)
    if np.any(arr["length"] != walk_length):
        raise ValueError(f"{records_dir}: record with a foreign walk length")
    return (
        arr["source"].astype(np.int64),
        arr["dest"].astype(np.int64),
        arr["counts"].astype(np.int64).reshape(-1, walk_length),
    )


# ------------------------------------------------------------------ sampler


def check_sampler(
    csr: Csr, source: np.ndarray, dest: np.ndarray, counts: np.ndarray, walks_per_node: int
) -> list[str]:
    """Distance-1 visits are edges, sum to walks_per_node, no visit is lost."""
    problems = []
    n = csr.num_nodes
    walk_length = counts.shape[1]
    if len(source) == 0:
        return ["sampler wrote no records"]
    if source.min() < 0 or max(source.max(), dest.max()) >= n:
        return ["record node id out of range"]
    one = counts[:, 0] > 0
    keys = csr.edge_keys()
    q = source[one] * np.int64(n) + dest[one]
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    non_edges = int(np.sum(keys[pos] != q)) if len(keys) else int(one.sum())
    if non_edges:
        problems.append(f"{non_edges} records with distance-1 visits are not graph edges")
    first = np.bincount(source, weights=counts[:, 0], minlength=n)
    live = csr.degrees > 0
    wrong = int(np.sum(first[live] != walks_per_node)) + int(np.sum(first[~live] != 0))
    if wrong:
        problems.append(f"{wrong} sources whose distance-1 counts do not sum to {walks_per_node}")
    # a walk can only reach nodes of positive degree, so only seeds dead-end
    expected = int(live.sum()) * walks_per_node * walk_length
    total = int(counts.sum())
    if total != expected:
        problems.append(f"total co-count {total} != walks x length {expected}")
    return problems


# ------------------------------------------------------------------- ingest


def expected_pruned_edges(pairs: np.ndarray, min_degree: int) -> np.ndarray:
    """Sorted unique (lo, hi) external-id edges surviving a one-pass prune."""
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    base = np.int64(hi.max() + 1)
    keys = np.unique(lo * base + hi)
    edges = np.column_stack([keys // base, keys % base])
    ids, deg = np.unique(edges, return_counts=True)
    kept = ids[deg >= min_degree]
    both = np.isin(edges[:, 0], kept) & np.isin(edges[:, 1], kept)
    return edges[both]


def check_ingest(csr: Csr, pairs: np.ndarray, min_degree: int) -> list[str]:
    """The pruned CSR, in external ids, equals the cleaned written edge list."""
    if csr.external_ids is None:
        return ["pruned CSR carries no external id map"]
    problems = []
    ext = csr.external_ids
    if np.any(np.diff(ext) <= 0):
        problems.append("external ids are not strictly ascending")
    keys = csr.sources() * np.int64(csr.num_nodes) + csr.targets
    und = csr.undirected_edges()
    mirrored = np.sort(np.concatenate([und[:, 0] * csr.num_nodes + und[:, 1],
                                       und[:, 1] * csr.num_nodes + und[:, 0]]))
    if len(keys) != len(mirrored) or not np.array_equal(np.sort(keys), mirrored):
        problems.append("CSR adjacency is not symmetric")
    got = np.sort(ext[und], axis=1)
    got = got[np.lexsort((got[:, 1], got[:, 0]))]
    want = expected_pruned_edges(pairs, min_degree)
    if len(got) != len(want):
        problems.append(f"pruned graph has {len(got)} edges, edge list gives {len(want)}")
    elif not np.array_equal(got, want):
        problems.append(f"{int(np.sum(np.any(got != want, axis=1)))} pruned edges differ from the edge list")
    return problems


# ------------------------------------------------------------------ quality


def normalize(values: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(values, axis=1, keepdims=True)
    return values / np.where(norms == 0, 1, norms)


def planted_accuracy(values: np.ndarray, labels: np.ndarray, classes: int) -> float:
    """Nearest-centroid accuracy of unit rows against their planted classes."""
    x = normalize(values.astype(np.float64))
    centroids = np.stack([x[labels == c].mean(axis=0) for c in range(classes)])
    return float(np.mean(np.argmax(x @ centroids.T, axis=1) == labels))


def check_quality(
    trained_acc: float, initial_acc: float, trained_snr: float, initial_snr: float,
    min_acc_gain: float, min_snr_gain: float,
) -> list[str]:
    problems = []
    if trained_acc < initial_acc + min_acc_gain:
        problems.append(
            f"planted-class accuracy {trained_acc:.3f} is not {min_acc_gain} above the initial {initial_acc:.3f}"
        )
    if trained_snr < initial_snr + min_snr_gain:
        problems.append(f"edge SNR {trained_snr:.4f} is not {min_snr_gain} above the initial {initial_snr:.4f}")
    return problems


# --------------------------------------------------------------------- eval


def pair_distances(x: np.ndarray, u: np.ndarray, v: np.ndarray, chunk: int = 1 << 16) -> np.ndarray:
    """Row distances |x[u] - x[v]|, gathered in chunks to bound memory."""
    return np.concatenate(
        [np.linalg.norm(x[u[i : i + chunk]] - x[v[i : i + chunk]], axis=1) for i in range(0, len(u), chunk)]
    )


def distance_ratio(
    csr: Csr, values: np.ndarray, samples: int, rng: np.random.Generator
) -> tuple[float, float, float, float]:
    """(exact mean edge distance, sampled non-edge mean, non-edge std, samples)."""
    x = normalize(values.astype(np.float64))
    e = csr.undirected_edges()
    mean_edge = float(np.mean(pair_distances(x, e[:, 0], e[:, 1])))
    keys = csr.edge_keys()
    n = csr.num_nodes
    u = rng.integers(0, n, size=2 * samples)
    v = rng.integers(0, n, size=2 * samples)
    q = u * np.int64(n) + v
    pos = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    ok = (u != v) & (keys[pos] != q)
    u, v = u[ok][:samples], v[ok][:samples]
    d = pair_distances(x, u, v)
    return mean_edge, float(d.mean()), float(d.std()), float(len(d))


def check_snr(report, csr: Csr, values: np.ndarray, rng: np.random.Generator) -> list[str]:
    """The reported SNR equals an own distance ratio, from 20 000 own non-edge
    samples, within five standard errors."""
    problems = []
    mean_edge, mean_non, std_non, m = distance_ratio(csr, values, 20_000, rng)
    if abs(report.mean_edge_distance - mean_edge) > 1e-4 * mean_edge:
        problems.append(f"mean edge distance {report.mean_edge_distance} != own {mean_edge}")
    if abs(report.edge_snr - report.mean_non_edge_distance / report.mean_edge_distance) > 1e-9 * report.edge_snr:
        problems.append("edge_snr is not the ratio of the reported mean distances")
    se = std_non * np.sqrt(1.0 / m + 1.0 / report.num_non_edge_samples)
    tol = 5.0 * se / mean_edge + 1e-6
    if abs(report.edge_snr - mean_non / mean_edge) > tol:
        problems.append(
            f"edge_snr {report.edge_snr:.5f} differs from own ratio {mean_non / mean_edge:.5f} by more than {tol:.5f}"
        )
    return problems


def recall_at_degree(csr: Csr, x: np.ndarray, sq: np.ndarray, node: int) -> tuple[float, bool]:
    """Brute-force recall@deg(node), (distance, id) order; also whether the
    cut between rank k and k+1 is too close to call in float32.

    x holds float64 rows and sq their squared norms."""
    d = np.sqrt(np.maximum(sq + sq[node] - 2.0 * (x @ x[node]), 0.0))
    d[node] = np.inf
    k = int(csr.degrees[node])
    order = np.lexsort((np.arange(len(d)), d))
    top = order[:k]
    nbrs = csr.targets[csr.offsets[node] : csr.offsets[node + 1]]
    close = len(order) > k and abs(d[order[k]] - d[order[k - 1]]) < 1e-5
    return len(np.intersect1d(top, nbrs)) / k, close


def check_recall(recall_result, csr: Csr, x: np.ndarray) -> list[str]:
    """Per-node recalls from the program equal brute-force recall@degree."""
    bad = []
    x64 = x.astype(np.float64)
    sq = np.einsum("ij,ij->i", x64, x64)
    for node, got in zip(recall_result.nodes.tolist(), recall_result.recalls.tolist()):
        want, close = recall_at_degree(csr, x64, sq, node)
        if abs(got - want) > 1e-12 and not close:
            bad.append(f"node {node}: recall {got} != {want}")
    return [f"{len(bad)} recalls differ from brute force, e.g. {bad[0]}"] if bad else []
