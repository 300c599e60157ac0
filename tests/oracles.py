"""Independent brute-force references the fast paths are checked against.

Everything here is deliberately naive: explicit trajectory enumeration,
quadratic nearest-neighbor search, exhaustive pair scans, and central finite
differences. None of it shares code with the implementations under test.
"""

import math

import numpy as np


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
