"""Stochastic block model graphs with skip-ahead edge sampling.

Nodes are split into k contiguous, near-equal classes (node i belongs to
class floor(i*k/n)). Each unordered pair {i, j} is an edge independently
with probability p_in when the classes match and p_out otherwise. Pairs are
enumerated implicitly and visited by geometric jumps, so generation costs
O(expected edges) rather than O(n^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .graph import Graph, from_edges

# Desk-scale presets: expected |E| ~= 10 * |V| (mean degree ~20) with a 10:1
# within/between density ratio and 4 classes. At that ratio, 4 classes keep
# ~3/4 of the edges within a class, so the clustering signal survives the
# small diameter of a desk-scale graph.
PRESETS = {
    "sbm-1k": (1_000, 4),
    "sbm-10k": (10_000, 4),
    "sbm-100k": (100_000, 4),
    "sbm-1m": (1_000_000, 4),
}
MAX_EXPECTED_EDGES = 2.0e8  # generate_sbm refuses a config expected to give more


@dataclass(frozen=True)
class SbmConfig:
    n: int
    k: int
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("n must be positive")
        if not 1 <= self.k <= self.n:
            raise ValidationError("k must satisfy 1 <= k <= n")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"{name} must be a probability, got {p}")
        if self.p_out > self.p_in:
            warnings.warn(
                "p_out > p_in: generated graph will not be assortative",
                stacklevel=2,
            )

    def block_bounds(self) -> np.ndarray:
        """Start index of each class; length k+1, ends with n."""
        b = np.arange(self.k + 1, dtype=np.int64)
        return -(-b * self.n // self.k)  # ceil(b*n/k)


def preset_config(name: str, seed: int = 0) -> SbmConfig:
    """Named benchmark config with expected |E| = 10 * |V|."""
    try:
        n, k = PRESETS[name.lower()]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; options: {sorted(PRESETS)}")
    return SbmConfig(n=n, k=k, p_in=10 * _p_for_degree(n, k, 20.0), p_out=_p_for_degree(n, k, 20.0), seed=seed)


def _p_for_degree(n: int, k: int, mean_degree: float) -> float:
    # p_out such that (s-1)*10*p_out + (n-s)*p_out produces the target degree,
    # with s = n/k the class size and p_in = 10*p_out.
    s = n / k
    return mean_degree / (10 * (s - 1) + (n - s))


def expected_edges(cfg: SbmConfig) -> float:
    bounds = cfg.block_bounds()
    sizes = np.diff(bounds).astype(np.float64)
    within = float(np.sum(sizes * (sizes - 1) / 2.0)) * cfg.p_in
    total_pairs = cfg.n * (cfg.n - 1) / 2.0
    between = (total_pairs - float(np.sum(sizes * (sizes - 1) / 2.0))) * cfg.p_out
    return within + between


def _pair_rng(cfg: SbmConfig, bi: int, bj: int) -> np.random.Generator:
    # Stream keyed by (seed, block pair) so parallel == serial generation.
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, bi, bj)))


def _bernoulli_positions(rng: np.random.Generator, num_slots: int, p: float) -> np.ndarray:
    """Indices of successes in a Bernoulli(p) run of num_slots trials."""
    if p <= 0.0 or num_slots <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(num_slots, dtype=np.int64)
    out = []
    pos = np.int64(-1)
    expect = num_slots * p
    chunk = max(64, int(expect + 6 * math.sqrt(expect + 1) + 1))
    while True:
        jumps = rng.geometric(p, size=chunk).astype(np.int64)
        positions = pos + np.cumsum(jumps)
        if positions[-1] >= num_slots:
            out.append(positions[positions < num_slots])
            break
        out.append(positions)
        pos = positions[-1]
    return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def _decode_triangle(t: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices over {(r, c): r < c < s} (row-major) to (r, c)."""
    rows = np.arange(s, dtype=np.int64)
    starts = rows * (2 * s - rows - 1) // 2  # linear index of each row's first pair
    r = np.searchsorted(starts, t, "right") - 1
    return r, r + 1 + t - starts[r]


def _block_pair_edges(cfg: SbmConfig, bounds: np.ndarray, bi: int, bj: int) -> np.ndarray:
    lo_i, hi_i = int(bounds[bi]), int(bounds[bi + 1])
    lo_j, hi_j = int(bounds[bj]), int(bounds[bj + 1])
    si, sj = hi_i - lo_i, hi_j - lo_j
    rng = _pair_rng(cfg, bi, bj)
    if bi == bj:
        npairs = si * (si - 1) // 2
        t = _bernoulli_positions(rng, npairs, cfg.p_in)
        r, c = _decode_triangle(t, si)
        return np.column_stack([r + lo_i, c + lo_i])
    t = _bernoulli_positions(rng, si * sj, cfg.p_out)
    return np.column_stack([lo_i + t // sj, lo_j + t % sj])


def generate_sbm(cfg: SbmConfig) -> Graph:
    """Sample a Graph from the block model; bitwise-reproducible per seed.

    Each block pair draws from its own seeded stream.
    """
    exp = expected_edges(cfg)
    if exp > MAX_EXPECTED_EDGES:
        raise CapacityError(f"expected {exp:.3g} edges exceeds budget {MAX_EXPECTED_EDGES:.3g}")
    bounds = cfg.block_bounds()
    pairs = [(bi, bj) for bi in range(cfg.k) for bj in range(bi, cfg.k)]
    chunks = [_block_pair_edges(cfg, bounds, bi, bj) for bi, bj in pairs]
    edges = np.concatenate([c for c in chunks if len(c)] or [np.empty((0, 2), dtype=np.int64)])
    return from_edges(edges, num_nodes=cfg.n)
