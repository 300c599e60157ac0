"""Seeded input generators the benchmark owns; no walkembed code runs here.

The pipeline workload ingests a text edge list written by `edge_list_pairs`
and `write_edge_list`. The same seed always yields the same file, so the
ingest check can regenerate the pairs instead of parsing the file again.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class EdgeListSpec:
    nodes: int = 100_000  # core nodes, labelled i -> i * classes // nodes
    classes: int = 4
    edges: int = 1_000_000  # core edge draws before dedup
    within_share: float = 0.75  # share of draws that stay inside a class
    self_loops: int = 1_000  # `u u` lines the ingest must drop
    duplicates: int = 10_000  # repeats of drawn edges, half of them reversed
    pendants: int = 1_000  # extra degree-1 nodes the prune must drop

    def external_id(self, i: np.ndarray) -> np.ndarray:
        # odd ids keep the ingest's dense remap from being the identity
        return 2 * np.asarray(i, dtype=np.int64) + 1


def edge_list_pairs(spec: EdgeListSpec, seed: int) -> np.ndarray:
    """(m, 2) external-id pairs in file order, noise lines included."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5B)))
    n, k, m = spec.nodes, spec.classes, spec.edges
    u = rng.integers(0, n, size=m, dtype=np.int64)
    cu = u * k // n
    same = rng.random(m) < spec.within_share
    cv = np.where(same, cu, (cu + rng.integers(1, k, size=m)) % k)
    lo = -(-cv * n // k)
    hi = -(-(cv + 1) * n // k)
    v = lo + (rng.random(m) * (hi - lo)).astype(np.int64)
    core = np.column_stack([u, v])

    loops = rng.integers(0, n, size=spec.self_loops, dtype=np.int64)
    dup = core[rng.integers(0, m, size=spec.duplicates)]
    dup[::2] = dup[::2, ::-1]
    pend = np.column_stack(
        [np.arange(n, n + spec.pendants, dtype=np.int64),
         rng.integers(0, n, size=spec.pendants, dtype=np.int64)]
    )
    pairs = np.concatenate([core, np.column_stack([loops, loops]), dup, pend])
    pairs = pairs[rng.permutation(len(pairs))]
    return spec.external_id(pairs)


def write_edge_list(pairs: np.ndarray, path: str | Path) -> int:
    """Write a tsv edge list with one leading comment line; returns data lines."""
    body = "\n".join(map("{}\t{}".format, pairs[:, 0].tolist(), pairs[:, 1].tolist()))
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("# source\tdestination\n")
        fh.write(body)
        fh.write("\n")
    return len(pairs)
