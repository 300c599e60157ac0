import math

import numpy as np
import pytest

from walkembed import sbm
from walkembed.errors import CapacityError, ValidationError
from walkembed.sbm import (
    SbmConfig,
    expected_edges,
    generate_sbm,
    preset_config,
)

import oracles


def binomial_sigma(pairs_and_probs):
    return math.sqrt(sum(m * p * (1 - p) for m, p in pairs_and_probs))


@pytest.mark.parametrize("s", range(1, 65))
def test_decode_triangle_matches_row_major_pairs(s):
    pairs = [(r, c) for r in range(s) for c in range(r + 1, s)]
    r, c = sbm._decode_triangle(np.arange(len(pairs), dtype=np.int64), s)
    assert list(zip(r.tolist(), c.tolist())) == pairs


def test_two_complete_blocks():
    g = generate_sbm(SbmConfig(n=4, k=2, p_in=1.0, p_out=0.0, seed=1))
    assert g.num_edges == 2
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(2).tolist() == [3]


def test_all_or_nothing():
    g = generate_sbm(SbmConfig(n=6, k=1, p_in=1.0, p_out=1.0, seed=0))
    assert g.num_edges == 6 * 5 // 2  # complete graph
    g = generate_sbm(SbmConfig(n=6, k=3, p_in=0.0, p_out=0.0, seed=0))
    assert g.num_edges == 0


def test_edge_count_within_4_sigma_of_analytic_mean():
    # 10 blocks of 100: within pairs 10*C(100,2), between the rest
    cfg = SbmConfig(n=1000, k=10, p_in=0.05, p_out=0.001, seed=7)
    within_pairs = 10 * 100 * 99 // 2
    between_pairs = 1000 * 999 // 2 - within_pairs
    mean = within_pairs * 0.05 + between_pairs * 0.001
    sigma = binomial_sigma([(within_pairs, 0.05), (between_pairs, 0.001)])
    g = generate_sbm(cfg)
    assert abs(g.num_edges - mean) <= 4 * sigma
    assert expected_edges(cfg) == pytest.approx(mean)


def test_k_equals_1_collapses_to_uniform_density():
    # p_out is irrelevant at k=1: there are no between-class pairs
    cfg = SbmConfig(n=500, k=1, p_in=0.02, p_out=0.0, seed=3)
    pairs = 500 * 499 // 2
    g = generate_sbm(cfg)
    assert abs(g.num_edges - pairs * 0.02) <= 4 * binomial_sigma([(pairs, 0.02)])


def test_same_seed_bitwise_identical():
    cfg = SbmConfig(n=300, k=3, p_in=0.1, p_out=0.01, seed=9)
    a, b = generate_sbm(cfg), generate_sbm(cfg)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.targets, b.targets)


def test_different_seed_differs():
    a = generate_sbm(SbmConfig(n=300, k=3, p_in=0.1, p_out=0.01, seed=1))
    b = generate_sbm(SbmConfig(n=300, k=3, p_in=0.1, p_out=0.01, seed=2))
    assert not np.array_equal(a.targets, b.targets)


def test_block_densities_converge(subtests=None):
    cfg = SbmConfig(n=2000, k=4, p_in=0.02, p_out=0.002, seed=13)
    g = generate_sbm(cfg)
    bounds = cfg.block_bounds()
    classes = np.searchsorted(bounds, np.arange(cfg.n), side="right") - 1
    u, v = oracles.upper_edges(g)
    same = classes[u] == classes[v]
    within_pairs = sum(
        int(b - a) * (int(b - a) - 1) // 2 for a, b in zip(bounds[:-1], bounds[1:])
    )
    between_pairs = cfg.n * (cfg.n - 1) // 2 - within_pairs
    n_within = int(same.sum())
    n_between = len(u) - n_within
    assert abs(n_within - within_pairs * 0.02) <= 4 * binomial_sigma([(within_pairs, 0.02)])
    assert abs(n_between - between_pairs * 0.002) <= 4 * binomial_sigma([(between_pairs, 0.002)])


def test_generated_graph_satisfies_invariants():
    g = generate_sbm(SbmConfig(n=120, k=5, p_in=0.3, p_out=0.02, seed=2))
    oracles.validate_graph(g)


def test_contiguous_class_assignment():
    cfg = SbmConfig(n=10, k=3, p_in=1.0, p_out=1.0)
    assert [oracles.class_of(cfg, i) for i in range(10)] == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert cfg.block_bounds().tolist() == [0, 4, 7, 10]


def test_disassortative_warns_but_generates():
    with pytest.warns(UserWarning, match="assortative"):
        cfg = SbmConfig(n=50, k=2, p_in=0.01, p_out=0.5, seed=1)
    generate_sbm(cfg)


def test_invalid_configs():
    with pytest.raises(ValidationError):
        SbmConfig(n=0, k=1, p_in=0.1, p_out=0.1)
    with pytest.raises(ValidationError):
        SbmConfig(n=5, k=6, p_in=0.1, p_out=0.1)
    with pytest.raises(ValidationError):
        SbmConfig(n=5, k=2, p_in=1.5, p_out=0.1)


def test_capacity_error_before_generation(monkeypatch):
    # about 1.8e6 expected edges: over the patched budget, under the default
    monkeypatch.setattr(sbm, "MAX_EXPECTED_EDGES", 1e6)
    cfg = SbmConfig(n=2_000, k=1, p_in=0.9, p_out=0.9, seed=0)
    with pytest.raises(CapacityError):
        generate_sbm(cfg)


def test_presets_target_ten_edges_per_node():
    cfg = preset_config("sbm-10k", seed=1)
    assert cfg.n == 10_000
    assert expected_edges(cfg) == pytest.approx(10 * cfg.n, rel=0.01)
    assert cfg.p_in == pytest.approx(10 * cfg.p_out)
    with pytest.raises(ValidationError):
        preset_config("sbm-66k")
