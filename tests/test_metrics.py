import logging
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_graph
from walkembed import cores, metrics
from walkembed.errors import MetricError, ValidationError
from walkembed.graph import from_edges
from walkembed.metrics import (
    MetricsReport,
    SNR_CAP,
    compute_report,
    edge_recall,
    edge_snr,
    UnitTable,
    l2_normalize,
    load_unit_table,
    nearest_rank_percentiles,
    pair_distances,
    read_report,
    sample_non_edges,
    write_report,
)
from walkembed.model import EmbeddingTable, load_checkpoint, save_checkpoint
from walkembed.pipeline import EvalParams, evaluate_checkpoint
from walkembed.sbm import SbmConfig, generate_sbm


def table(rows, dtype=np.float64):
    return EmbeddingTable(np.asarray(rows, dtype=dtype))


def random_unit_table(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return l2_normalize(EmbeddingTable(rng.standard_normal((n, d))))


class TestNormalize:
    def test_three_four_five(self):
        out = l2_normalize(table([[3.0, 4.0]]))
        assert out.values[0].tolist() == [0.6, 0.8]

    def test_idempotent_on_unit_rows(self):
        t = table([[1.0, 0.0], [0.0, -1.0]])
        out = l2_normalize(l2_normalize(t))
        np.testing.assert_allclose(out.values, t.values, atol=1e-12)

    def test_zero_row_passes_through_with_count(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            out = l2_normalize(table([[0.0, 0.0], [1.0, 1.0]]))
        assert out.values[0].tolist() == [0.0, 0.0]
        assert oracles.count_zero_rows(out) == 1
        assert "1 zero rows" in caplog.text

    def test_original_untouched(self):
        t = table([[2.0, 0.0]])
        l2_normalize(t)
        assert t.values[0, 0] == 2.0


class TestEdgeSnr:
    def test_perfect_separation_hits_cap(self):
        # edge endpoints identical (distance 0), non-edge pairs distinct
        g = build_graph([(0, 1)], 3)
        t = table([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert edge_snr(g, t, non_edge_samples=5, rng=np.random.default_rng(0)) == SNR_CAP

    def test_complete_graph_has_no_non_edges(self, two_node):
        with pytest.raises(MetricError):
            sample_non_edges(two_node, 1, np.random.default_rng(0))

    def test_random_unit_vectors_near_one(self):
        g = generate_sbm(SbmConfig(n=400, k=4, p_in=0.1, p_out=0.01, seed=5))
        t = random_unit_table(400, 128, seed=1)
        snr = edge_snr(g, t, non_edge_samples=10_000, rng=np.random.default_rng(2))
        assert 0.95 <= snr <= 1.05

    def test_zero_edges_rejected(self):
        g = build_graph([(0, 1)], 3)
        lonely = generate_sbm(SbmConfig(n=4, k=1, p_in=0.0, p_out=0.0, seed=0))
        with pytest.raises(MetricError):
            edge_snr(lonely, random_unit_table(4, 8))

    def test_sampled_matches_exhaustive_within_3_sigma(self):
        g = generate_sbm(SbmConfig(n=150, k=3, p_in=0.2, p_out=0.05, seed=3))
        t = random_unit_table(150, 16, seed=4)
        exact_non = oracles.exhaustive_non_edge_distances(g, t.values)
        edges = g.edge_array()
        mean_edge = np.mean(
            [math.dist(t.values[u], t.values[v]) for u, v in edges.tolist()]
        )
        samples = 4000
        snr = edge_snr(g, t, non_edge_samples=samples, rng=np.random.default_rng(9))
        sigma = exact_non.std() / math.sqrt(samples) / mean_edge
        assert abs(snr - exact_non.mean() / mean_edge) <= 3 * sigma

    def test_raw_table_scored_as_compute_report_scores_it(self):
        # rows of mixed norms give a different SNR scored as they are
        g = generate_sbm(SbmConfig(n=500, k=4, p_in=0.05, p_out=0.005, seed=1))
        rng = np.random.default_rng(2)
        t = EmbeddingTable(rng.standard_normal((500, 16)) * 10.0 ** rng.uniform(-2, 2, size=(500, 1)))
        seed, samples = 3, 2000
        got = edge_snr(g, t, samples, rng=np.random.default_rng(np.random.SeedSequence((seed, 0xE7))))
        assert got == compute_report(g, t, samples, 20, seed).edge_snr

    def test_non_edge_sampler_rejects_edges_and_self_pairs(self, triangle):
        g = build_graph([(0, 1), (1, 2)], 4)
        u, v = sample_non_edges(g, 500, np.random.default_rng(0))
        assert len(u) == 500
        assert np.all(u != v)
        for a, b in zip(u.tolist(), v.tolist()):
            assert not oracles.has_edge(g, a, b)


class TestPercentiles:
    def test_identical_embeddings_all_zero(self):
        t = table([[0.5, 0.5]] * 4)
        d = pair_distances(t, np.array([0, 1, 2]), np.array([1, 2, 3]))
        assert nearest_rank_percentiles(d).tolist() == [0.0] * 101

    def test_antipodal_single_pair(self):
        t = table([[1.0, 0.0], [-1.0, 0.0]])
        out = nearest_rank_percentiles(pair_distances(t, np.array([0]), np.array([1])))
        assert out.tolist() == [2.0] * 101

    def test_random_unit_median_near_sqrt2(self):
        t = random_unit_table(2000, 128, seed=0)
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, 2000, size=(20_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        out = nearest_rank_percentiles(pair_distances(t, pairs[:, 0], pairs[:, 1]))
        assert abs(out[50] - math.sqrt(2)) < 0.05

    def test_empty_stream_rejected(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValidationError, match="empty sample"):
            nearest_rank_percentiles(pair_distances(random_unit_table(3, 4), empty, empty))

    def test_has_101_entries_and_endpoints(self):
        vals = np.arange(1, 1001, dtype=np.float64)
        out = nearest_rank_percentiles(vals)
        assert len(out) == 101
        assert out[0] == 1.0 and out[100] == 1000.0
        assert out[50] == 500.0  # nearest-rank: ceil(0.5*1000) = 500th value

    @pytest.mark.parametrize("n", [20, 100, 1_000, 10_000])
    def test_rank_is_the_exact_integer_ceiling(self, n):
        # a float ceil(q / 100.0 * n) read 0.07 * 100 as 7.000000000000001 and took rank 8
        out = nearest_rank_percentiles(np.arange(1, n + 1, dtype=np.float64))
        assert out.tolist() == [max(1, -(-q * n // 100)) for q in range(101)]

    @given(st.lists(st.floats(0, 2), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nondecreasing(self, vals):
        out = nearest_rank_percentiles(np.asarray(vals))
        assert np.all(np.diff(out) >= 0)


class TestRecall:
    def test_single_edge_perfect(self, two_node):
        t = table([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]][: two_node.num_nodes])
        out = edge_recall(two_node, t, 2, np.random.default_rng(0))
        assert out.recalls.tolist() == [1.0, 1.0]

    def test_perfect_embedding_by_construction(self):
        # blocks far apart, nodes inside a block nearly identical
        g = build_graph([(0, 1), (2, 3)], 4)
        t = table([[1, 0], [0.99, 0.01], [-1, 0], [-0.99, -0.01]])
        out = edge_recall(g, l2_normalize(t), 4, np.random.default_rng(1))
        assert np.all(out.recalls == 1.0)

    def test_random_embedding_near_zero(self):
        g = generate_sbm(SbmConfig(n=500, k=5, p_in=0.1, p_out=0.01, seed=2))
        t = random_unit_table(500, 64, seed=3)
        out = edge_recall(g, t, 100, np.random.default_rng(4))
        # hypergeometric expectation ~= mean degree / n
        assert out.recalls.mean() < 0.1

    def test_matches_quadratic_reference(self):
        g = generate_sbm(SbmConfig(n=60, k=3, p_in=0.3, p_out=0.05, seed=8))
        t = random_unit_table(60, 8, seed=9)
        out = edge_recall(g, t, 60, np.random.default_rng(10))
        for node, got in zip(out.nodes.tolist(), out.recalls.tolist()):
            assert got == pytest.approx(oracles.recall_reference(g, t.values, node))

    def test_zero_degree_nodes_resampled_and_counted(self):
        g = build_graph([(0, 1)], 5)  # nodes 2..4 isolated
        t = random_unit_table(5, 4)
        out = edge_recall(g, t, 2, np.random.default_rng(0))
        assert set(out.nodes.tolist()) == {0, 1}
        assert out.zero_degree_resamples >= 0
        total = 0
        for seed in range(20):
            total += edge_recall(g, t, 2, np.random.default_rng(seed)).zero_degree_resamples
        assert total > 0  # the isolated nodes do get drawn and skipped

    def test_all_isolated_rejected(self):
        g = generate_sbm(SbmConfig(n=4, k=1, p_in=0.0, p_out=0.0, seed=0))
        with pytest.raises(MetricError):
            edge_recall(g, random_unit_table(4, 4))

    def test_isometry_invariance(self):
        g = generate_sbm(SbmConfig(n=80, k=4, p_in=0.3, p_out=0.02, seed=5))
        t = random_unit_table(80, 16, seed=6)
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((16, 16)))
        rotated = EmbeddingTable(t.values @ q)
        a = edge_recall(g, t, 80, np.random.default_rng(8))
        b = edge_recall(g, rotated, 80, np.random.default_rng(8))
        assert np.array_equal(a.recalls, b.recalls)

    @pytest.mark.parametrize("count", [0, -3])
    def test_fewer_than_one_node_rejected(self, count):
        g = generate_sbm(SbmConfig(n=40, k=2, p_in=0.3, p_out=0.05, seed=1))
        with pytest.raises(ValidationError):
            edge_recall(g, random_unit_table(40, 4), count)

    def test_raw_table_searched_as_its_normalized_rows(self):
        # a mixed-norm table's raw rows once gave another recall
        g = generate_sbm(SbmConfig(n=500, k=4, p_in=0.05, p_out=0.005, seed=1))
        rng = np.random.default_rng(2)
        t = EmbeddingTable(rng.standard_normal((500, 16)) * 10.0 ** rng.uniform(-2, 2, size=(500, 1)))
        raw = edge_recall(g, t, 200, np.random.default_rng(3))
        unit = edge_recall(g, l2_normalize(t), 200, np.random.default_rng(3))
        assert np.array_equal(raw.nodes, unit.nodes)
        assert raw.recalls.tobytes() == unit.recalls.tobytes()

    def test_deterministic_given_seed(self):
        g = generate_sbm(SbmConfig(n=100, k=2, p_in=0.2, p_out=0.05, seed=1))
        t = random_unit_table(100, 8, seed=2)
        a = edge_recall(g, t, 50, np.random.default_rng(3))
        b = edge_recall(g, t, 50, np.random.default_rng(3))
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.recalls, b.recalls)


class TestRecallExactness:
    """The shortlist-and-re-rank search returns exactly the per-node scan's
    nodes and recalls, bit for bit, on tables built to stress its cut."""

    N = 200

    @pytest.fixture(autouse=True, params=["one block", "many blocks"])
    def blocks(self, request, monkeypatch):
        if request.param == "many blocks":
            monkeypatch.setattr(metrics, "_RECALL_ROW_BLOCK", 7)
            monkeypatch.setattr(metrics, "_RECALL_QUERY_GROUP", 3)

    @pytest.fixture(params=[np.float32, np.float64])
    def dtype(self, request):
        return request.param

    @pytest.fixture
    def graph(self):
        return generate_sbm(SbmConfig(n=self.N, k=4, p_in=0.2, p_out=0.02, seed=11))

    def assert_matches_scan(self, g, values):
        t = EmbeddingTable(values)
        got = edge_recall(g, t, self.N, np.random.default_rng(5))
        nodes, recalls = oracles.recall_scan(g, l2_normalize(t).values, self.N, np.random.default_rng(5))
        assert np.array_equal(got.nodes, nodes)
        assert np.array_equal(got.recalls, recalls)

    def test_coarse_values_with_exact_ties(self, graph, dtype):
        rng = np.random.default_rng(0)
        self.assert_matches_scan(graph, rng.integers(-1, 2, size=(self.N, 3)).astype(dtype))
        unit = random_unit_table(self.N, 8, seed=1).values
        self.assert_matches_scan(graph, (np.round(unit * 2) / 2).astype(dtype))

    def test_rows_one_ulp_apart_around_kth_neighbour(self, graph, dtype):
        # clusters of 8 rows that differ by one ulp in one coordinate: with
        # degrees near 10, the k-th neighbour falls inside the second cluster
        rng = np.random.default_rng(2)
        base = random_unit_table(self.N // 8, 16, seed=3).values.astype(dtype)
        values = base[np.arange(self.N) % len(base)]
        col = rng.integers(0, 16, size=self.N)
        rows = np.arange(self.N)
        step = rng.choice([-np.inf, np.inf], size=self.N).astype(dtype)
        nudge = rng.random(self.N) < 0.7
        values[rows[nudge], col[nudge]] = np.nextafter(values[rows[nudge], col[nudge]], step[nudge])
        self.assert_matches_scan(graph, values)

    def test_zero_rows_in_unnormalized_table(self, graph, dtype):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((self.N, 8)) * 10.0 ** rng.uniform(-3, 3, size=(self.N, 1))
        values[rng.choice(self.N, size=20, replace=False)] = 0.0
        self.assert_matches_scan(graph, values.astype(dtype))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row(self, graph, dtype, bad):
        values = random_unit_table(self.N, 8, seed=6).values.astype(dtype)
        values[[150, 40]] = bad
        with pytest.raises(ValidationError, match="^embedding row 40 is not finite"):
            edge_recall(graph, EmbeddingTable(values), self.N, np.random.default_rng(5))

    def test_rows_too_long_for_the_product(self, graph, dtype):
        # finite rows whose norm overflows the dtype are named; rows whose
        # squared norm is above max / 16, once named too, are normalized
        # before the product and searched exactly
        fin = np.finfo(dtype)
        values = random_unit_table(self.N, 8, seed=6).values.astype(dtype)
        values[[150, 40]] = np.sqrt(fin.max)
        with pytest.raises(ValidationError, match="^embedding row 40 is not finite or its norm overflows"):
            edge_recall(graph, EmbeddingTable(values), self.N, np.random.default_rng(5))
        values[[150, 40]] = np.sqrt(fin.max) / 4 * np.array([[1], [0.5]], dtype=dtype)
        assert np.max(np.einsum("ij,ij->i", values, values)) > fin.max / 16
        self.assert_matches_scan(graph, values)


def test_pair_distances_blocked_equals_unblocked_bitwise(monkeypatch):
    rng = np.random.default_rng(0)
    block = metrics._PAIR_BLOCK
    before = threading.active_count()
    for cpus in (1, 2):
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        for dtype in (np.float32, np.float64):
            values = rng.standard_normal((300, 128)).astype(dtype)
            for m in (0, 1, block - 1, block, block + 1, 2 * block + 1):
                u = rng.integers(0, 300, size=m)
                v = rng.integers(0, 300, size=m)
                got = pair_distances(EmbeddingTable(values), u, v)
                want = np.linalg.norm(values[u] - values[v], axis=1)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert threading.active_count() == before


class TestBlocksOnTwoThreads:
    """l2_normalize gives the unblocked result bit for bit, and compute_report
    the same bytes, on one thread and on two; a failure leaves no thread."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_l2_normalize_equal_unblocked_with_exact_zero_count(self, cpus, dtype, monkeypatch, caplog):
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 16)
        rng = np.random.default_rng(1)
        values = (rng.standard_normal((200, 8)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))).astype(dtype)
        values[::9] = 0.0  # zero rows in every block
        zero_by_thread = {}
        both_hold_a_block = threading.Barrier(cpus, timeout=30)
        real = metrics._normalize_rows

        def spy(*args):
            ident = threading.get_ident()
            if ident not in zero_by_thread:
                zero_by_thread[ident] = 0
                both_hold_a_block.wait()
            zeros = real(*args)
            zero_by_thread[ident] += zeros
            return zeros

        monkeypatch.setattr(metrics, "_normalize_rows", spy)
        with caplog.at_level(logging.WARNING):
            got = l2_normalize(EmbeddingTable(values)).values
        norms = np.linalg.norm(values, axis=1, keepdims=True)
        want = values / np.where(norms == 0.0, 1.0, norms)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        assert len(zero_by_thread) == cpus and all(zero_by_thread.values())
        assert sum(zero_by_thread.values()) == oracles.count_zero_rows(EmbeddingTable(values)) == 23
        warnings = [r.getMessage() for r in caplog.records if "zero rows" in r.getMessage()]
        assert warnings == ["l2_normalize: 23 zero rows left unnormalized"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_report_bytes_equal_on_one_and_two_cpus(self, dtype, blocks, monkeypatch):
        if blocks == "small":
            monkeypatch.setattr(metrics, "_PAIR_BLOCK", 32)
        g = generate_sbm(SbmConfig(n=1000, k=4, p_in=0.08, p_out=0.004, seed=7))
        assert g.num_edges > 2 * metrics._PAIR_BLOCK
        t = EmbeddingTable(np.random.default_rng(8).standard_normal((1000, 16)).astype(dtype))
        before = threading.active_count()
        texts = []
        for n in (1, 2):
            monkeypatch.setattr(cores, "usable_cpus", lambda: n)
            texts.append(compute_report(g, t, non_edge_samples=3000, recall_nodes=20, seed=4).to_json())
            assert threading.active_count() == before
        assert texts[0] == texts[1]

    def test_bad_id_in_helper_block_raises_after_both_threads(self, monkeypatch):
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 4)
        caller = threading.current_thread()
        caller_started, helper_started = threading.Event(), threading.Event()
        caller_done = []
        real_distances, real_share = metrics._distances, cores.share

        def spy(values, pairs, starts):
            def block_pairs(start):
                u, v = pairs(start)
                if threading.current_thread() is caller:
                    caller_started.set()
                    assert helper_started.wait(timeout=30)
                    time.sleep(0.05)  # still running when the helper raises
                    return u, v
                helper_started.set()
                assert caller_started.wait(timeout=30)  # each thread holds a block
                bad = u.copy()
                bad[0] = len(values)
                return bad, v

            return real_distances(values, block_pairs, starts)

        def share(pool, fn, items):
            def block(start):
                out = fn(start)
                if threading.current_thread() is caller:
                    caller_done.append(start)
                return out

            return real_share(pool, block, items)

        t = random_unit_table(10, 4)
        monkeypatch.setattr(metrics, "_distances", spy)
        monkeypatch.setattr(cores, "share", share)
        ids = np.arange(40) % 10
        before = threading.active_count()
        with pytest.raises(IndexError):
            pair_distances(t, ids, ids[::-1].copy())
        assert len(caller_done) == 1  # its block finished, and it took no other
        assert threading.active_count() == before


class TestPairLengths:
    def test_longer_v_rejected(self):
        t = random_unit_table(10, 4)
        with pytest.raises(ValidationError, match="3 u ids but 4 v ids"):
            pair_distances(t, np.arange(3), np.arange(4))

    def test_one_element_v_not_broadcast(self):
        t = random_unit_table(10, 4)
        with pytest.raises(ValidationError):
            pair_distances(t, np.arange(5), np.array([7]))

    def test_distance_percentiles_unaffected(self):
        t = random_unit_table(50, 4)
        pairs = np.random.default_rng(3).integers(0, 50, size=(777, 2))
        want = np.linalg.norm(t.values[pairs[:, 0]] - t.values[pairs[:, 1]], axis=1)
        got = nearest_rank_percentiles(pair_distances(t, pairs[:, 0], pairs[:, 1]))
        assert np.array_equal(got, nearest_rank_percentiles(want))


class TestPairIds:
    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("side", ["u", "v"])
    def test_id_outside_the_table_rejected_before_any_block(self, monkeypatch, side, bad):
        # -1 once wrapped to the last row: the pair (0, -1) on np.eye(3)
        # gave sqrt(2), row 0 against row 2
        blocks = []
        real = metrics._distances
        monkeypatch.setattr(metrics, "_distances", lambda *args: blocks.append(args[-1]) or real(*args))
        t = EmbeddingTable(np.eye(3))
        good, wrong = np.array([0, 1]), np.array([1, bad])
        u, v = (wrong, good) if side == "u" else (good, wrong)
        with pytest.raises(IndexError, match=f"node id {bad} out of range \\[0, 3\\)"):
            pair_distances(t, u, v)
        assert blocks == []
        assert pair_distances(t, good, good[::-1].copy()).tolist() == [math.sqrt(2)] * 2


class TestBadRows:
    """A row that is not finite, or whose norm overflows, is named before any
    distance is taken, so no report holds a NaN."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 3e38])
    def test_compute_report_names_the_first_bad_row(self, bad):
        g = generate_sbm(SbmConfig(n=120, k=3, p_in=0.3, p_out=0.05, seed=1))
        values = np.random.default_rng(2).standard_normal((120, 16)).astype(np.float32)
        values[[90, 7]] = bad
        with pytest.raises(ValidationError, match="^embedding row 7 is not finite or its norm overflows$"):
            compute_report(g, EmbeddingTable(values), non_edge_samples=100, recall_nodes=10, seed=3)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_l2_normalize_names_the_first_bad_row_of_any_block(self, monkeypatch, cpus):
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 4)
        values = np.ones((40, 3))
        values[[38, 33, 9]] = [np.inf, np.nan, 1e200]  # 1e200 squared overflows float64
        for _ in range(20):
            with pytest.raises(ValidationError, match="^embedding row 9 is not finite"):
                l2_normalize(EmbeddingTable(values))


def test_compute_report_memory_bounded_by_blocks():
    # 20k nodes, ~200k edges, D = 64, float32. Under tracemalloc the blocked
    # normalization, pair distances and recall search peaked at 14.8 MiB, on
    # one thread and on two (16.8 MiB with 16 384-pair blocks on one
    # thread); gathering both endpoint arrays for every edge and one full
    # difference array per recall node peaked at 107 MiB.
    rng = np.random.default_rng(0)
    g = from_edges(rng.integers(0, 20_000, size=(200_000, 2)), 20_000)
    t = EmbeddingTable(rng.standard_normal((20_000, 64)).astype(np.float32))
    tracemalloc.start()
    try:
        compute_report(g, t, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


class TestReport:
    def make_report(self):
        g = generate_sbm(SbmConfig(n=120, k=3, p_in=0.3, p_out=0.05, seed=1))
        t = random_unit_table(120, 16, seed=2)
        return compute_report(g, t, non_edge_samples=1000, recall_nodes=40, seed=3)

    def test_round_trip(self, tmp_path):
        report = self.make_report()
        path = write_report(report, tmp_path)
        assert read_report(path) == report

    def test_percentile_csvs_have_101_rows(self, tmp_path):
        write_report(self.make_report(), tmp_path, label="run1")
        for name in ("edge_distance.csv", "non_edge_distance.csv", "recall.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "Quantiles,run1"
            assert len(lines) == 102

    def test_snr_full_precision(self, tmp_path):
        report = self.make_report()
        report.edge_snr = 1.2345678901234567
        write_report(report, tmp_path)
        assert read_report(tmp_path / "report.json").edge_snr == 1.2345678901234567

    def test_report_fields_and_invariants(self):
        report = self.make_report()
        assert report.edge_snr > 0
        for vec in (
            report.edge_distance_percentiles,
            report.non_edge_distance_percentiles,
            report.recall_percentiles,
        ):
            assert len(vec) == 101
            assert all(b >= a for a, b in zip(vec, vec[1:]))
        assert all(0 <= d <= 2.0 + 1e-9 for d in report.edge_distance_percentiles)
        assert all(0 <= r <= 1 for r in report.recall_percentiles)

    def test_deterministic_given_seed(self):
        assert self.make_report() == self.make_report()


def hub_graph():
    """60 nodes: 0-5 and 56-58 isolated, hub 7 joined to 10-55, 300 random
    edges among 10-55, and the largest id, 59, joined to 8, 20 and 33."""
    edges = [(7, v) for v in range(10, 56)] + [(59, 8), (59, 20), (59, 33)]
    return from_edges(np.concatenate([edges, np.random.default_rng(11).integers(10, 56, size=(300, 2))]), 60)


class TestEdgePassAndNonEdges:
    """The edge distances and the non-edge samples equal the whole-graph
    oracles bit for bit, with blocks that cut rows and a hub row wider than
    a block, on one thread and on two."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("pair_block", [3, None])
    def test_equal_to_oracles(self, monkeypatch, pair_block, cpus, dtype):
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        if pair_block:
            monkeypatch.setattr(metrics, "_PAIR_BLOCK", pair_block)
        g = hub_graph()
        width = metrics._PAIR_BLOCK
        if pair_block:
            cuts = np.arange(width, len(g.targets), width)
            assert np.any((g.offsets[:-1, None] < cuts) & (cuts < g.offsets[1:, None]))  # a block cuts a row
            assert g.degree(7) > width
        assert g.degrees[[0, 5, 56, 58]].tolist() == [0] * 4 and g.degree(59) == 3
        values = np.random.default_rng(12).standard_normal((60, 16)).astype(dtype)
        got = metrics.edge_distances(g, EmbeddingTable(values))
        want = oracles.edge_distances_reference(g, values)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        got = sample_non_edges(g, 5000, np.random.default_rng(13))
        want = oracles.sample_non_edges_reference(g, 5000, np.random.default_rng(13))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("pair_block", [3, 64])
    def test_no_block_gathers_more_than_pair_block(self, monkeypatch, pair_block):
        # edge blocks of _PAIR_BLOCK target positions keep at most as many
        # pairs; the sampled non-edges fill whole blocks
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", pair_block)
        sizes, real = [], metrics._distances

        def spy(values, pairs, starts):
            def counted(start):
                u, v = pairs(start)
                sizes.append(len(u))
                return u, v

            return real(values, counted, starts)

        monkeypatch.setattr(metrics, "_distances", spy)
        compute_report(hub_graph(), random_unit_table(60, 8), non_edge_samples=500, recall_nodes=5, seed=1)
        assert max(sizes) == pair_block

    def test_is_edge_on_every_pair(self):
        for g in (hub_graph(), build_graph([(0, 1)], 3), from_edges(np.empty((0, 2)), 4)):
            u, v = (a.ravel() for a in np.indices((g.num_nodes, g.num_nodes)))
            want = [oracles.has_edge(g, a, b) for a, b in zip(u, v)]
            assert metrics._is_edge(g, u, v).tolist() == want

    def test_edge_distances_need_a_row_per_node(self):
        with pytest.raises(ValidationError, match="^embedding has 59 rows, graph has 60 nodes$"):
            metrics.edge_distances(hub_graph(), random_unit_table(59, 4))

    @pytest.mark.parametrize("rows", [50, 560])
    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("metric", [edge_recall, edge_snr, compute_report, metrics.edge_distances])
    def test_every_metric_needs_a_row_per_node(self, metric, unit, rows):
        # 560 rows once gave a recall, an SNR and every edge distance for a
        # 60-node graph, 50 rows a recall or an IndexError
        t = random_unit_table(rows, 4)
        with pytest.raises(ValidationError, match=f"^embedding has {rows} rows, graph has 60 nodes$"):
            metric(hub_graph(), t if unit else EmbeddingTable(t.values))


class TestUnitTables:
    """A checkpoint normalized in place after its read equals l2_normalize of
    the loaded table, and compute_report normalizes a table once."""

    def write_checkpoint(self, path, values):
        save_checkpoint(path, EmbeddingTable(values), 3)
        return path

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_load_unit_table_equals_l2_normalize_of_load(self, tmp_path, monkeypatch, caplog, cpus):
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 16)
        rng = np.random.default_rng(1)
        values = (rng.standard_normal((200, 8)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))).astype(np.float32)
        values[::9] = 0.0
        p = self.write_checkpoint(tmp_path / "c.bin", values)
        with caplog.at_level(logging.WARNING):
            want = l2_normalize(load_checkpoint(p)[0])
            got = load_unit_table(p)
        assert type(got) is type(want) is UnitTable
        assert got.values.dtype == want.values.dtype == np.float32
        assert np.array_equal(got.values.view(np.uint8), want.values.view(np.uint8))
        assert not got.values.flags.writeable
        assert [r.getMessage() for r in caplog.records] == ["l2_normalize: 23 zero rows left unnormalized"] * 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bad_files_keep_their_messages(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 4)
        values = np.ones((40, 3), dtype=np.float32)
        values[[38, 33, 9]] = [np.inf, np.nan, 3e38]
        p = self.write_checkpoint(tmp_path / "c.bin", values)
        cases = [(p, "embedding row 9 is not finite or its norm overflows")]
        data = p.read_bytes()
        for name, cut, message in [
            ("magic.bin", b"WEEMB02\n" + data[8:], "{} is not an embedding checkpoint"),
            ("head.bin", data[:20], "{}: truncated header"),
            ("short.bin", data[:-4], "{}: %d bytes, but its header implies %d" % (len(data) - 4, len(data))),
        ]:
            (tmp_path / name).write_bytes(cut)
            cases.append((tmp_path / name, message.format(tmp_path / name)))
        for path, message in cases:
            for load in (load_unit_table, lambda path: l2_normalize(load_checkpoint(path)[0])):
                with pytest.raises(ValidationError) as info:
                    load(path)
                assert str(info.value) == message

    def test_evaluate_checkpoint_writes_the_report_of_the_loaded_table(self, tmp_path):
        g = generate_sbm(SbmConfig(n=300, k=3, p_in=0.1, p_out=0.01, seed=2))
        values = np.random.default_rng(3).standard_normal((300, 16)).astype(np.float32)
        p = self.write_checkpoint(tmp_path / "c.bin", values)
        params = EvalParams(non_edge_samples=2000, recall_nodes=30)
        evaluate_checkpoint(g, p, tmp_path / "got", params, seed=5)
        write_report(compute_report(g, load_checkpoint(p)[0], 2000, 30, 5), tmp_path / "want")
        for name in ("report.json", *metrics.PERCENTILE_CSVS.values()):
            assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    def test_evaluate_checkpoint_reads_through_load_checkpoint(self, tmp_path, monkeypatch):
        # eval has one checkpoint reader, looked up when called, so a tracer wrapping it sees the read
        g = generate_sbm(SbmConfig(n=300, k=3, p_in=0.1, p_out=0.01, seed=2))
        p = self.write_checkpoint(tmp_path / "c.bin", np.random.default_rng(3).standard_normal((300, 16)))
        calls = []
        monkeypatch.setattr(metrics, "load_checkpoint", lambda path: calls.append(path) or load_checkpoint(path))
        evaluate_checkpoint(g, p, tmp_path / "eval", EvalParams(non_edge_samples=500, recall_nodes=10), seed=5)
        assert calls == [p]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_report_of_a_normalized_table_is_the_report_of_the_table(self, dtype):
        g = generate_sbm(SbmConfig(n=300, k=3, p_in=0.1, p_out=0.01, seed=2))
        t = EmbeddingTable(np.random.default_rng(4).standard_normal((300, 16)).astype(dtype))
        want = compute_report(g, t, 2000, 30, 6).to_json()
        assert compute_report(g, l2_normalize(t), 2000, 30, 6).to_json() == want

    def test_evaluate_checkpoint_memory_is_one_table_and_blocks(self, tmp_path):
        # 20k nodes, ~200k edges, D = 128, float32: a 9.8 MiB table. Under
        # tracemalloc, eval beyond the graph peaked at 18.5 MiB on two
        # threads (the table, two threads' pair blocks of 4 MiB and the
        # edge distances) and 17.4 MiB on one (the recall search's 4 MiB
        # product); holding the raw table, its normalized copy, the edge
        # array and the edge keys peaked at 31.4 MiB.
        rng = np.random.default_rng(0)
        g = from_edges(rng.integers(0, 20_000, size=(200_000, 2)), 20_000)
        values = rng.standard_normal((20_000, 128)).astype(np.float32)
        p = self.write_checkpoint(tmp_path / "c.bin", values)
        del values
        tracemalloc.start()
        try:
            evaluate_checkpoint(g, p, tmp_path / "eval", EvalParams(), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000 * 128 * 4 + 12 * 2**20
