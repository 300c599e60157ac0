import json
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_graph
from walkembed import cores, sampler
from walkembed.errors import EmptyGraphError, ValidationError
from walkembed.graph import from_edges
from walkembed.model import FixedSgd
from walkembed.rng import HashStream, splitmix64
from walkembed.sampler import SamplerConfig, _combine_visits, init_walks, run_sampling, step_walks
from walkembed.sbm import SbmConfig, generate_sbm
from walkembed.shards import load_all_records, record_array, write_shard
from walkembed.trainer import TrainConfig, train_sync


def records_by_pair(rec):
    return {
        (int(s), int(d)): c.tolist()
        for s, d, c in zip(rec["source"], rec["dest"], rec["counts"])
    }


def sample_to_dict(g, cfg, tmp_path, name="rec"):
    out = tmp_path / name
    stats = run_sampling(g, cfg, out)
    rec, manifest = load_all_records(out)
    return records_by_pair(rec), stats, manifest


class TestInitWalks:
    def test_triangle_two_each(self, triangle):
        walks = init_walks(triangle, SamplerConfig(walks_per_node=2))
        assert len(walks) == 6
        assert np.bincount(walks.walk_id // 2).tolist() == [2, 2, 2]
        assert np.array_equal(walks.walk_id // 2, walks.current_node)
        assert walks.step == 0

    def test_ids_are_seed_major(self):
        g = build_graph([(i, (i + 1) % 9) for i in range(9)], 9)
        seeds, w = np.array([7, 2, 5]), 4
        walks = init_walks(g, SamplerConfig(walks_per_node=w), seeds)
        want = [seed * w + replica for seed in seeds for replica in range(w)]
        assert walks.walk_id.dtype == np.int64 and walks.walk_id.tolist() == want
        assert walks.current_node.tolist() == np.repeat(seeds, w).tolist()

    def test_isolated_node_still_seeded(self):
        g = from_edges(np.empty((0, 2), dtype=np.int64), 1)
        walks = init_walks(g, SamplerConfig(walks_per_node=128))
        assert len(walks) == 128

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            init_walks(
                from_edges(np.empty((0, 2)), 1).__class__(
                    0, 0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
                ),
                SamplerConfig(),
            )


class TestStepWalks:
    def test_degree_one_forced_move(self, two_node):
        cfg = SamplerConfig(walks_per_node=8, walk_length=3, seed=1)
        walks = init_walks(two_node, cfg)
        walks = step_walks(two_node, walks, cfg, HashStream(cfg.seed))
        assert walks.step == 1
        assert np.array_equal(walks.current_node, 1 - walks.walk_id // cfg.walks_per_node)

    def test_uniform_branch_split(self, triangle):
        # 100k walks from node 0, one step: moves to 1 or 2 with p=1/2
        trials = 100_000
        cfg = SamplerConfig(walks_per_node=trials, walk_length=1, seed=3)
        g = triangle
        walks = init_walks(g, cfg, np.array([0]))
        walks = step_walks(g, walks, cfg, HashStream(cfg.seed))
        ones = int(np.sum(walks.current_node == 1))
        assert oracles.within_binomial(ones, trials, 0.5)

    def test_dead_end_terminates(self):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        cfg = SamplerConfig(walks_per_node=4, walk_length=2, seed=0)
        walks = init_walks(g, cfg)
        walks = step_walks(g, walks, cfg, HashStream(0))
        assert len(walks) == 8  # the 4 walks at node 2 are gone
        assert not np.any(walks.walk_id // cfg.walks_per_node == 2)

    def test_all_walks_die_then_stay_empty(self):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        cfg = SamplerConfig(walks_per_node=4, walk_length=3, seed=0)
        walks = init_walks(g, cfg, np.array([2]))
        for step in (1, 2):
            walks = step_walks(g, walks, cfg, HashStream(0))
            assert len(walks) == 0 and len(walks.current_node) == 0
            assert walks.step == step

    def test_step_bytes_per_walk(self):
        # One step over 750 seeds x 128 walks of this graph, under
        # tracemalloc: (seed, replica) columns rebuilt into a stream id each
        # round, and a draw that copied its array at every mixing stage,
        # peaked at 65 bytes per walk. The walk id as the one id column, with
        # the draw mixed and reduced in place, peaks at 41.
        g = generate_sbm(SbmConfig(n=1500, k=3, p_in=0.03, p_out=0.003, seed=4))
        cfg = SamplerConfig(walks_per_node=128, walk_length=3)
        walks = init_walks(g, cfg, np.arange(750))
        tracemalloc.start()
        try:
            walks = step_walks(g, walks, cfg, HashStream(cfg.seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(walks) == 750 * 128
        assert peak < 56 * len(walks)


class TestRunSampling:
    def test_two_node_exact_histograms(self, two_node, tmp_path):
        # the single possible trajectory alternates endpoints
        cfg = SamplerConfig(walks_per_node=4, walk_length=3, seed=7)
        recs, stats, _ = sample_to_dict(two_node, cfg, tmp_path)
        assert recs[(0, 1)] == [4, 0, 4]
        assert recs[(0, 0)] == [0, 4, 0]
        assert recs[(1, 0)] == [4, 0, 4]
        assert recs[(1, 1)] == [0, 4, 0]
        assert stats.dead_end_terminations == 0
        assert stats.co_count_total == 2 * 4 * 3

    def test_triangle_one_step_split(self, triangle, tmp_path):
        gamma = 10_000
        cfg = SamplerConfig(walks_per_node=gamma, walk_length=1, seed=5)
        recs, _, _ = sample_to_dict(triangle, cfg, tmp_path)
        for u in range(3):
            for v in range(3):
                if u == v:
                    assert (u, v) not in recs
                else:
                    assert oracles.within_binomial(recs[(u, v)][0], gamma, 0.5)

    def test_conservation_without_dead_ends(self, triangle, tmp_path):
        cfg = SamplerConfig(walks_per_node=16, walk_length=3, seed=2)
        recs, stats, _ = sample_to_dict(triangle, cfg, tmp_path)
        per_source = {u: 0 for u in range(3)}
        for (u, _), counts in recs.items():
            per_source[u] += sum(counts)
        assert all(total == 16 * 3 for total in per_source.values())
        assert stats.num_records == len(recs)

    def test_distance_one_slot_only_neighbors(self, tmp_path):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], 4)
        cfg = SamplerConfig(walks_per_node=64, walk_length=3, seed=11)
        recs, _, _ = sample_to_dict(g, cfg, tmp_path)
        for (u, v), counts in recs.items():
            if counts[0] > 0:
                assert oracles.has_edge(g, u, v)

    def test_matches_enumeration_oracle(self, tmp_path):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 0)], 5)
        gamma = 10_000
        cfg = SamplerConfig(walks_per_node=gamma, walk_length=3, seed=13)
        recs, _, _ = sample_to_dict(g, cfg, tmp_path)
        prob = oracles.visit_probabilities(g, 3)
        for u in range(g.num_nodes):
            for v in range(g.num_nodes):
                counts = recs.get((u, v), [0, 0, 0])
                for d in range(3):
                    assert oracles.within_binomial(counts[d], gamma, prob[u, d, v]), (
                        u,
                        v,
                        d,
                    )

    def test_deterministic_across_partitions_and_bytes(self, tmp_path, monkeypatch):
        g = build_graph([(i, (i + 1) % 20) for i in range(20)] + [(0, 10)], 20)
        cfg = SamplerConfig(walks_per_node=8, walk_length=3, seed=21, num_shards=3)
        monkeypatch.setattr(sampler, "PARTITION_NODES", 7)
        run_sampling(g, cfg, tmp_path / "a")
        monkeypatch.setattr(sampler, "PARTITION_NODES", 3)
        run_sampling(g, cfg, tmp_path / "b")
        for s in range(3):
            fa = tmp_path / "a" / f"records-{s:05d}-of-00003.bin"
            fb = tmp_path / "b" / f"records-{s:05d}-of-00003.bin"
            assert fa.read_bytes() == fb.read_bytes()

    def test_shards_sorted_by_source_then_dest(self, tmp_path, monkeypatch):
        n = 40
        g = build_graph([(i, (i + 1) % n) for i in range(n)] + [(i, (i + 7) % n) for i in range(0, n, 3)], n)
        cfg = SamplerConfig(walks_per_node=8, walk_length=3, seed=5, num_shards=3)
        monkeypatch.setattr(sampler, "PARTITION_NODES", 6)
        run_sampling(g, cfg, tmp_path)
        for s in range(3):
            rec = oracles.read_shard(tmp_path / f"records-{s:05d}-of-00003.bin", 3)
            assert len(rec) > 0
            key = rec["source"] * n + rec["dest"]
            assert np.all(np.diff(key) > 0)

    def test_sharding_partitions_by_source(self, tmp_path, triangle):
        cfg = SamplerConfig(walks_per_node=8, walk_length=2, seed=1, num_shards=4)
        out = tmp_path / "rec"
        run_sampling(triangle, cfg, out)
        seen_sources = {}
        for s in range(4):
            rec = oracles.read_shard(out / f"records-{s:05d}-of-00004.bin", 2)
            for u in set(rec["source"].tolist()):
                assert seen_sources.setdefault(u, s) == s

    def test_manifest_contents(self, tmp_path, triangle):
        cfg = SamplerConfig(walks_per_node=8, walk_length=2, seed=1, num_shards=2)
        _, stats, manifest = sample_to_dict(triangle, cfg, tmp_path)
        assert manifest["config"]["walks_per_node"] == 8
        assert manifest["graph_hash"] == triangle.content_hash()
        assert manifest["record_counts"] == stats.shard_record_counts
        assert manifest["stats"]["total_walks"] == 24

    def test_walk_length_zero_is_config_error(self):
        with pytest.raises(ValidationError):
            SamplerConfig(walk_length=0)

    def test_dead_end_stats_counted(self, tmp_path):
        g = build_graph([(0, 1)], 3)  # node 2 isolated
        cfg = SamplerConfig(walks_per_node=5, walk_length=2, seed=1)
        _, stats, _ = sample_to_dict(g, cfg, tmp_path)
        assert stats.dead_end_terminations == 5
        assert stats.total_walks == 15


def ring_with_isolated_nodes():
    # 12 nodes: walks from the isolated nodes 5 and 11 end at once, and at
    # 20 shards some shards hold no record
    return build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 4)], 12)


@pytest.mark.parametrize("partition_nodes", [1, 2, None])
@pytest.mark.parametrize("num_shards", [1, 3, 8, 20])
def test_shards_match_whole_set_reference(tmp_path, monkeypatch, num_shards, partition_nodes):
    g = ring_with_isolated_nodes()
    cfg = SamplerConfig(walks_per_node=6, walk_length=3, seed=13, num_shards=num_shards)
    if partition_nodes is not None:
        monkeypatch.setattr(sampler, "PARTITION_NODES", partition_nodes)
    run_sampling(g, cfg, tmp_path / "got")
    oracles.run_sampling_reference(g, cfg, tmp_path / "want", sampler.PARTITION_NODES)
    names = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == names
    for name in names:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name
    manifest = json.loads((tmp_path / "got" / "manifest.json").read_text())
    assert manifest["stats"]["dead_end_terminations"] == 2 * 6
    assert num_shards < 20 or 0 in manifest["record_counts"]


def test_run_sampling_memory_bounded_by_shard(tmp_path, monkeypatch):
    # Under tracemalloc, concatenating every partition's records and masking
    # the whole set once per shard peaked at 2.36x the shard bytes written;
    # sampling one shard at a time peaks at 0.35x.
    g = generate_sbm(SbmConfig(n=4000, k=4, p_in=0.02, p_out=0.002, seed=1))
    cfg = SamplerConfig(walks_per_node=16, walk_length=3, num_shards=8)
    monkeypatch.setattr(sampler, "PARTITION_NODES", 1000)
    tracemalloc.start()
    try:
        run_sampling(g, cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    written = sum(p.stat().st_size for p in tmp_path.glob("records-*.bin"))
    assert peak < written


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_sampling_memory_below_one_shard(tmp_path, monkeypatch, cpus):
    # Holding each shard whole until its one write peaked at about 0.35x
    # all shards' bytes, near 3x the smallest shard's. Appending each id
    # range's records as they are sampled bounds the peak by the range, here
    # 125 ids, half of PARTITION_NODES: 0.16x the smallest shard on one
    # thread and 0.27x split over two. (The manifest's graph hash no longer
    # copies the adjacency, which alone took 0.96x.)
    monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
    g = generate_sbm(SbmConfig(n=4000, k=4, p_in=0.02, p_out=0.002, seed=1))
    cfg = SamplerConfig(walks_per_node=16, walk_length=3, num_shards=8)
    monkeypatch.setattr(sampler, "PARTITION_NODES", 250)
    tracemalloc.start()
    try:
        run_sampling(g, cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(p.stat().st_size for p in tmp_path.glob("records-*.bin"))


def test_run_sampling_bytes_per_visit(monkeypatch):
    # 576k visits: columns of (seed, dest, distance) per visit and their
    # concatenated copies peaked at 103 bytes per visit here, in one range
    # of 1 500 seeds; one packed key per visit, combined with each temporary
    # freed once used, peaked at 45. Ranges are now half of min(1 500,
    # PARTITION_NODES) wide, and two of 750 seeds peak at 31.
    monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
    g = generate_sbm(SbmConfig(n=1500, k=3, p_in=0.03, p_out=0.003, seed=4))
    cfg = SamplerConfig(walks_per_node=128, walk_length=3, num_shards=1)
    with tempfile.TemporaryDirectory() as out:
        tracemalloc.start()
        try:
            stats = run_sampling(g, cfg, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert stats.dead_end_terminations == 0 and stats.co_count_total == g.num_nodes * 128 * 3
    assert peak < 50 * stats.co_count_total


def packed(seeds, dests, dists, num_nodes, walk_length):
    """Visits as _combine_visits takes them: keys relative to the smallest seed, and that seed."""
    seeds, dests, dists = (np.asarray(a, dtype=np.int64) for a in (seeds, dests, dists))
    base = int(seeds.min())
    return ((seeds - base) * num_nodes + dests) * walk_length + (dists - 1), base


def test_combine_visits_matches_unique_reference():
    rng = np.random.default_rng(5)
    for n, visits, walk_length in [(1, 1, 1), (7, 50, 3), (40, 5000, 3), (300, 20_000, 5)]:
        seeds = rng.integers(n // 2, n, visits)
        dests = rng.integers(0, n, visits)
        dists = rng.integers(1, walk_length + 1, visits)
        got = _combine_visits(*packed(seeds, dests, dists, n, walk_length), n, walk_length)
        want = oracles.combine_visits_reference(seeds, dests, dists, n, walk_length)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), n


def test_combine_visits_does_not_wrap_large_ids():
    rec = _combine_visits(*packed([2**31 - 1], [2**31 - 2], [1], 2**31, 3), 2**31, 3)
    assert rec["source"].tolist() == [2**31 - 1]
    assert rec["dest"].tolist() == [2**31 - 2]
    assert rec["counts"].tolist() == [[1, 0, 0]]


small_graphs = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12
).filter(lambda ps: any(a != b for a, b in ps))


@given(small_graphs, st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_property_conservation_and_neighbor_slot(tmp_path_factory, pairs, walk_length):
    g = from_edges(np.asarray(pairs), 6)
    gamma = 50
    cfg = SamplerConfig(walks_per_node=gamma, walk_length=walk_length, seed=3)
    out = tmp_path_factory.mktemp("prop")
    stats = run_sampling(g, cfg, out)
    rec, _ = load_all_records(out)
    # conservation holds for sources whose reachable set has no dead end
    deg = g.degrees
    per_source = np.zeros(g.num_nodes, dtype=np.int64)
    np.add.at(per_source, rec["source"], rec["counts"].sum(axis=1))
    if np.all(deg > 0):
        assert np.all(per_source == gamma * walk_length)
    for s, d, c in zip(rec["source"], rec["dest"], rec["counts"]):
        assert c.sum() > 0
        if c[0] > 0:
            assert oracles.has_edge(g, int(s), int(d))
    assert stats.co_count_total == int(per_source.sum())


def test_truncated_shard_rejected(tmp_path, triangle):
    cfg = SamplerConfig(walks_per_node=8, walk_length=2, seed=1, num_shards=2)
    stats = run_sampling(triangle, cfg, tmp_path)
    shard = tmp_path / "records-00000-of-00002.bin"
    size = 20 + 8 * cfg.walk_length
    assert stats.shard_record_counts[0] > 1
    shard.write_bytes(shard.read_bytes()[:size])  # cut at a record boundary
    with pytest.raises(ValidationError, match=f"{shard}: 1 records, but the manifest lists"):
        load_all_records(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for counts, msg in [(None, "no record_counts"), ([1, 1, 1], "3 record_counts for 2 shard_files")]:
        if counts is None:
            del manifest["record_counts"]
        else:
            manifest["record_counts"] = counts
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match=f"manifest.json: {msg}"):
            load_all_records(tmp_path)


def test_shard_listed_twice_rejected(tmp_path, triangle):
    # a manifest naming shard 0 twice once loaded shard 0's records twice and dropped shard 1's
    run_sampling(triangle, SamplerConfig(walks_per_node=8, walk_length=2, seed=1, num_shards=2), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["shard_files"] = [manifest["shard_files"][0]] * 2
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    message = "manifest.json: shard_files lists 'records-00000-of-00002.bin' more than once"
    with pytest.raises(ValidationError, match=message):
        load_all_records(tmp_path)


def test_load_all_records_checks_ids_against_the_manifest(tmp_path):
    batch = oracles.wire_records([0, 4], [3, 1], [[1, 0], [2, 1]])
    oracles.write_records_dir(tmp_path, batch, num_nodes=5)
    assert len(load_all_records(tmp_path)[0]) == 2
    oracles.write_records_dir(tmp_path, batch, num_nodes=4)
    shard = tmp_path / "records-00000-of-00001.bin"
    with pytest.raises(ValidationError, match=f"^{re.escape(str(shard))}: node id 4 out of range \\[0, 4\\)"):
        load_all_records(tmp_path)


def test_shard_round_trip(tmp_path):
    batch = oracles.wire_records([3, 5], [4, 1], [[1, 0, 2], [0, 7, 0]])
    path = tmp_path / "x.bin"
    write_shard(path, batch)
    back = oracles.read_shard(path, 3)
    assert back.tobytes() == batch.tobytes()
    # wire layout: 8 + 8 + 4 + 8*3 bytes per record
    assert path.stat().st_size == 2 * (20 + 24)


def test_write_shard_of_each_loaded_slice_reproduces_its_file(tmp_path, monkeypatch):
    # ranges of 4 seeds, so each shard's file is appended in several pieces
    monkeypatch.setattr(sampler, "PARTITION_NODES", 8)
    g = generate_sbm(SbmConfig(n=60, k=2, p_in=0.2, p_out=0.05, seed=3))
    run_sampling(g, SamplerConfig(walks_per_node=8, walk_length=3, seed=4, num_shards=3), tmp_path / "rec")
    records, manifest = load_all_records(tmp_path / "rec")
    assert records.dtype == record_array(0, 3).dtype and all(manifest["record_counts"])
    at = 0
    for f, count in zip(manifest["shard_files"], manifest["record_counts"]):
        write_shard(tmp_path / f, records[at : at + count])
        assert (tmp_path / f).read_bytes() == (tmp_path / "rec" / f).read_bytes()
        at += count
    assert at == len(records)


def test_empty_shard_written_loaded_and_trained(tmp_path):
    # node 3 is isolated and the only seed of shard 0 of 3: its walks all die
    # at once, so its range combines into record_array(0, 3), an empty shard
    g = build_graph([(0, 1), (1, 2), (2, 0)], 4)
    cfg = SamplerConfig(walks_per_node=8, walk_length=3, seed=1, num_shards=3)
    rec, dead, visits = sampler._sample_partition(g, cfg, HashStream(cfg.seed), np.array([3]))
    assert rec.dtype == record_array(0, 3).dtype and len(rec) == 0 and (dead, visits) == (8, 0)
    write_shard(tmp_path / "empty.bin", record_array(0, 3))
    assert (tmp_path / "empty.bin").read_bytes() == b""
    stats = run_sampling(g, cfg, tmp_path / "rec")
    assert stats.shard_record_counts[0] == 0 and stats.num_records > 0
    assert (tmp_path / "rec" / "records-00000-of-00003.bin").read_bytes() == b""
    records, _ = load_all_records(tmp_path / "rec")
    assert records.dtype == record_array(0, 3).dtype and len(records) == stats.num_records
    tcfg = TrainConfig(dim=4, per_replica_batch_size=4, steps=3, optimizer=FixedSgd(0.1))
    with_empty = train_sync(tmp_path / "rec", tcfg)
    whole = train_sync(oracles.write_records_dir(tmp_path / "whole", records, num_nodes=4), tcfg)
    assert with_empty.table.values.tobytes() == whole.table.values.tobytes()


class TestTwoThreads:
    """Shards split between the caller and a helper thread, or sampled on one."""

    @pytest.mark.parametrize("partition_nodes", [1, 7, None])
    @pytest.mark.parametrize("num_shards", [1, 3, 8, 20])
    def test_bytes_equal_with_helper_and_on_one_cpu(self, tmp_path, monkeypatch, num_shards, partition_nodes):
        g = ring_with_isolated_nodes()
        cfg = SamplerConfig(walks_per_node=6, walk_length=3, seed=13, num_shards=num_shards)
        if partition_nodes is not None:
            monkeypatch.setattr(sampler, "PARTITION_NODES", partition_nodes)
        for cpus, name in ((2, "two"), (1, "one")):
            monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
            run_sampling(g, cfg, tmp_path / name)
        names = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert "manifest.json" in names and len(names) == num_shards + 1
        assert sorted(p.name for p in (tmp_path / "two").iterdir()) == names
        for name in names:
            assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    @pytest.mark.parametrize("partition_nodes, width", [(60, 30), (None, 150)])
    @pytest.mark.parametrize("num_shards", [1, 4])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_id_ranges_set_by_the_graph_alone(self, tmp_path, monkeypatch, cpus, num_shards, partition_nodes, width):
        # each shard walks its seeds in ranges of ceil(min(PARTITION_NODES,
        # 300) / 2) ids, on one CPU or two and at any shard count
        g = generate_sbm(SbmConfig(n=300, k=2, p_in=0.05, p_out=0.01, seed=2))
        real = sampler._sample_partition
        walked = []

        def spy(g, cfg, stream, nodes):
            walked.append(nodes.tolist())
            return real(g, cfg, stream, nodes)

        monkeypatch.setattr(sampler, "_sample_partition", spy)
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        if partition_nodes is not None:
            monkeypatch.setattr(sampler, "PARTITION_NODES", partition_nodes)
        run_sampling(g, SamplerConfig(walks_per_node=2, num_shards=num_shards), tmp_path)
        shard_of = splitmix64(np.arange(300, dtype=np.uint64)) % np.uint64(num_shards)
        want = [
            ids
            for s in range(num_shards)
            for lo in range(0, 300, width)
            if (ids := [i for i in range(lo, lo + width) if shard_of[i] == s])
        ]
        assert sorted(walked) == sorted(want)

    def test_joins_its_helper(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        before = threading.active_count()
        run_sampling(ring_with_isolated_nodes(), SamplerConfig(walks_per_node=4, num_shards=5), tmp_path)
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_failure_leaves_no_manifest_and_no_thread(self, tmp_path, monkeypatch, where):
        g = ring_with_isolated_nodes()
        cfg = SamplerConfig(walks_per_node=4, walk_length=3, seed=1, num_shards=6)
        run_sampling(g, cfg, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        real = sampler._sample_partition
        helper_started = threading.Event()
        main = threading.main_thread()

        def spy(*args):
            if threading.current_thread() is main:
                # hold the caller's first shard until the helper has one
                helper_started.wait(timeout=30)
                if where == "caller":
                    raise RuntimeError("injected fault")
            else:
                helper_started.set()
                if where == "helper":
                    raise RuntimeError("injected fault")
            return real(*args)

        monkeypatch.setattr(sampler, "_sample_partition", spy)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected fault"):
            run_sampling(g, cfg, tmp_path)
        assert helper_started.is_set()
        assert not (tmp_path / "manifest.json").exists()
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_first_failed_shard_is_raised(self, tmp_path, monkeypatch, cpus):
        # on two threads shard 1 fails only after shard 3 has: shard 1's
        # failure is raised, as on one thread
        real = sampler._sample_shard
        three_failed = threading.Event()

        def spy(g, cfg, stream, path, shard):
            if shard == 1 and cpus == 2:
                assert three_failed.wait(timeout=30)
            if shard == 3:
                three_failed.set()
            if shard in (1, 3):
                raise RuntimeError(f"shard {shard} failed")
            return real(g, cfg, stream, path, shard)

        monkeypatch.setattr(sampler, "_sample_shard", spy)
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match="^shard 1 failed$"):
            run_sampling(ring_with_isolated_nodes(), SamplerConfig(walks_per_node=4, num_shards=5), tmp_path)
