"""Tests of the benchmark itself, at tiny sizes.

Each correctness check is shown to pass on good output and to fail on a
deliberately damaged copy; the per-layer figures are checked on synthetic
spans. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import EdgeListSpec, edge_list_pairs, write_edge_list  # noqa: E402
from tracing import Span, layer_metrics, self_times  # noqa: E402
from walkembed import graph, metrics, model, sampler, sbm, trainer  # noqa: E402


@pytest.fixture(scope="module")
def small_graph():
    g = sbm.generate_sbm(sbm.preset_config("sbm-1k", seed=3))
    return graph.prune_low_degree(g, 2)


def as_csr(g) -> checks.Csr:
    return checks.Csr(g.offsets, g.targets, g.external_ids)


# ------------------------------------------------------------------ quality


def test_quality_check_fails_on_random_table_and_passes_on_planted():
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(4), 50)
    random_table = rng.uniform(-1, 1, size=(200, 16))
    centers = rng.normal(size=(4, 16)) * 3
    planted = centers[labels] + rng.normal(size=(200, 16)) * 0.5
    init_acc = checks.planted_accuracy(random_table, labels, 4)
    assert checks.planted_accuracy(planted, labels, 4) > 0.95
    assert checks.check_quality(checks.planted_accuracy(planted, labels, 4), init_acc, 1.3, 1.0, 0.4, 0.1) == []
    assert checks.check_quality(init_acc, init_acc, 1.3, 1.0, 0.4, 0.1)
    assert checks.check_quality(0.99, init_acc, 1.02, 1.0, 0.4, 0.1)


# ------------------------------------------------------------------ sampler


@pytest.fixture(scope="module")
def sampled(small_graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("records")
    cfg = sampler.SamplerConfig(walks_per_node=8, walk_length=3, seed=5, num_shards=3)
    sampler.run_sampling(small_graph, cfg, out)
    return out, cfg


def test_sampler_check_passes_on_program_output(small_graph, sampled):
    out, cfg = sampled
    src, dst, co = checks.read_shards(out, cfg.walk_length)
    assert len(src) > 0
    assert checks.check_sampler(as_csr(small_graph), src, dst, co, cfg.walks_per_node) == []


def test_sampler_check_fails_on_corrupted_record(small_graph, sampled):
    out, cfg = sampled
    csr = as_csr(small_graph)
    src, dst, co = checks.read_shards(out, cfg.walk_length)
    i = int(np.flatnonzero(co[:, 0] > 0)[0])
    nbrs = set(small_graph.neighbors(int(src[i])).tolist())
    bad_dst = dst.copy()
    bad_dst[i] = next(v for v in range(small_graph.num_nodes) if v not in nbrs and v != src[i])
    assert any("not graph edges" in p for p in checks.check_sampler(csr, src, bad_dst, co, cfg.walks_per_node))
    bad_co = co.copy()
    bad_co[i, 0] += 1
    problems = checks.check_sampler(csr, src, dst, bad_co, cfg.walks_per_node)
    assert any("do not sum" in p for p in problems) and any("total co-count" in p for p in problems)


def test_read_shards_rejects_foreign_walk_length(sampled):
    out, _ = sampled
    with pytest.raises(ValueError):
        checks.read_shards(out, 4)


# ------------------------------------------------------------------- ingest


@pytest.fixture(scope="module")
def tiny_edge_list(tmp_path_factory):
    spec = EdgeListSpec(nodes=400, edges=2_000, self_loops=20, duplicates=50, pendants=15)
    pairs = edge_list_pairs(spec, seed=9)
    path = tmp_path_factory.mktemp("ingest") / "edges.tsv"
    write_edge_list(pairs, path)
    pruned = graph.prune_low_degree(graph.load_edge_list(path), 2)
    csr_path = path.with_suffix(".csr")
    graph.save_csr(pruned, csr_path)
    return spec, pairs, checks.read_csr(csr_path)


def test_edge_list_is_seeded_and_noisy():
    spec = EdgeListSpec(nodes=400, edges=2_000, self_loops=20, duplicates=50, pendants=15)
    a, b = edge_list_pairs(spec, 9), edge_list_pairs(spec, 9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, edge_list_pairs(spec, 10))
    assert int(np.sum(a[:, 0] == a[:, 1])) >= 20
    assert len(a) == 2_000 + 20 + 50 + 15


def test_ingest_check_passes_on_program_output(tiny_edge_list):
    _, pairs, csr = tiny_edge_list
    assert checks.check_ingest(csr, pairs, 2) == []


def test_ingest_check_fails_on_dropped_edge(tiny_edge_list):
    _, pairs, csr = tiny_edge_list
    u = 0
    v = int(csr.targets[csr.offsets[0]])
    keep = ~(((csr.sources() == u) & (csr.targets == v)) | ((csr.sources() == v) & (csr.targets == u)))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(csr.sources()[keep], minlength=csr.num_nodes))])
    dropped = checks.Csr(offsets, csr.targets[keep], csr.external_ids)
    assert any("edges" in p for p in checks.check_ingest(dropped, pairs, 2))


def test_ingest_check_fails_on_unpruned_leaf(tiny_edge_list):
    _, pairs, csr = tiny_edge_list
    assert checks.check_ingest(csr, pairs, 1)


# --------------------------------------------------------------------- eval


def test_snr_and_recall_checks(small_graph):
    table = model.init_table(small_graph.num_nodes, 16, seed=1)
    report = metrics.compute_report(small_graph, table, non_edge_samples=2_000, recall_nodes=5, seed=2)
    csr = as_csr(small_graph)
    rng = np.random.default_rng(4)
    assert checks.check_snr(report, csr, table.values, rng) == []
    report.edge_snr *= 1.2
    assert checks.check_snr(report, csr, table.values, rng)

    x = checks.normalize(table.values).astype(np.float32)
    rec = metrics.edge_recall(small_graph, model.EmbeddingTable(x), 10, np.random.default_rng(6))
    assert checks.check_recall(rec, csr, x) == []
    rec.recalls[3] += 0.5
    assert checks.check_recall(rec, csr, x)


# ---------------------------------------------------------- derived metrics


def span(i, name, start, end, parent=-1, count=0.0, thread=1, rss=0.0):
    return Span(i, name, thread, parent, start, end, count, rss)


def test_layer_metrics_on_synthetic_sync_spans():
    spans = [
        span(0, "pipeline.run_pipeline", 0, 40),
        span(1, "graph.load_edge_list", 1, 5, parent=0),
        span(2, "sampler.run_sampling", 10, 20, parent=0, count=100, rss=30),
        span(3, "sampler.step_walks", 10, 11, parent=2, count=300),
        span(4, "sampler.step_walks", 11, 12, parent=2, count=300),
        span(5, "sampler.step_walks", 12, 13, parent=2, count=300),
        span(6, "shards.write_shard", 14, 14.5, parent=2, count=1000),
        span(7, "shards.write_shard", 15, 15.5, parent=2, count=1000),
        span(8, "trainer.train_sync", 20, 30, parent=0, rss=50),
        span(9, "shards.load_all_records", 20, 21, parent=8, rss=20),
        span(10, "trainer.build_batch", 21, 22, parent=8),
        span(11, "model.loss_and_grad", 22, 26, parent=8, count=4096),
        span(12, "model.SparseGrad.apply", 26, 27, parent=8, count=50),
        span(13, "model.SparseGrad.apply", 27, 28, parent=8, count=70),
        span(14, "metrics.compute_report", 31, 39, parent=0, rss=5),
        span(15, "metrics.edge_recall", 32, 38, parent=14),
    ]
    m = layer_metrics(spans, edge_lines=800)
    assert m["graph.edge_lines_per_s"] == pytest.approx(200)
    assert m["sampler.run_sampling_s"] == pytest.approx(10)
    assert m["sampler.step_walks_s"] == pytest.approx(3)
    assert m["sampler.combine_s"] == pytest.approx(10 - 3 - 1)
    assert m["sampler.walk_steps_per_s"] == pytest.approx(90)
    assert m["sampler.visits_per_record"] == pytest.approx(9)
    assert m["shards.bytes_written"] == 2000
    assert m["model.loss_and_grad_examples_per_s"] == pytest.approx(1024)
    assert m["model.rows_per_apply"] == pytest.approx(60)
    # train_sync minus load, batch, loss and two applies
    assert m["trainer.sync_reduce_s"] == pytest.approx(10 - 1 - 1 - 4 - 2)
    assert m["trainer.worker_overlap"] == pytest.approx(7 / 10)
    assert m["pipeline.overhead_s"] == pytest.approx(40 - 4 - 10 - 10 - 8)
    assert m["trainer.rss_rise_mb"] == pytest.approx(30)
    assert m["sbm.generate_s"] == 0.0 and m["trace.span_count"] == len(spans)


def test_worker_overlap_counts_busy_time_on_every_thread():
    spans = [span(0, "trainer.train_async", 0, 10)]
    for t, i in ((7, 1), (8, 2)):
        spans.append(span(i * 10, "trainer.build_batch", 0, 1, thread=t))
        spans.append(span(i * 10 + 1, "model.loss_and_grad", 1, 8, thread=t))
        spans.append(span(i * 10 + 2, "model.SparseGrad.apply", 8, 9, thread=t))
    m = layer_metrics(spans)
    assert m["trainer.worker_overlap"] == pytest.approx(1.8)
    assert m["trainer.sync_reduce_s"] == 0.0
    assert self_times(spans)[0] == pytest.approx(10)


def test_tracer_wraps_call_time_names_and_restores_them(sampled, small_graph):
    out, _ = sampled
    originals = (trainer.loss_and_grad, trainer.build_batch, model.SparseGrad.apply, sampler.write_shard)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = trainer.TrainConfig(dim=8, mode="sync", num_replicas=2, steps=3, per_replica_batch_size=16)
        trainer.train_sync(out, cfg, num_nodes=small_graph.num_nodes)
    finally:
        tracer.uninstall()
    assert (trainer.loss_and_grad, trainer.build_batch, model.SparseGrad.apply, sampler.write_shard) == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    top = by_name["trainer.train_sync"][0]
    assert len(by_name["model.loss_and_grad"]) == 6 and len(by_name["model.SparseGrad.apply"]) == 3
    assert all(s.parent == top.id for s in by_name["model.loss_and_grad"])
    assert by_name["model.loss_and_grad"][0].count == 16 * 4
    assert layer_metrics(tracer.spans)["trainer.sync_reduce_s"] > 0
    assert tracer.max_threads == threading.active_count()  # sync training starts no thread
