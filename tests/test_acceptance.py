"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-based
criteria share one sampled record set over the sbm-10k preset and take a
few minutes total on a small machine.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import build_graph
from walkembed.graph import prune_low_degree
from walkembed.metrics import compute_report, edge_recall, edge_snr, l2_normalize
from walkembed.model import (
    EmbeddingTable,
    FixedSgd,
    WarmupDecaySchedule,
    init_table,
    loss_and_grad,
)
from walkembed.pipeline import config_from_dict, run_pipeline
from walkembed.sampler import SamplerConfig, run_sampling
from walkembed.sbm import SbmConfig, generate_sbm, preset_config
from walkembed.shards import load_all_records
from walkembed.trainer import ExampleBatch, TrainConfig, train_async, train_sync

ACC_SEED = 2024

# criterion-6 training configuration, frozen after the pilot runs
SYNC_STEPS = 4000
SYNC_REPLICAS = 2
SYNC_BATCH = 1024
SYNC_NNEG = 3
SYNC_SCHEDULE = WarmupDecaySchedule(300, 400.0, 2400, 10.0)

# criterion-7/8 fixed-lr runs. PARITY_LR is the rate on one micro-batch mean,
# so it moves each example by PARITY_LR / (SYNC_BATCH * (1 + SYNC_NNEG)), as an
# async micro-batch does. Sync averages its SYNC_REPLICAS replica gradients, so
# the sync reference runs at PARITY_LR * SYNC_REPLICAS for the same per-example
# rate.
PARITY_LR = 150.0
SWEEP_BASE_BATCHES = 600


def report(num: int, desc: str, ok: bool, elapsed: float | None = None, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num:2d} {status}: {desc}{timing} {extra}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {extra}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def graph10k():
    g = generate_sbm(preset_config("sbm-10k", seed=ACC_SEED))
    pruned = prune_low_degree(g, 2)
    assert pruned.degrees.min() >= 1  # no dead ends by construction
    return pruned


@pytest.fixture(scope="module")
def records10k(graph10k, tmp_path_factory):
    out = tmp_path_factory.mktemp("acc-records")
    cfg = SamplerConfig(walks_per_node=128, walk_length=3, seed=ACC_SEED, num_shards=8)
    stats = run_sampling(graph10k, cfg, out)
    return out, cfg, stats


@pytest.fixture(scope="module")
def baseline10k(graph10k):
    table = init_table(graph10k.num_nodes, 128, seed=ACC_SEED)
    return compute_report(graph10k, table, non_edge_samples=10_000, recall_nodes=100, seed=ACC_SEED)


@pytest.fixture(scope="module")
def sync_trained(graph10k, records10k):
    records_dir, _, _ = records10k
    cfg = TrainConfig(
        dim=128,
        mode="sync",
        per_replica_batch_size=SYNC_BATCH,
        negatives_per_positive=SYNC_NNEG,
        num_replicas=SYNC_REPLICAS,
        steps=SYNC_STEPS,
        optimizer=SYNC_SCHEDULE,
        seed=ACC_SEED,
    )
    t0 = time.monotonic()
    result = train_sync(records_dir, cfg)
    elapsed = time.monotonic() - t0
    rep = compute_report(graph10k, result.table, non_edge_samples=10_000, recall_nodes=100, seed=ACC_SEED)
    return cfg, result, rep, elapsed


# ---------------------------------------------------------------- criteria


def test_criterion_1_sampler_oracle_equivalence(tmp_path):
    """Empirical counts/gamma match exact trajectory enumeration, 4 sigma."""
    t0 = time.monotonic()
    gamma = 10_000
    family = [
        build_graph([(0, 1), (1, 2), (2, 0)], 3),  # cycle
        build_graph([(0, 1), (1, 2), (2, 3)], 4),  # path (forced moves)
        build_graph([(0, i) for i in range(1, 5)], 5),  # star
        build_graph([(a, b) for a in range(4) for b in range(a + 1, 4)], 4),  # K4
        build_graph([(0, 1), (2, 3)], 4),  # disconnected pairs
        build_graph([(0, 1)], 3),  # isolated node (dead-end seeds)
        build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)], 6),
        build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)], 6),
    ]
    checked = 0
    for gi, g in enumerate(family):
        for wl in (1, 2, 3):
            cfg = SamplerConfig(walks_per_node=gamma, walk_length=wl, seed=ACC_SEED + gi)
            out = tmp_path / f"g{gi}-l{wl}"
            run_sampling(g, cfg, out)
            rec, _ = load_all_records(out)
            got = {}
            for s, d, c in zip(rec["source"], rec["dest"], rec["counts"]):
                got[(int(s), int(d))] = c
            prob = oracles.visit_probabilities(g, wl)
            for u in range(g.num_nodes):
                for v in range(g.num_nodes):
                    counts = got.get((u, v), np.zeros(wl, dtype=np.int64))
                    for dist in range(wl):
                        assert oracles.within_binomial(
                            int(counts[dist]), gamma, prob[u, dist, v]
                        ), (gi, wl, u, v, dist)
                        checked += 1
    elapsed = time.monotonic() - t0
    report(1, f"sampler matches trajectory enumeration ({checked} cells, 4 sigma)", elapsed < 10, elapsed)


def test_criterion_2_sampler_conservation(graph10k, records10k):
    """Sum of counts per source is exactly walks * length on the pruned preset."""
    t0 = time.monotonic()
    records_dir, cfg, stats = records10k
    rec, _ = load_all_records(records_dir)
    per_source = np.zeros(graph10k.num_nodes, dtype=np.int64)
    np.add.at(per_source, rec["source"], rec["counts"].sum(axis=1))
    expected = cfg.walks_per_node * cfg.walk_length
    ok = bool(np.all(per_source == expected)) and stats.dead_end_terminations == 0
    elapsed = time.monotonic() - t0 + stats.elapsed_s
    report(2, f"conservation: every source sums to {expected} exactly", ok and elapsed < 60, elapsed)


def test_criterion_3_gradient_correctness():
    """Analytic gradients match central finite differences, rel err < 1e-4."""
    t0 = time.monotonic()
    rng = np.random.default_rng(ACC_SEED)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 21))
        d = int(rng.integers(2, 17))
        p = int(rng.integers(1, 6))
        k = int(rng.integers(0, 4))
        batch = ExampleBatch(
            rng.integers(0, n, p),
            rng.integers(0, n, (p, 1 + k)),
            rng.uniform(0.5, 4.0, p).astype(np.float32),
        )
        values = rng.normal(0.0, 0.4, (n, d))
        _, grad = loss_and_grad(EmbeddingTable(values.copy()), batch)
        dense = np.zeros_like(values)
        dense[grad.ids] = grad.values
        fd = oracles.finite_difference_grad(
            lambda v: loss_and_grad(EmbeddingTable(v), batch)[0], values.copy()
        )
        rel = np.linalg.norm(dense - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    report(3, f"100 finite-difference checks, worst rel err {worst:.2e}", worst < 1e-4 and elapsed < 10, elapsed)


def test_criterion_4_schedule_exactness():
    """Warmup/decay schedule reproduces the anchor values exactly."""
    sched = WarmupDecaySchedule(5000, 0.01, 100_000, 0.001)
    ok = (
        sched.lr_at(0) == 0.0
        and sched.lr_at(5000) == 0.01
        and sched.lr_at(105_000) == 0.001
        and sched.lr_at(105_001) == 0.001
        and sched.lr_at(2_000_000) == 0.001
    )
    report(4, "schedule anchors (0 @ 0, peak @ warmup, final at/after warmup+decay)", ok)


def test_criterion_5_random_embedding_snr_null(graph10k, baseline10k):
    """Seeded random unit vectors score SNR within [0.95, 1.05]."""
    t0 = time.monotonic()
    table = l2_normalize(init_table(graph10k.num_nodes, 128, seed=ACC_SEED))
    snr = edge_snr(graph10k, table, non_edge_samples=10_000, rng=np.random.default_rng(ACC_SEED))
    elapsed = time.monotonic() - t0
    ok = 0.95 <= snr <= 1.05 and 0.95 <= baseline10k.edge_snr <= 1.05
    report(5, f"random-init SNR {snr:.4f} in [0.95, 1.05]", ok and elapsed < 30, elapsed)


def test_criterion_6_end_to_end_quality(sync_trained, baseline10k):
    """Trained sync embedding beats thresholds and the random baseline."""
    cfg, result, rep, train_s = sync_trained
    med_edge = rep.edge_distance_percentiles[50]
    p25_non = rep.non_edge_distance_percentiles[25]
    base_med_edge = baseline10k.edge_distance_percentiles[50]
    checks = {
        "snr>1.5": rep.edge_snr > 1.5,
        "medEdge<P25non": med_edge < p25_non,
        "recall>0.3": rep.mean_recall > 0.3,
        "snr>base": rep.edge_snr > baseline10k.edge_snr,
        "medEdge<base": med_edge < base_med_edge,
        "recall>base": rep.mean_recall > baseline10k.mean_recall,
        "steps>=2000": cfg.steps >= 2000,
    }
    ok = all(checks.values()) and train_s < 15 * 60
    report(
        6,
        f"sync quality: snr={rep.edge_snr:.3f} recall={rep.mean_recall:.3f} "
        f"medE={med_edge:.3f} P25non={p25_non:.3f}",
        ok,
        train_s,
        extra="" if ok else str(checks),
    )


@pytest.fixture(scope="module")
def parity_runs(graph10k, records10k, baseline10k):
    """Fixed-lr sync, async W=8, and async W=1 runs at equal example budgets."""
    records_dir, _, _ = records10k
    common = dict(
        dim=128,
        per_replica_batch_size=SYNC_BATCH,
        negatives_per_positive=SYNC_NNEG,
        seed=ACC_SEED,
    )
    sync_cfg = TrainConfig(
        mode="sync",
        num_replicas=SYNC_REPLICAS,
        steps=SYNC_STEPS,
        optimizer=FixedSgd(PARITY_LR * SYNC_REPLICAS),
        **common,
    )
    async_cfg = TrainConfig(
        mode="async", num_workers=8, steps=SYNC_STEPS * SYNC_REPLICAS, optimizer=FixedSgd(PARITY_LR), **common
    )
    serial_cfg = TrainConfig(
        mode="async", num_workers=1, steps=SYNC_STEPS * SYNC_REPLICAS, optimizer=FixedSgd(PARITY_LR), **common
    )
    t0 = time.monotonic()
    sync_res = train_sync(records_dir, sync_cfg)
    async_res = train_async(records_dir, async_cfg)
    serial_res = train_async(records_dir, serial_cfg)
    elapsed = time.monotonic() - t0
    assert sync_cfg.steps * sync_cfg.num_replicas * sync_cfg.micro_batch_examples == (
        async_cfg.steps * async_cfg.micro_batch_examples
    )
    for cfg, res in ((sync_cfg, sync_res), (async_cfg, async_res), (serial_cfg, serial_res)):
        assert res.examples_processed == cfg.steps * cfg.global_batch_examples
        assert res.worker_failures == 0
    rep_sync = compute_report(graph10k, sync_res.table, 10_000, 100, seed=ACC_SEED)
    rep_async = compute_report(graph10k, async_res.table, 10_000, 100, seed=ACC_SEED)
    rep_serial = compute_report(graph10k, serial_res.table, 10_000, 100, seed=ACC_SEED)
    return rep_sync, rep_async, rep_serial, elapsed


def test_criterion_7_async_sync_parity(parity_runs, baseline10k):
    """Async (W=8, fixed lr) keeps >= 80% of sync's SNR gain, equal budget."""
    rep_sync, rep_async, _, elapsed = parity_runs
    gain_sync = rep_sync.edge_snr - baseline10k.edge_snr
    gain_async = rep_async.edge_snr - baseline10k.edge_snr
    ok = gain_async >= 0.8 * gain_sync and gain_sync > 0 and elapsed < 15 * 60
    report(
        7,
        f"parity: sync gain {gain_sync:.3f}, async gain {gain_async:.3f} "
        f"({gain_async / max(gain_sync, 1e-9):.0%})",
        ok,
        elapsed,
    )


def test_async_worker_count_quality_parity(parity_runs):
    """Contended (W=8) async SNR stays within 20% of the W=1 run's SNR."""
    _, rep_async, rep_serial, _ = parity_runs
    drift = abs(rep_async.edge_snr - rep_serial.edge_snr) / rep_serial.edge_snr
    print(
        f"\nasync worker parity: W=1 snr {rep_serial.edge_snr:.3f}, "
        f"W=8 snr {rep_async.edge_snr:.3f} (drift {drift:.1%})"
    )
    assert drift <= 0.20


def test_criterion_8_budget_sweep_monotone(graph10k, records10k):
    """Async SNR is non-decreasing (within 5%) across 1x/4x/12x budgets."""
    records_dir, _, _ = records10k
    t0 = time.monotonic()
    snrs = []
    for mult in (1, 4, 12):
        cfg = TrainConfig(
            dim=128,
            mode="async",
            per_replica_batch_size=SYNC_BATCH,
            negatives_per_positive=SYNC_NNEG,
            num_workers=8,
            steps=SWEEP_BASE_BATCHES * mult,
            optimizer=FixedSgd(PARITY_LR),
            seed=ACC_SEED + mult,
        )
        res = train_async(records_dir, cfg)
        table = l2_normalize(res.table)
        snrs.append(
            edge_snr(graph10k, table, non_edge_samples=10_000, rng=np.random.default_rng(ACC_SEED))
        )
    elapsed = time.monotonic() - t0
    ok = all(b >= 0.95 * a for a, b in zip(snrs, snrs[1:]))
    report(8, f"budget sweep SNR {['%.3f' % s for s in snrs]} non-decreasing (5% slack)", ok, elapsed)


def test_criterion_9_pipeline_determinism(tmp_path):
    """Two identical sync pipeline runs produce bitwise-equal artifacts."""
    t0 = time.monotonic()

    def cfg(run_dir):
        return config_from_dict(
            {
                "seed": ACC_SEED,
                "run_dir": str(run_dir),
                "graph": {"kind": "preset", "name": "sbm-1k"},
                "min_degree": 2,
                "sampler": {"walks_per_node": 32, "walk_length": 3, "num_shards": 4},
                "trainer": {
                    "dim": 32,
                    "mode": "sync",
                    "per_replica_batch_size": 256,
                    "negatives_per_positive": 3,
                    "num_replicas": 2,
                    "steps": 300,
                    "optimizer": {
                        "kind": "warmup_decay_sgd",
                        "warmup_steps": 30,
                        "peak_lr": 100.0,
                        "decay_steps": 250,
                        "final_lr": 5.0,
                    },
                },
                "eval": {"non_edge_samples": 2000, "recall_nodes": 50},
            }
        )

    a = run_pipeline(cfg(tmp_path / "a"))
    b = run_pipeline(cfg(tmp_path / "b"))
    ckpt_equal = (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
        tmp_path / "b" / "checkpoint.bin"
    ).read_bytes()
    report_equal = (tmp_path / "a" / "eval" / "report.json").read_bytes() == (
        tmp_path / "b" / "eval" / "report.json"
    ).read_bytes()
    hashes_equal = [s["output_hashes"] for s in a.manifest["stages"]] == [
        s["output_hashes"] for s in b.manifest["stages"]
    ]
    elapsed = time.monotonic() - t0
    report(9, "identical configs give bitwise-identical checkpoint and report",
           ckpt_equal and report_equal and hashes_equal, elapsed)


def test_criterion_10_metric_oracles():
    """Sampled SNR within 3 sigma of exhaustive; recall equals brute force."""
    t0 = time.monotonic()
    g = generate_sbm(SbmConfig(n=200, k=4, p_in=0.15, p_out=0.02, seed=ACC_SEED))
    rng = np.random.default_rng(ACC_SEED)
    table = l2_normalize(EmbeddingTable(rng.standard_normal((200, 24))))

    exact_non = oracles.exhaustive_non_edge_distances(g, table.values)
    u, v = oracles.upper_edges(g)
    diffs = table.values[u] - table.values[v]
    mean_edge = float(np.mean(np.linalg.norm(diffs, axis=1)))
    samples = 5000
    snr = edge_snr(g, table, non_edge_samples=samples, rng=np.random.default_rng(1))
    sigma = exact_non.std() / np.sqrt(samples) / mean_edge
    snr_ok = abs(snr - exact_non.mean() / mean_edge) <= 3 * sigma

    rec = edge_recall(g, table, num_sampled_nodes=100, rng=np.random.default_rng(2))
    recall_ok = all(
        got == pytest.approx(oracles.recall_reference(g, table.values, node))
        for node, got in zip(rec.nodes.tolist(), rec.recalls.tolist())
    )
    elapsed = time.monotonic() - t0
    report(10, f"SNR within 3 sigma of exhaustive ({snr:.4f}); recall exact vs brute force",
           snr_ok and recall_ok, elapsed)
