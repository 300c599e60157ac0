"""The three workloads: inputs, settings, one timed round each, and checks.

Each workload reaches walkembed only through its public functions (or
`run_pipeline`), always looked up as module attributes at call time so the
traced run sees every call.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from walkembed import graph, metrics, model, pipeline, sampler, sbm, trainer

import checks
from inputs import EdgeListSpec, edge_list_pairs

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "sync", "async" or "pipeline"
    nominal_round_s: float  # rounds per run = max(1, seconds // nominal_round_s)
    setup_repeats: int  # set-ups per untraced run; setup_s is their median
    eval_repeats: int  # compute_report calls per untraced 10k round; eval_s is their median
    sampler: dict
    trainer: dict
    eval: dict = field(default_factory=lambda: {"non_edge_samples": 10_000, "recall_nodes": 100})
    min_acc_gain: float = 0.0  # quality gates; 0 on the pipeline, which is not checked for quality
    min_snr_gain: float = 0.0


SAMPLER_10K = {"walks_per_node": 128, "walk_length": 3, "num_shards": 8}
BATCH = {"dim": 128, "per_replica_batch_size": 1024, "negatives_per_positive": 3}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sync-sbm10k", "sync", 25.0, 10, 13, SAMPLER_10K,
            dict(BATCH, mode="sync", num_replicas=2, steps=300,
                 optimizer={"kind": "warmup_decay_sgd", "warmup_steps": 30, "peak_lr": 800.0,
                            "decay_steps": 270, "final_lr": 80.0}),
            min_acc_gain=0.4, min_snr_gain=0.1,
        ),
        Workload(
            "async-sbm10k", "async", 15.0, 10, 5, SAMPLER_10K,
            dict(BATCH, mode="async", num_workers=2, steps=600,
                 optimizer={"kind": "fixed_sgd", "lr": 400.0}),
            min_acc_gain=0.4, min_snr_gain=0.1,
        ),
        Workload(
            "pipeline-edgelist-100k", "pipeline", 30.0, 1, 1,
            {"walks_per_node": 32, "walk_length": 3, "num_shards": 8},
            dict(BATCH, mode="sync", num_replicas=2, steps=150,
                 optimizer={"kind": "warmup_decay_sgd", "warmup_steps": 15, "peak_lr": 400.0,
                            "decay_steps": 135, "final_lr": 40.0}),
        ),
    )
}

EDGE_LIST = EdgeListSpec()
SBM_PRESET = "sbm-10k"
SBM_NODES, SBM_CLASSES = 10_000, 4  # the preset's planted partition: node i is in class i * 4 // 10_000
MIN_DEGREE = 2


def seeds(seed: int) -> dict[str, int]:
    """Per-stage seeds of the benchmark's own 10k rounds."""
    return {"graph": seed, "sample": seed + 1_000, "train": seed + 2_000, "eval": seed + 3_000}


@dataclass
class Round:
    time_to_embedding_s: float
    train_s: float
    eval_s: float
    result: object  # TrainResult
    report: object  # MetricsReport
    graph: object  # pruned Graph, or None when it stays on disk
    records_dir: Path
    setup_s: float | None = None  # pipeline only; the 10k set-ups are timed apart


# ------------------------------------------------------------------ sbm-10k


def setup_10k(seed: int):
    """SBM generation plus prune; returns (pruned graph, seconds)."""
    t0 = clock()
    g = sbm.generate_sbm(replace(sbm.preset_config(SBM_PRESET), seed=seeds(seed)["graph"]))
    pruned = graph.prune_low_degree(g, MIN_DEGREE)
    return pruned, clock() - t0


def train_config(w: Workload, seed: int) -> trainer.TrainConfig:
    d = dict(w.trainer)
    opt = d.pop("optimizer")
    if opt["kind"] == "fixed_sgd":
        optimizer = model.FixedSgd(opt["lr"])
    else:
        optimizer = model.WarmupDecaySchedule(opt["warmup_steps"], opt["peak_lr"], opt["decay_steps"], opt["final_lr"])
    return trainer.TrainConfig(seed=seeds(seed)["train"], optimizer=optimizer, **d)


def round_10k(w: Workload, seed: int, pruned, work: Path, eval_repeats: int) -> Round:
    s = seeds(seed)
    scfg = sampler.SamplerConfig(seed=s["sample"], **w.sampler)
    tcfg = train_config(w, seed)
    records_dir = work / "records"
    shutil.rmtree(records_dir, ignore_errors=True)
    t0 = clock()
    sampler.run_sampling(pruned, scfg, records_dir)
    table = model.init_table(pruned.num_nodes, tcfg.dim, s["train"])
    t_train = clock()
    train = trainer.train_sync if w.mode == "sync" else trainer.train_async
    result = train(records_dir, tcfg, table)
    t1 = clock()
    eval_s = []
    for _ in range(eval_repeats):
        t2 = clock()
        report = metrics.compute_report(
            pruned, result.table, w.eval["non_edge_samples"], w.eval["recall_nodes"], s["eval"]
        )
        eval_s.append(clock() - t2)
    return Round(t1 - t0, t1 - t_train, statistics.median(eval_s), result, report, pruned, records_dir)


# ----------------------------------------------------------------- pipeline


def pipeline_config(w: Workload, seed: int, edge_list: Path, run_dir: Path):
    return pipeline.config_from_dict(
        {
            "seed": seed,
            "run_dir": str(run_dir),
            "graph": {"kind": "edge_list", "path": str(edge_list), "format": "tsv"},
            "min_degree": MIN_DEGREE,
            "sampler": dict(w.sampler),
            "trainer": dict(w.trainer),
            "eval": dict(w.eval),
        }
    )


class StageClock:
    """Marks stage boundaries inside run_pipeline with one clock reading each.

    Swaps three names in walkembed.pipeline for pass-through functions: the
    sampler's start, the train call's start and end, and the end of the
    checkpoint write. Nothing else is timed or wrapped.
    """

    def __init__(self):
        self.marks: dict[str, float] = {}
        self.train_result = None
        self._saved = {}

    def __enter__(self):
        for name in ("run_sampling", "train_sync", "save_checkpoint"):
            self._saved[name] = getattr(pipeline, name)
        run_sampling, train_sync, save_checkpoint = (
            self._saved["run_sampling"], self._saved["train_sync"], self._saved["save_checkpoint"]
        )

        def sample_start(*args, **kwargs):
            self.marks["sample"] = clock()
            return run_sampling(*args, **kwargs)

        def train_span(*args, **kwargs):
            self.marks["train_start"] = clock()
            self.train_result = train_sync(*args, **kwargs)
            self.marks["train_end"] = clock()
            return self.train_result

        def checkpoint_end(*args, **kwargs):
            out = save_checkpoint(*args, **kwargs)
            self.marks["checkpoint"] = clock()
            return out

        pipeline.run_sampling = sample_start
        pipeline.train_sync = train_span
        pipeline.save_checkpoint = checkpoint_end
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(pipeline, name, fn)


def round_pipeline(w: Workload, seed: int, edge_list: Path, work: Path) -> Round:
    run_dir = work / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    cfg = pipeline_config(w, seed, edge_list, run_dir)
    with StageClock() as sc:
        t0 = clock()
        res = pipeline.run_pipeline(cfg, force=True)
        t1 = clock()
    m = sc.marks
    return Round(
        setup_s=m["sample"] - t0,
        time_to_embedding_s=m["checkpoint"] - m["sample"],
        train_s=m["train_end"] - m["train_start"],
        eval_s=t1 - m["checkpoint"],
        result=sc.train_result,
        report=res.report,
        graph=None,  # loaded for the checks, outside the timed and traced round
        records_dir=run_dir / "records",
    )


# ------------------------------------------------------------------- checks


def check_round(w: Workload, seed: int, rnd: Round, work: Path) -> list[str]:
    """Every correctness check that applies to this workload; returns the problems found."""
    tcfg = train_config(w, seed) if w.mode != "pipeline" else pipeline_config(w, seed, Path("-"), work).trainer
    problems = []
    res = rnd.result
    want_examples = tcfg.steps * tcfg.global_batch_examples
    if res.examples_processed != want_examples:
        problems.append(f"trainer processed {res.examples_processed} examples, config gives {want_examples}")
    if res.worker_failures:
        problems.append(f"{res.worker_failures} async worker failures")

    g = rnd.graph if rnd.graph is not None else graph.load_csr(work / "run" / "pruned.csr")
    csr = checks.Csr(g.offsets, g.targets, g.external_ids)
    src, dst, co = checks.read_shards(rnd.records_dir, w.sampler["walk_length"])
    problems += checks.check_sampler(csr, src, dst, co, w.sampler["walks_per_node"])
    del src, dst, co

    values = res.table.values
    if w.mode == "pipeline":
        values = checks.read_checkpoint(work / "run" / "checkpoint.bin")
        on_disk = checks.read_csr(work / "run" / "pruned.csr")
        problems += checks.check_ingest(on_disk, edge_list_pairs(EDGE_LIST, seed), MIN_DEGREE)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC4)))
    problems += checks.check_snr(rnd.report, csr, values, rng)
    x = checks.normalize(values).astype(np.float32)
    rec = metrics.edge_recall(g, model.EmbeddingTable(x), 20, rng)
    problems += checks.check_recall(rec, csr, x)

    if w.min_acc_gain > 0:
        labels = g.external_ids * SBM_CLASSES // SBM_NODES
        initial = model.init_table(g.num_nodes, tcfg.dim, seeds(seed)["train"]).values
        init_acc = checks.planted_accuracy(initial, labels, SBM_CLASSES)
        acc = checks.planted_accuracy(values, labels, SBM_CLASSES)
        edge_d, non_d, _, _ = checks.distance_ratio(csr, initial, w.eval["non_edge_samples"], rng)
        init_snr = non_d / edge_d
        print(f"quality: planted-class accuracy {init_acc:.3f} -> {acc:.3f}, "
              f"edge SNR {init_snr:.4f} -> {rnd.report.edge_snr:.4f}", flush=True)
        problems += checks.check_quality(acc, init_acc, rnd.report.edge_snr, init_snr, w.min_acc_gain, w.min_snr_gain)
    return problems
