"""The names the benchmark in perfbench/ reaches into walkembed by.

perfbench wraps module attributes at call time (tracing.ENTRY_POINTS) and
swaps three of walkembed.pipeline's globals to time stage boundaries
(workloads.StageClock). Removing or rebinding one of those names breaks the
benchmark without failing any other test. perfbench also parses its
workloads' trainer dicts itself, reads train_sync's self time as its
sync overhead, and calls both trainers as train(records_dir, cfg, table),
the sampler as run_sampling(g, cfg, out_dir) and the report as
compute_report(g, table, non_edge_samples, recall_nodes, seed).
"""

import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from walkembed import metrics, pipeline, sampler, shards, trainer  # noqa: E402
from walkembed.model import FixedSgd, load_checkpoint  # noqa: E402
from walkembed.pipeline import config_from_dict  # noqa: E402
from walkembed.sampler import SamplerConfig  # noqa: E402
from walkembed.sbm import SbmConfig, generate_sbm  # noqa: E402
from walkembed.trainer import TrainConfig  # noqa: E402


def bindings() -> dict:
    """Every attribute of every traced module and owner class, by identity."""
    owners = list(tracing.MODULES) + [o for o, *_ in tracing.ENTRY_POINTS if isinstance(o, type)]
    return {(id(o), key): value for o in owners for key, value in list(vars(o).items())}


def test_tracer_wraps_every_entry_point_and_restores_it():
    for owner, attr, *_ in tracing.ENTRY_POINTS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} is gone"
    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, *_ in tracing.ENTRY_POINTS:
            assert before[(id(owner), attr)] is not getattr(owner, attr), attr
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_stage_clock_marks_every_stage_and_restores_pipeline(tmp_path):
    names = ("run_sampling", "train_sync", "save_checkpoint")
    before = {n: getattr(pipeline, n) for n in names}
    cfg = config_from_dict(
        {
            "seed": 1,
            "run_dir": str(tmp_path / "run"),
            "graph": {"kind": "sbm", "nodes": 60, "classes": 2, "p_in": 0.3, "p_out": 0.05},
            "sampler": {"walks_per_node": 4, "walk_length": 2},
            "trainer": {"dim": 4, "per_replica_batch_size": 8, "negatives_per_positive": 1, "steps": 3},
            "eval": {"non_edge_samples": 50, "recall_nodes": 5},
        }
    )
    with workloads.StageClock() as sc:
        assert all(getattr(pipeline, n) is not before[n] for n in names)
        pipeline.run_pipeline(cfg, force=True)
    assert set(sc.marks) == {"sample", "train_start", "train_end", "checkpoint"}
    assert sc.train_result.examples_processed == 3 * cfg.trainer.global_batch_examples
    assert all(getattr(pipeline, n) is before[n] for n in names)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_trainer_dicts_parse_like_train_config(name):
    w = workloads.WORKLOADS[name]
    for seed in (0, 7):
        want = TrainConfig.from_dict(dict(w.trainer, seed=workloads.seeds(seed)["train"]))
        assert workloads.train_config(w, seed) == want


def test_sampler_write_shard_is_the_shard_writer():
    # perfbench's tests look write_shard up on sampler, and its tracer wraps
    # it on shards: both names must be the one writer
    assert sampler.write_shard is shards.write_shard


def cycle_records(out_dir):
    records = shards.record_array(20, 2)
    records["source"] = np.arange(20)
    records["dest"] = (records["source"] + 1) % 20
    records["counts"] = 1
    return oracles.write_records_dir(out_dir, records)


def test_train_sync_steps_on_the_calling_thread(monkeypatch, tmp_path):
    # the tracer's trainer.sync_reduce_s is train_sync's self time, which
    # excludes only the child spans on train_sync's own thread
    threads = set()
    real = trainer.loss_and_grad

    def spy(table, batch, *args):
        threads.add(threading.get_ident())
        return real(table, batch, *args)

    monkeypatch.setattr(trainer, "loss_and_grad", spy)
    records = cycle_records(tmp_path)
    cfg = TrainConfig(dim=4, per_replica_batch_size=4, num_replicas=2, steps=3, optimizer=FixedSgd(0.1))
    trainer.train_sync(records, cfg)
    assert threads == {threading.get_ident()}


def traced_train_sync(monkeypatch, tmp_path):
    """The spans of one traced train_sync(records, cfg) call, and the
    thread and enclosing span of each _load_positives call in it."""
    calls = []
    tracer = tracing.Tracer()
    real = trainer._load_positives

    def spy(*args):
        calls.append((threading.get_ident(), tracer._stack()[-1]))
        return real(*args)

    monkeypatch.setattr(trainer, "_load_positives", spy)
    cfg = TrainConfig(dim=4, per_replica_batch_size=4, num_replicas=2, steps=3, optimizer=FixedSgd(0.1))
    records = cycle_records(tmp_path)
    tracer.install()
    try:
        trainer.train_sync(records, cfg)
    finally:
        tracer.uninstall()
    (train,) = [s for s in tracer.spans if s.name == "trainer.train_sync"]
    return train, tracer.spans, calls


def test_train_sync_inits_its_table_through_the_module_name(monkeypatch, tmp_path):
    # the tracer wraps trainer.init_table, the name train_sync calls, so its
    # model.init_table span covers the init only while train_sync calls it
    # through that name, once, on its own thread
    train, spans, _ = traced_train_sync(monkeypatch, tmp_path)
    (init,) = [s for s in spans if s.name == "model.init_table"]
    assert (init.parent, init.thread) == (train.id, train.thread) == (train.id, threading.get_ident())


def test_record_load_runs_in_train_syncs_own_span(monkeypatch, tmp_path):
    # trainer.sync_reduce_s, train_sync's self time, holds the record load
    # only while _load_positives runs on train_sync's thread, in no child span
    train, _, calls = traced_train_sync(monkeypatch, tmp_path)
    assert calls == [(threading.get_ident(), train.id)]


def test_train_sync_passes_the_global_example_count(monkeypatch, tmp_path):
    # the tracer's model.loss_and_grad_examples_per_s counts len(batch), the
    # second argument of each loss_and_grad call
    sizes = []
    real = trainer.loss_and_grad

    def spy(table, batch, *args):
        sizes.append((len(batch), tracing._batch_examples((table, batch), {}, None)))
        return real(table, batch, *args)

    monkeypatch.setattr(trainer, "loss_and_grad", spy)
    records = cycle_records(tmp_path)
    cfg = TrainConfig(dim=4, per_replica_batch_size=4, negatives_per_positive=3, num_replicas=2, steps=3,
                      optimizer=FixedSgd(0.1))
    trainer.train_sync(records, cfg)
    assert sizes == [(cfg.global_batch_examples,) * 2] * 3


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_round_10k_passes_records_dir_cfg_and_table_positionally(monkeypatch, tmp_path, mode):
    # workloads.round_10k calls train(records_dir, tcfg, table) with its own
    # table; a trainer signature that moves `table` breaks the benchmark
    name = {"sync": "sync-sbm10k", "async": "async-sbm10k"}[mode]
    trainer_dict = dict(workloads.WORKLOADS[name].trainer, dim=4, per_replica_batch_size=8, steps=3)
    w = replace(
        workloads.WORKLOADS[name], sampler={"walks_per_node": 2, "walk_length": 3, "num_shards": 2},
        trainer=trainer_dict, eval={"non_edge_samples": 50, "recall_nodes": 5},
    )
    calls = []
    real = getattr(trainer, f"train_{mode}")

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, f"train_{mode}", spy)
    g = generate_sbm(SbmConfig(n=200, k=2, p_in=0.1, p_out=0.01, seed=3))
    r = workloads.round_10k(w, 0, g, tmp_path, 1)
    ((args, kwargs),) = calls
    assert len(args) == 3 and not kwargs
    assert args[0] == r.records_dir and isinstance(args[1], TrainConfig)
    assert r.result.table is args[2] and args[2].num_nodes == g.num_nodes
    assert r.result.examples_processed == 3 * args[1].global_batch_examples


def test_round_10k_passes_sampling_and_report_arguments_positionally(monkeypatch, tmp_path):
    # workloads.round_10k calls run_sampling(g, cfg, out_dir) and
    # compute_report(g, table, non_edge_samples, recall_nodes, seed); a
    # signature that reorders them breaks the benchmark
    w = replace(
        workloads.WORKLOADS["sync-sbm10k"], sampler={"walks_per_node": 2, "walk_length": 3, "num_shards": 2},
        trainer=dict(workloads.WORKLOADS["sync-sbm10k"].trainer, dim=4, per_replica_batch_size=8, steps=3),
        eval={"non_edge_samples": 50, "recall_nodes": 5},
    )
    calls = {}
    for module, name in ((sampler, "run_sampling"), (metrics, "compute_report")):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.setdefault(_name, []).append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    g = generate_sbm(SbmConfig(n=200, k=2, p_in=0.1, p_out=0.01, seed=3))
    r = workloads.round_10k(w, 0, g, tmp_path, 1)
    ((args, kwargs),) = calls["run_sampling"]
    assert len(args) == 3 and not kwargs
    assert args[0] is g and isinstance(args[1], SamplerConfig) and args[2] == r.records_dir
    assert args[1].walks_per_node == 2 and args[1].num_shards == 2
    ((args, kwargs),) = calls["compute_report"]
    assert len(args) == 5 and not kwargs
    assert args[0] is g and args[1] is r.result.table
    assert args[2:] == (50, 5, workloads.seeds(0)["eval"])
    assert (r.report.num_non_edge_samples, r.report.seed) == (50, workloads.seeds(0)["eval"])


@pytest.mark.parametrize("name", ["sync-sbm10k", "async-sbm10k"])
def test_check_round_passes_a_tiny_round(tmp_path, name):
    # workloads.check_round reads TrainResult fields and the round's outputs;
    # a trainer that drops or renames one fails every benchmark run
    w = replace(
        workloads.WORKLOADS[name], sampler={"walks_per_node": 2, "walk_length": 3, "num_shards": 2},
        trainer=dict(workloads.WORKLOADS[name].trainer, dim=4, per_replica_batch_size=8, steps=3),
        eval={"non_edge_samples": 50, "recall_nodes": 5}, min_acc_gain=0,
    )
    g = generate_sbm(SbmConfig(n=200, k=2, p_in=0.1, p_out=0.01, seed=3))
    r = workloads.round_10k(w, 0, g, tmp_path, 1)
    assert workloads.check_round(w, 0, r, tmp_path) == []


def test_checks_read_the_checkpoint_train_checkpoint_writes(tmp_path):
    # checks.read_checkpoint pins the magic and reads the values at offset 64,
    # whatever the 32-byte slot before them holds
    cfg = TrainConfig(dim=4, per_replica_batch_size=4, num_replicas=2, steps=3, optimizer=FixedSgd(0.1))
    pipeline.train_checkpoint(cycle_records(tmp_path / "records"), cfg, tmp_path / "c.bin")
    assert (tmp_path / "c.bin").read_bytes().startswith(checks.CKPT_MAGIC)
    got, want = checks.read_checkpoint(tmp_path / "c.bin"), load_checkpoint(tmp_path / "c.bin")[0].values
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint32), want.view(np.uint32))
