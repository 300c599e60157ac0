"""The names the benchmark in perfbench/ reaches into walkembed by.

perfbench wraps module attributes at call time (tracing.ENTRY_POINTS) and
swaps three of walkembed.pipeline's globals to time stage boundaries
(workloads.StageClock). Removing or rebinding one of those names breaks the
benchmark without failing any other test.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from walkembed import pipeline  # noqa: E402
from walkembed.pipeline import config_from_dict  # noqa: E402


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
