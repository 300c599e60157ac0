"""The output contract: the bytes the sbm-1k preset pipeline writes, pinned.

One small pipeline (seed 7, 32 walks per node, 4 shards, dim 32, batch 256,
200 steps at a fixed rate of 1.0) runs under sync R = 1, sync R = 2 and
async W = 1, on one usable CPU and on two. The SHA-256 of every file of its
records directory, its checkpoint and its eval report must equal the
constants below. The records do not depend on the trainer. A change that
re-pins a constant says why in CHANGES.md.
"""

import hashlib

import pytest

from walkembed import cores
from walkembed.pipeline import config_from_dict, run_pipeline

RECORDS = {
    "records/manifest.json": "a3a237540bfef5edb1f672abe25cac8d25fbd8e2e0cba0f9688cbeef9959c04f",
    "records/records-00000-of-00004.bin": "b05863bd8f42512aa1d3112ee652c9789ae98e1dc270abca3dc8d3166803100d",
    "records/records-00001-of-00004.bin": "33aac9f02c3c78e58b20478435182b8a7474e612a283ea202c0c5607350a636e",
    "records/records-00002-of-00004.bin": "8e64c692f4bb56f3c1c6884c78b5232df73a3f590e887f7b0cee61df03d8e75c",
    "records/records-00003-of-00004.bin": "0dde867e19a0d5b04ff7fa37dc55ebb99bbee01893cd2190a0ad7c3b19bfd826",
}
TRAINED = {
    ("async", 1): {
        "checkpoint.bin": "0e7c4dac14c7c287517405002ace4d44cf85d49e7f3fe21de3baa3fb4c055295",
        "eval/report.json": "6e16067d5e01880fe1981dd22f76059362ee0af83529a2f9a80b569c58d13e63",
    },
    ("sync", 1): {
        "checkpoint.bin": "e5f7945a6c9620dd0609cc6e16dbb18fe8ed810c242bfbb31f8b5610ab5231ec",
        "eval/report.json": "18badd503b555220225dec2f4e405fade404e2e0ff002bb997a86e3f2bd7653b",
    },
    ("sync", 2): {
        "checkpoint.bin": "845e023b676a59f07de62fb61f5ae7ddfa648774a9491bec188ce414d6d8d408",
        "eval/report.json": "a9229f76392a329334780865b3dc92a4d99415d83a274630e693ac791a861da6",
    },
}


def run_sbm_1k(run_dir, mode: str, parallel: int) -> dict[str, str]:
    """Run the pipeline; the SHA-256 of its checkpoint, eval report and each records file, by path."""
    cfg = config_from_dict(
        {
            "seed": 7,
            "run_dir": str(run_dir),
            "graph": {"kind": "preset", "name": "sbm-1k"},
            "sampler": {"walks_per_node": 32, "num_shards": 4},
            "trainer": {
                "dim": 32,
                "mode": mode,
                "per_replica_batch_size": 256,
                "num_replicas" if mode == "sync" else "num_workers": parallel,
                "steps": 200,
                "optimizer": {"kind": "fixed_sgd", "lr": 1.0},
            },
        }
    )
    run_pipeline(cfg)
    paths = [run_dir / "checkpoint.bin", run_dir / "eval" / "report.json", *(run_dir / "records").iterdir()]
    return {p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode, parallel", sorted(TRAINED))
def test_sbm_1k_outputs_match_pinned_hashes(tmp_path, monkeypatch, mode, parallel, cpus):
    monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
    assert run_sbm_1k(tmp_path / "run", mode, parallel) == {**RECORDS, **TRAINED[(mode, parallel)]}
