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
        "checkpoint.bin": "ae0df7f4b708ad76b75816425506abf09ceafada7ab16d5922627c70a5bc1f26",
        "eval/report.json": "a2041cb034299ca9baf6ce109fdc187e8ae1a537526e31547778d75c5f0df37d",
    },
    ("sync", 1): {
        "checkpoint.bin": "ddf7d116783d80890d4b2303e6134e4bf7aeb48dc62dfbc1b280ada6c27498c8",
        "eval/report.json": "5d3645aed3696b3b0e5b8db2fa969ac98646e241fbf003890beb4356b9245355",
    },
    ("sync", 2): {
        "checkpoint.bin": "02f4ba3fd66eca88420fd0741458c9764d0fff0c8b6f04b62a9ce78922aa56a1",
        "eval/report.json": "2d10b536671e85a078a74cfdbdf0a7ea0154bc9d0d8314c25ff143bed2694601",
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
