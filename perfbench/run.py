"""Benchmark entry point: one workload per call, measured in a fresh process.

    python3 perfbench/run.py --workload sync-sbm10k --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the workload's inputs from --seed (the
pipeline's edge list is written here, untimed), starts measure.py in a new
process with BLAS pools pinned to one thread, and prints the result as the
last line of standard output: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json when --trace is 0 and its
per-layer metrics when --trace is 1. A traced call measures one round
untraced and the same round traced, each in its own process, and reports the
difference of their wall times as trace.overhead_s. Exits non-zero, printing no result,
when walkembed's sources are missing or the measurement fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
PINNED = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = root / "src"
    if not (src / "walkembed" / "__init__.py").is_file():
        return fail(f"no walkembed sources under {src}; run from the repository root")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--work", str(work),
    ]
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)])
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def measure(*extra: str) -> dict | None:
        try:
            proc = subprocess.run([*cmd, *extra], env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"measurement did not finish within {CHILD_TIMEOUT_S} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"measurement exited with code {proc.returncode}")
            return None
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1])

    try:
        if args.workload.startswith("pipeline"):
            sys.path.insert(0, str(HERE))
            from inputs import EdgeListSpec, edge_list_pairs, write_edge_list

            edges = work / "edges.tsv"
            lines = write_edge_list(edge_list_pairs(EdgeListSpec(), args.seed), edges)
            cmd += ["--edge-list", str(edges), "--edge-lines", str(lines)]
        if args.trace:
            # the same single round untraced, then traced, each in a fresh process
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            base = measure("--single-round")
            result = base and measure("--trace", "1", "--spans-out",
                                      str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            if result:
                result["metrics"]["trace.overhead_s"] = result["wall_s"] - base["wall_s"]
                result["correct"] = result["correct"] and base["correct"]
                result["attempted"] += base["attempted"]
                result["failed"] += base["failed"]
        else:
            result = measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result:
        return 1

    figures = result["metrics"]
    if set(figures) != set(units):
        missing = sorted(set(units) - set(figures))
        extra = sorted(set(figures) - set(units))
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, unlisted {extra}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
