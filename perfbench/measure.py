"""Run one workload in this process and print its figures as one JSON line.

Started by run.py in a fresh process with BLAS pools pinned to one thread.
An untraced run reports the end-to-end metrics. A traced run measures one
set-up and one round under the tracer and reports the per-layer metrics;
run.py pairs it with a --single-round run of the same work, untraced, to
find the tracer's overhead. Both print their measured wall time as `wall_s`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads as wl


def end_to_end(setup_s: list[float], rounds: list[wl.Round], peak_rss_mb: float) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(setup_s),
        "time_to_embedding_s": med(r.time_to_embedding_s for r in rounds),
        "train_examples_per_s": med(r.result.examples_processed / r.train_s for r in rounds),
        "eval_s": med(r.eval_s for r in rounds),
        "edge_snr": med(r.report.edge_snr for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


class Runner:
    """Counts every timed operation and keeps the outputs of the ones that worked."""

    def __init__(self, w: wl.Workload, seed: int, work: Path, edge_list: Path | None, eval_repeats: int):
        self.w, self.seed, self.work, self.edge_list = w, seed, work, edge_list
        self.eval_repeats = eval_repeats
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.rounds: list[wl.Round] = []
        self.pruned = None

    def _attempt(self, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def setup(self) -> None:
        if self.w.mode == "pipeline":
            return  # set-up happens inside run_pipeline and is timed there
        out = self._attempt(lambda: wl.setup_10k(self.seed))
        if out is not None:
            self.pruned, secs = out
            self.setup_s.append(secs)

    def round(self) -> wl.Round | None:
        if self.w.mode == "pipeline":
            rnd = self._attempt(lambda: wl.round_pipeline(self.w, self.seed, self.edge_list, self.work))
            if rnd is not None:
                self.setup_s.append(rnd.setup_s)
        elif self.pruned is None:
            self.attempted += 1
            self.failed += 1
            return None
        else:
            rnd = self._attempt(lambda: wl.round_10k(self.w, self.seed, self.pruned, self.work, self.eval_repeats))
        if rnd is not None:
            self.rounds.append(rnd)
        return rnd


def run_untraced(r: Runner, setups: int, rounds: int) -> dict[str, float]:
    for _ in range(setups):
        r.setup()
    for _ in range(rounds):
        r.round()
    peak = tracing.maxrss_mb()
    return end_to_end(r.setup_s, r.rounds, peak) if r.rounds else {}


def run_traced(r: Runner, edge_lines: int, spans_out: Path) -> dict[str, float]:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        r.setup()
        r.round()
    finally:
        tracer.uninstall()
    if not r.rounds:
        return {}
    tracer.dump(spans_out)
    tracing.print_self_times(tracer.spans)
    out = tracing.layer_metrics(tracer.spans, edge_lines)
    out["trace.estimated_overhead_s"] = len(tracer.spans) * tracing.wrapper_cost_s()
    out["trace.max_threads"] = float(tracer.max_threads)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--single-round", action="store_true",
                    help="untraced, one set-up, one round and one report: the traced run's baseline")
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for run artifacts")
    ap.add_argument("--edge-list", type=Path, help="input of the pipeline workload")
    ap.add_argument("--edge-lines", type=int, default=0, help="data lines in --edge-list")
    ap.add_argument("--spans-out", type=Path, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    w = wl.WORKLOADS[args.workload]
    single = args.trace or args.single_round
    runner = Runner(w, args.seed, args.work, args.edge_list, 1 if single else w.eval_repeats)
    t0 = time.perf_counter()
    if args.trace:
        figures = run_traced(runner, args.edge_lines, args.spans_out)
    elif single:
        figures = run_untraced(runner, 1, 1)
    else:
        figures = run_untraced(runner, w.setup_repeats, max(1, int(args.seconds // w.nominal_round_s)))
    round_s = time.perf_counter() - t0

    problems = ["no round completed"] if not runner.rounds else []
    if runner.rounds:
        last = runner.rounds[-1]
        print(f"reference: mean_recall {last.report.mean_recall:.5f} over {last.report.num_recall_nodes} nodes, "
              f"rounds {len(runner.rounds)}", flush=True)
        try:
            problems += wl.check_round(w, args.seed, last, args.work)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            problems.append(f"check raised {exc!r}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": figures,
        "wall_s": round_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
