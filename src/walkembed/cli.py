"""Command-line driver.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import StageError, ValidationError, WalkembedError, check_object, read_json
from .graph import load_graph, prune_low_degree, save_csr, save_edge_list
from .pipeline import (
    EvalParams,
    compare_runs,
    evaluate_checkpoint,
    format_comparison,
    load_pipeline_config,
    run_pipeline,
    train_checkpoint,
)
from .sampler import SamplerConfig, run_sampling
from .shards import read_manifest
from .sbm import SbmConfig, generate_sbm, preset_config
from .trainer import TrainConfig


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="walkembed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("sbm", help="generate a stochastic block model graph")
    g.add_argument("--nodes", type=int)
    g.add_argument("--classes", type=int)
    g.add_argument("--p-in", type=float)
    g.add_argument("--p-out", type=float)
    g.add_argument("--preset", help="named config (e.g. sbm-10k); overrides the four knobs")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--format", choices=["csr", "edgelist"], default="csr")

    g = sub.add_parser("prune", help="drop nodes below a degree threshold (single pass)")
    g.add_argument("--graph", required=True)
    g.add_argument("--min-degree", type=int, default=2)
    g.add_argument("--out", required=True)

    g = sub.add_parser("sample", help="random-walk co-occurrence sampling to shards")
    g.add_argument("--graph", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--walks-per-node", type=int, default=128)
    g.add_argument("--walk-length", type=int, default=3)
    g.add_argument("--num-shards", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("train", help="train embeddings from sampled records")
    g.add_argument("--records", required=True)
    g.add_argument("--mode", choices=["sync", "async"])
    g.add_argument("--dim", type=int)
    g.add_argument("--replicas", type=int)
    g.add_argument("--steps", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--config", help="JSON file of TrainConfig fields; flags override it")
    g.add_argument("--graph", required=True, help="graph the records were sampled from")
    g.add_argument("--out", required=True, help="checkpoint path")
    g.add_argument("--log", help="progress JSONL path")

    g = sub.add_parser("eval", help="embedding quality metrics")
    g.add_argument("--graph", required=True)
    g.add_argument("--embedding", required=True)
    g.add_argument("--non-edge-samples", type=int, default=10_000)
    g.add_argument("--recall-nodes", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--label", default="embedding")

    g = sub.add_parser("pipeline", help="run prune/sample/train/eval end to end")
    g.add_argument("--config", required=True)
    g.add_argument("--force", action="store_true", help="ignore resumable stage hashes")

    g = sub.add_parser("compare", help="tabulate metrics across run directories")
    g.add_argument("runs", nargs="+")
    g.add_argument("--out", help="summary CSV path")
    return p


def _cmd_sbm(args) -> int:
    if args.preset:
        cfg = preset_config(args.preset, seed=args.seed)
    else:
        missing = [k for k in ("nodes", "classes", "p_in", "p_out") if getattr(args, k) is None]
        if missing:
            raise ValidationError(f"sbm needs --preset or all of: {', '.join(missing)}")
        cfg = SbmConfig(n=args.nodes, k=args.classes, p_in=args.p_in, p_out=args.p_out, seed=args.seed)
    g = generate_sbm(cfg)
    if args.format == "csr":
        save_csr(g, args.out)
    else:
        save_edge_list(g, args.out)
    print(f"wrote {args.out}: {g.num_nodes} nodes, {g.num_edges} edges")
    return 0


def _cmd_prune(args) -> int:
    g = load_graph(args.graph)
    pruned = prune_low_degree(g, args.min_degree)
    save_csr(pruned, args.out)
    print(f"pruned {g.num_nodes} -> {pruned.num_nodes} nodes, {g.num_edges} -> {pruned.num_edges} edges")
    return 0


def _cmd_sample(args) -> int:
    g = load_graph(args.graph)
    cfg = SamplerConfig(
        walks_per_node=args.walks_per_node,
        walk_length=args.walk_length,
        seed=args.seed,
        num_shards=args.num_shards,
    )
    stats = run_sampling(g, cfg, args.out)
    print(
        f"sampled {stats.total_walks} walks -> {stats.num_records} records "
        f"({stats.dead_end_terminations} dead ends, {stats.elapsed_s:.1f}s)"
    )
    return 0


def _cmd_train(args) -> int:
    raw = read_json(args.config) if args.config else {}
    check_object("trainer", raw)  # before a flag writes into it
    for flag, key in (
        ("mode", "mode"),
        ("dim", "dim"),
        ("replicas", "num_replicas"),
        ("steps", "steps"),
        ("seed", "seed"),
    ):
        val = getattr(args, flag)
        if val is not None:
            raw[key] = val
    cfg = TrainConfig.from_dict(raw)
    g = load_graph(args.graph)
    if read_manifest(args.records)["graph_hash"] != g.content_hash():
        raise ValidationError(f"records in {args.records} were not sampled from {args.graph}")
    result = train_checkpoint(args.records, cfg, g.num_nodes, args.out, args.log)
    last = [e for e in result.log if "loss" in e]
    loss = f"{last[-1]['loss']:.4f}" if last else "n/a"
    print(
        f"trained {cfg.steps} steps ({result.examples_processed} examples, "
        f"{result.elapsed_s:.1f}s); final loss {loss}; wrote {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    params = EvalParams(non_edge_samples=args.non_edge_samples, recall_nodes=args.recall_nodes, label=args.label)
    report = evaluate_checkpoint(load_graph(args.graph), args.embedding, args.out, params, args.seed)
    print(
        f"edge SNR {report.edge_snr:.4f}, mean recall {report.mean_recall:.4f}; "
        f"report in {args.out}"
    )
    return 0


def _cmd_pipeline(args) -> int:
    cfg = load_pipeline_config(args.config)
    result = run_pipeline(cfg, force=args.force)
    ran = [s["name"] for s in result.manifest["stages"] if not s["skipped"]]
    print(f"run dir {result.run_dir}: ran {ran or 'nothing'}, skipped {result.skipped or 'nothing'}")
    if result.report:
        print(f"edge SNR {result.report.edge_snr:.4f}, mean recall {result.report.mean_recall:.4f}")
    return 0


def _cmd_compare(args) -> int:
    rows = compare_runs(args.runs, out_csv=args.out)
    print(format_comparison(rows))
    return 0


_COMMANDS = {
    "sbm": _cmd_sbm,
    "prune": _cmd_prune,
    "sample": _cmd_sample,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "pipeline": _cmd_pipeline,
    "compare": _cmd_compare,
}


def _exit_code(exc: BaseException) -> int:
    if isinstance(exc, StageError) and exc.__cause__ is not None:
        return _exit_code(exc.__cause__)
    if isinstance(exc, (ValidationError, ValueError)):
        return 1
    if isinstance(exc, OSError):
        return 3
    return 2


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WalkembedError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
