"""End-to-end runs: prepare graph, sample, train, evaluate, compare.

A run directory holds every stage artifact plus a manifest recording input
and output content hashes. Stages whose parameters, inputs, and outputs all
hash-match a previous run are skipped, making reruns idempotent. Per-stage
seeds are derived from the single global seed, never set directly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import cores
from . import metrics as metrics_mod
from .errors import StageError, ValidationError, check_keys, check_object
from .graph import Graph, load_csr, load_edge_list, prune_low_degree, save_csr
from .model import load_checkpoint, save_checkpoint
from .rng import derive_seed
from .sampler import SamplerConfig, run_sampling
from .shards import read_manifest, shard_path
from .sbm import SbmConfig, generate_sbm, preset_config
from .trainer import TrainConfig, TrainResult, train_async, train_sync

ENV_SEED = "WALKEMBED_SEED"
ENV_RUN_DIR = "WALKEMBED_RUN_DIR"

# graph kind -> (required keys, optional keys), besides "kind"
GRAPH_KEYS = {
    "sbm": (("nodes", "classes", "p_in", "p_out"), ()),
    "preset": (("name",), ()),
    "edge_list": (("path",), ("format",)),
}


@dataclass(frozen=True)
class EvalParams:
    non_edge_samples: int = 10_000
    recall_nodes: int = 100
    label: str = "embedding"

    def __post_init__(self):
        if self.non_edge_samples < 1 or self.recall_nodes < 1:
            raise ValidationError("eval sample counts must be >= 1")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    run_dir: str
    graph: dict  # {"kind": "sbm"|"preset"|"edge_list", ...}
    min_degree: int = 2
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    trainer: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalParams = field(default_factory=EvalParams)

    def __post_init__(self):
        if self.min_degree < 0:
            raise ValidationError("min_degree must be >= 0")
        if not isinstance(self.graph, dict):
            raise ValidationError(f"graph config must be an object, got {self.graph!r}")
        kind = self.graph.get("kind")
        if kind not in GRAPH_KEYS:
            raise ValidationError(f"unknown graph kind {kind!r}")
        required, optional = GRAPH_KEYS[kind]
        for key in required:
            if key not in self.graph:
                raise ValidationError(f"{kind} graph config missing {key!r}")
        check_keys("graph", self.graph, ("kind", *required, *optional))


def config_to_dict(cfg: PipelineConfig) -> dict:
    sampler = cfg.sampler.to_dict()
    sampler.pop("seed")
    trainer = cfg.trainer.to_dict()
    trainer.pop("seed")
    return {
        "seed": cfg.seed,
        "run_dir": cfg.run_dir,
        "graph": dict(cfg.graph),
        "min_degree": cfg.min_degree,
        "sampler": sampler,
        "trainer": trainer,
        "eval": asdict(cfg.eval),
    }


def config_from_dict(d: dict) -> PipelineConfig:
    """Inverse of config_to_dict; unknown keys raise, at the top level and in every section."""
    check_keys("pipeline", d, PipelineConfig)
    sections = {"sampler": SamplerConfig, "trainer": TrainConfig, "eval": EvalParams}
    for section, cls in sections.items():
        check_keys(section, d.get(section, {}), cls)
    for section in ("sampler", "trainer"):
        if "seed" in d.get(section, {}):
            raise ValidationError(f"{section}.seed is derived from the global seed; remove it")
    seed = d["seed"]
    return PipelineConfig(
        seed=seed,
        run_dir=d["run_dir"],
        graph=d["graph"],
        min_degree=d.get("min_degree", 2),
        sampler=SamplerConfig(seed=derive_seed(seed, "sample"), **d.get("sampler", {})),
        trainer=TrainConfig.from_dict({**d.get("trainer", {}), "seed": derive_seed(seed, "train")}),
        eval=EvalParams(**d.get("eval", {})),
    )


def load_pipeline_config(path: str | Path, env: dict | None = None) -> PipelineConfig:
    """Read a JSON config; WALKEMBED_SEED / WALKEMBED_RUN_DIR override it."""
    env = os.environ if env is None else env
    with Path(path).open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    check_object("pipeline", raw)  # before an override writes into it
    if ENV_SEED in env:
        raw["seed"] = int(env[ENV_SEED])
    if ENV_RUN_DIR in env:
        raw["run_dir"] = env[ENV_RUN_DIR]
    return config_from_dict(raw)


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_files(paths: dict[str, Path]) -> dict[str, str]:
    """_hash_file of each path, by key; the files are shared between this
    thread and, where the process may use two CPUs, one helper thread
    (hashlib releases the GIL while it hashes a large chunk)."""
    with cores.helper_pool() as pool:
        return dict(zip(paths, cores.share(pool, _hash_file, paths.values())))


def hash_json(obj) -> str:
    return _hash_bytes(json.dumps(obj, sort_keys=True).encode("utf-8"))


def train_checkpoint(
    records_dir: str | Path, cfg: TrainConfig, num_nodes: int, out: str | Path, log_path: str | Path | None = None
) -> TrainResult:
    """Train by cfg.mode from a records directory and save the table to
    `out`, with the hash of cfg.to_dict() as its config hash. train_sync and
    save_checkpoint are looked up in this module when called."""
    train = train_sync if cfg.mode == "sync" else train_async
    result = train(records_dir, cfg, num_nodes=num_nodes, log_path=log_path)
    save_checkpoint(out, result.table, cfg.steps, hash_json(cfg.to_dict()).encode())
    return result


def evaluate_checkpoint(
    g: Graph, checkpoint: str | Path, out_dir: str | Path, params: EvalParams, seed: int
) -> metrics_mod.MetricsReport:
    """compute_report on a checkpoint's table, written by write_report to
    out_dir; a report that cannot be computed writes nothing."""
    table, _, _ = load_checkpoint(checkpoint)
    report = metrics_mod.compute_report(g, table, params.non_edge_samples, params.recall_nodes, seed)
    metrics_mod.write_report(report, out_dir, label=params.label)
    return report


@dataclass
class PipelineResult:
    run_dir: Path
    manifest: dict
    skipped: list[str]
    report: metrics_mod.MetricsReport | None = None


def _build_graph(cfg: PipelineConfig) -> Graph:
    src = cfg.graph
    kind = src["kind"]
    gseed = derive_seed(cfg.seed, "graph")
    if kind == "preset":
        return generate_sbm(replace(preset_config(src["name"]), seed=gseed))
    if kind == "sbm":
        return generate_sbm(
            SbmConfig(
                n=int(src["nodes"]),
                k=int(src["classes"]),
                p_in=float(src["p_in"]),
                p_out=float(src["p_out"]),
                seed=gseed,
            )
        )
    return load_edge_list(src["path"], format=src.get("format", "tsv"))


def _recorded_stages(run_dir: Path) -> dict[str, dict]:
    """The stage entries of the run's manifest, by name; none without one."""
    path = run_dir / "manifest.json"
    stages = json.loads(path.read_text(encoding="utf-8")).get("stages", []) if path.exists() else []
    return {s["name"]: s for s in stages}


class _ManifestWriter:
    def __init__(self, run_dir: Path, config_hash: str):
        self.path = run_dir / "manifest.json"
        self.previous = _recorded_stages(run_dir)
        self.manifest = {"config_hash": config_hash, "stages": []}

    def can_skip(
        self, name: str, params_hash: str, input_hashes: dict, outputs: dict[str, Path]
    ) -> dict[str, str] | None:
        """The outputs' hashes if the previous run's record of this stage still holds."""
        prev = self.previous.get(name)
        if prev is None or prev["params_hash"] != params_hash or prev["input_hashes"] != input_hashes:
            return None
        if not all(path.exists() for path in outputs.values()):
            return None
        hashes = _hash_files(outputs)
        return hashes if all(prev["output_hashes"].get(k) == h for k, h in hashes.items()) else None

    def record(self, name, params_hash, input_hashes, output_hashes: dict[str, str], duration_s, skipped, figures):
        entry = {
            "name": name,
            "params_hash": params_hash,
            "input_hashes": input_hashes,
            "output_hashes": output_hashes,
            "duration_s": round(duration_s, 6),
            "skipped": skipped,
        }
        entry.update((k, v) for k, v in figures.items() if v is not None)
        self.manifest["stages"].append(entry)
        with self.path.open("w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_pipeline(cfg: PipelineConfig, force: bool = False) -> PipelineResult:
    """Execute prune -> sample -> train -> eval inside cfg.run_dir.

    Already-satisfied stages (matching hashes) are skipped unless force.
    Any failure raises StageError naming the stage. Each artifact is hashed
    once per run; a stage's output hashes are the input hashes of later stages.
    A stage's outputs are hashed on two threads where the process may use
    two CPUs. A stage that runs first removes its outputs and the run's eval
    report, so a failed rerun leaves neither from the previous run. A
    stage's work counts (nodes and edges before and after the prune, the
    sampler's walks, records and dead ends, training's examples and worker
    failures) and the process's peak RSS at its end go into its manifest
    entry; a skipped stage keeps the previous run's.
    """
    run_dir = Path(cfg.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_dict = config_to_dict(cfg)
    (run_dir / "config.json").write_text(json.dumps(cfg_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    writer = _ManifestWriter(run_dir, hash_json(cfg_dict))
    skipped: list[str] = []

    graph_file = run_dir / "graph.csr"
    pruned_file = run_dir / "pruned.csr"
    records_dir = run_dir / "records"
    ckpt_file = run_dir / "checkpoint.bin"
    progress_file = run_dir / "progress.jsonl"
    eval_dir = run_dir / "eval"

    def stage(name, params, input_hashes, outputs, fn) -> dict[str, str]:
        params_hash = hash_json(params)
        t0 = time.monotonic()
        hashes = None if force else writer.can_skip(name, params_hash, input_hashes, outputs)
        if hashes is not None:
            skipped.append(name)
            figures = {k: writer.previous[name].get(k) for k in ("counts", "rss_high_water_mb")}
            writer.record(name, params_hash, input_hashes, hashes, 0.0, True, figures)
            return hashes
        for path in (*outputs.values(), eval_dir / "report.json"):
            path.unlink(missing_ok=True)
        try:
            counts = fn()
        except Exception as exc:
            raise StageError(name, exc) from exc
        duration = time.monotonic() - t0
        hashes = _hash_files(outputs)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        writer.record(name, params_hash, input_hashes, hashes, duration, False,
                      {"counts": counts, "rss_high_water_mb": rss})
        return hashes

    # prune: acquire the input graph and apply the one-shot degree filter
    graph_params = {"graph": cfg.graph, "min_degree": cfg.min_degree, "seed": cfg.seed}
    ext_hash = {}
    if cfg.graph["kind"] == "edge_list":
        src_path = Path(cfg.graph["path"])
        if not src_path.exists():
            raise StageError("prune", FileNotFoundError(str(src_path)))
        ext_hash["edge_list"] = _hash_file(src_path)

    def do_prune():
        g = _build_graph(cfg)
        save_csr(g, graph_file)
        pruned = prune_low_degree(g, cfg.min_degree)
        save_csr(pruned, pruned_file)
        return {"nodes": g.num_nodes, "edges": g.num_edges, "nodes_kept": pruned.num_nodes,
                "edges_kept": pruned.num_edges}

    pruned = stage("prune", graph_params, ext_hash, {"graph.csr": graph_file, "pruned.csr": pruned_file}, do_prune)

    # sample
    def do_sample():
        stats = run_sampling(load_csr(pruned_file), cfg.sampler, records_dir)
        return {
            "total_walks": stats.total_walks,
            "num_records": stats.num_records,
            "dead_end_terminations": stats.dead_end_terminations,
        }

    sample_outputs = {"records/manifest.json": records_dir / "manifest.json"}
    for s in range(cfg.sampler.num_shards):
        p = shard_path(records_dir, s, cfg.sampler.num_shards)
        sample_outputs[f"records/{p.name}"] = p
    sampled = stage(
        "sample",
        cfg.sampler.to_dict(),
        {"pruned.csr": pruned["pruned.csr"]},
        sample_outputs,
        do_sample,
    )

    # train
    trainer_params = cfg_dict["trainer"]

    def do_train():
        num_nodes = read_manifest(records_dir)["num_nodes"]
        result = train_checkpoint(records_dir, cfg.trainer, num_nodes, ckpt_file, progress_file)
        return {"examples_processed": result.examples_processed, "worker_failures": result.worker_failures}

    trained = stage(
        "train",
        trainer_params,
        {"records/manifest.json": sampled["records/manifest.json"]},
        {"checkpoint.bin": ckpt_file},
        do_train,
    )

    # eval
    def do_eval():
        evaluate_checkpoint(load_csr(pruned_file), ckpt_file, eval_dir, cfg.eval, derive_seed(cfg.seed, "eval"))

    stage(
        "eval",
        asdict(cfg.eval),
        {"checkpoint.bin": trained["checkpoint.bin"], "pruned.csr": pruned["pruned.csr"]},
        {"eval/report.json": eval_dir / "report.json"},
        do_eval,
    )

    report = metrics_mod.read_report(eval_dir / "report.json")
    return PipelineResult(run_dir=run_dir, manifest=writer.manifest, skipped=skipped, report=report)


@dataclass
class RunSummary:
    name: str
    edge_snr: float
    mean_recall: float
    mean_edge_distance: float
    mean_non_edge_distance: float
    final_loss: float | None
    snr_within_trend: bool = True  # >= previous run's SNR - 5%


def _final_loss(run_dir: Path) -> float | None:
    path = run_dir / "progress.jsonl"
    if not path.exists():
        return None
    loss = None
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if "loss" in entry:
                loss = entry["loss"]
    return loss


def compare_runs(run_dirs: list[str | Path], out_csv: str | Path | None = None) -> list[RunSummary]:
    """Aligned metric table across runs, in argument order, each run's report
    read only if its SHA-256 is the one the run's manifest records for it.
    snr_within_trend flags whether each run's SNR is at least 95% of the
    previous run's, for budget-sweep monotonicity checks.
    """
    if len(run_dirs) < 2:
        raise ValidationError("compare_runs needs at least two run directories")
    rows: list[RunSummary] = []
    reports = []
    for d in run_dirs:
        d = Path(d)
        report_path = d / "eval" / "report.json"
        if not report_path.exists():
            raise ValidationError(f"{d}: missing eval report at {report_path}")
        recorded = _recorded_stages(d).get("eval", {}).get("output_hashes", {}).get("eval/report.json")
        if _hash_file(report_path) != recorded:
            raise ValidationError(f"{d}: {report_path} is not the report its manifest.json records")
        rep = metrics_mod.read_report(report_path)
        reports.append(rep)
        rows.append(
            RunSummary(
                name=d.name,
                edge_snr=rep.edge_snr,
                mean_recall=rep.mean_recall,
                mean_edge_distance=rep.mean_edge_distance,
                mean_non_edge_distance=rep.mean_non_edge_distance,
                final_loss=_final_loss(d),
            )
        )
    for i in range(1, len(rows)):
        rows[i].snr_within_trend = rows[i].edge_snr >= 0.95 * rows[i - 1].edge_snr
    if out_csv is not None:
        out_csv = Path(out_csv)
        out_csv.parent.mkdir(parents=True, exist_ok=True)
        with out_csv.open("w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["run", "edge_snr", "mean_recall", "mean_edge_distance",
                 "mean_non_edge_distance", "final_loss", "snr_within_trend"]
            )
            for r in rows:
                w.writerow(
                    [r.name, repr(r.edge_snr), repr(r.mean_recall), repr(r.mean_edge_distance),
                     repr(r.mean_non_edge_distance), "" if r.final_loss is None else repr(r.final_loss),
                     r.snr_within_trend]
                )
        # percentile columns side by side, one file per metric family
        for attr, name in metrics_mod.PERCENTILE_CSVS.items():
            metrics_mod._write_percentile_csv(
                out_csv.parent / f"compare_{name}", [r.name for r in rows], [getattr(rep, attr) for rep in reports]
            )
    return rows


def format_comparison(rows: list[RunSummary]) -> str:
    header = f"{'run':<24} {'edge_snr':>10} {'recall':>8} {'edge_d':>8} {'non_edge_d':>10} {'loss':>10} {'trend_ok':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        loss = f"{r.final_loss:.4f}" if r.final_loss is not None else "-"
        lines.append(
            f"{r.name:<24} {r.edge_snr:>10.4f} {r.mean_recall:>8.4f} "
            f"{r.mean_edge_distance:>8.4f} {r.mean_non_edge_distance:>10.4f} {loss:>10} {str(r.snr_within_trend):>8}"
        )
    return "\n".join(lines)
