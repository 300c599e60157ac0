"""End-to-end runs: prepare graph, sample, train, evaluate, compare.

A run directory holds every stage artifact plus manifest.json, one entry per
stage with its parameters' hash and its inputs' and outputs' SHA-256. A stage
whose recorded parameters and inputs match and whose recorded outputs still
hold (_outputs_hold) is skipped, making reruns idempotent; `compare_runs`
reads a report only if it holds the same way. Per-stage seeds are derived
from the single global seed, never set directly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import resource
import time
from dataclasses import asdict, dataclass, field, make_dataclass, replace
from pathlib import Path

from . import cores
from . import metrics as metrics_mod
from .errors import ParseError, StageError, ValidationError, check_keys, check_object, read_json
from .graph import Graph, load_csr, load_edge_list, prune_low_degree, save_csr
from .model import save_checkpoint
from .rng import derive_seed
from .sampler import SamplerConfig, run_sampling
from .shards import shard_path
from .sbm import SbmConfig, generate_sbm, preset_config
from .trainer import TrainConfig, TrainResult, train_async, train_sync

ENV_SEED = "WALKEMBED_SEED"
ENV_RUN_DIR = "WALKEMBED_RUN_DIR"

# graph kind -> its keys and their types, as check_keys reads them; only "format" may be left out
GRAPH_KEYS = {
    "sbm": make_dataclass("sbm", [("kind", str), ("nodes", int), ("classes", int), ("p_in", float), ("p_out", float)]),
    "preset": make_dataclass("preset", [("kind", str), ("name", str)]),
    "edge_list": make_dataclass("edge_list", [("kind", str), ("path", str), ("format", str, field(default="tsv"))]),
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
        if self.run_dir == "":  # Path("") is the working directory
            raise ValidationError("pipeline config key 'run_dir' must not be empty")
        if self.min_degree < 0:
            raise ValidationError("min_degree must be >= 0")
        check_object("graph", self.graph)
        kind = self.graph.get("kind")
        if kind not in GRAPH_KEYS:
            raise ValidationError(f"unknown graph kind {kind!r}")
        check_keys("graph", self.graph, GRAPH_KEYS[kind])
        if self.graph.get("format", "tsv") not in ("tsv", "csv"):
            raise ValidationError(f"graph config key 'format' must be tsv or csv, got {self.graph['format']!r}")


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
    raw = read_json(path)
    check_object("pipeline", raw)  # before an override writes into it
    if ENV_SEED in env:
        seed = env[ENV_SEED].strip()
        if not re.fullmatch("[+-]?[0-9]+", seed):  # int() also takes 1_000 and non-ASCII digits
            raise ValidationError(f"{ENV_SEED} must be an integer, got {env[ENV_SEED]!r}")
        raw["seed"] = int(seed)
    if ENV_RUN_DIR in env:
        raw["run_dir"] = env[ENV_RUN_DIR]
    return config_from_dict(raw)


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
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def train_checkpoint(
    records_dir: str | Path, cfg: TrainConfig, out: str | Path, *, log_path: str | Path | None = None
) -> TrainResult:
    """Train by cfg.mode from a records directory and save the table to
    `out`, with the hash of cfg.to_dict() as its config hash. train_sync and
    save_checkpoint are looked up in this module when called."""
    train = train_sync if cfg.mode == "sync" else train_async
    result = train(records_dir, cfg, log_path=log_path)
    save_checkpoint(out, result.table, cfg.steps, hash_json(cfg.to_dict()).encode())
    return result


def evaluate_checkpoint(
    g: Graph, checkpoint: str | Path, out_dir: str | Path, params: EvalParams, seed: int
) -> metrics_mod.MetricsReport:
    """compute_report on a checkpoint's table, written by write_report to
    out_dir; a report that cannot be computed writes nothing. The table is
    read by model.load_checkpoint and normalized in place in the array read
    (metrics.load_unit_table), so eval holds one table, never two."""
    table = metrics_mod.load_unit_table(checkpoint)
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
                n=src["nodes"],
                k=src["classes"],
                p_in=src["p_in"],
                p_out=src["p_out"],
                seed=gseed,
            )
        )
    return load_edge_list(src["path"], format=src.get("format", "tsv"))


def _recorded_stages(run_dir: Path) -> dict[str, dict]:
    """The stage entries of the run's manifest, by name; none without one.
    A manifest that is not an object whose stages are objects with a string
    name raises ValidationError naming it."""
    path = run_dir / "manifest.json"
    if not path.exists():
        return {}
    manifest = read_json(path)
    stages = manifest.get("stages") if isinstance(manifest, dict) else None
    if not isinstance(stages, list) or not all(isinstance(s, dict) and isinstance(s.get("name"), str) for s in stages):
        raise ValidationError(f"{path}: not a run manifest: stages must be a list of objects with a string name")
    return {s["name"]: s for s in stages}


def _outputs_hold(entry: dict, outputs: dict[str, Path]) -> dict[str, str] | None:
    """The outputs' hashes, by key, if each output exists and hashes to what
    the recorded stage entry holds for it; else None."""
    recorded = entry.get("output_hashes")
    if not isinstance(recorded, dict) or not all(path.exists() for path in outputs.values()):
        return None
    hashes = _hash_files(outputs)
    return hashes if all(recorded.get(k) == h for k, h in hashes.items()) else None


def run_pipeline(cfg: PipelineConfig, force: bool = False) -> PipelineResult:
    """Execute prune -> sample -> train -> eval inside cfg.run_dir.

    A stage is skipped where the run's manifest records the same parameters
    and input hashes for it and its recorded outputs still hold; under force
    no old manifest is read and every stage runs. Any failure raises
    StageError naming the stage. Each artifact is hashed once per run, on two
    threads where the process may use two CPUs; a stage's output hashes are
    the input hashes of later stages. Every file a stage writes is one of its
    outputs; the train stage's progress log, whose examples_per_sec varies
    from run to run, is not hashed, but must exist for a skip. A stage that
    runs first removes its outputs and the eval stage's, so a failed rerun
    leaves neither from the previous run. Each stage's entry is appended to
    the manifest, which is written after every stage. It holds the stage's
    work counts (nodes and edges before and after the prune, the sampler's
    walks, records and dead ends, training's examples processed) and the
    process's peak RSS at its end; a skipped stage keeps the previous run's.
    """
    run_dir = Path(cfg.run_dir)
    previous = {} if force else _recorded_stages(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_dict = config_to_dict(cfg)
    (run_dir / "config.json").write_text(json.dumps(cfg_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    manifest = {"config_hash": hash_json(cfg_dict), "stages": []}

    graph_file = run_dir / "graph.csr"
    pruned_file = run_dir / "pruned.csr"
    records_dir = run_dir / "records"
    ckpt_file = run_dir / "checkpoint.bin"
    progress_file = run_dir / "progress.jsonl"
    eval_dir = run_dir / "eval"
    eval_outputs = {f"eval/{f}": eval_dir / f for f in ("report.json", *metrics_mod.PERCENTILE_CSVS.values())}

    def stage(name, params, input_hashes, outputs, fn, logs=()) -> dict[str, str]:
        entry = {"name": name, "params_hash": hash_json(params), "input_hashes": input_hashes}
        prev = previous.get(name, {})
        t0 = time.monotonic()
        same_inputs = all(prev.get(k) == entry[k] for k in ("params_hash", "input_hashes"))
        hashes = _outputs_hold(prev, outputs) if same_inputs and all(p.exists() for p in logs) else None
        if hashes is not None:
            entry.update(output_hashes=hashes, duration_s=0.0, skipped=True)
            figures = {k: prev.get(k) for k in ("counts", "rss_high_water_mb")}
        else:
            for path in (*outputs.values(), *logs, *eval_outputs.values()):
                path.unlink(missing_ok=True)
            try:
                counts = fn()
            except Exception as exc:
                raise StageError(name, exc) from exc
            entry.update(duration_s=round(time.monotonic() - t0, 6), skipped=False, output_hashes=_hash_files(outputs))
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            figures = {"counts": counts, "rss_high_water_mb": rss}
        entry.update((k, v) for k, v in figures.items() if v is not None)
        manifest["stages"].append(entry)
        (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return entry["output_hashes"]

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
    sampled = stage("sample", cfg.sampler.to_dict(), {"pruned.csr": pruned["pruned.csr"]}, sample_outputs, do_sample)

    # train
    def do_train():
        result = train_checkpoint(records_dir, cfg.trainer, ckpt_file, log_path=progress_file)
        return {"examples_processed": result.examples_processed}

    trained = stage("train", cfg_dict["trainer"], {"records/manifest.json": sampled["records/manifest.json"]},
                    {"checkpoint.bin": ckpt_file}, do_train, logs=(progress_file,))

    # eval
    def do_eval():
        evaluate_checkpoint(load_csr(pruned_file), ckpt_file, eval_dir, cfg.eval, derive_seed(cfg.seed, "eval"))

    stage("eval", asdict(cfg.eval), {"checkpoint.bin": trained["checkpoint.bin"], "pruned.csr": pruned["pruned.csr"]},
          eval_outputs, do_eval)

    report = metrics_mod.read_report(eval_dir / "report.json")
    skipped = [s["name"] for s in manifest["stages"] if s["skipped"]]
    return PipelineResult(run_dir=run_dir, manifest=manifest, skipped=skipped, report=report)


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
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                entry = json.loads(line)
            except ValueError as e:
                raise ParseError(path, line_no, f"not JSON: {e}") from None
            if not isinstance(entry, dict):
                raise ParseError(path, line_no, f"not a JSON object: {entry!r}")
            loss = entry.get("loss", loss)
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
        if _outputs_hold(_recorded_stages(d).get("eval", {}), {"eval/report.json": report_path}) is None:
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
