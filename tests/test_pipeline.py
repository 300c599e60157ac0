import dataclasses
import hashlib
import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from walkembed import cores, pipeline
from walkembed.cli import main
from walkembed.errors import StageError, ValidationError
from walkembed.model import EmbeddingTable, FixedSgd, load_checkpoint
from walkembed.pipeline import (
    EvalParams,
    PipelineConfig,
    compare_runs,
    config_from_dict,
    config_to_dict,
    format_comparison,
    hash_json,
    load_pipeline_config,
    run_pipeline,
)
from walkembed.sampler import SamplerConfig
from walkembed.trainer import TrainConfig


SBM = {"kind": "sbm", "nodes": 120, "classes": 3, "p_in": 0.25, "p_out": 0.03}


def tiny_config_dict(run_dir, seed=5):
    return {
        "seed": seed,
        "run_dir": str(run_dir),
        "graph": dict(SBM),
        "min_degree": 2,
        "sampler": {"walks_per_node": 16, "walk_length": 3, "num_shards": 2},
        "trainer": {
            "dim": 8,
            "mode": "sync",
            "per_replica_batch_size": 32,
            "negatives_per_positive": 2,
            "num_replicas": 2,
            "steps": 40,
            "optimizer": {"kind": "fixed_sgd", "lr": 2.0},
        },
        "eval": {"non_edge_samples": 500, "recall_nodes": 30},
    }


class TestConfig:
    def test_round_trip_lossless(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "r"))
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_round_trip_with_schedule_and_weighting(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        d["trainer"]["optimizer"] = {
            "kind": "warmup_decay_sgd",
            "warmup_steps": 10,
            "peak_lr": 1.0,
            "decay_steps": 20,
            "final_lr": 0.1,
        }
        d["trainer"]["distance_weighting"] = [1.0, 0.5, 0.25]
        cfg = config_from_dict(d)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_stage_seeds_derived_not_settable(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        d["sampler"]["seed"] = 1
        with pytest.raises(ValidationError):
            config_from_dict(d)
        d = tiny_config_dict(tmp_path / "r")
        a = config_from_dict(d)
        assert a.sampler.seed != a.trainer.seed  # derived per stage

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError):
            config_from_dict({"seed": 1, "run_dir": "x"})
        with pytest.raises(ValidationError):
            config_from_dict({"seed": 1, "run_dir": "x", "graph": {"kind": "nope"}})
        with pytest.raises(ValidationError, match="^graph config missing 'classes'$"):
            config_from_dict({"seed": 1, "run_dir": "x", "graph": {"kind": "sbm", "nodes": 6, "p_in": 1, "p_out": 0}})

    @pytest.mark.parametrize("section, key", [("trainer", "stepz"), ("sampler", "walks"), ("eval", "recal_nodes")])
    def test_unknown_key_names_section_and_key(self, tmp_path, section, key):
        d = tiny_config_dict(tmp_path / "r")
        d[section][key] = 3
        with pytest.raises(ValidationError, match=f"unknown {section} config key\\(s\\): '{key}'"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("trainer", "steps", "10"),
            ("trainer", "steps", 2.5),
            ("trainer", "steps", True),
            ("sampler", "walks_per_node", "4"),
            ("eval", "recall_nodes", 30.0),
            ("pipeline", "seed", "5"),
        ],
    )
    def test_wrong_value_type_names_section_and_key(self, tmp_path, section, key, value):
        d = tiny_config_dict(tmp_path / "r")
        (d if section == "pipeline" else d[section])[key] = value
        with pytest.raises(ValidationError, match=f"{section} config key '{key}' must be"):
            config_from_dict(d)

    def test_train_config_value_types(self):
        with pytest.raises(ValidationError, match="trainer config key 'steps' must be int, got '10'"):
            TrainConfig.from_dict({"steps": "10"})
        with pytest.raises(ValidationError, match="trainer config key 'steps' must be int, got 2.5"):
            TrainConfig.from_dict({"steps": 2.5})
        with pytest.raises(ValidationError, match="optimizer config key 'lr' must be float, got True"):
            TrainConfig.from_dict({"optimizer": {"kind": "fixed_sgd", "lr": True}})
        with pytest.raises(ValidationError, match="trainer config must be an object, got \\[\\]"):
            TrainConfig.from_dict([])
        # an int passes for a float
        assert TrainConfig.from_dict({"optimizer": {"kind": "fixed_sgd", "lr": 2}}).optimizer == FixedSgd(2.0)

    @pytest.mark.parametrize("section, value", [("sampler", 5), ("graph", 5), ("trainer", []), ("eval", "x"), ("graph", [])])
    def test_section_not_an_object_named(self, tmp_path, section, value):
        d = tiny_config_dict(tmp_path / "r")
        d[section] = value
        with pytest.raises(ValidationError, match=re.escape(f"{section} config must be an object, got {value!r}")):
            config_from_dict(d)

    def test_unknown_top_level_key_named(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        d["min_degre"] = d.pop("min_degree")
        with pytest.raises(ValidationError, match="unknown pipeline config key\\(s\\): 'min_degre'"):
            config_from_dict(d)

    def test_unknown_graph_key_named(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        d["graph"] = {"kind": "edge_list", "path": "e.csv", "fromat": "csv"}
        with pytest.raises(ValidationError, match="unknown graph config key\\(s\\): 'fromat'"):
            config_from_dict(d)
        d["graph"] = {"kind": "preset", "name": "sbm-1k", "nodes": 10}
        with pytest.raises(ValidationError, match="unknown graph config key\\(s\\): 'nodes'"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "graph, message",
        [
            ({**SBM, "nodes": 60.9}, "'nodes' must be int, got 60.9"),
            ({**SBM, "classes": True}, "'classes' must be int, got True"),
            ({**SBM, "p_in": "0.3"}, "'p_in' must be float, got '0.3'"),
            ({**SBM, "p_out": None}, "'p_out' must be float, got None"),
            ({"kind": "preset", "name": 5}, "'name' must be str, got 5"),
            ({"kind": "edge_list", "path": 5}, "'path' must be str, got 5"),
            ({"kind": "edge_list", "path": "e.tsv", "format": 1}, "'format' must be str, got 1"),
            ({"kind": "edge_list", "path": "e.tsv", "format": "json"}, "'format' must be tsv or csv, got 'json'"),
        ],
    )
    def test_graph_value_types_named(self, tmp_path, graph, message):
        d = tiny_config_dict(tmp_path / "r")
        d["graph"] = graph
        with pytest.raises(ValidationError, match=re.escape(f"graph config key {message}")):
            config_from_dict(d)
        assert not (tmp_path / "r").exists()

    def test_graph_values_of_their_types_pass(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        for graph in (
            {**SBM, "p_in": 1, "p_out": 0},  # an int passes for a float
            {"kind": "preset", "name": "sbm-1k"},
            {"kind": "edge_list", "path": "e.csv", "format": "csv"},
            {"kind": "edge_list", "path": "e.tsv"},
        ):
            assert config_from_dict({**d, "graph": graph}).graph == graph

    def test_negative_global_seed_accepted(self, tmp_path):
        # the global seed only feeds derive_seed; every stage seed it gives is >= 0
        cfg = config_from_dict(tiny_config_dict(tmp_path / "r", seed=-1))
        assert cfg.seed == -1 and cfg.sampler.seed >= 0 and cfg.trainer.seed >= 0

    @pytest.mark.parametrize("key", ["dual_table", "table_dtype", "shuffle_buffer", "self_pair_filter"])
    def test_removed_trainer_keys_are_unknown(self, tmp_path, key):
        d = tiny_config_dict(tmp_path / "r")
        d["trainer"][key] = False
        with pytest.raises(ValidationError, match=f"unknown trainer config key\\(s\\): '{key}'"):
            config_from_dict(d)

    def test_walk_length_zero_rejected_before_running(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        d["sampler"]["walk_length"] = 0
        with pytest.raises(ValidationError):
            config_from_dict(d)
        assert not (tmp_path / "r").exists()

    def test_env_overrides(self, tmp_path):
        d = tiny_config_dict(tmp_path / "r")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(d))
        cfg = load_pipeline_config(
            path, env={"WALKEMBED_SEED": "99", "WALKEMBED_RUN_DIR": str(tmp_path / "other")}
        )
        assert cfg.seed == 99
        assert cfg.run_dir == str(tmp_path / "other")

    @pytest.mark.parametrize("seed, want", [(" 7\n", 7), ("+7", 7), ("0042", 42)])
    def test_env_seed_of_ascii_digits(self, tmp_path, seed, want):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config_dict(tmp_path / "r")))
        assert load_pipeline_config(path, env={"WALKEMBED_SEED": seed}).seed == want

    @pytest.mark.parametrize("seed", ["1_000", "\u0663", "\uff17", "+-7", "7 7", ""])
    def test_env_seed_of_other_forms_rejected(self, tmp_path, seed):
        # int() once read 1_000 as seed 1000 and an Arabic-Indic 3 as seed 3
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config_dict(tmp_path / "r")))
        with pytest.raises(ValidationError, match=f"^WALKEMBED_SEED must be an integer, got {re.escape(repr(seed))}$"):
            load_pipeline_config(path, env={"WALKEMBED_SEED": seed})


class TestRunPipeline:
    def test_end_to_end_four_stages(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        result = run_pipeline(cfg)
        names = [s["name"] for s in result.manifest["stages"]]
        assert names == ["prune", "sample", "train", "eval"]
        assert result.skipped == []
        assert result.report is not None
        for f in ("graph.csr", "pruned.csr", "checkpoint.bin", "progress.jsonl", "config.json"):
            assert (tmp_path / "run" / f).exists()

    def test_rerun_skips_everything(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        second = run_pipeline(cfg)
        assert second.skipped == ["prune", "sample", "train", "eval"]

    def test_train_stage_records_counts(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        first = run_pipeline(cfg)
        train = {s["name"]: s for s in first.manifest["stages"]}["train"]
        want = {"examples_processed": cfg.trainer.steps * cfg.trainer.global_batch_examples}
        assert train["counts"] == want
        on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert {s["name"]: s for s in on_disk["stages"]}["train"]["counts"] == want
        second = run_pipeline(cfg)
        assert second.skipped == ["prune", "sample", "train", "eval"]
        assert {s["name"]: s for s in second.manifest["stages"]}["train"]["counts"] == want

    def test_sample_stage_records_counts(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        first = run_pipeline(cfg)
        sample = {s["name"]: s for s in first.manifest["stages"]}["sample"]
        stats = json.loads((tmp_path / "run" / "records" / "manifest.json").read_text())["stats"]
        want = {k: stats[k] for k in ("total_walks", "num_records", "dead_end_terminations")}
        assert want["num_records"] > 0
        assert sample["counts"] == want
        second = run_pipeline(cfg)
        assert second.skipped == ["prune", "sample", "train", "eval"]
        assert {s["name"]: s for s in second.manifest["stages"]}["sample"]["counts"] == want

    def test_output_hashes_equal_on_two_threads_and_one(self, tmp_path, monkeypatch):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        before = threading.active_count()
        hashes = []
        for cpus in (2, 1):
            monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
            result = run_pipeline(cfg, force=True)
            hashes.append([s["output_hashes"] for s in result.manifest["stages"]])
            assert threading.active_count() == before
        assert hashes[0] == hashes[1]
        assert len(hashes[0][1]) == 1 + cfg.sampler.num_shards
        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        assert run_pipeline(cfg).skipped == ["prune", "sample", "train", "eval"]

    def test_checkpoint_digest_is_trainer_config_hash(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        _, _, digest = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        # the header holds the SHA-256 of the hex hash, seed included
        assert digest == hashlib.sha256(hash_json(cfg.trainer.to_dict()).encode()).digest()

    def test_force_reruns(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        assert run_pipeline(cfg, force=True).skipped == []

    def test_changed_trainer_reruns_downstream_only(self, tmp_path):
        d = tiny_config_dict(tmp_path / "run")
        run_pipeline(config_from_dict(d))
        d["trainer"]["steps"] = 50
        result = run_pipeline(config_from_dict(d))
        assert result.skipped == ["prune", "sample"]

    def test_train_stage_sized_by_its_records_manifest(self, tmp_path, monkeypatch):
        # the train stage's one declared input is the records manifest
        d = tiny_config_dict(tmp_path / "run")
        run_pipeline(config_from_dict(d))
        d["trainer"]["steps"] = 50
        loaded, real_load = [], pipeline.load_csr
        monkeypatch.setattr(pipeline, "load_csr", lambda path: loaded.append(path.name) or real_load(path))
        assert run_pipeline(config_from_dict(d)).skipped == ["prune", "sample"]
        assert loaded == ["pruned.csr"]  # the eval stage's
        table, steps, _ = load_checkpoint(tmp_path / "run" / "checkpoint.bin")
        assert steps == 50
        assert table.num_nodes == json.loads((tmp_path / "run" / "records" / "manifest.json").read_text())["num_nodes"]

    def test_each_artifact_hashed_once_per_run(self, tmp_path, monkeypatch):
        import walkembed.pipeline as pipeline_mod

        run_dir = tmp_path / "run"
        real = pipeline_mod._hash_file
        calls = []

        def counting(path):
            calls.append(path.relative_to(run_dir).as_posix())
            return real(path)

        monkeypatch.setattr(pipeline_mod, "_hash_file", counting)
        cfg = config_from_dict(tiny_config_dict(run_dir))
        first = run_pipeline(cfg, force=True)
        artifacts = sorted(k for s in first.manifest["stages"] for k in s["output_hashes"])
        assert len(artifacts) == 10  # graph, pruned, 2 shards, records manifest, checkpoint, report, 3 CSVs
        assert sorted(calls) == artifacts
        calls.clear()
        second = run_pipeline(cfg)
        assert second.skipped == ["prune", "sample", "train", "eval"]
        assert sorted(calls) == artifacts
        assert second.manifest["stages"] == [dict(s, skipped=True, duration_s=0.0) for s in first.manifest["stages"]]

    def test_determinism_bitwise(self, tmp_path):
        a = run_pipeline(config_from_dict(tiny_config_dict(tmp_path / "a")))
        b = run_pipeline(config_from_dict(tiny_config_dict(tmp_path / "b")))
        ckpt_a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
        ckpt_b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
        assert ckpt_a == ckpt_b
        rep_a = (tmp_path / "a" / "eval" / "report.json").read_bytes()
        rep_b = (tmp_path / "b" / "eval" / "report.json").read_bytes()
        assert rep_a == rep_b
        ha = [s["output_hashes"] for s in a.manifest["stages"]]
        hb = [s["output_hashes"] for s in b.manifest["stages"]]
        assert ha == hb

    def test_stage_failure_names_stage(self, tmp_path):
        d = tiny_config_dict(tmp_path / "run")
        d["graph"] = {"kind": "edge_list", "path": str(tmp_path / "missing.tsv")}
        with pytest.raises(StageError) as exc:
            run_pipeline(config_from_dict(d))
        assert exc.value.stage == "prune"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 3e38])
    def test_bad_checkpoint_row_fails_the_eval_stage(self, tmp_path, monkeypatch, bad):
        real = pipeline.save_checkpoint

        def save_with_bad_rows(path, table, *args):
            values = table.values.copy()
            values[[80, 11]] = bad
            real(path, EmbeddingTable(values), *args)

        monkeypatch.setattr(pipeline, "save_checkpoint", save_with_bad_rows)
        run_dir = tmp_path / "run"
        with pytest.raises(StageError) as exc:
            run_pipeline(config_from_dict(tiny_config_dict(run_dir)))
        assert exc.value.stage == "eval"
        assert isinstance(exc.value.__cause__, ValidationError)
        assert str(exc.value.__cause__) == "embedding row 11 is not finite or its norm overflows"
        assert not (run_dir / "eval" / "report.json").exists()
        stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
        assert [s["name"] for s in stages] == ["prune", "sample", "train"]

    @pytest.mark.parametrize("stage, patched", [("train", "train_sync"), ("eval", "evaluate_checkpoint")])
    def test_failed_rerun_leaves_no_stale_output(self, tmp_path, monkeypatch, stage, patched):
        run_dir = tmp_path / "run"
        d = tiny_config_dict(run_dir)
        run_pipeline(config_from_dict(d))
        assert (run_dir / "checkpoint.bin").exists() and (run_dir / "eval" / "report.json").exists()
        d["trainer" if stage == "train" else "eval"]["steps" if stage == "train" else "recall_nodes"] = 41

        def fail(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(pipeline, patched, fail)
        with pytest.raises(StageError) as exc:
            run_pipeline(config_from_dict(d))
        assert exc.value.stage == stage
        assert not (run_dir / "eval" / "report.json").exists()
        assert (run_dir / "checkpoint.bin").exists() == (stage == "eval")
        with pytest.raises(ValidationError, match="missing eval report"):
            compare_runs([run_dir, run_dir])
        monkeypatch.undo()
        rerun = run_pipeline(config_from_dict(d))
        assert rerun.skipped == ["prune", "sample"] + (["train"] if stage == "eval" else [])
        assert run_pipeline(config_from_dict(d)).skipped == ["prune", "sample", "train", "eval"]

    def test_edited_percentile_csv_reruns_eval(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        recall = tmp_path / "run" / "eval" / "recall.csv"
        original = recall.read_bytes()
        recall.write_text("Quantiles,embedding\n0.00,0.5\n")
        assert run_pipeline(cfg).skipped == ["prune", "sample", "train"]
        assert recall.read_bytes() == original

    def test_forced_rerun_with_failed_eval_leaves_no_eval_file(self, tmp_path, monkeypatch):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        assert all((tmp_path / "run" / f).exists() for f in EVAL_FILES)

        def fail(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(pipeline, "evaluate_checkpoint", fail)
        with pytest.raises(StageError) as exc:
            run_pipeline(cfg, force=True)
        assert exc.value.stage == "eval"
        assert list((tmp_path / "run" / "eval").iterdir()) == []

    def test_failed_train_rerun_leaves_no_progress_log(self, tmp_path, monkeypatch):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        progress = tmp_path / "run" / "progress.jsonl"
        assert progress.exists()

        def fail(*args, **kwargs):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(pipeline, "train_sync", fail)
        with pytest.raises(StageError) as exc:
            run_pipeline(cfg, force=True)
        assert exc.value.stage == "train"
        assert not progress.exists()
        monkeypatch.undo()
        assert run_pipeline(cfg).skipped == ["prune", "sample"]
        progress.unlink()  # a missing log reruns the train stage, and so eval
        assert run_pipeline(cfg).skipped == ["prune", "sample"]
        assert progress.exists()

    def test_stages_record_peak_rss_and_prune_counts(self, tmp_path):
        cfg = config_from_dict(dict(tiny_config_dict(tmp_path / "run"), min_degree=10))
        first = {s["name"]: s for s in run_pipeline(cfg).manifest["stages"]}
        peaks = [first[name]["rss_high_water_mb"] for name in ("prune", "sample", "train", "eval")]
        assert peaks == sorted(peaks) and peaks[0] > 0
        g = pipeline.load_csr(tmp_path / "run" / "graph.csr")
        pruned = pipeline.load_csr(tmp_path / "run" / "pruned.csr")
        assert first["prune"]["counts"] == {
            "nodes": g.num_nodes, "edges": g.num_edges, "nodes_kept": pruned.num_nodes, "edges_kept": pruned.num_edges
        }
        assert pruned.num_nodes < g.num_nodes
        second = run_pipeline(cfg)
        assert second.skipped == ["prune", "sample", "train", "eval"]
        assert second.manifest["stages"] == [dict(s, skipped=True, duration_s=0.0) for s in first.values()]

    def test_edge_list_ingestion(self, tmp_path):
        edges = tmp_path / "g.tsv"
        lines = [f"{i} {(i + 1) % 40}" for i in range(40)]
        lines += [f"{i} {(i + 7) % 40}" for i in range(40)]
        edges.write_text("\n".join(lines) + "\n")
        d = tiny_config_dict(tmp_path / "run")
        d["graph"] = {"kind": "edge_list", "path": str(edges), "format": "tsv"}
        d["trainer"]["steps"] = 10
        d["eval"] = {"non_edge_samples": 200, "recall_nodes": 10}
        result = run_pipeline(config_from_dict(d))
        assert result.report.edge_snr > 0


class TestCompareRuns:
    def make_runs(self, tmp_path, n=2):
        dirs = []
        for i in range(n):
            d = tiny_config_dict(tmp_path / f"run{i}", seed=5)
            d["trainer"]["steps"] = 30 + 10 * i
            run_pipeline(config_from_dict(d))
            dirs.append(tmp_path / f"run{i}")
        return dirs

    def test_two_runs_table(self, tmp_path):
        dirs = self.make_runs(tmp_path)
        rows = compare_runs(dirs, out_csv=tmp_path / "cmp" / "summary.csv")
        assert len(rows) == 2
        assert rows[0].name == "run0"
        assert rows[0].final_loss is not None
        text = format_comparison(rows)
        assert "run0" in text and "run1" in text
        summary = (tmp_path / "cmp" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        for f in ("compare_edge_distance.csv", "compare_non_edge_distance.csv", "compare_recall.csv"):
            lines = (tmp_path / "cmp" / f).read_text().splitlines()
            assert lines[0] == "Quantiles,run0,run1"
            assert len(lines) == 102

    def test_short_async_run_has_final_loss(self, tmp_path):
        # 24 micro-batches, fewer than the 50 between periodic progress entries
        run_pipeline(config_from_dict(tiny_config_dict(tmp_path / "sync")))
        d = tiny_config_dict(tmp_path / "async")
        d["trainer"].update(mode="async", num_workers=2, steps=24)
        del d["trainer"]["num_replicas"]
        run_pipeline(config_from_dict(d))
        lines = (tmp_path / "async" / "progress.jsonl").read_text().splitlines()
        assert [e["step"] for e in map(json.loads, lines) if "loss" in e] == [0, 23]
        rows = compare_runs([tmp_path / "sync", tmp_path / "async"])
        assert all(r.final_loss is not None for r in rows)
        assert " - " not in format_comparison(rows)

    def test_trend_column(self, tmp_path):
        dirs = self.make_runs(tmp_path, 3)
        rows = compare_runs(dirs)
        assert rows[0].snr_within_trend  # first row vacuously true
        for prev, cur in zip(rows, rows[1:]):
            assert cur.snr_within_trend == (cur.edge_snr >= 0.95 * prev.edge_snr)

    def test_single_run_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            compare_runs([tmp_path / "only"])

    def test_missing_report_named(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        with pytest.raises(ValidationError, match="missing eval report"):
            compare_runs([tmp_path / "a", tmp_path / "b"])

    def test_report_edited_after_the_run_rejected(self, tmp_path, capsys):
        dirs = self.make_runs(tmp_path)
        report = dirs[1] / "eval" / "report.json"
        report.write_text(json.dumps(dict(json.loads(report.read_text()), edge_snr=99.0)))
        with pytest.raises(ValidationError) as exc:
            compare_runs(dirs)
        assert str(exc.value) == f"{dirs[1]}: {report} is not the report its manifest.json records"
        assert main(["compare", str(dirs[0]), str(dirs[1])]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {exc.value}"]
        (dirs[0] / "manifest.json").unlink()  # a report with no recorded hash
        with pytest.raises(ValidationError, match=f"{dirs[0]}: .* is not the report its manifest.json records"):
            compare_runs(dirs)


def test_eval_params_validation():
    with pytest.raises(ValidationError):
        EvalParams(non_edge_samples=0)


def test_pipeline_config_direct_construction():
    cfg = PipelineConfig(
        seed=1,
        run_dir="x",
        graph={"kind": "preset", "name": "sbm-1k"},
        sampler=SamplerConfig(walks_per_node=4),
        trainer=TrainConfig(dim=4, steps=2, optimizer=FixedSgd(0.1)),
    )
    assert cfg.eval.recall_nodes == 100
    with pytest.raises(ValidationError):
        PipelineConfig(seed=1, run_dir="x", graph={"kind": "sbm"})


EVAL_FILES = ("eval/report.json", "eval/edge_distance.csv", "eval/non_edge_distance.csv", "eval/recall.csv")


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_manifest(cfg, skipped):
    """The run manifest as the stages define it, rebuilt from the run
    directory's files: each entry's parameter hash, input and output SHA-256
    and counts, without duration_s and rss_high_water_mb."""
    run_dir = Path(cfg.run_dir)
    g, pruned = pipeline.load_csr(run_dir / "graph.csr"), pipeline.load_csr(run_dir / "pruned.csr")
    records = json.loads((run_dir / "records" / "manifest.json").read_text())
    out = {k: sha256_file(run_dir / k) for k in ("graph.csr", "pruned.csr", "checkpoint.bin", *EVAL_FILES)}
    out["records/manifest.json"] = sha256_file(run_dir / "records" / "manifest.json")
    shards = {f"records/{f}": sha256_file(run_dir / "records" / f) for f in records["shard_files"]}
    stages = [
        ("prune", {"graph": cfg.graph, "min_degree": cfg.min_degree, "seed": cfg.seed}, {},
         {k: out[k] for k in ("graph.csr", "pruned.csr")},
         {"nodes": g.num_nodes, "edges": g.num_edges, "nodes_kept": pruned.num_nodes, "edges_kept": pruned.num_edges}),
        ("sample", cfg.sampler.to_dict(), {"pruned.csr": out["pruned.csr"]},
         {"records/manifest.json": out["records/manifest.json"], **shards},
         {k: records["stats"][k] for k in ("total_walks", "num_records", "dead_end_terminations")}),
        ("train", config_to_dict(cfg)["trainer"], {"records/manifest.json": out["records/manifest.json"]},
         {"checkpoint.bin": out["checkpoint.bin"]},
         {"examples_processed": cfg.trainer.steps * cfg.trainer.global_batch_examples}),
        ("eval", dataclasses.asdict(cfg.eval), {k: out[k] for k in ("checkpoint.bin", "pruned.csr")},
         {k: out[k] for k in EVAL_FILES}, None),
    ]
    entries = []
    for name, params, inputs, outputs, counts in stages:
        entry = {"name": name, "params_hash": sha256_json(params), "input_hashes": inputs,
                 "output_hashes": outputs, "skipped": name in skipped}
        entries.append(entry if counts is None else dict(entry, counts=counts))
    return {"config_hash": sha256_json(config_to_dict(cfg)), "stages": entries}


class TestRunManifest:
    def check(self, cfg, result, skipped):
        """The returned and written manifests are the same, and are the one
        the stages define, with a duration for each stage that ran and 0.0
        for each skipped one, and each stage's peak RSS."""
        on_disk = json.loads((Path(cfg.run_dir) / "manifest.json").read_text())
        assert on_disk == result.manifest
        assert result.skipped == skipped
        figures = [(s.pop("duration_s"), s.pop("rss_high_water_mb")) for s in on_disk["stages"]]
        assert on_disk == expected_manifest(cfg, skipped)
        for s, (duration, rss) in zip(on_disk["stages"], figures):
            assert (duration == 0.0) == s["skipped"] and duration >= 0.0 and rss > 0

    def test_fresh_skipped_forced_and_changed_runs(self, tmp_path):
        d = tiny_config_dict(tmp_path / "run")
        cfg = config_from_dict(d)
        self.check(cfg, run_pipeline(cfg), [])
        first = json.loads((tmp_path / "run" / "manifest.json").read_text())
        self.check(cfg, run_pipeline(cfg), ["prune", "sample", "train", "eval"])
        # a skipped stage keeps the previous run's peak RSS
        second = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert [s["rss_high_water_mb"] for s in second["stages"]] == [s["rss_high_water_mb"] for s in first["stages"]]
        self.check(cfg, run_pipeline(cfg, force=True), [])
        d["trainer"]["steps"] = 50
        changed = config_from_dict(d)
        self.check(changed, run_pipeline(changed), ["prune", "sample"])

    def test_force_reads_no_old_manifest(self, tmp_path, monkeypatch):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        reads = []
        real = pipeline._recorded_stages
        monkeypatch.setattr(pipeline, "_recorded_stages", lambda run_dir: reads.append(run_dir) or real(run_dir))
        self.check(cfg, run_pipeline(cfg, force=True), [])
        assert reads == []
        assert run_pipeline(cfg).skipped == ["prune", "sample", "train", "eval"]
        assert reads == [tmp_path / "run"]

    @pytest.mark.parametrize("field", ["params_hash", "input_hashes", "output_hashes"])
    def test_entry_lacking_a_field_reruns_its_stage(self, tmp_path, field):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["stages"][2][field]  # the train stage's
        path.write_text(json.dumps(manifest))
        # the rerun train stage removes the report, so eval runs again too
        self.check(cfg, run_pipeline(cfg), ["prune", "sample"])

    def test_report_edited_after_the_run_refused_then_rebuilt(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "run"))
        run_pipeline(cfg)
        report = tmp_path / "run" / "eval" / "report.json"
        original = report.read_bytes()
        report.write_text(json.dumps(dict(json.loads(original), edge_snr=99.0)))
        with pytest.raises(ValidationError, match="is not the report its manifest.json records"):
            compare_runs([cfg.run_dir, cfg.run_dir])
        self.check(cfg, run_pipeline(cfg), ["prune", "sample", "train"])
        assert report.read_bytes() == original
        assert len(compare_runs([cfg.run_dir, cfg.run_dir])) == 2
