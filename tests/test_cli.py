import hashlib
import json

import numpy as np
import pytest

from walkembed import pipeline
from walkembed.cli import main
from walkembed.graph import Graph, load_csr, load_edge_list, save_csr
from walkembed.model import EmbeddingTable, init_table, load_checkpoint, save_checkpoint
from walkembed.metrics import read_report


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def small_graph_file(tmp_path):
    path = tmp_path / "g.csr"
    code = run(
        "sbm", "--nodes", 150, "--classes", 3, "--p-in", 0.2, "--p-out", 0.03,
        "--seed", 4, "--out", path,
    )
    assert code == 0
    return path


class TestSbmCommand:
    def test_writes_csr(self, small_graph_file):
        g = load_csr(small_graph_file)
        assert g.num_nodes == 150

    def test_writes_edge_list(self, tmp_path):
        out = tmp_path / "g.tsv"
        assert run("sbm", "--nodes", 40, "--classes", 2, "--p-in", 0.5, "--p-out", 0.1,
                   "--seed", 1, "--out", out, "--format", "edgelist") == 0
        assert load_edge_list(out).num_edges > 0

    def test_preset(self, tmp_path):
        out = tmp_path / "p.csr"
        assert run("sbm", "--preset", "sbm-1k", "--seed", 2, "--out", out) == 0
        assert load_csr(out).num_nodes == 1000

    def test_missing_knobs_is_validation_error(self, tmp_path, capsys):
        assert run("sbm", "--nodes", 10, "--out", tmp_path / "x") == 1
        assert "error" in capsys.readouterr().err


class TestPruneSampleTrainEval:
    def test_full_manual_chain(self, tmp_path, small_graph_file):
        pruned = tmp_path / "pruned.csr"
        assert run("prune", "--graph", small_graph_file, "--min-degree", 2, "--out", pruned) == 0

        records = tmp_path / "records"
        assert run("sample", "--graph", pruned, "--out", records,
                   "--walks-per-node", 16, "--walk-length", 3,
                   "--num-shards", 2, "--seed", 3) == 0
        assert (records / "manifest.json").exists()

        tcfg = tmp_path / "train.json"
        tcfg.write_text(json.dumps({
            "per_replica_batch_size": 32,
            "negatives_per_positive": 2,
            "optimizer": {"kind": "fixed_sgd", "lr": 2.0},
        }))
        ckpt = tmp_path / "emb.bin"
        log = tmp_path / "progress.jsonl"
        assert run("train", "--records", records, "--graph", pruned,
                   "--mode", "sync", "--dim", 8, "--replicas", 2, "--steps", 30,
                   "--seed", 7, "--config", tcfg, "--out", ckpt, "--log", log) == 0
        table, step, digest = load_checkpoint(ckpt)
        assert step == 30
        assert table.dim == 8
        assert log.exists()
        # the header holds the hash of the config trained with
        assert digest != hashlib.sha256(b"").digest()
        assert run("train", "--records", records, "--graph", pruned,
                   "--mode", "sync", "--dim", 8, "--replicas", 2, "--steps", 31,
                   "--seed", 7, "--config", tcfg, "--out", tmp_path / "emb31.bin") == 0
        assert load_checkpoint(tmp_path / "emb31.bin")[2] != digest

        out = tmp_path / "eval"
        assert run("eval", "--graph", pruned, "--embedding", ckpt,
                   "--non-edge-samples", 400, "--recall-nodes", 20,
                   "--seed", 5, "--out", out) == 0
        report = read_report(out / "report.json")
        assert report.num_recall_nodes == 20

    def test_eval_zero_recall_nodes_exit_1(self, tmp_path, small_graph_file):
        ckpt = tmp_path / "emb.bin"
        save_checkpoint(ckpt, init_table(150, 8, seed=0), 0)
        assert run("eval", "--graph", small_graph_file, "--embedding", ckpt,
                   "--recall-nodes", 0, "--out", tmp_path / "eval") == 1
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("rows", [75, 750])
    def test_eval_row_count_mismatch_exit_1(self, tmp_path, small_graph_file, capsys, rows):
        ckpt = tmp_path / "emb.bin"
        save_checkpoint(ckpt, init_table(rows, 8, seed=0), 0)
        assert run("eval", "--graph", small_graph_file, "--embedding", ckpt,
                   "--out", tmp_path / "eval") == 1
        assert f"{rows} rows" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 3e38])
    def test_eval_bad_row_exit_1(self, tmp_path, small_graph_file, capsys, bad):
        table = init_table(150, 8, seed=0)
        table.values[[90, 5]] = bad
        ckpt = tmp_path / "emb.bin"
        save_checkpoint(ckpt, table, 0)
        capsys.readouterr()
        assert run("eval", "--graph", small_graph_file, "--embedding", ckpt,
                   "--out", tmp_path / "eval") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: embedding row 5 is not finite or its norm overflows"
        ]
        assert not (tmp_path / "eval" / "report.json").exists()

    @pytest.mark.parametrize("command", ["sbm", "sample", "train", "eval"])
    def test_negative_seed_named_exit_1(self, tmp_path, small_graph_file, capsys, command):
        records, ckpt = tmp_path / "records", tmp_path / "emb.bin"
        assert run("sample", "--graph", small_graph_file, "--out", records, "--walks-per-node", 2) == 0
        save_checkpoint(ckpt, init_table(150, 8, seed=0), 0)
        argv = {
            "sbm": ["--nodes", 40, "--classes", 2, "--p-in", 0.5, "--p-out", 0.1, "--out", tmp_path / "s.csr"],
            "sample": ["--graph", small_graph_file, "--out", tmp_path / "r"],
            "train": ["--records", records, "--graph", small_graph_file, "--dim", 8, "--steps", 2,
                      "--out", tmp_path / "t.bin"],
            "eval": ["--graph", small_graph_file, "--embedding", ckpt, "--out", tmp_path / "eval"],
        }[command]
        capsys.readouterr()
        assert run(command, *argv, "--seed", -1) == 1
        named = "eval seed" if command == "eval" else "seed"
        assert capsys.readouterr().err.splitlines() == [f"error: {named} must be >= 0, got -1"]
        assert not any((tmp_path / name).exists() for name in ("s.csr", "r", "t.bin", "eval"))

    @pytest.mark.parametrize("config", [{}, [], {"walk_length": 0}, {"walk_length": "3"}, {"walk_length": True}])
    def test_train_manifest_config_without_walk_length_exit_1(self, tmp_path, small_graph_file, capsys, config):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records,
                   "--walks-per-node", 4, "--seed", 3) == 0
        manifest = records / "manifest.json"
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), config=config)))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: config must be an object with an integer walk_length >= 1, got {config!r}"
        ]
        assert not ckpt.exists()

    @pytest.mark.parametrize("num_nodes, message", [
        (None, "{manifest}: no num_nodes"),
        (0, "{manifest}: num_nodes must be an integer >= 1, got 0"),
        ("150", "{manifest}: num_nodes must be an integer >= 1, got '150'"),
        (True, "{manifest}: num_nodes must be an integer >= 1, got True"),
        (150.0, "{manifest}: num_nodes must be an integer >= 1, got 150.0"),
        (151, "records in {records} were not sampled from {graph}"),
    ], ids=["missing", "zero", "string", "bool", "float", "another-size"])
    def test_train_manifest_num_nodes_checked_exit_1(self, tmp_path, small_graph_file, capsys, num_nodes, message):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records,
                   "--walks-per-node", 4, "--seed", 3) == 0
        manifest = records / "manifest.json"
        fields = dict(json.loads(manifest.read_text()), num_nodes=num_nodes)
        if num_nodes is None:
            del fields["num_nodes"]
        manifest.write_text(json.dumps(fields))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        want = message.format(manifest=manifest, records=records, graph=small_graph_file)
        assert capsys.readouterr().err.splitlines() == ["error: " + want]
        assert not ckpt.exists()

    @pytest.mark.parametrize("version", [2, None, True, "1"], ids=["2", "missing", "true", "string"])
    def test_train_manifest_format_version_checked_exit_1(self, tmp_path, small_graph_file, capsys, version):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records,
                   "--walks-per-node", 4, "--seed", 3) == 0
        manifest = records / "manifest.json"
        fields = json.loads(manifest.read_text())
        assert fields.pop("format_version") == 1
        if version is not None:
            fields["format_version"] = version
        manifest.write_text(json.dumps(fields))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        want = f"error: {manifest}: format_version {version!r}, but only 1 is read"
        assert capsys.readouterr().err.splitlines() == [want]
        assert not ckpt.exists()

    @pytest.mark.parametrize("files", [
        [0, 1], "ab", ["../rec/records-00000-of-00002.bin", "records-00001-of-00002.bin"],
        ["", "."], ["records-00000-of-00002.bin", ".."],
    ])
    def test_train_shard_files_not_plain_names_exit_1(self, tmp_path, small_graph_file, capsys, files):
        # "../rec/..." names a shard of another records directory that exists
        for out in ("records", "rec"):
            assert run("sample", "--graph", small_graph_file, "--out", tmp_path / out,
                       "--walks-per-node", 4, "--num-shards", 2, "--seed", 3) == 0
        manifest = tmp_path / "records" / "manifest.json"
        manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), shard_files=files)))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", tmp_path / "records", "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: shard_files must be a list of plain file names, got {files!r}"
        ]
        assert not ckpt.exists()

    def test_train_shard_listed_twice_exit_1(self, tmp_path, small_graph_file, capsys):
        # naming shard 0 twice once trained on shard 0's records twice and never read shard 1
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records, "--walks-per-node", 4,
                   "--num-shards", 2, "--seed", 3) == 0
        manifest = records / "manifest.json"
        fields = json.loads(manifest.read_text())
        fields["shard_files"] = [fields["shard_files"][0]] * 2
        manifest.write_text(json.dumps(fields))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {manifest}: shard_files lists 'records-00000-of-00002.bin' more than once"
        ]
        assert not ckpt.exists()

    @pytest.mark.parametrize("content, message", [
        (b"", "not JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff", "not JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"5", "not a JSON object, got 5"),
        (b"null", "not a JSON object, got None"),
        (b'"config"', "not a JSON object, got 'config'"),
    ], ids=["empty", "not-utf8", "number", "null", "string"])
    def test_train_records_manifest_not_a_json_object_exit_1(self, tmp_path, small_graph_file, capsys, content,
                                                              message):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records, "--walks-per-node", 4, "--seed", 3) == 0
        manifest = records / "manifest.json"
        manifest.write_bytes(content)
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {manifest}: {message}"]
        assert not ckpt.exists()

    def test_train_config_not_json_names_it_exit_1(self, tmp_path, small_graph_file, capsys):
        tcfg = tmp_path / "train.json"
        tcfg.write_text("{steps: 5}")
        ckpt = tmp_path / "emb.bin"
        assert run("train", "--records", tmp_path / "records", "--graph", small_graph_file,
                   "--config", tcfg, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tcfg}: not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ]
        assert not ckpt.exists()

    def test_train_records_from_another_graph_exit_1(self, tmp_path, small_graph_file, capsys):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records,
                   "--walks-per-node", 4, "--seed", 3) == 0
        other = tmp_path / "other.csr"
        assert run("sbm", "--nodes", 150, "--classes", 3, "--p-in", 0.2, "--p-out", 0.03,
                   "--seed", 5, "--out", other) == 0
        ckpt = tmp_path / "emb.bin"
        assert run("train", "--records", records, "--graph", other, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        assert "not sampled from" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_train_truncated_shard_exit_1(self, tmp_path, small_graph_file, capsys):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records,
                   "--walks-per-node", 4, "--num-shards", 2, "--seed", 3) == 0
        shard = records / "records-00000-of-00002.bin"
        record_size = len(shard.read_bytes()) // json.loads((records / "manifest.json").read_text())["record_counts"][0]
        shard.write_bytes(shard.read_bytes()[: 10 * record_size])
        ckpt = tmp_path / "emb.bin"
        assert run("train", "--records", records, "--graph", small_graph_file, "--dim", 8,
                   "--steps", 2, "--out", ckpt) == 1
        assert f"{shard}: 10 records" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_train_record_id_out_of_range_exit_1(self, tmp_path, small_graph_file, capsys, mode):
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records,
                   "--walks-per-node", 4, "--num-shards", 2, "--seed", 3) == 0
        shard = records / "records-00001-of-00002.bin"
        data = bytearray(shard.read_bytes())
        data[8:16] = (5000).to_bytes(8, "little")  # the first record's dest
        shard.write_bytes(bytes(data))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--mode", mode,
                   "--dim", 8, "--steps", 2, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {shard}: node id 5000 out of range [0, 150) of the table"
        ]
        assert not ckpt.exists()

    def test_train_optimizer_without_lr_exit_1(self, tmp_path, small_graph_file, capsys):
        tcfg = tmp_path / "train.json"
        tcfg.write_text(json.dumps({"optimizer": {"kind": "fixed_sgd"}}))
        ckpt = tmp_path / "emb.bin"
        assert run("train", "--records", tmp_path / "records", "--graph", small_graph_file,
                   "--config", tcfg, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == ["error: optimizer config missing 'lr'"]
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "optimizer, message",
        [
            ({"kind": "fixed_sgd", "lr": float("nan")}, "learning rate must be finite and positive, got nan"),
            ({"kind": "fixed_sgd", "lr": float("inf")}, "learning rate must be finite and positive, got inf"),
            (
                {"kind": "warmup_decay_sgd", "warmup_steps": 1, "peak_lr": float("inf"), "decay_steps": 1,
                 "final_lr": 0.1},
                "schedule requires finite peak_lr > final_lr > 0, got inf and 0.1",
            ),
        ],
    )
    def test_train_non_finite_rate_exit_1(self, tmp_path, small_graph_file, capsys, optimizer, message):
        # JSON reads NaN and Infinity; such a rate once trained to a table of non-finite rows
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records, "--walks-per-node", 4) == 0
        tcfg = tmp_path / "train.json"
        tcfg.write_text(json.dumps({"optimizer": optimizer, "dim": 8, "steps": 1}))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--config", tcfg, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, config, key, mode", [
        (["--mode", "async", "--replicas", 2], {}, "num_replicas", "async"),
        ([], {"mode": "sync", "num_workers": 4}, "num_workers", "sync"),
    ], ids=["async-replicas", "sync-workers"])
    def test_train_other_modes_count_exit_1(self, tmp_path, small_graph_file, capsys, flags, config, key, mode):
        # the mode does not read this count: it once trained one lane and exited 0
        records = tmp_path / "records"
        assert run("sample", "--graph", small_graph_file, "--out", records, "--walks-per-node", 4) == 0
        tcfg = tmp_path / "train.json"
        tcfg.write_text(json.dumps({**config, "dim": 8, "steps": 2, "optimizer": {"kind": "fixed_sgd", "lr": 0.1}}))
        ckpt = tmp_path / "emb.bin"
        capsys.readouterr()
        assert run("train", "--records", records, "--graph", small_graph_file, "--config", tcfg, *flags,
                   "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: trainer config key {key!r} is not read in {mode} mode and must be 1"
        ]
        assert not ckpt.exists()

    def test_train_config_not_an_object_with_a_flag_exit_1(self, tmp_path, small_graph_file, capsys):
        tcfg = tmp_path / "train.json"
        tcfg.write_text("[1]")
        ckpt = tmp_path / "emb.bin"
        assert run("train", "--records", tmp_path / "records", "--graph", small_graph_file,
                   "--config", tcfg, "--steps", 5, "--out", ckpt) == 1
        assert capsys.readouterr().err.splitlines() == ["error: trainer config must be an object, got [1]"]
        assert not ckpt.exists()

    # on the path 0-1-2-3: a target equal to num_nodes, and offsets[1] above offsets[2]
    @pytest.mark.parametrize("offsets, targets, message", [
        ([0, 1, 3, 5, 6], [1, 0, 2, 1, 4, 2], "row 2 holds target 4, outside [0, 4)"),
        ([0, 4, 3, 5, 6], [1, 0, 2, 1, 3, 2], "row 1 ends before it starts"),
    ])
    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_corrupt_csr_named_exit_1(self, tmp_path, capsys, command, offsets, targets, message):
        bad, ckpt = tmp_path / "bad.csr", tmp_path / "emb.bin"
        save_csr(Graph(4, 3, np.array(offsets), np.array(targets)), bad)
        save_checkpoint(ckpt, init_table(4, 8, seed=0), 0)
        argv = {
            "sample": ["--out", tmp_path / "records"],
            "eval": ["--embedding", ckpt, "--out", tmp_path / "eval"],
        }[command]
        capsys.readouterr()
        assert run(command, "--graph", bad, *argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
        assert not (tmp_path / "records").exists() and not (tmp_path / "eval").exists()

    def test_sample_walk_length_zero_exit_1(self, tmp_path, small_graph_file):
        assert run("sample", "--graph", small_graph_file, "--out", tmp_path / "r",
                   "--walk-length", 0) == 1

    def test_prune_id_outside_int64_exit_1(self, tmp_path, capsys):
        edges = tmp_path / "g.tsv"
        edges.write_text("0 1\n1 99999999999999999999\n")
        assert run("prune", "--graph", edges, "--out", tmp_path / "o.csr") == 1
        assert f"{edges}:2:" in capsys.readouterr().err
        assert not (tmp_path / "o.csr").exists()

    def test_prune_not_utf8_exit_1(self, tmp_path, capsys):
        edges = tmp_path / "g.tsv"
        edges.write_bytes(b"0 1\n\xff 2\n")
        assert run("prune", "--graph", edges, "--out", tmp_path / "o.csr") == 1
        assert f"{edges}:2: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "o.csr").exists()

    def test_missing_graph_exit_3(self, tmp_path):
        assert run("prune", "--graph", tmp_path / "nope.csr", "--out", tmp_path / "o") == 3


class TestPipelineCommand:
    def config(self, tmp_path):
        cfg = {
            "seed": 3,
            "run_dir": str(tmp_path / "run"),
            "graph": {"kind": "sbm", "nodes": 100, "classes": 2, "p_in": 0.3, "p_out": 0.05},
            "sampler": {"walks_per_node": 8, "walk_length": 2},
            "trainer": {
                "dim": 8, "per_replica_batch_size": 16, "negatives_per_positive": 2,
                "steps": 20, "optimizer": {"kind": "fixed_sgd", "lr": 1.0},
            },
            "eval": {"non_edge_samples": 300, "recall_nodes": 20},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_pipeline_and_compare(self, tmp_path, capsys):
        path = self.config(tmp_path)
        assert run("pipeline", "--config", path) == 0
        assert run("pipeline", "--config", path) == 0  # idempotent rerun
        out = capsys.readouterr().out
        assert "skipped" in out

        # second run with a different seed, then compare
        cfg = json.loads(path.read_text())
        cfg["seed"] = 4
        cfg["run_dir"] = str(tmp_path / "run2")
        path2 = tmp_path / "cfg2.json"
        path2.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", path2) == 0
        assert run("compare", tmp_path / "run", tmp_path / "run2",
                   "--out", tmp_path / "cmp.csv") == 0
        assert (tmp_path / "cmp.csv").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 3e38])
    def test_bad_checkpoint_row_fails_eval_exit_1(self, tmp_path, capsys, monkeypatch, bad):
        real = pipeline.save_checkpoint

        def save_with_bad_rows(path, table, *args):
            values = table.values.copy()
            values[[60, 5]] = bad
            real(path, EmbeddingTable(values), *args)

        monkeypatch.setattr(pipeline, "save_checkpoint", save_with_bad_rows)
        assert run("pipeline", "--config", self.config(tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: stage 'eval' failed: embedding row 5 is not finite or its norm overflows"
        ]
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        assert not (tmp_path / "run" / "eval" / "report.json").exists()

    def test_invalid_config_exit_1(self, tmp_path):
        path = self.config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["sampler"]["walk_length"] = 0
        path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", path) == 1

    @pytest.mark.parametrize("where", ["config", "env"])
    def test_empty_run_dir_exit_1_and_nothing_written(self, tmp_path, capsys, monkeypatch, where):
        # Path("") is the working directory: every stage's outputs would land there
        path = self.config(tmp_path)
        if where == "config":
            path.write_text(json.dumps(dict(json.loads(path.read_text()), run_dir="")))
        else:
            monkeypatch.setenv("WALKEMBED_RUN_DIR", "")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run("pipeline", "--config", path) == 1
        assert capsys.readouterr().err.splitlines() == ["error: pipeline config key 'run_dir' must not be empty"]
        assert list(cwd.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "cwd"]

    def test_config_section_not_an_object_exit_1(self, tmp_path, capsys):
        path = self.config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["sampler"] = 5
        path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", path) == 1
        assert capsys.readouterr().err.splitlines() == ["error: sampler config must be an object, got 5"]
        assert not (tmp_path / "run").exists()

    def test_config_not_an_object_with_an_env_override_exit_1(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text("[1]")
        monkeypatch.setenv("WALKEMBED_SEED", "3")
        assert run("pipeline", "--config", path) == 1
        assert capsys.readouterr().err.splitlines() == ["error: pipeline config must be an object, got [1]"]

    @pytest.mark.parametrize("seed", ["abc", "1.5", "1_000", "\u0663"])
    def test_bad_env_seed_named_exit_1(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.setenv("WALKEMBED_SEED", seed)
        assert run("pipeline", "--config", self.config(tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: WALKEMBED_SEED must be an integer, got {seed!r}"]
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        path = self.config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["trainer"]["stepz"] = 3
        path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", path) == 1
        assert "unknown trainer config key(s): 'stepz'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_graph_value_of_the_wrong_type_named_exit_1(self, tmp_path, capsys):
        path = self.config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["graph"]["nodes"] = 60.9
        path.write_text(json.dumps(cfg))
        assert run("pipeline", "--config", path) == 1
        assert capsys.readouterr().err.splitlines() == ["error: graph config key 'nodes' must be int, got 60.9"]
        assert not (tmp_path / "run").exists()

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run("pipeline", "--config", path) == 1

    def test_config_not_json_names_it_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("")
        assert run("pipeline", "--config", path) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: not JSON: Expecting value: line 1 column 1 (char 0)"
        ]

    @pytest.mark.parametrize("content", [
        b"[]", b"{}", b'{"stages": 5}', b'{"stages": [{}]}', b'{"stages": [{"name": 5}]}',
        b'{"stages": [{"name": "prune"}, 5]}', b"", b"\xff",
    ])
    def test_malformed_run_manifest_named_exit_1(self, tmp_path, capsys, content):
        path = self.config(tmp_path)
        assert run("pipeline", "--config", path) == 0
        manifest = tmp_path / "run" / "manifest.json"
        manifest.write_bytes(content)
        capsys.readouterr()
        for argv in (["pipeline", "--config", path], ["compare", tmp_path / "run", tmp_path / "run"]):
            assert run(*argv) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith(f"error: {manifest}: ")
        assert manifest.read_bytes() == content

    def test_force_over_malformed_run_manifest_runs_every_stage(self, tmp_path, capsys):
        path = self.config(tmp_path)
        assert run("pipeline", "--config", path) == 0
        manifest = tmp_path / "run" / "manifest.json"
        manifest.write_text("[]")
        capsys.readouterr()
        assert run("pipeline", "--config", path, "--force") == 0
        assert "ran ['prune', 'sample', 'train', 'eval'], skipped nothing" in capsys.readouterr().out
        assert [s["name"] for s in json.loads(manifest.read_text())["stages"]] == ["prune", "sample", "train", "eval"]

    def test_run_manifest_entry_with_only_a_name_reruns(self, tmp_path, capsys):
        path = self.config(tmp_path)
        assert run("pipeline", "--config", path) == 0
        (tmp_path / "run" / "manifest.json").write_text('{"stages": [{"name": "prune"}]}')
        capsys.readouterr()
        assert run("pipeline", "--config", path) == 0
        assert "ran ['prune', 'sample', 'train', 'eval'], skipped nothing" in capsys.readouterr().out

    @pytest.mark.parametrize("line, message", [
        ("{loss: 1}", "not JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("5", "not a JSON object: 5"),
    ])
    def test_compare_bad_progress_line_named_exit_1(self, tmp_path, capsys, line, message):
        path = self.config(tmp_path)
        assert run("pipeline", "--config", path) == 0
        progress = tmp_path / "run" / "progress.jsonl"
        lines = progress.read_text().splitlines()
        progress.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n")
        capsys.readouterr()
        assert run("compare", tmp_path / "run", tmp_path / "run") == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {progress}:2: {message}"]

    def test_missing_config_exit_3(self, tmp_path):
        assert run("pipeline", "--config", tmp_path / "none.json") == 3

    def test_compare_single_run_exit_1(self, tmp_path):
        assert run("compare", tmp_path / "only") == 1
