import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_graph
from walkembed import cores, model, trainer
from walkembed.errors import NumericError, ValidationError, check_ids
from walkembed.model import (
    EmbeddingTable,
    FixedSgd,
    WarmupDecaySchedule,
    init_table,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
)
from walkembed.rng import derive_seed
from walkembed.sampler import SamplerConfig, run_sampling
from walkembed.sbm import SbmConfig, generate_sbm
from walkembed.shards import load_all_records, read_manifest
from walkembed.trainer import (
    SHUFFLE_BUFFER,
    ExampleBatch,
    RecordStream,
    TrainConfig,
    build_batch,
    train_async,
    train_sync,
)

TABLE3_SCHEDULE = WarmupDecaySchedule(5000, 0.01, 100_000, 0.001)


def make_records(pairs_with_counts, walk_length=3):
    src = [p[0] for p in pairs_with_counts]
    dst = [p[1] for p in pairs_with_counts]
    return oracles.wire_records(src, dst, np.array([p[2] for p in pairs_with_counts]).reshape(-1, walk_length))


def make_stream(out_dir, records, cfg, seed=0):
    """The record stream training builds of the records, written to out_dir as one shard."""
    return RecordStream(oracles.index_records(oracles.write_records_dir(out_dir, records), cfg), seed)


def columns_of(positives):
    """The (src, dst, weight) columns of every position, read in order."""
    return positives.read(0, len(positives))


def load_positives(out_dir, records, cfg, num_nodes=10):
    """The (src, dst, weight) columns that training reads from the records."""
    return columns_of(oracles.index_records(oracles.write_records_dir(out_dir, records, num_nodes=num_nodes), cfg))


def set_num_nodes(records_dir, num_nodes):
    """The records directory, its manifest now naming a graph of num_nodes
    nodes, so that its shards load into a table of that many rows."""
    manifest = Path(records_dir) / "manifest.json"
    manifest.write_text(json.dumps(dict(json.loads(manifest.read_text()), num_nodes=num_nodes)))
    return records_dir


class TestSchedule:
    def test_anchor_values(self):
        assert TABLE3_SCHEDULE.lr_at(0) == 0.0
        assert TABLE3_SCHEDULE.lr_at(5000) == 0.01
        assert TABLE3_SCHEDULE.lr_at(55_000) == pytest.approx(0.0055, abs=0)
        assert TABLE3_SCHEDULE.lr_at(105_000) == 0.001
        assert TABLE3_SCHEDULE.lr_at(105_001) == 0.001
        assert TABLE3_SCHEDULE.lr_at(10_000_000) == 0.001

    def test_interpolation_formula(self):
        # midpoint of decay: peak - (peak-final) * (50000/100000)
        assert TABLE3_SCHEDULE.lr_at(55_000) == pytest.approx(0.01 - 0.009 * 0.5, rel=1e-12)

    @given(st.integers(0, 120_000))
    @settings(max_examples=200)
    def test_continuous_and_piecewise_linear(self, step):
        delta = abs(TABLE3_SCHEDULE.lr_at(step + 1) - TABLE3_SCHEDULE.lr_at(step))
        # steepest segment is the warmup ramp
        assert delta <= 0.01 / 5000 + 1e-15

    def test_validation(self):
        with pytest.raises(ValidationError):
            WarmupDecaySchedule(-1, 0.01, 10, 0.001)
        with pytest.raises(ValidationError):
            WarmupDecaySchedule(5, 0.001, 10, 0.01)  # peak below final
        with pytest.raises(ValidationError):
            FixedSgd(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rates_rejected(self, bad):
        # `lr <= 0` is false for NaN and inf, and `peak_lr > final_lr > 0`
        # holds for an infinite peak
        with pytest.raises(ValidationError, match="^learning rate must be finite and positive, got"):
            FixedSgd(bad)
        for peak, final in ((bad, 0.001), (0.01, bad), (bad, bad)):
            with pytest.raises(ValidationError, match="^schedule requires finite peak_lr > final_lr > 0, got"):
                WarmupDecaySchedule(5, peak, 10, final)
        with pytest.raises(ValidationError, match="finite and positive"):
            TrainConfig.from_dict({"optimizer": {"kind": "fixed_sgd", "lr": bad}})


class TestBuildBatch:
    def test_smallest_batch_layout(self, tmp_path):
        cfg = TrainConfig(dim=4, per_replica_batch_size=1, negatives_per_positive=3, steps=1)
        records = make_records([(0, 1, [2, 0, 0])])
        stream = make_stream(tmp_path, records, cfg)
        batch = build_batch(stream, cfg, np.random.default_rng(0), num_nodes=10)
        assert len(batch) == 4
        assert batch.src.tolist() == [0]  # one source row for the positive and its negatives
        assert batch.dst.shape == (1, 4)
        assert batch.dst[0, 0] == 1
        assert batch.weight.tolist() == [pytest.approx(2.0)]  # 2 * distance_weighting[0]

    def test_distance_weighting_applied(self, tmp_path):
        cfg = TrainConfig(
            dim=4,
            per_replica_batch_size=1,
            negatives_per_positive=0,
            steps=1,
            distance_weighting=(1.0, 0.5, 0.25),
        )
        records = make_records([(0, 1, [1, 2, 4])])
        stream = make_stream(tmp_path, records, cfg)
        batch = build_batch(stream, cfg, np.random.default_rng(0), num_nodes=4)
        assert batch.weight[0] == pytest.approx(1 + 1 + 1)

    def test_micro_batch_arithmetic_matches_formula(self, tmp_path):
        cfg = TrainConfig(dim=4, per_replica_batch_size=4096, negatives_per_positive=31, steps=1)
        assert cfg.micro_batch_examples == 4096 * 32 == 131_072
        records = make_records([(0, 1, [1, 0, 0]), (1, 2, [0, 2, 0])])
        stream = make_stream(tmp_path, records, cfg)
        batch = build_batch(stream, cfg, np.random.default_rng(1), num_nodes=3)
        assert len(batch) == 131_072
        assert batch.src.shape == batch.weight.shape == (4096,)
        assert batch.dst.shape == (4096, 32)

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_records_and_negative_draw_order(self, tmp_path, seed):
        rng = np.random.default_rng(100 + seed)
        b, k, n = int(rng.integers(1, 40)), int(rng.integers(0, 6)), int(rng.integers(2, 50))
        cfg = TrainConfig(dim=4, per_replica_batch_size=b, negatives_per_positive=k, steps=1)
        records = make_records([(i, (i + 1) % n, [1 + i % 3, 0, 0]) for i in range(n)])
        stream, twin = make_stream(tmp_path / "a", records, cfg, seed), make_stream(tmp_path / "b", records, cfg, seed)
        src, dst, w = oracles.prepare_positives(records, cfg)
        for _ in range(3):  # across epoch boundaries for the smaller streams
            batch = build_batch(stream, cfg, np.random.default_rng(seed), num_nodes=n)
            idx, _, _ = twin.take(b)  # each record's source is its position
            assert np.array_equal(batch.src, src[idx])
            assert np.array_equal(batch.dst[:, 0], dst[idx])
            assert np.array_equal(batch.weight, w[idx])
            want = np.random.default_rng(seed).integers(0, n, size=b * k, dtype=np.int64)
            assert np.array_equal(batch.dst[:, 1:].ravel(), want)

    def test_negatives_uniform_over_vocabulary(self, tmp_path):
        cfg = TrainConfig(dim=4, per_replica_batch_size=1000, negatives_per_positive=10, steps=1)
        records = make_records([(0, 1, [1, 0, 0])])
        stream = make_stream(tmp_path, records, cfg)
        rng = np.random.default_rng(5)
        counts = np.zeros(100, dtype=np.int64)
        for _ in range(100):
            batch = build_batch(stream, cfg, rng, num_nodes=100)
            counts += np.bincount(batch.dst[:, 1:].ravel(), minlength=100)
        total = int(counts.sum())
        assert total == 1_000_000
        for c in counts:
            assert oracles.within_binomial(int(c), total, 1 / 100)

    def test_self_pairs_filtered_by_default(self, tmp_path):
        cfg = TrainConfig(dim=4, per_replica_batch_size=2, negatives_per_positive=0, steps=1)
        records = make_records([(0, 0, [5, 0, 0]), (0, 1, [1, 0, 0])])
        src, dst, _ = load_positives(tmp_path, records, cfg)
        assert (src.tolist(), dst.tolist()) == ([0], [1])

    def test_zero_weight_records_dropped(self, tmp_path):
        cfg = TrainConfig(dim=4, steps=1, distance_weighting=(0.0, 1.0, 1.0))
        records = make_records([(0, 1, [3, 0, 0]), (1, 2, [0, 1, 0])])
        src, _, w = load_positives(tmp_path, records, cfg)
        assert src.tolist() == [1]
        assert np.all(w > 0)

    def test_weighting_length_must_match(self, tmp_path):
        cfg = TrainConfig(dim=4, steps=1, distance_weighting=(1.0, 1.0))
        with pytest.raises(ValidationError):
            load_positives(tmp_path, make_records([(0, 1, [1, 0, 0])]), cfg)

    def test_stream_epoch_covers_every_record_once(self, tmp_path):
        cfg = TrainConfig(dim=4, per_replica_batch_size=5, negatives_per_positive=0, steps=1)
        records = make_records([(i, i + 1, [1, 0, 0]) for i in range(20)])
        stream = make_stream(tmp_path, records, cfg, seed=3)
        seen = [stream.take(5)[0] for _ in range(4)]
        assert sorted(np.concatenate(seen).tolist()) == list(range(20))
        assert stream.epochs_completed == 1

    def test_empty_stream_rejected(self, tmp_path):
        cfg = TrainConfig(dim=4, steps=1)
        records = make_records([(0, 0, [1, 0, 0])])  # only a self-pair
        with pytest.raises(ValidationError):
            make_stream(tmp_path, records, cfg)


def zero_table(n, d, dtype=np.float64):
    return EmbeddingTable(np.zeros((n, d), dtype=dtype))


def batch_of(src, dst, weight):
    """A grouped batch; dst has one row of 1+k ids per source."""
    src = np.asarray(src, dtype=np.int64)
    return ExampleBatch(src, np.asarray(dst, dtype=np.int64).reshape(len(src), -1), np.asarray(weight, dtype=np.float32))


def random_batch(rng, n, max_p, max_k):
    """P in [1, max_p] sources over n ids, each with 1 + k destinations, k in [0, max_k]."""
    p, k = int(rng.integers(1, max_p + 1)), int(rng.integers(0, max_k + 1))
    return batch_of(rng.integers(0, n, p), rng.integers(0, n, (p, 1 + k)), rng.uniform(0.5, 3.0, p))


def concat(parts):
    """Replica parts joined along axis 0, as a training step joins them."""
    return ExampleBatch(*(np.concatenate([getattr(b, f) for b in parts]) for f in ("src", "dst", "weight")))


def flat_reference(values, batch):
    """oracles.loss_and_grad_reference on the flat layout of a grouped batch."""
    p, width = batch.dst.shape
    first = np.arange(width) == 0
    return oracles.loss_and_grad_reference(
        values,
        np.repeat(batch.src, width),
        batch.dst.ravel(),
        np.where(first, batch.weight[:, None], 1.0).ravel(),
        np.tile(first, p),
    )


def dense_grad(grad, values):
    dense = np.zeros_like(values)
    dense[grad.ids] = grad.values
    return dense


class TestLossAndGrad:
    def test_zero_embedding_identity(self):
        loss, _ = loss_and_grad(zero_table(2, 4), batch_of([0], [1], [1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_pos_plus_neg_mean_reduction(self):
        loss, _ = loss_and_grad(zero_table(2, 4), batch_of([0], [[1, 1]], [1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_weighted_positive_scales_loss(self):
        loss, _ = loss_and_grad(zero_table(2, 4), batch_of([0], [1], [3.0]))
        assert loss == pytest.approx(3 * np.log(2.0), rel=1e-12)

    def test_len_counts_examples(self):
        assert len(batch_of([0, 1, 2], np.zeros((3, 5)), np.ones(3))) == 15

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, d = int(rng.integers(3, 20)), int(rng.integers(2, 16))
            batch = random_batch(rng, n, max_p=5, max_k=3)
            values = rng.normal(0, 0.3, (n, d))
            _, grad = loss_and_grad(EmbeddingTable(values.copy()), batch)
            fd = oracles.finite_difference_grad(
                lambda v: loss_and_grad(EmbeddingTable(v), batch)[0], values.copy()
            )
            rel = np.linalg.norm(dense_grad(grad, values) - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4

    @pytest.mark.parametrize("k", [0, 1, 3, 7])
    def test_grouped_equals_flat_reference(self, k):
        # float64 tables; sources repeat across rows (n is small) and the
        # batch is R parts concatenated like a training step's
        rng = np.random.default_rng(40 + k)
        for _ in range(10):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
            parts = [
                batch_of(rng.integers(0, n, p), rng.integers(0, n, (p, 1 + k)), rng.uniform(0.5, 3.0, p))
                for p in rng.integers(1, 9, size=int(rng.integers(1, 4)))
            ]
            batch = concat(parts)
            values = rng.normal(0, 0.5, (n, d))
            got_loss, got = loss_and_grad(EmbeddingTable(values), batch)
            loss, grad = flat_reference(values, batch)
            assert got_loss == pytest.approx(loss, rel=1e-12)
            # rtol 1e-12 of each entry, with the summation-order floor of
            # entries that cancel set at 1e-12 of the largest entry
            np.testing.assert_allclose(dense_grad(got, values), grad, rtol=1e-12, atol=1e-12 * np.abs(grad).max())
            touched = np.unique(np.concatenate([batch.src, batch.dst.ravel()]))
            assert np.array_equal(got.ids, touched)

    def test_scatter_bitwise_equals_2d_add_at(self):
        # 1000 sources with 1+3 destinations over 12 ids: every row receives
        # hundreds of additions on both sides
        rng = np.random.default_rng(8)
        n, d, p, width = 12, 16, 1000, 4
        batch = batch_of(rng.integers(0, n, p), rng.integers(0, n, (p, width)), rng.uniform(0.5, 2, p))
        main = rng.normal(0, 0.5, (n, d)).astype(np.float32)
        _, grad = loss_and_grad(EmbeddingTable(main), batch)

        # the grouped contributions scattered row by row with the 2-D np.add.at
        m = p * width
        w = np.ones((p, width), dtype=np.float32)
        w[:, 0] = batch.weight
        sign = np.array([1.0] + [-1.0] * (width - 1), dtype=np.float32)
        uids, inv = np.unique(np.concatenate([batch.src, batch.dst.ravel()]), return_inverse=True)
        iu, iv = inv[:p], inv[p:]
        e_src, e_dst = main[uids][iu], main[uids][iv].reshape(p, width, d)
        scores = np.einsum("pd,pwd->pw", e_src, e_dst)
        coef = (w * sign * (np.exp(-np.logaddexp(0.0, -sign * scores)) - 1.0) / m).astype(np.float32)
        acc = np.zeros((len(uids), d), dtype=np.float32)
        np.add.at(acc, iu, np.einsum("pw,pwd->pd", coef, e_dst))
        np.add.at(acc, iv, (coef[:, :, None] * e_src[:, None, :]).reshape(m, d))
        assert np.array_equal(grad.values, acc)

    def test_int32_ids_give_the_int64_gradient_bitwise(self):
        # 17-bit ids and 20 480 scattered rows (15 shift bits) overflow a key packed in int32
        rng = np.random.default_rng(9)
        n, p, width = 70_000, 4096, 4
        table = EmbeddingTable(rng.normal(0, 0.5, (n, 4)).astype(np.float32))
        wide = batch_of(rng.integers(n - 2000, n, p), rng.integers(0, n, (p, width)), rng.uniform(0.5, 2, p))
        narrow = ExampleBatch(wide.src.astype(np.int32), wide.dst.astype(np.int32), wide.weight)
        with ThreadPoolExecutor(max_workers=1) as pool:
            for two_halves in (None, pool):
                want_loss, want = loss_and_grad(table, wide, two_halves)
                loss, got = loss_and_grad(table, narrow, two_halves)
                assert loss == want_loss
                assert got.ids.dtype == want.ids.dtype and np.array_equal(got.ids, want.ids)
                assert got.values.tobytes() == want.values.tobytes()

    def test_grad_only_touches_batch_rows(self):
        rng = np.random.default_rng(1)
        table = EmbeddingTable(rng.normal(size=(10, 4)))
        _, grad = loss_and_grad(table, batch_of([2, 3], [[3, 5], [2, 3]], [1, 1]))
        assert grad.ids.tolist() == [2, 3, 5]

    def test_id_out_of_range(self):
        with pytest.raises(IndexError):
            loss_and_grad(zero_table(2, 4), batch_of([0], [2], [1.0]))
        with pytest.raises(IndexError):
            loss_and_grad(zero_table(2, 4), batch_of([-1], [0], [1.0]))
        with pytest.raises(IndexError, match="node id 7"):
            loss_and_grad(zero_table(2, 4), batch_of([0, 1], [[1, 0], [0, 7]], [1.0, 1.0]))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError, match="empty batch"):
            empty = np.zeros(0, dtype=np.int64)
            loss_and_grad(zero_table(2, 4), ExampleBatch(empty, empty.reshape(0, 4), empty.astype(np.float32)))

    def test_non_finite_loss_names_row(self):
        table = zero_table(3, 4)
        table.values[1] = np.inf
        table.values[2] = -1.0  # score -> -inf, positive loss -> +inf
        with pytest.raises(NumericError, match="source row 1"):
            loss_and_grad(table, batch_of([1], [2], [1.0]))
        # a negative's loss names the source of its row
        with pytest.raises(NumericError, match="source row 1"):
            loss_and_grad(table, batch_of([2, 1], [[2, 2], [1, 1]], [1.0, 1.0]))

    def test_non_finite_loss_in_both_halves_names_the_first_source_row(self):
        # halves [5, 7] and [3, 6]: both hold an infinite source row, and the
        # first in batch order is named, as on one thread, though 3 < 7
        table = zero_table(10, 4)
        table.values[[3, 7]] = np.inf
        table.values[9] = -1.0  # the score of an infinite source is -inf, its loss +inf
        batch = batch_of([5, 7, 3, 6], np.full(4, 9), np.ones(4))
        with ThreadPoolExecutor(max_workers=1) as pool:
            for two_halves in (None, pool):
                with pytest.raises(NumericError, match="source row 7$"):
                    loss_and_grad(table, batch, two_halves)

    def test_finite_terms_whose_sum_overflows_raise(self):
        table = EmbeddingTable(np.array([[1e154], [-1e154]]))  # each score -1e308, each loss term 1e308
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="sum of its finite terms overflows"):
            loss_and_grad(table, batch_of([0, 0], [1, 1], [1.0, 1.0]))


def add_at_reference(ids, contrib):
    """The ascending unique ids and their rows summed by the 2-D np.add.at into zeros."""
    uids, inv = np.unique(ids, return_inverse=True)
    acc = np.zeros((len(uids), contrib.shape[1]), dtype=contrib.dtype)
    np.add.at(acc, inv.ravel(), contrib)
    return uids, acc


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestSumRowsById:
    def check(self, ids, contrib):
        want_ids, want = add_at_reference(ids, contrib)
        with ThreadPoolExecutor(max_workers=1) as pool:
            for two_halves in (None, pool):
                uids, acc = model._sum_rows_by_id(np.asarray(ids, dtype=np.int64), contrib, two_halves)
                assert np.array_equal(uids, want_ids)
                assert acc.dtype == contrib.dtype
                assert acc.tobytes() == want.tobytes()

    def test_one_id_in_every_entry(self, dtype):
        # m rows of one id: one rank pass per row after the first
        rng = np.random.default_rng(1)
        self.check(np.full(300, 4), rng.normal(size=(300, 6)).astype(dtype))

    def test_all_ids_distinct(self, dtype):
        rng = np.random.default_rng(2)
        self.check(rng.permutation(1000)[:257], rng.normal(size=(257, 6)).astype(dtype))

    @pytest.mark.parametrize("p, k", [(1, 3), (1, 0), (64, 0), (200, 7)])
    def test_batch_layouts(self, dtype, p, k):
        # ids laid out as a step's: P sources, then P rows of 1+k destinations
        rng = np.random.default_rng(3 + p + k)
        ids = np.concatenate([rng.integers(0, 20, p), rng.integers(0, 20, p * (1 + k))])
        self.check(ids, rng.normal(size=(len(ids), 5)).astype(dtype))

    def test_signed_zeros(self, dtype):
        # a lone -0.0 becomes +0.0 (0 + -0.0), as it does in the sum into zeros
        contrib = np.array([[-0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]], dtype=dtype)
        self.check([2, 0, 2, 1], contrib)
        _, acc = model._sum_rows_by_id(np.array([2, 0, 2, 1]), contrib)
        assert not np.signbit(acc).any()

    def test_nan_and_inf_rows(self, dtype):
        # ids 0 and 1 are the first half of the unique ids, 2 and 3 the second
        ids = np.array([0, 1, 0, 2, 1, 2, 0, 1, 3])
        finite = np.random.default_rng(4).normal(size=(9, 3)).astype(dtype)
        big = np.finfo(dtype).max
        cases = [
            ({2: np.nan}, 0),  # first half only
            ({8: np.nan}, 3),  # second half only
            ({3: np.inf}, 2),
            ({4: np.inf, 7: -np.inf}, 1),  # inf + -inf in id 1's sum
            ({1: big, 4: big}, 1),  # finite rows whose sum overflows
            ({8: -np.inf, 5: np.nan, 2: np.inf}, 0),  # both halves: the smallest id is named
        ]
        with ThreadPoolExecutor(max_workers=1) as pool:
            for bad, named in cases:
                contrib = finite.copy()
                for row, x in bad.items():
                    contrib[row, 1] = x
                for two_halves in (None, pool):
                    with np.errstate(invalid="ignore", over="ignore"):
                        with pytest.raises(NumericError, match=f"non-finite gradient for row {named}$"):
                            model._sum_rows_by_id(ids, contrib, two_halves)

    def test_keys_near_two_to_the_62(self, dtype):
        big = 2**62
        contrib = np.arange(6, dtype=dtype).reshape(3, 2)
        # a span below 2**61 with 3 rows (2 shift bits) fits in 63 bits
        self.check([2**61 - 1, 5, 2**61 - 1], contrib)
        self.check([big], contrib[:1])  # one row: no shift
        self.check([big, big - 1, big], contrib)  # a span of 1: keys are relative to the smallest id
        with pytest.raises(ValidationError, match=f"ids spanning {2**61} at 3 positions do not fit int64 sort keys"):
            model._sum_rows_by_id(np.array([2**61, 5, 0]), contrib)


def training_records(out_dir, n=30, seed=0):
    """Cycle graph style records, enough to stream from, as a records directory."""
    rng = np.random.default_rng(seed)
    pairs = [(i, (i + 1) % n, [int(rng.integers(1, 5)), 1, 0]) for i in range(n)]
    pairs += [(i, (i + 2) % n, [0, 1, 1]) for i in range(n)]
    return oracles.write_records_dir(out_dir, make_records(pairs), num_nodes=n)


@pytest.fixture
def records(tmp_path):
    return training_records(tmp_path / "records")


def whole_set_stream(records_dir, cfg):
    """train_sync's record stream, built from the whole record set written as one shard."""
    whole = Path(records_dir).parent / "whole"
    return make_stream(whole, load_all_records(records_dir)[0], cfg, derive_seed(cfg.seed, "stream"))


class TestTrainSync:
    def cfg(self, **kw):
        base = dict(
            dim=8,
            mode="sync",
            per_replica_batch_size=8,
            negatives_per_positive=2,
            num_replicas=2,
            steps=12,
            optimizer=FixedSgd(0.5),
            seed=11,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_single_replica_equals_plain_minibatch_sgd(self, records):
        cfg = self.cfg(num_replicas=1)
        result = train_sync(records, cfg)
        # hand-rolled reference loop with the same stream and rng construction
        table = init_table(30, cfg.dim, derive_seed(cfg.seed, "init"))
        stream = whole_set_stream(records, cfg)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xB0)))
        for step in range(cfg.steps):
            _, grad = loss_and_grad(table, build_batch(stream, cfg, rng, 30))
            table.values[grad.ids] -= cfg.optimizer.lr * grad.values
        assert np.array_equal(result.table.values, table.values)

    def test_identical_replica_batches_match_single_big_batch(self):
        # linearity: averaging R copies of one micro-grad == grad of the
        # R-times-repeated batch under mean reduction
        rng = np.random.default_rng(2)
        table = EmbeddingTable(rng.normal(size=(12, 6)))
        batch = random_batch(rng, 12, max_p=6, max_k=3)
        single_loss, single = loss_and_grad(table, batch)
        big_loss, big = loss_and_grad(table, concat([batch] * 4))
        assert np.array_equal(single.ids, big.ids)
        np.testing.assert_allclose(single.values, big.values, rtol=1e-12)
        assert single_loss == pytest.approx(big_loss, rel=1e-12)

    def test_deterministic_given_seed(self, records):
        a = train_sync(records, self.cfg())
        b = train_sync(records, self.cfg())
        assert np.array_equal(a.table.values, b.table.values)

    def test_step_equals_mean_of_replica_gradients(self, monkeypatch, records):
        import walkembed.trainer as trainer_mod

        cfg = self.cfg(num_replicas=3, steps=1)
        seen = []

        def spy(table, batch, *args):
            out = loss_and_grad(table, batch, *args)
            seen.append(out)
            return out

        monkeypatch.setattr(trainer_mod, "loss_and_grad", spy)
        table = EmbeddingTable(init_table(30, cfg.dim, derive_seed(cfg.seed, "init")).values.astype(np.float64))
        result = train_sync(records, cfg, table=EmbeddingTable(table.values.copy()))

        # reference: one gradient per replica micro-batch, merged by a
        # fixed-order sum of the rows scaled by 1/R
        stream = whole_set_stream(records, cfg)
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xB0)))
        micro = replace(cfg, num_replicas=1)
        replicas = [loss_and_grad(table, build_batch(stream, micro, rng, 30)) for _ in range(3)]
        ids, inv = np.unique(np.concatenate([g.ids for _, g in replicas]), return_inverse=True)
        merged = np.zeros((len(ids), cfg.dim))
        np.add.at(merged, inv, np.concatenate([g.values for _, g in replicas]))
        merged /= 3

        ((loss, step),) = seen
        assert np.array_equal(step.ids, ids)
        np.testing.assert_allclose(step.values, merged, rtol=1e-12, atol=0)
        assert loss == pytest.approx(np.mean([r_loss for r_loss, _ in replicas]), rel=1e-12)
        table.values[ids] -= cfg.optimizer.lr * merged
        np.testing.assert_allclose(result.table.values, table.values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("replicas", [1, 2, 5])
    def test_one_gradient_call_per_step(self, monkeypatch, replicas, records):
        import walkembed.trainer as trainer_mod

        sizes = []

        def counting(table, batch, *args):
            sizes.append(len(batch))
            return loss_and_grad(table, batch, *args)

        monkeypatch.setattr(trainer_mod, "loss_and_grad", counting)
        cfg = self.cfg(num_replicas=replicas, steps=7)
        train_sync(records, cfg)
        assert sizes == [cfg.global_batch_examples] * 7

    def test_one_batch_of_all_replicas_per_step(self, monkeypatch, records):
        real = trainer.build_batch
        positives = []

        def spy(stream, cfg, rng, num_nodes):
            batch = real(stream, cfg, rng, num_nodes)
            positives.append(len(batch.src))
            return batch

        monkeypatch.setattr(trainer, "build_batch", spy)
        cfg = self.cfg(num_replicas=3, steps=7)
        train_sync(records, cfg)
        assert positives == [3 * cfg.per_replica_batch_size] * 7

    def test_bitwise_equal_to_concatenated_replica_batches(self, records):
        # the loop before one batch per step: R micro-batches of B positives,
        # each taken and given its negatives in turn, then concatenated; odd
        # B and k, and 40 steps over 60 records cross many epochs
        cfg = self.cfg(num_replicas=3, per_replica_batch_size=7, negatives_per_positive=3, steps=40)
        result = train_sync(records, cfg)

        def micro_batch(stream, rng):
            src, dst, weight = stream.take(cfg.per_replica_batch_size)
            negs = rng.integers(0, 30, size=(len(src), cfg.negatives_per_positive), dtype=np.int64)
            return ExampleBatch(src, np.column_stack([dst, negs]), weight)

        table = init_table(30, cfg.dim, derive_seed(cfg.seed, "init"))
        stream = RecordStream(oracles.index_records(records, cfg), derive_seed(cfg.seed, "stream"))
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xB0)))
        for step in range(cfg.steps):
            _, grad = loss_and_grad(table, concat([micro_batch(stream, rng) for _ in range(cfg.num_replicas)]))
            grad.apply(table, cfg.optimizer.lr_at(step))
        assert result.table.values.tobytes() == table.values.tobytes()

    def test_untouched_rows_bitwise_stable(self, tmp_path):
        # no negatives, records confined to ids {0, 1}
        records = oracles.write_records_dir(tmp_path, make_records([(0, 1, [2, 0, 0])]), num_nodes=10)
        cfg = self.cfg(per_replica_batch_size=4, negatives_per_positive=0, steps=3)
        table = init_table(10, cfg.dim, 5)
        before = table.values.copy()
        train_sync(records, cfg, table)
        assert not np.array_equal(before[:2], table.values[:2])
        assert np.array_equal(before[2:], table.values[2:])

    def test_loss_trends_down(self, records, monkeypatch):
        monkeypatch.setattr(trainer, "LOG_EVERY", 10)
        result = train_sync(records, self.cfg(steps=300, optimizer=FixedSgd(8.0)))
        losses = [e["loss"] for e in result.log if "loss" in e]
        k = max(1, len(losses) // 10)
        assert np.mean(losses[-k:]) < np.mean(losses[:k])

    def test_mode_mismatch_rejected(self, records):
        with pytest.raises(ValidationError, match="^train_sync requires cfg.mode == 'sync'$"):
            train_sync(records, self.cfg(mode="async", num_replicas=1, optimizer=FixedSgd(0.1)))

    def test_progress_log_written(self, tmp_path, records, monkeypatch):
        log_path = tmp_path / "progress.jsonl"
        monkeypatch.setattr(trainer, "LOG_EVERY", 5)
        train_sync(records, self.cfg(), log_path=log_path)
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert entries[0]["event"] == "config"
        assert entries[0]["global_batch_examples"] == 8 * 3 * 2
        steps = [e for e in entries if "loss" in e]
        assert {"step", "lr", "loss", "examples_per_sec"} <= set(steps[0])

    def test_progress_at_first_every_and_last_step(self, records, monkeypatch):
        monkeypatch.setattr(trainer, "LOG_EVERY", 5)
        result = train_sync(records, self.cfg(steps=12))
        entries = [e for e in result.log if "loss" in e]
        assert [e["step"] for e in entries] == [0, 5, 10, 11]
        assert all(e["examples_per_sec"] > 0 for e in entries)


class TestTwoHalfStep:
    """A step split over the caller and one pool thread is bitwise the step on one thread."""

    @pytest.fixture
    def pool(self):
        with ThreadPoolExecutor(max_workers=1) as pool:
            yield pool

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, p, k, d",
        [
            (50, 300, 6, 16),  # every id repeats dozens of times
            (30, 1, 3, 8),  # P = 1: the caller's half of the rows is empty
            (30, 40, 0, 8),  # k = 0
            (1, 25, 2, 8),  # every entry the same id: the caller's half of the ids is empty
            (100_000, 512, 3, 33),  # a 100k table, an odd width
        ],
    )
    def test_bitwise_equal_with_and_without_pool(self, pool, dtype, n, p, k, d):
        rng = np.random.default_rng(n + p + k)
        values = rng.normal(0, 0.3, (n, d)).astype(dtype)
        batch = batch_of(rng.integers(0, n, p), rng.integers(0, n, (p, 1 + k)), rng.uniform(0.5, 3.0, p))
        loss_one, one = loss_and_grad(EmbeddingTable(values), batch)
        loss_two, two = loss_and_grad(EmbeddingTable(values), batch, pool)
        assert loss_one == loss_two
        assert one.ids.tobytes() == two.ids.tobytes()
        assert one.values.dtype == two.values.dtype == dtype
        assert one.values.tobytes() == two.values.tobytes()
        a, b = EmbeddingTable(values.copy()), EmbeddingTable(values.copy())
        one.apply(a, 0.7)
        two.apply(b, 0.7, pool)
        assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("bad, named", [([2], 2), ([7], 7), ([7, 2], 2)])
    def test_non_finite_sum_in_either_half_leaves_the_table(self, monkeypatch, records, dtype, cpus, bad, named):
        # the step's unique ids are the sources 0-9 and the destination 29:
        # the halves are 0-4 and 5-9 with 29
        values = np.zeros((30, 4), dtype=dtype)
        values[29, 3] = np.finfo(dtype).max / 2  # every score stays 0
        weight = np.ones(10)
        weight[bad] = 1e4  # a source's gradient is -weight / 20 times row 29: these overflow, their losses do not
        monkeypatch.setattr(trainer, "build_batch", lambda *args: batch_of(np.arange(10), np.full(10, 29), weight))
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        table = EmbeddingTable(values.copy())
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"non-finite gradient for row {named}$"):
            train_sync(records, TestTrainSync().cfg(steps=1), table)
        assert table.values.tobytes() == values.tobytes()

    def test_step_hands_off_three_times(self, monkeypatch, records):
        submitted = []
        real_pool = cores.helper_pool

        @contextlib.contextmanager
        def spied_pool():
            with real_pool() as pool:
                real_submit = pool.submit
                monkeypatch.setattr(pool, "submit", lambda fn, *a: submitted.append(fn) or real_submit(fn, *a))
                yield pool

        monkeypatch.setattr(cores, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cores, "helper_pool", spied_pool)
        # the records load one block and the table is given: only the steps hand off
        table = init_table(30, 8, seed=1)
        train_sync(records, TestTrainSync().cfg(steps=5), table)
        assert len(submitted) == 3 * 5

    def test_train_sync_bitwise_equal_on_one_cpu(self, monkeypatch, records):
        cfg = TestTrainSync().cfg(steps=20)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads switch as often as they can
        try:
            two = train_sync(records, cfg)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(cores, "usable_cpus", lambda: 1)
        one = train_sync(records, cfg)
        assert one.table.values.tobytes() == two.table.values.tobytes()

    def test_train_sync_joins_its_helper(self, monkeypatch, records):
        real = trainer.loss_and_grad
        before = threading.active_count()
        during = []

        def spy(table, batch, *args):
            out = real(table, batch, *args)
            during.append(threading.active_count())
            if len(during) == 3 and fail:
                raise RuntimeError("injected fault")
            return out

        monkeypatch.setattr(trainer, "loss_and_grad", spy)
        helpers = 1 if cores.usable_cpus() > 1 else 0
        cfg = TestTrainSync().cfg(steps=5)
        for fail in (False, True):
            during.clear()
            if fail:
                with pytest.raises(RuntimeError, match="injected fault"):
                    train_sync(records, cfg)
            else:
                train_sync(records, cfg)
            assert during == [before + helpers] * len(during)
            assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs a CPU affinity mask")
    def test_one_cpu_starts_no_thread(self, tmp_path):
        # train_sync, run_sampling and run_pipeline (whose stages sample,
        # train, evaluate in blocks of 4 rows or pairs and hash their
        # outputs) each run on the calling thread alone
        script = """
import os, sys, threading
import numpy as np
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from walkembed import metrics, pipeline, sampler, trainer
from walkembed.graph import from_edges
from walkembed.model import FixedSgd
import oracles
seen = []
real = trainer.loss_and_grad
def spy(table, batch, *args):
    seen.append((threading.active_count(), args))
    return real(table, batch, *args)
trainer.loss_and_grad = spy
records = oracles.wire_records(np.arange(20), (np.arange(20) + 1) % 20, np.ones((20, 2), dtype=np.int64))
cfg = trainer.TrainConfig(dim=4, per_replica_batch_size=4, num_replicas=2, steps=3, optimizer=FixedSgd(0.1))
trainer.train_sync(oracles.write_records_dir(sys.argv[1] + "/cycle", records, num_nodes=20), cfg)
print(seen)
threads = set()
for module, name in ((sampler, "_sample_partition"), (pipeline, "_hash_file")):
    def counted(*args, real=getattr(module, name)):
        threads.add(threading.active_count())
        return real(*args)
    setattr(module, name, counted)
blocks = set()
metrics._PAIR_BLOCK = 4
def normalize(*args, real=metrics._normalize_rows):
    threads.add(threading.active_count())
    blocks.add(("_normalize_rows", args[-2]))
    return real(*args)
def distances(values, pairs, starts, real=metrics._distances):
    def block(start):
        threads.add(threading.active_count())
        blocks.add(("_distances", start))
        return pairs(start)
    return real(values, block, starts)
metrics._normalize_rows, metrics._distances = normalize, distances
g = from_edges(np.array([(i, (i + 1) % 30) for i in range(30)]), 30)
sampler.run_sampling(g, sampler.SamplerConfig(walks_per_node=4, num_shards=4), sys.argv[1] + "/records")
print(sorted(threads), threading.active_count())
seen.clear()
threads.clear()
pipeline.run_pipeline(pipeline.config_from_dict({
    "seed": 1,
    "run_dir": sys.argv[1] + "/run",
    "graph": {"kind": "sbm", "nodes": 60, "classes": 2, "p_in": 0.3, "p_out": 0.05},
    "sampler": {"walks_per_node": 4, "walk_length": 2, "num_shards": 3},
    "trainer": {"dim": 4, "per_replica_batch_size": 8, "negatives_per_positive": 1, "steps": 3},
    "eval": {"non_edge_samples": 50, "recall_nodes": 5},
}))
print(sorted(threads), sorted(set(seen)), threading.active_count())
print(sorted({name for name, _ in blocks}), len(blocks) > 20)
"""
        src = str(Path(trainer.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        assert out.stdout.splitlines() == [
            repr([(1, (None,))] * 3),
            "[1] 1",
            f"[1] {[(1, (None,))]} 1",
            "['_distances', '_normalize_rows'] True",
        ]


class TestTrainAsync:
    def cfg(self, **kw):
        base = dict(
            dim=8,
            mode="async",
            per_replica_batch_size=8,
            negatives_per_positive=2,
            num_workers=1,
            steps=24,
            optimizer=FixedSgd(0.5),
            seed=11,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_single_worker_deterministic(self, records):
        a = train_async(records, self.cfg())
        b = train_async(records, self.cfg())
        assert np.array_equal(a.table.values, b.table.values)

    def test_multi_worker_completes_budget(self, records):
        cfg = self.cfg(num_workers=4, steps=50)
        result = train_async(records, cfg)
        assert result.examples_processed == 50 * cfg.micro_batch_examples

    def test_requires_fixed_lr(self):
        with pytest.raises(ValidationError):
            self.cfg(optimizer=WarmupDecaySchedule(1, 0.1, 10, 0.01))

    def test_more_workers_than_positives_rejected_before_any_worker_starts(self, tmp_path, monkeypatch):
        pairs = [(0, 1, [1, 0, 0]), (1, 2, [1, 0, 0]), (2, 0, [0, 1, 0]), (1, 1, [1, 0, 0])]  # the self-pair is dropped
        records = oracles.write_records_dir(tmp_path, make_records(pairs), num_nodes=3)
        pools, real = [], trainer.ThreadPoolExecutor
        monkeypatch.setattr(trainer, "ThreadPoolExecutor", lambda **kw: pools.append(kw) or real(**kw))
        with pytest.raises(ValidationError, match="^train_async has 3 positives for 4 workers$"):
            train_async(records, self.cfg(num_workers=4))
        assert pools == []
        assert train_async(records, self.cfg(num_workers=3)).examples_processed == 24 * 8 * 3

    def test_loss_trends_down(self, records, monkeypatch):
        monkeypatch.setattr(trainer, "LOG_EVERY", 20)
        result = train_async(records, self.cfg(steps=600, optimizer=FixedSgd(2.0)))
        losses = [e["loss"] for e in result.log if "loss" in e]
        k = max(1, len(losses) // 10)
        assert np.mean(losses[-k:]) < np.mean(losses[:k])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_progress_at_first_and_last_step(self, workers, tmp_path, records):
        # 24 micro-batches under the default LOG_EVERY of 50: step 0 and the last step
        log_path = tmp_path / "progress.jsonl"
        result = train_async(records, self.cfg(num_workers=workers), log_path=log_path)
        entries = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert entries == result.log
        steps = [e for e in entries if "loss" in e]
        assert [e["step"] for e in steps] == [0, 23]
        assert all(e["lr"] == 0.5 and e["examples_per_sec"] > 0 for e in steps)

    def test_progress_steps_exact_under_thread_switches(self, records, monkeypatch):
        # more workers than cores and frequent switches: a lost update of the
        # shared step counter would repeat or skip a step number
        import sys

        monkeypatch.setattr(trainer, "LOG_EVERY", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = train_async(records, self.cfg(num_workers=6, steps=300))
        finally:
            sys.setswitchinterval(interval)
        assert [e["step"] for e in result.log if "loss" in e] == list(range(300))

    def test_two_workers_exact_on_a_shared_table_under_thread_switches(self, records):
        # the step's scatter releases the GIL, so two workers overlap on one
        # table; every micro-batch must still be counted and none may fail
        import sys

        table = init_table(30, 8, seed=3)
        before = table.values.copy()
        cfg = self.cfg(num_workers=2, steps=400)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = train_async(records, cfg, table=table)
        finally:
            sys.setswitchinterval(interval)
        assert result.table is table
        assert result.examples_processed == 400 * cfg.micro_batch_examples
        assert result.worker_failures == 0
        assert np.isfinite(table.values).all() and not np.array_equal(table.values, before)

    def test_failed_worker_stops_the_others(self, monkeypatch, records):
        import threading

        import walkembed.trainer as trainer_mod

        real = trainer_mod.loss_and_grad
        lock = threading.Lock()
        calls = {"n": 0}

        def first_call_fails(table, batch, *args):
            with lock:
                calls["n"] += 1
                first = calls["n"] == 1
            if first:
                raise RuntimeError("broken worker")
            return real(table, batch, *args)

        monkeypatch.setattr(trainer_mod, "loss_and_grad", first_call_fails)
        with pytest.raises(RuntimeError, match="broken worker"):
            train_async(records, self.cfg(steps=20_000, num_workers=2))
        # the healthy worker's quota is 10_000 batches; it must not run them all
        assert calls["n"] < 10_000


class TestFirstFailedStepRaises:
    """Sync and async training follow one failure rule: the first failed
    step raises, writes nothing to the table, and no step follows it."""

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 1), ("async", 2), ("async", 4)])
    def test_fault_at_the_third_step_raises(self, monkeypatch, records, mode, workers):
        real = trainer.loss_and_grad
        lock = threading.Lock()
        calls = {"n": 0}

        def third_call_fails(table, batch, *args):
            with lock:
                calls["n"] += 1
                fail = calls["n"] == 3
            if fail:
                raise RuntimeError("injected fault")
            return real(table, batch, *args)

        cfg = TrainConfig(dim=8, mode=mode, per_replica_batch_size=8, negatives_per_positive=2, num_workers=workers,
                          steps=4000, optimizer=FixedSgd(0.5), seed=11)
        train = train_sync if mode == "sync" else train_async
        monkeypatch.setattr(trainer, "loss_and_grad", third_call_fails)
        table = init_table(30, cfg.dim, seed=3)
        with pytest.raises(RuntimeError, match="injected fault"):
            train(records, cfg, table=table)
        if workers > 1:  # the other lanes stop before their next step, not after their quota
            assert calls["n"] < cfg.steps // 2
            return
        assert calls["n"] == 3
        monkeypatch.setattr(trainer, "loss_and_grad", real)
        clean = init_table(30, cfg.dim, seed=3)
        train(records, replace(cfg, steps=2), table=clean)
        assert table.values.tobytes() == clean.values.tobytes()


GRAPH_HASH = "0123456789abcdef" * 4  # a SHA-256 in hex, as a records manifest holds it


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        table = init_table(7, 5, seed=1)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, table, step=42, graph_hash=GRAPH_HASH)
        back, step, graph_hash = load_checkpoint(path)
        assert step == 42
        assert graph_hash == GRAPH_HASH
        assert path.read_bytes()[32:64] == bytes.fromhex(GRAPH_HASH)
        assert np.array_equal(back.values, table.values)

    @pytest.mark.parametrize("graph_hash", ["", GRAPH_HASH[:-2], GRAPH_HASH + "00"])
    def test_graph_hash_not_32_bytes_writes_nothing(self, tmp_path, graph_hash):
        with pytest.raises(ValidationError, match="graph_hash must be a SHA-256 in hex"):
            save_checkpoint(tmp_path / "c.bin", init_table(7, 5, seed=1), 0, graph_hash)
        assert not (tmp_path / "c.bin").exists()

    def test_loads_back_bitwise_as_float32_without_a_copy(self, tmp_path):
        values = np.array([[0.1, -0.0, np.inf], [np.nan, 1e-45, -3.4e38]], dtype=np.float32)
        save_checkpoint(tmp_path / "c.bin", EmbeddingTable(values), 0, GRAPH_HASH)
        back, _, _ = load_checkpoint(tmp_path / "c.bin")
        assert back.values.dtype == np.dtype(np.float32)
        assert np.array_equal(back.values.view(np.uint32), values.view(np.uint32))
        assert back.values.base is not None  # a view of the buffer read, not a second table

    def test_float64_table_saved_as_float32(self, tmp_path):
        table = EmbeddingTable(np.full((2, 2), 1 / 3, dtype=np.float64))
        save_checkpoint(tmp_path / "c.bin", table, 0, GRAPH_HASH)
        back, _, _ = load_checkpoint(tmp_path / "c.bin")
        assert back.values.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"garbage!" * 8)
        with pytest.raises(ValidationError):
            load_checkpoint(p)

    @pytest.mark.parametrize("cut", ["magic only", "short header", "short body", "trailing bytes"])
    def test_length_checked_against_header(self, tmp_path, cut):
        save_checkpoint(tmp_path / "c.bin", init_table(7, 5, seed=1), 3, GRAPH_HASH)
        data = (tmp_path / "c.bin").read_bytes()
        data = {"magic only": data[:8], "short header": data[:40], "short body": data[:-4],
                "trailing bytes": data + bytes(64)}[cut]
        p = tmp_path / "cut.bin"
        p.write_bytes(data)
        with pytest.raises(ValidationError, match=str(p)):
            load_checkpoint(p)


def test_init_table_range_and_seed():
    t = init_table(100, 16, seed=3)
    assert t.values.dtype == np.float32
    half = 1 / 32
    assert np.all(np.abs(t.values) <= half)
    assert np.array_equal(t.values, init_table(100, 16, seed=3).values)
    assert not np.array_equal(t.values, init_table(100, 16, seed=4).values)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("rows", [1, model.INIT_BLOCK_ROWS - 1, model.INIT_BLOCK_ROWS + 1, 100_000])
def test_init_table_bitwise_one_draw(monkeypatch, cpus, rows):
    monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
    got = init_table(rows, 13, seed=11).values
    assert got.dtype == np.float32
    assert got.tobytes() == oracles.init_table_reference(rows, 13, 11).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
def test_init_table_memory_near_the_table(monkeypatch, cpus):
    # one float64 draw of the whole table peaked at 3.0x its float32 bytes;
    # two threads drawing blocks of INIT_BLOCK_ROWS rows peak near 1.16x
    monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        table = init_table(100_000, 32, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table.values.nbytes


@pytest.mark.parametrize(
    "optimizer, message",
    [
        ({"kind": "fixed_sgd"}, "optimizer config missing 'lr'"),
        ({"kind": "fixed_sgd", "lr": 1.0, "peak_lr": 5.0}, "unknown optimizer config key\\(s\\): 'peak_lr'"),
        ("fast", "optimizer config needs a 'kind' of fixed_sgd or warmup_decay_sgd, got 'fast'"),
    ],
)
def test_bad_optimizer_section_named(optimizer, message):
    with pytest.raises(ValidationError, match=message):
        TrainConfig.from_dict({"optimizer": optimizer})


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_fresh_table_sized_by_the_records_manifest(mode, records):
    cfg = TrainConfig(dim=4, mode=mode, steps=5, optimizer=FixedSgd(0.1), seed=3)
    train = train_sync if mode == "sync" else train_async
    num_nodes = read_manifest(records)["num_nodes"]
    table = init_table(num_nodes, cfg.dim, derive_seed(cfg.seed, "init"))
    assert train(records, cfg, table).table is table
    fresh = train(records, cfg).table
    assert fresh.num_nodes == num_nodes == 30
    assert fresh.values.tobytes() == table.values.tobytes()


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_result_names_the_records_manifests_graph(mode, tmp_path):
    records = oracles.write_records_dir(tmp_path / "records", make_records([(0, 1, [1, 0, 0])] * 4),
                                        graph_hash=GRAPH_HASH)
    cfg = TrainConfig(dim=4, mode=mode, steps=1, optimizer=FixedSgd(0.1), per_replica_batch_size=2)
    assert (train_sync if mode == "sync" else train_async)(records, cfg).graph_hash == GRAPH_HASH


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_log_path_is_keyword_only(mode, records):
    # a stale call that passes a node count fourth must fail, not name a log file after it
    cfg = TrainConfig(dim=4, mode=mode, steps=1, optimizer=FixedSgd(0.1))
    train = train_sync if mode == "sync" else train_async
    with pytest.raises(TypeError):
        train(records, cfg, None, 30)


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize("rows", [29, 31, 1000])
def test_records_of_another_graph_size_rejected_before_any_shard_is_read(mode, rows, records, monkeypatch):
    # the records hold ids 0-29 of a 30-node graph: 31 and 1000 rows trained silently
    reads, real = [], np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda *a, **kw: reads.append(a) or real(*a, **kw))
    cfg = TrainConfig(dim=4, mode=mode, steps=1, optimizer=FixedSgd(0.1))
    train = train_sync if mode == "sync" else train_async
    table = init_table(rows, 4, seed=0)
    before = table.values.copy()
    message = f"^{re.escape(str(records))}: records of a graph of 30 nodes, but the table has {rows} rows$"
    with pytest.raises(ValidationError, match=message):
        train(records, cfg, table=table)
    assert reads == []
    assert table.values.tobytes() == before.tobytes()


@pytest.mark.parametrize("mode, key", [("sync", "num_workers"), ("async", "num_replicas")])
def test_the_count_a_mode_does_not_read_must_be_1(mode, key):
    # async with num_replicas 4, or sync with num_workers 4, once trained as if the count were 1
    assert TrainConfig(mode=mode, optimizer=FixedSgd(0.1), **{key: 1}).to_dict()[key] == 1
    message = f"^trainer config key '{key}' is not read in {mode} mode and must be 1$"
    for count in (2, 4):
        with pytest.raises(ValidationError, match=message):
            TrainConfig(mode=mode, optimizer=FixedSgd(0.1), **{key: count})
        with pytest.raises(ValidationError, match=message):
            TrainConfig.from_dict({"mode": mode, key: count, "optimizer": {"kind": "fixed_sgd", "lr": 0.1}})


@pytest.mark.parametrize(
    "weighting", [[1, "a", 2], 5, [True, 1, 1], [float("nan"), 1, 1], [1, float("inf"), 1], [1, -1, 0], [0, 0, 0], []]
)
def test_distance_weighting_checked(weighting):
    assert TrainConfig.from_dict({"distance_weighting": [0, 0.5, 2]}).distance_weighting == (0, 0.5, 2)
    with pytest.raises(ValidationError, match="trainer config key 'distance_weighting' must be a list of finite"):
        TrainConfig.from_dict({"distance_weighting": weighting})


def random_records(rng, n, num_nodes, walk_length=3):
    """n records with ids below num_nodes, some of them self-pairs, and
    counts that are all zero in some records."""
    counts = rng.integers(0, 3, size=(n, walk_length)) * (rng.random((n, 1)) < 0.8)
    return oracles.wire_records(rng.integers(0, num_nodes, n), rng.integers(0, num_nodes, n), counts)


def sample_shards(out, num_shards, walks_per_node=40):
    # 12 nodes: walks from the isolated nodes 5 and 11 end at once, and at
    # 20 shards some shards hold no record
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 4)], 12)
    run_sampling(g, SamplerConfig(walks_per_node=walks_per_node, walk_length=3, seed=13, num_shards=num_shards), out)
    return json.loads((out / "manifest.json").read_text())


def blocks_of_every_kind(out, block):
    """A records directory of 40-node shards of 0, 1, block - 1, block,
    block + 1 and 3 * block random records, the last with a second block of
    self-pairs only, and one of 2 * block + 3 records that all weigh above 0."""
    rng = np.random.default_rng(block)
    shards = [random_records(rng, size, 40) for size in (0, 1, block - 1, block, block + 1, 3 * block)]
    shards[-1]["dest"][block : 2 * block] = shards[-1]["source"][block : 2 * block]
    keep_all = random_records(rng, 2 * block + 3, 40)
    keep_all["dest"] = (keep_all["source"] + 1) % 40
    keep_all["counts"][:, 0] = 1
    shards.append(keep_all)
    return oracles.write_records_dir(out, *shards, num_nodes=40)


def dense_shards(out, num_shards=3):
    """Records of a 40-node graph in which each source reaches most nodes
    within three hops, so that its run outlasts a block of 7 records."""
    g = generate_sbm(SbmConfig(n=40, k=2, p_in=0.3, p_out=0.05, seed=2))
    run_sampling(g, SamplerConfig(walks_per_node=40, walk_length=3, seed=13, num_shards=num_shards), out)
    return json.loads((out / "manifest.json").read_text())


class TestPositivesFromShards:
    @pytest.mark.parametrize("weighting", [None, (1.0, 0.5, 0.25), (0.7, 0.3, 0.1)])
    @pytest.mark.parametrize("num_shards", [1, 3, 8, 20])
    def test_equal_to_whole_set(self, tmp_path, num_shards, weighting):
        manifest = sample_shards(tmp_path, num_shards)
        assert num_shards < 20 or 0 in manifest["record_counts"]
        cfg = TrainConfig(dim=4, steps=1, distance_weighting=weighting)
        got = columns_of(oracles.index_records(tmp_path, cfg))
        want = oracles.prepare_positives(load_all_records(tmp_path)[0], cfg)
        assert [g.dtype for g in got] == [np.int64, np.int64, np.float32]
        for g, w in zip(got, want):
            assert g.tobytes() == w.astype(g.dtype).tobytes()

    def test_sync_training_equal_to_whole_set(self, tmp_path):
        sample_shards(tmp_path, 3)
        cfg = TrainConfig(dim=4, per_replica_batch_size=16, negatives_per_positive=2, num_replicas=2, steps=12,
                          optimizer=FixedSgd(0.5), seed=4)
        got = train_sync(tmp_path, cfg)
        whole = oracles.write_records_dir(tmp_path / "whole", load_all_records(tmp_path)[0], num_nodes=12)
        want = train_sync(whole, cfg)
        assert got.table.values.tobytes() == want.table.values.tobytes()

    def test_bad_shards_raise_through_train_sync(self, tmp_path):
        cfg = TrainConfig(dim=4, steps=1)
        manifest = sample_shards(tmp_path, 2)
        shard = tmp_path / manifest["shard_files"][0]
        data, size = shard.read_bytes(), 20 + 8 * 3
        assert manifest["record_counts"][0] > 2

        shard.write_bytes(data[: 2 * size])  # cut at a record boundary
        with pytest.raises(ValidationError, match=f"{shard}: 2 records, but the manifest lists"):
            train_sync(tmp_path, cfg)
        shard.write_bytes(data[: 2 * size + 5])
        with pytest.raises(ValidationError, match=f"{shard}: size not a multiple of record size"):
            train_sync(tmp_path, cfg)
        shard.write_bytes(data[:size + 16] + (4).to_bytes(4, "little") + data[size + 20 :])
        with pytest.raises(ValidationError, match=f"{shard}: mixed walk lengths in shard"):
            train_sync(tmp_path, cfg)

        shard.write_bytes(data)
        manifest["record_counts"][1] += 1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="records, but the manifest lists"):
            train_sync(tmp_path, cfg)
        manifest["record_counts"][1] = -1
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="record_counts must be a list of non-negative integers"):
            train_sync(tmp_path, cfg)

    @pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
    def test_record_id_out_of_range_raises_before_any_step(self, tmp_path, mode, workers):
        manifest = sample_shards(tmp_path, 3)
        shard = tmp_path / manifest["shard_files"][1]
        data = bytearray(shard.read_bytes())
        data[44 + 8 : 44 + 16] = (5000).to_bytes(8, "little")  # the second record's dest
        shard.write_bytes(bytes(data))
        cfg = TrainConfig(dim=4, mode=mode, num_workers=workers, steps=4)
        train = train_sync if mode == "sync" else train_async
        table = init_table(12, 4, seed=0)
        before = table.values.copy()
        with pytest.raises(ValidationError, match=f"{shard}: node id 5000 out of range \\[0, 12\\)"):
            train(tmp_path, cfg, table=table)
        assert np.array_equal(table.values, before)
        data[44 + 8 : 44 + 16] = (2**64 - 3).to_bytes(8, "little")  # a u64 that reads as -3
        shard.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=f"{shard}: node id -3 out of range \\[0, 12\\)"):
            train(tmp_path, cfg, table=table)
        assert np.array_equal(table.values, before)

    def test_weighting_length_checked_before_any_shard_is_read(self, tmp_path):
        manifest = sample_shards(tmp_path, 2)
        for f in manifest["shard_files"]:
            (tmp_path / f).unlink()
        cfg = TrainConfig(dim=4, steps=1, distance_weighting=(1.0, 0.5))
        with pytest.raises(ValidationError, match="distance_weighting has 2 entries, records have walk_length 3"):
            train_sync(tmp_path, cfg)

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("block", [7, trainer.LOAD_BLOCK])
    @pytest.mark.parametrize("weighting", [None, (0.7, 0.3, 0.1)])
    def test_blocks_bitwise_equal_to_whole_set(self, tmp_path, monkeypatch, cpus, block, weighting):
        # shards of 0, 1, block - 1, block and block + 1 records, each with
        # self-pairs and zero weights to drop; the oracle filters them whole.
        # Then one whose second block is all self-pairs, so it keeps none,
        # and one that drops nothing.
        records = blocks_of_every_kind(tmp_path, block)
        monkeypatch.setattr(trainer, "LOAD_BLOCK", block)
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        cfg = TrainConfig(dim=4, steps=1, distance_weighting=weighting)
        want = oracles.prepare_positives(load_all_records(records)[0], cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the two threads switch as often as they can
        try:
            got = columns_of(oracles.index_records(records, cfg))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("block", [1, 7, trainer.LOAD_BLOCK])
    def test_any_window_of_any_lane_reads_its_positions(self, tmp_path, monkeypatch, block):
        # windows that start and end inside blocks, span blocks that keep
        # nothing, or hold no position at all
        records = blocks_of_every_kind(tmp_path, 7)
        monkeypatch.setattr(trainer, "LOAD_BLOCK", block)
        cfg = TrainConfig(dim=4, steps=1)
        positives = oracles.index_records(records, cfg)
        want = oracles.prepare_positives(load_all_records(records)[0], cfg)
        rng = np.random.default_rng(block)
        for lanes in (1, 2, 3):
            for lane in range(lanes):
                size = len(want[0][lane::lanes])
                for lo, hi in [(0, size), (size, size), (0, 0), *np.sort(rng.integers(0, size + 1, (20, 2)))]:
                    got = positives.read(lo, hi, lane, lanes)
                    for g, w in zip(got, want):
                        assert g.tobytes() == w[lane::lanes][lo:hi].tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_int64_ids_loaded_as_read(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(trainer, "LOAD_BLOCK", 7)
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        rng = np.random.default_rng(5)
        shard = random_records(rng, 30, 40)
        shard["source"][[3, 20]] = 2**31
        shard["dest"][11] = 2**32 + 5
        records = oracles.write_records_dir(tmp_path, shard, num_nodes=2**33)
        cfg = TrainConfig(dim=4, steps=1)
        got = columns_of(oracles.index_records(records, cfg))
        for g, w in zip(got, oracles.prepare_positives(shard, cfg)):
            assert g.tobytes() == w.tobytes()
        with pytest.raises(ValidationError, match=r"node id 2147483648 out of range \[0, 2147483648\)"):
            oracles.index_records(set_num_nodes(records, 2**31), cfg)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_errors_as_one_thread_finds_them(self, tmp_path, monkeypatch, cpus):
        # 50 records in blocks of 7: whichever thread meets a fault first,
        # the error names the one a single thread reading in order names
        monkeypatch.setattr(trainer, "LOAD_BLOCK", 7)
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        shard = random_records(np.random.default_rng(8), 50, 12)
        records = oracles.write_records_dir(tmp_path, shard, num_nodes=12)
        path = records / json.loads((records / "manifest.json").read_text())["shard_files"][0]
        data, size = path.read_bytes(), 20 + 8 * 3

        def with_field(raw, record, offset, value, width=8):
            at = record * size + offset
            return raw[:at] + value.to_bytes(width, "little") + raw[at + width :]

        bad_ids = with_field(with_field(data, 9, 8, 5000), 45, 0, 6000)  # a dest in block 1, a source in block 6
        cases = [
            (bad_ids, 50, f"{path}: node id 6000 out of range [0, 12) of the table"),
            (with_field(data, 9, 8, 2**64 - 3), 50, f"{path}: node id -3 out of range [0, 12) of the table"),
            (with_field(with_field(bad_ids, 49, 16, 4, 4), 2, 0, 7000), 50, f"{path}: mixed walk lengths in shard"),
            (data[: 20 * size + 5], 50, f"{path}: size not a multiple of record size"),
            (data[: 20 * size], 50, f"{path}: 20 records, but the manifest lists 50"),
            (data, 51, f"{path}: 50 records, but the manifest lists 51"),
        ]
        cfg = TrainConfig(dim=4, steps=1)
        table = init_table(12, 4, seed=0)
        before = table.values.copy()
        manifest = json.loads((records / "manifest.json").read_text())
        for raw, count, message in cases:
            path.write_bytes(raw)
            (records / "manifest.json").write_text(json.dumps(dict(manifest, record_counts=[count])))
            with pytest.raises(ValidationError) as exc:
                train_sync(records, cfg, table=table)
            assert str(exc.value) == message
            assert table.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_index_pass_holds_a_few_blocks(self, tmp_path, monkeypatch, cpus):
        # four shards of 8 192 and of 16 384 records in blocks of 1 024 (a
        # shard is 8 or 16 blocks): each thread holds one block and its
        # temporaries, under two blocks' bytes, and the peak grows only with
        # the index. Two threads' blocks overlap as they happen to be
        # scheduled, so with two the peaks are bounded, not compared.
        monkeypatch.setattr(trainer, "LOAD_BLOCK", 1024)
        monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
        rng, cfg, peak, index = np.random.default_rng(6), TrainConfig(dim=4, steps=1), {}, {}
        for n in (8192, 16384):
            oracles.write_records_dir(tmp_path / str(n), *[random_records(rng, n, 40) for _ in range(4)])
        oracles.index_records(tmp_path / "8192", cfg)  # modules imported on first use: not the pass's
        for n in (8192, 16384):
            tracemalloc.start()
            try:
                index[n] = oracles.index_records(tmp_path / str(n), cfg)
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        block_bytes = 1024 * (20 + 8 * 3)
        more_blocks = len(index[16384].blocks) - len(index[8192].blocks)
        assert more_blocks == 32 and max(peak.values()) < (2 * cpus + 1) * block_bytes
        assert cpus == 2 or peak[16384] <= peak[8192] + 512 * more_blocks

    @pytest.mark.parametrize("block", [7, trainer.LOAD_BLOCK])
    def test_32_bytes_per_block(self, tmp_path, monkeypatch, block):
        # the index holds each block's shard, first record, length and kept
        # count; the kept positives themselves, 8 bytes each, are not held
        manifest = dense_shards(tmp_path)
        monkeypatch.setattr(trainer, "LOAD_BLOCK", block)
        got = oracles.index_records(tmp_path, TrainConfig(dim=4, steps=1))
        blocks = sum(-(-n // block) for n in manifest["record_counts"])
        assert len(got.blocks) == blocks and (block > 7 or 4 * blocks < len(got))
        assert got.blocks.nbytes + got.kept.nbytes == 32 * blocks + 8

    def test_index_bytes_do_not_grow_with_the_records(self, tmp_path):
        # one graph sampled with 8 and with 32 walks per node: the second
        # has more than twice the positives, and 8 bytes each would retain
        # about 220 KB more; the index retains 32 bytes per block more, and
        # at most 1 KB more of Python objects
        g = generate_sbm(SbmConfig(n=1000, k=4, p_in=0.02, p_out=0.002, seed=1))
        cfg, retained, index = TrainConfig(dim=4, steps=1), {}, {}
        for walks in (8, 32):
            run_sampling(g, SamplerConfig(walks_per_node=walks, walk_length=3, num_shards=2), tmp_path / str(walks))
        oracles.index_records(tmp_path / "8", cfg)  # modules imported on first use: not the index's
        for walks in (8, 32):
            tracemalloc.start()
            try:
                index[walks] = oracles.index_records(tmp_path / str(walks), cfg)
                retained[walks] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert len(index[32]) > 2 * len(index[8])
        more_blocks = len(index[32].blocks) - len(index[8].blocks)
        assert retained[32] <= retained[8] + 32 * more_blocks + 1024 and retained[8] < 4096

    def test_memory_below_shard_bytes(self, tmp_path):
        # Under tracemalloc, loading every shard, concatenating them and then
        # filtering the whole set peaked at 1.8x the shard bytes; filtering
        # one shard at a time into preallocated columns peaked at 0.59x;
        # reading every shard into one buffer and filtering it in blocks
        # peaked at 0.51x. Filtering each mapped shard in one pass peaked at
        # 0.37x: the columns (12 of every 44 bytes) and block-sized
        # temporaries; with the sources kept as runs (8 of every 44 bytes
        # plus the runs) it peaked at 0.30x. Indexing the blocks and reading
        # one window of 65 536 positions (1.5 MB, fixed whatever the record
        # count) one 8 192-record block at a time peaks at 0.33x here, and
        # its share falls as the records grow. The bound is unchanged.
        g = generate_sbm(SbmConfig(n=4000, k=4, p_in=0.02, p_out=0.002, seed=1))
        run_sampling(g, SamplerConfig(walks_per_node=16, walk_length=3, num_shards=8), tmp_path)
        table = init_table(g.num_nodes, 4, seed=0)
        cfg = TrainConfig(dim=4, per_replica_batch_size=8, negatives_per_positive=1, steps=1)
        tracemalloc.start()
        try:
            train_sync(tmp_path, cfg, table=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sum(p.stat().st_size for p in tmp_path.glob("records-*.bin"))
        assert peak < 0.42 * written


def changed_after_indexing(monkeypatch, shard, change):
    """Make `change(data)` the bytes of the shard once training has indexed
    every shard: when the index pass asks for the shard after the last."""
    real = trainer.iter_shards

    def indexed_then_changed(*args):
        yield from real(*args)
        shard.write_bytes(change(shard.read_bytes()))

    monkeypatch.setattr(trainer, "iter_shards", indexed_then_changed)


@pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda data: data[: 5 * 44 + 9], "ends before record {last}$"),
        (lambda data: data[:52] + (5000).to_bytes(8, "little") + data[60:],  # the second record's dest
         "node id 5000 out of range \\[0, 40\\) of the table"),
        (lambda data: data[:52] + data[44:52] + data[60:],  # the second record made a self-pair
         "\\d+ positives from record 0 on, but \\d+ when indexed"),
    ],
    ids=["shortened", "id-out-of-range", "kept-count-changed"],
)
def test_shard_changed_after_indexing_raises_at_the_window_read(tmp_path, monkeypatch, mode, workers, change, message):
    # a window reads its blocks into memory and checks each again
    manifest = dense_shards(tmp_path)
    shard = tmp_path / manifest["shard_files"][1]
    changed_after_indexing(monkeypatch, shard, change)
    cfg = TrainConfig(dim=4, mode=mode, num_workers=workers, per_replica_batch_size=8, steps=2)
    message = message.format(last=manifest["record_counts"][1] - 1)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(shard))}: {message}"):
        (train_sync if mode == "sync" else train_async)(tmp_path, cfg)


@pytest.mark.parametrize("mode, workers", [("sync", 1), ("async", 2)])
def test_shard_shortened_during_the_index_pass_raises(tmp_path, monkeypatch, mode, workers):
    # cut to 4 096 bytes once the first block's ids are checked: a read-only
    # map of the shard ended the process with SIGBUS at its next block
    monkeypatch.setattr(trainer, "LOAD_BLOCK", 7)
    manifest = dense_shards(tmp_path)
    shard, n = tmp_path / manifest["shard_files"][0], manifest["record_counts"][0]
    assert n * 44 > 4096 + 2 * 7 * 44

    def cut_then_check(ids, num_nodes):
        if shard.stat().st_size > 4096:
            shard.write_bytes(shard.read_bytes()[:4096])
        check_ids(ids, num_nodes)

    monkeypatch.setattr("walkembed.shards.check_ids", cut_then_check)
    cfg = TrainConfig(dim=4, mode=mode, num_workers=workers, per_replica_batch_size=8, steps=2)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(shard))}: ends before record {n - 1}$"):
        (train_sync if mode == "sync" else train_async)(tmp_path, cfg)


def position_stream(out_dir, n, seed=9):
    """A stream of n positions whose sources are the positions and whose
    destinations are one more."""
    return RecordStream(oracles.index_columns(out_dir, np.arange(n), np.arange(n) + 1), seed)


def take_positions(stream, count):
    """`count` positions of the stream, checked against their columns."""
    src, dst, weight = stream.take(count)
    assert np.array_equal(dst, src + 1) and np.all(weight == 1)
    return src


class TestRecordStreamWindows:
    @pytest.mark.parametrize("n", [1000, SHUFFLE_BUFFER, 2 * SHUFFLE_BUFFER + 123])
    def test_epoch_zero_equals_whole_epoch_reference(self, tmp_path, n):
        stream = position_stream(tmp_path, n)
        parts, taken = [], 0
        while taken < n:  # odd-sized takes that cross window edges
            parts.append(take_positions(stream, min(4099, n - taken)))
            taken += len(parts[-1])
            assert stream.epochs_completed == (taken == n)
        assert np.array_equal(np.concatenate(parts), oracles.epoch_order_reference(9, n, 0, SHUFFLE_BUFFER))

    def test_epochs_cover_every_position_once_on_a_moving_grid(self, tmp_path):
        n, half = 2 * SHUFFLE_BUFFER + 123, SHUFFLE_BUFFER // 2
        stream = position_stream(tmp_path, n)
        for epoch in range(4):
            order = take_positions(stream, n)
            assert stream.epochs_completed == epoch + 1
            assert np.array_equal(np.sort(order), np.arange(n))
            # windows sit on 0, B, 2B in even epochs and on 0, B/2, 3B/2 in odd ones
            lo = half if epoch % 2 else SHUFFLE_BUFFER
            edges = [0, *range(lo, n, SHUFFLE_BUFFER), n]
            for a, b in zip(edges, edges[1:]):
                assert np.array_equal(np.sort(order[a:b]), np.arange(a, b))

    def test_memory_bounded_by_one_block_and_one_window(self, tmp_path):
        # Whole-epoch orders and their np.roll copies peaked at 24 MB here,
        # and resident positives held 8 MB. A stream holds one window: its
        # offsets and columns, 24 bytes a position. Reading it holds one
        # block at a time: its records, 28 bytes each at walk length 1, and
        # at most 64 bytes of temporaries per record. A take holds its
        # columns and offsets, 28 bytes a position.
        n = 10**6
        positives = oracles.index_columns(tmp_path, np.arange(n), np.arange(n) + 1)
        window = SHUFFLE_BUFFER * (4 + 8 + 8 + 4)
        block = trainer.LOAD_BLOCK * (28 + 64)
        take = 4096 * (8 + 8 + 4 + 8)
        np.random.default_rng(0)  # numpy.random is imported on first use: not the stream's
        tracemalloc.start()
        try:
            stream = RecordStream(positives, seed=1)
            for _ in range(n // 4096 + 40):  # across the epoch's end
                stream.take(4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stream.epochs_completed == 1
        assert peak < window + block + take


@pytest.mark.parametrize("block", [1, 7, trainer.LOAD_BLOCK])
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode, lanes", [("sync", 1), ("async", 1), ("async", 2), ("async", 3)])
def test_batches_equal_to_whole_columns(tmp_path, monkeypatch, cpus, mode, lanes, block):
    # Windows of 16 positions read blocks of 1 record, of 7 or of each
    # whole shard. Each lane's batches over two epochs hold the whole
    # columns' records at the positions of its stripe, in the order of its
    # epochs.
    dense_shards(tmp_path)
    monkeypatch.setattr(trainer, "LOAD_BLOCK", block)
    monkeypatch.setattr(trainer, "SHUFFLE_BUFFER", 16)
    monkeypatch.setattr(cores, "usable_cpus", lambda: cpus)
    cfg = TrainConfig(dim=4, mode=mode, per_replica_batch_size=5, negatives_per_positive=1, num_workers=lanes,
                      num_replicas=2 if mode == "sync" else 1, optimizer=FixedSgd(0.01), seed=3)
    columns = oracles.prepare_positives(load_all_records(tmp_path)[0], cfg)
    stripes = [len(columns[0][lane::lanes]) for lane in range(lanes)]
    assert min(stripes) > 2 * 16
    cfg = replace(cfg, steps=lanes * -(-2 * max(stripes) // cfg.step_positives))
    batches, real = {}, trainer.build_batch

    def spy(stream, *args):
        batch = real(stream, *args)
        batches.setdefault(stream.seed, []).append(batch)
        return batch

    monkeypatch.setattr(trainer, "build_batch", spy)
    (train_sync if mode == "sync" else train_async)(tmp_path, cfg)
    for lane, m in enumerate(stripes):
        seed = derive_seed(cfg.seed, "stream" if mode == "sync" else f"stream-{lane}")
        order = np.concatenate([oracles.epoch_order_reference(seed, m, epoch, 16) for epoch in range(2)])
        got = [np.concatenate(c)[: 2 * m] for c in zip(*((b.src, b.dst[:, 0], b.weight) for b in batches[seed]))]
        for g, column in zip(got, columns):
            assert np.array_equal(g, column[lane::lanes][order])
