"""Tests for the multi-GPU extension (Section VI future work)."""

import dataclasses

import pytest

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.ext.multigpu import MultiGpuGBDTTrainer


class TestTreeIdentity:
    @pytest.mark.parametrize(
        "n_devices, sampling",
        [(k, {}) for k in (1, 2, 3, 4)]
        + [(k, {"subsample": 0.7}) for k in (1, 2, 3, 4)]
        + [(k, {"colsample_bytree": 0.5}) for k in (1, 2, 3, 4)],
        ids=[f"{k}{tag}" for tag in ("", "-subsample", "-colsample") for k in (1, 2, 3, 4)],
    )
    def test_identical_to_single_gpu(self, covtype_small, n_devices, sampling):
        """Attribute sharding must not change the learned trees, sampled
        rounds included."""
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=4, **sampling)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=n_devices).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_identical_on_sparse_data(self, sparse_small):
        ds = sparse_small
        p = GBDTParams(n_trees=3, max_depth=3)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=3).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_identical_without_rle(self, susy_small):
        ds = susy_small
        p = GBDTParams(n_trees=2, max_depth=4, use_rle=False)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=2).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_identical_with_decompression_split(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=3, use_direct_rle=False, rle_policy="always")
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=2).fit(ds.X, ds.y)
        assert models_equal(multi, single)


class TestWarmStart:
    def test_resumed_fit_is_byte_identical(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=3, max_depth=4)
        whole = MultiGpuGBDTTrainer(p, n_devices=3).fit(ds.X, ds.y)
        head = MultiGpuGBDTTrainer(
            dataclasses.replace(p, n_trees=2), n_devices=3
        ).fit(ds.X, ds.y)
        resumed = MultiGpuGBDTTrainer(
            dataclasses.replace(p, n_trees=1), n_devices=3
        ).fit(ds.X, ds.y, init_model=head)
        assert resumed.to_json() == whole.to_json()


class TestScaling:
    def test_per_device_time_shrinks_with_devices(self, covtype_small):
        """The whole point of going multi-GPU: each device does ~1/k of the
        split-finding work."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=4)
        t1 = MultiGpuGBDTTrainer(p, n_devices=1, work_scale=ds.work_scale,
                                 row_scale=ds.row_scale)
        t1.fit(ds.X, ds.y)
        t4 = MultiGpuGBDTTrainer(p, n_devices=4, work_scale=ds.work_scale,
                                 row_scale=ds.row_scale)
        t4.fit(ds.X, ds.y)
        assert t4.elapsed_seconds() < t1.elapsed_seconds()

    def test_speedup_is_sublinear(self, covtype_small):
        """Communication (gradient broadcast, side-array broadcast) keeps
        scaling below ideal."""
        ds = covtype_small
        p = GBDTParams(n_trees=2, max_depth=4)
        times = {}
        for k in (1, 4):
            t = MultiGpuGBDTTrainer(p, n_devices=k, work_scale=ds.work_scale,
                                    row_scale=ds.row_scale)
            t.fit(ds.X, ds.y)
            times[k] = t.elapsed_seconds()
        assert 1.0 < times[1] / times[4] < 4.0

    def test_communication_recorded(self, covtype_small):
        ds = covtype_small
        t = MultiGpuGBDTTrainer(GBDTParams(n_trees=2, max_depth=3), n_devices=2)
        t.fit(ds.X, ds.y)
        names = {tr.name for dev in t.devices for tr in dev.ledger.transfers}
        assert "broadcast_gradients" in names
        assert "allreduce_best_splits" in names
        assert "broadcast_side_array" in names


class TestValidation:
    def test_at_least_one_device(self):
        with pytest.raises(ValueError):
            MultiGpuGBDTTrainer(n_devices=0)

    def test_rejects_goss_like_the_exact_trainer(self, covtype_small):
        ds = covtype_small
        p = GBDTParams(n_trees=1, max_depth=2, goss_a=0.2)
        with pytest.raises(ValueError, match="GOSS"):
            GPUGBDTTrainer(p).fit(ds.X, ds.y)
        with pytest.raises(ValueError, match="GOSS"):
            MultiGpuGBDTTrainer(p, n_devices=2).fit(ds.X, ds.y)

    def test_rejects_short_targets(self, covtype_small):
        ds = covtype_small
        t = MultiGpuGBDTTrainer(GBDTParams(n_trees=1, max_depth=2), n_devices=2)
        with pytest.raises(ValueError, match="entries for"):
            t.fit(ds.X, ds.y[:-1])

    def test_more_devices_than_attributes(self, table1):
        """Sharding degrades gracefully when k > d (some shards are thin)."""
        X, y = table1
        p = GBDTParams(n_trees=2, max_depth=2)
        single = GPUGBDTTrainer(p).fit(X, y)
        multi = MultiGpuGBDTTrainer(p, n_devices=8).fit(X, y)
        assert models_equal(multi, single)

    def test_column_sample_leaving_shards_empty(self, susy_small):
        """A tree whose sampled columns all live on some devices leaves the
        other shards idle for that tree."""
        ds = susy_small
        p = GBDTParams(n_trees=3, max_depth=3, colsample_bytree=0.1)
        single = GPUGBDTTrainer(p).fit(ds.X, ds.y)
        multi = MultiGpuGBDTTrainer(p, n_devices=4).fit(ds.X, ds.y)
        assert models_equal(multi, single)

    def test_used_rle_flag(self, covtype_small):
        ds = covtype_small
        t = MultiGpuGBDTTrainer(GBDTParams(n_trees=1, max_depth=2), n_devices=2)
        t.fit(ds.X, ds.y)
        assert t.used_rle
