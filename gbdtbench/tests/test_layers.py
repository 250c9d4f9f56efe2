"""Span self-time arithmetic and the wrap-at-the-caller rule."""

import math

import pytest

from layers import TARGETS, Recorder, instrument, targets_named


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_nested_self_time_and_host_glue():
    clock = FakeClock()
    rec = Recorder(clock)
    with rec.span("fit"):
        clock.advance(1.0)              # glue
        with rec.span("core.find_split"):
            clock.advance(2.0)
            with rec.span("gpusim.launch"):
                clock.advance(0.5)
            clock.advance(1.0)
        with rec.span("core.partition"):
            clock.advance(3.0)
        clock.advance(0.25)             # glue
    assert rec.self_s["gpusim.launch"] == 0.5
    assert rec.self_s["core.find_split"] == 3.0
    assert rec.self_s["core.partition"] == 3.0
    assert rec.self_s["fit"] == 1.25
    # self times partition the root span exactly: 7.75 s of fake time
    assert math.isclose(sum(rec.self_s.values()), 7.75)
    assert rec.calls == {"fit": 1, "core.find_split": 1, "gpusim.launch": 1,
                         "core.partition": 1}


def test_span_closes_on_error():
    clock = FakeClock()
    rec = Recorder(clock)
    with pytest.raises(ValueError):
        with rec.span("fit"):
            clock.advance(1.0)
            with rec.span("core.find_split"):
                clock.advance(1.0)
                raise ValueError("boom")
    assert rec.calls["core.find_split"] == 1
    assert rec.self_s["fit"] == 1.0


def test_instrument_wraps_every_binding_and_restores_them():
    import repro.core
    import repro.core.split
    import repro.core.trainer
    from repro.gpusim.kernel import GpuDevice

    original = repro.core.split.find_best_splits_rle
    original_launch = GpuDevice.__dict__["launch"]
    rec = Recorder()
    with instrument(rec):
        # the trainer's own binding (``from .split import ...``) is the one
        # its calls go through; the package re-export and the definition
        # are wrapped too
        for module in (repro.core.trainer, repro.core, repro.core.split):
            assert module.find_best_splits_rle is not original
            assert module.find_best_splits_rle.__wrapped__ is original
        GpuDevice().launch("k", 10)
    for module in (repro.core.trainer, repro.core, repro.core.split):
        assert module.find_best_splits_rle is original
    assert GpuDevice.__dict__["launch"] is original_launch
    assert rec.calls["gpusim.launch"] == 1


def test_a_binding_made_after_import_is_wrapped(monkeypatch):
    import repro.approx.histogram_trainer as hist_mod
    from repro.core.partition import partition_segments

    monkeypatch.setattr(hist_mod, "partition_segments", partition_segments, raising=False)
    rec = Recorder()
    with instrument(rec, targets_named(("core.partition",))):
        with pytest.raises(Exception):
            hist_mod.partition_segments(None, None, None, None, None, 0, None)
    assert hist_mod.partition_segments is partition_segments
    assert rec.calls["core.partition"] == 1


def test_traced_fit_counts_layers_and_bypasses_the_other_trainer():
    from repro import GBDTParams, GPUGBDTTrainer, HistogramGBDTTrainer, make_dataset

    ds = make_dataset("covtype", run_rows=300, seed=3)
    exact, hist = Recorder(), Recorder()
    with instrument(exact), exact.span("fit"):
        GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3)).fit(ds.X, ds.y)
    with instrument(hist), hist.span("fit"):
        HistogramGBDTTrainer(GBDTParams(n_trees=2, max_depth=3)).fit(ds.X, ds.y)
    assert exact.calls["core.find_split"] > 0 and exact.calls["core.partition"] > 0
    assert exact.calls["approx.accumulate"] == 0 and exact.calls["approx.scan"] == 0
    assert hist.calls["approx.accumulate"] > 0 and hist.calls["approx.scan"] > 0
    assert hist.calls["core.find_split"] == 0 and hist.calls["core.partition"] == 0
    assert hist.counts["approx.accumulate.entries"] > 0
    # every scan after the root level sees sibling pairs
    assert hist.counts["approx.sibling_pairs"] > 0


def test_every_target_is_wrapped_inside_the_context():
    import importlib

    def lookup(module_name, path):
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    originals = [lookup(module_name, path) for module_name, path, _, _ in TARGETS]
    with instrument(Recorder()):
        for (module_name, path, _, _), original in zip(TARGETS, originals):
            assert lookup(module_name, path).__wrapped__ is original, path
    for (module_name, path, _, _), original in zip(TARGETS, originals):
        assert lookup(module_name, path) is original, path
