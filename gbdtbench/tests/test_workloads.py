"""Whole runs at toy size, and the environment guard of run.py."""

import contextlib
import dataclasses
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import workloads

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture
def toy(monkeypatch):
    """Every workload shrunk to a second or two; the flat route still
    engages because 256 rows x 20 trees clears the flat threshold."""
    small = {
        name: dataclasses.replace(spec, population_rows=21000, train_rows=800, n_trees=20,
                                  setup_repeats=2)
        for name, spec in workloads.SPECS.items()
    }
    monkeypatch.setattr(workloads, "SPECS", small)
    monkeypatch.setattr(workloads, "BULK_MIX", ((20000, 1), (1000, 1), (256, 2)))
    monkeypatch.setattr(workloads, "CHUNK_REQUESTS", 40)
    monkeypatch.setattr(workloads, "REQUEST_RATE", 4000.0)


def contract_names(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_plain_run_is_correct_and_reports_every_end_to_end_metric(toy, name):
    result, info = workloads.run_workload(name, seed=3, seconds=0.0, trace=False)
    assert info["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == contract_names("end_to_end")
    assert all(v > 0 for v in result["metrics"].values())
    assert info["requests"] == 40 * workloads.MIN_SERVE_ROUNDS


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_traced_run_reports_every_layer_and_zero_for_bypassed_ones(toy, name):
    result, info = workloads.run_workload(name, seed=3, seconds=0.0, trace=True)
    assert info["failures"] == []
    assert result["correct"]
    m = result["metrics"]
    assert set(m) == contract_names("per_layer")
    assert m["serve.predict.flat_frac"] == 1.0
    if name == "exact-covtype":
        assert m["core.find_split.calls"] > 0 and m["data.rle.compression_ratio"] > 1
        assert m["approx.accumulate.s"] == m["approx.scan.features"] == 0
    elif name == "hist-higgs":
        assert m["approx.accumulate.entries"] > 0 and m["approx.subtract.engaged_frac"] > 0
        assert m["core.find_split.calls"] == m["core.partition.s"] == 0
    else:
        assert m["gpusim.kernel_launches"] == m["core.gradients.s"] == 0


def test_same_seed_repeats_digests_and_modeled_numbers(toy):
    runs = [workloads.run_workload("hist-higgs", seed=5, seconds=0.0, trace=False)
            for _ in range(2)]
    (r1, i1), (r2, i2) = runs
    assert (i1["model_digest"], i1["ledger_digest"]) == (i2["model_digest"], i2["ledger_digest"])
    for key in ("modeled_fit_s", "holdout_rmse", "modeled_device_peak_mb"):
        assert r1["metrics"][key] == r2["metrics"][key]


def test_a_bypassed_layer_that_runs_fails_the_run(toy, monkeypatch):
    monkeypatch.setitem(workloads.BYPASS, "hist-higgs", ("approx.scan",))
    result, info = workloads.run_workload("hist-higgs", seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert any("approx.scan called" in f for f in info["failures"])


def test_a_core_kernel_reached_through_the_histogram_trainers_module_fails_the_run(
        toy, monkeypatch):
    import repro.approx.histogram_trainer as hist_mod
    from repro.core.partition import partition_segments

    scan = hist_mod.scan_histograms
    monkeypatch.setattr(hist_mod, "partition_segments", partition_segments, raising=False)

    def scan_that_strays(*args, **kwargs):
        # reaches the exact partition kernel through the trainer's own module
        with contextlib.suppress(Exception):
            hist_mod.partition_segments(None, None, None, None, None, 0, None)
        return scan(*args, **kwargs)

    monkeypatch.setattr(hist_mod, "scan_histograms", scan_that_strays)
    result, info = workloads.run_workload("hist-higgs", seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert any("core.partition called" in f for f in info["failures"])


def test_rmse_ceiling_fails_the_run(toy, monkeypatch):
    spec = dataclasses.replace(workloads.SPECS["exact-covtype"], rmse_ceiling=0.01)
    monkeypatch.setitem(workloads.SPECS, "exact-covtype", spec)
    result, info = workloads.run_workload("exact-covtype", seed=3, seconds=0.0, trace=False)
    assert not result["correct"]
    assert any("holdout_rmse" in f for f in info["failures"])


@pytest.mark.parametrize("seconds, min_rounds, started", [
    (10.0, 1, [0.0, 3.0, 6.0]),     # a fourth round would end at 12 s
    (1.0, 3, [0.0, 3.0, 6.0]),      # the minimum overrides the window
])
def test_a_round_starts_only_while_one_like_the_last_still_fits(seconds, min_rounds,
                                                                 started):
    now = [0.0]
    seen = []
    for _ in workloads.rounds_within(seconds, min_rounds, clock=lambda: now[0]):
        seen.append(now[0])
        now[0] += 3.0                       # every round takes 3 s
        assert len(seen) < 10
    assert seen == started


def _run(cwd, env_extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "gbdtbench/run.py", "--workload", "exact-covtype", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("switch", ["REPRO_ARENA", "REPRO_SUBTRACT", "REPRO_TRACE"])
def test_a_code_path_switch_refuses_the_run(switch):
    proc = _run(ROOT, {switch: "0"})
    assert proc.returncode != 0
    assert switch in proc.stderr and proc.stdout == ""


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "gbdtbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
