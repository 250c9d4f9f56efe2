"""Serving-cluster bench: goodput scaling + rolling-deploy drill.

Answers the PR's acceptance question with numbers: at the *same offered
load* (identical :class:`~repro.serve.cluster.loadgen.LoadSpec`, identical
seed), does a 4-replica front door sustain strictly higher goodput than a
single-replica one?  The load is sized to saturate one replica -- the
single-replica run degrades/rejects the overflow (those responses do not
count as goodput), while the 4-replica run absorbs it.

The second half is the **rolling-deploy drill**, run under the same burst
storm:

1. serve probe rows through the cluster and check byte-identity against the
   old version's direct predictions;
2. mid-storm, roll the cluster to a new version (drain -> validate -> pin ->
   warm, one replica at a time) and assert zero requests were dropped
   (``offered == completed + rejected``; every admitted request resolved
   exactly once);
3. serve the probes again -- byte-identical to the *new* version;
4. attempt a deploy wired to fail validation, assert it rolls back, and
   check the probes still serve byte-identically to the pre-attempt version
   with the registry's active pointer unmoved.

Everything lands in ``BENCH_serving_cluster.json`` (via
:func:`repro.bench.output.write_bench_json`) with run-store-stable metric
paths, so ``python -m repro runs submit|diff|gate`` track serving
regressions like training ones.  Run it with
``python -m repro.bench.clusterbench [--quick]``; the exit status is
non-zero when the drill fails.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from ..core.params import GBDTParams
from ..core.trainer import GPUGBDTTrainer
from ..data.datasets import make_dataset
from ..serve import BatchPolicy, ModelRegistry
from ..serve.cluster import (
    AdmissionPolicy,
    FrontDoor,
    LoadReport,
    LoadSpec,
    ServiceModel,
    run_load,
)
from .output import write_bench_json

__all__ = ["ClusterBenchResult", "main", "run_cluster_bench"]

#: slower-than-real batch service model, sized so the bench's offered load
#: saturates one replica but not four (the comparison the acceptance needs)
SERVICE = ServiceModel(base_s=0.002, per_row_s=0.0001)
POLICY = BatchPolicy(max_batch=32, max_wait=0.004, max_queue=64, cache_size=0)


@dataclasses.dataclass
class ClusterBenchResult:
    single: LoadReport
    cluster: LoadReport
    goodput_ratio: float
    deploy_report: Dict[str, object]
    n_trees: int

    def payload(self) -> Dict[str, object]:
        return {
            "n_trees": self.n_trees,
            "metrics": {
                "single": self.single.payload()["metrics"],
                "cluster": self.cluster.payload()["metrics"],
                "goodput_ratio": self.goodput_ratio,
                "deploy": self.deploy_report,
            },
        }

    @property
    def text(self) -> str:
        lines = [
            "Serving cluster bench -- same offered load, 1 vs "
            f"{self.cluster.n_replicas} replicas",
            "-- single replica --",
            self.single.text(),
            f"-- {self.cluster.n_replicas} replicas --",
            self.cluster.text(),
            f"goodput ratio (cluster/single): {self.goodput_ratio:.2f}x",
            (
                "rolling deploy: swapped={swapped} dropped={dropped} "
                "rollback_drill={rollback_ok}".format(**self.deploy_report)
            ),
        ]
        return "\n".join(lines)


def _storm_spec(quick: bool) -> LoadSpec:
    return LoadSpec(
        n_clients=96,
        duration_s=0.6 if quick else 2.0,
        arrival="bursty",
        mean_gap_s=0.003,
        burst_factor=6.0,
        burst_period_s=0.2,
        burst_duty=0.4,
        slow_client_frac=0.125,
        slow_client_delay_s=0.02,
        slo_ms=25.0,
        seed=7,
    )


def _front_door(
    registry: ModelRegistry, n_replicas: int, X: np.ndarray
) -> FrontDoor:
    return FrontDoor(
        registry,
        n_replicas,
        policy=POLICY,
        admission=AdmissionPolicy(max_pending=48 * n_replicas, overload="degrade"),
        router="least-loaded",
        service=SERVICE,
        warm_rows=X[:8],
    )


def _serve_probes(fd: FrontDoor, probes: np.ndarray, t0: float) -> np.ndarray:
    """Serve ``probes`` through the front door and return their values
    (advancing simulated time past every flush)."""
    handles = [fd.submit(row, t0 + i * 1e-4) for i, row in enumerate(probes)]
    fd.quiesce(t0 + len(probes) * 1e-4)
    return np.array([h.result() for h in handles])


def run_cluster_bench(
    quick: bool = False, emit: bool = True
) -> ClusterBenchResult:
    """Run the goodput comparison + deploy drill; optionally write
    ``BENCH_serving_cluster.json``."""
    n_trees = 20 if quick else 60
    ds = make_dataset("susy", run_rows=400 if quick else 1200, seed=21)
    X = ds.X.to_dense().values

    model_v1 = GPUGBDTTrainer(GBDTParams(n_trees=n_trees, max_depth=4)).fit(
        ds.X, ds.y
    )
    model_v2 = GPUGBDTTrainer(
        GBDTParams(n_trees=n_trees, max_depth=4, learning_rate=0.2)
    ).fit(ds.X, ds.y)
    registry = ModelRegistry()
    v1 = registry.publish(model_v1)
    v2 = registry.publish(model_v2, activate=False)

    spec = _storm_spec(quick)
    single = run_load(_front_door(registry, 1, X), X, spec)
    cluster = run_load(_front_door(registry, 4, X), X, spec)

    # ---------------------------------------------------------- deploy drill
    probes = X[:32]
    flat_v1 = registry.get("default", v1).flat
    flat_v2 = registry.get("default", v2).flat
    expected_v2 = flat_v2.predict(probes)

    fd = _front_door(registry, 4, X)
    pre = _serve_probes(fd, probes, 0.0)
    assert np.array_equal(pre, flat_v1.predict(probes)), "pre-deploy mismatch"

    deploy_t = spec.duration_s * 0.35
    report = run_load(
        fd,
        X,
        spec,
        actions=[
            (
                deploy_t,
                lambda door, now: door.start_deploy(
                    v2, probes, expected_v2, now=now
                ),
            )
        ],
    )
    deploy = fd.deploy
    assert deploy is not None and deploy.done and not deploy.failed
    dropped = report.offered - report.completed - report.rejected
    post = _serve_probes(fd, probes, report.duration_s + 1.0)
    swap_identical = bool(np.array_equal(post, expected_v2))

    # rollback drill: wire validation to fail (expected values from v1 while
    # deploying v2... the registry active is v2 now, so roll "back" to v1
    # with garbage expectations) and assert the cluster converges unchanged.
    before_rollback = _serve_probes(fd, probes, report.duration_s + 2.0)
    fd.start_deploy(
        v1,
        probes,
        np.full(len(probes), np.inf),  # impossible expectation -> fails
        now=report.duration_s + 3.0,
    )
    fd.quiesce(report.duration_s + 3.0)
    bad = fd.deploy
    assert bad is not None and bad.done and bad.failed and bad.rolled_back
    after_rollback = _serve_probes(fd, probes, report.duration_s + 4.0)
    rollback_ok = bool(np.array_equal(before_rollback, after_rollback))
    active_after = registry.active().version

    deploy_report: Dict[str, object] = {
        "swapped": len(deploy.swapped),
        "dropped": int(dropped),
        "mid_storm_completed": report.completed,
        "swap_identical": swap_identical,
        "rollback_ok": rollback_ok,
        "active_unmoved_after_rollback": active_after == v2,
    }
    result = ClusterBenchResult(
        single=single,
        cluster=cluster,
        goodput_ratio=(
            cluster.goodput_qps / single.goodput_qps
            if single.goodput_qps > 0
            else float("inf")
        ),
        deploy_report=deploy_report,
        n_trees=n_trees,
    )
    if emit:
        write_bench_json("serving_cluster", result.payload())
    return result


def main(argv: List[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="smoke-scale workload")
    args = ap.parse_args(argv)
    result = run_cluster_bench(quick=args.quick)
    print(result.text)
    deploy = result.deploy_report
    checks = ("swap_identical", "rollback_ok", "active_unmoved_after_rollback")
    if deploy["dropped"] or not all(deploy[c] for c in checks):
        print(f"ERROR: deploy drill failed: {deploy}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
