"""Cluster tier tests: routing, admission, lifecycle, rolling deploys."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.data.datasets import make_dataset
from repro.serve import BatchPolicy, ModelRegistry, QueueFull
from repro.serve.cluster import (
    AdmissionPolicy,
    ConsistentHashRouter,
    FrontDoor,
    LeastLoadedRouter,
    ReplicaState,
    RoundRobinRouter,
    ServiceModel,
    make_router,
)
from repro.serve.cluster.replica import Replica


@pytest.fixture(scope="module")
def models():
    ds = make_dataset("susy", run_rows=250, seed=12)
    a = GPUGBDTTrainer(GBDTParams(n_trees=4, max_depth=3)).fit(ds.X, ds.y)
    b = GPUGBDTTrainer(GBDTParams(n_trees=4, max_depth=3, learning_rate=0.2)).fit(
        ds.X, ds.y
    )
    return ds, a, b


@pytest.fixture
def cluster(models):
    """3-replica front door on v1, with v2 staged; plus probe rows."""
    ds, model_a, model_b = models
    registry = ModelRegistry()
    va = registry.publish(model_a)
    vb = registry.publish(model_b, activate=False)
    X = ds.X.to_dense().values
    fd = FrontDoor(
        registry,
        3,
        policy=BatchPolicy(max_batch=8, max_wait=0.004, max_queue=64),
        admission=AdmissionPolicy(max_pending=64, overload="degrade"),
        router="round-robin",
        service=ServiceModel(base_s=0.001, per_row_s=0.0001),
        warm_rows=X[:4],
    )
    return fd, registry, va, vb, X


class _Stub:
    def __init__(self, replica_id, depth=0):
        self.replica_id = replica_id
        self.queue_depth = depth


# ------------------------------------------------------------------- routing
class TestRouting:
    def test_round_robin_cycles_in_id_order(self):
        r = RoundRobinRouter()
        stubs = [_Stub(2), _Stub(0), _Stub(1)]
        picks = [r.pick(stubs).replica_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_shallow_queue_ties_by_id(self):
        r = LeastLoadedRouter()
        assert r.pick([_Stub(0, 5), _Stub(1, 2), _Stub(2, 2)]).replica_id == 1
        assert r.pick([_Stub(0, 3), _Stub(1, 3)]).replica_id == 0

    def test_hash_router_is_sticky_and_stable_under_membership_change(self):
        r = ConsistentHashRouter(vnodes=32)
        stubs = [_Stub(i) for i in range(4)]
        keys = [f"key-{i}".encode() for i in range(200)]
        owners = {k: r.pick(stubs, k).replica_id for k in keys}
        # sticky: same key, same replica
        assert all(r.pick(stubs, k).replica_id == owners[k] for k in keys)
        # removing one replica only remaps the keys it owned
        survivors = [s for s in stubs if s.replica_id != 3]
        moved = sum(
            1
            for k in keys
            if owners[k] != 3 and r.pick(survivors, k).replica_id != owners[k]
        )
        assert moved == 0

    def test_hash_router_keyless_falls_back_to_round_robin(self):
        r = ConsistentHashRouter()
        stubs = [_Stub(0), _Stub(1)]
        assert [r.pick(stubs).replica_id for _ in range(4)] == [0, 1, 0, 1]

    def test_make_router(self):
        assert isinstance(make_router("round-robin"), RoundRobinRouter)
        assert isinstance(make_router("least-loaded"), LeastLoadedRouter)
        assert isinstance(make_router("hash"), ConsistentHashRouter)
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")

    def test_empty_candidate_set_raises(self):
        for r in (RoundRobinRouter(), LeastLoadedRouter(), ConsistentHashRouter()):
            with pytest.raises(ValueError):
                r.pick([])


# ----------------------------------------------------------------- admission
class TestAdmission:
    def test_concurrent_producers_deterministic_degrade_no_lost_no_dup(
        self, models
    ):
        """Satellite: T producer threads against a full admission queue see
        deterministic degrade decisions and zero lost/duplicated responses."""
        ds, model_a, _ = models
        registry = ModelRegistry()
        registry.publish(model_a)
        X = ds.X.to_dense().values
        max_pending = 16
        fd = FrontDoor(
            registry,
            2,
            policy=BatchPolicy(max_batch=64, max_wait=10.0, max_queue=1024),
            admission=AdmissionPolicy(max_pending=max_pending, overload="degrade"),
            service=ServiceModel(),
            warm_rows=X[:2],
        )
        n_threads, per_thread = 8, 25
        handles = [[] for _ in range(n_threads)]
        barrier = threading.Barrier(n_threads)

        def producer(tid):
            barrier.wait()
            for i in range(per_thread):
                handles[tid].append(fd.submit(X[(tid + i) % len(X)], now=0.0))

        threads = [
            threading.Thread(target=producer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        flat = [h for hs in handles for h in hs]
        total = n_threads * per_thread
        assert len(flat) == total
        degraded = [h for h in flat if h.degraded]
        queued = [h for h in flat if not h.degraded]
        # deterministic under the admission lock: exactly max_pending
        # requests were admitted, every other one degraded -- regardless of
        # thread interleaving
        assert len(queued) == max_pending
        assert len(degraded) == total - max_pending
        assert all(h.done for h in degraded)
        assert fd.degraded == total - max_pending and fd.admitted == max_pending
        # flush the queued remainder: every handle resolves exactly once
        # (PendingPrediction raises on double resolve)
        fd.quiesce(0.0)
        assert all(h.done for h in flat)
        assert all(isinstance(h.result(), float) for h in flat)

    def test_reject_policy_applies_backpressure(self, models):
        ds, model_a, _ = models
        registry = ModelRegistry()
        registry.publish(model_a)
        X = ds.X.to_dense().values
        fd = FrontDoor(
            registry,
            1,
            policy=BatchPolicy(max_batch=64, max_wait=10.0, max_queue=1024),
            admission=AdmissionPolicy(max_pending=4, overload="reject"),
            warm_rows=X[:2],
        )
        for i in range(4):
            fd.submit(X[i], now=0.0)
        with pytest.raises(QueueFull):
            fd.submit(X[4], now=0.0)
        assert fd.rejected == 1 and fd.pending == 4

    def test_no_ready_replica_rejects(self, cluster):
        fd, *_rest, X = cluster
        for r in fd.replicas:
            r.begin_drain(0.0)
        with pytest.raises(QueueFull, match="no READY replica"):
            fd.submit(X[0], now=0.0)
        assert fd.rejected == 1


# ----------------------------------------------------------------- lifecycle
class TestLifecycle:
    def test_warming_replica_takes_no_traffic(self, models):
        ds, model_a, _ = models
        registry = ModelRegistry()
        registry.publish(model_a)
        r = Replica(0, registry)
        assert r.state is ReplicaState.WARMING
        with pytest.raises(RuntimeError, match="not READY"):
            r.submit(np.zeros(ds.X.n_cols), now=0.0)
        out = r.warm_up(ds.X.to_dense().values[:4])
        assert r.state is ReplicaState.READY
        assert np.array_equal(
            out, registry.active().flat.predict(ds.X.to_dense().values[:4])
        )

    def test_drain_then_stop_freezes_serving(self, models):
        """Satellite drill: no request is ever served by a draining replica
        after its drain completes."""
        ds, model_a, _ = models
        registry = ModelRegistry()
        registry.publish(model_a)
        X = ds.X.to_dense().values
        r = Replica(0, registry, policy=BatchPolicy(max_batch=4, max_wait=0.01))
        r.warm_up(X[:2])
        r.submit(X[0], now=0.0)
        r.begin_drain(now=0.001)
        assert r.state is ReplicaState.DRAINING
        with pytest.raises(RuntimeError, match="not READY"):
            r.submit(X[1], now=0.002)  # draining: no new traffic
        # queued work still flushes during the drain
        batch = r.batcher.take()
        r.complete_batch(batch, 0.002, 0.003)
        assert r.served_total == 1
        assert r.is_drained(0.004)
        r.finish_drain(0.004)
        assert r.state is ReplicaState.STOPPED
        # after drain completes, serving anything is a hard error (checked
        # before the batch is even inspected)
        with pytest.raises(RuntimeError, match="after drain completed"):
            r.complete_batch([], 0.005, 0.006)

    def test_pin_requires_drained_replica(self, cluster):
        fd, registry, va, vb, X = cluster
        r = fd.replicas[0]
        with pytest.raises(RuntimeError, match="drain before re-pinning"):
            r.pin(vb)

    def test_finish_drain_refuses_with_pending_work(self, cluster):
        fd, *_rest, X = cluster
        r = fd.replicas[0]
        r.submit(X[0], now=0.0)
        r.begin_drain(0.001)
        with pytest.raises(RuntimeError, match="still has work"):
            r.finish_drain(0.001)


# ------------------------------------------------------------ rolling deploy
class TestRollingDeploy:
    def _pump(self, fd, X, t0, n=40, gap=0.002):
        """Feed requests while advancing simulated time; returns handles."""
        handles = []
        t = t0
        for i in range(n):
            fd.advance(t)
            try:
                handles.append((fd.submit(X[i % len(X)], t), t))
            except QueueFull:
                pass
            t += gap
        return handles, t

    def test_deploy_swaps_all_replicas_and_drops_nothing(self, cluster):
        fd, registry, va, vb, X = cluster
        probes = X[:8]
        expected = registry.get("default", vb).flat.predict(probes)
        handles, t = self._pump(fd, X, 0.0, n=30)
        report = fd.start_deploy(vb, probes, expected, now=t)
        more, t = self._pump(fd, X, t, n=60)
        t_end = fd.quiesce(t)
        assert report.done and not report.failed
        assert sorted(report.swapped) == [0, 1, 2]
        assert registry.active().version == vb
        assert all(r.version == vb for r in fd.replicas)
        assert all(r.state is ReplicaState.READY for r in fd.replicas)
        # zero dropped in-flight requests: every admitted handle resolved
        all_handles = handles + more
        assert all_handles and all(h.done for h, _ in all_handles)
        # every request was served by a single consistent version
        assert {h.version for h, _ in all_handles} <= {va, vb}

    def test_stopped_replicas_never_served_while_stopped(self, cluster):
        """Track every replica's served_total across its STOPPED window (by
        hooking the lifecycle transitions) -- it must not move between
        finish_drain and the re-admitting warm_up."""
        fd, registry, va, vb, X = cluster
        probes = X[:8]
        expected = registry.get("default", vb).flat.predict(probes)
        at_stop, at_warm = {}, {}
        for r in fd.replicas:
            orig_stop, orig_warm = r.finish_drain, r.warm_up

            def stop(now, _r=r, _orig=orig_stop):
                _orig(now)
                at_stop[_r.replica_id] = _r.served_total

            def warm(rows, now=0.0, _r=r, _orig=orig_warm):
                if _r.state is ReplicaState.STOPPED:
                    at_warm[_r.replica_id] = _r.served_total
                return _orig(rows, now)

            r.finish_drain, r.warm_up = stop, warm

        handles, t = self._pump(fd, X, 0.0, n=30)
        fd.start_deploy(vb, probes, expected, now=t)
        _more, t = self._pump(fd, X, t, n=60)
        fd.quiesce(t)
        assert fd.deploy.done and not fd.deploy.failed
        # every replica passed through STOPPED, and served nothing there
        assert sorted(at_stop) == [0, 1, 2] == sorted(at_warm)
        assert at_stop == at_warm

    def test_validation_failure_rolls_back_and_restores_digest(self, cluster):
        """Satellite drill: rollback restores the prior version digest and
        byte-identical served predictions."""
        fd, registry, va, vb, X = cluster
        probes = X[:8]

        def serve(t0):
            hs = [fd.submit(row, t0 + i * 1e-3) for i, row in enumerate(probes)]
            fd.quiesce(t0 + len(probes) * 1e-3)
            return np.array([h.result() for h in hs])

        before = serve(0.0)
        assert np.array_equal(
            before, registry.get("default", va).flat.predict(probes)
        )
        report = fd.start_deploy(
            vb, probes, np.full(len(probes), -1e30), now=1.0
        )
        fd.quiesce(1.0)
        assert report.done and report.failed and report.rolled_back
        assert report.swapped == []
        # prior version digest restored everywhere; active pointer unmoved
        assert registry.active().version == va
        assert all(r.version == va for r in fd.replicas)
        after = serve(2.0)
        assert np.array_equal(before, after)

    def test_concurrent_deploys_refused(self, cluster):
        fd, registry, va, vb, X = cluster
        probes = X[:4]
        expected = registry.get("default", vb).flat.predict(probes)
        fd.start_deploy(vb, probes, expected, now=0.0)
        with pytest.raises(RuntimeError, match="already in progress"):
            fd.start_deploy(vb, probes, expected, now=0.0)

    def test_deploy_merges_per_replica_traces(self, cluster, tmp_path):
        """Per-replica spans merge into one Chrome trace, one pid per
        replica, like the distributed per-rank merge."""
        import json

        from repro.obs import export_merged_chrome_trace

        fd, registry, va, vb, X = cluster
        self._pump(fd, X, 0.0, n=30)
        fd.quiesce(0.2)
        path = tmp_path / "cluster_trace.json"
        n = export_merged_chrome_trace(path, rank_tracers=list(fd.rank_tracers()))
        assert n > 0
        doc = json.loads(path.read_text())
        slice_pids = {e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert len(slice_pids) == 3  # one pid per replica


def test_clusterbench_cli_runs_the_drill(tmp_path):
    """``python -m repro.bench.clusterbench --quick`` runs the goodput
    comparison and deploy drill and writes its artifact."""
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["BENCH_METRICS_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench.clusterbench", "--quick"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, f"{proc.stdout}\n{proc.stderr}"
    assert "rolling deploy: swapped=4 dropped=0" in proc.stdout
    doc = json.loads((tmp_path / "BENCH_serving_cluster.json").read_text(encoding="utf-8"))
    assert doc["metrics"]["deploy"]["dropped"] == 0
