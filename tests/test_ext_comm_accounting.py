"""Comm-volume accounting for the attribute-parallel multi-GPU trainer.

The trainer charges its inter-device traffic to the gpusim ledgers *and*
counts the same payloads through the obs metric
``comm_bytes_total{trainer=,op=}``.  These tests pin both books to each
other and to closed-form formulas derived by replaying the grown trees:

* ``broadcast_gradients``   = n_trees * (k-1) * n * 16 * row_scale
* ``allreduce_best_splits`` = sum over trees and executed levels L of
  n_active(L) * 64 * (k-1) * k          (every shard charges the exchange)
* ``broadcast_side_array``  = sum over trees and levels of
  #owner-shards(L) * n * row_scale * (k-1), where the owner of attribute a
  under round-robin sharding is device ``a % k`` and a shard charges only
  when it owns at least one winning split at that level.

n_active(L) is the node count at depth L of the final tree -- exact because
the depthwise loop enters level L iff any node exists there, and charges the
allreduce before deciding leaves.
"""

import numpy as np

from repro import GBDTParams
from repro.data import make_dataset
from repro.ext.multigpu import MultiGpuGBDTTrainer
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer


def _counter_value(registry, trainer, op):
    return registry.counter("comm_bytes_total", trainer=trainer, op=op).value


def _ledger_bytes(devices, name):
    return sum(
        t.nbytes for dev in devices for t in dev.ledger.transfers if t.name == name
    )


class TestMultiGpuAccounting:
    K = 3

    def _train(self, k=K, n_trees=3, max_depth=4):
        registry = MetricsRegistry(max_label_sets=1024)
        tracer = Tracer(enabled=True)
        with use_registry(registry), use_tracer(tracer):
            ds = make_dataset("covtype", run_rows=400, seed=3)
            trainer = MultiGpuGBDTTrainer(
                GBDTParams(n_trees=n_trees, max_depth=max_depth, seed=7),
                n_devices=k,
            )
            model = trainer.fit(ds.X, ds.y)
        return ds, trainer, model, registry, tracer

    def _analytic(self, ds, trainer, model):
        n = ds.X.shape[0]
        k = trainer.n_devices
        p = trainer.params
        rs = trainer.row_scale
        bg = p.n_trees * (k - 1) * n * 16 * rs
        ar = 0.0
        bs = 0.0
        for tree in model.trees:
            depths = np.asarray(tree.depth)
            for lvl in range(p.max_depth):
                n_active = int((depths == lvl).sum())
                if n_active == 0:
                    break
                ar += n_active * 64 * (k - 1) * k
                owners = {
                    tree.attr[nid] % k
                    for nid in range(tree.n_nodes)
                    if tree.depth[nid] == lvl and not tree.is_leaf(nid)
                }
                bs += len(owners) * n * rs * (k - 1)
        return {
            "broadcast_gradients": bg,
            "allreduce_best_splits": ar,
            "broadcast_side_array": bs,
        }

    def test_counters_match_ledger_and_formulas(self):
        ds, trainer, model, registry, _ = self._train()
        expected = self._analytic(ds, trainer, model)
        assert expected["broadcast_side_array"] > 0  # workload actually splits
        for op, want in expected.items():
            counted = _counter_value(registry, "multigpu", op)
            ledgered = _ledger_bytes(trainer.devices, op)
            assert counted == ledgered == want, (op, counted, ledgered, want)

    def test_row_scale_scales_row_linear_ops(self):
        registry = MetricsRegistry(max_label_sets=1024)
        with use_registry(registry):
            ds = make_dataset("covtype", run_rows=400, seed=3)
            trainer = MultiGpuGBDTTrainer(
                GBDTParams(n_trees=3, max_depth=4, seed=7),
                n_devices=self.K,
                row_scale=8.0,
            )
            model = trainer.fit(ds.X, ds.y)
        expected = self._analytic(ds, trainer, model)
        for op, want in expected.items():
            assert _counter_value(registry, "multigpu", op) == want, op

    def test_boost_round_spans_recorded(self):
        _, trainer, _, _, tracer = self._train()
        spans = [
            s for s in tracer.snapshot() if s["name"] == "multigpu.boost_round"
        ]
        assert len(spans) == trainer.params.n_trees
        assert all(s["attrs"]["devices"] == self.K for s in spans)

    def test_single_device_moves_nothing(self):
        ds, trainer, _, registry, _ = self._train(k=1)
        for op in (
            "broadcast_gradients",
            "allreduce_best_splits",
            "broadcast_side_array",
        ):
            assert _counter_value(registry, "multigpu", op) == 0.0
            assert _ledger_bytes(trainer.devices, op) == 0.0

