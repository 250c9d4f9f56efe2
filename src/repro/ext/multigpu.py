"""Multi-GPU GBDT training (the paper's stated future work, Section VI).

"Our algorithm is naturally applicable to multiple GPUs or GPU clusters,
and we consider this direction as our future work."  This module implements
the natural extension: **attribute-parallel** training, the layout later
adopted by ThunderGBM.  Attributes are sharded round-robin across devices;
every device holds the full instance set but only its attributes' sorted
(optionally RLE-compressed) lists.

:class:`MultiGpuGBDTTrainer` is a :class:`~repro.core.trainer.GPUGBDTTrainer`
whose exact level loop runs over one attribute shard per device.  Setup,
sampling, validation, warm start and the loop itself are inherited; the
subclass overrides four hooks:

``_make_shards``
    round-robin attributes, one :class:`~repro.gpusim.kernel.GpuDevice`
    (and one workspace arena) each; a device left without attributes idles.
``_combine_splits``
    every device has found the best split of every active node *among its
    own attributes*; the per-node winner is the strictly highest gain, ties
    going to the lowest global attribute (the single-GPU rule).  Every
    shard is charged the ``allreduce_best_splits`` exchange before leaves
    are decided.
``_materialize_sides``
    the device owning each winning attribute writes the instance sides of
    its segments and broadcasts the side array (1 byte per instance per
    peer, ``broadcast_side_array``).
``_boost_round``
    gradients are computed on device 0; every other device is charged
    ``broadcast_gradients`` once per round.

Each device then partitions its own lists.  The trees are bit-identical to
single-GPU training (asserted by ``tests/test_multigpu.py``) because every
decision consumes the same float32-quantized gains.

The modeled wall time is the slowest device's ledger (shards are balanced,
communication is charged to the devices that perform it).
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import List, Tuple

import numpy as np

from ..core.params import GBDTParams
from ..core.split import NodeBestSplits
from ..core.trainer import GPUGBDTTrainer, _Shard
from ..core.workspace import WorkspaceArena
from ..gpusim.device import TITAN_X_PASCAL, DeviceSpec
from ..gpusim.kernel import GpuDevice
from ..obs import get_registry, span

__all__ = ["MultiGpuGBDTTrainer"]


def _comm(op: str, nbytes: float) -> None:
    """Count inter-device payload bytes next to the ledger charge."""
    get_registry().counter(
        "comm_bytes_total",
        "inter-device communication payload bytes",
        trainer="multigpu",
        op=op,
    ).inc(float(nbytes))


class MultiGpuGBDTTrainer(GPUGBDTTrainer):
    """Attribute-parallel GBDT training over ``n_devices`` simulated GPUs."""

    def __init__(
        self,
        params: GBDTParams | None = None,
        n_devices: int = 2,
        spec: DeviceSpec = TITAN_X_PASCAL,
        *,
        work_scale: float = 1.0,
        seg_scale: float = 1.0,
        row_scale: float = 1.0,
    ) -> None:
        if n_devices < 1:
            raise ValueError("need at least one device")
        devices = [
            GpuDevice(spec, work_scale=work_scale, seg_scale=seg_scale)
            for _ in range(n_devices)
        ]
        super().__init__(params, devices[0], row_scale=row_scale)
        self.devices = devices
        # device 0's shard shares the trainer's arena; the rest get their own
        self._arenas = [self.workspace] + [
            WorkspaceArena(enabled=self.use_arena) for _ in devices[1:]
        ]

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def used_rle(self) -> bool:
        """Whether the last fit ran on RLE-compressed lists."""
        return self.report is not None and self.report.used_rle

    def elapsed_seconds(self) -> float:
        """Modeled wall time: the slowest device (shards run concurrently)."""
        return max(dev.elapsed_seconds() for dev in self.devices)

    # ------------------------------------------------------------------ hooks
    def _make_shards(self, n_cols: int) -> List[_Shard]:
        k = self.n_devices
        return [
            _Shard(dev, np.arange(di, n_cols, k, dtype=np.int64), ws)
            for di, (dev, ws) in enumerate(zip(self.devices, self._arenas))
            if di < n_cols
        ]

    @contextlib.contextmanager
    def _boost_round(self, t_idx: int, n_rows: int):
        with span("multigpu.boost_round", round=t_idx, devices=self.n_devices):
            # the peers idle while device 0 computes the gradients, so the
            # broadcast is charged up front
            nbytes = n_rows * 16 * self.row_scale
            for dev in self.devices[1:]:
                dev.transfer("broadcast_gradients", nbytes, scale=False)
                _comm("broadcast_gradients", nbytes)
            yield

    def _combine_splits(
        self, shards: List[_Shard], bests: List[NodeBestSplits]
    ) -> Tuple[NodeBestSplits, np.ndarray]:
        n_active = bests[0].gain.size
        owner = np.full(n_active, -1, dtype=np.int64)
        gain = np.full(n_active, -np.inf)
        attr = np.full(n_active, -1, dtype=np.int64)
        for si, (shard, b) in enumerate(zip(shards, bests)):
            gattr = np.where(b.found, shard.tree_attrs[np.maximum(b.attr, 0)], -1)
            better = b.found & ((b.gain > gain) | ((b.gain == gain) & (gattr < attr)))
            owner[better] = si
            gain[better] = b.gain[better]
            attr[better] = gattr[better]
        nbytes = n_active * 64 * (self.n_devices - 1)
        for shard in shards:
            shard.device.transfer("allreduce_best_splits", nbytes, scale=False)
            _comm("allreduce_best_splits", nbytes)
        # every other field comes from the owner's record
        pick = (np.maximum(owner, 0), np.arange(n_active))
        fields = {
            f.name: np.stack([getattr(b, f.name) for b in bests])[pick]
            for f in dataclasses.fields(NodeBestSplits)
        }
        fields.update(gain=gain, attr=attr)
        return NodeBestSplits(**fields), owner

    def _materialize_sides(
        self, shards: List[_Shard], best: NodeBestSplits, owner: np.ndarray,
        split_locals: np.ndarray, side_inst: np.ndarray, node_n: np.ndarray,
    ) -> None:
        n = side_inst.size
        nbytes = n * self.row_scale * (self.n_devices - 1)
        for si, shard in enumerate(shards):
            owned = split_locals[owner[split_locals] == si]
            if owned.size == 0:
                continue
            with shard.device.phase("split_node"):
                self._override_sides(shard, best, owned, side_inst)
                shard.device.launch(
                    "materialize_instance_sides",
                    elements=n * self.row_scale,
                    flops_per_element=2.0,
                    coalesced_bytes=n * self.row_scale * 9,
                    scale=False,
                )
                shard.device.transfer("broadcast_side_array", nbytes, scale=False)
            _comm("broadcast_side_array", nbytes)
