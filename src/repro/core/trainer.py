"""The GPU-GBDT training loop: Algorithm 1 on the simulated device.

Per boosting round the trainer:

1. computes gradients (SmartGD or traversal, :mod:`repro.core.smartgd`);
2. grows the tree level by level; at each level one kernel sequence finds
   the best split of **every** active node (:mod:`repro.core.split`) --
   the paper's node x attribute x split-point parallelism;
3. splits the nodes: instances are routed by *position* in the chosen
   segment (entries before the split point go left, matching the sorted
   enumeration exactly), the attribute lists are partitioned
   order-preservingly (:mod:`repro.core.partition`), and the RLE runs are
   split directly or via decompression (:mod:`repro.core.rle_split`);
4. finalizes leaves with weight ``-eta * G / (H + lambda)`` and reports
   them to the gradient computer (SmartGD's "intermediate results").

The level loop iterates over *attribute shards*: steps 2 and 3 run per
shard, and a per-node combine picks each node's winner among the shards'
candidates.  This trainer has a single shard holding every attribute on
its device; :class:`~repro.ext.multigpu.MultiGpuGBDTTrainer` reuses the
same loop with one shard per device.

Every Fig. 9 optimization switch in :class:`~repro.core.params.GBDTParams`
changes the *recorded work* (and sometimes the code path) but never the
resulting trees -- ``tests/test_trainer.py`` asserts tree identity across
all switch combinations and against the independent CPU reference.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Tuple

import numpy as np

from ..data.matrix import CSRMatrix
from ..data.rle import RunLengthColumns, decide_compression, encode_segments
from ..data.sorted_columns import SortedColumns, build_sorted_columns
from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import bincount_sum
from ..obs import get_registry, span
from .booster_model import GBDTModel
from .params import GBDTParams
from .partition import partition_segments, plan_partition
from .rle_split import split_runs_direct, split_runs_with_decompression
from .sampling import TreeSample, sample_tree
from .smartgd import GradientComputer
from .split import (
    NodeBestSplits,
    SegmentLayout,
    find_best_splits_rle,
    find_best_splits_sparse,
)
from .tree import DecisionTree
from .workspace import IDX_DTYPE, WorkspaceArena, arena_enabled_default

__all__ = ["GPUGBDTTrainer", "TrainReport"]


@dataclasses.dataclass
class TrainReport:
    """Side information from a training run."""

    used_rle: bool
    compression_ratio: float
    n_nodes_total: int
    n_leaves_total: int
    #: per-tree node counts, in boosting order
    tree_sizes: list = dataclasses.field(default_factory=list)
    #: deepest leaf over the whole ensemble
    max_depth_seen: int = 0

    @property
    def n_trees(self) -> int:
        return len(self.tree_sizes)

    @property
    def mean_tree_size(self) -> float:
        return float(sum(self.tree_sizes) / len(self.tree_sizes)) if self.tree_sizes else 0.0


@dataclasses.dataclass
class _Shard:
    """One device's slice of the attribute lists.

    ``attrs`` (global ids, ascending) are sorted onto ``device`` at setup.
    Every tree stages working lists for ``tree_attrs`` -- the shard's
    attributes drawn for that tree -- and partitions them level by level.
    The shard's list buffers live in its own ``workspace``, so two shards
    never share a ping-pong slot.
    """

    device: GpuDevice
    attrs: np.ndarray
    workspace: WorkspaceArena
    cols: SortedColumns | None = None
    base_rle: RunLengthColumns | None = None
    # per-tree working state
    tree_attrs: np.ndarray | None = None
    inst: np.ndarray | None = None
    vals: np.ndarray | None = None
    rle: RunLengthColumns | None = None
    layout: SegmentLayout | None = None
    sid: np.ndarray | None = None


class GPUGBDTTrainer:
    """Train a GBDT on the simulated GPU.

    Parameters
    ----------
    params:
        Hyper-parameters and optimization switches.
    device:
        Simulated device (scales pre-configured by the caller/harness);
        a fresh Titan X is created when omitted.
    row_scale:
        Full-scale rows per run row, for per-instance kernel accounting.
    dense_memory_model:
        When True, device memory is registered the way the dense GPU
        XGBoost baseline allocates it (n x d cells + node-interleaved
        gradient copies) instead of GPU-GBDT's sparse/RLE layout.  Used by
        :mod:`repro.cpu.gpu_xgboost`.
    use_arena:
        Route the hot-path temporaries through a persistent
        :class:`~repro.core.workspace.WorkspaceArena` (default: the
        ``REPRO_ARENA`` environment switch, on unless set to ``0``).
        Trees, serialized models, and the device ledger are byte-identical
        either way -- the switch lives on the trainer (not
        :class:`~repro.core.params.GBDTParams`) precisely so it can never
        leak into a serialized model.
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        device: GpuDevice | None = None,
        *,
        row_scale: float = 1.0,
        dense_memory_model: bool = False,
        use_arena: bool | None = None,
    ) -> None:
        self.params = params if params is not None else GBDTParams()
        self.device = device if device is not None else GpuDevice()
        self.row_scale = float(row_scale)
        self.dense_memory_model = dense_memory_model
        self.use_arena = arena_enabled_default() if use_arena is None else bool(use_arena)
        #: persistent across fit calls: buffers warm up on the first tree and
        #: are reused for every level of every round thereafter
        self.workspace = WorkspaceArena(enabled=self.use_arena)
        self.report: TrainReport | None = None

    # ---------------------------------------------------------------- hooks
    # The level loop below iterates over attribute *shards*.  This trainer
    # has one shard holding every attribute on ``self.device``;
    # :class:`~repro.ext.multigpu.MultiGpuGBDTTrainer` overrides these four
    # hooks to spread the attributes over several devices.
    def _make_shards(self, n_cols: int) -> List[_Shard]:
        """Assign attributes to devices: here, all of them to one."""
        return [_Shard(self.device, np.arange(n_cols, dtype=np.int64), self.workspace)]

    def _boost_round(self, t_idx: int, n_rows: int):
        """Context of one boosting round (span, per-round transfers)."""
        return span("boost_round", tree=t_idx)

    def _combine_splits(
        self, shards: List[_Shard], bests: List[NodeBestSplits]
    ) -> Tuple[NodeBestSplits, np.ndarray]:
        """Per-node winner over the shards' records, with *global* attribute
        ids, and the index of the shard owning each winner."""
        (shard,), (best,) = shards, bests
        attr = np.where(best.found, shard.tree_attrs[np.maximum(best.attr, 0)], -1)
        return dataclasses.replace(best, attr=attr), np.zeros(attr.size, dtype=np.int64)

    def _materialize_sides(
        self, shards: List[_Shard], best: NodeBestSplits, owner: np.ndarray,
        split_locals: np.ndarray, side_inst: np.ndarray, node_n: np.ndarray,
    ) -> None:
        """Write the side of every instance the winning segments hold."""
        (shard,) = shards
        self._override_sides(shard, best, split_locals, side_inst)
        n = side_inst.size
        self.device.launch(
            "update_instance_to_node",
            elements=n * self.row_scale,
            flops_per_element=2.0,
            coalesced_bytes=n * self.row_scale * 9,
            irregular_bytes=node_n[split_locals].sum()
            * (self.device.work_scale / max(shard.cols.n_cols, 1))
            * 4,
            scale=False,
        )

    # ----------------------------------------------------------------- setup
    def _register_memory(self, shard: _Shard, n_rows: int, used_rle: bool) -> None:
        """Register a shard's full-scale device buffers; raises DeviceOutOfMemory."""
        mem = shard.device.memory
        nnz_full = shard.cols.nnz * shard.device.work_scale
        n_full = n_rows * self.row_scale
        if self.dense_memory_model:
            # dense baseline: (fp32 value + int32 instance id) per cell of the
            # n x d matrix, plus node-interleaved g/h copies (Section II-D:
            # "the number of copies equals the number of nodes to split").
            # Gain evaluation reuses per-column workspace, so no separate
            # per-candidate buffer is charged (real-sim must fit, Table II).
            mem.alloc("dense_sorted_cells", nnz_full * 8)
            copies = 2 ** max(self.params.max_depth - 1, 0)
            mem.alloc("node_interleaved_gh", n_full * 8 * copies)
            mem.alloc("predictions", n_full * 4)
            mem.alloc("instance_to_node", n_full * 4)
            return
        if used_rle:
            runs_full = shard.base_rle.n_runs * shard.device.work_scale
            mem.alloc("rle_runs", runs_full * 8)
            mem.alloc("per_candidate_gains", runs_full * 4)
        else:
            mem.alloc("sorted_values", nnz_full * 4)
            mem.alloc("per_candidate_gains", nnz_full * 4)
        mem.alloc("instance_ids", nnz_full * 4)
        # the order-preserving scatter ping-pongs one attribute at a time, so
        # the workspace is two columns' worth of (value, id) pairs -- not a
        # full double buffer (that is what lets GPU-GBDT hold every Table-II
        # dataset while the dense baseline cannot)
        mem.alloc(
            "partition_column_workspace", 2 * (nnz_full / max(shard.cols.n_cols, 1)) * 8
        )
        mem.alloc("gradients_gh", n_full * 8)
        mem.alloc("predictions", n_full * 4)
        mem.alloc("instance_to_node", n_full * 4)

    # ------------------------------------------------------------------- fit
    def fit(
        self,
        X: CSRMatrix,
        y: np.ndarray,
        *,
        init_model: GBDTModel | None = None,
    ) -> GBDTModel:
        """Train ``params.n_trees`` *additional* trees on ``(X, y)``.

        With ``init_model`` boosting resumes from the given ensemble: its
        margins seed ``yhat`` (replayed in boosting order, so every float
        add happens in the same sequence as uninterrupted training) and the
        per-round sampling index continues from ``init_model.n_trees``.
        Under the repo's determinism guarantees, ``fit(k trees)`` followed
        by ``fit(m trees, init_model=...)`` is **bit-identical** to a single
        ``fit(k + m trees)`` -- the differential tests assert byte-equal
        ``to_json`` payloads.  The returned model contains the resumed trees
        followed by the new ones.
        """
        with span(
            "train",
            backend="gpu-gbdt" if not self.dense_memory_model else "xgb-gpu-dense",
            n_trees=self.params.n_trees,
            n_rows=X.n_rows,
            n_cols=X.n_cols,
            warm_start_trees=0 if init_model is None else init_model.n_trees,
        ):
            return self._fit(X, y, init_model)

    def _fit(
        self, X: CSRMatrix, y: np.ndarray, init_model: GBDTModel | None = None
    ) -> GBDTModel:
        p = self.params
        device = self.device
        y = np.asarray(y, dtype=np.float64)
        n, d = X.shape
        if y.size != n:
            raise ValueError(f"y has {y.size} entries for {n} rows")
        if n < 2:
            raise ValueError("need at least 2 training instances")
        if d < 1:
            raise ValueError("need at least 1 attribute")
        if p.goss_a < 1.0:
            raise ValueError(
                "GOSS (goss_a < 1) is only implemented by the histogram "
                "trainer; the exact trainer supports uniform subsample="
            )
        init_trees: List[DecisionTree] = [] if init_model is None else list(init_model.trees)
        round_offset = len(init_trees)
        if init_model is not None:
            base = p.loss_fn.base_score(y)
            if init_model.base_score != base:
                raise ValueError(
                    f"init_model.base_score={init_model.base_score!r} does not match "
                    f"the loss base score {base!r}; resuming would shift every margin"
                )
            if init_model.params.learning_rate != p.learning_rate:
                raise ValueError(
                    "init_model was trained with a different learning_rate; "
                    "resumed rounds would not match uninterrupted training"
                )

        with device.phase("setup"), span("setup"):
            csc = X.to_csc()
            shards = self._make_shards(d)
            for shard in shards:
                sub = csc if shard.attrs.size == d else csc.select_columns(shard.attrs)
                with shard.device.phase("setup"):
                    shard.cols = build_sorted_columns(sub, shard.device)
            used_rle = False
            if p.use_rle:
                # one global decision, so every shard takes the same path
                lens = np.concatenate([np.diff(s.cols.col_offsets) for s in shards])
                used_rle = decide_compression(
                    p.rle_policy,
                    n_rows=n,
                    n_cols=d,
                    values=np.concatenate([s.cols.values for s in shards]),
                    offsets=np.concatenate(([0], np.cumsum(lens))),
                    paper_threshold=p.rle_paper_threshold,
                    measured_threshold=p.rle_measured_threshold,
                )
            for shard in shards:
                cols = shard.cols
                with shard.device.phase("setup"):
                    if used_rle:
                        shard.base_rle = encode_segments(cols.values, cols.col_offsets)
                        shard.device.launch(
                            "rle_compress_initial",
                            elements=cols.nnz,
                            flops_per_element=2.0,
                            coalesced_bytes=cols.nnz * 8 + shard.base_rle.n_runs * 16,
                        )
                    # host -> device: instance ids + (compressed) values.  RLE
                    # shrinks the PCI-e traffic (Section III-C advantage (i)).
                    value_bytes = shard.base_rle.n_runs * 8 if used_rle else cols.nnz * 4
                    shard.device.transfer("upload_training_data", cols.nnz * 4 + value_bytes)
                    self._register_memory(shard, n, used_rle)
            device.transfer("upload_targets", n * 4 * self.row_scale, scale=False)
        n_runs = sum(s.base_rle.n_runs for s in shards) if used_rle else 0
        compression_ratio = X.nnz / n_runs if n_runs else 1.0

        gc = GradientComputer(
            device,
            p.loss_fn,
            y,
            use_smartgd=p.use_smartgd,
            row_scale=self.row_scale,
            X=X,
            workspace=self.workspace,
        )
        if init_trees:
            with device.phase("gradients"):
                gc.warm_start(init_trees)

        registry = get_registry()
        rounds_total = registry.counter(
            "train_rounds_total", "boosting rounds completed"
        )
        nodes_total = registry.counter("train_nodes_total", "tree nodes grown")
        leaves_total = registry.counter("train_leaves_total", "leaves finalized")
        round_seconds = registry.histogram(
            "train_round_seconds", "wall-clock seconds per boosting round"
        )

        trees: List[DecisionTree] = []
        n_nodes_total = 0
        n_leaves_total = 0
        for t in range(p.n_trees):
            # global boosting-round index: resumed rounds continue the
            # sampling sequence exactly where the init model stopped
            t_idx = round_offset + t
            t_round = time.perf_counter()
            with self._boost_round(t_idx, n):
                with device.phase("gradients"), span("gradients"):
                    g, h = gc.compute()
                sample = sample_tree(
                    p.seed, t_idx, n, d, p.subsample, p.colsample_bytree
                )
                tree = self._grow_tree(g, h, shards, used_rle, gc, sample)
                if not sample.inst_mask.all():
                    gc.apply_tree_to(tree, np.flatnonzero(~sample.inst_mask))
                gc.on_tree_finished(tree)
            trees.append(tree)
            n_nodes_total += tree.n_nodes
            n_leaves_total += tree.n_leaves
            rounds_total.inc()
            nodes_total.inc(tree.n_nodes)
            leaves_total.inc(tree.n_leaves)
            round_seconds.observe(time.perf_counter() - t_round)
        registry.gauge(
            "train_compression_ratio", "RLE compression ratio of the last run"
        ).set(compression_ratio)
        for shard in shards:
            shard.workspace.publish_metrics()

        self.report = TrainReport(
            used_rle=used_rle,
            compression_ratio=compression_ratio,
            n_nodes_total=n_nodes_total,
            n_leaves_total=n_leaves_total,
            tree_sizes=[t.n_nodes for t in trees],
            max_depth_seen=max((t.max_depth() for t in trees), default=0),
        )
        return GBDTModel(
            trees=init_trees + trees, params=p, base_score=p.loss_fn.base_score(y)
        )

    # ------------------------------------------------------------- tree grow
    def _stage(self, shard: _Shard, sample: TreeSample, used_rle: bool) -> None:
        """Per-tree working copies of a shard's (compressed) attribute lists;
        on the device this is the first scatter into the double buffer."""
        cols = shard.cols
        local = np.flatnonzero(np.isin(shard.attrs, sample.attrs))
        shard.tree_attrs = shard.attrs[local]
        if local.size == shard.attrs.size and sample.inst_mask.all():
            shard.inst = cols.inst.copy()
            shard.vals = None if used_rle else cols.values.copy()
            shard.rle = shard.base_rle
            offsets = cols.col_offsets.copy()
        else:
            # stochastic round: keep only the sampled rows/columns (an extra
            # compaction pass over the staged lists)
            parts_i, parts_v, lens = [], [], []
            for a in local:
                lo, hi = cols.col_offsets[a], cols.col_offsets[a + 1]
                inst_a = cols.inst[lo:hi]
                keep = sample.inst_mask[inst_a]
                parts_i.append(inst_a[keep])
                parts_v.append(cols.values[lo:hi][keep])
                lens.append(int(keep.sum()))
            shard.inst = (
                np.concatenate(parts_i) if parts_i else np.empty(0, np.int64)
            )
            stage_vals = (
                np.concatenate(parts_v) if parts_v else np.empty(0)
            )
            offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
            if used_rle:
                shard.rle = encode_segments(stage_vals, offsets)
                shard.vals = None
            else:
                shard.rle = None
                shard.vals = stage_vals
        shard.layout = SegmentLayout(offsets, 1, local.size)
        shard.device.launch(
            "stage_attribute_lists",
            elements=cols.nnz,
            flops_per_element=0.5,
            coalesced_bytes=cols.nnz * 16,
        )

    def _override_sides(
        self, shard: _Shard, best: NodeBestSplits, owned: np.ndarray, side_inst: np.ndarray
    ) -> None:
        """Present entries of the chosen segments override the default side
        (a positional split: entries before ``elem_pos`` go left)."""
        ws = shard.workspace
        layout = shard.layout
        S = layout.n_segments
        n_el = layout.n_elements
        split_pos = np.full(S, -1, dtype=np.int64)
        split_pos[best.seg[owned]] = best.elem_pos[owned]
        if ws.enabled:
            pos_ent = ws.buf("tree/pos_ent", n_el, IDX_DTYPE)
            np.take(split_pos, shard.sid, out=pos_ent)
            chosen = ws.buf("tree/chosen", n_el, bool)
            np.greater_equal(pos_ent, 0, out=chosen)
            elem_left = ws.buf("tree/elem_left", n_el, bool)
            np.less(ws.arange(n_el), pos_ent, out=elem_left)
            side_inst[shard.inst[chosen]] = np.where(elem_left[chosen], 0, 1)
        else:
            sid = np.repeat(np.arange(S, dtype=np.int64), np.diff(layout.offsets))
            chosen = split_pos[sid] >= 0
            elem_idx = np.arange(n_el, dtype=np.int64)
            elem_side = (elem_idx < split_pos[sid]).astype(np.int8)
            side_inst[shard.inst[chosen]] = np.where(elem_side[chosen] == 1, 0, 1)

    def _partition_shard(
        self, shard: _Shard, split_mask: np.ndarray, new_local_of: np.ndarray,
        side_inst: np.ndarray, k: int, used_rle: bool, depth: int,
    ) -> None:
        """Order-preserving partition of a shard's lists into the children."""
        p = self.params
        device = shard.device
        ws = shard.workspace
        layout = shard.layout
        d_used = layout.n_attrs
        seg_node = layout.seg_node()
        seg_attr = layout.seg_attr()
        splitting_seg = split_mask[seg_node]
        child_base = new_local_of[seg_node]
        left_seg = np.where(splitting_seg, child_base * d_used + seg_attr, -1)
        right_seg = np.where(splitting_seg, (child_base + 1) * d_used + seg_attr, -1)

        if ws.enabled:
            side_ent = ws.buf("tree/side_ent", layout.n_elements, np.int8)
            np.take(side_inst, shard.inst, out=side_ent)
        else:
            side_ent = side_inst[shard.inst]
        plan = plan_partition(
            int(layout.n_elements * device.work_scale),
            k,
            max_counter_mem_bytes=p.max_counter_mem_bytes,
            use_custom_workload=p.use_custom_workload,
            fixed_thread_workload=p.fixed_thread_workload,
        )
        # the decompression strategy consumes -1-coded drops, so the
        # trash-slot scatter is reserved for the other code paths
        use_trash = ws.enabled and (not used_rle or p.use_direct_rle)
        dest, new_offsets = partition_segments(
            device,
            layout.offsets,
            side_ent,
            left_seg,
            right_seg,
            2 * k * d_used,
            plan,
            bytes_per_element=8 if used_rle else 16,
            workspace=ws,
            sid=shard.sid,
            drop_to_trash=use_trash,
        )
        n_new = int(new_offsets[-1])
        if use_trash:
            # full-array stable scatter: dropped elements pile into the
            # single trash slot past the end, no boolean compression
            pp = depth % 2
            new_inst = ws.buf(f"tree/inst/{pp}", n_new + 1, IDX_DTYPE)
            new_inst[dest] = shard.inst
            new_inst = new_inst[:n_new]
            if used_rle:
                shard.rle = split_runs_direct(
                    device,
                    shard.rle,
                    side_ent,
                    left_seg,
                    right_seg,
                    2 * k * d_used,
                    workspace=ws,
                    parity=depth,
                )
            else:
                val_buf = ws.buf(f"tree/vals/{pp}", n_new + 1, np.float64)
                val_buf[dest] = shard.vals
                shard.vals = val_buf[:n_new]
        else:
            keep = dest >= 0
            new_inst = np.empty(n_new, dtype=np.int64)
            new_inst[dest[keep]] = shard.inst[keep]
            if used_rle:
                if p.use_direct_rle:
                    shard.rle = split_runs_direct(
                        device, shard.rle, side_ent, left_seg, right_seg, 2 * k * d_used
                    )
                else:
                    shard.rle = split_runs_with_decompression(
                        device, shard.rle, dest, new_offsets
                    )
            else:
                new_vals = np.empty(n_new, dtype=np.float64)
                new_vals[dest[keep]] = shard.vals[keep]
                shard.vals = new_vals
        shard.inst = new_inst
        shard.layout = SegmentLayout(new_offsets, 2 * k, d_used)

    def _grow_tree(
        self, g: np.ndarray, h: np.ndarray, shards: List[_Shard], used_rle: bool,
        gc: GradientComputer, sample: TreeSample,
    ) -> DecisionTree:
        p = self.params
        device = self.device
        ws = self.workspace
        n = g.size

        tree = DecisionTree()
        for shard in shards:
            self._stage(shard, sample, used_rle)
        # a column-sampled tree may leave a shard without attributes
        shards = [s for s in shards if s.tree_attrs.size]
        tree.add_root(sample.n_included)

        node_tree_ids = np.array([0], dtype=np.int64)
        with device.phase("gradients"), span("gradients"):
            included = np.flatnonzero(sample.inst_mask)
            node_g = bincount_sum(
                device, np.zeros(included.size, np.int64), g[included], 1,
                name="node_gradient_totals",
            )
            node_h = bincount_sum(
                device, np.zeros(included.size, np.int64), h[included], 1,
                name="node_hessian_totals",
            )
        node_n = np.array([sample.n_included], dtype=np.int64)
        inst2local = np.where(sample.inst_mask, 0, -1).astype(np.int64)

        for _depth in range(p.max_depth):
            n_active = node_tree_ids.size
            if n_active == 0:
                break
            # one element -> segment map per shard and level, shared by split
            # finding, instance routing, and the partition scatter
            for shard in shards:
                sws = shard.workspace
                shard.sid = (
                    sws.seg_ids("tree/sid", shard.layout.offsets, shard.layout.n_elements)
                    if sws.enabled else None
                )
            bests = []
            with span("find_split", depth=_depth, nodes=n_active):
                for shard in shards:
                    with shard.device.phase("find_split"):
                        if used_rle:
                            best = find_best_splits_rle(
                                shard.device, shard.rle, shard.inst, shard.layout, g, h,
                                node_g, node_h, node_n, lambda_=p.lambda_,
                                setkey_enabled=p.use_custom_setkey, setkey_c=p.setkey_c,
                                workspace=shard.workspace,
                            )
                        else:
                            best = find_best_splits_sparse(
                                shard.device, shard.vals, shard.inst, shard.layout, g, h,
                                node_g, node_h, node_n, lambda_=p.lambda_,
                                setkey_enabled=p.use_custom_setkey, setkey_c=p.setkey_c,
                                workspace=shard.workspace, sid=shard.sid,
                            )
                    bests.append(best)
            best, owner = self._combine_splits(shards, bests)

            split_mask = best.found & (best.gain > p.gamma)

            with device.phase("split_node"), span("split_node", depth=_depth):
                # ---- finalize leaves (nodes that will not split) -----------
                leaf_locals = np.flatnonzero(~split_mask)
                if leaf_locals.size:
                    self._finalize_leaves(
                        tree, gc, node_tree_ids, node_g, node_h, leaf_locals, inst2local
                    )
                if not split_mask.any():
                    inst2local[:] = -1
                    break

                split_locals = np.flatnonzero(split_mask)
                k = split_locals.size

                # ---- tree bookkeeping -------------------------------------
                new_tree_ids = np.empty(2 * k, dtype=np.int64)
                for j, loc in enumerate(split_locals):
                    lid, rid = tree.split_node(
                        int(node_tree_ids[loc]),
                        int(best.attr[loc]),
                        float(best.threshold[loc]),
                        bool(best.default_left[loc]),
                        float(best.gain[loc]),
                        n_left=int(best.left_n[loc]),
                        n_right=int(node_n[loc] - best.left_n[loc]),
                    )
                    new_tree_ids[2 * j] = lid
                    new_tree_ids[2 * j + 1] = rid

                # ---- route instances (positional split) --------------------
                new_local_of = np.full(n_active, -1, dtype=np.int64)
                new_local_of[split_locals] = 2 * np.arange(k, dtype=np.int64)

                default_side = np.where(best.default_left, 0, 1).astype(np.int8)
                if ws.enabled:
                    side_inst = ws.full("tree/side_inst", n, np.int8, -1)
                    local_safe = ws.buf("tree/local_safe", n, IDX_DTYPE)
                    np.maximum(inst2local, 0, out=local_safe)
                    active = ws.buf("tree/active", n, bool)
                    np.greater_equal(inst2local, 0, out=active)
                    amask = ws.buf("tree/amask", n, bool)
                    np.take(split_mask, local_safe, out=amask)
                    np.logical_and(active, amask, out=active)
                    side_tmp = ws.buf("tree/side_tmp", n, np.int8)
                    np.take(default_side, local_safe, out=side_tmp)
                    np.copyto(side_inst, side_tmp, where=active)
                else:
                    side_inst = np.full(n, -1, dtype=np.int8)
                    local_safe = np.maximum(inst2local, 0)
                    active = (inst2local >= 0) & split_mask[local_safe]
                    side_inst[active] = default_side[inst2local[active]]
                self._materialize_sides(shards, best, owner, split_locals, side_inst, node_n)

                if ws.enabled:
                    # ping-pong: read the previous level's map, write this one's
                    i2l_next = ws.buf(f"tree/i2l/{_depth % 2}", n, IDX_DTYPE)
                    np.take(new_local_of, local_safe, out=i2l_next)
                    np.add(i2l_next, side_inst, out=i2l_next)
                    np.logical_not(active, out=active)
                    np.copyto(i2l_next, -1, where=active)
                    inst2local = i2l_next
                else:
                    inst2local = np.where(active, new_local_of[local_safe] + side_inst, -1)

                # ---- partition every shard's attribute lists ---------------
                for shard in shards:
                    with shard.device.phase("split_node"):
                        self._partition_shard(
                            shard, split_mask, new_local_of, side_inst, k, used_rle, _depth
                        )

                # ---- child statistics from the chosen splits ---------------
                lg = best.left_g[split_locals]
                lh = best.left_h[split_locals]
                ln = best.left_n[split_locals]
                pg = node_g[split_locals]
                ph = node_h[split_locals]
                pn = node_n[split_locals]
                if ws.enabled:
                    pp = _depth % 2
                    node_g = ws.buf(f"tree/node_g/{pp}", 2 * k, np.float64)
                    node_h = ws.buf(f"tree/node_h/{pp}", 2 * k, np.float64)
                    node_n = ws.buf(f"tree/node_n/{pp}", 2 * k, IDX_DTYPE)
                else:
                    node_g = np.empty(2 * k)
                    node_h = np.empty(2 * k)
                    node_n = np.empty(2 * k, dtype=np.int64)
                node_g[0::2], node_g[1::2] = lg, pg - lg
                node_h[0::2], node_h[1::2] = lh, ph - lh
                node_n[0::2], node_n[1::2] = ln, pn - ln
                node_tree_ids = new_tree_ids

        # nodes still active after the depth budget become leaves
        if node_tree_ids.size and (inst2local >= 0).any():
            with device.phase("split_node"), span("split_node", depth=p.max_depth):
                self._finalize_leaves(
                    tree,
                    gc,
                    node_tree_ids,
                    node_g,
                    node_h,
                    np.arange(node_tree_ids.size),
                    inst2local,
                )
            inst2local[:] = -1
        return tree

    def _finalize_leaves(
        self,
        tree: DecisionTree,
        gc: GradientComputer,
        node_tree_ids: np.ndarray,
        node_g: np.ndarray,
        node_h: np.ndarray,
        leaf_locals: np.ndarray,
        inst2local: np.ndarray,
    ) -> None:
        """Set leaf weights ``-eta G/(H + lambda)`` and report to SmartGD."""
        p = self.params
        values = np.zeros(node_tree_ids.size)
        values[leaf_locals] = (
            -p.learning_rate * node_g[leaf_locals] / (node_h[leaf_locals] + p.lambda_)
        )
        for loc in leaf_locals:
            tree.set_leaf(int(node_tree_ids[loc]), float(values[loc]))
        is_leaf_local = np.zeros(node_tree_ids.size, dtype=bool)
        is_leaf_local[leaf_locals] = True
        ws = self.workspace
        if ws.enabled:
            local_safe = ws.buf("leaf/local_safe", inst2local.size, IDX_DTYPE)
            np.maximum(inst2local, 0, out=local_safe)
            settled = ws.buf("leaf/settled", inst2local.size, bool)
            np.greater_equal(inst2local, 0, out=settled)
            lmask = ws.buf("leaf/lmask", inst2local.size, bool)
            np.take(is_leaf_local, local_safe, out=lmask)
            np.logical_and(settled, lmask, out=settled)
        else:
            local_safe = np.maximum(inst2local, 0)
            settled = (inst2local >= 0) & is_leaf_local[local_safe]
        ids = np.flatnonzero(settled)
        gc.on_leaves(ids, values[inst2local[ids]])
        inst2local[ids] = -1
