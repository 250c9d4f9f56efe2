"""Beyond the 12 GB wall: out-of-core streaming and newer silicon.

Two answers to "my dataset's training lists don't fit on the Titan X":

1. **Stream it** (`repro.stream`): `StreamingHistTrainer` cuts the rows
   into blocks kept in a spillable host-side block store and streams them
   through one device-sized chunk buffer every level.  Still byte-identical
   to in-memory histogram training -- just slower by the block IO.
2. **Buy a bigger card** (the A100 what-if preset): 80 GB of HBM2e holds
   the entry stream outright and its 2 TB/s bandwidth shortens the
   memory-bound kernels.

This example builds a 60M x 142 categorical workload (Kaggle-scale), shows
the in-memory Titan X run dying with OOM, then both remedies working.
"""

import dataclasses

from repro import GBDTParams, make_dataset, models_equal
from repro.approx import HistogramGBDTTrainer
from repro.bench.harness import run_gpu_gbdt
from repro.gpusim.device import A100_80GB, GIB, TITAN_X_PASCAL
from repro.gpusim.kernel import GpuDevice
from repro.stream import StreamingHistTrainer


def main() -> None:
    base = make_dataset("insurance", run_rows=1000, seed=13)
    huge = dataclasses.replace(
        base,
        spec=dataclasses.replace(
            base.spec, name="kaggle-60M", n_full=60_000_000, d_full=142,
            density_full=0.9,
        ),
    )
    params = GBDTParams(n_trees=4, max_depth=6)
    print(huge.describe())
    approx_bytes = huge.spec.nnz_full * 8
    print(f"sorted lists at full scale: ~{approx_bytes / GIB:.0f} GiB "
          f"(Titan X has {TITAN_X_PASCAL.global_mem_bytes / GIB:.0f} GiB)\n")

    def device(spec):
        return GpuDevice(spec, work_scale=huge.work_scale, seg_scale=huge.seg_scale)

    # 1. in-memory on the Titan X: OOM
    inmem = run_gpu_gbdt(huge, params, spec=TITAN_X_PASCAL)
    print(f"Titan X in-memory : {inmem.status.upper()} -- {inmem.notes}")

    # 2. streamed on the Titan X: one block of 50 rows is resident on the
    #    device at a time; works, pays block IO
    titan = device(TITAN_X_PASCAL)
    streamer = StreamingHistTrainer(
        params, titan, block_rows=50, row_scale=huge.row_scale
    )
    stream_model = streamer.fit(huge.X, huge.y)
    print(f"Titan X streamed  : OK in {titan.elapsed_seconds():8.1f} modeled s "
          f"({streamer.store_.n_blocks} row blocks)")

    # 3. A100 what-if: the histogram trainer fits in memory
    a100 = device(A100_80GB)
    a100_model = HistogramGBDTTrainer(
        params, a100, row_scale=huge.row_scale
    ).fit(huge.X, huge.y)
    print(f"A100 in-memory    : OK in {a100.elapsed_seconds():8.1f} modeled s")

    # exactness is never traded away
    same = models_equal(stream_model, a100_model)
    print(f"\nstreamed and A100 trees identical: {same}")
    print("streaming overhead vs A100: "
          f"{titan.elapsed_seconds() / a100.elapsed_seconds():.1f}x "
          "(block IO is the new bottleneck -- Section II-C's point about "
          "leaving device memory)")


if __name__ == "__main__":
    main()
