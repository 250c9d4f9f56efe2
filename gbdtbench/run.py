"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 gbdtbench/run.py --workload exact-covtype --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with per-layer spans installed and
prints every per-layer metric instead.  The line before the result is a
JSON provenance record (cpu count, numpy version, source digest, model
and ledger digests, and the text of any failed check).

The benchmark refuses to run while a code-path switch of the program is
set in the environment, and pins every BLAS/OpenMP pool to one thread
before numpy is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: environment switches that select a different code path in the program
CODE_PATH_SWITCHES = ("REPRO_ARENA", "REPRO_SUBTRACT", "REPRO_TRACE")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest() -> str:
    """sha256 over every program source file, path and content."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def guard_environment() -> None:
    set_switches = [k for k in CODE_PATH_SWITCHES if k in os.environ]
    if set_switches:
        sys.exit(f"refusing to run: code-path switch set: {', '.join(set_switches)}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"program source not found under {SRC.name}/repro")
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    guard_environment()
    import numpy as np

    from workloads import run_workload

    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "source_digest": source_digest(),
    }
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        missing, extra = sorted(set(units) - set(got)), sorted(set(got) - set(units))
        sys.exit(f"metric set does not match BENCHMARK.json: missing {missing}, extra {extra}")
    result["metrics"] = {k: {"value": float(got[k]), "unit": units[k]} for k in units}
    print(json.dumps({**provenance, **info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
