"""Run a workload N times and report each end-to-end metric's spread.

Usage, from the root of the repository::

    python3 gbdtbench/steadiness.py --workload hist-higgs --runs 10
    python3 gbdtbench/steadiness.py --workload serve-higgs --runs 5 --sets 2 --log runs.jsonl

Each run gets its own seed.  For each metric the script prints the median
and the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- next
to the metric's bound from ``BENCHMARK.json``.  A spread is ``ok`` below a
third of the bound.  With ``--sets 2`` the same seeds run a second time:
the script then also checks that every same-seed pair of runs printed the
same model and ledger digests, and that the second set's median is not
worse than the first's by more than the bound.  A spread over its bound
fails, ``setup_s`` included.  ``--log`` appends each run's provenance record and
metrics to a file as one JSON line.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: List[float], second: List[float], better: str) -> float:
    """How much worse the second median is than the first, as a share."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "gbdtbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {info['failures']}")
    return info, {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, action="append",
                    choices=[w["name"] for w in contract["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=contract["run_seconds"])
    ap.add_argument("--log", type=pathlib.Path)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    for workload in args.workload:
        sets: List[Dict[str, List[float]]] = []
        digests: List[Dict[int, tuple]] = []
        for _ in range(args.sets):
            values: Dict[str, List[float]] = {}
            seen: Dict[int, tuple] = {}
            for seed in seeds:
                info, metrics = run_once(workload, seed, args.seconds)
                if args.log:
                    with open(args.log, "a") as fh:
                        fh.write(json.dumps({**info, "metrics": metrics}) + "\n")
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
                seen[seed] = (info["model_digest"], info["ledger_digest"], metrics["modeled_fit_s"])
                for k, v in metrics.items():
                    values.setdefault(k, []).append(v)
            sets.append(values)
            digests.append(seen)
        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), seeds {seeds[0]}..{seeds[-1]}")
        print(f"{'metric':24s} {'median':>14s} {'spread':>8s} {'bound':>6s}  verdict")
        for m in contract["end_to_end"]:
            name, bound = m["name"], m["bound"]
            for i, values in enumerate(sets):
                s = spread(values[name])
                verdict = "ok" if s < bound / 3 else ("wide" if s <= bound else "OVER")
                ok &= verdict != "OVER"
                print(f"{name:24s} {statistics.median(values[name]):14.6g} {s:8.2%} "
                      f"{bound:6.2f}  {verdict} (set {i + 1})")
            if len(sets) == 2:
                w = worsening(sets[0][name], sets[1][name], m["better"])
                good = w <= bound
                ok &= good
                print(f"{'':24s} set 2 vs set 1: {w:+.2%} {'ok' if good else 'WORSE'}")
        if len(digests) == 2 and digests[0] != digests[1]:
            ok = False
            print("digests or modeled time differ between runs of the same seed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
