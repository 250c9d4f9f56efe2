"""Per-layer tracing from the benchmark's own files.

The program is not edited to be measured.  Instead the benchmark swaps
each layer entry point for a wrapper that opens a span around the call.
A module-level function is replaced at *every* name under ``repro`` that
is bound to it: the trainers bind their kernels with
``from .split import find_best_splits_rle``, so the name that matters is
``repro.core.trainer.find_best_splits_rle``, and replacing only
``repro.core.split.find_best_splits_rle`` would record nothing.  Walking
every loaded ``repro`` module also means a bypass guard sees a layer
whichever module's import the caller goes through.  Methods are wrapped on
their class, which every caller reaches through attribute lookup.

A span's *self time* is its duration minus the part covered by its child
spans.  The outermost span of a fit is the trainer's ``fit`` call itself,
so its self time is everything no layer span covers: the trainer's host
glue.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Recorder:
    """Nested wall-clock spans: per-name self time, calls and work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # open spans: [name, start, time covered by children]
        self._stack: List[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to a work counter recorded at a layer boundary."""
        self.counts[name] += amount


#: a post hook turns (args, kwargs, result) into work counted for the span
PostHook = Callable[[tuple, dict, object], Dict[str, float]]


def _accumulate_entries(args, kwargs, result):
    return {"approx.accumulate.entries": float(result[3])}


def _scan_pairs(args, kwargs, result):
    # (node, feature) pairs scanned, and the sibling pairs among the nodes
    # (the root level has one node; every deeper level holds sibling pairs)
    node_gq, bin_offset = args[3], args[6]
    return {
        "approx.scan.features": float(len(node_gq) * (len(bin_offset) - 1)),
        "approx.sibling_pairs": float(len(node_gq) // 2),
    }


#: (defining module, attribute path, span name, post hook) for every traced
#: entry point.  A function is wrapped wherever ``repro`` binds it.
TARGETS: Tuple[Tuple[str, str, str, Optional[PostHook]], ...] = (
    ("repro.data.sorted_columns", "build_sorted_columns", "data.sorted_columns", None),
    ("repro.core.split", "find_best_splits_rle", "core.find_split", None),
    ("repro.core.split", "find_best_splits_sparse", "core.find_split", None),
    ("repro.core.partition", "partition_segments", "core.partition", None),
    ("repro.core.rle_split", "split_runs_direct", "core.split_runs", None),
    ("repro.core.rle_split", "split_runs_with_decompression", "core.split_runs", None),
    ("repro.core.smartgd", "GradientComputer.compute", "core.gradients", None),
    ("repro.approx.histops", "accumulate_histograms", "approx.accumulate",
     _accumulate_entries),
    ("repro.approx.histops", "scan_histograms", "approx.scan", _scan_pairs),
    ("repro.approx.histops", "subtract_child_histogram", "approx.subtract", None),
    ("repro.approx.quantile", "build_bins", "approx.build_bins", None),
    ("repro.gpusim.kernel", "GpuDevice.launch", "gpusim.launch", None),
    ("repro.serve.flat_model", "FlatEnsemble.predict", "serve.flat_predict", None),
)


#: layers each job must never call.  Plain (untraced) runs wrap only these,
#: so the guard costs nothing on the path a workload does take.
BYPASS: Dict[str, Tuple[str, ...]] = {
    "exact-covtype": ("approx.accumulate", "approx.scan", "approx.subtract",
                      "approx.build_bins"),
    "hist-higgs": ("core.find_split", "core.partition"),
    "serving": tuple(dict.fromkeys(
        name for _, _, name, _ in TARGETS if not name.startswith("serve."))),
}


def targets_named(names) -> Tuple[Tuple[str, str, str, Optional[PostHook]], ...]:
    """The entries of :data:`TARGETS` whose span name is in ``names``."""
    return tuple(t for t in TARGETS if t[2] in names)


def _wrap(fn, recorder: Recorder, name: str, post: Optional[PostHook]):
    def wrapped(*args, **kwargs):
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        if post is not None:
            for key, amount in post(args, kwargs, result).items():
                recorder.count(key, amount)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def bindings(original) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` under ``repro`` bound to ``original``."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr))
    return found


@contextlib.contextmanager
def instrument(recorder: Recorder, targets=TARGETS) -> Iterator[Recorder]:
    """Install span wrappers on every target; restore the originals on exit."""
    saved = []
    try:
        for module_name, path, name, post in targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                sites = [(owner, attr)]
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
                sites = bindings(original)
            wrapped = _wrap(original, recorder, name, post)
            for site, site_attr in sites:
                saved.append((site, site_attr, original))
                setattr(site, site_attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
