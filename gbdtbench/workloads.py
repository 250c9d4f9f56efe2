"""The benchmark's three workloads and the checks every run makes.

``exact-covtype``  the paper's exact trainer (``GPUGBDTTrainer``) fits the
                   covtype stand-in, where RLE engages;
``hist-higgs``     the histogram trainer fits dense continuous higgs, with
                   sibling subtraction on;
``serve-higgs``    bulk ``GBDTModel.predict`` calls and open-loop
                   single-row requests against a 100-tree histogram model
                   trained during set-up.

A run is set-up, then a timed window that does the workload's one job,
then checks.  A training window holds only fits.  A serving window holds
only rounds of one bulk scoring cycle and one chunk of open-loop requests.
Every workload reports every end-to-end metric, so each also measures the
job it does not time in its window, where the other clock would perturb
nothing: a training workload serves its fitted model *after* its window
(which doubles as the check that the model serves correctly), and
``serve-higgs`` reports the fit of its set-up as its training metrics.
The set-up is repeated after the window, so its samples span the run.
README.md explains the choices.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import statistics
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from layers import BYPASS, TARGETS, Recorder, instrument, targets_named
from openloop import run_open_loop

from repro import (
    BatchPolicy,
    GBDTParams,
    GPUGBDTTrainer,
    GpuDevice,
    HistogramGBDTTrainer,
    MetricsRegistry,
    MicroBatcher,
    Tracer,
    make_dataset,
    models_equal,
    rmse,
    use_registry,
    use_tracer,
)
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.gpusim.costmodel import phase_times

MB = 1e6

#: (rows per call, calls per cycle) of the bulk scoring mix.  The mix
#: straddles the model's flat/per-tree crossover: at 256 and 1k rows the
#: flattened sweep wins clearly, at 20k rows the two routes are close.
#: Each size carries a third of a cycle's rows (20,000, 20,000, 20,480).
BULK_MIX = ((20000, 1), (1000, 20), (256, 80))
CYCLE_ROWS = sum(rows * count for rows, count in BULK_MIX)

#: open-loop arrival rate; a one-row flush of the 100-tree model takes
#: 0.3-0.6 ms, so the loop runs near half of saturation, queues stay short
#: and latency is mostly service time
REQUEST_RATE = 1000.0
#: requests per open-loop chunk; a serving round serves one chunk
CHUNK_REQUESTS = 1000
#: a flush waits at most 0.1 ms for company: small against the flush
#: itself, so latency measures the program rather than this timer
SERVE_POLICY = BatchPolicy(max_batch=64, max_wait=0.0001, max_queue=4096)
#: served and bulk values must match the per-tree margin sum this closely
VALUE_TOL = 1e-9

#: a training workload serves its fitted model for this share of
#: ``--seconds`` after its window
SERVE_AFTER_TRAINING = 0.75
#: fewest timed fits (after the warm-up fit) or serving rounds a run
#: measures; a traced run needs twice as many, since it alternates traced
#: and plain
MIN_FITS = 2
MIN_SERVE_ROUNDS = 2

#: seed of the generator that makes each dataset's population.  It is
#: fixed, so every benchmark seed samples rows of the same task: with the
#: generator's own seed varying, the target function itself changes and
#: holdout RMSE moves by ~20% between seeds.
POPULATION_SEED = 7
HOLDOUT_ROWS = 20000


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    dataset: str
    population_rows: int
    train_rows: int
    trainer: str          # "exact" | "hist"
    n_trees: int
    rmse_ceiling: float
    #: the window fits (else it serves a model fitted in set-up)
    trains: bool
    #: fewest set-ups a run makes
    setup_repeats: int


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        # 12k training rows; RLE engages (covtype is 80% binary columns)
        Spec("exact-covtype", "covtype", 40000, 12000, "exact", 40, 0.40, True, 7),
        # 16k dense continuous training rows; RLE would not pay here
        Spec("hist-higgs", "higgs", 45000, 16000, "hist", 20, 0.45, True, 7),
        # 3k training rows keep the set-up fit of 100 trees near 5 s
        Spec("serve-higgs", "higgs", 45000, 3000, "hist", 100, 0.45, False, 3),
    )
}


def rounds_within(seconds: float, min_rounds: int,
                  clock: Callable[[], float] = time.perf_counter) -> Iterator[int]:
    """Round numbers for a window of ``seconds``: a round starts only while
    one as long as the last still fits, and at least ``min_rounds`` run.

    Garbage is collected before each round, so every round starts from the
    same collector state and none pays for the last one's garbage."""
    t_start = clock()
    last = 0.0
    i = 0
    while i < min_rounds or clock() - t_start + last <= seconds:
        gc.collect()
        t0 = clock()
        yield i
        last = clock() - t0
        i += 1


def check(ok: bool, message: str, failures: List[str]) -> None:
    if not ok:
        failures.append(message)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def counter_value(registry: MetricsRegistry, name: str) -> float:
    inst = registry.get(name)
    return 0.0 if inst is None else float(inst.value)


# ------------------------------------------------------------------ set-up
@dataclasses.dataclass
class Inputs:
    X: object
    y: np.ndarray
    y_test: np.ndarray
    pool: np.ndarray          # dense holdout rows (NaN = missing)
    work_scale: float
    seg_scale: float
    row_scale: float
    digest: str


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Draw disjoint training and holdout rows from the population by seed."""
    population = make_dataset(
        spec.dataset, run_rows=spec.population_rows, test_fraction=0.0, seed=POPULATION_SEED
    )
    order = np.random.default_rng(seed).permutation(spec.population_rows)
    train = np.sort(order[:spec.train_rows])
    holdout = np.sort(order[spec.train_rows:spec.train_rows + HOLDOUT_ROWS])
    X = population.X.select_rows(train)
    y = population.y[train]
    pool = population.X.select_rows(holdout).to_dense(fill=np.nan).values
    y_test = population.y[holdout]
    return Inputs(
        X, y, y_test, pool, population.work_scale, population.seg_scale, population.row_scale,
        digest(X.data.tobytes(), X.indices.tobytes(), y.tobytes(), pool.tobytes()),
    )


# --------------------------------------------------------------------- fit
@dataclasses.dataclass
class Fit:
    seconds: float
    model: object
    model_digest: str
    ledger_digest: str
    modeled_s: float
    modeled_phases: Dict[str, float]
    device_peak_mb: float
    launches: int
    kernel_bytes: float
    pcie_bytes: float
    registry: MetricsRegistry
    compression_ratio: Optional[float]   # exact trainer only
    used_rle: Optional[bool]


def make_trainer(spec: Spec, inputs: Inputs, **knobs):
    params = GBDTParams(n_trees=spec.n_trees, max_depth=6)
    device = GpuDevice(work_scale=inputs.work_scale, seg_scale=inputs.seg_scale)
    cls = GPUGBDTTrainer if spec.trainer == "exact" else HistogramGBDTTrainer
    return cls(params, device, row_scale=inputs.row_scale, **knobs)


def fit_once(spec: Spec, inputs: Inputs, recorder: Recorder, targets) -> Fit:
    """One fit on a fresh device, program tracer and registry, with
    ``targets`` wrapped into ``recorder`` under a root ``fit`` span."""
    trainer = make_trainer(spec, inputs)
    device = trainer.device
    registry = MetricsRegistry()
    with use_tracer(Tracer()), use_registry(registry), instrument(recorder, targets):
        t0 = time.perf_counter()
        with recorder.span("fit"):
            model = trainer.fit(inputs.X, inputs.y)
        seconds = time.perf_counter() - t0
    ledger = device.ledger
    report = getattr(trainer, "report", None)
    return Fit(
        seconds=seconds,
        model=model,
        model_digest=digest(model.to_json().encode()),
        ledger_digest=digest(*ledger.kernels, *ledger.transfers),
        modeled_s=device.elapsed_seconds(),
        modeled_phases=phase_times(device.spec, ledger, device.disk),
        device_peak_mb=device.memory.peak_bytes / MB,
        launches=ledger.n_launches,
        kernel_bytes=ledger.total_bytes,
        pcie_bytes=sum(t.nbytes for t in ledger.transfers if t.channel == "pcie"),
        registry=registry,
        compression_ratio=None if report is None else report.compression_ratio,
        used_rle=None if report is None else report.used_rle,
    )


# ----------------------------------------------------------------- serving
@dataclasses.dataclass
class BulkCall:
    rows: int
    seconds: float
    flat: bool        # routed to FlatEnsemble (known only when traced)
    traced: bool


def bulk_cycle(model, pool: np.ndarray, rng: np.random.Generator,
               recorder: Recorder, traced: bool) -> List[BulkCall]:
    """One pass over :data:`BULK_MIX`; outputs are checked separately."""
    calls = []
    for rows, count in BULK_MIX:
        for _ in range(count):
            lo = int(rng.integers(0, pool.shape[0] - rows + 1))
            batch = pool[lo:lo + rows]
            before = recorder.calls["serve.flat_predict"]
            t0 = time.perf_counter()
            model.predict(batch)
            seconds = time.perf_counter() - t0
            flat = recorder.calls["serve.flat_predict"] > before
            calls.append(BulkCall(rows, seconds, flat, traced))
    return calls


@dataclasses.dataclass
class Requests:
    attempted: int
    failed: int
    latency_ms: np.ndarray
    flush_ms: np.ndarray
    batch_rows: np.ndarray
    queue_wait_ms: np.ndarray
    lag_ms: np.ndarray


def serve_requests(model, pool: np.ndarray, rng: np.random.Generator) -> Requests:
    """One open-loop chunk of :data:`CHUNK_REQUESTS` single-row requests.

    A request fails if it is unresolved, resolved twice, degraded, or off
    the per-tree margin sum by more than :data:`VALUE_TOL`."""
    n = CHUNK_REQUESTS
    rows = pool[rng.integers(0, pool.shape[0], size=n)]
    batcher = MicroBatcher(model.flatten(), policy=SERVE_POLICY)
    res = run_open_loop(batcher, rows, REQUEST_RATE)
    want = model.predict_margin(rows)
    failed = len(res.errors)   # each aborted flush: a request resolved twice
    for i, handle in enumerate(res.handles):
        ok = (
            handle is not None
            and handle.done
            and not handle.degraded
            and abs(handle.value - want[i]) <= VALUE_TOL
        )
        failed += not ok
    return Requests(
        attempted=n,
        failed=failed,
        latency_ms=res.latency_s * 1e3,
        flush_ms=np.asarray(res.flush_s) * 1e3,
        batch_rows=np.asarray(res.batch_rows, dtype=np.float64),
        queue_wait_ms=np.asarray(res.queue_wait_s) * 1e3,
        lag_ms=res.lag_s * 1e3,
    )


@dataclasses.dataclass
class Serving:
    bulk: List[BulkCall] = dataclasses.field(default_factory=list)
    chunks: List[Requests] = dataclasses.field(default_factory=list)
    #: spans of the traced rounds, and calls into the guarded layers
    traced: Recorder = dataclasses.field(default_factory=Recorder)
    guard: Recorder = dataclasses.field(default_factory=Recorder)
    #: batch rows -> whether an untimed probe call took the flat route
    flat_route: Dict[int, bool] = dataclasses.field(default_factory=dict)


def serve(model, pool: np.ndarray, rng: np.random.Generator, seconds: float,
          trace: bool, between_rounds: Optional[Callable[[], None]] = None) -> Serving:
    """Rounds of one bulk cycle and one request chunk for ``seconds``,
    calling ``between_rounds`` (untimed, unguarded) after each round.

    In a traced run every other round is traced; the rest only guard the
    training layers, which serving must never call."""
    out = Serving()
    guard = targets_named(BYPASS["serving"])
    flat_probe = targets_named(("serve.flat_predict",))
    for i in rounds_within(seconds, MIN_SERVE_ROUNDS * (1 + trace)):
        traced = trace and i % 2 == 1
        rec = out.traced if traced else out.guard
        with use_tracer(Tracer()), instrument(rec, TARGETS if traced else guard):
            out.bulk += bulk_cycle(model, pool, rng, rec, traced)
            out.chunks.append(serve_requests(model, pool, rng))
        if between_rounds is not None:
            between_rounds()
    # untimed: the flat route must be taken where the mix says it wins
    probe = Recorder()
    with use_tracer(Tracer()), instrument(probe, flat_probe):
        for rows in (256, 1000):
            before = probe.calls["serve.flat_predict"]
            model.predict(pool[:rows])
            out.flat_route[rows] = probe.calls["serve.flat_predict"] == before + 1
    return out


def check_serving(model, pool: np.ndarray, serving: Serving, failures: List[str]) -> None:
    """Bulk values, the flat route and the serving bypass."""
    for rows, _ in BULK_MIX:
        got = model.predict(pool[:rows])
        want = model.predict_margin(pool[:rows])
        err = float(np.max(np.abs(got - want)))
        check(err <= VALUE_TOL, f"bulk predict of {rows} rows off by {err:.3g}", failures)
    for rows, flat in serving.flat_route.items():
        check(flat, f"bulk predict of {rows} rows did not take the flat route", failures)
    for name in BYPASS["serving"]:
        calls = serving.guard.calls[name] + serving.traced.calls[name]
        check(calls == 0, f"{name} called {calls} times while serving", failures)


def cycle_seconds(bulk: List[BulkCall]) -> List[float]:
    """Seconds spent in each bulk cycle's calls, in run order."""
    per_cycle = sum(count for _, count in BULK_MIX)
    return [sum(c.seconds for c in bulk[i:i + per_cycle])
            for i in range(0, len(bulk), per_cycle)]


def chunk_percentile(chunks: List[Requests], q: float) -> float:
    """The median over chunks of each chunk's ``q``-th latency percentile:
    a host stall moves the chunks it hits, not the figure."""
    return float(np.median([np.percentile(c.latency_ms, q) for c in chunks]))


# --------------------------------------------------------------------- run
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


@dataclasses.dataclass
class Setups:
    """Every set-up of a run: its seconds, inputs digest and, on the
    serving workload, the model fit it made."""
    spec: Spec
    seed: int
    seconds: List[float] = dataclasses.field(default_factory=list)
    digests: List[str] = dataclasses.field(default_factory=list)
    fits: List[Fit] = dataclasses.field(default_factory=list)

    def once(self) -> Inputs:
        """Set up once.  The serving workload's set-up also fits and
        flattens its model."""
        gc.collect()
        t0 = time.perf_counter()
        inputs = make_inputs(self.spec, self.seed)
        if not self.spec.trains:
            self.fits.append(fit_once(self.spec, inputs, Recorder(), ()))
            self.fits[-1].model.flatten()
        self.seconds.append(time.perf_counter() - t0)
        self.digests.append(inputs.digest)
        return inputs

    def top_up(self) -> None:
        while len(self.seconds) < self.spec.setup_repeats:
            self.once()


@dataclasses.dataclass
class Training:
    #: the first fit of the process pays one-off costs; it is checked, not timed
    warmup: Optional[Fit] = None
    fits: List[Fit] = dataclasses.field(default_factory=list)
    traced_fits: List[Fit] = dataclasses.field(default_factory=list)
    recorders: List[Recorder] = dataclasses.field(default_factory=list)
    guard: Recorder = dataclasses.field(default_factory=Recorder)

    @property
    def every_fit(self) -> List[Fit]:
        return ([self.warmup] if self.warmup else []) + self.fits + self.traced_fits


def train(spec: Spec, inputs: Inputs, seconds: float, trace: bool) -> Training:
    """A warm-up fit, then fits for the rest of ``seconds``.  Plain fits
    guard the layers this workload bypasses; in a traced run every other
    fit is traced."""
    out = Training()
    guard = targets_named(BYPASS[spec.name])
    for i in rounds_within(seconds, 1 + MIN_FITS * (1 + trace)):
        if i == 0:
            out.warmup = fit_once(spec, inputs, out.guard, guard)
        elif trace and i % 2 == 0:
            out.recorders.append(Recorder())
            out.traced_fits.append(fit_once(spec, inputs, out.recorders[-1], TARGETS))
        else:
            out.fits.append(fit_once(spec, inputs, out.guard, guard))
    return out


def check_training(spec: Spec, training: Training, failures: List[str]) -> None:
    """Engagement of RLE / subtraction, and the bypassed layers."""
    fit = training.warmup
    if spec.trainer == "exact":
        check(bool(fit.used_rle), "RLE did not engage on the exact trainer", failures)
    else:
        check(counter_value(fit.registry, "subtract_skipped_total") > 0,
              "sibling subtraction never engaged", failures)
    for name in BYPASS[spec.name]:
        calls = training.guard.calls[name] + sum(r.calls[name] for r in training.recorders)
        check(calls == 0, f"{name} called {calls} times on {spec.name}", failures)
    counts = [(dict(r.calls), dict(r.counts)) for r in training.recorders]
    check(all(c == counts[0] for c in counts), "layer counts differ between traced fits",
          failures)


def oracle_checks(spec: Spec, inputs: Inputs, model, failures: List[str]) -> None:
    """Expensive model checks, made in traced runs only."""
    if spec.trainer == "exact":
        oracle = ReferenceTrainer(GBDTParams(n_trees=spec.n_trees, max_depth=6)).fit(
            inputs.X, inputs.y
        )
        check(models_equal(model, oracle), "exact trees differ from ReferenceTrainer",
              failures)
    else:
        trainer = make_trainer(spec, inputs, use_subtraction=False, use_arena=False)
        with use_tracer(Tracer()), use_registry(MetricsRegistry()):
            plain = trainer.fit(inputs.X, inputs.y)
        check(plain.to_json() == model.to_json(),
              "histogram model differs from the no-subtraction, no-arena fit", failures)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Tuple[dict, dict]:
    """Run one workload; return the result the benchmark prints, and a
    provenance record of what ran (digests, raw samples, failed checks).

    The set-up runs once before the window and is repeated after it, so
    its samples span the run rather than one stretch of it: a training
    workload repeats it after every round of serving its fitted model, the
    serving workload after its window."""
    spec = SPECS[name]
    failures: List[str] = []
    rng = np.random.default_rng([seed, 0xB0057])
    setups = Setups(spec, seed)
    inputs = setups.once()

    if spec.trains:
        training = train(spec, inputs, seconds, trace)
        check_training(spec, training, failures)
        fits = training.fits
        model = fits[0].model
        serving = serve(model, inputs.pool, rng, seconds * SERVE_AFTER_TRAINING, trace,
                        between_rounds=setups.once)
    else:
        # the same list: the set-ups still to come add their fits to it
        training = Training(fits=setups.fits)
        fits = setups.fits
        model = fits[0].model
        serving = serve(model, inputs.pool, rng, seconds, trace)
    setups.top_up()
    check(len(set(setups.digests)) == 1, "inputs differ between set-ups", failures)
    check_serving(model, inputs.pool, serving, failures)

    all_fits = training.every_fit
    check(len({f.model_digest for f in all_fits}) == 1, "model digest differs between fits",
          failures)
    check(len({f.ledger_digest for f in all_fits}) == 1, "ledger differs between fits", failures)
    holdout_rmse = rmse(inputs.y_test, model.predict_margin(inputs.pool))
    check(holdout_rmse < spec.rmse_ceiling,
          f"holdout_rmse {holdout_rmse:.4f} >= ceiling {spec.rmse_ceiling}", failures)
    if trace:
        oracle_checks(spec, inputs, model, failures)

    fit = fits[0]
    chunks = serving.chunks
    failed = sum(c.failed for c in chunks)
    if trace:
        metrics = layer_metrics(spec, training, serving)
    else:
        plain = [c for c in serving.bulk if not c.traced]
        metrics = {
            "fit_s": statistics.median(f.seconds for f in fits),
            "modeled_fit_s": fit.modeled_s,
            "holdout_rmse": holdout_rmse,
            "modeled_device_peak_mb": fit.device_peak_mb,
            "setup_s": statistics.median(setups.seconds),
            "peak_rss_mb": peak_rss_mb(),
            "score_rows_per_s": CYCLE_ROWS / statistics.median(cycle_seconds(plain)),
            "request_ms.p99": chunk_percentile(chunks, 99),
        }
    requests = sum(c.attempted for c in chunks)
    info = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "fits": len(all_fits),
        "setups": len(setups.seconds),
        "bulk_calls": len(serving.bulk),
        "requests": requests,
        "fit_s": [round(f.seconds, 6) for f in fits],
        "setup_s": [round(t, 6) for t in setups.seconds],
        "chunk_p50_ms": [round(float(np.percentile(c.latency_ms, 50)), 6) for c in chunks],
        "chunk_p99_ms": [round(float(np.percentile(c.latency_ms, 99)), 6) for c in chunks],
        "bulk_cycle_s": [round(t, 6) for t in cycle_seconds(serving.bulk)],
        "model_digest": fit.model_digest,
        "ledger_digest": fit.ledger_digest,
        "modeled_fit_s": float(fit.modeled_s),
        "failures": failures,
    }
    return {
        "correct": not failures and failed == 0,
        "attempted": len(all_fits) + len(serving.bulk) + requests,
        "failed": failed + len(failures),
        "metrics": metrics,
    }, info


# ------------------------------------------------------------ traced run
def _per_fit(recorders: List[Recorder], name: str) -> float:
    return sum(r.self_s[name] for r in recorders) / len(recorders) if recorders else 0.0


def layer_metrics(spec: Spec, training: Training, serving: Serving) -> dict:
    """Every per-layer metric.  Layers the traced windows bypass read 0;
    on ``serve-higgs`` that is every training layer."""
    recorders = training.recorders
    traced = bool(recorders)
    fit = training.traced_fits[0] if traced else None
    phases = fit.modeled_phases if traced else {}

    def first(name: str, counts: bool = False) -> float:
        if not traced:
            return 0.0
        return float((recorders[0].counts if counts else recorders[0].calls)[name])

    glue = _per_fit(recorders, "fit")
    engaged = 0.0
    if traced and spec.trainer == "hist":
        skipped = counter_value(fit.registry, "subtract_skipped_total")
        engaged = skipped / first("approx.sibling_pairs", counts=True)

    traced_bulk = [c for c in serving.bulk if c.traced]
    plain_bulk = [c for c in serving.bulk if not c.traced]
    if traced:
        overhead = (statistics.median(f.seconds for f in training.traced_fits)
                    / statistics.median(f.seconds for f in training.fits) - 1.0)
    else:
        overhead = (sum(c.seconds for c in traced_bulk) / len(traced_bulk)
                    / (sum(c.seconds for c in plain_bulk) / len(plain_bulk)) - 1.0)

    chunks = serving.chunks
    flush_ms = np.concatenate([c.flush_ms for c in chunks])

    def predict_ms(rows: int) -> float:
        return 1e3 * statistics.median(c.seconds for c in traced_bulk if c.rows == rows)

    return {
        "data.sorted_columns.s": _per_fit(recorders, "data.sorted_columns"),
        "data.rle.compression_ratio": (fit.compression_ratio or 0.0) if traced else 0.0,
        "core.find_split.s": _per_fit(recorders, "core.find_split"),
        "core.find_split.calls": first("core.find_split"),
        "core.partition.s": _per_fit(recorders, "core.partition"),
        "core.split_runs.s": _per_fit(recorders, "core.split_runs"),
        "core.gradients.s": _per_fit(recorders, "core.gradients"),
        "core.host_glue.s": glue if spec.trainer == "exact" else 0.0,
        "core.arena_reserved_mb": (
            counter_value(fit.registry, "arena_reserved_bytes") / MB if traced else 0.0
        ),
        "approx.accumulate.s": _per_fit(recorders, "approx.accumulate"),
        "approx.accumulate.entries": first("approx.accumulate.entries", counts=True),
        "approx.scan.s": _per_fit(recorders, "approx.scan"),
        "approx.scan.features": first("approx.scan.features", counts=True),
        "approx.subtract.s": _per_fit(recorders, "approx.subtract"),
        "approx.subtract.engaged_frac": engaged,
        "approx.build_bins.s": _per_fit(recorders, "approx.build_bins"),
        "approx.host_glue.s": glue if spec.trainer == "hist" else 0.0,
        "gpusim.modeled.gradients_s": phases.get("gradients", 0.0),
        "gpusim.modeled.find_split_s": phases.get("find_split", 0.0),
        "gpusim.modeled.split_node_s": phases.get("split_node", 0.0),
        "gpusim.kernel_launches": float(fit.launches) if traced else 0.0,
        "gpusim.kernel_bytes": float(fit.kernel_bytes) if traced else 0.0,
        "gpusim.pcie_bytes": float(fit.pcie_bytes) if traced else 0.0,
        "gpusim.launch.s": _per_fit(recorders, "gpusim.launch"),
        **{f"serve.predict_ms.b{rows}": predict_ms(rows) for rows, _ in BULK_MIX},
        "serve.predict.flat_frac": sum(c.flat for c in traced_bulk) / len(traced_bulk),
        "request_ms.p50": chunk_percentile(chunks, 50),
        "serve.flush_ms.p50": float(np.percentile(flush_ms, 50)),
        "serve.flush_ms.p99": float(np.percentile(flush_ms, 99)),
        "serve.batch_rows.mean": float(np.mean(np.concatenate([c.batch_rows for c in chunks]))),
        "serve.queue_wait_ms.p50": float(np.median(np.concatenate(
            [c.queue_wait_ms for c in chunks]))),
        "serve.generator_lag_ms.max": float(max(np.max(c.lag_ms) for c in chunks)),
        "obs.trace_overhead_frac": overhead,
    }
