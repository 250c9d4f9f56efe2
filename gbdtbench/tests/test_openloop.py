"""Open-loop due-time latency and generator lag, in fake time."""

import numpy as np
import pytest

from openloop import run_open_loop
from steadiness import spread, worsening

from repro import BatchPolicy, MicroBatcher
from repro.serve.batch_core import BatchQueue


class FakeClock:
    """Advances ``tick`` per read, so a busy loop makes progress."""

    def __init__(self, tick=1e-5):
        self.t = 100.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


class FakeHandle:
    def __init__(self):
        self.done = False
        self.degraded = False


class FakeBatcher:
    """Real queue policy; each flush costs ``service`` seconds of fake time."""

    def __init__(self, clock, service, max_wait):
        self.clock = clock
        self.service = service
        self.queue = BatchQueue(max_batch=64, max_wait=max_wait, max_queue=1000)

    def submit(self, row, now):
        handle = FakeHandle()
        assert self.queue.push(handle, now)
        return handle

    def take_ready(self, now):
        taken = self.queue.take_ready(now)
        return None if taken is None else [(None, t, h) for h, t in taken]

    def complete(self, batch, now):
        self.clock.t += self.service
        for _, _, handle in batch:
            handle.done = True


def test_latency_counts_from_due_time_and_stalls_show_as_lag():
    clock = FakeClock(tick=1e-6)
    batcher = FakeBatcher(clock, service=0.0035, max_wait=0.0)
    res = run_open_loop(batcher, np.zeros((10, 1)), rate=1000.0, clock=clock)
    assert all(h.done for h in res.handles)
    assert np.all(res.latency_s >= 0.0035)
    # a 3.5 ms flush with a request due every 1 ms: requests that fall due
    # during a flush are submitted late, and the next flush serves them all
    assert res.lag_s.max() > 0.0025
    assert max(res.batch_rows) > 1
    # latency runs from the due time, so it includes the lag
    np.testing.assert_array_equal(res.latency_s, res.done - res.due)
    assert np.all(res.latency_s >= res.lag_s + 0.0035 - 1e-9)
    assert sum(res.batch_rows) == 10
    assert len(res.queue_wait_s) == 10


def test_below_saturation_latency_is_wait_plus_service():
    clock = FakeClock(tick=1e-6)
    batcher = FakeBatcher(clock, service=0.0002, max_wait=0.0001)
    res = run_open_loop(batcher, np.zeros((50, 1)), rate=1000.0, clock=clock)
    assert res.batch_rows == [1] * 50
    # one row per flush: each waits max_wait, then is served
    np.testing.assert_allclose(res.latency_s, 0.0003, atol=2e-5)
    assert res.lag_s.max() < 2e-5
    np.testing.assert_allclose(res.queue_wait_s, 0.0001, atol=2e-5)


def test_an_aborted_flush_is_recorded_and_its_requests_stay_unresolved():
    clock = FakeClock(tick=1e-6)
    batcher = FakeBatcher(clock, service=0.0002, max_wait=0.0)
    complete = batcher.complete
    calls = []

    def flaky(batch, now):
        calls.append(now)
        if len(calls) == 2:
            raise RuntimeError("prediction resolved twice (duplicated response)")
        complete(batch, now)

    batcher.complete = flaky
    res = run_open_loop(batcher, np.zeros((5, 1)), rate=1000.0, clock=clock)
    assert res.errors == ["prediction resolved twice (duplicated response)"]
    assert [h.done for h in res.handles] == [True, False, True, True, True]


def test_real_batcher_resolves_every_request_once():
    from repro import GBDTParams, HistogramGBDTTrainer, make_dataset

    ds = make_dataset("higgs", run_rows=400, seed=2)
    model = HistogramGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
    rows = ds.X_test.to_dense(fill=np.nan).values
    batcher = MicroBatcher(model.flatten(), policy=BatchPolicy(max_wait=0.0001))
    res = run_open_loop(batcher, rows, rate=20000.0)
    assert all(h.done and not h.degraded for h in res.handles)
    np.testing.assert_allclose([h.value for h in res.handles], model.predict_margin(rows),
                               rtol=0, atol=1e-9)
    assert not np.isnan(res.done).any()


def test_spread_and_worsening():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    q1, q3 = 1.5, 4.5  # statistics.quantiles([1..5], n=4), exclusive method
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((q3 - q1) / 3.0)
    assert worsening([1.0, 1.0], [1.1, 1.1], "lower") == pytest.approx(0.1)
    assert worsening([1.0, 1.0], [1.1, 1.1], "higher") == pytest.approx(-0.1)
