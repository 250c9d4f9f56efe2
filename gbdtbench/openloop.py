"""Open-loop single-row load through a micro-batcher on one thread.

Requests fall due on a fixed schedule (``rate`` per second) whatever the
server is doing, as independent users' requests do.  The loop submits
every request that is due, then flushes whatever batch the batcher's
policy says is ready.  Each request is timed from its *due* time, so a
flush that stalls the loop charges its delay to every request that fell
due meanwhile; how late the loop submitted each request is reported
separately as generator lag.

The clock is injectable so tests can drive the loop in fake time.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List

import numpy as np


@dataclasses.dataclass
class OpenLoopResult:
    due: np.ndarray          # seconds, on the loop's clock
    submitted: np.ndarray    # when the loop actually submitted each request
    done: np.ndarray         # when the flush serving it returned (nan: never)
    flush_s: List[float]     # service time of each flush
    batch_rows: List[int]    # rows in each flush
    queue_wait_s: List[float]  # per request: flush start - due
    handles: list
    errors: List[str]        # flushes the batcher aborted (e.g. a double resolve)

    @property
    def latency_s(self) -> np.ndarray:
        return self.done - self.due

    @property
    def lag_s(self) -> np.ndarray:
        return self.submitted - self.due


def run_open_loop(
    batcher,
    rows: np.ndarray,
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
) -> OpenLoopResult:
    """Serve ``rows`` (one request each) arriving at ``rate`` per second.

    ``batcher`` is a :class:`repro.serve.MicroBatcher` (or anything with its
    ``submit`` / ``take_ready`` / ``complete`` methods and ``queue``).  Requests
    enter the queue stamped with their due time, so the batcher's
    ``max_wait`` deadline runs from when the request was due.
    """
    n = len(rows)
    t0 = clock()
    due = t0 + np.arange(n, dtype=np.float64) / rate
    submitted = np.full(n, np.nan)
    done = np.full(n, np.nan)
    index_of = {}
    handles = [None] * n
    flush_s: List[float] = []
    batch_rows: List[int] = []
    queue_wait: List[float] = []
    errors: List[str] = []

    def flush(batch, start):
        try:
            batcher.complete(batch, start)
        except RuntimeError as exc:  # the batcher's guard against double resolution
            errors.append(str(exc))
        end = clock()
        flush_s.append(end - start)
        batch_rows.append(len(batch))
        for _, _, handle in batch:
            i = index_of[id(handle)]
            done[i] = end
            queue_wait.append(start - due[i])

    i = 0
    while i < n:
        now = clock()
        while i < n and due[i] <= now:
            handle = batcher.submit(rows[i], now=due[i])
            submitted[i] = now
            handles[i] = handle
            index_of[id(handle)] = i
            if handle.done:  # served at once (degraded or cached)
                done[i] = now
            i += 1
        batch = batcher.take_ready(now)
        if batch:
            flush(batch, now)
    # the schedule is over: keep honouring max_wait until the queue is empty
    while len(batcher.queue):
        now = clock()
        batch = batcher.take_ready(now)
        if batch:
            flush(batch, now)
    return OpenLoopResult(due, submitted, done, flush_s, batch_rows, queue_wait, handles, errors)
