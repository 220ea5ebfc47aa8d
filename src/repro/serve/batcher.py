"""Admit-path batching and overload shedding for the service.

All mutating tenant events (``/v1/admit``, ``/v1/depart``) funnel
through one :class:`EventBatcher`: a bounded FIFO queue drained by a
single consumer task.  The consumer wakes once per pending burst and
drains up to ``max_batch`` entries before yielding to the event loop,
so under concurrent load the per-event asyncio overhead (task wakeups,
queue handoffs) is amortised across the batch -- the coalescing that
lets the service sustain the benchmark gate's events/sec floor.

Single-consumer draining also *serialises* engine calls without locks:
events of one tenant are processed in exactly arrival order, which is
what makes served decisions bitwise-identical to an offline replay.

Overload policy (load shedding, bounded memory):

* queue full -> the request is shed immediately with HTTP 503 and a
  ``Retry-After`` hint; nothing blocks.
* an entry older than ``queue_timeout`` seconds when the consumer
  reaches it -> shed with 503 (its deadline already passed; doing the
  work would only add latency to everyone behind it).

Clients (e.g. the bench load generator) retry 503s with exponential
backoff; ``shed_ratio`` is exported by ``/metrics``.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

#: Default bound on queued (not yet processed) events.
QUEUE_LIMIT = 1024

#: Default max events drained per consumer wakeup.
MAX_BATCH = 64

#: Default seconds an entry may wait before it is shed as stale.
QUEUE_TIMEOUT = 2.0


class OverloadError(RuntimeError):
    """The service shed this request (maps to HTTP 503)."""


@dataclass
class BatcherStats:
    """Counters the batcher exports through ``/metrics``."""

    enqueued: int = 0
    processed: int = 0
    shed_full: int = 0
    shed_stale: int = 0
    failed: int = 0
    batches: int = 0
    max_batch_seen: int = 0

    @property
    def shed(self) -> int:
        return self.shed_full + self.shed_stale

    @property
    def shed_ratio(self) -> float:
        offered = self.enqueued + self.shed_full
        return self.shed / offered if offered else 0.0

    def to_dict(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "processed": self.processed,
            "shed_full": self.shed_full,
            "shed_stale": self.shed_stale,
            "shed_ratio": self.shed_ratio,
            "failed": self.failed,
            "batches": self.batches,
            "max_batch_seen": self.max_batch_seen,
        }


class _Entry:
    __slots__ = ("work", "future", "enqueued_at")

    def __init__(self, work, future, enqueued_at):
        self.work = work
        self.future = future
        self.enqueued_at = enqueued_at


class EventBatcher:
    """Bounded queue + single consumer draining coalesced batches.

    ``submit`` returns a future resolved with the work callable's
    result (or its exception); the callable runs on the consumer
    task, so submitted work is globally serialised.
    """

    def __init__(self, *, queue_limit: int = QUEUE_LIMIT,
                 max_batch: int = MAX_BATCH,
                 queue_timeout: float = QUEUE_TIMEOUT) -> None:
        if queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {queue_limit}")
        if max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {max_batch}")
        if queue_timeout <= 0:
            raise ValueError(
                f"queue_timeout must be > 0, got {queue_timeout}")
        self.queue_limit = queue_limit
        self.max_batch = max_batch
        self.queue_timeout = queue_timeout
        self.stats = BatcherStats()
        self._queue: "deque[_Entry]" = deque()
        self._wakeup = asyncio.Event()
        self._closed = False
        self._consumer: "asyncio.Task | None" = None

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Spawn the consumer task on the running loop."""
        if self._consumer is None:
            self._consumer = asyncio.get_running_loop().create_task(
                self._consume(), name="repro-serve-batcher")

    async def close(self) -> None:
        """Drain what's queued, then stop the consumer."""
        self._closed = True
        self._wakeup.set()
        if self._consumer is not None:
            await self._consumer
            self._consumer = None

    # -- producer side -----------------------------------------------

    def submit(self, work) -> "asyncio.Future":
        """Enqueue a zero-argument callable; raises
        :class:`OverloadError` immediately when the queue is full."""
        if self._closed:
            raise OverloadError("service is shutting down")
        if len(self._queue) >= self.queue_limit:
            self.stats.shed_full += 1
            raise OverloadError(
                f"admission queue full ({self.queue_limit} pending)")
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Entry(work, future, time.monotonic()))
        self.stats.enqueued += 1
        self._wakeup.set()
        return future

    # -- consumer side -----------------------------------------------

    async def _consume(self) -> None:
        while True:
            if not self._queue:
                if self._closed:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            drained = 0
            now = time.monotonic()
            while self._queue and drained < self.max_batch:
                entry = self._queue.popleft()
                drained += 1
                if entry.future.cancelled():
                    continue
                if now - entry.enqueued_at > self.queue_timeout:
                    self.stats.shed_stale += 1
                    entry.future.set_exception(OverloadError(
                        "request timed out waiting in the admission "
                        "queue"))
                    continue
                try:
                    entry.future.set_result(entry.work())
                    self.stats.processed += 1
                except Exception as error:  # noqa: BLE001
                    self.stats.failed += 1
                    entry.future.set_exception(error)
            self.stats.batches += 1
            self.stats.max_batch_seen = max(
                self.stats.max_batch_seen, drained)
            # One cooperative yield per batch, not per event: this is
            # the coalescing that amortises loop overhead.
            await asyncio.sleep(0)
