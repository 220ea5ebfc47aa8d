"""Batcher semantics: ordering, coalescing, overload shedding."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.batcher import EventBatcher, OverloadError


def run(coroutine):
    return asyncio.run(coroutine)


def test_preserves_submission_order():
    async def scenario():
        batcher = EventBatcher()
        batcher.start()
        seen = []
        futures = [batcher.submit(lambda i=i: seen.append(i) or i)
                   for i in range(20)]
        results = await asyncio.gather(*futures)
        await batcher.close()
        return seen, results

    seen, results = run(scenario())
    assert seen == list(range(20))
    assert results == list(range(20))


def test_coalesces_bursts_into_batches():
    async def scenario():
        batcher = EventBatcher(max_batch=8)
        batcher.start()
        await asyncio.sleep(0)  # consumer parks on the wakeup event
        futures = [batcher.submit(lambda: None) for _ in range(8)]
        await asyncio.gather(*futures)
        await batcher.close()
        return batcher.stats

    stats = run(scenario())
    assert stats.processed == 8
    # The whole burst drained in far fewer wakeups than events.
    assert stats.max_batch_seen > 1


def test_sheds_immediately_when_queue_full():
    async def scenario():
        batcher = EventBatcher(queue_limit=2)
        # Consumer not started: the queue can only fill.
        batcher.submit(lambda: None)
        batcher.submit(lambda: None)
        with pytest.raises(OverloadError, match="queue full"):
            batcher.submit(lambda: None)
        return batcher.stats

    stats = run(scenario())
    assert stats.shed_full == 1
    assert stats.shed_ratio == pytest.approx(1 / 3)


def test_sheds_stale_entries():
    async def scenario():
        batcher = EventBatcher(queue_timeout=0.01)
        future = batcher.submit(lambda: "done")
        await asyncio.sleep(0.05)  # entry goes stale before draining
        batcher.start()
        with pytest.raises(OverloadError, match="timed out"):
            await future
        await batcher.close()
        return batcher.stats

    stats = run(scenario())
    assert stats.shed_stale == 1


def test_work_exceptions_propagate_to_the_future():
    async def scenario():
        batcher = EventBatcher()
        batcher.start()

        def boom():
            raise ValueError("engine said no")

        with pytest.raises(ValueError, match="engine said no"):
            await batcher.submit(boom)
        ok = await batcher.submit(lambda: "still alive")
        await batcher.close()
        return ok, batcher.stats

    ok, stats = run(scenario())
    assert ok == "still alive"
    assert stats.failed == 1
    assert stats.processed == 1


def test_close_drains_pending_work():
    async def scenario():
        batcher = EventBatcher()
        futures = [batcher.submit(lambda i=i: i) for i in range(5)]
        batcher.start()
        await batcher.close()
        return [future.result() for future in futures]

    assert run(scenario()) == list(range(5))


def test_submit_after_close_is_shed():
    async def scenario():
        batcher = EventBatcher()
        batcher.start()
        await batcher.close()
        with pytest.raises(OverloadError, match="shutting down"):
            batcher.submit(lambda: None)

    run(scenario())


def test_constructor_validation():
    with pytest.raises(ValueError):
        EventBatcher(queue_limit=0)
    with pytest.raises(ValueError):
        EventBatcher(max_batch=0)
    with pytest.raises(ValueError):
        EventBatcher(queue_timeout=0)
