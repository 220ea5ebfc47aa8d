"""Trace-id handling and the bounded span store the service keeps."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import SpanStore
from repro.obs.tracing import SPANS_PER_TRACE, TRACE_ID_PATTERN


@pytest.fixture(autouse=True)
def _clean_tracing():
    obs.reset_tracing()
    yield
    obs.reset_tracing()


def record(store, trace_id, name="serve.event", **attrs):
    with store.start(name, trace_id, **attrs):
        pass


def test_minted_ids_are_unique():
    ids = {obs.new_trace_id() for _ in range(100)}
    assert len(ids) == 100
    assert all(TRACE_ID_PATTERN.match(i) for i in ids)


def test_valid_client_ids_propagate():
    assert obs.coerce_trace_id("req-42.a:b_c") == "req-42.a:b_c"


def test_malformed_client_ids_are_replaced():
    for bad in (None, 17, "", "x" * 65, "bad id", "a\nb", ["req-1"]):
        trace_id = obs.coerce_trace_id(bad)
        assert trace_id != bad
        assert TRACE_ID_PATTERN.match(trace_id)


def test_spans_accumulate_per_trace():
    store = SpanStore()
    record(store, "t1", uid=3)
    record(store, "t1", "serve.snapshot", key="k")
    record(store, "t2", uid=4)
    spans = store.get("t1")
    assert [span.name for span in spans] == [
        "serve.event", "serve.snapshot"]
    assert all(span.trace_id == "t1" for span in spans)
    assert spans[1].attrs["key"] == "k"
    assert store.get("missing") is None


def test_spans_time_their_work_and_mark_errors():
    store = SpanStore()
    with pytest.raises(RuntimeError):
        with store.start("serve.event", "t", uid=1):
            raise RuntimeError("shed")
    (span,) = store.get("t")
    assert span.attrs == {"uid": 1, "error": "RuntimeError"}
    assert span.end is not None and span.duration >= 0.0


def test_capacity_evicts_oldest_trace():
    store = SpanStore(capacity=2)
    record(store, "a")
    record(store, "b")
    record(store, "c")
    assert store.get("a") is None
    assert store.get("b") is not None
    assert store.get("c") is not None
    assert store.stats()["dropped_traces"] == 1


def test_default_bound_is_1024_traces_of_64_spans():
    store = SpanStore()
    for index in range(1024 + 3):
        record(store, f"t{index}")
    for _ in range(SPANS_PER_TRACE + 1):
        record(store, "t1026")
    stats = store.stats()
    assert stats["traces"] == stats["capacity"] == 1024
    assert stats["dropped_traces"] == 3
    assert len(store.get("t1026")) == SPANS_PER_TRACE == 64
    assert stats["spans_dropped"] == 2


def test_spans_per_trace_are_bounded():
    store = SpanStore()
    for index in range(SPANS_PER_TRACE + 10):
        record(store, "t", index=index)
    assert len(store.get("t")) == SPANS_PER_TRACE


def test_two_logs_mint_disjoint_ids():
    """Two span stores in one process (two services) mint disjoint
    trace ids and never see each other's spans."""
    first, second = SpanStore(), SpanStore()
    minted = set()
    for store in (first, second):
        for _ in range(50):
            trace_id = obs.coerce_trace_id(None)
            record(store, trace_id)
            minted.add(trace_id)
    assert len(minted) == 100
    assert first.stats()["traces"] == second.stats()["traces"] == 50
    record(first, "shared")
    assert second.get("shared") is None
    record(second, "shared", "serve.snapshot")
    assert [span.name for span in first.get("shared")] == ["serve.event"]
    assert [span.name for span in second.get("shared")] == [
        "serve.snapshot"]


def test_minted_ids_share_the_span_id_scheme():
    """Minted trace ids and span ids carry the same per-process
    prefix, so two processes (or a service restored from a snapshot
    into a new one) never mint colliding ids."""
    minted = obs.coerce_trace_id(None)
    store = SpanStore()
    with store.start("serve.event", minted) as step:
        pass
    assert minted.startswith("trace-")
    assert minted.split("-")[1] == step.span_id.split("-")[1]


def test_truncation_is_counted_not_silent():
    store = SpanStore()
    for index in range(SPANS_PER_TRACE + 7):
        record(store, "t", index=index)
    assert len(store.get("t")) == SPANS_PER_TRACE
    assert store.truncated("t") == 7
    assert store.stats()["spans_dropped"] == 7
    # A second trace's truncation adds to the total.
    for index in range(SPANS_PER_TRACE + 3):
        record(store, "u", index=index)
    assert store.stats()["spans_dropped"] == 10


def test_evicting_a_trace_keeps_the_total_drop_count():
    store = SpanStore(capacity=1)
    for index in range(SPANS_PER_TRACE + 5):
        record(store, "a", index=index)
    assert store.stats()["spans_dropped"] == 5
    record(store, "b")  # evicts trace "a"
    assert store.get("a") is None
    assert store.truncated("a") == 0  # per-trace tally cleaned up
    assert store.stats()["spans_dropped"] == 5  # total survives


def test_hops_bridge_to_obs_spans(tmp_path):
    """With a span exporter configured, every stored serve span is
    also exported under the same trace id."""
    exporter = obs.JsonlSpanExporter(str(tmp_path / "trace.jsonl"))
    obs.configure_exporter(exporter)
    store = SpanStore()
    record(store, "req-7", uid=3)
    record(store, "req-7", "serve.snapshot", key="k")
    spans = obs.load_spans(exporter.path)
    assert [span["name"] for span in spans] == [
        "serve.event", "serve.snapshot"]
    assert all(span["trace_id"] == "req-7" for span in spans)
    assert spans == [span.to_dict() for span in store.get("req-7")]


def test_no_obs_spans_without_exporter():
    store = SpanStore()
    record(store, "req-8")
    assert len(store.get("req-8")) == 1
    assert not obs.tracing_enabled()
