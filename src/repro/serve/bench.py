"""``repro serve bench``: load generator for the admission service.

Replays multi-tenant :mod:`repro.online.streams` workloads against a
live server over HTTP -- an in-process one by default (client and
server share an event loop, so the measured path includes the full
request parse / batcher / engine / response cycle), or any running
server via ``--url``.

Two phases:

**Replay** (the gated phase) -- every tenant's stream is replayed in
chronological order through ``/v1/admit`` / ``/v1/depart`` on one
keep-alive connection per tenant, pipelined ``depth`` requests ahead.
The queue bound is sized above ``tenants * depth`` so nothing sheds,
and the server's decisions are bitwise-identical to an offline
:meth:`~repro.online.engine.OnlineAdmissionEngine.run` of the same
spec (``--verify`` asserts that, record by record).  Reported:
sustained ``events_per_sec(serve)`` (wall-clock, client-observed) and
the server's decision-latency p50/p99 from ``/metrics``.

**Overload** (in-process only) -- the same workload pushed through a
deliberately tiny queue with un-pipelined concurrent clients, so the
bounded queue sheds; clients retry 503s with exponential backoff.
Reported: shed ratio and retry counts (informational, not gated).

Output: ``BENCH_serve.json`` in the reduced pytest-benchmark schema
``scripts/compare_bench.py`` reads; ``events_per_sec(serve)`` is the
gated metric (CI runs the comparison with an absolute floor).
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.parse
from collections import deque

from repro.online.engine import (
    EVENT_ARRIVE,
    OnlineScenarioSpec,
    stream_events,
)
from repro.online.streams import StreamConfig, generate_stream
from repro.serve.app import AdmissionService
from repro.workload.random_jobs import RandomInstanceConfig
from repro.serve.tenants import scenario_to_dict

#: Default bench operating point: a light pool of single-stage jobs
#: with short dwells (small admitted sets, fast decisions), so the
#: measurement exercises the *service* path -- parse, batch, engine,
#: respond -- rather than one congested analyzer call.  The congested
#: analyzer itself is benchmarked by ``benchmarks/bench_online.py``.
BENCH_STREAM = dict(horizon=150.0, rate=1.0, dwell_scale=0.3,
                    pool_size=6)
BENCH_WORKLOAD = dict(num_jobs=6, num_stages=1,
                      resources_per_stage=2)

#: 503 retry policy of the bench client.
MAX_RETRIES = 8
BACKOFF_BASE = 0.01
BACKOFF_CAP = 0.5

#: Timed replay passes per bench run; the best pass is reported
#: (same best-of discipline as ``benchmarks/bench_online.py``).
REPLAY_REPEATS = 3


class BenchError(RuntimeError):
    """The bench run failed (server error or verification mismatch)."""


class PipelinedClient:
    """One keep-alive HTTP/1.1 connection with manual pipelining."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        #: Headers of the most recent response (lower-cased names).
        self.last_headers: "dict[str, str]" = {}

    @classmethod
    async def connect(cls, host: str, port: int) -> "PipelinedClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    def send(self, method: str, path: str, payload=None) -> None:
        body = b""
        if payload is not None:
            body = json.dumps(
                payload, separators=(",", ":")).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: bench\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"\r\n").encode("ascii")
        self.writer.write(head + body)

    async def read_response(self) -> "tuple[int, dict]":
        line = await self.reader.readline()
        if not line:
            raise BenchError("server closed the connection")
        status = int(line.split()[1])
        headers = {}
        while True:
            raw = await self.reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        self.last_headers = headers
        length = int(headers.get("content-length", 0) or 0)
        body = await self.reader.readexactly(length) if length else b"{}"
        return status, json.loads(body)

    async def request(self, method: str, path: str,
                      payload=None) -> "tuple[int, dict]":
        self.send(method, path, payload)
        await self.writer.drain()
        return await self.read_response()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def bench_specs(*, tenants: int, seed: int,
                stream_overrides: "dict | None" = None,
                shards: int = 1,
                prefix: str = "") -> "dict[str, OnlineScenarioSpec]":
    """The tenant specs of one bench run (seeded per tenant)."""
    params = dict(BENCH_STREAM)
    params.update(stream_overrides or {})
    if "workload" not in params:
        params["workload"] = RandomInstanceConfig(**BENCH_WORKLOAD)
    config = StreamConfig(**params)
    return {
        f"bench-{prefix}{index}": OnlineScenarioSpec(
            stream=config, seed=seed + index, shards=shards)
        for index in range(tenants)
    }


def _event_payloads(name: str,
                    spec: OnlineScenarioSpec) -> "list[tuple[str, dict]]":
    stream = generate_stream(spec.stream, seed=spec.seed)
    out = []
    for now, kind, uid in stream_events(stream):
        path = "/v1/admit" if kind == EVENT_ARRIVE else "/v1/depart"
        out.append((path, {"tenant": name, "uid": uid, "time": now}))
    return out


async def _replay_pipelined(client: PipelinedClient,
                            events, depth: int) -> int:
    """Replay one tenant's events ``depth`` requests ahead; returns
    the number of server-side retry re-admissions observed."""
    inflight: "deque" = deque()
    retry_accepts = 0

    async def reap() -> None:
        nonlocal retry_accepts
        inflight.popleft()
        status, payload = await client.read_response()
        if status != 200:
            raise BenchError(
                f"event rejected with HTTP {status}: {payload}")
        retry_accepts += payload.get("retry_accepts", 0)

    for path, payload in events:
        client.send("POST", path, payload)
        inflight.append(None)
        if len(inflight) >= depth:
            await client.writer.drain()
            await reap()
    await client.writer.drain()
    while inflight:
        await reap()
    return retry_accepts


async def _replay_with_retry(client: PipelinedClient,
                             events) -> "tuple[int, int]":
    """Un-pipelined replay retrying 503s with exponential backoff;
    returns ``(completed, retries)``."""
    retries = 0
    completed = 0
    for path, payload in events:
        for attempt in range(MAX_RETRIES + 1):
            status, _body = await client.request("POST", path, payload)
            if status == 200:
                completed += 1
                break
            if status != 503:
                raise BenchError(
                    f"event rejected with HTTP {status}: {_body}")
            retries += 1
            await asyncio.sleep(
                min(BACKOFF_CAP, BACKOFF_BASE * (2 ** attempt)))
        else:
            raise BenchError(
                f"event still shed after {MAX_RETRIES} retries")
    return completed, retries


async def _create_tenants(client: PipelinedClient, specs) -> None:
    for name, spec in specs.items():
        status, payload = await client.request(
            "POST", "/v1/tenants",
            {"name": name, "scenario": scenario_to_dict(spec)})
        if status != 201:
            raise BenchError(f"tenant create failed: {payload}")


async def _verify_tenant(client: PipelinedClient, name: str,
                         spec: OnlineScenarioSpec) -> None:
    """Served records must equal an offline run of the same spec."""
    from repro.serve.tenants import Tenant

    status, payload = await client.request(
        "GET", f"/v1/tenants/{urllib.parse.quote(name)}/records")
    if status != 200:
        raise BenchError(f"records fetch failed: {payload}")
    offline = Tenant(name, spec)
    final_admitted = offline.engine.run().final_admitted
    expected = offline.records()
    if payload["records"] != expected:
        raise BenchError(
            f"tenant {name!r}: served decisions diverge from the "
            f"offline engine ({len(payload['records'])} vs "
            f"{len(expected)} records)")
    if payload["final_admitted"] != final_admitted:
        raise BenchError(
            f"tenant {name!r}: final admitted set diverges")


async def _warmup(admin: PipelinedClient, host: str, port: int,
                  seed: int) -> None:
    """One short untimed replay through a throwaway tenant, so cold
    caches (numpy dispatch, analyzer warm paths) don't bill the
    sustained-rate measurement; the tenant is deleted afterwards so
    the server's decision percentiles only cover the timed phase."""
    specs = bench_specs(tenants=1, seed=seed,
                        stream_overrides={"horizon": 40.0})
    name, spec = next(iter(specs.items()))
    name = "warmup"
    await admin.request(
        "POST", "/v1/tenants",
        {"name": name, "scenario": scenario_to_dict(spec)})
    client = await PipelinedClient.connect(host, port)
    events = [(path, {**payload, "tenant": name}) for path, payload
              in _event_payloads(name, spec)]
    await _replay_pipelined(client, events, depth=16)
    await client.close()
    await admin.request("DELETE", f"/v1/tenants/{name}")


async def _replay_pass(admin: PipelinedClient, host: str, port: int,
                       specs, *, depth: int, verify: bool) -> dict:
    """One timed replay pass; tenants are created before the clock
    starts and deleted after it stops, so the server's decision
    percentiles cover exactly this pass."""
    await _create_tenants(admin, specs)
    payloads = {name: _event_payloads(name, spec)
                for name, spec in specs.items()}
    clients = {name: await PipelinedClient.connect(host, port)
               for name in specs}
    total_events = sum(len(events) for events in payloads.values())

    started = time.perf_counter()
    retry_accepts = sum(await asyncio.gather(*[
        _replay_pipelined(clients[name], payloads[name], depth)
        for name in specs]))
    elapsed = time.perf_counter() - started

    _status, metrics = await admin.request("GET", "/metrics")
    if verify:
        for name, spec in specs.items():
            await _verify_tenant(admin, name, spec)
    for client in clients.values():
        await client.close()
    for name in specs:
        await admin.request("DELETE", f"/v1/tenants/{name}")
    return {
        "events": total_events,
        "seconds": elapsed,
        "events_per_sec": total_events / elapsed,
        "retry_accepts": retry_accepts,
        "decision_p50_ms": metrics["decision_p50_ms"],
        "decision_p99_ms": metrics["decision_p99_ms"],
        "shed_ratio": metrics["batcher"]["shed_ratio"],
        "verified": bool(verify),
    }


async def _run_replay_phase(host: str, port: int, *, tenants: int,
                            seed: int, depth: int, shards: int,
                            verify: bool, stream_overrides,
                            repeats: int = REPLAY_REPEATS) -> dict:
    """Warm up once, then best-of-``repeats`` timed passes (fresh
    tenants each pass; decisions are deterministic per spec, so every
    pass does identical work and the best isolates service speed
    from machine noise)."""
    admin = await PipelinedClient.connect(host, port)
    await _warmup(admin, host, port, seed + 9999)
    best = None
    for index in range(repeats):
        specs = bench_specs(
            tenants=tenants, seed=seed, shards=shards,
            stream_overrides=stream_overrides, prefix=f"p{index}-")
        outcome = await _replay_pass(
            admin, host, port, specs, depth=depth,
            verify=verify and index == 0)
        if best is None or (outcome["events_per_sec"]
                            > best["events_per_sec"]):
            verified = best["verified"] if best else False
            outcome["verified"] = outcome["verified"] or verified
            best = outcome
    await admin.close()
    return best


async def _run_overload_phase(specs, *, queue_limit: int) -> dict:
    """Concurrent un-pipelined clients against a tiny queue: the
    bounded queue sheds, clients back off and retry."""
    service = AdmissionService(queue_limit=queue_limit)
    host, port = await service.start()
    try:
        admin = await PipelinedClient.connect(host, port)
        await _create_tenants(admin, specs)
        clients = {name: await PipelinedClient.connect(host, port)
                   for name in specs}
        outcomes = await asyncio.gather(*[
            _replay_with_retry(
                clients[name], _event_payloads(name, spec))
            for name, spec in specs.items()])
        _status, metrics = await admin.request("GET", "/metrics")
        for client in clients.values():
            await client.close()
        await admin.close()
    finally:
        await service.stop()
    return {
        "events": sum(done for done, _r in outcomes),
        "client_retries": sum(r for _done, r in outcomes),
        "shed_ratio": metrics["batcher"]["shed_ratio"],
        "shed_full": metrics["batcher"]["shed_full"],
        "queue_limit": queue_limit,
    }


async def _bench_main(*, url: "str | None", tenants: int, seed: int,
                      depth: int, shards: int, verify: bool,
                      overload: bool,
                      stream_overrides: "dict | None") -> dict:
    service = None
    if url is None:
        service = AdmissionService(
            queue_limit=max(1024, 2 * tenants * depth),
            max_batch=max(64, depth))
        host, port = await service.start()
    else:
        parsed = urllib.parse.urlsplit(url)
        host, port = parsed.hostname, parsed.port or 80
    try:
        replay = await _run_replay_phase(
            host, port, tenants=tenants, seed=seed, depth=depth,
            shards=shards, verify=verify,
            stream_overrides=stream_overrides)
    finally:
        if service is not None:
            await service.stop()

    report = {"replay": replay}
    if overload and url is None:
        overload_specs = bench_specs(
            tenants=max(4, tenants), seed=seed + 1000,
            stream_overrides={**(stream_overrides or {}),
                              "horizon": 40.0})
        report["overload"] = await _run_overload_phase(
            overload_specs, queue_limit=2)
    return report


def run_bench(*, url: "str | None" = None, tenants: int = 1,
              seed: int = 0, depth: int = 64, shards: int = 1,
              verify: bool = False, overload: bool = True,
              stream_overrides: "dict | None" = None,
              output: "str | None" = None) -> dict:
    """Run the bench and (optionally) write ``BENCH_serve.json``."""
    report = asyncio.run(_bench_main(
        url=url, tenants=tenants, seed=seed, depth=depth,
        shards=shards, verify=verify, overload=overload,
        stream_overrides=stream_overrides))
    if output:
        payload = bench_report_json(report)
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return report


def bench_report_json(report: dict) -> dict:
    """The reduced pytest-benchmark schema ``compare_bench`` reads."""
    replay = report["replay"]
    benchmarks = [{
        "name": "serve_replay",
        "extra_info": {
            "events": replay["events"],
            "events_per_sec(serve)": round(
                replay["events_per_sec"], 1),
            "decision_p50_ms": round(replay["decision_p50_ms"], 4),
            "decision_p99_ms": round(replay["decision_p99_ms"], 4),
            "shed_ratio": replay["shed_ratio"],
            "retry_accepts": replay["retry_accepts"],
            "verified": replay["verified"],
        },
    }]
    if "overload" in report:
        over = report["overload"]
        benchmarks.append({
            "name": "serve_overload",
            "extra_info": {
                "events": over["events"],
                "shed_ratio": round(over["shed_ratio"], 4),
                "shed_full": over["shed_full"],
                "client_retries": over["client_retries"],
                "queue_limit": over["queue_limit"],
            },
        })
    return {"benchmarks": benchmarks}


def format_bench_report(report: dict) -> str:
    """Human-readable summary printed by the CLI."""
    replay = report["replay"]
    lines = [
        f"replay: {replay['events']} events in "
        f"{replay['seconds']:.2f}s = "
        f"{replay['events_per_sec']:.0f} events/s, decision p50 "
        f"{replay['decision_p50_ms']:.3f} ms / p99 "
        f"{replay['decision_p99_ms']:.3f} ms"
        + (", verified bitwise vs offline" if replay["verified"]
           else ""),
    ]
    if "overload" in report:
        over = report["overload"]
        lines.append(
            f"overload: {over['events']} events through a "
            f"{over['queue_limit']}-slot queue, shed ratio "
            f"{over['shed_ratio']:.3f}, {over['client_retries']} "
            f"client retries")
    return "\n".join(lines)
