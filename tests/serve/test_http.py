"""End-to-end HTTP smoke and snapshot/restore round trips.

Every test starts a real :class:`~repro.serve.app.AdmissionService`
on a loopback port and talks to it over actual sockets with the bench
client, so the request parse / dispatch / batcher / engine / response
path is exercised exactly as deployed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.online.engine import (
    EVENT_ARRIVE,
    OnlineScenarioSpec,
    stream_events,
)
from repro.online.streams import StreamConfig, generate_stream
from repro.serve.app import MAX_BODY_BYTES, AdmissionService
from repro.serve.bench import PipelinedClient
from repro.serve.tenants import Tenant, scenario_to_dict
from repro.store import ResultStore
from repro.workload.random_jobs import RandomInstanceConfig

LIGHT = StreamConfig(
    horizon=40.0, rate=0.8, dwell_scale=0.4, pool_size=6,
    workload=RandomInstanceConfig(num_jobs=6, num_stages=2,
                                  resources_per_stage=2))
SPEC = OnlineScenarioSpec(stream=LIGHT, seed=0)


def wire_events(name, spec):
    """``(path, payload)`` per event, in engine replay order."""
    stream = generate_stream(spec.stream, seed=spec.seed)
    out = []
    for now, kind, uid in stream_events(stream):
        path = ("/v1/admit" if kind == EVENT_ARRIVE
                else "/v1/depart")
        out.append((path, {"tenant": name, "uid": uid, "time": now}))
    return out


async def with_service(scenario, **service_kwargs):
    """Run ``scenario(service, client)`` against a live server."""
    service = AdmissionService(**service_kwargs)
    host, port = await service.start()
    client = await PipelinedClient.connect(host, port)
    try:
        return await scenario(service, client)
    finally:
        await client.close()
        await service.stop()


async def create_tenant(client, name="t", spec=SPEC):
    status, payload = await client.request(
        "POST", "/v1/tenants",
        {"name": name, "scenario": scenario_to_dict(spec)})
    assert status == 201, payload
    return payload


class TestSmoke:
    def test_health_metrics_and_tenant_lifecycle(self):
        async def scenario(service, client):
            status, health = await client.request("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"

            await create_tenant(client)
            status, listing = await client.request(
                "GET", "/v1/tenants")
            assert status == 200 and listing["tenants"] == ["t"]

            status, info = await client.request(
                "GET", "/v1/tenants/t")
            assert status == 200 and info["jobs"] > 0

            status, metrics = await client.request("GET", "/metrics")
            assert status == 200
            assert metrics["events_processed"] == 0
            assert "decision_p99_ms" in metrics
            assert metrics["batcher"]["shed_ratio"] == 0.0

            status, gone = await client.request(
                "DELETE", "/v1/tenants/t")
            assert status == 200 and gone["deleted"] == "t"
            status, _ = await client.request("GET", "/v1/tenants/t")
            assert status == 404

        asyncio.run(with_service(scenario))

    def test_served_decisions_match_offline_engine_bitwise(self):
        async def scenario(service, client):
            await create_tenant(client)
            for path, payload in wire_events("t", SPEC):
                status, body = await client.request(
                    "POST", path, payload)
                assert status == 200, body
                assert body["decision"] in (
                    "accept", "reject", "free", "expire", "noop")
            status, served = await client.request(
                "GET", "/v1/tenants/t/records")
            assert status == 200
            return served

        served = asyncio.run(with_service(scenario))

        offline = Tenant("t", SPEC)
        offline.engine.run()
        assert served["records"] == offline.records()
        assert (served["final_admitted"]
                == offline.result().final_admitted)

    def test_error_mapping(self):
        async def scenario(service, client):
            status, _ = await client.request("GET", "/nope")
            assert status == 404
            status, body = await client.request(
                "POST", "/v1/admit",
                {"tenant": "ghost", "uid": 0, "time": 0.0})
            assert status == 404 and "no tenant" in body["error"]
            await create_tenant(client)
            status, body = await client.request(
                "POST", "/v1/admit", {"tenant": "t", "uid": 0})
            assert status == 400 and "time" in body["error"]
            status, body = await client.request(
                "POST", "/v1/admit",
                {"tenant": "t", "uid": 10**6, "time": 0.0})
            assert status == 400 and "uid" in body["error"]
            status, body = await client.request(
                "POST", "/v1/tenants", {"name": "x"})
            assert status == 400 and "scenario" in body["error"]
            tenant = service.tenants.get("t")
            journal = [list(entry) for entry in tenant.journal]
            for path in ("/v1/admit", "/v1/depart"):
                for name in (["t"], {"t": 1}):
                    status, body = await client.request(
                        "POST", path,
                        {"tenant": name, "uid": 0, "time": 0.0})
                    assert status == 400 and "tenant" in body["error"]
                status, body = await client.request(
                    "POST", path, {"tenant": "t", "uid": 0, "time": 10**400})
                assert status == 400 and "time" in body["error"]
            assert tenant.sequence == 0
            assert tenant.journal == journal

        asyncio.run(with_service(scenario))

    @pytest.mark.parametrize("knob, value", [
        ("mode", "warm"), ("retry_limit", -1), ("shards", 0),
        ("kernel", "bogus"), ("kernel", "compiled"), ("seed", "x"),
        ("validate_every", -1),
        ("shards", 1.5), ("shards", True), ("retry_limit", True),
        ("retry_limit", 2.5), ("retry_limit", "x"),
        ("validate_every", True), ("validate_every", 1.5),
        ("seed", True),
    ])
    def test_bad_scenario_knob_gets_400(self, knob, value):
        """A knob the stream generator or the engine refuses, or an
        integer knob given any other JSON value, is a client error
        that names the knob, and it registers no tenant."""
        async def scenario(service, client):
            names = service.tenants.names()
            status, body = await client.request(
                "POST", "/v1/tenants",
                {"name": "t",
                 "scenario": {**scenario_to_dict(SPEC), knob: value}})
            assert status == 400, body
            assert knob in body["error"]
            assert service.tenants.names() == names
            await create_tenant(client)

        asyncio.run(with_service(scenario))

    def test_repeated_and_unknown_uids_get_400(self):
        async def scenario(service, client):
            await create_tenant(client)
            tenant = service.tenants.get("t")

            async def send(path, uid, now):
                return await client.request(
                    "POST", path, {"tenant": "t", "uid": uid, "time": now})

            status, _ = await send("/v1/admit", 0, 1.0)
            assert status == 200
            journal = [list(entry) for entry in tenant.journal]
            for path, uid, now, error in (
                    ("/v1/admit", 0, 1.0, "already arrived"),
                    ("/v1/depart", 1, 2.0, "before it arrived")):
                status, body = await send(path, uid, now)
                assert status == 400 and error in body["error"]
            assert tenant.journal == journal
            assert tenant.result().summary["arrivals"] == 1
            status, _ = await send("/v1/depart", 0, 3.0)
            assert status == 200
            status, body = await send("/v1/depart", 0, 4.0)
            assert status == 400 and "already departed" in body["error"]
            assert tenant.sequence == 2

        asyncio.run(with_service(scenario))

    def test_trace_ids_propagate_and_are_queryable(self):
        async def scenario(service, client):
            await create_tenant(client)
            path, payload = wire_events("t", SPEC)[0]
            status, _body = await client.request(
                "POST", path, {**payload, "trace_id": "my-trace-1"})
            assert status == 200
            assert (client.last_headers.get("x-trace-id")
                    == "my-trace-1")
            status, trace = await client.request(
                "GET", "/v1/traces/my-trace-1")
            assert status == 200
            stages = [span["stage"] for span in trace["spans"]]
            assert stages == ["enqueued", "decided"]
            status, _ = await client.request(
                "GET", "/v1/traces/never-seen")
            assert status == 404

        asyncio.run(with_service(scenario))

    def test_overload_returns_503_with_retry_after(self):
        async def scenario(service, client):
            await create_tenant(client)
            # Zero-capacity queue: every admit sheds immediately.
            service.batcher.queue_limit = 0
            path, payload = wire_events("t", SPEC)[0]
            status, body = await client.request("POST", path, payload)
            return status, body, dict(client.last_headers)

        status, body, headers = asyncio.run(with_service(scenario))
        assert status == 503
        assert "queue full" in body["error"]
        assert headers.get("retry-after") == "1"


class TestFraming:
    """Requests the server cannot frame get a 4xx reply and a closed
    connection, and never reach a tenant."""

    @staticmethod
    async def _raw_exchange(host, port, data: bytes):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(data)
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
        return status, headers, json.loads(body), trailing

    @pytest.mark.parametrize("data, expected", [
        (b"POST /v1/admit HTTP/1.1\r\nContent-Length: 10\r\n\r\n"
         b'{"tenant":', 400),
        (b"POST /v1/admit HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
         400),
        (b"POST /v1/admit HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         400),
        (b"POST /v1/admit HTTP/1.1\r\nContent-Length: "
         + str(MAX_BODY_BYTES + 1).encode("ascii") + b"\r\n\r\n", 413),
        (b"GARBAGE\r\n", 400),
        (b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * (1 << 17)
         + b"\r\n\r\n", 400),
        (b"POST /v1/admit HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
         + b"[" * 100_000, 400),
    ], ids=["bad-json", "non-integer-length", "negative-length",
            "oversized-body", "malformed-request-line",
            "over-long-request-line", "over-long-header-line",
            "deeply-nested-json"])
    def test_framing_errors_reply_and_close(self, data, expected):
        async def scenario(service, client):
            await create_tenant(client)
            path, payload = wire_events("t", SPEC)[0]
            status, _ = await client.request("POST", path, payload)
            assert status == 200
            tenant = service.tenants.get("t")
            journal = [list(entry) for entry in tenant.journal]
            host, port = service._server.sockets[0].getsockname()[:2]
            reply = await self._raw_exchange(host, port, data)
            assert tenant.sequence == 1
            assert tenant.journal == journal
            return reply

        status, headers, body, trailing = asyncio.run(
            with_service(scenario))
        assert status == expected
        assert "error" in body
        assert headers["connection"] == "close"
        assert trailing == b""


class TestSnapshotRestore:
    def test_snapshot_kill_restore_identical_continuation(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        events = wire_events("t", SPEC)
        half = len(events) // 2

        async def first_half(service, client):
            await create_tenant(client)
            for path, payload in events[:half]:
                status, _ = await client.request("POST", path, payload)
                assert status == 200
            status, snap = await client.request(
                "POST", "/v1/snapshot")
            assert status == 200
            assert snap["tenants"] == 1 and snap["events"] == half
            return snap

        snap = asyncio.run(with_service(first_half, store=store))

        # The first server process is gone; a fresh one restores the
        # snapshot and continues, and must match an uninterrupted run.
        async def second_half(service, client):
            status, restored = await client.request(
                "POST", "/v1/restore")
            assert status == 200
            assert restored["key"] == snap["key"]
            assert restored["events"] == half
            responses = []
            for path, payload in events[half:]:
                status, body = await client.request(
                    "POST", path, payload)
                assert status == 200
                responses.append(body)
            status, served = await client.request(
                "GET", "/v1/tenants/t/records")
            return responses, served

        responses, served = asyncio.run(with_service(
            second_half, store=store))

        offline = Tenant("t", SPEC)
        offline.engine.run()
        assert served["records"] == offline.records()
        assert (served["final_admitted"]
                == offline.result().final_admitted)
        # The continuation's per-event indices line up seamlessly.
        assert responses[0]["seq"] == half + 1

    def test_restore_by_explicit_key_and_missing_snapshots(self, tmp_path):
        store = ResultStore(tmp_path / "store")

        async def scenario(service, client):
            status, body = await client.request("POST", "/v1/restore")
            assert status == 400
            assert "no snapshot" in body["error"]
            await create_tenant(client)
            status, snap = await client.request(
                "POST", "/v1/snapshot")
            assert status == 200
            status, body = await client.request(
                "POST", "/v1/restore", {"key": "serve/snapshot@nope"})
            assert status == 400
            status, restored = await client.request(
                "POST", "/v1/restore", {"key": snap["key"]})
            assert status == 200 and restored["tenants"] == 1

        asyncio.run(with_service(scenario, store=store))

    def test_snapshot_without_store_is_a_client_error(self):
        async def scenario(service, client):
            status, body = await client.request(
                "POST", "/v1/snapshot")
            assert status == 400
            assert "no snapshot store" in body["error"]

        asyncio.run(with_service(scenario))


class TestBench:
    def test_bench_replay_verifies_and_reports(self, tmp_path):
        from repro.serve.bench import (
            bench_report_json,
            format_bench_report,
            run_bench,
        )

        report = run_bench(
            tenants=1, verify=True, overload=False, depth=8,
            stream_overrides={"horizon": 30.0},
            output=str(tmp_path / "BENCH_serve.json"))
        replay = report["replay"]
        assert replay["verified"]
        assert replay["events"] > 0
        assert replay["events_per_sec"] > 0
        payload = bench_report_json(report)
        names = [b["name"] for b in payload["benchmarks"]]
        assert names == ["serve_replay"]
        extra = payload["benchmarks"][0]["extra_info"]
        assert "events_per_sec(serve)" in extra
        assert (tmp_path / "BENCH_serve.json").exists()
        assert "events/s" in format_bench_report(report)

    def test_cli_serve_bench(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "BENCH_serve.json"
        code = main(["serve", "bench", "--no-overload",
                     "--depth", "8", "-o", str(out)])
        assert code == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert "replay:" in stdout and "events/s" in stdout


class TestPrometheusScrape:
    """GET /metrics content negotiation: JSON by default, Prometheus
    text exposition of the whole repro.obs registry on request."""

    @staticmethod
    async def _raw_get(host, port, path, headers=()):
        reader, writer = await asyncio.open_connection(host, port)
        head = f"GET {path} HTTP/1.1\r\nHost: scrape\r\n"
        for name, value in headers:
            head += f"{name}: {value}\r\n"
        writer.write((head + "\r\n").encode("ascii"))
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        response_headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", 0))
        body = await reader.readexactly(length)
        writer.close()
        await writer.wait_closed()
        return status, response_headers, body.decode("utf-8")

    def test_scrape_covers_the_whole_stack(self, tmp_path):
        async def scenario(service, client):
            await create_tenant(client)
            for path, payload in wire_events("t", SPEC)[:6]:
                status, _ = await client.request(
                    "POST", path, payload)
                assert status == 200
            host, port = service._server.sockets[0].getsockname()[:2]
            return await self._raw_get(
                host, port, "/metrics?format=prometheus")

        status, headers, text = asyncio.run(with_service(
            scenario, store=ResultStore(str(tmp_path / "store"))))
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "version=0.0.4" in headers["content-type"]
        # Exposition validity: every instrument declares a # TYPE.
        for line in text.strip().split("\n"):
            assert line.startswith("#") or " " in line
        assert "# TYPE repro_serve_decision_seconds histogram" in text
        assert "repro_serve_decision_seconds_bucket" in text
        assert 'le="+Inf"' in text
        # Label syntax + per-layer coverage: batcher, tenants,
        # admission decisions, store.
        assert '# TYPE repro_serve_batcher gauge' in text
        assert 'repro_serve_batcher{field="shed_ratio"}' in text
        assert 'repro_serve_tenant_events{tenant="t"}' in text
        assert "# TYPE repro_admission_decisions_total counter" \
            in text
        assert "# TYPE repro_store_reads_total counter" in text
        assert "repro_serve_trace_spans_dropped 0" in text

    def test_accept_header_negotiates_text(self):
        async def scenario(service, client):
            host, port = service._server.sockets[0].getsockname()[:2]
            return await self._raw_get(
                host, port, "/metrics",
                headers=[("Accept", "text/plain")])

        status, headers, text = asyncio.run(with_service(scenario))
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        assert "# TYPE" in text

    def test_default_stays_json(self):
        async def scenario(service, client):
            status, metrics = await client.request("GET", "/metrics")
            assert status == 200
            assert "events_processed" in metrics
            assert "decision_p50_ms" in metrics
            assert "spans_dropped" in metrics["traces"]

        asyncio.run(with_service(scenario))
