"""Workload ``serve-closed``: the admission service under a closed loop.

``repro serve run`` runs in its own process (``serve_launcher.py``).
A *pass* hosts ``TENANTS`` tenants replaying short streams at the
congested operating point of ``online-sharded``'s clusters (Poisson
rate 1.3, dwell scale 2.0, pool 40, horizon 150) on one single-cell
engine each.  Their admit/depart events, merged by stream time, go out
on one keep-alive connection, one request in flight: each event is
sent as soon as the reply to the previous one is back, and is timed
from its send to its reply.  A second connection reads ``GET
/metrics`` once a second, the reader beside the writers.  After the
timed phase of a pass, the digest of each tenant's served records and
final admitted set must equal that of an offline ``engine.run()`` of
its spec, committed in ``expected/serve-closed.json``; then the
tenants are deleted and the next pass creates them afresh.  A run
makes passes until its time is up (at least five), and each admit
request's time is its least over the passes.

The closed loop, the unpinned processes, the congested tenants and
their short streams were each chosen by measurement on a shared
2-vCPU VM; ``README.md`` ("Why serve-closed looks as it does") gives
the figures.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import subprocess
import sys
import time

import common
from ledger import layer_report

HERE = os.path.dirname(os.path.abspath(__file__))

#: The congested operating point over a short horizon: each engine's
#: analysis cache grows with the square of its stream's job universe.
TENANT_STREAM = dict(horizon=150.0, rate=1.3, dwell_scale=2.0,
                     pool_size=40)
#: Tenants of a pass, which are also the stream seeds with committed
#: digests: ~3100 events, ~1550 of them admits, which a shared 2-vCPU
#: x86-64 VM serves in 2.5-5 s.
TENANTS = 8
SCRAPE_PERIOD = 1.0
WARMUP_HORIZON = 20.0
START_TIMEOUT = 60.0


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    @staticmethod
    def encode(method: str, path: str, payload=None) -> bytes:
        body = b"" if payload is None else json.dumps(
            payload, separators=(",", ":")).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\nHost: perfbench\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        return head.encode("ascii") + body

    def send(self, raw: bytes) -> None:
        self.writer.write(raw)

    async def response(self) -> "tuple[int, bytes]":
        """Status and raw body of the next response (the body is
        decoded later, to keep the timed loop light)."""
        try:
            head = await self.reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            raise ConnectionError("server closed the connection") from None
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def request(self, method: str, path: str, payload=None):
        """One request/response round trip, body decoded."""
        self.send(self.encode(method, path, payload))
        await self.writer.drain()
        status, body = await self.response()
        return status, json.loads(body) if body else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Server:
    """The service process: spawn, address, CPU and memory, stop."""

    def __init__(self, *, trace: bool) -> None:
        command = [sys.executable, os.path.join(HERE, "serve_launcher.py")]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        self.host = self.port = None
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                address = line.split("http://", 1)[1].split()[0]
                host, _, port = address.rpartition(":")
                self.host, self.port = host, int(port)
                return
        self.stop()
        raise RuntimeError("the admission service did not start")

    @property
    def pid(self) -> int:
        return self.process.pid

    def signal(self, signum) -> None:
        self.process.send_signal(signum)

    def stop(self) -> "dict | None":
        """SIGTERM, wait, and return the ledger line if one came."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        for line in (out or "").splitlines():
            if line.startswith("LEDGER "):
                return json.loads(line[len("LEDGER "):])
        return None


def tenant_spec(seed: int, **overrides):
    from repro.online.engine import OnlineScenarioSpec
    from repro.online.streams import StreamConfig
    from repro.workload.random_jobs import RandomInstanceConfig

    config = StreamConfig(**{**TENANT_STREAM, **overrides},
                          workload=RandomInstanceConfig())
    return OnlineScenarioSpec(stream=config, seed=seed)


def tenant_specs(seed: int) -> dict:
    """Tenant ``t`` replays stream seed ``(seed + t) mod TENANTS``:
    every run serves the same streams, the run seed rotates which
    tenant holds which (disjoint streams per seed moved server CPU per
    event by ~7% between seeds)."""
    return {f"tenant-{t}": tenant_spec((seed + t) % TENANTS)
            for t in range(TENANTS)}


def tenant_events(specs: dict) -> list:
    """Every tenant's events merged by stream time: ``(path, body)``.
    Each tenant's own order (departures before arrivals on ties) is
    kept."""
    from repro.online.engine import EVENT_ARRIVE, stream_events
    from repro.online.streams import generate_stream

    merged = []
    for t, (name, spec) in enumerate(specs.items()):
        stream = generate_stream(spec.stream, seed=spec.seed)
        for k, (now, kind, uid) in enumerate(stream_events(stream)):
            path = "/v1/admit" if kind == EVENT_ARRIVE else "/v1/depart"
            merged.append((now, t, k, path,
                           {"tenant": name, "uid": uid, "time": now}))
    merged.sort(key=lambda entry: entry[:3])
    return [(path, body) for *_key, path, body in merged]


def offline_digest(spec) -> str:
    """Digest of an offline ``engine.run()`` of one tenant spec: its
    records (JSON form, wall clock dropped) and final admitted set."""
    from repro.online.streams import generate_stream
    from repro.serve.tenants import build_engine

    engine = build_engine(generate_stream(spec.stream, seed=spec.seed),
                          spec)
    result = engine.run()
    records = []
    for record in result.records:
        payload = record.to_dict()
        payload.pop("latency")
        records.append(payload)
    return common.digest({"records": records,
                          "final": list(result.final_admitted)})


class Session:
    """One service process, warmed up, ready for passes."""

    def __init__(self, specs: dict, *, trace: bool) -> None:
        self.specs = specs
        self.trace = trace
        self.server = None
        self.admin = None

    async def start(self) -> None:
        self.server = Server(trace=self.trace)
        self.admin = await Connection.open(self.server.host,
                                           self.server.port)
        # Untimed warm-up through a throwaway tenant, deleted after.
        warmup = {"warmup": tenant_spec(TENANTS, horizon=WARMUP_HORIZON)}
        await self.create_tenants(warmup)
        for path, body in tenant_events(warmup):
            status, reply = await self.admin.request("POST", path, body)
            if status != 200:
                raise RuntimeError(f"warm-up: HTTP {status} {reply}")
        await self.delete_tenants(warmup)

    async def create_tenants(self, specs: dict) -> None:
        from repro.serve.tenants import scenario_to_dict

        for name, spec in specs.items():
            status, body = await self.admin.request(
                "POST", "/v1/tenants",
                {"name": name, "scenario": scenario_to_dict(spec)})
            if status != 201:
                raise RuntimeError(f"tenant {name}: HTTP {status} {body}")

    async def delete_tenants(self, specs: dict) -> None:
        for name in specs:
            status, body = await self.admin.request(
                "DELETE", f"/v1/tenants/{name}")
            if status != 200:
                raise RuntimeError(f"tenant {name}: HTTP {status} {body}")

    async def batcher(self) -> dict:
        _status, body = await self.admin.request("GET", "/metrics")
        return body["batcher"]

    async def closed_loop(self, requests: list) -> dict:
        """Send ``requests`` one at a time; per-request times."""
        clock = time.perf_counter
        events = await Connection.open(self.server.host, self.server.port)
        total = len(requests)
        sent = [0.0] * total
        received = [0.0] * total
        replies = [None] * total
        scrapes = []
        finished = asyncio.Event()
        scrape = Connection.encode("GET", "/metrics")

        async def sender() -> None:
            for k, raw in enumerate(requests):
                sent[k] = clock()
                events.send(raw)
                replies[k] = await events.response()
                received[k] = clock()
            finished.set()

        async def scraper() -> None:
            while True:
                try:
                    await asyncio.wait_for(finished.wait(), SCRAPE_PERIOD)
                    return
                except asyncio.TimeoutError:
                    pass
                began = clock()
                self.admin.send(scrape)
                status, _body = await self.admin.response()
                scrapes.append((status, clock() - began))

        tasks = [asyncio.ensure_future(coro)
                 for coro in (sender(), scraper())]
        # The generator's own collector would stall replies it is
        # timing; the server, the system under test, keeps its GC on.
        gc.disable()
        try:
            await asyncio.gather(*tasks)
        finally:
            gc.enable()
            for task in tasks:
                task.cancel()
            await events.close()
        return {"sent": sent, "received": received, "replies": replies,
                "scrapes": scrapes}

    async def verify(self) -> list:
        """Served records against offline runs, after the timed phase."""
        expected = common.load_expected("serve-closed")
        errors = []
        for name, spec in self.specs.items():
            status, body = await self.admin.request(
                "GET", f"/v1/tenants/{name}/records")
            if status != 200:
                errors.append(f"{name}: records HTTP {status}")
                continue
            served = common.digest({"records": body["records"],
                                    "final": body["final_admitted"]})
            if served != expected[str(spec.seed)]:
                errors.append(f"{name}: served records or final admitted "
                              f"set differ from the offline run")
        return errors

    async def close(self) -> "dict | None":
        if self.admin is not None:
            await self.admin.close()
            self.admin = None
        if self.server is not None:
            server, self.server = self.server, None
            return server.stop()
        return None


class Workload:
    name = "serve-closed"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.loop = asyncio.new_event_loop()
        self.session = None

    def setup(self) -> None:
        self.specs = tenant_specs(self.seed)
        self.events = tenant_events(self.specs)
        self.requests = [Connection.encode("POST", path, body)
                         for path, body in self.events]
        self.session = Session(self.specs, trace=False)
        self.loop.run_until_complete(self.session.start())

    def close(self) -> None:
        if self.session is not None:
            self.loop.run_until_complete(self.session.close())
            self.session = None
        self.loop.close()

    def _pass(self, session: Session) -> dict:
        """Create the tenants, serve every event once (the timed
        phase), verify the served records and delete the tenants."""
        run = self.loop.run_until_complete
        server = session.server
        run(session.create_tenants(self.specs))
        before = run(session.batcher())
        if session.trace:
            server.signal(signal.SIGUSR1)
            time.sleep(0.1)
        cpu_before = common.proc_cpu_seconds(server.pid)
        client_before = time.process_time()
        timings = run(session.closed_loop(self.requests))
        client_cpu = time.process_time() - client_before
        cpu = common.proc_cpu_seconds(server.pid) - cpu_before
        if session.trace:
            server.signal(signal.SIGUSR2)
            time.sleep(0.1)
        after = run(session.batcher())
        errors = []
        arrivals = accepted = 0
        for k, (status, raw) in enumerate(timings["replies"]):
            if status != 200:
                errors.append(f"event {k}: HTTP {status} {raw!r}")
            elif self.events[k][0] == "/v1/admit":
                arrivals += 1
                accepted += json.loads(raw)["decision"] == "accept"
        errors += [f"GET /metrics: HTTP {status}"
                   for status, _rtt in timings["scrapes"]
                   if status != 200]
        errors += run(session.verify())
        run(session.delete_tenants(self.specs))
        # Latency per decision: admit requests only.  Departures decide
        # nothing and mostly return in a third of the time, so over all
        # requests the median would fall in the gap between the two.
        admits = [got - sent for got, sent, (path, _body)
                  in zip(timings["received"], timings["sent"],
                         self.events)
                  if path == "/v1/admit"]
        return {"timings": timings, "admits": admits, "cpu": cpu,
                "client_cpu": client_cpu, "errors": errors,
                "arrivals": arrivals, "accepted": accepted,
                "before": before, "after": after}

    def measure(self) -> dict:
        pid = self.session.server.pid
        passes, rss = common.run_passes(
            self.name, self.seconds, lambda _k: self._pass(self.session),
            lambda: common.proc_peak_rss_mb(pid))
        self.loop.run_until_complete(self.session.close())
        self.session = None
        events = len(self.events)
        first = passes[0]
        # Each admit's time is its least over the passes.  A round trip
        # also waits for the host to wake the server and the generator,
        # and those delays only ever add time.  In a contended spell
        # they hit so many requests in three of five passes that p99
        # over the per-request medians ranged from 2.0 to 6.7 ms over
        # ten seeds, while p50 and server CPU per event spread by 0.13
        # and 0.09.
        metrics = common.latency_metrics(
            common.op_minima([p["admits"] for p in passes]),
            common.TAIL_PERCENTILE[self.name])
        # Capacity: events per second of server CPU, instead of the
        # wall-clock rate the latencies already imply.
        metrics["ops_per_s"] = common.median(
            [events / p["cpu"] for p in passes])
        metrics["peak_rss_mb"] = rss
        metrics["acceptance_ratio"] = first["accepted"] / first["arrivals"]
        return {
            "attempted": sum(events + len(p["timings"]["scrapes"])
                             for p in passes),
            "errors": [e for p in passes for e in p["errors"]],
            "passes": len(passes),
            "metrics": metrics,
        }

    def trace(self) -> dict:
        """A pass on an untraced server, then one on a traced server."""
        untraced = self._pass(self.session)
        self.loop.run_until_complete(self.session.close())
        self.session = Session(self.specs, trace=True)
        self.loop.run_until_complete(self.session.start())
        traced = self._pass(self.session)
        raw = self.loop.run_until_complete(self.session.close())
        self.session = None
        timings = traced["timings"]
        total = len(timings["sent"])
        metrics = layer_report(raw, ops=total, busy_seconds=traced["cpu"],
                               names=common.PER_LAYER)
        scrapes = raw["calls"].get("serve.scrape", 0)
        metrics["serve.scrape_ms"] = (
            raw["total"].get("serve.scrape", 0.0) * 1e3 / scrapes
            if scrapes else 0.0)
        metrics["serve.queue_wait_ms"] = (
            raw["total"].get("serve.queue_wait", 0.0) * 1e3 / total)
        handler_ms = raw["total"].get("serve.handler", 0.0) * 1e3 / total
        metrics["serve.handler_ms"] = handler_ms
        round_trip_ms = sum(
            got - sent for got, sent
            in zip(timings["received"], timings["sent"])) * 1e3 / total
        metrics["serve.http_ms"] = round_trip_ms - handler_ms
        drains = traced["after"]["batches"] - traced["before"]["batches"]
        processed = (traced["after"]["processed"]
                     - traced["before"]["processed"])
        metrics["serve.batch_mean"] = processed / drains if drains else 0.0
        # Generator CPU per event: far below the round trip, or the
        # generator, not the service, sets the pace.
        metrics["client.cpu_ms"] = traced["client_cpu"] * 1e3 / total
        metrics["trace_overhead_pct"] = (
            traced["cpu"] / untraced["cpu"] - 1.0) * 100.0
        attempted = 2 * total + len(timings["scrapes"]) + len(
            untraced["timings"]["scrapes"])
        return {"attempted": attempted,
                "errors": untraced["errors"] + traced["errors"],
                "metrics": metrics}
