"""The admission-control service: stdlib-asyncio HTTP/1.1 front end.

:class:`AdmissionService` wires the layers together -- tenant
registry (:mod:`repro.serve.tenants`), admit-path batcher
(:mod:`repro.serve.batcher`), span store (:class:`repro.obs.SpanStore`),
snapshot store (:mod:`repro.serve.snapshot`) -- and serves the
endpoint table of :mod:`repro.serve.handlers` over a hand-rolled
HTTP/1.1 server on :func:`asyncio.start_server`.  No third-party web
framework: the container bakes in numpy/scipy but no aiohttp, and the
protocol surface here (JSON bodies, keep-alive, Content-Length
framing) is small enough to own.

Connections are keep-alive by default; the bench client leans on that
plus request pipelining to amortise round trips.  Every response
carries the request's ``X-Trace-Id`` (client-supplied or minted),
under which the handlers record their ``serve.*`` spans.

Error mapping: :class:`~repro.serve.handlers.NotFoundError` -> 404,
:class:`~repro.serve.tenants.ServeError` -> 400, overload
(:class:`~repro.serve.batcher.OverloadError`) -> 503 with a
``Retry-After`` hint, anything else -> 500 (and logged).
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
import urllib.parse

from repro import obs
from repro.online.metrics import throughput
from repro.serve.batcher import EventBatcher, OverloadError
from repro.serve.handlers import NotFoundError, resolve
from repro.serve.tenants import ServeError, Tenant, TenantManager
from repro.store import ResultStore

#: Largest accepted request body, bytes (JSON scenarios are small).
MAX_BODY_BYTES = 1 << 20

#: ``Retry-After`` seconds hinted on 503 responses.
RETRY_AFTER_SECONDS = 1

#: Longest a connection closed on a framing error keeps discarding
#: what its client still sends, seconds.
LINGER_SECONDS = 1.0

_STATUS_TEXT = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class FramingError(ServeError):
    """A request the server cannot frame (answered with ``status``,
    then the connection is closed)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class Request:
    """One parsed HTTP request (handlers' view of the wire)."""

    __slots__ = ("method", "path", "query", "headers", "body",
                 "trace_id", "path_arg")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.trace_id = ""
        self.path_arg = None


class AdmissionService:
    """The long-running service state behind the HTTP front end."""

    def __init__(self, *, store: "ResultStore | None" = None,
                 queue_limit: int = 1024, max_batch: int = 64,
                 queue_timeout: float = 2.0,
                 max_tenants: int = 64) -> None:
        self.tenants = TenantManager(max_tenants=max_tenants)
        self.batcher = EventBatcher(
            queue_limit=queue_limit, max_batch=max_batch,
            queue_timeout=queue_timeout)
        self.traces = obs.SpanStore()
        self.store = store
        self.started_at = time.monotonic()
        self.requests_served = 0
        self._busy_seconds = 0.0
        self._server: "asyncio.base_events.Server | None" = None
        registry = obs.get_registry()
        #: Bucketed service-side event latency (queue wait + engine
        #: decision): O(1) per event, whatever the uptime.
        self.decision_latency = registry.histogram(
            "repro_serve_decision_seconds",
            "Admission service event latency: batcher queue wait "
            "plus engine decision, seconds.")
        self._obs_batcher = registry.gauge(
            "repro_serve_batcher",
            "Admit-path batcher statistics.",
            labelnames=("field",))
        self._obs_tenants = registry.gauge(
            "repro_serve_tenants", "Live tenants.")
        self._obs_tenant_events = registry.gauge(
            "repro_serve_tenant_events",
            "Events processed per tenant.", labelnames=("tenant",))
        self._obs_requests = registry.gauge(
            "repro_serve_requests", "HTTP requests served.")
        self._obs_spans_dropped = registry.gauge(
            "repro_serve_trace_spans_dropped",
            "Spans truncated from over-long traces.")

    # -- plumbing used by handlers ----------------------------------

    def delete_tenant(self, name: str) -> None:
        """Remove a tenant and its per-tenant exposition child."""
        self.tenants.delete(name)
        self._obs_tenant_events.remove(tenant=name)

    def require_store(self) -> ResultStore:
        if self.store is None:
            raise ServeError(
                "no snapshot store configured (start the server "
                "with --store)")
        return self.store

    async def process_event(self, tenant: Tenant, kind: str,
                            uid, now: float) -> dict:
        """The hot path: one event through the batcher's queue."""
        started = time.monotonic()
        payload = await self.batcher.submit(
            lambda: tenant.process(kind, uid, now))
        elapsed = time.monotonic() - started
        self._busy_seconds += elapsed
        self.decision_latency.observe(elapsed)
        return payload

    def metrics(self) -> dict:
        """Service-wide SLO metrics plus per-tenant summaries.

        Percentiles are interpolated from latency histograms and
        tenant summaries read running tallies: no part of a scrape
        walks a tenant's event history.
        """
        tenants = self.tenants.tenants()
        events = sum(tenant.sequence for tenant in tenants)
        histogram = self.decision_latency
        return {
            "uptime_seconds": time.monotonic() - self.started_at,
            "requests_served": self.requests_served,
            "events_processed": events,
            "events_per_sec": throughput(events, self._busy_seconds),
            "decision_p50_ms": histogram.quantile(0.50) * 1e3,
            "decision_p99_ms": histogram.quantile(0.99) * 1e3,
            "batcher": self.batcher.stats.to_dict(),
            "traces": self.traces.stats(),
            "tenants": [tenant.status() for tenant in tenants],
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the ``repro.obs`` registry.

        Service-level quantities (batcher stats, tenant tallies,
        request count, dropped trace spans) are synced into registry
        gauges first, so one scrape covers the whole stack: serve,
        decision-latency histogram, admission cells, kernel caches
        and the result store.
        """
        for field, value in self.batcher.stats.to_dict().items():
            self._obs_batcher.labels(field=field).set(value)
        tenants = self.tenants.tenants()
        self._obs_tenants.set(len(tenants))
        for tenant in tenants:
            self._obs_tenant_events.labels(
                tenant=tenant.name).set(tenant.sequence)
        self._obs_requests.set(self.requests_served)
        self._obs_spans_dropped.set(self.traces.spans_dropped)
        return obs.get_registry().render_prometheus()

    # -- HTTP plumbing ----------------------------------------------

    @staticmethod
    async def _read_line(reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:
            # The stream reader's line limit (64 KiB) was exceeded.
            raise FramingError("request or header line too long") \
                from None

    async def _read_request(self, reader) -> "Request | None":
        line = await self._read_line(reader)
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            raise FramingError("malformed request line") from None
        headers = {}
        while True:
            raw = await self._read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length") or "0"
        if not declared.isdecimal():
            raise FramingError(f"bad Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise FramingError(
                f"request body too large ({length} bytes)", 413)
        body = None
        if length:
            raw_body = await reader.readexactly(length)
            try:
                body = json.loads(raw_body)
            except (ValueError, RecursionError) as error:
                raise FramingError(
                    f"request body is not valid JSON: {error}") from None
        parsed = urllib.parse.urlsplit(target)
        query = {key: values[-1] for key, values in
                 urllib.parse.parse_qs(parsed.query).items()}
        return Request(method, parsed.path, query, headers, body)

    async def _dispatch(self, request: Request) -> "tuple[int, dict]":
        candidate = request.headers.get("x-trace-id")
        if candidate is None and isinstance(request.body, dict):
            candidate = request.body.get("trace_id")
        request.trace_id = obs.coerce_trace_id(candidate)
        try:
            handler, request.path_arg = resolve(
                request.method, request.path)
            return await handler(self, request)
        except NotFoundError as error:
            return 404, {"error": str(error)}
        except OverloadError as error:
            return 503, {"error": str(error)}
        except ServeError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001
            with self.traces.start(
                    "serve.internal-error", request.trace_id,
                    error=type(error).__name__, message=str(error)):
                pass
            return 500, {"error": f"internal error: {error!r}"}

    @staticmethod
    def _write_response(writer, status: int, payload, trace_id: str,
                        *, keep_alive: bool = True) -> None:
        if isinstance(payload, str):
            # Pre-rendered text body (Prometheus exposition).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(
                payload, separators=(",", ":")).encode("utf-8")
            content_type = "application/json"
        headers = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"X-Trace-Id: {trace_id}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if status == 503:
            headers.append(f"Retry-After: {RETRY_AFTER_SECONDS}")
        writer.write(
            "\r\n".join(headers).encode("ascii") + b"\r\n\r\n" + body)

    @staticmethod
    async def _linger(reader, writer) -> None:
        """Half-close, then discard the client's remaining input until
        it closes or :data:`LINGER_SECONDS` pass.  Closing a socket
        with unread input resets the connection, which can destroy the
        error reply before the client has read it."""
        writer.write_eof()

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            await asyncio.wait_for(discard(), LINGER_SECONDS)
        except (asyncio.TimeoutError, ConnectionError):
            pass

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except FramingError as error:
                    self._write_response(
                        writer, error.status, {"error": str(error)},
                        obs.new_trace_id(), keep_alive=False)
                    await writer.drain()
                    await self._linger(reader, writer)
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                status, payload = await self._dispatch(request)
                self.requests_served += 1
                self._write_response(writer, status, payload,
                                     request.trace_id)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- lifecycle ---------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> "tuple[str, int]":
        """Bind and start serving; returns the bound (host, port)."""
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self, *, snapshot: bool = False) -> "dict | None":
        """Graceful shutdown: stop accepting, drain the batcher,
        optionally persist a final snapshot."""
        outcome = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.close()
        if snapshot and self.store is not None and len(self.tenants):
            from repro.serve.snapshot import save_snapshot

            outcome = save_snapshot(self.tenants, self.store)
        return outcome


async def serve_forever(service: AdmissionService, host: str,
                        port: int, *, snapshot_on_exit: bool = False,
                        ready=None) -> None:
    """Run the service until SIGINT/SIGTERM, then shut down
    gracefully (``ready``, if given, is called with the bound
    ``(host, port)`` once listening)."""
    bound = await service.start(host, port)
    if ready is not None:
        ready(bound)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    try:
        await stop.wait()
    finally:
        outcome = await service.stop(snapshot=snapshot_on_exit)
        if outcome is not None:
            print(f"final snapshot: {outcome['key']} "
                  f"({outcome['tenants']} tenants, "
                  f"{outcome['events']} events)")


def run_app(*, host: str = "127.0.0.1", port: int = 8642,
            store: "ResultStore | None" = None,
            queue_limit: int = 1024, max_batch: int = 64,
            queue_timeout: float = 2.0,
            snapshot_on_exit: bool = False, ready=None) -> None:
    """Blocking entry point of ``repro serve run``."""
    service = AdmissionService(
        store=store, queue_limit=queue_limit, max_batch=max_batch,
        queue_timeout=queue_timeout)
    asyncio.run(serve_forever(
        service, host, port, snapshot_on_exit=snapshot_on_exit,
        ready=ready))
