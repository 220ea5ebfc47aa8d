"""Endpoint logic of the admission service (transport-free).

Each handler is an ``async`` function of ``(service, request)``
returning ``(status, payload)``; :mod:`repro.serve.app` owns the
HTTP/1.1 plumbing and maps :class:`~repro.serve.tenants.ServeError`
to 400/404 and :class:`~repro.serve.batcher.OverloadError` to 503.

Endpoints
---------
``GET  /healthz``                    liveness + uptime.
``GET  /metrics``                    service SLO metrics (decision
                                     latency p50/p99, events/sec,
                                     shed ratio, per-tenant summary);
                                     ``?format=prometheus`` or an
                                     ``Accept: text/plain`` header
                                     switches to Prometheus text
                                     exposition of the whole
                                     ``repro.obs`` registry.
``GET  /v1/tenants``                 tenant names.
``POST /v1/tenants``                 create (``{"name", "scenario"}``).
``GET  /v1/tenants/{name}``          tenant status.
``DELETE /v1/tenants/{name}``        remove a tenant.
``GET  /v1/tenants/{name}/records``  deterministic event records
                                     (``?start=N`` to page).
``POST /v1/admit`` / ``/v1/depart``  the hot path: one event through
                                     the batcher into the engine.
``POST /v1/snapshot``                persist all tenants to the store.
``POST /v1/restore``                 rebuild tenants from a snapshot
                                     (``{"key": ...}`` optional).
``GET  /v1/traces/{id}``             spans of one trace id and its
                                     ``dropped_spans`` count.
"""

from __future__ import annotations

import time

from repro.serve.snapshot import restore_snapshot, save_snapshot
from repro.serve.tenants import (
    NotFoundError,
    ServeError,
    scenario_from_dict,
)


def _require(body: dict, key: str):
    if not isinstance(body, dict) or key not in body:
        raise ServeError(f"request body needs a {key!r} field")
    return body[key]


async def handle_healthz(service, request) -> "tuple[int, dict]":
    return 200, {
        "status": "ok",
        "uptime_seconds": time.monotonic() - service.started_at,
        "tenants": len(service.tenants),
    }


async def handle_metrics(service, request) -> "tuple[int, dict]":
    wants_text = (
        request.query.get("format") == "prometheus"
        or "text/plain" in request.headers.get("accept", ""))
    if wants_text:
        return 200, service.metrics_prometheus()
    return 200, service.metrics()


async def handle_list_tenants(service, request) -> "tuple[int, dict]":
    return 200, {"tenants": service.tenants.names()}


async def handle_create_tenant(service, request) -> "tuple[int, dict]":
    body = request.body
    name = _require(body, "name")
    spec = scenario_from_dict(_require(body, "scenario"))
    with service.traces.start("serve.tenant.create", request.trace_id,
                              tenant=name) as step:
        tenant = service.tenants.create(name, spec)
        step.set_attribute("jobs", tenant.num_jobs)
    return 201, tenant.status()


async def handle_get_tenant(service, request) -> "tuple[int, dict]":
    return 200, service.tenants.get(request.path_arg).status()


async def handle_delete_tenant(service, request) -> "tuple[int, dict]":
    service.delete_tenant(request.path_arg)
    return 200, {"deleted": request.path_arg}


async def handle_tenant_records(service, request) -> "tuple[int, dict]":
    tenant = service.tenants.get(request.path_arg)
    raw = request.query.get("start", "0")
    try:
        start = int(raw)
    except ValueError:
        raise ServeError(f"start must be an integer, got {raw!r}")
    if start < 0:
        raise ServeError(f"start must be >= 0, got {start}")
    return 200, {
        "tenant": tenant.name,
        "start": start,
        "records": tenant.records(start),
        "final_admitted": tenant.final_admitted(),
    }


async def _handle_event(service, request, kind) -> "tuple[int, dict]":
    body = request.body
    name = _require(body, "tenant")
    if not isinstance(name, str):
        raise ServeError(
            f"tenant must be a string, got {type(name).__name__}")
    uid = _require(body, "uid")
    now = _require(body, "time")
    if not isinstance(now, (int, float)) or isinstance(now, bool):
        raise ServeError(f"time must be a number, got {now!r}")
    tenant = service.tenants.get(name)
    with service.traces.start("serve.event", request.trace_id,
                              tenant=name, kind=kind, uid=uid) as step:
        payload = await service.process_event(tenant, kind, uid, now)
        step.set_attribute("decision", payload["decision"])
    return 200, payload


async def handle_admit(service, request) -> "tuple[int, dict]":
    return await _handle_event(service, request, "arrive")


async def handle_depart(service, request) -> "tuple[int, dict]":
    return await _handle_event(service, request, "depart")


async def handle_snapshot(service, request) -> "tuple[int, dict]":
    store = service.require_store()
    with service.traces.start("serve.snapshot",
                              request.trace_id) as step:
        outcome = save_snapshot(service.tenants, store)
        step.set_attribute("key", outcome["key"])
    return 200, outcome


async def handle_restore(service, request) -> "tuple[int, dict]":
    store = service.require_store()
    body = request.body if isinstance(request.body, dict) else {}
    key = body.get("key")
    if key is not None and not isinstance(key, str):
        raise ServeError(f"key must be a string, got {key!r}")
    with service.traces.start("serve.restore", request.trace_id,
                              key=key) as step:
        outcome = restore_snapshot(service.tenants, store, key)
        step.update_attributes(
            {"key": outcome["key"], "tenants": outcome["tenants"]})
    return 200, outcome


async def handle_trace(service, request) -> "tuple[int, dict]":
    trace_id = request.path_arg
    spans = service.traces.get(trace_id)
    if spans is None:
        raise NotFoundError(
            f"no trace {trace_id!r} (unknown or evicted)")
    return 200, {
        "trace_id": trace_id,
        "spans": [span.to_dict() for span in spans],
        "dropped_spans": service.traces.truncated(trace_id),
    }


#: ``(method, route) -> handler``.  Routes with a trailing ``/*``
#: capture one path segment into ``request.path_arg``.
ROUTES = {
    ("GET", "/healthz"): handle_healthz,
    ("GET", "/metrics"): handle_metrics,
    ("GET", "/v1/tenants"): handle_list_tenants,
    ("POST", "/v1/tenants"): handle_create_tenant,
    ("GET", "/v1/tenants/*"): handle_get_tenant,
    ("DELETE", "/v1/tenants/*"): handle_delete_tenant,
    ("GET", "/v1/tenants/*/records"): handle_tenant_records,
    ("POST", "/v1/admit"): handle_admit,
    ("POST", "/v1/depart"): handle_depart,
    ("POST", "/v1/snapshot"): handle_snapshot,
    ("POST", "/v1/restore"): handle_restore,
    ("GET", "/v1/traces/*"): handle_trace,
}


def resolve(method: str, path: str):
    """``(handler, path_arg)`` for a request line, or raise 404."""
    handler = ROUTES.get((method, path))
    if handler is not None:
        return handler, None
    # /v1/tenants/{name}, /v1/tenants/{name}/records, /v1/traces/{id}:
    # the third segment is the argument, matched as ``*``.
    parts = path.split("/")
    if len(parts) in (4, 5) and parts[1] == "v1" and parts[3]:
        pattern = "/".join(parts[:3] + ["*"] + parts[4:])
        handler = ROUTES.get((method, pattern))
        if handler is not None:
            return handler, parts[3]
    raise NotFoundError(f"no route for {method} {path}")
