"""Long-running admission-control service over the online engines.

Where :mod:`repro.online` answers "what would this stream's admission
history be?" in batch, :mod:`repro.serve` keeps the same engines
*live*: an asyncio HTTP+JSON service hosting one engine per tenant,
with request batching on the hot admit path, decision-latency SLO
metrics, bounded-queue load shedding, per-request tracing (spans of
:mod:`repro.obs` in a per-service store) and snapshot/restore through
:mod:`repro.store`.

Modules
-------
:mod:`repro.serve.tenants`
    Tenant registry: one scenario spec + engine + event journal per
    tenant; JSON (de)serialisation of scenario specs.
:mod:`repro.serve.batcher`
    The bounded admit-path queue and its single-consumer batch
    drainer (coalescing + overload shedding).
:mod:`repro.serve.snapshot`
    Event-sourced snapshot/restore of all tenants via the
    content-addressed result store.
:mod:`repro.serve.handlers` / :mod:`repro.serve.app`
    The endpoint table and the stdlib-asyncio HTTP/1.1 front end.
:mod:`repro.serve.bench`
    The ``repro serve bench`` load generator and its
    ``BENCH_serve.json`` report.

CLI front ends: ``repro serve run`` and ``repro serve bench``.
"""

from repro.serve.app import AdmissionService, run_app
from repro.serve.batcher import EventBatcher, OverloadError
from repro.serve.bench import run_bench
from repro.serve.snapshot import (
    load_snapshot,
    restore_snapshot,
    save_snapshot,
)
from repro.serve.tenants import (
    NotFoundError,
    ServeError,
    Tenant,
    TenantManager,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "AdmissionService",
    "EventBatcher",
    "NotFoundError",
    "OverloadError",
    "ServeError",
    "Tenant",
    "TenantManager",
    "load_snapshot",
    "restore_snapshot",
    "run_app",
    "run_bench",
    "save_snapshot",
    "scenario_from_dict",
    "scenario_to_dict",
]
