"""Tenant layer of the admission service: one engine per tenant.

A *tenant* is one resource cluster served by the long-running
admission service: one universe stream, one
:class:`~repro.online.sharded.ShardedAdmissionEngine` (a single cell
unless the spec asks for ``shards > 1``), and one append-only event
*journal*.

The tenant's whole configuration is an
:class:`~repro.online.engine.OnlineScenarioSpec` -- exactly the value
object the CLI batch replays and the campaign runner already use -- so
a served tenant and an offline ``repro online`` run of the same spec
host literally the same engine over literally the same universe.
:func:`scenario_to_dict` / :func:`scenario_from_dict` give the spec a
faithful JSON form (round-trip identity, property-tested) for the HTTP
create-tenant payload and the snapshot format.

Determinism contract: :meth:`Tenant.process` drives the engine's
public :meth:`~repro.online.sharded.ShardedAdmissionEngine.process`
single-event API, appending each processed event to the journal.  The
engines are pure functions of (universe, event order), so replaying a
journal through a fresh tenant reproduces every decision, record and
counter bit-for-bit -- the foundation of snapshot/restore
(:mod:`repro.serve.snapshot`) and of the HTTP end-to-end equivalence
tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields

from repro import obs
from repro.core.exceptions import ModelError
from repro.online.engine import OnlineScenarioSpec
from repro.online.metrics import EventRecord
from repro.online.sharded import ShardedAdmissionEngine
from repro.online.streams import (
    OnlineStream,
    StreamConfig,
    generate_stream,
)
from repro.workload.edge import EdgeWorkloadConfig
from repro.workload.random_jobs import RandomInstanceConfig

#: Event kinds a tenant accepts over HTTP (the engines' vocabulary).
TENANT_EVENT_KINDS = ("arrive", "depart")

#: Workload-config type tags of the stream pool serialisation.
_WORKLOAD_TYPES = {
    "random": RandomInstanceConfig,
    "edge": EdgeWorkloadConfig,
}


class ServeError(ValueError):
    """A client-side service error (maps to HTTP 4xx)."""


class NotFoundError(ServeError):
    """Unknown route or resource (maps to HTTP 404)."""


def _listify(value):
    """Tuples -> lists, recursively (canonical JSON form)."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    if isinstance(value, list):
        return [_listify(item) for item in value]
    return value


def _tuplify(value):
    """Lists -> tuples, recursively (dataclass field form)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    return value


def _workload_to_dict(workload) -> "dict | None":
    if workload is None:
        return None
    for tag, cls in _WORKLOAD_TYPES.items():
        if isinstance(workload, cls):
            payload = {key: _listify(value)
                       for key, value in asdict(workload).items()}
            payload["type"] = tag
            return payload
    raise ServeError(
        f"unsupported workload config type "
        f"{type(workload).__name__!r}")


def _workload_from_dict(payload: "dict | None"):
    if payload is None:
        return None
    data = dict(payload)
    tag = data.pop("type", None)
    cls = _WORKLOAD_TYPES.get(tag)
    if cls is None:
        raise ServeError(
            f"workload type must be one of "
            f"{sorted(_WORKLOAD_TYPES)}, got {tag!r}")
    known = {field.name for field in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ServeError(
            f"unknown workload field(s) {unknown} for type {tag!r}")
    return cls(**{key: _tuplify(value) for key, value in data.items()})


def scenario_to_dict(spec: OnlineScenarioSpec) -> dict:
    """JSON-ready form of one scenario spec (exact round trip)."""
    stream = asdict(spec.stream)
    stream["workload"] = _workload_to_dict(spec.stream.workload)
    return {
        "stream": stream,
        "seed": int(spec.seed),
        "policy": str(spec.policy),
        "mode": str(spec.mode),
        "retry_limit": int(spec.retry_limit),
        "validate_every": int(spec.validate_every),
        "shards": int(spec.shards),
        "kernel": str(spec.kernel),
    }


def scenario_from_dict(payload: dict) -> OnlineScenarioSpec:
    """Inverse of :func:`scenario_to_dict` (strict: unknown stream or
    spec fields are rejected rather than silently dropped)."""
    if not isinstance(payload, dict):
        raise ServeError(
            f"scenario must be an object, got {type(payload).__name__}")
    data = dict(payload)
    stream_data = data.pop("stream", None)
    if not isinstance(stream_data, dict):
        raise ServeError("scenario needs a 'stream' object")
    stream_data = dict(stream_data)
    workload = _workload_from_dict(stream_data.pop("workload", None))
    known = {field.name for field in fields(StreamConfig)}
    unknown = sorted(set(stream_data) - known)
    if unknown:
        raise ServeError(f"unknown stream field(s) {unknown}")
    known_spec = {field.name for field in fields(OnlineScenarioSpec)}
    unknown = sorted(set(data) - (known_spec - {"stream"}))
    if unknown:
        raise ServeError(f"unknown scenario field(s) {unknown}")
    # Integer knobs take a JSON integer and nothing else: a float or a
    # bool would slip through the engine's range checks.
    for knob in ("seed", "shards", "retry_limit", "validate_every"):
        value = data.get(knob, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ServeError(f"{knob} must be an integer, got {value!r}")
    try:
        stream = StreamConfig(workload=workload, **stream_data)
        return OnlineScenarioSpec(stream=stream, **data)
    except (ModelError, TypeError, ValueError) as error:
        raise ServeError(str(error)) from None


def build_engine(stream: OnlineStream,
                 spec: OnlineScenarioSpec) -> ShardedAdmissionEngine:
    """The engine a spec asks for, over a materialised stream."""
    return ShardedAdmissionEngine(
        stream, shards=spec.shards, policy=spec.policy, mode=spec.mode,
        retry_limit=spec.retry_limit,
        validate_every=spec.validate_every, kernel=spec.kernel)


class Tenant:
    """One hosted engine plus its journal and request bookkeeping."""

    def __init__(self, name: str, spec: OnlineScenarioSpec) -> None:
        self.name = name
        self.spec = spec
        # Bad scenario knobs surface here, at construction, as client
        # errors: generate_stream rejects the seed, the engine the
        # mode, kernel, shard count and limits.
        try:
            self.stream = generate_stream(spec.stream, seed=spec.seed)
        except (ModelError, TypeError, ValueError) as error:
            raise ServeError(str(error)) from None
        if not self.stream.events:
            raise ServeError(
                f"tenant {name!r}: the scenario materialises an "
                f"empty stream (nothing to serve)")
        try:
            self.engine = build_engine(self.stream, spec)
        except (ModelError, TypeError, ValueError) as error:
            raise ServeError(str(error)) from None
        #: Processed events, in order: ``[kind, uid, time]`` triples
        #: (JSON-ready).  Replaying the journal through a fresh
        #: tenant reproduces the engine state bit-for-bit.
        self.journal: "list[list]" = []
        self._last_time = float("-inf")
        #: Decision latency of every event record, for :meth:`status`
        #: (unregistered: one tenant's, not the service's).
        self.latency = obs.Histogram(
            "repro_serve_tenant_decision_seconds",
            "Decision latency of one tenant's event records, seconds.")

    @property
    def sequence(self) -> int:
        """Number of events processed so far."""
        return len(self.journal)

    @property
    def num_jobs(self) -> int:
        return self.stream.num_events

    def process(self, kind: str, uid: int, now: float) -> dict:
        """Feed one event through the engine; returns the response
        payload of the event's own record (retry re-admissions a
        departure triggers are folded into ``retry_accepts``)."""
        if kind not in TENANT_EVENT_KINDS:
            raise ServeError(
                f"kind must be one of {TENANT_EVENT_KINDS}, "
                f"got {kind!r}")
        if not isinstance(uid, int) or isinstance(uid, bool) or \
                not 0 <= uid < self.num_jobs:
            raise ServeError(
                f"uid must be an integer in [0, {self.num_jobs}), "
                f"got {uid!r}")
        try:
            now = float(now)
        except OverflowError:
            raise ServeError(
                "time must be finite, got an integer beyond the float "
                "range") from None
        if not math.isfinite(now):
            raise ServeError(f"time must be finite, got {now!r}")
        if now < self._last_time:
            raise ServeError(
                f"events must be fed chronologically: time {now:g} "
                f"is before the last processed event at "
                f"{self._last_time:g}")
        try:
            records = self.engine.process(now, kind, uid)
        except ValueError as error:
            # A repeated or unknown uid: the engine refuses it before
            # changing any state.
            raise ServeError(str(error)) from None
        self._last_time = now
        self.journal.append([kind, int(uid), now])
        for record in records:
            self.latency.observe(record.latency)
        return self._response(records)

    def _response(self, records: "list[EventRecord]") -> dict:
        head = records[0]
        return {
            "tenant": self.name,
            "seq": self.sequence,
            "index": head.index,
            "kind": head.kind,
            "uid": head.uid,
            "decision": head.decision,
            "evicted": [int(u) for u in head.evicted],
            "admitted": head.admitted,
            "retry_accepts": sum(1 for r in records[1:]
                                 if r.kind == "retry"),
        }

    def replay(self, journal: "list[list]") -> None:
        """Feed a recorded journal (snapshot restore path)."""
        for kind, uid, now in journal:
            self.process(str(kind), int(uid), float(now))

    def final_admitted(self) -> "list[int]":
        """The admitted set, sorted (as in a run result)."""
        return sorted(self.engine.admitted)

    def records(self, start: int = 0) -> "list[dict]":
        """Deterministic event-record dicts from index ``start``
        (the ``latency`` wall-clock field is dropped, exactly like
        :meth:`~repro.online.metrics.OnlineRunResult.
        deterministic_dict`)."""
        out = []
        for record in self.engine.metrics.records[start:]:
            payload = record.to_dict()
            payload.pop("latency")
            out.append(payload)
        return out

    def status(self) -> dict:
        """Live tenant summary for ``/metrics`` and tenant queries:
        the engine's running tallies plus this tenant's latency
        histogram, in time independent of the events processed."""
        metrics = self.engine.metrics
        return {
            "tenant": self.name,
            "events": self.sequence,
            "jobs": self.num_jobs,
            "shards": int(self.spec.shards),
            "admitted": self.final_admitted(),
            "acceptance_ratio": metrics.acceptance_ratio(),
            "evictions": metrics.evictions,
            "retry_accepts": metrics.retry_accepts,
            "retry_drops": metrics.retry_drops,
            "validation_failures": len(self.engine.validation_failures),
            "decision_p50_ms": self.latency.quantile(0.50) * 1e3,
            "decision_p99_ms": self.latency.quantile(0.99) * 1e3,
        }


class TenantManager:
    """The service's tenant registry (name -> :class:`Tenant`)."""

    def __init__(self, *, max_tenants: int = 64) -> None:
        if max_tenants < 1:
            raise ValueError(
                f"max_tenants must be >= 1, got {max_tenants}")
        self._max_tenants = max_tenants
        self._tenants: "dict[str, Tenant]" = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def names(self) -> "list[str]":
        return sorted(self._tenants)

    def get(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise NotFoundError(f"no tenant named {name!r}")
        return tenant

    def create(self, name: str, spec: OnlineScenarioSpec) -> Tenant:
        if not name or not isinstance(name, str):
            raise ServeError("tenant name must be a non-empty string")
        if name in self._tenants:
            raise ServeError(f"tenant {name!r} already exists")
        if len(self._tenants) >= self._max_tenants:
            raise ServeError(
                f"tenant limit reached ({self._max_tenants})")
        tenant = Tenant(name, spec)
        self._tenants[name] = tenant
        return tenant

    def adopt(self, tenant: Tenant) -> Tenant:
        """Register a pre-built tenant (snapshot restore path),
        replacing any tenant holding the name."""
        self._tenants[tenant.name] = tenant
        return tenant

    def delete(self, name: str) -> None:
        if name not in self._tenants:
            raise NotFoundError(f"no tenant named {name!r}")
        del self._tenants[name]

    def tenants(self) -> "list[Tenant]":
        return [self._tenants[name] for name in self.names()]
