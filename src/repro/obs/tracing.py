"""Cross-layer tracing: contextvar span trees + JSONL export.

A ``Span`` is one timed step (a scenario, a stream generation, a
campaign chunk, an HTTP request).  Spans nest through a contextvar,
so any layer can open a child span without threading a handle
through every call site.  Timestamps come from ``time.monotonic``
(durations are exact; absolute wall-clock is recorded once per span
for display only).

Tracing is *off* unless an exporter is configured: ``span(...)``
then returns a shared no-op span, and the decorators reduce to one
``if`` per call, which keeps the disabled overhead inside the <5%
budget enforced by ``benchmarks/bench_obs.py``.

``trace_step(name)`` wraps a function in a span.  ``profile_step``
does the same but additionally attaches cProfile stats (top
cumulative entries) to the span when ``REPRO_PROFILE=1`` — the
profiling knob stays out of the way otherwise.

A ``SpanStore`` keeps a live process's spans queryable by trace id
(exporter or not); ids from outside pass ``coerce_trace_id``.
"""

from __future__ import annotations

import contextvars
import cProfile
import contextlib
import functools
import io
import itertools
import json
import os
import pstats
import re
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "JsonlSpanExporter",
    "Span",
    "SpanStore",
    "coerce_trace_id",
    "configure_exporter",
    "current_span",
    "maybe_profile",
    "new_trace_id",
    "profile_step",
    "reset_tracing",
    "span",
    "trace_step",
    "tracing_enabled",
]

_PROFILE_ENV = "REPRO_PROFILE"
_PROFILE_TOP = 12

#: Trace ids from outside the process must match this (defence
#: against log injection and unbounded keys); others are replaced.
TRACE_ID_PATTERN = re.compile(r"^[A-Za-z0-9._:-]{1,64}$")

#: Spans a :class:`SpanStore` keeps per trace.
SPANS_PER_TRACE = 64


class Span:
    """One timed step; export happens when the span closes."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "wall_start",
        "attrs",
        "_token",
        "_store",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        attrs: Optional[Dict[str, Any]] = None,
        store: Optional["SpanStore"] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = time.monotonic()
        self.end: Optional[float] = None
        self.wall_start = time.time()
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self._token: Optional[contextvars.Token] = None
        self._store = store

    def set_attribute(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def update_attributes(self, attrs: Dict[str, Any]) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "wall_start": self.wall_start,
            "attrs": self.attrs,
        }

    # Context-manager protocol -- entering pushes this span as the
    # ambient parent, exiting pops it and ships it to the exporter.
    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.monotonic()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        exporter = _exporter
        if exporter is not None:
            exporter.export(self)
        if self._store is not None:
            self._store.add(self)


class _NullSpan:
    """Shared do-nothing span used while tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def update_attributes(self, attrs: Dict[str, Any]) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class JsonlSpanExporter:
    """Append finished spans to a JSONL file, one object per line.

    Uses a single O_APPEND write per span (the same atomicity trick
    as the result store's journal), so concurrent writers from
    threads interleave whole lines rather than bytes.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self.exported = 0
        # Truncate on open: one trace file per run.
        with open(self.path, "w", encoding="utf-8"):
            pass

    def export(self, span: Span) -> None:
        line = json.dumps(
            span.to_dict(), sort_keys=True, default=str
        )
        payload = (line + "\n").encode("utf-8")
        with self._lock:
            fd = os.open(
                self.path,
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            self.exported += 1

    def close(self) -> None:
        pass


_current_span: contextvars.ContextVar[Optional[Span]] = (
    contextvars.ContextVar("repro_obs_span", default=None)
)
_exporter: Optional[JsonlSpanExporter] = None
_id_lock = threading.Lock()
_id_counter = itertools.count(1)
# Random per-process prefix: span/trace ids from different processes
# (or a restored snapshot) can never collide.
_id_prefix = os.urandom(4).hex()


def _next_id(kind: str) -> str:
    with _id_lock:
        serial = next(_id_counter)
    return f"{kind}-{_id_prefix}-{serial:06d}"


def new_trace_id() -> str:
    """A fresh process-unique trace id (``trace-<rand>-000001``)."""
    return _next_id("trace")


def coerce_trace_id(candidate: Any) -> str:
    """``candidate`` if it is a valid trace id, else a fresh one."""
    if isinstance(candidate, str) and TRACE_ID_PATTERN.match(candidate):
        return candidate
    return new_trace_id()


class SpanStore:
    """Bounded in-memory span store keyed by trace id.

    Keeps the newest ``capacity`` traces and at most
    :data:`SPANS_PER_TRACE` spans of each, counting what it drops:
    ``dropped_traces`` and ``spans_dropped`` in total,
    :meth:`truncated` per live trace.
    """

    def __init__(self, *, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._traces: "OrderedDict[str, List[Span]]" = OrderedDict()
        self._truncated: Dict[str, int] = {}
        self.dropped_traces = 0
        self.spans_dropped = 0

    def start(self, name: str, trace_id: str, /, **attrs: Any) -> Span:
        """A root span under ``trace_id``, stored (and exported, if
        an exporter is set) when it closes."""
        return Span(name, trace_id, _next_id("span"), None, attrs,
                    store=self)

    def add(self, span: Span) -> None:
        trace_id = span.trace_id
        spans = self._traces.get(trace_id)
        if spans is None:
            while len(self._traces) >= self._capacity:
                evicted, _ = self._traces.popitem(last=False)
                self._truncated.pop(evicted, None)
                self.dropped_traces += 1
            spans = self._traces[trace_id] = []
        if len(spans) < SPANS_PER_TRACE:
            spans.append(span)
        else:
            self._truncated[trace_id] = (
                self._truncated.get(trace_id, 0) + 1)
            self.spans_dropped += 1

    def get(self, trace_id: str) -> Optional[List[Span]]:
        """The spans of one trace, or ``None`` if unknown/evicted."""
        spans = self._traces.get(trace_id)
        return list(spans) if spans is not None else None

    def truncated(self, trace_id: str) -> int:
        """Spans dropped from one live trace."""
        return self._truncated.get(trace_id, 0)

    def stats(self) -> Dict[str, int]:
        return {
            "traces": len(self._traces),
            "capacity": self._capacity,
            "dropped_traces": self.dropped_traces,
            "spans_dropped": self.spans_dropped,
        }


def configure_exporter(
    exporter: Optional[JsonlSpanExporter],
) -> None:
    """Install (or clear, with ``None``) the process exporter."""
    global _exporter
    _exporter = exporter


def reset_tracing() -> None:
    """Clear exporter and ambient span (test isolation hook)."""
    global _exporter
    _exporter = None
    _current_span.set(None)


def tracing_enabled() -> bool:
    return _exporter is not None


def current_span() -> Optional[Span]:
    return _current_span.get()


def span(name: str, /, **attrs: Any):
    """Open a span as a context manager; no-op when disabled."""
    if _exporter is None:
        return _NULL_SPAN
    parent = _current_span.get()
    if parent is not None:
        trace_id = parent.trace_id
        parent_id = parent.span_id
    else:
        trace_id = new_trace_id()
        parent_id = None
    return Span(name, trace_id, _next_id("span"), parent_id, attrs)


def trace_step(name: str):
    """Decorator: run the function inside a span of this name."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if _exporter is None:
                return fn(*args, **kwargs)
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _profile_text(profile: cProfile.Profile) -> List[str]:
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.sort_stats("cumulative").print_stats(_PROFILE_TOP)
    lines = [
        line.rstrip()
        for line in buffer.getvalue().splitlines()
        if line.strip()
    ]
    return lines[:_PROFILE_TOP + 6]


def profile_step(name: str):
    """Like ``trace_step``; attaches cProfile output when
    ``REPRO_PROFILE=1`` is set in the environment."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if _exporter is None:
                return fn(*args, **kwargs)
            with span(name) as step, maybe_profile(step):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextlib.contextmanager
def maybe_profile(step: Span):
    """Attach a cProfile table to ``step`` when ``REPRO_PROFILE=1``.

    The in-flow companion of :func:`profile_step` for code already
    inside a ``span()`` block (the engine-run stage uses it); a
    no-op otherwise, so it can wrap hot paths unconditionally.
    """
    if _exporter is None or os.environ.get(_PROFILE_ENV) != "1":
        yield
        return
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield
    finally:
        profile.disable()
        step.set_attribute("profile", _profile_text(profile))


def iter_trace_file(path: str) -> Iterator[Dict[str, Any]]:
    """Yield span dicts from a JSONL trace file, skipping blanks."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
