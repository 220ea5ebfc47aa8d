"""Process-global metrics registry: counters, gauges, histograms.

Zero-dependency (stdlib only) so every layer of the stack — the
paired kernel, the online cells, the result store, the admission
service — can record telemetry without import cycles or optional
extras.  Three instrument kinds:

``Counter``
    Monotonic float, ``inc(n)`` only.
``Gauge``
    Point-in-time float, ``set(v)`` / ``inc(n)`` / ``dec(n)``.
``Histogram``
    Fixed log-spaced buckets (1e-6 .. 10 s, 8 buckets per decade)
    with exact within-bucket geometric interpolation for quantiles.
    This supersedes the raw-list ``latency_percentiles`` scan on hot
    paths: observation is O(log buckets), quantiles are O(buckets),
    and memory is constant regardless of event count.

Each instrument may declare ``labelnames``; ``labels(**kv)`` returns
a child keyed by the label values.  The registry renders both a
plain-dict :meth:`Registry.snapshot` and Prometheus text exposition
via :meth:`Registry.render_prometheus`.

``null_instrumentation()`` flips a module flag that turns every
``inc``/``set``/``observe`` into an early return.  The overhead
benchmark uses it to approximate physically uninstrumented code, so
the <5% gate measures the *disabled* cost of the telemetry spine.
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "default_buckets",
    "get_registry",
    "null_instrumentation",
]

# Module-wide instrumentation switch.  When False, every mutation on
# every instrument early-returns; reads still work.
_enabled = True


@contextmanager
def null_instrumentation() -> Iterator[None]:
    """Disable all metric mutations inside the ``with`` block."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def _label_key(
    labelnames: Sequence[str], labels: Dict[str, str]
) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Instrument:
    """Shared parent/child plumbing for all instrument kinds."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}

    def labels(self, **labels: str) -> "_Instrument":
        if not self.labelnames:
            raise ValueError(f"{self.name} declares no labels")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
        return child

    def _new_child(self) -> "_Instrument":
        return type(self)(self.name, self.help_text)

    def remove(self, **labels: str) -> None:
        """Drop the child keyed by these label values, if any."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._children.pop(key, None)

    def _child_items(
        self,
    ) -> List[Tuple[Tuple[str, ...], "_Instrument"]]:
        with self._lock:
            return sorted(self._children.items())


class Counter(_Instrument):
    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Instrument):
    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not _enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


def default_buckets() -> List[float]:
    """Log-spaced latency buckets: 1e-6 .. 10 s, 8 per decade."""
    decades = 7  # 1e-6 up to 1e1
    per_decade = 8
    bounds = [
        10.0 ** (-6 + i / per_decade)
        for i in range(decades * per_decade + 1)
    ]
    return bounds


class Histogram(_Instrument):
    """Fixed-bucket histogram with geometric quantile interpolation.

    ``quantile(q)`` locates the bucket holding the q-th observation
    and interpolates geometrically inside it (the buckets are
    log-spaced, so geometric interpolation is exact for log-uniform
    mass within a bucket and within one bucket width of the true
    order statistic for anything else).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = list(buckets) if buckets is not None else \
            default_buckets()
        if bounds != sorted(bounds):
            raise ValueError("bucket bounds must be sorted")
        self.bounds = bounds
        # counts[i] observations fall in (bounds[i-1], bounds[i]];
        # counts[0] is <= bounds[0], counts[-1] is the +Inf overflow.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def _new_child(self) -> "Histogram":
        return Histogram(self.name, self.help_text, buckets=self.bounds)

    def observe(self, value: float) -> None:
        if not _enabled:
            return
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Interpolated q-th quantile (q in [0, 1]) in seconds."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile fraction must be in [0, 1]")
        with self._lock:
            total = self._count
            if total == 0:
                return 0.0
            # Rank of the order statistic numpy's linear method
            # targets: q * (n - 1) in zero-based terms.
            rank = q * (total - 1)
            target = rank + 1.0  # one-based fractional rank
            cumulative = 0
            for index, count in enumerate(self._counts):
                if count == 0:
                    continue
                if cumulative + count >= target:
                    lo = (
                        self.bounds[index - 1]
                        if index > 0
                        else min(self._min, self.bounds[0])
                    )
                    if index < len(self.bounds):
                        hi = self.bounds[index]
                    else:
                        hi = self._max
                    lo = max(lo, self._min)
                    hi = min(hi, self._max)
                    if hi <= lo:
                        return lo
                    frac = (target - cumulative) / count
                    if lo > 0:
                        # Geometric interpolation across the
                        # log-spaced bucket.
                        return lo * (hi / lo) ** frac
                    return lo + (hi - lo) * frac
                cumulative += count
            return self._max


class Registry:
    """Thread-safe instrument registry with Prometheus exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    def _register(
        self, factory, name: str, help_text: str, **kwargs
    ) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, factory):
                    raise ValueError(
                        f"{name} already registered as "
                        f"{existing.kind}"
                    )
                return existing
            instrument = factory(name, help_text, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
    ) -> Counter:
        return self._register(
            Counter, name, help_text, labelnames=labelnames
        )

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        return self._register(
            Gauge, name, help_text, labelnames=labelnames
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._register(
            Histogram,
            name,
            help_text,
            labelnames=labelnames,
            buckets=buckets,
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def unregister(self, name: str) -> None:
        with self._lock:
            self._instruments.pop(name, None)

    def reset(self) -> None:
        """Drop every instrument (test isolation hook)."""
        with self._lock:
            self._instruments.clear()

    def _sorted_instruments(self) -> List[_Instrument]:
        with self._lock:
            return [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]

    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict view of every instrument and child."""
        out: Dict[str, dict] = {}
        for instrument in self._sorted_instruments():
            entry: Dict[str, object] = {
                "type": instrument.kind,
                "help": instrument.help_text,
            }
            if instrument.labelnames:
                entry["labelnames"] = list(instrument.labelnames)
                entry["children"] = {
                    "|".join(key): _scalar_or_hist(child)
                    for key, child in instrument._child_items()
                }
            else:
                entry["value"] = _scalar_or_hist(instrument)
            out[instrument.name] = entry
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for instrument in self._sorted_instruments():
            if instrument.help_text:
                lines.append(
                    f"# HELP {instrument.name} "
                    f"{_escape_help(instrument.help_text)}"
                )
            lines.append(
                f"# TYPE {instrument.name} {instrument.kind}"
            )
            if instrument.labelnames:
                for key, child in instrument._child_items():
                    labels = dict(zip(instrument.labelnames, key))
                    lines.extend(_render_one(child, labels))
            else:
                lines.extend(_render_one(instrument, {}))
        return "\n".join(lines) + "\n"


def _scalar_or_hist(instrument: _Instrument):
    if isinstance(instrument, Histogram):
        return {
            "count": instrument.count,
            "sum": instrument.sum,
            "p50": instrument.quantile(0.50),
            "p99": instrument.quantile(0.99),
        }
    return instrument._value  # type: ignore[attr-defined]


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_one(
    instrument: _Instrument, labels: Dict[str, str]
) -> List[str]:
    name = instrument.name
    if isinstance(instrument, Histogram):
        lines = []
        cumulative = 0
        with instrument._lock:
            counts = list(instrument._counts)
            total = instrument._count
            total_sum = instrument._sum
        for bound, count in zip(instrument.bounds, counts):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(bound)
            lines.append(
                f"{name}_bucket{_format_labels(bucket_labels)} "
                f"{cumulative}"
            )
        bucket_labels = dict(labels)
        bucket_labels["le"] = "+Inf"
        lines.append(
            f"{name}_bucket{_format_labels(bucket_labels)} {total}"
        )
        label_text = _format_labels(labels)
        lines.append(f"{name}_sum{label_text} {repr(total_sum)}")
        lines.append(f"{name}_count{label_text} {total}")
        return lines
    value = instrument._value  # type: ignore[attr-defined]
    return [
        f"{name}{_format_labels(labels)} {_format_value(value)}"
    ]


_registry = Registry()


def get_registry() -> Registry:
    """The process-global registry every layer records into."""
    return _registry
