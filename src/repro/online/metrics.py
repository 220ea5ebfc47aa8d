"""Time-series metrics of an online admission run.

Every processed stream event appends one :class:`EventRecord`;
:class:`OnlineMetrics` accumulates the cumulative counters the records
snapshot (acceptance ratio, rejected heaviness, churn, ...) and
derives the run summary (latency percentiles, throughput, utilisation
statistics).

Determinism: every field except the wall-clock ones (``latency`` per
record; ``latency_p50_ms``/``latency_p99_ms``/``events_per_sec`` in
the summary) is a pure function of the stream and the engine
configuration, which is what makes online runs shardable across
worker processes and cacheable in the result store
(:meth:`OnlineRunResult.deterministic_dict` drops exactly the
wall-clock fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.system import JobSet
from repro.workload.heaviness import heaviness_matrix

ONLINE_RESULT_FORMAT = "repro-online-result"
#: v2: payloads grew ``shards`` / ``kernel`` fields and sharded runs
#: attach a ``sharding`` sub-dict to the summary.
ONLINE_RESULT_VERSION = 2

#: Event kinds a record can carry.
EVENT_KINDS = ("arrive", "depart", "retry")

#: Decisions per kind: arrivals are accepted/rejected, departures free
#: capacity / expire a queued job / are no-ops for dropped jobs, and
#: retry events re-admit a queued job.
DECISIONS = ("accept", "reject", "free", "expire", "noop")


def latency_percentiles(latencies, *, unit_scale: float = 1e3,
                        prefix: str = "latency_") -> dict:
    """p50/p99 of a latency sample, as ``{prefix}p50_ms``-style keys.

    The exact percentiles of offline run summaries: ``latencies``
    is any sequence of per-event wall-clock seconds; ``unit_scale``
    converts to the reported unit (default milliseconds).  An empty
    sample reports zeros, so callers can publish metrics before the
    first event without special-casing.
    """
    values = np.asarray(latencies, dtype=float)
    if values.size == 0:
        values = np.zeros(1)
    return {
        f"{prefix}p50_ms": float(np.percentile(values, 50) * unit_scale),
        f"{prefix}p99_ms": float(np.percentile(values, 99) * unit_scale),
    }


def throughput(events: int, busy_seconds: float) -> float:
    """Events per second of wall-clock busy time (0 when idle)."""
    return events / busy_seconds if busy_seconds > 0 else 0.0


def admitted_utilisation(universe: JobSet, admitted: np.ndarray, *,
                         heaviness: np.ndarray | None = None) -> float:
    """System heaviness ``H`` of the admitted subset.

    ``max_{y,j} chi_{y,j}`` over the admitted jobs only -- the live
    counterpart of :func:`repro.workload.heaviness.system_heaviness`.
    Returns 0 for an empty subset.  Callers on a hot path can supply
    the precomputed ``heaviness_matrix(universe)``.
    """
    if not admitted.any():
        return 0.0
    if heaviness is None:
        heaviness = heaviness_matrix(universe)
    h = heaviness[admitted]
    mapping = universe.R[admitted]
    peak = 0.0
    for stage in range(universe.num_stages):
        resources = universe.system.stages[stage].num_resources
        chi = np.bincount(mapping[:, stage], weights=h[:, stage],
                          minlength=resources)
        peak = max(peak, float(chi.max()))
    return peak


@dataclass
class EventRecord:
    """Snapshot of the engine state right after one processed event."""

    index: int
    time: float
    kind: str
    uid: int
    decision: str
    #: Previously admitted jobs evicted by this decision (arrivals only).
    evicted: tuple[int, ...] = ()
    #: Number of admitted jobs after the event.
    admitted: int = 0
    #: Cumulative share of arrivals ever admitted, in [0, 1].
    acceptance_ratio: float = 0.0
    #: Cumulative heaviness share (percent) of never-admitted arrivals.
    rejected_heaviness: float = 0.0
    #: System heaviness of the admitted subset after the event.
    utilisation: float = 0.0
    #: Admitted jobs whose (renumbered) priority rank changed.
    rank_changes: int = 0
    #: Wall-clock decision latency of this event, in seconds.
    latency: float = 0.0

    def to_dict(self) -> dict:
        return {
            "index": int(self.index),
            "time": float(self.time),
            "kind": str(self.kind),
            "uid": int(self.uid),
            "decision": str(self.decision),
            "evicted": [int(u) for u in self.evicted],
            "admitted": int(self.admitted),
            "acceptance_ratio": float(self.acceptance_ratio),
            "rejected_heaviness": float(self.rejected_heaviness),
            "utilisation": float(self.utilisation),
            "rank_changes": int(self.rank_changes),
            "latency": float(self.latency),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EventRecord":
        return cls(index=int(data["index"]), time=float(data["time"]),
                   kind=str(data["kind"]), uid=int(data["uid"]),
                   decision=str(data["decision"]),
                   evicted=tuple(int(u) for u in data["evicted"]),
                   admitted=int(data["admitted"]),
                   acceptance_ratio=float(data["acceptance_ratio"]),
                   rejected_heaviness=float(data["rejected_heaviness"]),
                   utilisation=float(data["utilisation"]),
                   rank_changes=int(data["rank_changes"]),
                   latency=float(data["latency"]))


class OnlineMetrics:
    """Accumulator for the per-event time series and run totals."""

    def __init__(self, universe: "JobSet | None") -> None:
        self._universe = universe
        self._heaviness = (
            heaviness_matrix(universe).sum(axis=1)
            if universe is not None
            else np.zeros(0))
        self.records: list[EventRecord] = []
        self.arrivals = 0
        self.ever_admitted: set[int] = set()
        self.evictions = 0
        self.rank_changes = 0
        self.retry_accepts = 0
        self.retry_drops = 0
        self.expired = 0

    # -- cumulative quantities ---------------------------------------

    def acceptance_ratio(self) -> float:
        if self.arrivals == 0:
            return 0.0
        return len(self.ever_admitted) / self.arrivals

    def rejected_heaviness(self, seen: "set[int]") -> float:
        """Heaviness share (percent) of arrivals never admitted so far.

        ``seen`` holds the uids of every arrival processed so far.
        """
        if not seen:
            return 0.0
        total = float(self._heaviness[sorted(seen)].sum())
        if total == 0.0:
            return 0.0
        never = sorted(seen - self.ever_admitted)
        return 100.0 * float(self._heaviness[never].sum()) / total

    # -- recording ----------------------------------------------------

    def record(self, record: EventRecord) -> None:
        self.records.append(record)

    # -- summary ------------------------------------------------------

    def summary(self) -> dict:
        latencies = np.array([r.latency for r in self.records]
                             or [0.0])
        admitted = np.array([r.admitted for r in self.records]
                            or [0])
        utilisation = np.array([r.utilisation for r in self.records]
                               or [0.0])
        busy = float(latencies.sum())
        percentiles = latency_percentiles(latencies)
        return {
            "events": len(self.records),
            "arrivals": self.arrivals,
            "admitted_ever": len(self.ever_admitted),
            "acceptance_ratio": self.acceptance_ratio(),
            "rejected_heaviness": (self.records[-1].rejected_heaviness
                                   if self.records else 0.0),
            "mean_admitted": float(admitted.mean()),
            "max_admitted": int(admitted.max()),
            "mean_utilisation": float(utilisation.mean()),
            "max_utilisation": float(utilisation.max()),
            "evictions": self.evictions,
            "rank_changes": self.rank_changes,
            "retry_accepts": self.retry_accepts,
            "retry_drops": self.retry_drops,
            "expired": self.expired,
            "latency_p50_ms": percentiles["latency_p50_ms"],
            "latency_p99_ms": percentiles["latency_p99_ms"],
            "events_per_sec": throughput(len(self.records), busy),
        }


#: Summary keys that depend on wall-clock time (excluded from
#: determinism comparisons and the serial-vs-sharded property test).
WALL_CLOCK_KEYS = ("latency_p50_ms", "latency_p99_ms", "events_per_sec")


@dataclass
class OnlineRunResult:
    """Outcome of one engine run over one stream."""

    seed: int
    stream_kind: str
    policy: str
    mode: str
    horizon: float
    records: list[EventRecord]
    summary: dict
    final_admitted: list[int]
    validation_failures: list[str] = field(default_factory=list)
    shards: int = 1
    kernel: str = "paired"

    def to_dict(self) -> dict:
        """JSON-ready form (exact: floats survive bitwise via repr)."""
        return {
            "format": ONLINE_RESULT_FORMAT,
            "version": ONLINE_RESULT_VERSION,
            "seed": int(self.seed),
            "stream_kind": str(self.stream_kind),
            "policy": str(self.policy),
            "mode": str(self.mode),
            "horizon": float(self.horizon),
            "records": [record.to_dict() for record in self.records],
            "summary": dict(self.summary),
            "final_admitted": [int(u) for u in self.final_admitted],
            "validation_failures": [str(v)
                                    for v in self.validation_failures],
            "shards": int(self.shards),
            "kernel": str(self.kernel),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OnlineRunResult":
        if data.get("format") != ONLINE_RESULT_FORMAT or \
                int(data.get("version", -1)) != ONLINE_RESULT_VERSION:
            raise ValueError(
                f"not a {ONLINE_RESULT_FORMAT} "
                f"v{ONLINE_RESULT_VERSION} payload: "
                f"format={data.get('format')!r} "
                f"version={data.get('version')!r}")
        return cls(
            seed=int(data["seed"]),
            stream_kind=str(data["stream_kind"]),
            policy=str(data["policy"]),
            mode=str(data["mode"]),
            horizon=float(data["horizon"]),
            records=[EventRecord.from_dict(r) for r in data["records"]],
            summary=dict(data["summary"]),
            final_admitted=[int(u) for u in data["final_admitted"]],
            validation_failures=[str(v)
                                 for v in data["validation_failures"]],
            shards=int(data.get("shards", 1)),
            kernel=str(data.get("kernel", "paired")))

    def deterministic_dict(self) -> dict:
        """``to_dict`` minus every wall-clock field: identical across
        reruns, worker counts and machines for the same spec."""
        payload = self.to_dict()
        for record in payload["records"]:
            record.pop("latency")
        for key in WALL_CLOCK_KEYS:
            payload["summary"].pop(key)
        sharding = payload["summary"].get("sharding")
        if isinstance(sharding, dict):
            for key in WALL_CLOCK_KEYS:
                sharding.pop(key, None)
        return payload


def format_online_table(results, *, title: str = "online admission") -> str:
    """Plain-text summary table over a list of
    :class:`OnlineRunResult`."""
    columns = ("seed", "events", "arrivals", "accept%", "rej.heavy%",
               "mean adm", "max adm", "evict", "retry+", "p99 ms",
               "ev/s")
    rows = []
    for result in results:
        summary = result.summary
        rows.append((
            str(result.seed),
            str(summary["events"]),
            str(summary["arrivals"]),
            f"{100.0 * summary['acceptance_ratio']:.1f}",
            f"{summary['rejected_heaviness']:.1f}",
            f"{summary['mean_admitted']:.1f}",
            str(summary["max_admitted"]),
            str(summary["evictions"]),
            str(summary["retry_accepts"]),
            f"{summary['latency_p99_ms']:.2f}",
            f"{summary['events_per_sec']:.0f}",
        ))
    widths = [max(len(column), *(len(row[i]) for row in rows))
              if rows else len(column)
              for i, column in enumerate(columns)]
    lines = [title,
             "  ".join(column.rjust(width)
                       for column, width in zip(columns, widths))]
    for row in rows:
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
    if results:
        ratios = [r.summary["acceptance_ratio"] for r in results]
        lines.append(f"mean acceptance ratio: "
                     f"{100.0 * float(np.mean(ratios)):.1f}%")
    return "\n".join(lines)
