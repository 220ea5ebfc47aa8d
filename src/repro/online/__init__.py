"""Streaming admission control: the online layer of the reproduction.

Where :mod:`repro.experiments` evaluates one fixed job set per
scenario, this package answers the *online* question the paper's
admission controller (Section VI.B) only gestures at: jobs arrive and
depart over time, and every arrival gets a fast accept/reject decision
that keeps the admitted set schedulable.

Modules
-------
:mod:`repro.online.streams`
    Timestamped workload streams (Poisson, bursty MMPP, diurnal,
    JSONL replay) layered on the batch workload generators.
:mod:`repro.online.incremental`
    Incremental delay-bound maintenance: sliced universe caches and a
    lazily evaluated OPDCA admission that is bitwise identical to a
    cold re-analysis.
:mod:`repro.online.cell`
    The stream-agnostic :class:`AdmissionCell` decision core: one
    universe, one analyzer, one retry queue, plus the two-phase
    reservation primitives the shard layer coordinates with.
:mod:`repro.online.sharded`
    :class:`ShardedAdmissionEngine`, the one event-driven stream
    driver: one cell per resource shard (a single cell at the default
    ``shards=1``), footprint routing, certified cross-shard
    reservation and the simulator-backed validation hook.
:mod:`repro.online.engine`
    Scenario specs, replay and parallel sweep helpers with
    result-store caching; :class:`OnlineAdmissionEngine` is the
    driver's historical name.
:mod:`repro.online.metrics`
    Per-event time series (acceptance ratio, rejected heaviness,
    utilisation, churn, decision latency), run summaries and the
    :class:`OnlineRunResult` payload.

The CLI front end is ``python -m repro online``.
"""

from repro.online.cell import AdmissionCell, CellEvent, Reservation
from repro.online.engine import (
    ONLINE_CALL_KEY,
    OnlineAdmissionEngine,
    OnlineScenarioSpec,
    evaluate_online,
    online_work_item,
    run_online_scenario,
)
from repro.online.incremental import (
    IncrementalAnalyzer,
    SubsetAnalysis,
    admit,
    admit_all_or_nothing,
    cold_analysis,
    incremental_admission,
    incremental_feasibility,
)
from repro.online.metrics import (
    EventRecord,
    OnlineMetrics,
    OnlineRunResult,
    admitted_utilisation,
    format_online_table,
    latency_percentiles,
    throughput,
)
from repro.online.sharded import (
    ShardedAdmissionEngine,
    sharded_acceptance_report,
)
from repro.online.streams import (
    STREAM_KINDS,
    OnlineJob,
    OnlineStream,
    StreamConfig,
    clustered_stream,
    generate_stream,
    load_stream,
    save_stream,
    stream_events,
)

__all__ = [
    "ONLINE_CALL_KEY",
    "STREAM_KINDS",
    "AdmissionCell",
    "CellEvent",
    "EventRecord",
    "IncrementalAnalyzer",
    "OnlineAdmissionEngine",
    "OnlineJob",
    "OnlineMetrics",
    "OnlineRunResult",
    "OnlineScenarioSpec",
    "OnlineStream",
    "Reservation",
    "ShardedAdmissionEngine",
    "StreamConfig",
    "SubsetAnalysis",
    "admit",
    "admit_all_or_nothing",
    "admitted_utilisation",
    "clustered_stream",
    "cold_analysis",
    "evaluate_online",
    "format_online_table",
    "generate_stream",
    "incremental_admission",
    "incremental_feasibility",
    "latency_percentiles",
    "load_stream",
    "online_work_item",
    "run_online_scenario",
    "save_stream",
    "sharded_acceptance_report",
    "stream_events",
    "throughput",
]
