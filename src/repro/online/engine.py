"""Online admission scenarios: specs, replay and result-store plumbing.

:func:`run_online_scenario` replays one :class:`OnlineScenarioSpec`
through the stream driver,
:class:`~repro.online.sharded.ShardedAdmissionEngine`;
:func:`evaluate_online` runs many in parallel with result-store
caching.  The driver's historical name :class:`OnlineAdmissionEngine`,
the event order, the run result and the epoch validation primitive are
re-exported from here for existing importers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.online.metrics import OnlineRunResult
from repro.online.sharded import (
    ShardedAdmissionEngine,
    epoch_validation_failures,
)
from repro.online.streams import (
    EVENT_ARRIVE,
    EVENT_DEPART,
    StreamConfig,
    generate_stream,
    stream_events,
)

__all__ = [
    "EVENT_ARRIVE",
    "EVENT_DEPART",
    "ONLINE_CALL_KEY",
    "OnlineAdmissionEngine",
    "OnlineRunResult",
    "OnlineScenarioSpec",
    "epoch_validation_failures",
    "evaluate_online",
    "online_work_item",
    "run_online_scenario",
    "run_online_scenario_dict",
    "stream_events",
]

#: Result-store key of one online scenario evaluation; bump when the
#: engine's semantics change so stale cached runs are never served.
#: v2: specs grew ``shards`` / ``kernel`` and results record them.
#: v3: one driver for every shard count, so 1-shard summaries carry
#: ``sharding`` too.
#: v4: the whole-universe certificate is a witness search, so sharded
#: summaries' certificate counters moved (verdicts did not).
#: v5: cold-mode all-or-nothing checks pass a job on
#: ``Delta - D <= 1e-9``, like every other admission path (they used
#: OPDCA's ``Delta <= D + 1e-9``).
#: v6: the sharded engine lost its splice fast path and certificate
#: memo, so sharded summaries' certificate counters moved (verdicts
#: did not).
#: v7: failure cores skip provably futile cross-shard retries and
#: re-certifications, so sharded summaries' certificate and per-shard
#: decision counters moved (verdicts did not).
ONLINE_CALL_KEY = "online/run@v7"


@dataclass(frozen=True)
class OnlineScenarioSpec:
    """One fully-determined online scenario (picklable, hashable)."""

    stream: StreamConfig = field(default_factory=StreamConfig)
    seed: int = 0
    policy: str = "preemptive"
    mode: str = "incremental"
    retry_limit: int = 16
    #: Replay every k-th accepted epoch through the simulator (0 = off).
    validate_every: int = 0
    #: Resource shards of the engine (blocked ShardMap; 1 = one cell
    #: over the whole universe).
    shards: int = 1
    #: Level-evaluation kernel of the admission analyzers.
    kernel: str = "paired"


class OnlineAdmissionEngine(ShardedAdmissionEngine):
    """The stream driver under its historical name.

    Exactly :class:`~repro.online.sharded.ShardedAdmissionEngine` --
    same constructor, same decisions; at the default ``shards=1`` it
    is one cell over the whole universe.
    """


def run_online_scenario(spec: OnlineScenarioSpec) -> OnlineRunResult:
    """Materialise and replay one scenario (worker entry point).

    When a trace exporter is configured (``--trace``), the run emits
    a ``online.scenario`` span tree: one child per stage, with the
    cell counters summed over cells and the sharding counters attached
    as attributes on completion.  Telemetry never feeds back into any
    decision, so traced and untraced runs are bitwise identical.
    """
    shards = int(getattr(spec, "shards", 1))
    kernel = str(getattr(spec, "kernel", "paired"))
    with obs.span("online.scenario", seed=spec.seed,
                  stream=spec.stream.kind, policy=spec.policy,
                  mode=spec.mode, shards=shards,
                  kernel=kernel) as scenario:
        with obs.span("online.stream.generate") as stage:
            stream = generate_stream(spec.stream, seed=spec.seed)
            stage.set_attribute("jobs", len(stream.events))
        engine = ShardedAdmissionEngine(
            stream, shards=shards, policy=spec.policy, mode=spec.mode,
            retry_limit=spec.retry_limit,
            validate_every=spec.validate_every, kernel=kernel)
        with obs.span("online.engine.run") as stage:
            with obs.maybe_profile(stage):
                result = engine.run()
        cell_stats = [cell.obs_stats() for cell in engine.cells]
        scenario.update_attributes({
            key: sum(stats[key] for stats in cell_stats)
            for key in ("decisions", "memo_hits", "memo_misses",
                        "core_hits", "kernel_cache_hits",
                        "kernel_cache_misses")})
        sharding = result.summary["sharding"]
        scenario.update_attributes({
            key: sharding[key]
            for key in ("global_certifies", "quick_certifies",
                        "revocations", "cross_certify_rejects")})
        scenario.set_attribute(
            "acceptance_ratio",
            result.summary.get("acceptance_ratio"))
    return result


def run_online_scenario_dict(spec: OnlineScenarioSpec,
                             fingerprint: "str | None" = None) -> dict:
    """Picklable ``parallel_map`` shim returning the JSON form.

    ``fingerprint`` carries the replay-trace content digest purely so
    it participates in the work item's content hash (see
    :func:`_replay_fingerprint`); the evaluation itself re-reads the
    file.
    """
    return run_online_scenario(spec).to_dict()


def _replay_fingerprint(spec: OnlineScenarioSpec) -> "str | None":
    """SHA-256 of a replay spec's trace file (None for generated
    streams).  Mixed into the result-store hash so editing the trace
    behind an unchanged path can never serve stale cached runs."""
    if spec.stream.kind != "replay":
        return None
    import hashlib
    from pathlib import Path

    return hashlib.sha256(
        Path(spec.stream.replay_path).read_bytes()).hexdigest()


def online_work_item(spec: OnlineScenarioSpec) -> tuple:
    """The ``parallel_map`` argument tuple of one online scenario.

    This tuple (under :data:`ONLINE_CALL_KEY`) *is* the scenario's
    result-store identity, so anything that needs to predict store
    keys without evaluating -- the campaign runner's ``missing()``
    precheck, external cache audits -- must build them from here
    rather than re-deriving the shape.
    """
    return (spec, _replay_fingerprint(spec))


def evaluate_online(specs, *, n_workers: int = 1,
                    store=None) -> "list[OnlineRunResult]":
    """Evaluate scenarios, preserving input order.

    Shards the specs across worker processes exactly like the batch
    sweeps (:func:`repro.experiments.parallel.parallel_map`) and
    caches per-scenario outcomes in the result store under
    :data:`ONLINE_CALL_KEY` -- replay scenarios are additionally keyed
    on the trace file's content digest -- so interrupted online sweeps
    resume from their last checkpoint.  Deterministic fields are
    identical for any worker count.
    """
    from repro.experiments.parallel import parallel_map

    payloads = parallel_map(
        run_online_scenario_dict,
        [online_work_item(spec) for spec in specs],
        n_workers=n_workers, store=store, key=ONLINE_CALL_KEY)
    return [OnlineRunResult.from_dict(payload) for payload in payloads]
