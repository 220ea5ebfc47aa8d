"""Online admission engine: throughput + incremental-vs-cold speedup.

Replays congested streams through :class:`~repro.online.engine.\
OnlineAdmissionEngine` twice -- once in ``incremental`` mode (sliced
universe caches, paired contribution kernels, lazily evaluated Audsley
levels, carried feasible frontiers, decision memo) and once in
``cold`` mode (full per-event re-analysis: job set + segment cache
rebuild, then the admission driver in stock mode -- every level
evaluated in full -- on the pinned *reference* tensor kernel, the
stable legacy yardstick -- see
:func:`repro.online.incremental.cold_analysis`) -- and compares the
wall-clock time spent inside the admission decision path.  Decisions
are bitwise identical between the two modes (property-tested in
``tests/online``), so the ratio isolates exactly the incremental
machinery.

The run asserts the aggregate decision-path speedup is at least 2x
(CI's ``online-bench`` job gates on the same number from
``BENCH_online.json``); in practice it is ~2.5-3x at the benchmark
operating point and grows with the admitted-set size.

``test_sharded_scaling`` measures the shard layer on a
cluster-structured workload (:func:`~repro.online.streams.\
clustered_stream`): decision-path events/sec of
:class:`~repro.online.sharded.ShardedAdmissionEngine` at 1, 2 and 4
shards against the single-shard engine (the ``monolith`` column, kept
under its historical name: ``OnlineAdmissionEngine`` is the same
class), plus the acceptance cost of conservative cross-shard
admission (no-eviction reservations plus the whole-universe
schedulability certificate).  Gates: >= 1.5x events/sec at 4 shards
and acceptance within 2% of the single-shard oracle.
"""

from repro.experiments.config import full_scale
from repro.online import (
    OnlineAdmissionEngine,
    ShardedAdmissionEngine,
    StreamConfig,
    clustered_stream,
    generate_stream,
)

#: A congested operating point: sustained arrivals against a finite
#: resource pool, so the engine exercises accept, reject, evict and
#: retry paths (admitted set ~50-65 jobs -- the incremental advantage
#: grows with the admitted-set size, which is what gives the 2x gate
#: its headroom).
RATE = 1.3
DWELL_SCALE = 2.0
POOL_SIZE = 40

#: Decision-path timing reruns per (stream, mode); best-of is used.
REPEATS = 3


def _decision_seconds(stream, mode: str) -> "tuple[float, dict]":
    best = float("inf")
    summary = None
    for _ in range(REPEATS):
        engine = OnlineAdmissionEngine(stream, mode=mode)
        result = engine.run()
        best = min(best, engine.decision_seconds)
        summary = result.summary
    return best, summary


def test_online_engine(benchmark):
    if full_scale():
        horizon, seeds = 350.0, 3
    else:
        horizon, seeds = 200.0, 2
    streams = [
        generate_stream(
            StreamConfig(horizon=horizon, rate=RATE,
                         dwell_scale=DWELL_SCALE, pool_size=POOL_SIZE),
            seed=seed)
        for seed in range(seeds)
    ]

    totals = {"incremental": 0.0, "cold": 0.0}
    events = 0

    def run_all():
        nonlocal events
        events = 0
        for stream in streams:
            for mode in ("incremental", "cold"):
                seconds, summary = _decision_seconds(stream, mode)
                totals[mode] += seconds
            events += summary["events"]

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    speedup = totals["cold"] / totals["incremental"]
    events_per_sec = events / totals["incremental"]
    benchmark.extra_info["events"] = events
    benchmark.extra_info["decision_seconds(incremental)"] = round(
        totals["incremental"], 4)
    benchmark.extra_info["decision_seconds(cold)"] = round(
        totals["cold"], 4)
    benchmark.extra_info["events_per_sec(incremental)"] = round(
        events_per_sec, 1)
    benchmark.extra_info["speedup(admission)"] = round(speedup, 3)
    print(f"\nonline admission: {events} events, "
          f"{events_per_sec:.0f} events/s incremental, "
          f"incremental-vs-cold decision speedup {speedup:.2f}x")
    assert events > 0
    # The tentpole gate: incremental admission must beat a cold
    # re-analysis per event by at least 2x.
    assert speedup >= 2.0, (
        f"incremental admission speedup regressed: {speedup:.2f}x")


#: Shard-scaling operating point: four resource clusters with a small
#: cross-traffic fraction, congested enough that per-event candidate
#: sets are large (that is what sharding shrinks).
SHARD_COUNTS = (1, 2, 4)
CROSS_FRACTION = 0.05
#: Generous queue bound for both engines: with a tight bound the
#: *topology* difference (one global FIFO vs one per shard) dominates
#: the acceptance delta, hiding the reservation pessimism the gate is
#: meant to watch.
SHARD_RETRY_LIMIT = 64


def test_sharded_scaling(benchmark):
    horizon = 80.0 if full_scale() else 60.0
    stream = clustered_stream(
        StreamConfig(horizon=horizon, rate=0.5, dwell_scale=1.5,
                     pool_size=16),
        clusters=max(SHARD_COUNTS), cross_fraction=CROSS_FRACTION,
        seed=0)

    seconds: dict = {}
    acceptance: dict = {}
    events = 0

    def run_all():
        nonlocal events
        mono = OnlineAdmissionEngine(
            stream, retry_limit=SHARD_RETRY_LIMIT)
        events = mono.run().summary["events"]
        seconds["monolith"] = mono.decision_seconds
        acceptance["oracle"] = None
        for shards in SHARD_COUNTS:
            engine = ShardedAdmissionEngine(
                stream, shards=shards,
                retry_limit=SHARD_RETRY_LIMIT)
            result = engine.run()
            seconds[shards] = engine.decision_seconds
            acceptance[shards] = result.summary["acceptance_ratio"]
        acceptance["oracle"] = acceptance[1]  # the same single cell

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    speedup = seconds["monolith"] / seconds[max(SHARD_COUNTS)]
    delta = acceptance[max(SHARD_COUNTS)] - acceptance["oracle"]
    benchmark.extra_info["events"] = events
    benchmark.extra_info["cross_fraction"] = CROSS_FRACTION
    for shards in SHARD_COUNTS:
        benchmark.extra_info[f"events_per_sec(shards={shards})"] = \
            round(events / seconds[shards], 1)
    benchmark.extra_info["events_per_sec(monolith)"] = round(
        events / seconds["monolith"], 1)
    benchmark.extra_info["speedup(shards=4)"] = round(speedup, 3)
    benchmark.extra_info["acceptance_ratio(oracle)"] = round(
        acceptance["oracle"], 4)
    benchmark.extra_info["acceptance_ratio(shards=4)"] = round(
        acceptance[max(SHARD_COUNTS)], 4)
    print(f"\nsharded admission: {events} events, "
          f"{events / seconds['monolith']:.0f} events/s monolithic, "
          f"{events / seconds[4]:.0f} events/s at 4 shards "
          f"({speedup:.2f}x), acceptance delta {delta:+.4f}")
    # The shard-layer gates: real throughput scaling, near-oracle
    # acceptance despite conservative (certified) cross-shard
    # admission.
    assert speedup >= 1.5, (
        f"shard-scaling speedup regressed: {speedup:.2f}x")
    assert abs(delta) <= 0.02, (
        f"sharded acceptance drifted from the oracle: {delta:+.4f}")
