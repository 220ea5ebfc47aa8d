"""Tests for the sharded admission engine: routing, cross-shard
reservation and its whole-universe certificate, and acceptance against
the single-shard oracle.  (The single-shard case itself is pinned by
``test_single_cell_golden.py`` and the cold-oracle property test in
``test_engine.py``.)
"""

import pytest

from repro.core.exceptions import ModelError
from repro.core.partition import ShardMap
from repro.online.sharded import (
    ShardedAdmissionEngine,
    sharded_acceptance_report,
)
from repro.online.streams import (
    StreamConfig,
    clustered_stream,
    generate_stream,
)


def _stream(seed=0, *, kind="poisson", horizon=120.0, rate=0.3,
            **kwargs):
    return generate_stream(
        StreamConfig(kind=kind, horizon=horizon, rate=rate, **kwargs),
        seed=seed)


def _clustered(seed=0, *, clusters=2, cross_fraction=0.0,
               horizon=100.0, rate=0.4, **kwargs):
    return clustered_stream(
        StreamConfig(kind="poisson", horizon=horizon, rate=rate,
                     **kwargs),
        clusters=clusters, cross_fraction=cross_fraction, seed=seed)


class TestSeparableWorkloads:
    def test_separable_clusters_match_the_oracle_exactly(self):
        """Admission decisions decompose exactly over shards: with no
        queue-overflow asymmetry (one global bounded FIFO vs one per
        shard) the acceptance ratio matches the oracle bit-for-bit."""
        stream = _clustered(seed=3, clusters=2)
        for retry_limit in (0, 1000):
            report = sharded_acceptance_report(
                stream, shards=2, retry_limit=retry_limit)
            assert report["cross_jobs"] == 0
            assert report["acceptance_delta"] == 0.0

    def test_bounded_queues_shift_acceptance_only_slightly(self):
        # Per-shard bounded queues drop no more than one global one,
        # so the sharded engine is never *worse* on separable work.
        stream = _clustered(seed=3, clusters=2)
        report = sharded_acceptance_report(stream, shards=2)
        assert 0.0 <= report["acceptance_delta"] <= 0.05

    def test_separable_run_splits_jobs_across_cells(self):
        stream = _clustered(seed=3, clusters=2)
        engine = ShardedAdmissionEngine(stream, shards=2)
        result = engine.run()
        sharding = result.summary["sharding"]
        assert sharding["shards"] == 2
        assert sharding["cross_jobs"] == 0
        per_shard = sharding["per_shard"]
        assert all(row["jobs"] > 0 for row in per_shard)
        assert sum(row["jobs"] for row in per_shard) == \
            engine.universe.num_jobs


class TestCrossShardReservation:
    def test_cross_jobs_are_resident_on_all_touched_shards(self):
        stream = _clustered(seed=5, clusters=2, cross_fraction=0.3)
        engine = ShardedAdmissionEngine(stream, shards=2)
        engine.run()
        routing = engine.routing
        assert routing.num_cross > 0, "seed must yield cross jobs"
        shards = {s.shard: s for s in engine._shards}
        for uid in engine.admitted:
            for shard_id in routing.touched[uid]:
                shard = shards[shard_id]
                assert shard.cell.is_admitted(shard.local(uid))
        # ... and on no others (all-or-nothing residency).
        for shard in engine._shards:
            for local in shard.cell.admitted:
                uid = int(shard.members[local])
                assert uid in engine.admitted

    def test_cross_accounting_is_consistent(self):
        stream = _clustered(seed=5, clusters=2, cross_fraction=0.3)
        result = ShardedAdmissionEngine(stream, shards=2).run()
        sharding = result.summary["sharding"]
        assert sharding["cross_jobs"] > 0
        arrivals = sharding["cross_accepts"] + \
            sharding["cross_rejects"]
        assert arrivals == sharding["cross_jobs"]
        # Cross jobs enter the retry queue on arrival rejection or on
        # revocation, so re-admissions are bounded by both.
        assert sharding["cross_retry_accepts"] <= \
            sharding["cross_rejects"] + sharding["revocations"]
        assert sharding["revocations"] >= 0
        # Certify rejections count arrival *and* retry attempts, so
        # they are bounded by the certificate evaluations, not by the
        # arrival-path rejections.
        assert 0 <= sharding["cross_certify_rejects"] <= \
            sharding["global_certifies"]

    def test_sharding_summary_has_no_wall_clock(self):
        from repro.online.metrics import WALL_CLOCK_KEYS

        stream = _clustered(seed=5, clusters=2, cross_fraction=0.3)
        result = ShardedAdmissionEngine(stream, shards=2).run()
        sharding = result.summary["sharding"]
        assert not set(sharding) & set(WALL_CLOCK_KEYS)
        assert "decision_seconds" not in str(sharding)

    def test_reservation_log_records_every_touched_shard(self):
        stream = _clustered(seed=5, clusters=2, cross_fraction=0.3)
        engine = ShardedAdmissionEngine(stream, shards=2,
                                        record_decisions=True)
        engine.run()
        reserves = [d for d in engine.decisions if d[1] == "reserve"]
        assert reserves
        for _index, _kind, uid, _candidate, _result in reserves:
            assert engine.routing.cross[uid]

    def test_deterministic_replay(self):
        stream = _clustered(seed=5, clusters=2, cross_fraction=0.3)
        a = ShardedAdmissionEngine(stream, shards=2).run()
        b = ShardedAdmissionEngine(stream, shards=2).run()
        assert a.deterministic_dict() == b.deterministic_dict()

    def test_cross_events_record_nonzero_latency(self):
        """Reserve/certify/commit time all lands in the per-event
        latency series (cross arrivals used to record 0.0)."""
        stream = _clustered(seed=5, clusters=2, cross_fraction=0.3)
        engine = ShardedAdmissionEngine(stream, shards=2)
        result = engine.run()
        cross = [r for r in result.records
                 if r.kind == "arrive" and engine.routing.cross[r.uid]]
        assert cross
        assert all(r.latency > 0.0 for r in cross)


class TestCrossShardSoundness:
    """The certificate guarantee: the global admitted set is
    whole-universe schedulable at all times, not merely feasible
    shard by shard.  Per-shard reservations bound a spanning job's
    end-to-end deadline against one shard's interferers at a time, so
    on their own they are optimistic -- the whole-universe
    all-or-nothing check is what closes the gap."""

    def _engine(self, seed, **kwargs):
        stream = _clustered(seed=seed, clusters=2, cross_fraction=0.3)
        return ShardedAdmissionEngine(stream, shards=2, **kwargs)

    def test_certificate_rejects_per_shard_feasible_candidates(self):
        """The gap is real: some candidates pass every per-shard
        reservation yet fail the whole-universe analysis (these are
        exactly the admissions the unsound engine used to commit)."""
        rejects = 0
        for seed in range(8):
            result = self._engine(seed).run()
            rejects += \
                result.summary["sharding"]["cross_certify_rejects"]
        assert rejects > 0

    def test_every_accepted_epoch_survives_the_simulator(self):
        for seed in (3, 5):
            engine = self._engine(seed, validate_every=1)
            result = engine.run()
            assert result.summary["sharding"]["cross_accepts"] > 0
            assert result.validation_failures == []

    def test_admitted_set_is_globally_schedulable_at_every_event(self):
        from repro.online.incremental import (
            admit_all_or_nothing,
            cold_analysis,
        )

        snapshots: "set[tuple]" = set()

        class Recorder(ShardedAdmissionEngine):
            def _snapshot(self, *args, **kwargs):
                snapshots.add(tuple(sorted(self._admitted)))
                return super()._snapshot(*args, **kwargs)

        # Seed 2 exercises the certificate for real: several cross
        # candidates pass every per-shard reservation but fail the
        # whole-universe check (the pre-certificate engine admits
        # unschedulable sets on this stream), and local arrivals force
        # visitor revocations.
        stream = _clustered(seed=2, clusters=2, cross_fraction=0.3,
                            horizon=60.0)
        engine = Recorder(stream, shards=2)
        result = engine.run()
        sharding = result.summary["sharding"]
        assert sharding["cross_accepts"] > 0
        assert sharding["cross_certify_rejects"] > 0
        assert sharding["revocations"] > 0
        universe = engine.universe
        checked = 0
        for admitted in snapshots:
            if not admitted:
                continue
            analysis = cold_analysis(universe, list(admitted),
                                     "preemptive")
            assert admit_all_or_nothing(analysis, mode="cold") \
                is not None, f"unschedulable admitted set {admitted}"
            checked += 1
        assert checked > 0

    def test_every_certificate_is_a_cold_verified_witness(self):
        """The certificate is a witness search: its ordering may differ
        from the cold controller's, but its verdict may not, and every
        feasible ``certify`` entry's ordering passes a cold
        reference-kernel check of the candidate set."""
        from repro.online.incremental import (
            admit_all_or_nothing,
            cold_analysis,
        )
        from tests.online.test_incremental import assert_witness

        stream = _clustered(seed=2, clusters=2, cross_fraction=0.3,
                            horizon=60.0)
        engine = ShardedAdmissionEngine(stream, shards=2,
                                        record_decisions=True)
        engine.run()
        universe = engine.universe
        feasible = infeasible = 0
        for _index, kind, _uid, candidate, result in engine.decisions:
            if kind != "certify":
                continue
            cold = admit_all_or_nothing(
                cold_analysis(universe, list(candidate), "preemptive"),
                mode="cold")
            assert (result is None) == (cold is None), candidate
            if result is None:
                infeasible += 1
                continue
            assert_witness(universe, list(candidate), "eq6",
                           result.ordering)
            feasible += 1
        assert feasible > 0 and infeasible > 0

    def test_validation_hook_passes_through_scenario_runner(self):
        from repro.online.engine import (
            OnlineScenarioSpec,
            run_online_scenario,
        )

        spec = OnlineScenarioSpec(
            stream=StreamConfig(horizon=40.0, rate=0.4),
            seed=1, shards=2, validate_every=1)
        result = run_online_scenario(spec)
        assert result.shards == 2
        assert result.validation_failures == []


class TestEngineSurface:
    def test_explicit_shard_map_is_accepted(self):
        stream = _clustered(seed=3, clusters=2)
        shard_map = ShardMap.blocked(stream.universe().system, 2)
        engine = ShardedAdmissionEngine(stream, shards=shard_map)
        assert engine.num_shards == 2
        assert engine.shard_map is shard_map

    def test_too_many_shards_raises(self):
        stream = _stream(0)
        with pytest.raises(ModelError):
            ShardedAdmissionEngine(stream, shards=64)

    def test_bad_retry_limit_raises(self):
        stream = _stream(0)
        with pytest.raises(ValueError):
            ShardedAdmissionEngine(stream, shards=1, retry_limit=-1)

    def test_result_records_shard_count(self):
        stream = _clustered(seed=3, clusters=2)
        result = ShardedAdmissionEngine(stream, shards=2).run()
        assert result.shards == 2
        assert result.to_dict()["shards"] == 2

    def test_result_records_kernel(self):
        stream = _clustered(seed=3, clusters=2)
        result = ShardedAdmissionEngine(stream, shards=2,
                                        kernel="reference").run()
        assert result.kernel == "reference"
        single = ShardedAdmissionEngine(_stream(0),
                                        kernel="reference").run()
        assert single.kernel == "reference"

    def test_decision_totals_sum_over_cells(self):
        stream = _clustered(seed=3, clusters=2)
        engine = ShardedAdmissionEngine(stream, shards=2)
        engine.run()
        assert engine.decision_count == sum(
            cell.decision_count for cell in engine.cells)
        assert engine.decision_seconds > 0.0


class TestClusteredStream:
    def test_clusters_get_disjoint_resource_blocks(self):
        stream = _clustered(seed=1, clusters=3)
        universe = stream.universe()
        routing = ShardMap.blocked(universe.system, 3).route(universe)
        assert routing.num_cross == 0

    def test_cross_fraction_creates_cross_jobs(self):
        stream = _clustered(seed=1, clusters=2, cross_fraction=0.4)
        universe = stream.universe()
        routing = ShardMap.blocked(universe.system, 2).route(universe)
        assert routing.num_cross > 0

    def test_single_stage_cross_fraction_raises(self):
        from repro.workload.random_jobs import RandomInstanceConfig

        config = StreamConfig(
            horizon=50.0, rate=0.3,
            workload=RandomInstanceConfig(
                num_jobs=10, num_stages=1, resources_per_stage=4))
        with pytest.raises(ModelError, match="multi-stage"):
            clustered_stream(config, clusters=2, cross_fraction=0.1,
                             seed=0)
        # Without the rewire knob single-stage clustering stays fine.
        stream = clustered_stream(config, clusters=2, seed=0)
        assert stream.events

    def test_clustered_stream_is_deterministic(self):
        a = _clustered(seed=9, clusters=2, cross_fraction=0.2)
        b = _clustered(seed=9, clusters=2, cross_fraction=0.2)
        assert len(a.events) == len(b.events)
        for ea, eb in zip(a.events, b.events):
            assert ea.uid == eb.uid
            assert ea.arrival == eb.arrival
            assert ea.departure == eb.departure
