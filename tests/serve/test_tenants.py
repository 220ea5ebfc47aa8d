"""Tenant layer: spec serialisation, validation, journal replay."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.online.engine import (
    EVENT_ARRIVE,
    OnlineScenarioSpec,
    stream_events,
)
from repro.online.streams import StreamConfig
from repro.serve.tenants import (
    ServeError,
    Tenant,
    TenantManager,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.workload.edge import EdgeWorkloadConfig
from repro.workload.random_jobs import RandomInstanceConfig

LIGHT = StreamConfig(
    horizon=40.0, rate=0.8, dwell_scale=0.4, pool_size=6,
    workload=RandomInstanceConfig(num_jobs=6, num_stages=2,
                                  resources_per_stage=2))


def spec(**overrides) -> OnlineScenarioSpec:
    params = dict(stream=LIGHT, seed=0)
    params.update(overrides)
    return OnlineScenarioSpec(**params)


class TestScenarioSerialisation:
    def test_roundtrip_identity(self):
        original = spec(policy="preemptive", retry_limit=4, shards=1)
        assert scenario_from_dict(
            scenario_to_dict(original)) == original

    def test_roundtrip_edge_workload(self):
        original = spec(stream=StreamConfig(
            horizon=30.0, rate=0.5, pool_size=4, generator="edge",
            workload=EdgeWorkloadConfig(num_jobs=4)))
        assert scenario_from_dict(
            scenario_to_dict(original)) == original

    def test_roundtrip_survives_json(self):
        import json

        original = spec()
        payload = json.loads(json.dumps(scenario_to_dict(original)))
        assert scenario_from_dict(payload) == original

    def test_unknown_fields_rejected(self):
        payload = scenario_to_dict(spec())
        payload["bogus"] = 1
        with pytest.raises(ServeError, match="unknown scenario"):
            scenario_from_dict(payload)

    def test_unknown_stream_fields_rejected(self):
        payload = scenario_to_dict(spec())
        payload["stream"]["bogus"] = 1
        with pytest.raises(ServeError, match="unknown stream"):
            scenario_from_dict(payload)

    def test_unknown_workload_type_rejected(self):
        payload = scenario_to_dict(spec())
        payload["stream"]["workload"]["type"] = "exotic"
        with pytest.raises(ServeError, match="workload type"):
            scenario_from_dict(payload)

    def test_invalid_stream_values_map_to_serve_error(self):
        payload = scenario_to_dict(spec())
        payload["stream"]["rate"] = -1.0
        with pytest.raises(ServeError):
            scenario_from_dict(payload)

    def test_non_dict_rejected(self):
        with pytest.raises(ServeError, match="must be an object"):
            scenario_from_dict([1, 2])


class TestTenant:
    def test_process_matches_offline_run(self):
        from repro.online.engine import (
            EVENT_ARRIVE,
            OnlineAdmissionEngine,
            stream_events,
        )
        from repro.online.streams import generate_stream

        s = spec()
        tenant = Tenant("t", s)
        stream = generate_stream(s.stream, seed=s.seed)
        for now, kind, uid in stream_events(stream):
            tenant.process(
                "arrive" if kind == EVENT_ARRIVE else "depart",
                uid, now)
        offline = OnlineAdmissionEngine(
            stream, policy=s.policy, mode=s.mode,
            retry_limit=s.retry_limit,
            validate_every=s.validate_every, kernel=s.kernel).run()
        assert (tenant.engine.result().deterministic_dict()
                == offline.deterministic_dict())

    def test_journal_replay_is_bitwise_identical(self):
        s = spec()
        live = Tenant("t", s)
        from repro.online.engine import EVENT_ARRIVE, stream_events

        for now, kind, uid in stream_events(live.stream):
            live.process(
                "arrive" if kind == EVENT_ARRIVE else "depart",
                uid, now)
        clone = Tenant("t", s)
        clone.replay(live.journal)
        assert clone.records() == live.records()
        assert (clone.engine.result().final_admitted
                == live.engine.result().final_admitted)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ServeError, match="kind"):
            Tenant("t", spec()).process("retire", 0, 1.0)

    def test_rejects_out_of_range_uid(self):
        tenant = Tenant("t", spec())
        with pytest.raises(ServeError, match="uid"):
            tenant.process("arrive", tenant.num_jobs, 1.0)
        with pytest.raises(ServeError, match="uid"):
            tenant.process("arrive", True, 1.0)

    def test_rejects_time_regression(self):
        tenant = Tenant("t", spec())
        tenant.process("arrive", 0, 5.0)
        with pytest.raises(ServeError, match="chronologically"):
            tenant.process("arrive", 1, 4.0)

    @pytest.mark.parametrize("bad", ("nan", "inf", "-inf"))
    def test_rejects_non_finite_time(self, bad):
        tenant = Tenant("t", spec())
        tenant.process("arrive", 0, 1.0)
        journal = [list(entry) for entry in tenant.journal]
        records = tenant.records()
        with pytest.raises(ServeError, match="finite"):
            tenant.process("arrive", 1, float(bad))
        assert tenant.journal == journal
        assert tenant.records() == records
        # The chronology guard still holds for later events.
        with pytest.raises(ServeError, match="chronologically"):
            tenant.process("arrive", 1, -5.0)
        tenant.process("arrive", 1, 2.0)
        assert tenant.sequence == 2

    def test_rejects_time_beyond_float_range(self):
        tenant = Tenant("t", spec())
        tenant.process("arrive", 0, 1.0)
        journal = [list(entry) for entry in tenant.journal]
        records = tenant.records()
        for kind, uid in (("arrive", 1), ("depart", 0)):
            with pytest.raises(ServeError, match="finite"):
                tenant.process(kind, uid, 10**400)
        assert tenant.sequence == 1
        assert tenant.journal == journal
        assert tenant.records() == records

    def test_rejects_repeated_and_unknown_uids(self):
        tenant = Tenant("t", spec())
        tenant.process("arrive", 0, 1.0)
        journal = [list(entry) for entry in tenant.journal]
        with pytest.raises(ServeError, match="already arrived"):
            tenant.process("arrive", 0, 1.0)
        with pytest.raises(ServeError, match="before it arrived"):
            tenant.process("depart", 1, 2.0)
        assert tenant.journal == journal
        assert tenant.engine.result().summary["arrivals"] == 1
        tenant.process("depart", 0, 3.0)
        journal = [list(entry) for entry in tenant.journal]
        with pytest.raises(ServeError, match="already departed"):
            tenant.process("depart", 0, 4.0)
        assert tenant.journal == journal
        assert tenant.sequence == 2

    def test_status_shape(self):
        tenant = Tenant("t", spec())
        tenant.process("arrive", 0, 1.0)
        status = tenant.status()
        assert status["tenant"] == "t"
        assert status["events"] == 1
        assert "decision_p50_ms" in status
        assert "decision_p99_ms" in status


class TestTenantManager:
    def test_create_get_delete(self):
        manager = TenantManager()
        manager.create("a", spec())
        assert manager.names() == ["a"]
        assert manager.get("a").name == "a"
        manager.delete("a")
        assert manager.names() == []

    def test_duplicate_and_missing_names(self):
        manager = TenantManager()
        manager.create("a", spec())
        with pytest.raises(ServeError, match="already exists"):
            manager.create("a", spec())
        with pytest.raises(ServeError, match="no tenant"):
            manager.get("b")
        with pytest.raises(ServeError, match="no tenant"):
            manager.delete("b")

    def test_tenant_limit(self):
        manager = TenantManager(max_tenants=1)
        manager.create("a", spec())
        with pytest.raises(ServeError, match="limit"):
            manager.create("b", spec())


#: Congested enough to park decisions in every cell's memo, with four
#: resources per stage so the stream can be split over four shards.
CONGESTED = StreamConfig(
    horizon=30.0, rate=1.3, dwell_scale=2.0, pool_size=24,
    workload=RandomInstanceConfig(resources_per_stage=4))


class TestStatus:
    @pytest.mark.parametrize("shards", (1, 4))
    def test_status_tallies_match_a_fresh_run_result(self, shards):
        """After every event of a congested stream, the status fields
        read from the engine's running tallies equal the same fields
        of a freshly built run result."""
        tenant = Tenant("t", spec(stream=CONGESTED, shards=shards,
                                  validate_every=16))
        for now, kind, uid in stream_events(tenant.stream):
            tenant.process("arrive" if kind == EVENT_ARRIVE
                           else "depart", uid, now)
            status = tenant.status()
            result = tenant.engine.result()
            summary = result.summary
            assert status["admitted"] == result.final_admitted
            assert (status["acceptance_ratio"]
                    == summary["acceptance_ratio"])
            for key in ("evictions", "retry_accepts", "retry_drops"):
                assert status[key] == summary[key], key
            assert (status["validation_failures"]
                    == len(result.validation_failures))
        # Congested: arrivals were refused, and retries re-admitted
        # and dropped jobs.
        assert summary["acceptance_ratio"] < 1.0
        assert summary["retry_accepts"] and summary["retry_drops"]
        # One latency observation per record, retry records included.
        assert tenant.latency.count == summary["events"]


class TestMemoryRelease:
    @pytest.mark.parametrize("shards", (1, 4))
    def test_deleted_tenant_needs_no_cyclic_gc(self, shards):
        """With the cyclic collector off, deleting a tenant that
        served a congested stream frees every cell's analyzer and the
        universe segment cache at once, and a collection afterwards
        finds no unreachable ``repro`` object."""
        manager = TenantManager()
        gc.collect()
        gc.disable()
        try:
            tenant = manager.create("t", spec(stream=CONGESTED,
                                              shards=shards))
            for now, kind, uid in stream_events(tenant.stream):
                tenant.process(
                    "arrive" if kind == EVENT_ARRIVE else "depart",
                    uid, now)
            cells = tenant.engine.cells
            parked = sum(len(cell._decision_memo) for cell in cells)
            refs = [weakref.ref(cell.incremental) for cell in cells]
            refs.append(weakref.ref(tenant.engine._cache))
            del tenant, cells
            manager.delete("t")
            assert parked
            assert all(ref() is None for ref in refs)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage
                      if type(obj).__module__.startswith("repro.")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
