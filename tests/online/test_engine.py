"""Tests for the online admission engine.

The acceptance-criterion property test lives here: at *every* event,
the engine's admitted set, ordering and delay bounds must match a cold
rebuild over the same candidate jobs run through the stock per-level
admission loop (the oracle in ``tests/properties``) -- and the
serial and ``--jobs``-sharded evaluation paths must be identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dca import KERNEL_TIERS
from repro.core.system import JobSet
from repro.online.engine import (
    OnlineAdmissionEngine,
    OnlineRunResult,
    OnlineScenarioSpec,
    evaluate_online,
    run_online_scenario,
)
from repro.online.sharded import ShardedAdmissionEngine
from repro.online.streams import StreamConfig, generate_stream
from tests.properties.test_property_kernels import stock_opdca_admission


def _stream(seed=0, *, kind="poisson", horizon=120.0, rate=0.3,
            **kwargs):
    return generate_stream(
        StreamConfig(kind=kind, horizon=horizon, rate=rate, **kwargs),
        seed=seed)


def _strip_mode(result: OnlineRunResult) -> dict:
    payload = result.deterministic_dict()
    payload.pop("mode")
    return payload


#: A congested operating point (cf. ``benchmarks/bench_online.py``):
#: accept, reject, evict and retry all fire within the horizon.
_CONGESTED = StreamConfig(horizon=90.0, rate=1.6, dwell_scale=2.0,
                          pool_size=24)


def _strip_certificate_paths(result: OnlineRunResult) -> dict:
    """Deterministic payload minus the mode and the counters of which
    certificate path (standing-order probe or full search) settled a
    cross-shard check -- the one place incremental and cold runs may
    legitimately differ."""
    payload = _strip_mode(result)
    sharding = payload["summary"]["sharding"]
    sharding.pop("global_certifies")
    sharding.pop("quick_certifies")
    return payload


engine_params = st.fixed_dictionaries({
    "seed": st.integers(0, 2_000),
    "kind": st.sampled_from(["poisson", "mmpp", "diurnal"]),
    "rate": st.floats(0.15, 0.6),
    "dwell_scale": st.floats(0.5, 2.0),
})


class TestColdEquivalence:
    """The tentpole guarantee, property-tested."""

    @settings(max_examples=15, deadline=None)
    @given(params=engine_params)
    def test_every_decision_matches_cold_opdca_rebuild(self, params):
        stream = _stream(params["seed"], kind=params["kind"],
                         horizon=80.0, rate=params["rate"],
                         dwell_scale=params["dwell_scale"])
        engine = OnlineAdmissionEngine(stream, record_decisions=True)
        engine.run()
        universe = engine.universe
        if universe is None:
            return
        for _index, kind, _uid, candidate, result in engine.decisions:
            cold_set = JobSet(universe.system,
                              [universe.jobs[i] for i in candidate])
            cold = stock_opdca_admission(cold_set, "eq6")
            if kind == "retry" and result is None:
                # A failed all-or-nothing retry == the full controller
                # would have rejected someone.
                assert cold.rejected
                continue
            assert result.accepted == cold.accepted
            assert result.rejected == cold.rejected
            assert np.array_equal(result.ordering, cold.ordering)
            assert np.array_equal(result.delays, cold.delays,
                                  equal_nan=True)

    @pytest.mark.parametrize("shards", (1, 2))
    @pytest.mark.parametrize("kernel", KERNEL_TIERS)
    def test_incremental_and_cold_engines_agree(self, kernel, shards):
        """Every kernel tier's incremental engine against the cold
        controller on a congested stream (accept, reject, evict and
        retry all fire)."""
        stream = generate_stream(_CONGESTED, seed=2 + shards)
        warm, cold = (
            _strip_certificate_paths(ShardedAdmissionEngine(
                stream, shards=shards, mode=mode, kernel=kernel).run())
            for mode in ("incremental", "cold"))
        summary = cold["summary"]
        assert summary["acceptance_ratio"] < 1.0
        assert summary["evictions"] and summary["retry_accepts"]
        assert warm["final_admitted"] == cold["final_admitted"]
        assert warm["records"] == cold["records"]
        assert warm == cold

    def test_admitted_sets_always_schedulable(self):
        """Invariant: after every event, the admitted set passes the
        schedulability test under the assigned ordering."""
        stream = _stream(1, rate=0.5, horizon=100.0)
        engine = OnlineAdmissionEngine(stream, record_decisions=True)
        engine.run()
        for _i, _kind, _uid, candidate, result in engine.decisions:
            if result is None or not result.accepted:
                continue
            local = np.array(result.accepted)
            deadlines = np.array(
                [engine.universe.D[candidate[i]] for i in local])
            assert (result.delays[local] <= deadlines + 1e-9).all()


class TestSharding:
    def test_serial_and_jobs_paths_identical(self):
        config = StreamConfig(horizon=100.0, rate=0.35)
        specs = [OnlineScenarioSpec(stream=config, seed=seed)
                 for seed in range(4)]
        serial = evaluate_online(specs, n_workers=1)
        sharded = evaluate_online(specs, n_workers=2)
        for one, two in zip(serial, sharded):
            assert one.deterministic_dict() == two.deterministic_dict()

    def test_replay_cache_keys_on_trace_content(self, tmp_path):
        """Editing a replay trace behind an unchanged path must miss
        the store, never serve the stale cached run."""
        from repro.online.streams import save_stream
        from repro.store import ResultStore

        path = tmp_path / "trace.jsonl"
        save_stream(_stream(0, horizon=50.0), path)
        config = StreamConfig(kind="replay", replay_path=str(path))
        spec = OnlineScenarioSpec(stream=config)
        store = ResultStore(tmp_path / "cache")
        first = evaluate_online([spec], store=store)[0]
        save_stream(_stream(1, horizon=50.0), path)  # new trace
        second = evaluate_online([spec], store=store)[0]
        assert store.counters.misses == 2  # both runs evaluated
        assert first.summary["arrivals"] != second.summary["arrivals"] \
            or first.deterministic_dict() != second.deterministic_dict()

    def test_store_resume_serves_cached_runs(self, tmp_path):
        from repro.store import ResultStore

        config = StreamConfig(horizon=80.0, rate=0.3)
        specs = [OnlineScenarioSpec(stream=config, seed=seed)
                 for seed in range(2)]
        store = ResultStore(tmp_path / "cache")
        first = evaluate_online(specs, store=store)
        assert store.counters.writes == 2
        warm_store = ResultStore(tmp_path / "cache")
        second = evaluate_online(specs, store=warm_store)
        assert warm_store.counters.hits == 2
        assert warm_store.counters.misses == 0
        for one, two in zip(first, second):
            # Cached replays are exact, wall-clock fields included.
            assert one.to_dict() == two.to_dict()


class TestEngineMechanics:
    def test_departures_free_capacity_for_retries(self):
        """A congested stream must exercise the retry queue, and
        every retry acceptance must come after a departure."""
        stream = _stream(2, rate=0.7, horizon=120.0, dwell_scale=1.5)
        result = OnlineAdmissionEngine(stream).run()
        rejects = [r for r in result.records
                   if r.kind == "arrive" and r.decision == "reject"]
        retries = [r for r in result.records if r.kind == "retry"]
        evicted = [r for r in result.records if r.evicted]
        assert rejects or evicted  # congestion materialised
        if retries:
            for record in retries:
                frees = [r for r in result.records
                         if r.kind == "depart" and r.decision == "free"
                         and r.index <= record.index]
                assert frees, "retry admission without a departure"

    def test_retry_limit_bounds_the_queue(self):
        stream = _stream(4, rate=0.8, horizon=120.0, dwell_scale=2.0)
        unbounded = OnlineAdmissionEngine(stream, retry_limit=64).run()
        tight = OnlineAdmissionEngine(stream, retry_limit=1).run()
        assert tight.summary["retry_drops"] >= \
            unbounded.summary["retry_drops"]

    def test_zero_retry_limit_disables_the_queue(self):
        stream = _stream(4, rate=0.8, horizon=100.0)
        engine = OnlineAdmissionEngine(stream, retry_limit=0)
        result = engine.run()
        assert result.summary["retry_accepts"] == 0
        assert engine.cells[0].retry_queue == ()
        rejects = [r for r in result.records
                   if r.kind == "arrive" and r.decision == "reject"]
        if rejects:  # every un-parkable reject is counted as a drop
            assert result.summary["retry_drops"] >= len(rejects)

    @staticmethod
    def _saturated_stream(events):
        """Single unit-resource stream of identical jobs: exactly one
        fits, so every later arrival is rejected deterministically."""
        from repro.core.job import Job
        from repro.core.system import MSMRSystem, Stage
        from repro.online.streams import OnlineJob, OnlineStream

        system = MSMRSystem([Stage(1)])
        jobs = [OnlineJob(uid=uid,
                          job=Job(processing=(6.0,), deadline=10.0,
                                  resources=(0,), arrival=arrival),
                          arrival=arrival, departure=departure)
                for uid, (arrival, departure) in enumerate(events)]
        return OnlineStream(system=system, events=jobs,
                            config=StreamConfig(horizon=30.0))

    def test_retry_overflow_drops_the_oldest(self):
        """Jobs 1..3 are rejected in order into a 2-slot queue: the
        overflow evicts the *oldest* parked job (1), so its later
        departure is a ``noop``, not an ``expire``."""
        stream = self._saturated_stream(
            [(0.0, 25.0), (1.0, 20.0), (2.0, 20.0), (3.0, 20.0)])
        engine = OnlineAdmissionEngine(stream, retry_limit=2)
        result = engine.run()
        assert result.summary["retry_drops"] == 1
        departs = {r.uid: r.decision for r in result.records
                   if r.kind == "depart"}
        assert departs[1] == "noop"     # dropped: no longer parked
        assert departs[2] == "expire"   # survived in the queue
        assert departs[3] == "expire"

    def test_retry_readmission_is_all_or_nothing(self):
        """After the incumbent departs, the FIFO head (2) is
        re-admitted -- but 3 stays parked because {2, 3} do not fit
        *whole*: retries never evict to make room."""
        stream = self._saturated_stream(
            [(0.0, 5.0), (1.0, 20.0), (2.0, 20.0), (3.0, 20.0)])
        result = OnlineAdmissionEngine(stream, retry_limit=2).run()
        retries = [r for r in result.records if r.kind == "retry"]
        assert [(r.uid, r.decision) for r in retries] == \
            [(2, "accept")]
        assert all(r.evicted == () for r in retries)
        assert result.summary["retry_accepts"] == 1
        # 3 was never re-admitted over 2's head; it expires parked.
        departs = {r.uid: r.decision for r in result.records
                   if r.kind == "depart"}
        assert departs[3] == "expire"

    def test_departures_before_arrivals_on_ties(self):
        """At equal timestamps the departure is processed first, so
        the freed capacity serves the tied arrival."""
        from repro.core.job import Job
        from repro.core.system import MSMRSystem, Stage
        from repro.online.streams import OnlineJob, OnlineStream

        system = MSMRSystem([Stage(1)])
        job = Job(processing=(6.0,), deadline=10.0, resources=(0,))
        events = [
            OnlineJob(uid=0, job=job, arrival=0.0, departure=10.0),
            OnlineJob(uid=1,
                      job=Job(processing=(6.0,), deadline=10.0,
                              resources=(0,), arrival=10.0),
                      arrival=10.0, departure=20.0),
        ]
        stream = OnlineStream(system=system, events=events,
                              config=StreamConfig(horizon=30.0))
        result = OnlineAdmissionEngine(stream).run()
        kinds = [(r.kind, r.uid, r.decision) for r in result.records]
        assert kinds.index(("depart", 0, "free")) < \
            kinds.index(("arrive", 1, "accept"))

    def test_validation_hook_passes_on_accepted_epochs(self):
        stream = _stream(5, rate=0.4, horizon=100.0)
        result = OnlineAdmissionEngine(stream, validate_every=1).run()
        assert result.validation_failures == []

    def test_metrics_time_series_shape(self):
        stream = _stream(6, rate=0.3, horizon=100.0)
        result = OnlineAdmissionEngine(stream).run()
        summary = result.summary
        assert summary["events"] == len(result.records)
        arrivals = [r for r in result.records if r.kind == "arrive"]
        assert summary["arrivals"] == len(arrivals) == stream.num_events
        assert 0.0 <= summary["acceptance_ratio"] <= 1.0
        assert 0.0 <= summary["rejected_heaviness"] <= 100.0
        assert summary["max_admitted"] >= summary["mean_admitted"] >= 0
        times = [r.time for r in result.records]
        assert times == sorted(times)
        # Utilisation is bounded by the generator's admission of the
        # whole pool only when jobs are rejected; it is always >= 0.
        assert all(r.utilisation >= 0.0 for r in result.records)

    def test_round_trip_and_rejected_heaviness(self):
        stream = _stream(7, rate=0.8, horizon=100.0, dwell_scale=2.0)
        result = OnlineAdmissionEngine(stream, retry_limit=2).run()
        payload = result.to_dict()
        assert OnlineRunResult.from_dict(payload).to_dict() == payload
        with pytest.raises(ValueError):
            OnlineRunResult.from_dict({"format": "other"})

    def test_empty_stream(self):
        from repro.online.streams import OnlineStream

        stream = OnlineStream(
            system=_stream(0).system, events=[],
            config=StreamConfig(horizon=10.0))
        result = OnlineAdmissionEngine(stream).run()
        assert result.records == []
        assert result.summary["arrivals"] == 0
        assert result.final_admitted == []
        assert result.shards == 1
        assert result.summary["sharding"]["shards"] == 1

    def test_bad_parameters_rejected(self):
        from repro.online.streams import OnlineStream

        stream = _stream(0)
        # An empty stream builds no cell, so the engine itself checks.
        empty = OnlineStream(system=stream.system, events=[],
                             config=StreamConfig(horizon=10.0))
        for source in (stream, empty):
            with pytest.raises(ValueError):
                OnlineAdmissionEngine(source, mode="warm")
            with pytest.raises(ValueError):
                OnlineAdmissionEngine(source, kernel="bogus")
            with pytest.raises(ValueError):
                OnlineAdmissionEngine(source, retry_limit=-1)
            with pytest.raises(ValueError, match="validate_every"):
                OnlineAdmissionEngine(source, validate_every=-1)

    def test_auto_kernel_rejected(self):
        from repro.online.streams import OnlineStream

        stream = _stream(0)
        empty = OnlineStream(system=stream.system, events=[],
                             config=StreamConfig(horizon=10.0))
        for source in (stream, empty):
            with pytest.raises(ValueError) as error:
                ShardedAdmissionEngine(source, kernel="auto")
            assert str(error.value) == (
                "kernel must be one of ('paired', 'reference'), "
                "got 'auto'")


class TestEventValidation:
    """Repeated or unknown uids are refused before any state changes."""

    @staticmethod
    def _state(engine):
        return (engine._event_index, len(engine.result().records),
                sorted(engine._admitted), engine.result().summary)

    @pytest.mark.parametrize("shards", (1, 2))
    def test_duplicate_and_unknown_uids_raise_without_effect(self, shards):
        stream = _stream(0, horizon=60.0)
        engine = ShardedAdmissionEngine(stream, shards=shards)
        events = sorted((e.arrival, e.departure, e.uid)
                        for e in stream.events)
        (first, first_out, uid), (second, _out, other) = events[:2]
        engine.process(first, "arrive", uid)
        before = self._state(engine)
        with pytest.raises(ValueError, match="already arrived"):
            engine.process(first, "arrive", uid)
        with pytest.raises(ValueError, match="before it arrived"):
            engine.process(second, "depart", other)
        assert self._state(engine) == before
        assert engine.result().summary["arrivals"] == 1
        engine.process(first_out, "depart", uid)
        before = self._state(engine)
        with pytest.raises(ValueError, match="already departed"):
            engine.process(first_out, "depart", uid)
        assert self._state(engine) == before


class TestScenarioHelpers:
    def test_run_online_scenario_matches_engine(self):
        spec = OnlineScenarioSpec(
            stream=StreamConfig(horizon=80.0, rate=0.3), seed=9)
        via_spec = run_online_scenario(spec)
        direct = OnlineAdmissionEngine(_stream(9, horizon=80.0)).run()
        assert via_spec.deterministic_dict() == \
            direct.deterministic_dict()

    def test_single_shard_scenario_reports_sharding(self):
        from repro.online.engine import ONLINE_CALL_KEY

        assert ONLINE_CALL_KEY == "online/run@v7"
        spec = OnlineScenarioSpec(
            stream=StreamConfig(horizon=40.0, rate=0.3), seed=2)
        result = run_online_scenario(spec)
        assert result.shards == 1
        assert result.summary["sharding"]["shards"] == 1
        assert result.summary["sharding"]["cross_jobs"] == 0

    def test_specs_hash_distinctly(self):
        from repro.store import spec_hash

        a = OnlineScenarioSpec(
            stream=StreamConfig(horizon=80.0, rate=0.3), seed=0)
        b = OnlineScenarioSpec(
            stream=StreamConfig(horizon=80.0, rate=0.3), seed=1)
        c = OnlineScenarioSpec(
            stream=StreamConfig(horizon=81.0, rate=0.3), seed=0)
        assert len({spec_hash(a), spec_hash(b), spec_hash(c)}) == 3

    def test_nonpreemptive_policy_runs(self):
        stream = _stream(1, horizon=60.0)
        result = OnlineAdmissionEngine(stream,
                                       policy="nonpreemptive").run()
        assert result.policy == "eq5"

    def test_edge_policy_runs_with_edge_pool(self):
        stream = _stream(1, horizon=60.0, rate=0.15, generator="edge")
        result = OnlineAdmissionEngine(stream, policy="edge").run()
        assert result.policy == "eq10"
        assert result.summary["arrivals"] == stream.num_events
