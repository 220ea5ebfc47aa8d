"""Failure cores: a stuck certified-band run's unassigned set has no
feasible priority order, nor has any superset of it, so the cells and
the sharded engine answer a retry whose candidate contains a recorded
core without analysis.  These tests pin that

* the skip never changes a decision (skip on == skip off, bitwise, on
  every kernel tier);
* every recorded core, and any superset of it, is infeasible under a
  cold reference-kernel check;
* no core is recorded while a member's excess sits inside the seed
  pad (knife-edge universes);
* the core stores stay bounded by the retry queues.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.dca import KERNEL_TIERS
from repro.online.cell import AdmissionCell
from repro.online.incremental import (
    IncrementalAnalyzer,
    admit_outcome,
    admit_trajectory,
    cold_analysis,
    trajectory_outcome,
    witness_outcome,
)
from repro.online.sharded import ShardedAdmissionEngine
from repro.online.streams import (
    EVENT_ARRIVE,
    StreamConfig,
    clustered_stream,
    generate_stream,
    stream_events,
)
from tests.online.test_incremental import _knife_edge, _stream_universe

_POLICIES = ("eq5", "eq6")


def _congested(horizon=30.0, cross_fraction=0.15, seed=2):
    """Four clusters of congested traffic; with ``cross_fraction`` a
    share of the jobs spans two shards under ``shards=4``."""
    return clustered_stream(
        StreamConfig(horizon=horizon, rate=1.6, dwell_scale=2.0,
                     pool_size=24),
        clusters=4, cross_fraction=cross_fraction, seed=seed)


def _generated(seed):
    """One congested single-cluster stream."""
    return generate_stream(
        StreamConfig(horizon=30.0, rate=2.0, dwell_scale=1.0,
                     pool_size=12), seed=seed)


def _stream_for(shards):
    """A congested stream whose retries meet recorded cores under both
    eq5 and eq6 at this shard count.  (eq5's cores are whole active
    sets, which a departure usually breaks, so few streams show eq5
    hits on one shard.)"""
    if shards == 1:
        return _generated(21)
    return _congested()


def _log(engine):
    """The ``record_decisions`` log with results reduced to their
    verdict, accepted set and ordering bytes."""
    rows = []
    for index, kind, uid, candidate, result in engine.decisions:
        if result is None or result is True:
            outcome = result
        else:
            outcome = (tuple(result.accepted), tuple(result.rejected),
                       result.ordering.tobytes())
        rows.append((index, kind, uid, candidate, outcome))
    return rows


class TestSkipIsInvisible:
    @pytest.mark.parametrize("kernel", KERNEL_TIERS)
    @pytest.mark.parametrize("policy", _POLICIES)
    @pytest.mark.parametrize("shards", (1, 4))
    def test_cell_core_skip_changes_nothing(self, shards, policy, kernel,
                                            monkeypatch):
        """A core store that never matches runs every retry through
        the controller; the deterministic result and the decision log
        are identical to the run the cores answered."""
        stream = _stream_for(shards)

        def run():
            engine = ShardedAdmissionEngine(
                stream, shards=shards, policy=policy, kernel=kernel,
                record_decisions=True)
            result = engine.run()
            hits = sum(cell.core_hits for cell in engine.cells)
            return result.deterministic_dict(), _log(engine), hits

        on, on_log, on_hits = run()
        monkeypatch.setattr(AdmissionCell, "_core_covered",
                            lambda self, candidate: False)
        off, off_log, off_hits = run()
        assert on_hits > 0 and off_hits == 0
        assert on == off
        assert on_log == off_log

    @pytest.mark.parametrize("policy", _POLICIES)
    def test_sharded_core_skip_changes_no_verdict(self, policy,
                                                  monkeypatch):
        """Without certificate cores every cross-shard retry and every
        re-certification runs in full; the event records and the final
        admitted set are identical, and only the work counters drop.
        (eq5's certificate cores are whole candidates, which a later
        candidate rarely contains, so only eq6 must skip some work.)"""
        stream = _congested()

        def run():
            engine = ShardedAdmissionEngine(stream, shards=4,
                                            policy=policy)
            return engine.run().deterministic_dict()

        on = run()
        monkeypatch.setattr(ShardedAdmissionEngine, "_core_of",
                            staticmethod(lambda candidate, outcome: None))
        off = run()
        assert on["records"] == off["records"]
        assert on["final_admitted"] == off["final_admitted"]
        on_sharding = on["summary"].pop("sharding")
        off_sharding = off["summary"].pop("sharding")
        assert on["summary"] == off["summary"]
        assert on_sharding["revocations"] == off_sharding["revocations"]

        def work(sharding):
            return sharding["global_certifies"] + sum(
                shard["decisions"] for shard in sharding["per_shard"])

        skipped = work(off_sharding) - work(on_sharding)
        assert skipped > 0 if policy == "eq6" else skipped >= 0


def _cold_infeasible(universe, members, policy):
    analysis = cold_analysis(universe, sorted(members), policy)
    return admit_trajectory(analysis, mode="cold") is None


def _assert_core_infeasible(universe, core, policy, rng):
    """``core`` and a random superset of it fail a cold
    reference-kernel admission."""
    assert _cold_infeasible(universe, core, policy), sorted(core)
    others = np.setdiff1d(np.arange(universe.num_jobs),
                          np.fromiter(core, dtype=np.int64))
    extra = rng.choice(others, size=min(others.size, 1 + len(core) // 2),
                       replace=False)
    superset = set(core) | {int(uid) for uid in extra}
    assert _cold_infeasible(universe, superset, policy), sorted(superset)


class TestCoresAreInfeasible:
    @pytest.mark.parametrize("equation", ("eq3", "eq5", "eq6"))
    @pytest.mark.parametrize("seed", (9, 21))
    def test_controller_cores(self, seed, equation):
        """Every core the three controllers hand back over runs of
        consecutive arrivals (congested, unlike scattered subsets):
        the discarded job belongs to its discard level's core, and
        each core and a superset fail cold."""
        universe = _generated(seed).universe()
        inc = IncrementalAnalyzer(universe, equation)
        rng = np.random.default_rng(seed)
        recorded = 0
        for _ in range(12):
            size = int(rng.integers(10, min(40, universe.num_jobs)))
            start = int(rng.integers(0, universe.num_jobs - size + 1))
            indices = np.arange(start, start + size)
            analysis = inc.subset(indices)
            full = admit_outcome(analysis)
            assert len(full.cores) == len(full.result.rejected)
            found = []
            for job, core in zip(full.result.rejected, full.cores):
                if core is not None:
                    assert job in core.tolist()
                    found.append(core)
            for run in (trajectory_outcome, witness_outcome):
                outcome = run(analysis)
                if outcome.result is None:
                    assert len(outcome.cores) == 1
                    found.extend(c for c in outcome.cores if c is not None)
                else:
                    assert outcome.cores == ()
            for core in found:
                _assert_core_infeasible(
                    universe, set(indices[core].tolist()), equation, rng)
                recorded += 1
        assert recorded > 0

    @pytest.mark.parametrize("policy", _POLICIES)
    @pytest.mark.parametrize("shards", (1, 4))
    def test_engine_cores(self, shards, policy, monkeypatch):
        """Every core a cell parks or a cross-shard certificate refusal
        stores on a congested stream."""
        cell_cores = []
        keep = AdmissionCell._keep_proved

        def spy(self, candidate, failed, cores):
            keep(self, candidate, failed, cores)
            cell_cores.extend((self.universe, core)
                              for core in self._proved.values())

        cross_cores = []
        core_of = ShardedAdmissionEngine._core_of

        def spy_core_of(candidate, outcome):
            core = core_of(candidate, outcome)
            if core is not None:
                cross_cores.append(core)
            return core

        monkeypatch.setattr(AdmissionCell, "_keep_proved", spy)
        monkeypatch.setattr(ShardedAdmissionEngine, "_core_of",
                            staticmethod(spy_core_of))
        engine = ShardedAdmissionEngine(_stream_for(shards),
                                        shards=shards, policy=policy)
        engine.run()
        assert cell_cores
        if shards > 1:
            assert cross_cores
        rng = np.random.default_rng(shards)
        distinct = list({(id(universe), core): (universe, core)
                         for universe, core in cell_cores}.values())
        for pick in rng.permutation(len(distinct))[:40]:
            universe, core = distinct[pick]
            _assert_core_infeasible(universe, core, policy, rng)
        for core in sorted(set(cross_cores), key=sorted)[:40]:
            _assert_core_infeasible(engine.universe, core, policy, rng)


class TestSeedPad:
    @pytest.mark.parametrize("equation", ("eq3", "eq5", "eq6"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_knife_edge_records_no_core_inside_the_pad(self, seed,
                                                       equation):
        """The most slack job misses by ``tol + 0.25e-9 * D``, inside
        the pad: the stuck first level records no core.  A miss of
        ``tol + 4e-9 * D`` clears the pad and records the whole set."""
        base = _stream_universe("clustered", seed)
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(base.num_jobs, size=12,
                                     replace=False))
        for margin, recorded in ((0.25, False), (4.0, True)):
            universe = _knife_edge(base, indices, equation, margin)
            analysis = IncrementalAnalyzer(universe, equation) \
                .subset(indices)
            whole = list(range(indices.size))
            for run in (trajectory_outcome, witness_outcome):
                outcome = run(analysis)
                assert outcome.result is None
                (core,) = outcome.cores
                if recorded:
                    assert core.tolist() == whole
                else:
                    assert core is None
            first = admit_outcome(analysis).cores[0]
            if recorded:
                assert first.tolist() == whole
            else:
                assert first is None


class TestBoundedState:
    @pytest.mark.parametrize("retry_limit", (16, 2, 0))
    @pytest.mark.parametrize("shards", (1, 4))
    def test_core_keys_stay_inside_the_queues(self, shards, retry_limit):
        """After every event, each cell keeps cores only for parked
        jobs and the engine only for queued cross-shard jobs."""
        stream = _congested()
        engine = ShardedAdmissionEngine(stream, shards=shards,
                                        retry_limit=retry_limit)
        cores = 0
        for now, kind, uid in stream_events(stream):
            engine.process(
                now, "arrive" if kind == EVENT_ARRIVE else "depart", uid)
            for cell in engine.cells:
                assert set(cell._cores) <= set(cell.retry_queue)
                cores += len(cell._cores)
            assert set(engine._cross_failed) <= \
                set(engine.cross_retry_queue)
        if retry_limit:
            assert cores > 0


class TestTelemetry:
    def test_core_hits_reach_the_registry(self):
        counter = obs.get_registry().counter(
            "repro_core_hits_total",
            "All-or-nothing decisions answered by a parked job's "
            "failure core.")
        before = counter.value
        engine = ShardedAdmissionEngine(_congested(), policy="eq6")
        engine.run()
        (cell,) = engine.cells
        assert cell.core_hits > 0
        assert cell.obs_stats()["core_hits"] == cell.core_hits
        assert counter.value - before == cell.core_hits
