"""Tests for the AdmissionCell decision core (the extracted
admit/evict/retry heart of the online engine)."""

import gc
import weakref

import pytest

from repro.online.cell import DECISION_MEMO_LIMIT, AdmissionCell
from repro.online.sharded import ShardedAdmissionEngine
from repro.online.streams import (
    StreamConfig,
    clustered_stream,
    generate_stream,
)


def _universe(seed=0, *, rate=0.5, horizon=80.0, **kwargs):
    stream = generate_stream(
        StreamConfig(kind="poisson", horizon=horizon, rate=rate,
                     **kwargs), seed=seed)
    departure_of = {event.uid: event.departure
                    for event in stream.events}
    return stream.universe(), departure_of


class TestCellMechanics:
    def test_arrival_admits_into_empty_cell(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        event = cell.arrival(0)
        assert event.decision == "accept"
        assert cell.is_admitted(0)
        assert cell.admitted == frozenset({0})
        assert event.candidate == (0,)
        assert event.evicted == ()

    def test_departure_frees_and_expires(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        cell.arrival(0)
        assert cell.departure(0).decision == "free"
        assert cell.departure(0).decision == "noop"
        assert not cell.admitted

    def test_rejected_jobs_are_parked_and_expired(self):
        universe, dep = _universe(seed=2, rate=0.9, horizon=120.0,
                                  dwell_scale=2.0)
        cell = AdmissionCell(universe, departure_of=dep)
        parked = None
        for uid in range(universe.num_jobs):
            event = cell.arrival(uid)
            if event.decision == "reject" and not event.escalated:
                parked = uid
                break
        assert parked is not None, "stream too light to congest"
        assert parked in cell.retry_queue
        assert cell.departure(parked).decision == "expire"
        assert parked not in cell.retry_queue

    def test_retry_pass_is_all_or_nothing(self):
        universe, dep = _universe(seed=2, rate=0.9, horizon=120.0,
                                  dwell_scale=2.0)
        cell = AdmissionCell(universe, departure_of=dep)
        for uid in range(universe.num_jobs):
            cell.arrival(uid)
        if not cell.retry_queue:
            pytest.skip("no congestion at this seed")
        admitted_before = set(cell.admitted)
        for event in cell.retry_pass(now=0.0):
            if event.decision == "accept":
                # never evicts anyone to make room
                assert admitted_before <= set(cell.admitted)
                admitted_before = set(cell.admitted)

    def test_decision_memo_caps_at_limit(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        for uid in range(min(universe.num_jobs, 30)):
            cell.arrival(uid)
        assert len(cell._decision_memo) <= DECISION_MEMO_LIMIT

    def test_memo_answers_repeat_decisions_without_analysis(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        cell.arrival(0)
        count = cell.decision_count
        # same candidate set again: memo hit, but still counted
        cell.decide([0])
        assert cell.decision_count == count + 1

    def test_validation(self):
        universe, dep = _universe()
        with pytest.raises(ValueError):
            AdmissionCell(universe, mode="warm")
        with pytest.raises(ValueError):
            AdmissionCell(universe, retry_limit=-1)
        with pytest.raises(ValueError):
            AdmissionCell(universe, kernel="fast")


class TestParkableHook:
    def test_unparkable_jobs_escalate(self):
        universe, dep = _universe(seed=2, rate=0.9, horizon=120.0,
                                  dwell_scale=2.0)
        cell = AdmissionCell(universe, departure_of=dep,
                             parkable=lambda uid: False)
        saw_escalation = False
        for uid in range(universe.num_jobs):
            event = cell.arrival(uid)
            if event.decision == "reject":
                assert uid in event.escalated
                saw_escalation = True
            assert cell.retry_queue == ()
        assert saw_escalation

    def test_escalated_jobs_cause_no_drops(self):
        universe, dep = _universe(seed=2, rate=0.9, horizon=120.0,
                                  dwell_scale=2.0)
        cell = AdmissionCell(universe, departure_of=dep, retry_limit=1,
                             parkable=lambda uid: False)
        for uid in range(universe.num_jobs):
            event = cell.arrival(uid)
            assert event.retry_drops == 0


class TestReservation:
    def test_reserve_is_pure(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        cell.arrival(0)
        before = set(cell.admitted)
        reservation = cell.reserve(1)
        assert set(cell.admitted) == before
        assert reservation.uid == 1
        assert reservation.candidate == tuple(sorted(before | {1}))

    def test_commit_applies_a_successful_reservation(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        cell.arrival(0)
        reservation = cell.reserve(1)
        if not reservation.accepted:
            pytest.skip("jobs 0+1 do not fit together at this seed")
        event = cell.commit_reservation(reservation)
        assert event.decision == "accept"
        assert cell.is_admitted(1)

    def test_commit_rejects_failed_or_stale_reservations(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        cell.arrival(0)
        reservation = cell.reserve(1)
        if not reservation.accepted:
            pytest.skip("jobs 0+1 do not fit together at this seed")
        cell.arrival(2)  # admitted set moved on: reservation is stale
        if cell.is_admitted(2):
            with pytest.raises(ValueError):
                cell.commit_reservation(reservation)
        from repro.online.cell import Reservation

        failed = Reservation(uid=1, candidate=(0, 1), result=None)
        with pytest.raises(ValueError):
            cell.commit_reservation(failed)

    def test_evict_revokes_residency(self):
        universe, dep = _universe()
        cell = AdmissionCell(universe, departure_of=dep)
        cell.arrival(0)
        assert cell.evict(0) is True
        assert not cell.is_admitted(0)
        assert cell.evict(0) is False

    def test_unpark_removes_silently(self):
        universe, dep = _universe(seed=2, rate=0.9, horizon=120.0,
                                  dwell_scale=2.0)
        cell = AdmissionCell(universe, departure_of=dep)
        for uid in range(universe.num_jobs):
            cell.arrival(uid)
        if not cell.retry_queue:
            pytest.skip("no congestion at this seed")
        uid = cell.retry_queue[0]
        assert cell.unpark(uid) is True
        assert uid not in cell.retry_queue
        assert cell.unpark(uid) is False


class TestMemoryRelease:
    @pytest.mark.parametrize("shards", (1, 4))
    def test_deleted_engine_needs_no_cyclic_gc(self, shards):
        """Parked memo results hold thin delay rebuilders, not
        reference cycles: with the cyclic collector off, dropping the
        engine frees every cell's analyzer at once, and a collection
        afterwards finds no unreachable ``repro`` object."""
        stream = clustered_stream(
            StreamConfig(horizon=30.0, rate=1.6, dwell_scale=2.0,
                         pool_size=24), clusters=4, seed=2)
        gc.collect()
        gc.disable()
        try:
            engine = ShardedAdmissionEngine(stream, shards=shards)
            engine.run()
            parked = sum(len(cell._decision_memo) for cell in engine.cells)
            analyzers = [weakref.ref(cell.incremental)
                         for cell in engine.cells]
            del engine
            assert parked
            assert all(ref() is None for ref in analyzers)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage
                      if type(obj).__module__.startswith("repro.")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []
