"""Discrete-event simulator for MSMR pipelines.

Simulates the exact system model of Section II: jobs enter stage 1 at
their arrival times, proceed through the stages in order, and at every
stage queue for the single resource they are mapped to.  Each resource
schedules by fixed priority -- preemptively or non-preemptively
according to its stage -- under any :mod:`repro.sim.policies` policy.

The simulator serves three roles in the reproduction:

* it is the DCMP baseline's acceptance test with immediate release
  (the paper simulates the decomposed jobs because no analytical test
  exists for them), and the oracle of the budget-release loop;
* it validates the DCA bounds empirically (simulated delay <= bound for
  total orderings -- ablation A3);
* it powers the runnable examples (traces, Gantt strips).
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.system import JobSet
from repro.sim.metrics import SimulationResult
from repro.sim.policies import DispatchPolicy, make_policy
from repro.sim.trace import ExecutionInterval, Trace

#: Event kinds, ordered so completions at time t are handled before
#: arrivals at time t (a freed resource is re-dispatched first).
_COMPLETE, _ARRIVE = 0, 1


class _Resource:
    """Runtime state of one resource.

    ``__slots__`` keeps the per-resource footprint flat and attribute
    access monomorphic in the hot event loop.  ``stale_job`` /
    ``stale_time`` remember the completion event invalidated by the
    most recent preemption so an immediate re-dispatch of the same job
    can revalidate it instead of pushing a duplicate into the heap.
    """

    __slots__ = ("stage", "index", "ready", "running", "run_start",
                 "token", "stale_job", "stale_time")

    def __init__(self, stage: int, index: int) -> None:
        self.stage = stage
        self.index = index
        self.ready: list[int] = []
        self.running: int | None = None
        self.run_start = 0.0
        self.token = 0
        self.stale_job: int | None = None
        self.stale_time = -1.0


class PipelineSimulator:
    """Event-driven execution of a job set under a dispatch policy.

    Parameters
    ----------
    jobset:
        The job set (arrivals, processing times, mapping).
    policy:
        A :class:`~repro.sim.policies.DispatchPolicy`, or anything
        :func:`~repro.sim.policies.make_policy` accepts (a
        :class:`PriorityOrdering`, a :class:`PairwiseAssignment`, a rank
        vector, or a per-stage rank matrix).
    preemptive:
        Per-stage preemption flags; defaults to the system's stage
        flags.
    max_events:
        Safety valve against runaway simulations.
    arrival_order:
        Order in which the initial arrival events are *inserted* into
        the event queue (a permutation of the job indices; default
        ``0..n-1``).  Simulation semantics must not depend on
        insertion order -- the instant-batch dispatch absorbs every
        event at a time point before dispatching -- and the
        property tests drive this knob to prove trace invariance.
    """

    def __init__(self, jobset: JobSet, policy, *,
                 preemptive: "list[bool] | None" = None,
                 max_events: int | None = None,
                 arrival_order: "list[int] | None" = None) -> None:
        self._jobset = jobset
        self._policy: DispatchPolicy = (
            policy if hasattr(policy, "select") and hasattr(policy, "beats")
            else make_policy(policy))
        if preemptive is None:
            preemptive = list(jobset.system.preemptive_flags)
        if len(preemptive) != jobset.num_stages:
            raise ValueError(
                f"{len(preemptive)} preemption flags for "
                f"{jobset.num_stages} stages")
        self._preemptive = list(preemptive)
        n_events_floor = jobset.num_jobs * jobset.num_stages * 8
        self._max_events = max_events or max(100_000, n_events_floor * 4)
        if arrival_order is None:
            arrival_order = list(range(jobset.num_jobs))
        if sorted(arrival_order) != list(range(jobset.num_jobs)):
            raise ValueError(
                f"arrival_order must be a permutation of "
                f"0..{jobset.num_jobs - 1}, got {arrival_order}")
        self._arrival_order = list(arrival_order)

    def run(self) -> SimulationResult:
        """Simulate to completion and return the measured result."""
        jobset = self._jobset
        n, num_stages = jobset.num_jobs, jobset.num_stages
        resources = {
            (stage, index): _Resource(stage, index)
            for stage in range(num_stages)
            for index in range(jobset.system.stages[stage].num_resources)
        }
        # Per-(job, stage) resource table: one list indexing replaces a
        # tuple build + dict lookup + numpy scalar conversion per event.
        mapping = jobset.R
        res_of = [[resources[(stage, int(mapping[job, stage]))]
                   for stage in range(num_stages)]
                  for job in range(n)]
        remaining = jobset.P.astype(float).copy()
        finish = np.full(n, np.nan)
        trace = Trace()
        add_interval = trace.add
        counter = itertools.count()
        events: list[tuple] = []
        # Hot-loop hoists: every name the heap loop touches per event
        # is a local, not an attribute chain.
        heappush, heappop = heapq.heappush, heapq.heappop
        policy = self._policy
        policy_select, policy_beats = policy.select, policy.beats
        preemptive = self._preemptive
        max_events = self._max_events

        def record(job: int, res: _Resource, start: float, end: float,
                   completed: bool) -> None:
            if end > start or completed:
                add_interval(ExecutionInterval(
                    job=job, stage=res.stage, resource=res.index,
                    start=start, end=end, completed=completed))

        def start_next(res: _Resource, now: float) -> None:
            if res.running is not None or not res.ready:
                return
            job = policy_select(res.ready, res.stage)
            res.ready.remove(job)
            res.running = job
            res.run_start = now
            finish_at = now + remaining[job, res.stage]
            if res.stale_job == job and res.stale_time == finish_at \
                    and finish_at > now:
                # The completion event invalidated by the preemption an
                # instant ago still sits in the heap with exactly this
                # (job, time): step the token back to revalidate it
                # instead of re-pushing an unchanged event.  Strictly
                # future events cannot have been popped yet, so the
                # revalidated entry is guaranteed live.
                res.token -= 1
                res.stale_job = None
                return
            res.stale_job = None
            res.token += 1
            heappush(events, (finish_at, _COMPLETE, next(counter), job,
                              res.stage, res.token))

        def preempt(res: _Resource, now: float) -> None:
            job = res.running
            assert job is not None
            remaining[job, res.stage] -= now - res.run_start
            record(job, res, res.run_start, now, completed=False)
            res.ready.append(job)
            res.running = None
            res.stale_job = job
            res.stale_time = now + remaining[job, res.stage]
            res.token += 1  # invalidate the pending completion

        for job in self._arrival_order:
            heappush(events, (float(jobset.A[job]), _ARRIVE,
                              next(counter), job, 0, -1))

        processed = 0
        while events:
            time = events[0][0]
            touched: dict[int, _Resource] = {}

            # Phase 1: absorb every event at this instant, so that
            # simultaneous arrivals (e.g. the batch release of the edge
            # workload) compete before any dispatch decision is taken.
            while events and events[0][0] == time:
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; "
                        f"simulation is likely stuck")
                _, kind, _, job, stage, token = heappop(events)
                res = res_of[job][stage]
                if kind == _ARRIVE:
                    res.ready.append(job)
                    touched[id(res)] = res
                    continue
                # Completion: only valid if the token is still current.
                if token != res.token or res.running != job:
                    continue
                record(job, res, res.run_start, time, completed=True)
                remaining[job, stage] = 0.0
                res.running = None
                res.token += 1
                if stage + 1 < num_stages:
                    heappush(events, (time, _ARRIVE, next(counter), job,
                                      stage + 1, -1))
                else:
                    finish[job] = time
                touched[id(res)] = res

            # Phase 2: dispatch on every touched resource (preempting
            # first where allowed).  Zero-length executions complete at
            # the same instant; the outer loop picks them up as a new
            # batch at the same time value.
            for res in touched.values():
                if (res.running is not None and res.ready
                        and preemptive[res.stage]):
                    best = policy_select(res.ready, res.stage)
                    if policy_beats(best, res.running, res.stage):
                        preempt(res, time)
                start_next(res, time)

        if np.isnan(finish).any():
            missing = [int(i) for i in np.flatnonzero(np.isnan(finish))]
            raise SimulationError(f"jobs never finished: {missing}")
        return SimulationResult(jobset=jobset, finish_times=finish,
                                trace=trace)


def simulate(jobset: JobSet, priorities, *,
             preemptive: "list[bool] | None" = None) -> SimulationResult:
    """One-shot convenience wrapper around :class:`PipelineSimulator`."""
    return PipelineSimulator(jobset, priorities,
                             preemptive=preemptive).run()
