"""DCMP -- decomposition-based baseline (Section VI.A).

DCMP represents the classical approach the paper argues against:
decompose the end-to-end deadline into per-stage *virtual deadlines*
and schedule each stage independently.  Following the paper:

* the virtual deadline of ``J_i`` at ``S_j`` is
  ``D_i * Upsilon_{i,j} / sum_j Upsilon_{i,j}``, where
  ``Upsilon_{i,j}`` is the total heaviness of the jobs mapped to the
  resource ``R_{i,j}`` (stages with more contention receive a larger
  share of the deadline);
* per-stage priorities are assigned in inverse order of the virtual
  deadline (virtual-deadline-monotonic);
* because no analytical schedulability test applies to the decomposed
  jobs in this setting, acceptance is decided by *simulating* the
  decomposed jobs under those per-stage priorities: a test case is
  accepted iff every job meets every cumulative virtual deadline
  ``A_i + sum_{j' <= j} d_{i,j'}`` at each stage.  (Checking only the
  end-to-end deadline would make simulation-based DCMP trivially
  dominate every analytical test, contradicting Figure 4; the
  decomposition's whole point -- and weakness -- is that each stage
  must fit its budget.)

Budget release decouples the stages completely, so each stage is a
set of independent single-resource fixed-priority schedules:
:func:`fixed_priority_finish` runs them directly, with finish times
bitwise equal to :class:`~repro.sim.engine.PipelineSimulator` on the
single-stage sub-problem (the tests keep the simulator as the oracle).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.system import JobSet, _check_job_rows
from repro.sim.engine import PipelineSimulator
from repro.sim.metrics import TIME_TOLERANCE, SimulationResult
from repro.sim.policies import PerStagePolicy
from repro.workload.heaviness import resource_heaviness


@dataclass
class DCMPResult:
    """Outcome of the DCMP baseline on one test case."""

    feasible: bool
    virtual_deadlines: np.ndarray
    rank: np.ndarray
    #: ``(n, N)`` completion time of every job at every stage.
    stage_finish: np.ndarray
    #: ``(n, N)`` bool: stage completions violating the cumulative
    #: virtual deadlines.
    stage_misses: np.ndarray
    jobset: JobSet
    #: The pipeline simulation (``release="immediate"`` only).
    simulation: "SimulationResult | None" = None

    @property
    def delays(self) -> np.ndarray:
        """End-to-end delays: last-stage finish time minus arrival."""
        return self.stage_finish[:, -1] - self.jobset.A

    @property
    def end_to_end_feasible(self) -> bool:
        """Whether plain end-to-end deadlines were met (a weaker
        criterion than the per-stage budgets DCMP is judged on)."""
        return not bool(
            (self.delays > self.jobset.D + TIME_TOLERANCE).any())


def virtual_deadlines(jobset: JobSet) -> np.ndarray:
    """Per-stage virtual deadlines ``D_i * Upsilon_ij / sum_j
    Upsilon_ij``."""
    # chi of the specific resource each job uses at each stage.
    chi = resource_heaviness(jobset)
    upsilon = np.array([[chi[(j, r)] for j, r in enumerate(row)]
                        for row in jobset.R.tolist()])
    shares = upsilon / upsilon.sum(axis=1, keepdims=True)
    return jobset.D[:, None] * shares


def stage_ranks(virtual: np.ndarray) -> np.ndarray:
    """Priority ranks per stage: shorter virtual deadline = higher.

    Ties break by job index, making the baseline deterministic.
    """
    n, num_stages = virtual.shape
    rank = np.empty((n, num_stages), dtype=np.int64)
    for j in range(num_stages):
        order = np.lexsort((np.arange(n), virtual[:, j]))
        rank[order, j] = np.arange(1, n + 1)
    return rank


def dcmp(jobset: JobSet, *,
         preemptive: "list[bool] | None" = None,
         release: str = "immediate") -> DCMPResult:
    """Run the DCMP baseline on a job set.

    ``preemptive`` defaults to the system's per-stage flags (for the
    edge pipeline: non-preemptive uplink/downlink, preemptive server).

    ``release`` selects when a decomposed stage job becomes ready:

    * ``"immediate"`` -- as soon as the previous stage completes
      (work-conserving pipeline, the generous reading);
    * ``"budget"`` -- at the previous stage's virtual-deadline boundary
      ``A_i + sum_{j' < j} d_{i,j'}`` (fully decoupled stages, the
      strict reading of "decomposed jobs").

    Acceptance always requires every cumulative virtual deadline to be
    met, which in either mode implies the end-to-end deadline.
    """
    if release not in ("immediate", "budget"):
        raise ValueError(
            f"release must be 'immediate' or 'budget', got {release!r}")
    virtual = virtual_deadlines(jobset)
    rank = stage_ranks(virtual)
    budgets = jobset.A[:, None] + np.cumsum(virtual, axis=1)
    simulation = None
    if release == "immediate":
        simulation = PipelineSimulator(jobset, PerStagePolicy(rank),
                                       preemptive=preemptive).run()
        stage_finish = simulation.stage_finish_times()
    else:
        # Budget release: each stage is an independent single-stage
        # system whose jobs arrive at the budget boundary.
        if preemptive is None:
            preemptive = jobset.system.preemptive_flags
        releases = budgets - virtual
        stage_finish = np.empty((jobset.num_jobs, jobset.num_stages))
        for j in range(jobset.num_stages):
            # The single-stage job set of the decomposition must be a
            # valid one: a stage with a zero processing time is not.
            _check_job_rows(jobset.P[:, j:j + 1],
                            np.maximum(virtual[:, j], 1e-9),
                            jobset.R[:, j:j + 1])
            stage_finish[:, j] = fixed_priority_finish(
                releases[:, j], jobset.P[:, j], jobset.R[:, j],
                rank[:, j], preemptive[j])
    stage_misses = stage_finish > budgets + 1e-9
    return DCMPResult(feasible=not bool(stage_misses.any()),
                      virtual_deadlines=virtual, rank=rank,
                      stage_finish=stage_finish,
                      stage_misses=stage_misses, jobset=jobset,
                      simulation=simulation)


def fixed_priority_finish(release: np.ndarray, processing: np.ndarray,
                          resource: np.ndarray, rank: np.ndarray,
                          preemptive: bool) -> np.ndarray:
    """Finish times of one stage's jobs, each resource scheduled by
    fixed priority on its own.

    Job ``i`` is released at ``release[i]``, needs ``processing[i]``
    on resource ``resource[i]`` and has priority ``rank[i]`` (lower
    is higher, ties to the lower index).  The loop replays
    :class:`~repro.sim.engine.PipelineSimulator` on the single-stage
    job set, float operation for float operation: all events of an
    instant are absorbed before the dispatch, a preempted job keeps
    ``remaining - (now - start)`` of its work, and a job completes at
    ``start + remaining``.
    """
    release_of = release.tolist()
    work = processing.tolist()
    key = list(zip(rank.tolist(), range(len(work))))
    finish = np.empty(len(work))
    # Per resource, jobs by release time (ties in index order).
    order = np.lexsort((release, resource))
    bounds = np.flatnonzero(np.diff(resource[order])) + 1
    for jobs in np.split(order, bounds):
        jobs = jobs.tolist()
        ready: list[tuple] = []
        running = None
        start = done = 0.0
        pos, count = 0, len(jobs)
        while pos < count or running is not None:
            now = release_of[jobs[pos]] if pos < count else np.inf
            if running is not None and done <= now:
                now = done
                finish[running] = done
                running = None
            while pos < count and release_of[jobs[pos]] == now:
                heapq.heappush(ready, key[jobs[pos]])
                pos += 1
            if not ready:
                continue
            if running is not None:
                if not preemptive or ready[0][0] >= key[running][0]:
                    continue
                work[running] -= now - start
                heapq.heappush(ready, key[running])
            running = heapq.heappop(ready)[1]
            start = now
            done = now + work[running]
    return finish
