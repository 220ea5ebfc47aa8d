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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import JobSet, MSMRSystem, Stage
from repro.sim.engine import PipelineSimulator
from repro.sim.metrics import SimulationResult
from repro.sim.policies import PerStagePolicy
from repro.workload.heaviness import resource_heaviness


@dataclass
class DCMPResult:
    """Outcome of the DCMP baseline on one test case."""

    feasible: bool
    virtual_deadlines: np.ndarray
    rank: np.ndarray
    simulation: SimulationResult
    #: ``(n, N)`` bool: stage completions violating the cumulative
    #: virtual deadlines.
    stage_misses: np.ndarray = None

    @property
    def delays(self) -> np.ndarray:
        return self.simulation.delays

    @property
    def end_to_end_feasible(self) -> bool:
        """Whether plain end-to-end deadlines were met (a weaker
        criterion than the per-stage budgets DCMP is judged on)."""
        return self.simulation.all_met


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
    if release == "immediate":
        simulator = PipelineSimulator(jobset, PerStagePolicy(rank),
                                      preemptive=preemptive)
        result = simulator.run()
        stage_misses = result.stage_finish_times() > budgets + 1e-9
        return DCMPResult(feasible=not bool(stage_misses.any()),
                          virtual_deadlines=virtual, rank=rank,
                          simulation=result, stage_misses=stage_misses)
    # Budget release: simulate each stage as an independent
    # single-stage system whose jobs arrive at the budget boundary.
    stage_misses = np.zeros((jobset.num_jobs, jobset.num_stages),
                            dtype=bool)
    last_result = None
    for j in range(jobset.num_stages):
        stage_jobset = _stage_subproblem(jobset, j, budgets, virtual)
        flags = ([preemptive[j]] if preemptive is not None
                 else [jobset.system.stages[j].preemptive])
        simulator = PipelineSimulator(
            stage_jobset, PerStagePolicy(rank[:, j:j + 1]),
            preemptive=flags)
        last_result = simulator.run()
        stage_misses[:, j] = \
            last_result.finish_times > budgets[:, j] + 1e-9
    return DCMPResult(feasible=not bool(stage_misses.any()),
                      virtual_deadlines=virtual, rank=rank,
                      simulation=last_result, stage_misses=stage_misses)


def _stage_subproblem(jobset: JobSet, stage: int, budgets: np.ndarray,
                      virtual: np.ndarray) -> JobSet:
    """Single-stage job set for the budget-release DCMP variant."""
    source = jobset.system.stages[stage]
    system = MSMRSystem([Stage(num_resources=source.num_resources,
                               preemptive=source.preemptive,
                               name=source.name)])
    releases = (budgets[:, stage] - virtual[:, stage])
    return JobSet.from_arrays(
        system, jobset.P[:, stage:stage + 1],
        np.maximum(virtual[:, stage], 1e-9),
        jobset.R[:, stage:stage + 1], A=releases)
