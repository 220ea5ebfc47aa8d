"""Heaviness metrics (Section VI.A of the paper).

The paper characterises workload intensity through *heaviness*:

* ``h_{i,j} = P_{i,j} / D_i`` -- heaviness of job ``J_i`` at stage
  ``S_j``;
* a job is *heavy* at ``S_j`` when ``h_{i,j} >= beta``;
* ``chi_{y,j}`` -- total heaviness of the jobs mapped to the ``y``-th
  resource of ``S_j``;
* ``H = max_{y,j} chi_{y,j}`` -- heaviness of the job set, bounded by
  the generator parameter ``gamma``;
* *rejected heaviness* (Figure 4d) -- share of total job heaviness
  carried by the jobs an admission controller rejects.
"""

from __future__ import annotations

import numpy as np

from repro.core.system import JobSet


def heaviness_matrix(jobset: JobSet) -> np.ndarray:
    """``h[i, j] = P_{i,j} / D_i``."""
    return jobset.P / jobset.D[:, None]


def job_heaviness(jobset: JobSet) -> np.ndarray:
    """Total heaviness of each job (summed over stages)."""
    return heaviness_matrix(jobset).sum(axis=1)


def heavy_mask(jobset: JobSet, beta: float) -> np.ndarray:
    """``(n, N)`` mask of (job, stage) pairs with ``h_{i,j} >= beta``."""
    return heaviness_matrix(jobset) >= beta


def resource_heaviness(jobset: JobSet) -> dict[tuple[int, int], float]:
    """``chi_{y,j}`` for every (stage, resource index) pair.

    Each total is ``h[R[:, j] == y, j].sum()`` bit for bit: a stable
    sort by resource lays every resource's jobs out contiguously in
    index order, and the same ``sum`` runs over that run.
    """
    h = heaviness_matrix(jobset)
    chi: dict[tuple[int, int], float] = {}
    for stage, count in enumerate(jobset.system.resources_per_stage):
        column = jobset.R[:, stage]
        order = np.argsort(column, kind="stable")
        bounds = np.searchsorted(column[order],
                                 np.arange(count + 1)).tolist()
        ordered = h[order, stage]
        for resource in range(count):
            chi[(stage, resource)] = float(
                ordered[bounds[resource]:bounds[resource + 1]].sum())
    return chi


def system_heaviness(jobset: JobSet) -> float:
    """``H = max_{y,j} chi_{y,j}`` (resembles total utilisation)."""
    return max(resource_heaviness(jobset).values())


def rejected_heaviness(jobset: JobSet, rejected: "list[int]") -> float:
    """Percentage of total heaviness carried by the rejected jobs."""
    weights = job_heaviness(jobset)
    total = float(weights.sum())
    if total == 0:
        return 0.0
    return 100.0 * float(weights[rejected].sum()) / total
