"""Additional pairwise assignment strategies (paper future work).

Section VII lists "further exploration of pairwise priority assignment
strategies" as future work; this module contributes three natural
candidates on top of DM/DMR, all evaluated against OPT in ablation A6:

``laxity_assignment`` / ``lmr``
    Orient each pair towards the job with the smaller *static laxity*
    ``D_i - sum_j P_{i,j}`` (how little room the job has), instead of
    the raw deadline; with the same repair phase as DMR.

``local_search``
    Greedy steepest-descent over pair orientations minimising the total
    deadline excess ``sum_i max(0, Delta_i - D_i)``.  It exploits the
    structural property that re-orienting one pair only changes the two
    incident jobs' bounds, so each candidate flip is evaluated in
    O(1) bound updates.  Random restarts escape local minima; the
    search is a heuristic (incomplete) but can find cyclic assignments
    DMR's one-directional repair cannot reach.

``opa_guided``
    Hybrid of problems P1 and P2: run OPDCA; when it fails, keep the
    partial suffix of the priority ordering it *did* build (those jobs
    are provably safe at the bottom), orient the undecided prefix by
    DM, and hand the result to the repair phase.
"""

from __future__ import annotations

import numpy as np

from repro.core.dca import DelayAnalyzer
from repro.core.opa import audsley
from repro.core.priorities import PairwiseAssignment
from repro.core.schedulability import (
    DEADLINE_TOLERANCE,
    SDCA,
    resolve_equation,
)
from repro.core.system import JobSet
from repro.pairwise.dmr import _DMRState
from repro.pairwise.results import PairwiseResult


def laxity_assignment(jobset: JobSet) -> PairwiseAssignment:
    """Orient every conflicting pair towards the smaller static laxity.

    Laxity ``D_i - sum_j P_{i,j}`` measures how much interference a job
    can absorb; ties fall back to the deadline, then the index.
    """
    laxity = jobset.D - jobset.P.sum(axis=1)
    n = jobset.num_jobs
    key = np.stack([laxity, jobset.D, np.arange(n)], axis=1)

    def wins(i: int, k: int) -> bool:
        return tuple(key[i]) <= tuple(key[k])

    x = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for k in range(i + 1, n):
            if wins(i, k):
                x[i, k] = True
            else:
                x[k, i] = True
    return PairwiseAssignment.from_matrix(jobset, x)


def lmr(jobset: JobSet, equation: str = "eq6", *,
        analyzer: DelayAnalyzer | None = None,
        max_flips: int | None = None) -> PairwiseResult:
    """Laxity-Monotonic & Repair: Algorithm 2 seeded with laxity order."""
    equation = resolve_equation(equation)
    if analyzer is None:
        analyzer = DelayAnalyzer(jobset)
    n = jobset.num_jobs
    if max_flips is None:
        max_flips = 4 * n * n
    state = _DMRState(jobset, analyzer, equation)
    state.x = laxity_assignment(jobset).matrix()
    state.refresh()
    feasible = state.repair(max_flips)
    return PairwiseResult(
        feasible=feasible,
        assignment=PairwiseAssignment.from_matrix(jobset, state.x),
        delays=state.delays.copy(),
        equation=equation,
        solver="lmr",
        stats={"flips": state.flips, "repair_rounds": state.rounds},
    )


class _FlipSearch:
    """Steepest-descent over pair orientations.

    Maintains, per job, the committed bound terms exactly like the CP
    solver so that the objective change of a candidate flip is
    evaluated from scratch only for the two incident jobs.  Job ``i``'s
    bound reads only column and row ``i`` of ``x``, and a flip of
    ``(a, b)`` changes only columns and rows ``a`` and ``b``, so the
    trial bound of ``i`` under a candidate flip stays exact until a
    committed flip involves ``i``: each pass after the first
    re-evaluates only the trial bounds of the last committed flip's
    two jobs.
    """

    def __init__(self, jobset: JobSet, analyzer: DelayAnalyzer,
                 equation: str) -> None:
        self.jobset = jobset
        self.analyzer = analyzer
        self.equation = equation
        n = jobset.num_jobs
        conflict = jobset.conflicts
        relevant = conflict & jobset.overlaps
        self.pairs = [(i, k) for i in range(n) for k in range(i + 1, n)
                      if relevant[i, k]]

    def excess(self, delays: np.ndarray) -> float:
        return float(np.maximum(0.0, delays - self.jobset.D).sum())

    def delay_of(self, x: np.ndarray, i: int) -> float:
        return self.analyzer.delay_bound(
            i, x[:, i], x[i, :], equation=self.equation)

    def descend(self, x: np.ndarray, delays: np.ndarray,
                max_steps: int) -> tuple[np.ndarray, np.ndarray, int]:
        steps = 0
        #: (i, k) -> bound of job i with the pair (i, k) flipped.
        trial: dict[tuple[int, int], float] = {}
        while steps < max_steps:
            best_gain = 1e-12
            best = None
            current = np.maximum(0.0, delays - self.jobset.D)
            for i, k in self.pairs:
                if current[i] <= 0.0 and current[k] <= 0.0:
                    continue
                new_i = trial.get((i, k))
                new_k = trial.get((k, i))
                if new_i is None or new_k is None:
                    x[i, k], x[k, i] = x[k, i], x[i, k]
                    if new_i is None:
                        new_i = trial[i, k] = self.delay_of(x, i)
                    if new_k is None:
                        new_k = trial[k, i] = self.delay_of(x, k)
                    x[i, k], x[k, i] = x[k, i], x[i, k]
                gain = (current[i] + current[k]
                        - max(0.0, new_i - self.jobset.D[i])
                        - max(0.0, new_k - self.jobset.D[k]))
                if gain > best_gain:
                    best_gain = gain
                    best = (i, k, new_i, new_k)
            if best is None:
                break
            i, k, new_i, new_k = best
            x[i, k], x[k, i] = x[k, i], x[i, k]
            delays[i] = new_i
            delays[k] = new_k
            trial = {key: value for key, value in trial.items()
                     if key[0] != i and key[0] != k}
            steps += 1
        return x, delays, steps


def local_search(jobset: JobSet, equation: str = "eq6", *,
                 analyzer: DelayAnalyzer | None = None,
                 restarts: int = 3, max_steps: int | None = None,
                 seed: int = 0) -> PairwiseResult:
    """Steepest-descent pairwise assignment with random restarts.

    Starts from the DM orientation (then random orientations on
    restart) and flips the pair with the largest total-excess
    reduction until feasible or stuck.
    """
    equation = resolve_equation(equation)
    if analyzer is None:
        analyzer = DelayAnalyzer(jobset)
    n = jobset.num_jobs
    if max_steps is None:
        max_steps = 8 * n
    search = _FlipSearch(jobset, analyzer, equation)
    rng = np.random.default_rng(seed)

    from repro.pairwise.dm import dm_assignment
    best_x = None
    best_delays = None
    best_excess = np.inf
    total_steps = 0
    for attempt in range(max(1, restarts)):
        if attempt == 0:
            x = dm_assignment(jobset).matrix()
        else:
            x = dm_assignment(jobset).matrix()
            for i, k in search.pairs:
                if rng.random() < 0.5:
                    x[i, k], x[k, i] = x[k, i], x[i, k]
        delays = analyzer.delays_for_pairwise(x, equation=equation)
        x, delays, steps = search.descend(x, delays, max_steps)
        total_steps += steps
        excess = search.excess(delays)
        if excess < best_excess:
            best_excess = excess
            best_x = x.copy()
            best_delays = delays.copy()
        if best_excess <= 0.0:
            break

    feasible = best_excess <= DEADLINE_TOLERANCE
    return PairwiseResult(
        feasible=feasible,
        assignment=PairwiseAssignment.from_matrix(jobset, best_x),
        delays=best_delays,
        equation=equation,
        solver="local_search",
        stats={"steps": total_steps, "residual_excess": best_excess,
               "restarts_used": attempt + 1},
    )


def opa_guided(jobset: JobSet, equation: str = "eq6", *,
               analyzer: DelayAnalyzer | None = None,
               max_flips: int | None = None) -> PairwiseResult:
    """OPDCA-seeded pairwise assignment with repair.

    Runs Audsley's assignment; on success the (projected) ordering is
    returned directly.  On failure the suffix of jobs that *did*
    receive (low) priorities keeps its relative order below everyone
    else, the unassigned prefix is oriented deadline-monotonically, and
    Algorithm 2's repair phase finishes the job.
    """
    equation = resolve_equation(equation)
    if analyzer is None:
        analyzer = DelayAnalyzer(jobset)
    n = jobset.num_jobs
    if max_flips is None:
        max_flips = 4 * n * n
    test = SDCA(jobset, equation, analyzer=analyzer)
    opa = audsley(n, test.is_schedulable)

    state = _DMRState(jobset, analyzer, equation)
    if opa.order:
        # priority[j] = 0 for unassigned jobs; they sit above every
        # assigned job, ordered among themselves by DM (already in x).
        assigned = list(opa.order)           # highest..lowest assigned
        unassigned = [int(j) for j in np.flatnonzero(opa.priority == 0)]
        for pos, job in enumerate(assigned):
            for below in assigned[pos + 1:]:
                if state._conflict[job, below]:
                    state.x[job, below] = True
                    state.x[below, job] = False
            for above in unassigned:
                if state._conflict[above, job]:
                    state.x[above, job] = True
                    state.x[job, above] = False
        state.refresh()
    feasible = state.repair(max_flips)
    return PairwiseResult(
        feasible=feasible,
        assignment=PairwiseAssignment.from_matrix(jobset, state.x),
        delays=state.delays.copy(),
        equation=equation,
        solver="opa_guided",
        stats={"opa_assigned": len(opa.order), "flips": state.flips},
    )
