"""OPDCA -- Optimal Priority assignment based on ``S_DCA`` (Algorithm 1).

OPDCA runs Audsley's OPA with the OPA-compatible DCA schedulability
test: priorities ``n`` down to ``1`` are assigned greedily, each level
going to any yet-unassigned job whose delay bound (with all remaining
unassigned jobs assumed higher priority) meets its deadline.

Observation IV.3: OPDCA is optimal with respect to ``S_DCA`` -- it finds
a feasible total priority ordering whenever any fixed-priority algorithm
could, for both preemptive (Eq. 6) and non-preemptive (Eq. 5)
scheduling, as well as for the edge bound (Eq. 10).

Complexity: the paper states ``O(n^2)`` schedulability tests of
``O(nN)`` each, hence ``O(n^3 N)`` overall.  The default batch
implementation beats that: the paired contribution kernels evaluate a
whole level in ``O(n^2)`` reductions (plus one row-max per stage), and
the frontier-carrying engine (:func:`repro.core.opa.audsley_frontier`)
skips the evaluation of every level whose carried frontier candidate
is still known feasible -- for the float-monotone bounds a feasible
instance costs one full level evaluation total.  ``eq10`` carries each
candidate's evaluated bound plus a safety margin instead, and spends a
fused ``O(nN)`` probe only on a carried candidate inside that margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.opa import OPAResult, audsley, audsley_frontier
from repro.core.priorities import PriorityOrdering
from repro.core.schedulability import SDCA, Policy
from repro.core.system import JobSet


@dataclass
class OPDCAResult:
    """Outcome of an OPDCA run.

    Attributes
    ----------
    feasible:
        True iff a full priority ordering was found.
    ordering:
        The computed :class:`PriorityOrdering` (None when infeasible).
    delays:
        Delay bounds of all jobs under the final ordering (None when
        infeasible).  Always satisfies ``delays <= D`` on success.
    opa:
        The raw engine result, including failure diagnostics.
    equation:
        The DCA bound that was used.
    """

    feasible: bool
    ordering: PriorityOrdering | None
    delays: np.ndarray | None
    opa: OPAResult
    equation: str


def opdca(jobset: JobSet,
          policy: "str | Policy" = Policy.PREEMPTIVE, *,
          test: SDCA | None = None, batch: bool = True) -> OPDCAResult:
    """Compute an optimal priority ordering for ``jobset``.

    Parameters
    ----------
    jobset:
        The job set (and implicit job-to-resource mapping) to schedule.
    policy:
        Scheduling policy or raw equation name; the default preemptive
        policy uses the refined Eq. 6 bound.
    test:
        Optionally supply a pre-built :class:`SDCA` (must belong to
        ``jobset``); lets callers reuse the segment cache.
    batch:
        Use the vectorised, frontier-carrying per-level candidate
        evaluation (:func:`~repro.core.opa.audsley_frontier` over the
        analyzer's paired level kernel); the default.  For the
        OPA-compatible bounds only the first level (and any level
        reached right after a frontier-less reseed) is evaluated in
        full -- O(n^2) contribution-matrix reductions -- while every
        other level rides the carried feasible frontier: free for the
        float-monotone bounds, and for ``eq10`` unless the carried
        bound sits within the safety margin of its deadline (then one
        fused O(nN) probe).
        ``batch=False`` keeps the serial per-candidate scan, used as
        the reference in equivalence tests and the scalability
        benchmark.  The serial and batch paths sum the same terms in
        different associations, so bounds agree only to ~1e-12
        relative; a feasibility flip would need a bound within that
        distance of ``D_i`` + the 1e-9 deadline tolerance, which has
        probability ~0 for the continuous workload generators.

    Notes
    -----
    The engine does not *require* the test to be OPA-compatible -- this
    is exploited by tests demonstrating Observation IV.2 -- but
    optimality only holds for compatible bounds.  The frontier engine
    reads the compatibility flags off the test, so eq2/eq4 runs
    evaluate every level in full, exactly like the stock batch loop.
    """
    if test is None:
        test = SDCA(jobset, policy)
    elif test.jobset is not jobset:
        raise ValueError("the supplied SDCA test was built for a "
                         "different job set")
    if batch:
        result = audsley_frontier(jobset.num_jobs, test.level_kernel())
    else:
        result = audsley(jobset.num_jobs, test.is_schedulable)
    if not result.feasible:
        return OPDCAResult(feasible=False, ordering=None, delays=None,
                           opa=result, equation=test.equation)
    ordering = PriorityOrdering(result.priority)
    delays = test.analyzer.delays_for_ordering(
        ordering.priority, equation=test.equation)
    return OPDCAResult(feasible=True, ordering=ordering, delays=delays,
                       opa=result, equation=test.equation)
