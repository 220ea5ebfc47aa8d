"""Admission-control variant of OPDCA (Section VI.B, Figure 4d).

When a job set is infeasible, instead of rejecting it outright the
paper's admission controller modifies Step 10 of Algorithm 1: the job
with the largest deadline excess ``Delta_i - D_i`` among the
yet-unassigned jobs is discarded, and priority assignment resumes for
the remaining jobs.  The quality metric is the *rejected heaviness*:
the share of total heaviness carried by the discarded jobs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.dca import FLOAT_MONOTONE_EQUATIONS, DelayAnalyzer
from repro.core.opa import audsley_frontier
from repro.core.priorities import PriorityOrdering
from repro.core.schedulability import SDCA, Policy
from repro.core.system import JobSet


class AdmissionResult:
    """Outcome of an admission-controlled priority assignment.

    Attributes
    ----------
    accepted:
        Indices of admitted jobs (sorted).
    rejected:
        Indices of discarded jobs, in discard order.
    ordering:
        Priority ordering over the *accepted* jobs: ``priority[i]`` is
        the priority of ``J_i`` (1 = highest) for accepted jobs and 0
        for rejected ones.  ``None`` for pairwise-based controllers.
    delays:
        Delay bounds of accepted jobs under the final assignment
        (entries of rejected jobs are ``nan``).  May be supplied
        lazily via ``delays_fn``: nothing on the decision path reads
        the final delay vector (commits consume only
        ``accepted``/``ordering``), so the OPDCA controllers defer
        the closing ``delays_for_pairwise`` batch until a consumer --
        a test, a report -- actually asks.  The thunk runs at most
        once; the accessor caches its value.
    """

    __slots__ = ("accepted", "rejected", "ordering", "_delays",
                 "_delays_fn")

    def __init__(self, accepted: list[int], rejected: list[int],
                 ordering: "np.ndarray | None",
                 delays: "np.ndarray | None" = None, *,
                 delays_fn: "Callable[[], np.ndarray] | None" = None) \
            -> None:
        if delays is None and delays_fn is None:
            raise ValueError("either delays or delays_fn is required")
        self.accepted = accepted
        self.rejected = rejected
        self.ordering = ordering
        self._delays = delays
        self._delays_fn = delays_fn

    @property
    def delays(self) -> np.ndarray:
        if self._delays is None:
            self._delays = self._delays_fn()
            self._delays_fn = None
        return self._delays

    def rebind_delays(self, delays_fn: "Callable[[], np.ndarray]") \
            -> None:
        """Swap the pending lazy-delays thunk (no-op once the vector
        is materialised).  The online cells use this to replace the
        controller's closure -- which pins the whole per-event subset
        analysis -- with a thin rebuilder before parking results in
        the long-lived decision memo."""
        if self._delays is None:
            self._delays_fn = delays_fn

    def __reduce__(self):
        # Pickling (process pools, snapshots) materialises the delay
        # vector: thunks close over analyzers and are not picklable.
        return (_rebuild_admission_result,
                (self.accepted, self.rejected, self.ordering,
                 self.delays))

    @property
    def num_accepted(self) -> int:
        return len(self.accepted)

    @property
    def num_rejected(self) -> int:
        return len(self.rejected)


def _rebuild_admission_result(accepted, rejected, ordering, delays
                              ) -> AdmissionResult:
    """Module-level pickle constructor of :class:`AdmissionResult`."""
    return AdmissionResult(accepted=accepted, rejected=rejected,
                           ordering=ordering, delays=delays)


def opdca_admission(jobset: JobSet,
                    policy: "str | Policy" = Policy.PREEMPTIVE, *,
                    test: SDCA | None = None) -> AdmissionResult:
    """Run OPDCA as an admission controller.

    Follows Algorithm 1 with the modified Step 10: when no unassigned
    job is feasible at the current priority level, discard the
    unassigned job with the largest ``Delta_i - D_i`` (computed with all
    other unassigned jobs as higher priority and the already-assigned
    jobs as lower priority) and retry the level.

    Runs :func:`repro.core.opa.audsley_frontier` with ``discard=True``
    over :class:`_ExcessLevels`, so a level evaluates only the
    candidates the stock per-level scan would reject before placing;
    results are bitwise the stock loop's.  Delays are computed on
    first read.
    """
    if test is None:
        test = SDCA(jobset, policy)
    return _frontier_admission(jobset, test, discard=True)


class _ExcessLevels:
    """Level adapter of :func:`repro.core.opa.audsley_frontier` for
    admission: kernel values are *excesses* ``Delta_i - D_i`` against
    a ``1e-9`` threshold -- the admission pass rule and worst-offender
    key -- evaluated over the adapter's own ``active`` mask, which
    :meth:`discard` clears.

    Unlike :class:`~repro.core.schedulability.AudsleyLevelKernel`
    (OPDCA's ``D + DEADLINE_TOLERANCE`` rule over absolute bounds),
    the values are bounds minus ``value_offset = D``, so the driver
    scales the safety margin of its carried lower and upper bounds by
    ``|excess| + D_i``, the size of the bound itself.  Excess-lower-
    bound pruning (:meth:`removal_caps`) serves every OPA-compatible
    equation, ``eq10`` included."""

    def __init__(self, jobset: JobSet, test: SDCA) -> None:
        n = jobset.num_jobs
        self._analyzer = test.analyzer
        self._equation = test.equation
        self._lower_aware = test.uses_lower_set
        self._deadlines = jobset.D
        self.active = np.ones(n, dtype=bool)
        self.monotone = test.opa_compatible
        self.float_monotone = test.equation in FLOAT_MONOTONE_EQUATIONS
        self.deadline_tol = np.full(n, 1e-9)
        self.value_offset = jobset.D

    def removal_caps(self) -> "np.ndarray | None":
        if not self.monotone:
            return None
        return self._analyzer.removal_caps()

    def delays_rows(self, rows: np.ndarray, unassigned: np.ndarray,
                    assigned_lower: np.ndarray) -> np.ndarray:
        delays = self._analyzer.level_bounds(
            unassigned, assigned_lower if self._lower_aware else None,
            equation=self._equation, active=self.active, rows=rows)
        return delays - self._deadlines[rows]

    def probe(self, i: int, unassigned: np.ndarray,
              assigned_lower: np.ndarray) -> float:
        bound = self._analyzer.level_bound_single(
            i, unassigned, assigned_lower if self._lower_aware else None,
            equation=self._equation, active=self.active)
        return float(bound) - float(self._deadlines[i])

    def discard(self, j: int) -> None:
        self.active[j] = False


class _StockExcessLevels(_ExcessLevels):
    """Monotonicity off: the driver evaluates every level in full, as
    the stock loop does -- the online ``mode="cold"`` yardstick."""

    def __init__(self, jobset: JobSet, test: SDCA) -> None:
        super().__init__(jobset, test)
        self.monotone = self.float_monotone = False


def _frontier_admission(jobset: JobSet, test: SDCA, *, discard: bool,
                        adapter: "type[_ExcessLevels]" = _ExcessLevels
                        ) -> "AdmissionResult | None":
    """Admission through the frontier-carrying driver: the full
    controller with ``discard``, else feasible-or-``None``."""
    levels = adapter(jobset, test)
    result = audsley_frontier(jobset.num_jobs, levels, discard=discard)
    if result.failed_level is not None:
        return None
    return _finish_result(test.analyzer, test.equation, jobset.num_jobs,
                          levels.active, result.order[::-1],
                          result.rejected)


def _final_delays(analyzer: DelayAnalyzer, equation: str, n: int,
                  active: np.ndarray, final_priority: np.ndarray,
                  accepted: "list[int]") -> np.ndarray:
    """The closing delay vector of an admission run: delay bounds of
    the accepted jobs under the final assignment (``nan`` for
    rejected ones).  A pure function of ``(job set, ordering,
    active)``, so it can run *lazily*, long after the decision was
    committed, and still produce the bitwise-identical vector."""
    delays = np.full(n, np.nan)
    if accepted:
        sub_priority = np.where(final_priority > 0, final_priority, n + 1)
        x = (sub_priority[:, None] < sub_priority[None, :])
        x[~active, :] = False
        x[:, ~active] = False
        all_delays = analyzer.delays_for_pairwise(
            x, equation=equation, active=active)
        delays[active] = all_delays[active]
    return delays


def _finish_result(analyzer: DelayAnalyzer, equation: str, n: int,
                   active: np.ndarray, order_low_to_high: "list[int]",
                   rejected: "list[int]") -> AdmissionResult:
    """Re-number the assigned priorities contiguously (1..#accepted)
    and wrap the result with a *lazy* delay vector: nothing on the
    decision path reads the final delays (commits consume
    ``accepted``/``ordering`` only), so the closing
    ``delays_for_pairwise`` batch -- a whole ``(k, k)`` evaluation --
    is deferred until a consumer asks."""
    accepted = [int(i) for i in np.flatnonzero(active)]
    final_priority = np.zeros(n, dtype=np.int64)
    for rank, job in enumerate(reversed(order_low_to_high), start=1):
        final_priority[job] = rank

    def delays_fn() -> np.ndarray:
        return _final_delays(analyzer, equation, n, active,
                             final_priority, accepted)

    return AdmissionResult(accepted=accepted, rejected=rejected,
                           ordering=final_priority, delays_fn=delays_fn)


def ordering_of_accepted(result: AdmissionResult) -> PriorityOrdering | None:
    """Compact :class:`PriorityOrdering` over the accepted jobs.

    Job indices are re-mapped to ``0..len(accepted)-1`` following the
    order of ``result.accepted``; returns None when nothing was accepted.
    """
    if result.ordering is None or not result.accepted:
        return None
    ranks = [int(result.ordering[j]) for j in result.accepted]
    remap = {rank: pos for pos, rank in enumerate(sorted(ranks), start=1)}
    return PriorityOrdering([remap[r] for r in ranks])
