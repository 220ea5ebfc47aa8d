"""Audsley's Optimal Priority Assignment (OPA) engine.

Generic implementation of the priority-assignment loop of Section III.B:
priorities ``n`` (lowest) down to ``1`` (highest) are assigned one at a
time; the current priority goes to any yet-unassigned job that passes
the schedulability test assuming all other unassigned jobs have higher
priority.  With an OPA-compatible test this is optimal: it finds a
feasible total ordering whenever one exists.

The engine is test-agnostic -- it only needs a feasibility callback or
a level adapter -- so it backs both OPDCA (Algorithm 1) and the
admission-controller variant used in Figure 4(d).

Two engines are provided:

* :func:`audsley` -- the stock loop: per level, either a serial
  first-feasible candidate scan or one full batch evaluation
  (``batch_test``).
* :func:`audsley_frontier` -- the lazy loop behind the default OPDCA
  batch path.  For OPA-compatible tests, Audsley's third
  compatibility condition is a *monotonicity* guarantee along the
  assignment trajectory: moving a job from a candidate's higher- to
  its lower-priority set (or discarding it) can never increase the
  candidate's bound, so a candidate once verified feasible stays
  feasible.  Each level then only evaluates the unassigned candidates
  *below* the carried feasible frontier (exactly the ones the stock
  scan would have to reject before placing), and the frontier
  placement itself is free for the float-monotone bounds
  (:data:`~repro.core.dca.FLOAT_MONOTONE_EQUATIONS`), and for
  ``eq10`` whenever the candidate's carried value plus a safety
  margin clears its threshold (one fused probe otherwise).
  Decisions are identical to the stock batch loop -- the laziness
  only decides how much work is skipped.  With
  ``discard=True`` it runs the admission controller's modified
  Step 10 (discard the worst offender, go on): it is the only
  admission loop, behind :func:`repro.core.admission.opdca_admission`
  and every online admission outside the certified-band gate
  (:mod:`repro.online.incremental`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

#: Feasibility callback: ``test(i, higher_mask, lower_mask) -> bool``.
#: The masks are read-only views of engine state -- copy before storing.
FeasibilityTest = Callable[[int, np.ndarray, np.ndarray], bool]

#: Batched feasibility callback: ``batch_test(unassigned, lower)`` with
#: the *full* unassigned mask (no self-exclusion) returns a boolean
#: vector marking which candidates pass at the current level.
BatchFeasibilityTest = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class OPAResult:
    """Outcome of an Audsley priority-assignment run.

    Attributes
    ----------
    feasible:
        True iff every job received a priority.
    priority:
        ``(n,)`` int array; ``priority[i]`` is the priority value of
        ``J_i`` (1 = highest).  Entries of unassigned jobs are 0 when
        the run failed.
    order:
        Job indices from highest priority to lowest (only the assigned
        jobs when the run failed, in assignment order reversed).
    failed_level:
        Priority level at which no job was feasible (None on success).
    unassigned:
        Jobs still without a priority when the run stopped.
    rejected:
        Jobs discarded by the modified Step 10, in discard order
        (:func:`audsley_frontier` with ``discard=True`` only).
    """

    feasible: bool
    priority: np.ndarray
    order: list[int] = field(default_factory=list)
    failed_level: int | None = None
    unassigned: list[int] = field(default_factory=list)
    rejected: list[int] = field(default_factory=list)


def audsley(num_jobs: int, test: FeasibilityTest, *,
            candidates: Sequence[int] | None = None,
            batch_test: BatchFeasibilityTest | None = None) -> OPAResult:
    """Run Audsley's OPA over ``num_jobs`` jobs with the given test.

    Parameters
    ----------
    num_jobs:
        Total number of jobs (masks passed to ``test`` have this size).
    test:
        OPA-compatible feasibility test.  For priority level ``p`` the
        engine calls ``test(i, H_i, L_i)`` with ``H_i`` = all unassigned
        jobs except ``J_i`` and ``L_i`` = the jobs already assigned
        (strictly lower) priorities.  The masks are **read-only views**
        of the engine's scratch state (no per-candidate copies are
        made); callbacks that want to keep a mask must copy it.
    candidates:
        Optional subset of job indices to assign priorities to (used by
        the admission controller); defaults to all jobs.  Jobs outside
        the subset never appear in any mask.
    batch_test:
        Optional vectorised variant: called once per priority level
        with ``(unassigned, assigned_lower)`` and returning a boolean
        feasibility vector over all jobs; the engine places the
        lowest-indexed feasible candidate, exactly as the serial scan
        would.  When supplied it replaces the O(n) per-level ``test``
        calls (used by OPDCA via ``SDCA.audsley_batch``).

    Returns
    -------
    OPAResult
        Priorities are ``1..len(candidates)`` within the candidate set.
    """
    if candidates is None:
        candidates = list(range(num_jobs))
    else:
        candidates = list(candidates)
    unassigned = np.zeros(num_jobs, dtype=bool)
    unassigned[candidates] = True
    assigned_lower = np.zeros(num_jobs, dtype=bool)
    priority = np.zeros(num_jobs, dtype=np.int64)
    order_low_to_high: list[int] = []

    # The candidate loop reuses these read-only views instead of
    # allocating fresh copies per feasibility call: ``J_i`` is removed
    # from (and restored to) the scratch ``unassigned`` buffer around
    # each call, which the ``higher`` view reflects for free.
    higher_view = unassigned.view()
    higher_view.setflags(write=False)
    lower_view = assigned_lower.view()
    lower_view.setflags(write=False)

    for level in range(len(candidates), 0, -1):
        placed = None
        if batch_test is not None:
            feasible = np.asarray(batch_test(higher_view, lower_view))
            choices = np.flatnonzero(unassigned & feasible)
            if choices.size:
                placed = int(choices[0])
        else:
            for i in np.flatnonzero(unassigned):
                i = int(i)
                unassigned[i] = False
                feasible_i = test(i, higher_view, lower_view)
                unassigned[i] = True
                if feasible_i:
                    placed = i
                    break
        if placed is None:
            return OPAResult(
                feasible=False,
                priority=priority,
                order=list(reversed(order_low_to_high)),
                failed_level=level,
                unassigned=[int(j) for j in np.flatnonzero(unassigned)],
            )
        priority[placed] = level
        unassigned[placed] = False
        assigned_lower[placed] = True
        order_low_to_high.append(placed)

    return OPAResult(
        feasible=True,
        priority=priority,
        order=list(reversed(order_low_to_high)),
    )


def audsley_frontier(num_jobs: int, kernel, *,
                     candidates: Sequence[int] | None = None,
                     discard: bool = False) -> OPAResult:
    """Frontier-carrying Audsley loop (the default OPDCA batch path and
    the online admission fallback).

    ``kernel`` is a level-evaluation adapter, typically
    :meth:`repro.core.schedulability.SDCA.level_kernel`: it must expose
    ``delays_rows(rows, unassigned, assigned_lower)``, ``probe(i,
    unassigned, assigned_lower)``, the flags ``monotone`` /
    ``float_monotone`` and the per-job threshold vector
    ``deadline_tol`` (see
    :class:`~repro.core.schedulability.AudsleyLevelKernel`), plus
    ``discard(j)`` when run with ``discard=True``.  It may expose
    ``removal_caps()`` (lower-bound pruning) and a per-job
    ``value_offset`` (default 0), the amount its values sit below the
    delay bounds, which scales the safety margin of carried values.

    The returned :class:`OPAResult` -- feasibility, priorities,
    assignment order and failure diagnostics -- is identical to
    running :func:`audsley` with the corresponding ``batch_test``:

    * a level with no carried feasible candidate evaluates in full,
      places the lowest-indexed feasible candidate (exactly the stock
      rule) and seeds the frontier with the other feasible ones;
    * a level with a carried frontier evaluates only the unassigned
      candidates with smaller indices -- stock Audsley would have to
      scan (and reject) precisely those before reaching the frontier
      -- minus the ones whose carried excess lower bounds
      (``kernel.removal_caps()``) prove them still infeasible, and
      otherwise places the frontier candidate itself:
      unconditionally for float-monotone tests (zeroing masked
      operands under numpy's fixed-length pairwise reductions can
      never increase a value, ulp for ulp); for ``eq10`` (monotone in
      exact arithmetic only) when its last evaluated value plus the
      safety margin clears its threshold, else after one fused probe,
      with a full re-evaluation as the ulp-level fallback;
    * once every remaining candidate of a level is verified feasible
      -- under a float-monotone test, or with every value clearing
      the safety margin under ``eq10`` -- the rest of the trajectory
      is fully determined (stock always places the lowest-indexed
      feasible candidate) and is emitted with no further evaluation;
    * non-OPA-compatible tests (``eq2``/``eq4``) evaluate every level
      in full -- bit-for-bit the stock loop.

    Since an OPA-compatible test keeps every feasible candidate
    feasible, a failing level is necessarily one with an empty
    frontier, which is always evaluated in full -- so failure
    diagnostics (``failed_level``, ``unassigned``) match the stock
    loop exactly.

    ``discard=True`` replaces that failure with the admission
    controller's modified Step 10: the candidate with the largest
    kernel value (float ties to the larger index) is discarded --
    ``kernel.discard(j)`` drops it from the kernel's active set -- and
    the run goes on at the next level.  The run then always completes;
    ``rejected`` lists the discards, ``feasible`` is true iff there
    were none, and ``order`` ranks the placed jobs.  The worst-offender
    rule reads the kernel values directly, so an admission kernel
    reports *excesses* ``Delta_i - D_i`` (see
    :class:`repro.core.admission._ExcessLevels`).
    """
    if candidates is None:
        candidates = list(range(num_jobs))
    else:
        candidates = list(candidates)
    unassigned = np.zeros(num_jobs, dtype=bool)
    unassigned[candidates] = True
    assigned_lower = np.zeros(num_jobs, dtype=bool)
    priority = np.zeros(num_jobs, dtype=np.int64)
    order_low_to_high: list[int] = []
    rejected: list[int] = []
    deadline_tol = kernel.deadline_tol
    monotone = bool(kernel.monotone)
    float_monotone = bool(kernel.float_monotone)
    #: Candidates verified feasible under an earlier (more pessimistic)
    #: context of this run; monotonicity keeps them feasible.
    feasible: set[int] = set()

    # Evaluated values are carried across placements, padded by a
    # safety margin orders of magnitude above the ~1e-11 relative
    # float error of the kernels, which scales with the delay bound
    # (``|value| + value_offset``).  A candidate inside the margin is
    # evaluated exactly, so decisions never depend on it.
    # * Lower bounds (monotone tests): placing job ``p`` can lower a
    #   candidate's bound by at most ``caps[:, p]``; a candidate whose
    #   value minus the margin and the caps of later removals still
    #   fails is provably infeasible and skipped.
    # * Upper bounds (``eq10``, monotone in exact arithmetic only): a
    #   removal never raises the exact bound, so a carried candidate
    #   whose value plus the margin passes needs no probe.
    caps = kernel.removal_caps() if hasattr(kernel, "removal_caps") \
        else None
    offset = getattr(kernel, "value_offset", np.zeros(num_jobs))
    lower_bound: "np.ndarray | None" = None
    upper_bound = (np.full(num_jobs, np.inf)
                   if monotone and not float_monotone else None)
    _SAFETY = 1e-7

    def remember(rows: np.ndarray, delays: np.ndarray) -> None:
        nonlocal lower_bound
        if caps is None and upper_bound is None:
            return
        margin = _SAFETY + 1e-9 * (np.abs(delays) + offset[rows])
        if caps is not None:
            if lower_bound is None:
                lower_bound = np.full(num_jobs, -np.inf)
            lower_bound[rows] = delays - margin
        if upper_bound is not None:
            upper_bound[rows] = delays + margin

    def clears(rows) -> "np.ndarray | bool":
        """Whether the carried upper bounds of ``rows`` pass."""
        return upper_bound is not None and \
            upper_bound[rows] <= deadline_tol[rows]

    def forget(removed: int) -> None:
        nonlocal lower_bound
        if lower_bound is not None:
            lower_bound -= caps[:, removed] + 1e-9

    level = len(candidates)
    while level > 0:
        cands = np.flatnonzero(unassigned)
        frontier = min(feasible) if feasible else None
        placed = None
        full_eval = False
        if monotone and frontier is not None:
            below = cands[:np.searchsorted(cands, frontier)]
            if below.size + 1 < cands.size:
                if below.size and lower_bound is not None:
                    below = below[lower_bound[below] <= deadline_tol[below]]
                if below.size:
                    delays = np.asarray(kernel.delays_rows(
                        below, unassigned, assigned_lower))
                    remember(below, delays)
                    with np.errstate(invalid="ignore"):
                        passing = below[delays <= deadline_tol[below]]
                    if passing.size:
                        placed = int(passing[0])
                        # The other passing sub-frontier candidates are
                        # verified *now*; remembering them tightens the
                        # frontier for the levels that follow.
                        feasible.update(int(p) for p in passing[1:])
                if placed is None:
                    if float_monotone or clears(frontier) or \
                            kernel.probe(frontier, unassigned,
                                         assigned_lower) \
                            <= deadline_tol[frontier]:
                        placed = frontier
                    else:
                        # Ulp-level fallback: eq10's carried candidate
                        # sits within one ulp of its deadline; decide
                        # the level from a full stock evaluation.
                        full_eval = True
            else:
                # The frontier sits at (or next to) the bottom of the
                # level; a full evaluation is no more expensive.
                full_eval = True
        else:
            full_eval = True

        if full_eval:
            delays = np.asarray(kernel.delays_rows(
                cands, unassigned, assigned_lower))
            remember(cands, delays)
            with np.errstate(invalid="ignore"):
                passing_mask = delays <= deadline_tol[cands]
            if bool(passing_mask.all()) and (
                    float_monotone or bool(np.all(clears(cands)))):
                # Every candidate is feasible and stays feasible at
                # every later level (float-exact monotonicity, or an
                # upper bound that clears the margin), where stock
                # Audsley always places the lowest-indexed unassigned
                # candidate: the remaining trajectory is fully
                # determined -- emit it in one step, no further
                # evaluation.
                for candidate in cands:
                    candidate = int(candidate)
                    priority[candidate] = level
                    level -= 1
                    order_low_to_high.append(candidate)
                unassigned[cands] = False
                break
            feasible = {int(c) for c in cands[passing_mask]}
            if feasible:
                placed = min(feasible)

        if placed is None and discard:
            # Modified Step 10 (the level was evaluated in full): drop
            # the worst offender, exactly like ``max()`` over
            # (value, index) tuples, and go on.
            ties = np.flatnonzero(delays == delays.max())
            worst = int(cands[ties.max()])
            rejected.append(worst)
            kernel.discard(worst)
            unassigned[worst] = False
            forget(worst)
            level -= 1
            continue
        if placed is None:
            return OPAResult(
                feasible=False,
                priority=priority,
                order=list(reversed(order_low_to_high)),
                failed_level=level,
                unassigned=[int(j) for j in np.flatnonzero(unassigned)],
            )
        feasible.discard(placed)
        priority[placed] = level
        unassigned[placed] = False
        assigned_lower[placed] = True
        order_low_to_high.append(placed)
        forget(placed)
        level -= 1

    return OPAResult(
        feasible=not rejected,
        priority=priority,
        order=list(reversed(order_low_to_high)),
        rejected=rejected,
    )
