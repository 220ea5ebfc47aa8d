"""Incremental delay-bound maintenance for streaming admission.

A cold admission decision for ``k`` live jobs re-runs the whole
analysis stack: rebuild the :class:`~repro.core.system.JobSet`
(``O(k^2 N)`` comparison kernels plus per-job validation), recompute
the :class:`~repro.core.segments.SegmentCache` (stage sorting, running
sums, segment counting), then run OPDCA admission with one full
``(k, k)`` batch bound evaluation per priority level.  This module
replaces every one of those steps with a delta-friendly equivalent
while guaranteeing **bitwise identical decisions and delay bounds**:

* :class:`IncrementalAnalyzer` owns the *universe* job set (every job
  the stream can deliver) and its segment cache, computed once.  Live
  subsets are carved out by pure slicing
  (:meth:`~repro.core.system.JobSet.restrict` +
  :meth:`~repro.core.segments.SegmentCache.restrict`), so standing up
  the per-event analysis costs a handful of ``numpy`` gathers instead
  of re-running the algebra.
* :func:`incremental_admission` mirrors
  :func:`repro.core.admission.opdca_admission` step for step, but
  evaluates each Audsley level *lazily* against a carried feasible
  frontier: only the candidates stock Audsley would have to scan
  before its placement are ever evaluated, through
  :meth:`~repro.core.dca.DelayAnalyzer.delay_bounds_rows` row slices
  and the fused single-candidate
  :meth:`~repro.core.dca.DelayAnalyzer.delay_bound_level` probe, so
  an accept-heavy level costs a thin row slice -- often nothing at
  all -- instead of a full ``(k, k)`` batch.
* departures call :meth:`~repro.core.dca.DelayAnalyzer.\
invalidate_job` on the persistent universe analyzer, purging exactly
  the memo entries whose context involves the leaving job.
* :func:`admit_all_or_nothing` is the one deliberate exception: a
  yes/no question needs only *some* feasible assignment, so under the
  float-monotone bounds it searches for any witness
  (:func:`_witness_audsley`) -- same verdict as the cold path, but
  possibly a different ordering.  :func:`admit_trajectory` keeps the
  cold path's lowest-index ordering.

Every value produced along either path is the result of the same
floating-point reductions over the same operands in the same order as
the cold path, which is what the bitwise-equivalence property tests in
``tests/online`` pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.admission import AdmissionResult, opdca_admission
from repro.core.dca import FLOAT_MONOTONE_EQUATIONS, DelayAnalyzer
from repro.core.kernels import auto_tier_online
from repro.core.schedulability import SDCA, Policy, resolve_equation
from repro.core.segments import SegmentCache
from repro.core.system import JobSet

#: Cross-event subset-analysis memo entries per analyzer (LRU).  Sized
#: for one engine's working set: the rolling admitted-set tuple plus
#: the retry-pass and slate-screen variants orbiting it.
_SUBSET_MEMO_LIMIT = 32


@dataclass
class SubsetAnalysis:
    """One live subset, ready for admission: job set + bound test."""

    jobset: JobSet
    test: SDCA
    #: Universe indices of the subset's jobs, ascending.
    indices: np.ndarray
    #: The owning analyzer's cross-decision band carry (``None`` for
    #: cold analyses; see :class:`_BandCarrySlot`).
    carry: "_BandCarrySlot | None" = None


class IncrementalAnalyzer:
    """Delay-bound state for a live subset of a fixed job universe.

    Parameters
    ----------
    universe:
        Job set of every job the stream can deliver (true arrival
        times; index = stream ``uid``).
    policy:
        Scheduling policy / equation, as accepted by
        :class:`~repro.core.schedulability.SDCA`.
    cache:
        Optional pre-built :class:`~repro.core.segments.SegmentCache`
        for ``universe``.  The shard layer passes the lazily sliced
        per-shard view of one global cache here, so standing up N
        shard analyzers never re-runs the segment algebra.
    kernel:
        Level-evaluation kernel of the persistent analyzer and of
        every per-event subset analyzer (``"paired"`` default /
        ``"reference"``); decisions are bitwise identical either way
        (property-tested), only the amount of work per level differs.
    """

    def __init__(self, universe: JobSet,
                 policy: "str | Policy" = Policy.PREEMPTIVE, *,
                 cache: "SegmentCache | None" = None,
                 kernel: str = "paired") -> None:
        self._universe = universe
        self._equation = resolve_equation(policy)
        self._policy = policy
        self._cache = cache if cache is not None \
            else SegmentCache(universe)
        self._kernel = kernel
        self._analyzer = DelayAnalyzer(universe, cache=self._cache,
                                       kernel=kernel)
        self._active = np.zeros(universe.num_jobs, dtype=bool)
        #: tuple(indices) -> SubsetAnalysis (LRU; see :meth:`subset`).
        self._subset_memo: dict[tuple, SubsetAnalysis] = {}
        #: Level-1 band snapshot carried across decisions (see
        #: :class:`_BandCarrySlot`).
        self._band_carry = _BandCarrySlot()

    @property
    def universe(self) -> JobSet:
        return self._universe

    @property
    def equation(self) -> str:
        return self._equation

    @property
    def analyzer(self) -> DelayAnalyzer:
        """The persistent universe analyzer (shared segment cache)."""
        return self._analyzer

    @property
    def active(self) -> np.ndarray:
        """Mask of currently present jobs (a copy)."""
        return self._active.copy()

    # -- presence tracking -------------------------------------------

    def arrive(self, uid: int) -> None:
        """Mark ``uid`` present.  Cached bounds for contexts excluding
        it remain valid and keep serving (they are pure functions of
        their interference masks)."""
        self._active[uid] = True

    def depart(self, uid: int) -> dict[str, int]:
        """Mark ``uid`` absent and purge exactly the memoised entries
        whose context involves it (see
        :meth:`~repro.core.dca.DelayAnalyzer.invalidate_job`), plus
        the cached subset analyses naming it -- a stream uid never
        returns, so those slices are dead weight.
        Returns the per-memo drop counts."""
        self._active[uid] = False
        for key in [k for k in self._subset_memo if uid in k]:
            del self._subset_memo[key]
        return self._analyzer.invalidate_job(uid)

    def delay_of(self, uid: int, higher, lower=None) -> float:
        """Memoised delay bound of ``uid`` against the given
        higher/lower sets, restricted to the currently present jobs.

        Bitwise identical to evaluating the same context on a cold
        analyzer built from the surviving job set: the scalar bound
        path gathers exactly the masked entries, so the reductions see
        the same operands in the same order.
        """
        test = SDCA(self._universe, self._policy, analyzer=self._analyzer)
        return test.delay(uid, higher, lower, active=self._active)

    # -- per-event subset analyses -----------------------------------

    def subset(self, indices) -> SubsetAnalysis:
        """Sliced (warm) analysis of ``universe[indices]``.

        Memoised per index tuple (LRU, bounded): a
        :class:`SubsetAnalysis` is a pure function of the universe and
        the index set, so revisited candidate sets -- repeated arrival
        patterns, retry passes, slate screens -- reuse the previously
        built slice *with its analyzer memos warm* (contribution
        matrices, band operands, eq5 blocking vectors, stage-major
        gathers) instead of re-gathering every plane from scratch.
        Entries naming a departed job are purged by :meth:`depart`,
        mirroring the universe analyzer's ``invalidate_job``
        discipline.

        ``kernel="auto"`` is re-resolved here, per decision, on the
        *active* count (:func:`repro.core.kernels.auto_tier_online`):
        per-event candidate sets are small early in a stream, and the
        batch crossover tuned for whole-universe sweeps overshoots
        them.
        """
        key = tuple(sorted(int(i) for i in indices))
        hit = self._subset_memo.get(key)
        if hit is not None:
            self._subset_memo.pop(key)
            self._subset_memo[key] = hit  # refresh the LRU position
            return hit
        idx = np.asarray(key, dtype=np.int64)
        jobset = self._universe.restrict(idx)
        cache = self._cache.restrict(jobset, idx)
        kernel = self._kernel
        if kernel == "auto":
            kernel = auto_tier_online(int(idx.size))
        analyzer = DelayAnalyzer(jobset, cache=cache, kernel=kernel)
        test = SDCA(jobset, self._policy, analyzer=analyzer)
        analysis = SubsetAnalysis(jobset=jobset, test=test, indices=idx,
                                  carry=self._band_carry)
        while len(self._subset_memo) >= _SUBSET_MEMO_LIMIT:
            self._subset_memo.pop(next(iter(self._subset_memo)))
        self._subset_memo[key] = analysis
        return analysis

    def cold_subset(self, indices) -> SubsetAnalysis:
        """Cold re-analysis of the same subset (reference/benchmark
        path): rebuild the job set and every cache from scratch."""
        return cold_analysis(self._universe, indices, self._policy)


def cold_analysis(universe: JobSet, indices,
                  policy: "str | Policy") -> SubsetAnalysis:
    """Cold analysis of ``universe[indices]``: re-run the job-set
    constructor and the segment algebra from scratch (what a batch
    caller would do for every event).

    The analyzer is pinned to the *reference* tensor kernel so that
    "cold" stays a stable legacy yardstick for the benchmarks -- the
    same role ``opdca/serial`` plays in the scalability table -- even
    as the default paired contribution kernels keep accelerating the
    live paths (they speed up cold batch admission too, which would
    otherwise silently compress the measured incremental-vs-cold
    ratio).  Decisions are unaffected: the two kernels are bitwise
    identical for every candidate evaluation, which the
    engine-vs-cold equivalence suites in ``tests/online`` exercise on
    every event.
    """
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    jobset = JobSet(universe.system,
                    [universe.jobs[int(i)] for i in idx])
    analyzer = DelayAnalyzer(jobset, kernel="reference")
    test = SDCA(jobset, policy, analyzer=analyzer)
    return SubsetAnalysis(jobset=jobset, test=test, indices=idx)


def incremental_admission(jobset: JobSet, test: SDCA, *,
                          carry: "_BandCarrySlot | None" = None,
                          key: "tuple[int, ...] | None" = None
                          ) -> AdmissionResult:
    """Lazily evaluated OPDCA admission (Algorithm 1, modified Step 10).

    Produces an :class:`~repro.core.admission.AdmissionResult` whose
    ``accepted``/``rejected``/``ordering``/``delays`` are **bitwise
    identical** to :func:`repro.core.admission.opdca_admission` on the
    same job set and test: candidates are scanned in the same index
    order against the same batch kernels, the first feasible candidate
    is placed, and when a level rejects, the same worst-offender rule
    (largest ``Delta_i - D_i``, ties to the larger index) applies.

    The difference is how much of a level is ever evaluated.  For the
    OPA-compatible bounds, Audsley's third compatibility condition is
    a *monotonicity* guarantee along the assignment trajectory: when a
    job is placed below a candidate (moved from its higher- to its
    lower-priority set) or discarded entirely, the candidate's bound
    cannot increase.  A candidate once verified feasible therefore
    stays feasible, and each level only needs

    * one thin :meth:`~repro.core.dca.DelayAnalyzer.delay_bounds_rows`
      slice over the unassigned candidates *below* the known feasible
      frontier (stock Audsley must scan exactly those in index order
      before it can place), and
    * the frontier placement itself, which for the float-monotone
      bounds (:data:`~repro.core.dca.FLOAT_MONOTONE_EQUATIONS`) needs
      no evaluation at all -- zeroing masked operands under numpy's
      fixed pairwise-reduction tree can never increase a value, ulp
      for ulp -- and for ``eq10`` is re-verified with one fused
      :meth:`~repro.core.dca.DelayAnalyzer.delay_bound_level` probe.

    When a whole level is verified feasible under a float-monotone
    bound, the remaining trajectory is fully determined (stock always
    places the lowest-indexed unassigned candidate) and is emitted in
    one step with no further evaluation.  Should the ``eq10``
    re-verification ever fail (conceivable only when a bound sits
    within one ulp of the deadline tolerance), the level falls back
    to the stock full-batch evaluation, so decisions are *always*
    exact -- the fast path only decides how much work is skipped,
    never the outcome.  Levels with no known-feasible candidate and
    the non-OPA-compatible equations (``eq2``/``eq4``) take the
    full-batch path too, which is bit-for-bit the stock evaluation.
    """
    return _lazy_audsley(jobset, test, all_or_nothing=False,
                         carry=carry, key=key)


def incremental_feasibility(jobset: JobSet, test: SDCA, *,
                            carry: "_BandCarrySlot | None" = None,
                            key: "tuple[int, ...] | None" = None
                            ) -> "AdmissionResult | None":
    """All-or-nothing variant: feasible assignment or ``None``.

    Runs the same lazily evaluated Audsley greedy as
    :func:`incremental_admission` but *stops* at the first level with
    no feasible candidate instead of entering the discard cascade --
    exactly the right primitive for the retry queue, whose commit rule
    is "admit only if nobody gets rejected".  On success the returned
    :class:`~repro.core.admission.AdmissionResult` (everyone accepted)
    is bitwise identical to what :func:`incremental_admission` -- and
    hence :func:`repro.core.admission.opdca_admission` -- would
    produce, because a run that never discards *is* the plain Audsley
    trajectory.  ``None`` is returned precisely when
    ``opdca_admission`` would reject at least one job.
    """
    return _lazy_audsley(jobset, test, all_or_nothing=True,
                         carry=carry, key=key)


def _lazy_audsley(jobset: JobSet, test: SDCA, *,
                  all_or_nothing: bool,
                  carry: "_BandCarrySlot | None" = None,
                  key: "tuple[int, ...] | None" = None
                  ) -> "AdmissionResult | None":
    """Controller dispatch: the float-monotone bounds on
    window-filtered analyzers run the *certified-band* Audsley
    (:func:`_banded_audsley`, one full level evaluation per decision
    plus exact refreshes of the rare straddlers); everything else --
    ``eq10``/``eq2``/``eq4`` and unfiltered analyzers -- takes the
    frontier-carrying lazy scan below.  Decisions and delay vectors
    are bitwise identical either way."""
    if _banded(jobset, test):
        return _banded_audsley(jobset, test,
                               all_or_nothing=all_or_nothing,
                               carry=carry, key=key)
    return _legacy_lazy_audsley(jobset, test,
                                all_or_nothing=all_or_nothing)


def _banded(jobset: JobSet, test: SDCA) -> bool:
    """The certified-band gate: a float-monotone bound (all of which
    ignore the lower-priority set) on a window-filtered analyzer."""
    return bool(test.equation in FLOAT_MONOTONE_EQUATIONS
                and test.analyzer.window_filter and jobset.num_jobs)


def _legacy_lazy_audsley(jobset: JobSet, test: SDCA, *,
                         all_or_nothing: bool
                         ) -> "AdmissionResult | None":
    analyzer = test.analyzer
    equation = test.equation
    lower_aware = test.uses_lower_set
    monotone = test.opa_compatible
    float_monotone = equation in FLOAT_MONOTONE_EQUATIONS
    n = jobset.num_jobs
    deadlines = jobset.D

    active = np.ones(n, dtype=bool)
    unassigned = np.ones(n, dtype=bool)
    assigned_lower = np.zeros(n, dtype=bool)
    priority = np.zeros(n, dtype=np.int64)
    rejected: list[int] = []
    order_low_to_high: list[int] = []
    #: Candidates verified feasible under an earlier (pessimistic)
    #: context of this run; monotonicity keeps them feasible.
    feasible: set[int] = set()

    # Sound per-candidate lower bounds on the *current* excess
    # ``Delta_i - D_i`` (float-monotone bounds only).  Removing job
    # ``p`` from a candidate's context can lower its bound by at most
    # ``cap[p]`` (see :meth:`DelayAnalyzer.removal_caps`, the single
    # shared soundness argument, also consumed by the core frontier
    # engine).  An evaluated excess therefore stays a valid lower
    # bound across placements and discards once each removal's cap --
    # padded by a safety margin orders of magnitude above the
    # accumulated float error of the kernels (~1e-11 relative) -- is
    # subtracted.  Candidates whose lower bound still exceeds the
    # deadline tolerance are *provably* infeasible and are skipped
    # without evaluation; anything inside the safety band is evaluated
    # exactly, so decisions never depend on the bound, only the amount
    # of skipped work does.
    lower_bound: "np.ndarray | None" = None
    removal_caps = analyzer.removal_caps() if float_monotone else None
    _SAFETY = 1e-7

    def remember(candidates: np.ndarray,
                 excesses: np.ndarray) -> None:
        nonlocal lower_bound
        if removal_caps is None:
            return
        if lower_bound is None:
            lower_bound = np.full(n, -np.inf)
        lower_bound[candidates] = (
            excesses - (_SAFETY + 1e-9 * np.abs(excesses)))

    def forget(removed: int) -> None:
        nonlocal lower_bound
        if lower_bound is not None:
            lower_bound -= removal_caps[:, removed] + 1e-9

    def probe_one(candidate: int) -> float:
        bound = analyzer.delay_bound_level(
            candidate, unassigned,
            assigned_lower if lower_aware else None,
            equation=equation, active=active)
        return float(bound) - float(deadlines[candidate])

    def batch_level(candidates: np.ndarray) -> np.ndarray:
        """Exact excesses ``Delta_i - D_i`` of every candidate, served
        by the analyzer's level kernel (the paired contribution
        matrices by default -- bitwise identical to the broadcast
        ``delay_bounds_rows`` slices this used to evaluate)."""
        delays = analyzer.level_bounds(
            unassigned, assigned_lower if lower_aware else None,
            equation=equation, active=active, rows=candidates)
        return delays - deadlines[candidates]

    while unassigned.any():
        level = int(unassigned.sum())
        candidates = np.flatnonzero(unassigned)
        frontier = min(feasible) if feasible else None
        below = (candidates[:np.searchsorted(candidates, frontier)]
                 if frontier is not None else ())
        placed = None
        excesses: "np.ndarray | None" = None

        if monotone and frontier is not None \
                and below.size + 1 < candidates.size:
            # Lazy path.  Stock Audsley must scan the candidates below
            # the carried frontier in index order anyway; evaluate
            # exactly those not already *proven* infeasible by their
            # excess lower bounds, in one row-sliced call -- O(b k N)
            # against the full level's O(k^2 N) -- and place the first
            # feasible one, else the frontier candidate itself.
            if below.size and lower_bound is not None:
                below = below[lower_bound[below] <= 1e-9]
            if below.size:
                below_excesses = batch_level(below)
                remember(below, below_excesses)
                passing = np.flatnonzero(below_excesses <= 1e-9)
                if passing.size:
                    placed = int(below[passing[0]])
                    # The other passing sub-frontier candidates are
                    # verified *now*; remembering them tightens the
                    # frontier for the levels that follow.
                    feasible.update(
                        int(below[p]) for p in passing[1:])
            if placed is None:
                if float_monotone or probe_one(frontier) <= 1e-9:
                    # Float-monotone kernels cannot un-satisfy a
                    # verified candidate, ulp for ulp -- no per-level
                    # re-verification needed.  eq10 re-verifies (its
                    # blocking term grows along the trajectory).
                    placed = frontier
                else:
                    # Ulp-level fallback: evaluate the level in full.
                    excesses = batch_level(candidates)
                    remember(candidates, excesses)
        elif all_or_nothing and frontier is None \
                and lower_bound is not None \
                and (lower_bound[candidates] > 1e-9).all():
            # Every candidate is provably infeasible at this level:
            # the all-or-nothing run fails with no evaluation at all.
            return None
        else:
            # No usable frontier (first level of a run, right after a
            # discard, or a non-monotone bound), or the frontier sits
            # at the very top of the level: evaluate it in full, which
            # also (re)seeds the feasible frontier for later levels.
            excesses = batch_level(candidates)
            remember(candidates, excesses)

        if excesses is not None and placed is None:
            passing = np.flatnonzero(excesses <= 1e-9)
            if float_monotone and passing.size == candidates.size:
                # Every candidate is feasible and (float-exact)
                # monotonicity keeps each of them feasible at every
                # later level, where stock Audsley always places the
                # lowest-indexed unassigned candidate.  The remaining
                # trajectory is therefore fully determined: emit it in
                # one step, no further evaluation.
                for candidate in candidates:
                    candidate = int(candidate)
                    priority[candidate] = level
                    level -= 1
                    order_low_to_high.append(candidate)
                unassigned[candidates] = False
                break
            feasible = {int(candidates[p]) for p in passing}
            if feasible:
                placed = min(feasible)

        if placed is not None:
            feasible.discard(placed)
            priority[placed] = level
            unassigned[placed] = False
            assigned_lower[placed] = True
            order_low_to_high.append(placed)
            forget(placed)
            continue
        if all_or_nothing:
            return None
        # Modified Step 10: discard the worst offender -- largest
        # excess, float ties resolved to the larger job index, exactly
        # like ``max()`` over (excess, index) tuples -- and retry.
        worst = np.flatnonzero(excesses == excesses.max())
        worst_job = int(candidates[worst.max()])
        rejected.append(worst_job)
        active[worst_job] = False
        unassigned[worst_job] = False
        forget(worst_job)

    return _finish_result(analyzer, equation, n, active,
                          order_low_to_high, rejected)


def _final_delays(analyzer: DelayAnalyzer, equation: str, n: int,
                  active: np.ndarray, final_priority: np.ndarray,
                  accepted: "list[int]") -> np.ndarray:
    """The closing delay vector of an admission run: delay bounds of
    the accepted jobs under the final assignment (``nan`` for
    rejected ones).  Replicates the tail of ``opdca_admission``
    verbatim -- a pure function of ``(job set, ordering, active)``, so
    it can run *lazily*, long after the decision was committed, and
    still produce the bitwise-identical vector."""
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
    """Re-number the assigned priorities contiguously (1..#accepted),
    exactly like ``opdca_admission``, and wrap the result with a
    *lazy* delay vector: nothing on the streaming decision path reads
    the final delays (commits consume ``accepted``/``ordering`` only),
    so the closing ``delays_for_pairwise`` batch -- a whole
    ``(k, k)`` evaluation -- is deferred until a consumer asks."""
    accepted = [int(i) for i in np.flatnonzero(active)]
    final_priority = np.zeros(n, dtype=np.int64)
    for rank, job in enumerate(reversed(order_low_to_high), start=1):
        final_priority[job] = rank

    def delays_fn() -> np.ndarray:
        return _final_delays(analyzer, equation, n, active,
                             final_priority, accepted)

    return AdmissionResult(accepted=accepted, rejected=rejected,
                           ordering=final_priority, delays_fn=delays_fn)


def result_delays(analysis: SubsetAnalysis,
                  result: AdmissionResult) -> np.ndarray:
    """Recompute the final delay vector of ``result`` over
    ``analysis`` -- bitwise identical to what the controller that
    produced ``result`` would have returned eagerly, because the
    closing batch is a pure function of the job set, the final
    ordering and the surviving active mask (and sliced subset caches
    are bitwise identical to cold ones).  The online cells rebind
    parked results' lazy delays onto this helper so the decision memo
    holds thin rebuilders instead of pinning whole per-event subset
    analyses (see :meth:`repro.online.cell.AdmissionCell.decide`)."""
    n = analysis.jobset.num_jobs
    active = np.zeros(n, dtype=bool)
    active[np.asarray(result.accepted, dtype=np.int64)] = True
    return _final_delays(analysis.test.analyzer, analysis.test.equation,
                         n, active, result.ordering, result.accepted)


def _drop_stage_maxima(planes: np.ndarray, maxima: np.ndarray,
                       mask: np.ndarray, ps,
                       est: np.ndarray, err: np.ndarray,
                       rel: float, abs_: float,
                       watch: "np.ndarray | None" = None) -> None:
    """After clearing ``mask[ps]``: re-derive every per-stage row
    maximum that one of the removed columns was achieving (or tying),
    debiting ``est`` by the exact drops and padding ``err`` for the
    rounding of each subtraction.  One vectorized sweep over all
    stages and all removed columns; rows whose stored maximum is
    achieved by a surviving column keep it exactly unchanged.

    ``watch`` restricts maintenance to the rows whose bounds will ever
    be read again (the controller's still-infeasible candidates --
    float monotonicity retires certainly-feasible rows for good);
    unwatched rows are left stale on purpose."""
    if isinstance(ps, int):
        best = planes[:, :, ps]
    else:
        best = planes[:, :, ps].max(axis=2)
    hit = (best > 0.0) & (best >= maxima)
    if watch is not None:
        hit &= watch
    if not hit.any():
        return
    stages, rows = np.nonzero(hit)
    new = np.where(mask, planes[stages, rows, :], 0.0).max(axis=1)
    drop = maxima[stages, rows] - new
    maxima[stages, rows] = new
    # Rows can repeat across stages: unbuffered scatter accumulation.
    np.subtract.at(est, rows, drop)
    np.add.at(err, rows, rel * drop + abs_)


def _raise_stage_maxima(planes: np.ndarray, maxima: np.ndarray,
                        ps, est: np.ndarray, err: np.ndarray,
                        rel: float, abs_: float) -> None:
    """Fold the columns ``ps`` *into* the per-stage row maxima (the
    carry transform's column additions), crediting ``est`` by the
    exact rises and padding ``err`` for the rounding of each
    addition."""
    if isinstance(ps, int):
        col = planes[:, :, ps]
    else:
        col = planes[:, :, ps].max(axis=2)
    rise = col - maxima
    np.maximum(rise, 0.0, out=rise)
    total = rise.sum(axis=0)
    est += total
    err += rel * total + abs_ * planes.shape[0]
    np.maximum(maxima, col, out=maxima)


class _ExcessBands:
    """Certified bands ``est +- err`` on every candidate's excess
    ``Delta_i - D_i``, maintained by *exact per-removal deltas*.

    Seeded from the exact kernel values of the first full level
    evaluation, then updated on every placement/discard through the
    :meth:`~repro.core.dca.DelayAnalyzer.band_operands` decomposition:
    removing job ``p`` from the candidate columns changes the
    job-additive term by exactly ``-delta[i, p]`` and each stage
    maximum by the difference of two exact maxima (maxima are exact,
    order-free reductions; only the subtraction rounds).  ``err``
    grows by ``_REL * |change| + _ABS`` per update -- orders of
    magnitude above the true float drift of re-association inside the
    level kernels (~1e-13 relative on every tier) yet far below
    typical excess margins -- so

    * ``hi = est + err <= tol``  =>  the exact excess passes,
    * ``lo = est - err  > tol``  =>  the exact excess fails,

    under the analyzer's *own* kernel.  Anything inside the band is
    re-evaluated exactly by the controller: decisions never depend on
    the bands, only the amount of skipped work does.
    """

    _REL = 1e-9
    _ABS = 1e-12

    __slots__ = ("_delta", "_planes", "_block", "_deadlines", "_cols",
                 "_bact", "est", "err", "_smax", "_bmax")

    def __init__(self, analyzer: DelayAnalyzer, equation: str,
                 deadlines: np.ndarray, cols: np.ndarray,
                 active: np.ndarray,
                 state: "tuple | None" = None) -> None:
        delta, planes, block = analyzer.band_operands(equation)
        self._delta = delta
        self._planes = planes
        self._block = block
        self._deadlines = deadlines
        self._cols = cols.copy()
        n = delta.shape[0]
        if state is not None:
            # Adopt a carried level-1 state (est/err/smax/bmax already
            # transformed into this subset's index space and owned by
            # the caller; see :func:`_carry_transform`).
            self.est, self.err, self._smax, bmax = state
            self._bact = active.copy() if block is not None else None
            self._bmax = bmax
            return
        self.est = np.zeros(n)
        self.err = np.zeros(n)
        self._smax = np.empty((planes.shape[0], n))
        for j in range(planes.shape[0]):
            self._smax[j] = np.where(self._cols, planes[j], 0.0).max(axis=1)
        if block is not None:
            self._bact = active.copy()
            self._bmax = np.empty((block.shape[0], n))
            for j in range(block.shape[0]):
                self._bmax[j] = np.where(
                    self._bact, block[j], 0.0).max(axis=1)
        else:
            self._bact = None
            self._bmax = None

    def seed(self, rows: np.ndarray, excesses: np.ndarray) -> None:
        """(Re)anchor the selected rows on exact excesses.  The seed
        pad covers the cross-tier/re-association drift of all later
        delta updates relative to a fresh kernel evaluation."""
        self.est[rows] = excesses
        self.err[rows] = (self._REL * (np.abs(excesses)
                                       + self._deadlines[rows])
                          + self._ABS)

    def bounds(self, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        est = self.est[rows]
        err = self.err[rows]
        return est - err, est + err

    def remove(self, p: int, *, discard: bool = False,
               watch: "np.ndarray | None" = None) -> None:
        """Account for job ``p`` leaving the candidate columns
        (placement) and, on ``discard``, the active set too (which
        shrinks eq5's priority-independent blocking maxima).  With
        ``watch``, only the watched rows' maxima stay live -- the
        controller guarantees it never reads the others again."""
        d = self._delta[:, p]
        self.est -= d
        self.err += self._REL * np.abs(d) + self._ABS
        self._cols[p] = False
        _drop_stage_maxima(self._planes, self._smax, self._cols, p,
                           self.est, self.err, self._REL, self._ABS,
                           watch)
        if discard and self._block is not None:
            self._bact[p] = False
            _drop_stage_maxima(self._block, self._bmax, self._bact, p,
                               self.est, self.err, self._REL, self._ABS,
                               watch)

    def remove_many(self, ps: np.ndarray,
                    watch: "np.ndarray | None" = None) -> None:
        """Account for a whole batch of placements at once (the
        batched certain-pass runs of :func:`_banded_audsley`): one
        combined job-additive debit and one maxima sweep over all
        removed columns, instead of one band update per level."""
        if ps.size == 1:
            self.remove(int(ps[0]), watch=watch)
            return
        D = self._delta[:, ps]
        self.est -= D.sum(axis=1)
        self.err += (self._REL * np.abs(D).sum(axis=1)
                     + self._ABS * ps.size)
        self._cols[ps] = False
        _drop_stage_maxima(self._planes, self._smax, self._cols, ps,
                           self.est, self.err, self._REL, self._ABS,
                           watch)


#: Carry-transform guards: bail to a full level-1 evaluation when the
#: candidate set changed by more than this many jobs (the transform's
#: per-job column work would approach the batch kernel's cost) ...
_CARRY_MAX_DIFF = 8
#: ... or after this many chained transforms without a fresh full
#: seed, bounding the accumulated ``err`` pad (~age * 1e-9 relative)
#: far below any margin that could matter.
_CARRY_MAX_AGE = 64


class _BandCarrySlot:
    """Level-1 band snapshot carried across an analyzer's decisions.

    Consecutive online decisions differ by a handful of jobs (the new
    arrival, last decision's rejects, departures in between), while
    their level-1 excesses differ by exactly the band decomposition's
    per-job column deltas (:meth:`~repro.core.dca.DelayAnalyzer.\
band_operands` -- the same exact-maxima algebra that maintains bands
    *within* a run).  One slot per :class:`IncrementalAnalyzer` stores
    the latest decision's level-1 state -- ``est``/``err`` bands,
    per-stage row maxima, and the operand arrays needed to *remove*
    its jobs later -- keyed by the candidate uid tuple.  The next
    decision transforms it into its own candidate space
    (:func:`_carry_transform`) and only evaluates the rows it has no
    bands for (typically just the new arrival), replacing the per-event
    full level-1 batch with a few vectorized column updates.

    Snapshot values stay valid across subsets because every operand
    entry is an elementwise slice of the same universe tensors (the
    pair entry for uids ``(i, k)`` is bitwise identical in every
    subset containing both), and the stage axis is system-wide.
    """

    __slots__ = ("key", "equation", "age", "est", "err", "smax",
                 "bmax", "delta", "planes", "block")

    def __init__(self) -> None:
        self.key: "tuple[int, ...] | None" = None

    def store(self, key: "tuple[int, ...]", equation: str,
              bands: _ExcessBands, age: int) -> None:
        """Snapshot ``bands`` (still at level-1 state: every candidate
        seeded or transformed, no placements applied yet)."""
        self.key = key
        self.equation = equation
        self.age = age
        self.est = bands.est.copy()
        self.err = bands.err.copy()
        self.smax = bands._smax.copy()
        self.bmax = (bands._bmax.copy()
                     if bands._bmax is not None else None)
        self.delta = bands._delta
        self.planes = bands._planes
        self.block = bands._block


def _carry_transform(carry: _BandCarrySlot,
                     key: "tuple[int, ...]",
                     analyzer: DelayAnalyzer, equation: str) -> (
        "tuple[tuple, np.ndarray] | None"):
    """Map the carried level-1 snapshot onto a new candidate set.

    Returns ``(state, fresh_rows)`` -- the adopted
    ``(est, err, smax, bmax)`` arrays in the new subset's index space
    plus the new-subset positions that still need an exact seed (jobs
    with no carried bands) -- or ``None`` when no usable snapshot
    exists and the caller must run the full level-1 evaluation.

    Jobs leaving the candidate set are removed column-by-column in the
    *old* subset's index space (exact ``-delta`` debits plus dropped
    stage maxima, the same algebra as in-run removals; for eq5 the
    leaver also exits the blocking maxima -- level 1 of the new
    decision never sees it as active).  Jobs joining are folded in the
    *new* subset's space (exact ``+delta`` credits plus raised
    maxima); their own rows get no bands here, only the row maxima
    later removals need.
    """
    old_key = carry.key
    if old_key is None or carry.equation != equation:
        return None
    if carry.age >= _CARRY_MAX_AGE:
        return None
    old_set = set(old_key)
    new_set = set(key)
    removed = [i for i, u in enumerate(old_key) if u not in new_set]
    added = [i for i, u in enumerate(key) if u not in old_set]
    if len(removed) + len(added) > _CARRY_MAX_DIFF:
        return None
    rel, abs_ = _ExcessBands._REL, _ExcessBands._ABS
    est = carry.est.copy()
    err = carry.err.copy()
    smax = carry.smax.copy()
    bmax = carry.bmax.copy() if carry.bmax is not None else None

    # 1) Column removals, batched, in the old subset's index space
    # (one combined debit and one maxima sweep -- the recomputed
    # maxima and the telescoped ``est`` debit equal the one-at-a-time
    # fold exactly).
    if removed:
        ps = np.asarray(removed, dtype=np.int64)
        cols = np.ones(len(old_key), dtype=bool)
        cols[ps] = False
        D = carry.delta[:, ps]
        est -= D.sum(axis=1)
        err += rel * np.abs(D).sum(axis=1) + abs_ * ps.size
        _drop_stage_maxima(carry.planes, smax, cols, ps,
                           est, err, rel, abs_)
        if bmax is not None:
            _drop_stage_maxima(carry.block, bmax, cols, ps,
                               est, err, rel, abs_)

    # 2) Re-index the surviving rows into the new subset's space (both
    # keys ascend by uid, so boolean compaction aligns the common
    # rows).
    n = len(key)
    delta, planes, block = analyzer.band_operands(equation)
    if removed:
        keep_old = np.ones(len(old_key), dtype=bool)
        keep_old[removed] = False
        est = est[keep_old]
        err = err[keep_old]
        smax = smax[:, keep_old]
        if bmax is not None:
            bmax = bmax[:, keep_old]
    if added:
        est_n = np.zeros(n)
        err_n = np.zeros(n)
        smax_n = np.zeros((smax.shape[0], n))
        keep_new = np.ones(n, dtype=bool)
        keep_new[added] = False
        est_n[keep_new] = est
        err_n[keep_new] = err
        smax_n[:, keep_new] = smax
        if bmax is not None:
            bmax_n = np.zeros((bmax.shape[0], n))
            bmax_n[:, keep_new] = bmax
        else:
            bmax_n = None
    else:
        est_n, err_n, smax_n, bmax_n = est, err, smax, bmax

    # 3) Column additions, batched, in the new subset's index space
    # (the per-column maxima rises telescope: folding the columns in
    # one at a time credits ``est`` by exactly ``max(old, cols...) -
    # old`` in total, which is what the batched fold computes).
    if added:
        ps = np.asarray(added, dtype=np.int64)
        D = delta[:, ps]
        est_n += D.sum(axis=1)
        err_n += rel * np.abs(D).sum(axis=1) + abs_ * ps.size
        _raise_stage_maxima(planes, smax_n, ps, est_n, err_n,
                            rel, abs_)
        if bmax_n is not None:
            _raise_stage_maxima(block, bmax_n, ps, est_n, err_n,
                                rel, abs_)
    # The joining rows' own maxima (needed by later removals and the
    # next snapshot): full row maxima -- cheap, a few rows.
    for p in added:
        smax_n[:, p] = planes[:, p, :].max(axis=1)
        if bmax_n is not None:
            bmax_n[:, p] = block[:, p, :].max(axis=1)
    return ((est_n, err_n, smax_n, bmax_n),
            np.asarray(added, dtype=np.int64))


def _banded_audsley(jobset: JobSet, test: SDCA, *,
                    all_or_nothing: bool,
                    carry: "_BandCarrySlot | None" = None,
                    key: "tuple[int, ...] | None" = None
                    ) -> "AdmissionResult | None":
    """Certified-band Audsley admission (float-monotone bounds).

    Bitwise identical, decision for decision and delay for delay, to
    :func:`repro.core.admission.opdca_admission` -- but the only
    *mandatory* kernel evaluation of a whole run is the first level's
    full batch, which seeds :class:`_ExcessBands`.  Every later level
    classifies its candidates from the carried bands:

    * all certainly-feasible  ->  the remaining trajectory is fully
      determined (stock places the lowest index each level, and float
      monotonicity keeps every candidate feasible) and is emitted
      with zero further evaluation -- the accept-heavy common case;
    * placement  ->  stock scans in index order and places the first
      exact pass, so only the *straddlers* (band spans the tolerance)
      sitting before the first certain pass are refreshed exactly,
      and refreshed rows are classified by the exact stock comparison
      (re-checking the refreshed band could stall on knife-edge
      values -- exact classification guarantees progress);
    * discard  ->  only the *contenders* (``hi >= max lo``) can hold
      or tie the worst excess (any other candidate ``a`` has
      ``exact[a] <= hi[a] < max(lo) <=`` the band-max candidate's
      exact excess, strictly), so only those are refreshed before the
      exact worst-offender rule (largest excess, ties to the larger
      index) applies.

    Every exact refresh goes through ``level_bounds(rows=...)`` on the
    analyzer's own kernel -- per-row bitwise identical to the stock
    full-batch evaluation of the level on every tier.
    """
    analyzer = test.analyzer
    equation = test.equation
    n = jobset.num_jobs
    deadlines = jobset.D
    tol = 1e-9

    active = np.ones(n, dtype=bool)
    unassigned = np.ones(n, dtype=bool)
    priority = np.zeros(n, dtype=np.int64)
    rejected: list[int] = []
    order_low_to_high: list[int] = []

    def exact_rows(rows: np.ndarray) -> np.ndarray:
        """Exact excesses of the selected candidates under the current
        level context (the float-monotone bounds never read the
        lower-priority set)."""
        delays = analyzer.level_bounds(
            unassigned, None, equation=equation, active=active,
            rows=rows)
        return delays - deadlines[rows]

    carried = (_carry_transform(carry, key, analyzer, equation)
               if carry is not None and key is not None else None)
    #: Exact excesses of the *current* level's candidates, when a full
    #: evaluation just happened (level 1); later levels classify from
    #: the bands instead.
    exact_level: "np.ndarray | None" = None
    if carried is not None:
        state, fresh_rows = carried
        bands = _ExcessBands(analyzer, equation, deadlines,
                             unassigned & active, active, state=state)
        if fresh_rows.size:
            bands.seed(fresh_rows, exact_rows(fresh_rows))
        age = carry.age + 1
    else:
        candidates = np.flatnonzero(unassigned)
        excesses = exact_rows(candidates)
        bands = _ExcessBands(analyzer, equation, deadlines,
                             unassigned & active, active)
        bands.seed(candidates, excesses)
        exact_level = excesses
        age = 0
    if carry is not None and key is not None:
        # Snapshot the level-1 state for the next decision, before the
        # run's placements/discards mutate it.
        carry.store(key, equation, bands, age)

    cand = [int(c) for c in np.flatnonzero(unassigned)]
    level = len(cand)
    #: Candidates whose bands are still live.  A job classified
    #: certainly feasible leaves the watch for good: float monotonicity
    #: (removals only lower excesses) locks the classification at every
    #: later level, so the bands stop maintaining its (never again
    #: read) row maxima.
    watched = np.zeros(n, dtype=bool)
    watched[cand] = True
    #: job index -> exact excess known this level (the walk resolves
    #: straddlers lazily, one row at a time, in stock scan order --
    #: straddlers past the first pass are never evaluated at all).
    fresh: dict[int, float] = {}
    if exact_level is not None:
        fresh = {j: float(v) for j, v in zip(cand, exact_level)}

    #: python twin of ``watched`` for the walk's per-candidate check
    #: (set membership beats a numpy scalar read at this size).
    sticky: set[int] = set()
    est_item = bands.est.item
    err_item = bands.err.item

    def passes(j: int) -> bool:
        """Stock pass/fail of candidate ``j`` at the current level:
        from the locked classification, the exact value when known,
        the bands when certain, and a one-row exact refresh otherwise.
        Exact refreshes run at the *current* level context (the walk
        only clears ``unassigned`` after the level resolves)."""
        if j in sticky:
            return True
        value = fresh.get(j)
        if value is None:
            e = est_item(j)
            r = err_item(j)
            if e + r <= tol:
                sticky.add(j)
                watched[j] = False
                return True
            if e - r > tol:
                return False
            row = np.asarray([j], dtype=np.int64)
            ex = exact_rows(row)
            bands.seed(row, ex)
            value = fresh[j] = float(ex[0])
        if value <= tol:
            sticky.add(j)
            watched[j] = False
            return True
        return False

    while cand:
        m = len(cand)
        first = -1
        for pos in range(m):
            # Inlined fast path of :func:`passes` -- the walk's hottest
            # outcome by far is a watched blocker's certain fail.
            j = cand[pos]
            if j not in sticky and j not in fresh:
                if est_item(j) - err_item(j) > tol:
                    continue
            if passes(j):
                first = pos
                break
        if first == 0:
            # Batched prefix placement: stock places the lowest
            # indexed feasible candidate each level, and removals only
            # *lower* float-monotone excesses, so a leading run of
            # certainly-feasible candidates is placed as a block --
            # position 0 now, the next position at the level after
            # (still certainly feasible, and nothing sits before it),
            # and so on -- with one batched band update at the end
            # instead of one per level.  When the run spans the whole
            # level this is the fully-determined-trajectory emission.
            stop = 1
            while stop < m and passes(cand[stop]):
                stop += 1
            placed_jobs = cand[:stop]
            del cand[:stop]
            for j in placed_jobs:
                priority[j] = level
                level -= 1
                order_low_to_high.append(j)
            unassigned[placed_jobs] = False
            if cand:
                bands.remove_many(
                    np.asarray(placed_jobs, dtype=np.int64), watched)
            fresh.clear()
            continue
        if first > 0:
            # Blocked placement: certainly-infeasible candidates sit
            # before ``first``, and removing the placed job lowers
            # their float-monotone excesses -- a blocker may flip
            # feasible at the very next level (measured: ~80% of the
            # time at the benchmark operating point), so speculating
            # past it loses.  Stock one-per-level placement.
            placed = cand.pop(first)
            priority[placed] = level
            level -= 1
            unassigned[placed] = False
            order_low_to_high.append(placed)
            bands.remove(placed, watch=watched)
            fresh.clear()
            continue

        if all_or_nothing:
            # No feasible candidate at this level (the walk resolved
            # every straddler exactly without finding a pass): the run
            # fails.
            return None

        # Modified Step 10: discard the worst offender -- largest
        # exact excess, float ties resolved to the larger job index,
        # exactly like ``max()`` over (excess, index) tuples (``cand``
        # holds the job indices in ascending order).
        arr = np.asarray(cand, dtype=np.int64)
        est = bands.est[arr]
        err = bands.err[arr]
        lo = est - err
        hi = est + err
        for pos, j in enumerate(cand):
            value = fresh.get(j)
            if value is not None:
                lo[pos] = hi[pos] = value
        threshold = lo.max()
        contenders = np.flatnonzero(hi >= threshold)
        need = arr[[int(p) for p in contenders
                    if cand[int(p)] not in fresh]]
        if need.size:
            ex = exact_rows(need)
            bands.seed(need, ex)
            for j, value in zip(need, ex):
                fresh[int(j)] = float(value)
        worst_excess, worst_job = max(
            (fresh[cand[int(p)]], cand[int(p)]) for p in contenders)
        cand.remove(worst_job)
        rejected.append(worst_job)
        active[worst_job] = False
        unassigned[worst_job] = False
        watched[worst_job] = False
        level -= 1
        bands.remove(worst_job, discard=True, watch=watched)
        fresh.clear()

    return _finish_result(analyzer, equation, n, active,
                          order_low_to_high, rejected)


def _witness_audsley(jobset: JobSet, test: SDCA
                     ) -> "AdmissionResult | None":
    """Feasibility-only certified-band Audsley: *some* feasible
    priority assignment of the whole job set, or ``None``.

    Under the :func:`_banded` gate Audsley is complete whichever
    feasible candidate it places at each level, so a yes/no question
    need not trace the lowest-index trajectory.  One exact full-level
    evaluation seeds :class:`_ExcessBands`; each round then places
    *every* certainly-feasible candidate (``est + err <= tol``) in one
    batched band update, and only when there is none refreshes the
    straddlers (``est - err <= tol``) exactly and places every exact
    pass.  A round with no pass proves infeasibility.

    * Batch placement is sound: each placed job's final higher set is
      a subset of the unassigned set it was verified against, and
      float-monotone bounds never rise when jobs are removed.
    * Getting stuck is exact: when no member ``j`` of the unassigned
      set ``U`` passes with ``U - {j}`` above it, the lowest member of
      ``U`` under *any* ordering fails too (its higher set contains
      ``U - {j}``).

    The verdict therefore equals the stock controller's; only the
    ordering of a feasible result may differ from the lowest-index
    trajectory.
    """
    analyzer = test.analyzer
    equation = test.equation
    n = jobset.num_jobs
    deadlines = jobset.D
    tol = 1e-9
    active = np.ones(n, dtype=bool)
    unassigned = np.ones(n, dtype=bool)

    def exact_rows(rows: np.ndarray) -> np.ndarray:
        delays = analyzer.level_bounds(
            unassigned, None, equation=equation, active=active,
            rows=rows)
        return delays - deadlines[rows]

    cand = np.arange(n)
    bands = _ExcessBands(analyzer, equation, deadlines, unassigned,
                         active)
    bands.seed(cand, exact_rows(cand))
    order_low_to_high: list[int] = []
    while cand.size:
        lo, hi = bands.bounds(cand)
        placed = cand[hi <= tol]
        if not placed.size:
            straddlers = cand[lo <= tol]
            if not straddlers.size:
                return None
            excesses = exact_rows(straddlers)
            bands.seed(straddlers, excesses)
            placed = straddlers[excesses <= tol]
            if not placed.size:
                return None
        order_low_to_high.extend(placed.tolist())
        unassigned[placed] = False
        cand = np.flatnonzero(unassigned)
        if cand.size:
            bands.remove_many(placed, unassigned)
    return _finish_result(analyzer, equation, n, active,
                          order_low_to_high, [])


def admit(analysis: SubsetAnalysis, *,
          mode: str = "incremental") -> AdmissionResult:
    """Run the admission controller over one subset analysis.

    ``mode="incremental"`` uses the lazy level evaluation above;
    ``mode="cold"`` runs the stock batch
    :func:`~repro.core.admission.opdca_admission` (the reference the
    equivalence tests and the benchmark compare against).
    """
    if mode == "incremental":
        return incremental_admission(
            analysis.jobset, analysis.test, carry=analysis.carry,
            key=tuple(int(i) for i in analysis.indices))
    if mode == "cold":
        return opdca_admission(analysis.jobset, analysis.test.equation,
                               test=analysis.test)
    raise ValueError(f"mode must be 'incremental' or 'cold', got {mode!r}")


def admit_all_or_nothing(analysis: SubsetAnalysis, *,
                         mode: str = "incremental"
                         ) -> "AdmissionResult | None":
    """All-or-nothing admission over one subset analysis: *a* feasible
    priority assignment of the whole candidate set, or ``None``.

    ``None`` exactly when :func:`admit` would reject at least one job.
    Under the certified-band gate in incremental mode (float-monotone
    bound, window-filtered analyzer) this is the witness search
    :func:`_witness_audsley`, whose ordering may differ from the
    lowest-index Audsley trajectory -- the verdict never does.
    Everywhere else it is :func:`admit_trajectory`.  The sharded
    engine's whole-universe certificate uses this; cells, whose
    orderings are pinned, use :func:`admit_trajectory`.
    """
    if mode == "incremental" and _banded(analysis.jobset, analysis.test):
        return _witness_audsley(analysis.jobset, analysis.test)
    return admit_trajectory(analysis, mode=mode)


def admit_trajectory(analysis: SubsetAnalysis, *,
                     mode: str = "incremental"
                     ) -> "AdmissionResult | None":
    """All-or-nothing admission along the lowest-index Audsley
    trajectory: the (everyone-accepted) result when the whole
    candidate set is OPDCA-schedulable and ``None`` otherwise -- i.e.
    ``None`` exactly when :func:`admit` would reject at least one
    job, and on success bitwise identical to it.  The retry queue
    uses this instead of the full controller because a failed retry
    stops at its first infeasible level instead of paying the discard
    cascade.
    """
    if mode == "incremental":
        return incremental_feasibility(
            analysis.jobset, analysis.test, carry=analysis.carry,
            key=tuple(int(i) for i in analysis.indices))
    if mode == "cold":
        from repro.core.opdca import opdca

        result = opdca(analysis.jobset, analysis.test.equation,
                       test=analysis.test)
        if not result.feasible:
            return None
        return AdmissionResult(
            accepted=list(range(analysis.jobset.num_jobs)),
            rejected=[], ordering=result.ordering.priority,
            delays=result.delays)
    raise ValueError(f"mode must be 'incremental' or 'cold', got {mode!r}")
