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
  of re-running the algebra.  A slice is not kept across events: the
  candidate set changes with almost every event, so a kept slice is
  almost never asked for again (see the cache table in
  ``docs/kernels.md``).
* :func:`incremental_admission` reproduces
  :func:`repro.core.admission.opdca_admission` decision for decision.
  The float-monotone bounds on window-filtered analyzers (every online
  default) run the certified-band controller (:func:`_banded_audsley`):
  one exact level-1 evaluation, then exact per-removal band updates,
  refreshing only the candidates whose band straddles the tolerance.
  Everything else runs ``opdca_admission``'s own lazy frontier driver.
* :func:`admit_all_or_nothing` is the one deliberate exception: a
  yes/no question needs only *some* feasible assignment, so under the
  float-monotone bounds it searches for any witness
  (:func:`_witness_audsley`) -- same verdict as the cold path, but
  possibly a different ordering.  :func:`trajectory_outcome` keeps the
  cold path's lowest-index ordering.
* a certified-band run that gets stuck hands back its *failure core*
  (:class:`Outcome`): the unassigned set ``U`` of the stuck level (for
  eq5, whose blocking term reads every active job, the level's active
  set).  No member of ``U`` passes with ``U - {j}`` above it, so ``U``
  has no feasible fixed-priority order, and under the float-monotone
  bounds no superset of it has one either -- the online cells and the
  sharded certificate answer a later all-or-nothing question whose
  candidate contains a recorded core with "infeasible" and run no
  analysis.  A core is recorded only when every member's certified
  excess clears the ``1e-9`` threshold by the
  :meth:`_ExcessBands.seed` pad ``_REL * (|excess| + D) + _ABS``: the
  pad covers the different reduction lengths of a superset's
  analysis, so a later run's exact values fail too.

Every value produced along either path is the result of the same
floating-point reductions over the same operands in the same order as
the cold path, which is what the bitwise-equivalence property tests in
``tests/online`` pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.admission import (
    AdmissionResult,
    _final_delays,
    _finish_result,
    _frontier_admission,
    _StockExcessLevels,
)
from repro.core.dca import FLOAT_MONOTONE_EQUATIONS, DelayAnalyzer
from repro.core.schedulability import SDCA, Policy, resolve_equation
from repro.core.segments import SegmentCache
from repro.core.system import JobSet


@dataclass
class SubsetAnalysis:
    """One live subset, ready for admission: job set + bound test."""

    jobset: JobSet
    test: SDCA
    #: Universe indices of the subset's jobs, ascending.
    indices: np.ndarray


class Outcome(NamedTuple):
    """One controller run and the failure cores it proved.

    ``cores`` holds one entry per level at which the run got stuck, in
    order: the full controller gets stuck once per discard (entries
    align with ``result.rejected``), an all-or-nothing run at most
    once (and then ``result`` is ``None``).  An entry is the ascending
    array of the core's local job indices, or ``None`` when a member
    sat inside the seed pad.  Runs on the frontier driver record no
    core: their ``cores`` is empty.
    """

    result: "AdmissionResult | None"
    cores: tuple = ()


class IncrementalAnalyzer:
    """Sliced per-event analyses of a fixed job universe.

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
        Level-evaluation kernel of every per-event subset analyzer
        (``"paired"`` default / ``"reference"``); decisions are bitwise
        identical either way (property-tested), only the amount of
        work per level differs.
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

    @property
    def universe(self) -> JobSet:
        return self._universe

    @property
    def equation(self) -> str:
        return self._equation

    # -- per-event subset analyses -----------------------------------

    def subset(self, indices) -> SubsetAnalysis:
        """Sliced (warm) analysis of ``universe[indices]``: a handful
        of gathers from the universe job set and segment cache, no
        segment algebra."""
        idx = np.sort(np.asarray(indices, dtype=np.int64))
        jobset = self._universe.restrict(idx)
        cache = self._cache.restrict(jobset, idx)
        analyzer = DelayAnalyzer(jobset, cache=cache, kernel=self._kernel)
        test = SDCA(jobset, self._policy, analyzer=analyzer)
        return SubsetAnalysis(jobset=jobset, test=test, indices=idx)


def cold_analysis(universe: JobSet, indices,
                  policy: "str | Policy") -> SubsetAnalysis:
    """Cold analysis of ``universe[indices]``: re-run the job-set
    constructor and the segment algebra from scratch (what a batch
    caller would do for every event).  Cold :func:`admit_outcome` then
    runs the frontier driver in stock mode, evaluating every level in full.

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


def incremental_admission(jobset: JobSet, test: SDCA) -> AdmissionResult:
    """Lazily evaluated OPDCA admission (Algorithm 1, modified Step 10).

    Produces an :class:`~repro.core.admission.AdmissionResult` whose
    ``accepted``/``rejected``/``ordering``/``delays`` are **bitwise
    identical** to :func:`repro.core.admission.opdca_admission` on the
    same job set and test: candidates are scanned in the same index
    order against the same batch kernels, the first feasible candidate
    (``Delta_i - D_i <= 1e-9``) is placed, and when a level rejects,
    the same worst-offender rule (largest ``Delta_i - D_i``, ties to
    the larger index) applies.

    The difference is how much of a level is ever evaluated, and two
    routes share the work (:func:`_lazy_audsley`):

    * the float-monotone bounds on window-filtered analyzers -- every
      online default -- run the certified-band controller
      (:func:`_banded_audsley`): one exact level-1 evaluation, then
      exact per-removal band updates, with exact refreshes only for
      the candidates whose band straddles the tolerance;
    * everything else (``eq10``, the non-OPA-compatible ``eq2``/``eq4``,
      unfiltered analyzers) runs ``opdca_admission`` itself: the
      frontier-carrying driver over
      :class:`repro.core.admission._ExcessLevels`.

    Decisions are *always* exact -- both routes only decide how much
    work is skipped, never the outcome.
    """
    return _lazy_audsley(jobset, test, discard=True).result


def incremental_feasibility(jobset: JobSet,
                            test: SDCA) -> "AdmissionResult | None":
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
    return _lazy_audsley(jobset, test, discard=False).result


def _lazy_audsley(jobset: JobSet, test: SDCA, *,
                  discard: bool) -> Outcome:
    """Controller dispatch between the two routes of
    :func:`incremental_admission`.  ``discard`` selects the modified
    Step 10 (full controller) over stopping at the first infeasible
    level (all-or-nothing).  Only the certified-band route records
    failure cores."""
    if _banded(jobset, test):
        return _banded_audsley(jobset, test, discard=discard)
    return Outcome(_frontier_admission(jobset, test, discard=discard))


def _banded(jobset: JobSet, test: SDCA) -> bool:
    """The certified-band gate: a float-monotone bound (all of which
    ignore the lower-priority set) on a window-filtered analyzer."""
    return bool(test.equation in FLOAT_MONOTONE_EQUATIONS
                and test.analyzer.window_filter and jobset.num_jobs)


def result_delays(analysis: SubsetAnalysis, accepted: "list[int]",
                  ordering: np.ndarray) -> np.ndarray:
    """Recompute the final delay vector of an admission result with
    ``accepted`` and ``ordering`` over ``analysis`` -- bitwise
    identical to what the controller that produced it would have
    returned eagerly, because the closing batch is a pure function of
    the job set, the final ordering and the surviving active mask (and
    sliced subset caches are bitwise identical to cold ones).  The
    online cells rebind parked results' lazy delays onto this helper
    so the decision memo holds thin rebuilders instead of pinning
    whole per-event subset analyses (see
    :meth:`repro.online.cell.AdmissionCell.decide`)."""
    n = analysis.jobset.num_jobs
    active = np.zeros(n, dtype=bool)
    active[np.asarray(accepted, dtype=np.int64)] = True
    return _final_delays(analysis.test.analyzer, analysis.test.equation,
                         n, active, ordering, accepted)


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
    count, idx = DelayAnalyzer._mask_plan(mask)
    new = DelayAnalyzer._plane_max(planes[stages, rows, :], mask,
                                   count, idx)
    drop = maxima[stages, rows] - new
    maxima[stages, rows] = new
    # Rows can repeat across stages: unbuffered scatter accumulation.
    np.subtract.at(est, rows, drop)
    np.add.at(err, rows, rel * drop + abs_)


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
                 deadlines: np.ndarray) -> None:
        """Bands over a whole job set: every job starts unassigned and
        active, so the per-stage row maxima are unmasked."""
        delta, planes, block = analyzer.band_operands(equation)
        self._delta = delta
        self._planes = planes
        self._block = block
        self._deadlines = deadlines
        n = delta.shape[0]
        self._cols = np.ones(n, dtype=bool)
        self.est = np.zeros(n)
        self.err = np.zeros(n)
        self._smax = planes.max(axis=2)
        if block is not None:
            self._bact = np.ones(n, dtype=bool)
            self._bmax = block.max(axis=2)
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

    def core(self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             active: np.ndarray, tol: float) -> "np.ndarray | None":
        """Failure core of a stuck level whose unassigned candidates
        ``rows`` all fail, with certified excess bounds ``lo``/``hi``
        (exact values where known): ``rows`` itself, or for eq5, whose
        blocking term reads every active job, the ``active`` set.
        ``None`` unless every ``lo`` clears ``tol`` by the seed pad
        (sized on ``hi``), which covers a superset analysis's different
        reduction lengths: only then do its exact values fail too."""
        pad = self._REL * (np.abs(hi) + self._deadlines[rows]) + self._ABS
        if not (lo - pad).min() > tol:
            return None
        if self._block is not None:
            return np.flatnonzero(active)
        return rows

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


def _banded_audsley(jobset: JobSet, test: SDCA, *,
                    discard: bool) -> Outcome:
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

    Each stuck level -- every discard level, or the level an
    all-or-nothing run stops at -- yields its failure core
    (:meth:`_ExcessBands.core`, :class:`Outcome`).
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
    cores: list = []

    def exact_rows(rows: np.ndarray) -> np.ndarray:
        """Exact excesses of the selected candidates under the current
        level context (the float-monotone bounds never read the
        lower-priority set)."""
        delays = analyzer.level_bounds(
            unassigned, None, equation=equation, active=active,
            rows=rows)
        return delays - deadlines[rows]

    cand = list(range(n))
    level = n
    rows = np.arange(n)
    level_one = exact_rows(rows)
    bands = _ExcessBands(analyzer, equation, deadlines)
    bands.seed(rows, level_one)
    #: Candidates whose bands are still live.  A job classified
    #: certainly feasible leaves the watch for good: float monotonicity
    #: (removals only lower excesses) locks the classification at every
    #: later level, so the bands stop maintaining its (never again
    #: read) row maxima.
    watched = np.ones(n, dtype=bool)
    #: job index -> exact excess known this level (level 1 is exact;
    #: later levels resolve straddlers lazily, one row at a time, in
    #: stock scan order -- straddlers past the first pass are never
    #: evaluated at all).
    fresh: dict[int, float] = dict(zip(cand, level_one.tolist()))

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

        # No feasible candidate at this level (the walk resolved every
        # straddler exactly without finding a pass): every candidate's
        # excess is certified above the tolerance, by its band or
        # exactly.
        arr = np.asarray(cand, dtype=np.int64)
        lo, hi = bands.bounds(arr)
        for pos, j in enumerate(cand):
            value = fresh.get(j)
            if value is not None:
                lo[pos] = hi[pos] = value
        if not discard:
            # The run fails.
            return Outcome(None, (bands.core(arr, lo, hi, active, tol),))

        # Modified Step 10: discard the worst offender -- largest
        # exact excess, float ties resolved to the larger job index,
        # exactly like ``max()`` over (excess, index) tuples (``cand``
        # holds the job indices in ascending order).
        threshold = lo.max()
        contenders = np.flatnonzero(hi >= threshold)
        need_pos = [int(p) for p in contenders
                    if cand[int(p)] not in fresh]
        if need_pos:
            need = arr[need_pos]
            ex = exact_rows(need)
            bands.seed(need, ex)
            lo[need_pos] = hi[need_pos] = ex
            for j, value in zip(need, ex):
                fresh[int(j)] = float(value)
        cores.append(bands.core(arr, lo, hi, active, tol))
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

    return Outcome(_finish_result(analyzer, equation, n, active,
                                  order_low_to_high, rejected),
                   tuple(cores))


def _witness_audsley(jobset: JobSet, test: SDCA) -> Outcome:
    """Feasibility-only certified-band Audsley: *some* feasible
    priority assignment of the whole job set, or ``None`` with the
    failure core of the round that got stuck.

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
    trajectory.  A stuck set differs from the trajectory's but is a
    failure core all the same (:class:`Outcome`).
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
    bands = _ExcessBands(analyzer, equation, deadlines)
    bands.seed(cand, exact_rows(cand))
    order_low_to_high: list[int] = []
    while cand.size:
        lo, hi = bands.bounds(cand)
        placed = cand[hi <= tol]
        if not placed.size:
            straddle = lo <= tol
            if straddle.any():
                straddlers = cand[straddle]
                excesses = exact_rows(straddlers)
                bands.seed(straddlers, excesses)
                placed = straddlers[excesses <= tol]
                lo[straddle] = hi[straddle] = excesses
            if not placed.size:
                return Outcome(None,
                               (bands.core(cand, lo, hi, active, tol),))
        order_low_to_high.extend(placed.tolist())
        unassigned[placed] = False
        cand = np.flatnonzero(unassigned)
        if cand.size:
            bands.remove_many(placed, unassigned)
    return Outcome(_finish_result(analyzer, equation, n, active,
                                  order_low_to_high, []))


def admit_outcome(analysis: SubsetAnalysis, *,
                  mode: str = "incremental") -> Outcome:
    """Run the full admission controller (evictions allowed) over one
    subset analysis, with the failure cores of its discard levels
    (:class:`Outcome`; cold mode records none).

    ``mode="incremental"`` uses the lazy level evaluation above;
    ``mode="cold"`` runs the frontier driver in stock mode
    (:class:`~repro.core.admission._StockExcessLevels`: every level
    evaluated in full), the yardstick the online benchmark measures
    the incremental path against.
    """
    if mode == "incremental":
        return _lazy_audsley(analysis.jobset, analysis.test, discard=True)
    if mode == "cold":
        return Outcome(_frontier_admission(analysis.jobset, analysis.test,
                                           discard=True,
                                           adapter=_StockExcessLevels))
    raise ValueError(f"mode must be 'incremental' or 'cold', got {mode!r}")


def trajectory_outcome(analysis: SubsetAnalysis, *,
                       mode: str = "incremental") -> Outcome:
    """All-or-nothing admission along the lowest-index Audsley
    trajectory, with the failure core of a failed run
    (:class:`Outcome`; cold mode records none).

    ``result`` is the (everyone-accepted) controller result when the
    whole candidate set is OPDCA-schedulable and ``None`` otherwise --
    ``None`` exactly when :func:`admit_outcome` would reject at least
    one job, and on success bitwise identical to it.  The retry queue
    uses this instead of the full controller because a failed retry
    stops at its first infeasible level instead of paying the discard
    cascade.  ``mode="cold"`` runs the lazy frontier-carrying driver
    over the cold analysis
    (:func:`repro.core.admission._frontier_admission`), with the same
    ``Delta_i - D_i <= 1e-9`` pass rule as cold :func:`admit_outcome`.
    """
    if mode == "incremental":
        return _lazy_audsley(analysis.jobset, analysis.test,
                             discard=False)
    if mode == "cold":
        return Outcome(_frontier_admission(analysis.jobset, analysis.test,
                                           discard=False))
    raise ValueError(f"mode must be 'incremental' or 'cold', got {mode!r}")


def witness_outcome(analysis: SubsetAnalysis, *,
                    mode: str = "incremental") -> Outcome:
    """:func:`admit_all_or_nothing` with the failure core of a failed
    search (:class:`Outcome`): the witness search's stuck set under
    the certified-band gate, the trajectory's elsewhere."""
    if mode == "incremental" and _banded(analysis.jobset, analysis.test):
        return _witness_audsley(analysis.jobset, analysis.test)
    return trajectory_outcome(analysis, mode=mode)


def admit_all_or_nothing(analysis: SubsetAnalysis, *,
                         mode: str = "incremental"
                         ) -> "AdmissionResult | None":
    """All-or-nothing admission over one subset analysis: *a* feasible
    priority assignment of the whole candidate set, or ``None``.

    ``None`` exactly when :func:`admit_outcome` would reject at least
    one job.
    Under the certified-band gate in incremental mode (float-monotone
    bound, window-filtered analyzer) this is the witness search
    :func:`_witness_audsley`, whose ordering may differ from the
    lowest-index Audsley trajectory -- the verdict never does.
    Everywhere else it is :func:`trajectory_outcome`.  Cells, whose
    orderings are pinned, use :func:`trajectory_outcome`.
    """
    return witness_outcome(analysis, mode=mode).result
