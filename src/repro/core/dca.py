"""Delay-composition-algebra (DCA) end-to-end delay bounds.

This module implements every delay bound used in the paper:

========  ==========================================================
``eq1``   multi-stage single-resource pipeline, preemptive
          (Jayachandran & Abdelzaher 2008, reproduced as paper Eq. 1)
``eq2``   single-resource, non-preemptive (paper Eq. 2,
          OPA-incompatible -- see Observation IV.2 / Example 1)
``eq3``   MSMR, preemptive, extended DCA (paper Eq. 3)
``eq4``   MSMR, non-preemptive (paper Eq. 4, OPA-incompatible)
``eq5``   MSMR, non-preemptive, OPA-compatible variant of Eq. 4 with
          the blocking term taken over all other jobs (paper Eq. 5)
``eq6``   MSMR, preemptive, refined job-additive accounting via
          ``w_{i,k}`` (paper Eq. 6) -- the bound behind OPDCA
``eq10``  3-stage edge pipeline: preemptive server, non-preemptive
          download, batch release (paper Eq. 10)
========  ==========================================================

All bounds operate on boolean numpy masks over the job set: ``higher``
marks the higher-priority jobs ``H_i`` and ``lower`` the lower-priority
jobs ``L_i`` of the job under analysis.  Jobs whose interference windows
``[A_k, A_k + D_k]`` do not overlap ``[A_i, A_i + D_i]`` are filtered out
automatically, as prescribed in Section II of the paper.  An optional
``active`` mask removes jobs from the analysis altogether (admission
controllers use it for rejected jobs; it also restricts the
priority-independent blocking term of Eq. 5).

The *self* job-additive term in the MSMR bounds follows the refined
convention ``w_{i,i} = 1`` (a single ``t_{i,1}`` term).  A literal
reading of Eqs. 3-4, where the self term would be scaled like any other
pair, is available through ``self_coefficient="literal"`` and is used by
the pessimism ablation.

Batch evaluation
----------------
Two complementary fast paths keep the O(n^2) inner loops of Audsley's
OPA, DMR repair and the experiment sweeps out of Python:

* :meth:`DelayAnalyzer.delay_bounds_all` evaluates the chosen bound for
  *every* job in one shot from ``(n, n)`` higher/lower relation
  matrices, replacing ``n`` scalar :meth:`DelayAnalyzer.delay_bound`
  calls with a handful of vectorised ``numpy`` reductions over the
  ``(n, n, N)`` segment cache.  :meth:`delays_for_pairwise` and
  :meth:`delays_for_ordering` are thin wrappers around it, and
  ``SDCA.audsley_batch`` uses it to test all Audsley candidates of a
  priority level at once.
* Interference masks and evaluated bounds are memoised keyed on
  ``(i, equation, active)`` (masks serialised to bytes), so repeated
  evaluations with identical priority context -- ubiquitous in the
  OPA/OPDCA and admission-controller loops where only one job changes
  per iteration -- are answered from cache instead of being rebuilt
  from scratch.  Caches are bounded (FIFO eviction) and private to the
  analyzer, which is itself bound to one immutable job set.

Pairwise-contribution kernel cache
----------------------------------
The Audsley/admission level evaluations all share one structural
property: every candidate of a level is tested against the *same*
higher-priority set (``unassigned``) and the same lower-priority set
(``assigned``), i.e. the ``(n, n)`` relation matrices are column
masks in disguise.  :meth:`DelayAnalyzer.level_bounds` exploits this
through per-equation *contribution matrices*, built once per analyzer
(``kernel="paired"``, the default):

* ``C[i, k]``: the job-additive delay ``J_k`` contributes to ``J_i``
  when higher priority, pre-multiplied by the window-overlap filter --
  a level's job-additive term collapses to the masked matvec
  ``(C * cols).sum(axis=1)`` with ``cols = unassigned & active``;
* the premasked stage-major interference tensors
  :attr:`~repro.core.segments.SegmentCache.epq_s` /
  :attr:`~repro.core.segments.SegmentCache.epb_s` -- each stage-additive
  or blocking term is one column-masked row-max, with no per-level
  ``(n, n)`` relation mask ever rebuilt (and the priority-independent
  Eq. 5 blocking vector memoised per ``active`` context).

The paired kernel performs the same reductions over the same operands
in the same order as the reference broadcast path (``delay_bounds_all``
on broadcast rows), so its values are bitwise identical for every
candidate row (jobs in ``unassigned & active``); ``kernel="reference"``
keeps the tensor path selectable for equivalence testing, and analyzers
built with ``window_filter=False`` always use it (the contribution
tensors bake the window filter in).  The tier matrix and equivalence
contracts live in ``docs/kernels.md``.

Online (streaming) support
--------------------------
The streaming admission engine (:mod:`repro.online`) analyses a live
subset of a fixed job universe, one arrival/departure at a time.  Three
hooks keep its per-event cost far below a cold re-analysis:

* an analyzer can be constructed around a pre-built (e.g. sliced)
  :class:`~repro.core.segments.SegmentCache` via the ``cache=``
  argument, skipping the segment algebra entirely;
* :meth:`DelayAnalyzer.delay_bounds_rows` evaluates the bound for a
  chosen subset of jobs only, bitwise identical to the corresponding
  rows of :meth:`DelayAnalyzer.delay_bounds_all`;
* :meth:`DelayAnalyzer.invalidate_job` purges exactly the memo entries
  whose context involves a departed job, so long-running engines keep
  every still-live entry instead of FIFO-evicting blindly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.exceptions import ModelError
from repro.core.segments import SegmentCache
from repro.core.system import JobSet

#: Equations whose schedulability test satisfies the three
#: OPA-compatibility conditions (Observations IV.1/IV.2 and Section VI).
OPA_COMPATIBLE_EQUATIONS = frozenset({"eq1", "eq3", "eq5", "eq6", "eq10"})

#: All supported equation identifiers.
ALL_EQUATIONS = ("eq1", "eq2", "eq3", "eq4", "eq5", "eq6", "eq10")

#: Equations that take the lower-priority set into account.
LOWER_AWARE_EQUATIONS = frozenset({"eq2", "eq4", "eq10"})

#: OPA-compatible bounds whose batch kernels are monotone along the
#: Audsley trajectory *in floating point*, not just in exact
#: arithmetic: placing or discarding a job only ever zeroes elements
#: of the masked operands, every reduction runs over arrays of
#: unchanged length (numpy's pairwise-summation tree is a function of
#: length alone), and rounding is monotone -- so a candidate's
#: evaluated bound can never increase, ulp for ulp.  ``eq10`` is
#: excluded: its non-preemptive downlink term maximises over the
#: *growing* lower-priority set, so its net bound is only monotone in
#: exact arithmetic.  The online admission engine skips per-level
#: re-verification of carried feasibility exactly for this set; the
#: frontier driver (:func:`repro.core.opa.audsley_frontier`) skips it
#: for ``eq10`` only when a carried bound clears its threshold by a
#: safety margin.
FLOAT_MONOTONE_EQUATIONS = frozenset({"eq1", "eq3", "eq5", "eq6"})

MaskLike = "np.ndarray | Iterable[int]"

#: Entry caps of the per-analyzer memo dictionaries (FIFO eviction).
#: Sized for the working sets of one OPA/admission run: ``n`` distinct
#: active masks and a few thousand (i, context) bound evaluations.
_MASK_MEMO_LIMIT = 1024
_BOUND_MEMO_LIMIT = 8192
_BATCH_MEMO_LIMIT = 64
_BLOCKING_MEMO_LIMIT = 64

#: Every kernel value accepted by ``DelayAnalyzer(kernel=...)``, the
#: CLI ``--kernel`` flags, the campaign ``kernel`` knob and the online
#: scenario specs.  The first entry is the default everywhere.
KERNEL_TIERS = ("paired", "reference")

#: Public alias of :data:`KERNEL_TIERS` (exported by :mod:`repro.core`).
KERNELS = KERNEL_TIERS

#: Row selector meaning "every job" in the batch kernels.
_ALL_ROWS = slice(None)


def resolve_kernel(requested: str, *, window_filter: bool = True) -> str:
    """Map a requested kernel value to the effective evaluation tier.

    Unknown values raise ``ValueError`` naming the valid tiers.  With
    ``window_filter=False`` every tier resolves to ``"reference"``:
    the premasked contribution tensors bake the window-overlap filter
    in, so only the tensor path can serve unfiltered analyzers.
    """
    if requested not in KERNEL_TIERS:
        raise ValueError(
            f"kernel must be one of {KERNEL_TIERS}, got {requested!r}")
    if not window_filter:
        return "reference"
    return requested


def _evict_to_limit(memo: dict, limit: int) -> None:
    """Drop oldest entries (insertion order) until under ``limit``."""
    while len(memo) >= limit:
        memo.pop(next(iter(memo)))


class _Contribution:
    """Premasked job-additive contribution matrices of one equation.

    ``C[i, k]`` is the job-additive delay ``J_k`` adds to the bound of
    ``J_i`` when ``J_k`` has higher priority, already multiplied by
    the window-overlap/self filter so a level's job-additive term is
    the single masked reduction ``(C * cols).sum(axis=1)``.  For the
    single-resource bounds the diagonal carries the ``t_{i,1}`` self
    term (it is part of the ``Q_i`` sum there); ``extra`` holds
    Eq. 1's arrive-after ``t_{k,2}`` coefficients; ``self_add`` the
    job-additive self contributions added after the pair sum.
    """

    __slots__ = ("C", "extra", "self_add")

    def __init__(self, C: np.ndarray,
                 extra: "np.ndarray | None" = None,
                 self_add: "np.ndarray | None" = None) -> None:
        self.C = C
        self.extra = extra
        self.self_add = self_add


class DelayAnalyzer:
    """Vectorised evaluator for the paper's delay bounds.

    Parameters
    ----------
    jobset:
        The job set under analysis.
    self_coefficient:
        ``"refined"`` (default) applies ``w_{i,i} = 1``;
        ``"literal"`` scales the self term exactly like an interfering
        job in Eqs. 3/4/6 (only used to quantify the refinement).
    window_filter:
        If true (default), drop jobs with non-overlapping interference
        windows from ``H_i``/``L_i`` before evaluating any bound.
    cache:
        Optionally supply a pre-built :class:`SegmentCache` for
        ``jobset`` instead of computing one.  The online admission
        engine uses this with :meth:`SegmentCache.restrict` to stand
        up a subset analyzer without re-running the segment algebra.
    kernel:
        ``"paired"`` (default) serves :meth:`level_bounds` from the
        pairwise-contribution matrices (see the module docstring);
        ``"reference"`` keeps every evaluation on the broadcast tensor
        path, used as the reference in kernel-equivalence tests.
        Analyzers built with ``window_filter=False`` always run on
        ``"reference"`` -- :attr:`kernel` is the effective tier,
        :attr:`requested_kernel` the input.
    """

    def __init__(self, jobset: JobSet, *,
                 self_coefficient: str = "refined",
                 window_filter: bool = True,
                 cache: SegmentCache | None = None,
                 kernel: str = "paired") -> None:
        if self_coefficient not in ("refined", "literal"):
            raise ValueError(
                f"self_coefficient must be 'refined' or 'literal', "
                f"got {self_coefficient!r}")
        if cache is not None and cache.jobset is not jobset:
            raise ValueError(
                "the supplied SegmentCache was built for a different "
                "job set")
        self._jobset = jobset
        self._cache = cache if cache is not None else SegmentCache(jobset)
        self._self_coefficient = self_coefficient
        self._window_filter = window_filter
        self._requested_kernel = kernel
        #: Unfiltered analyzers stay on the tensor path (the
        #: contribution tensors bake the window filter in).
        self._kernel = resolve_kernel(kernel, window_filter=window_filter)
        self._n = jobset.num_jobs
        self._num_stages = jobset.num_stages
        self._eye = np.eye(self._n, dtype=bool)
        #: (i, active) -> base interference mask / eq5 blocking mask.
        self._mask_memo: dict[tuple, np.ndarray] = {}
        #: (i, equation, higher, lower, active) -> bound value.
        self._bound_memo: dict[tuple, float] = {}
        #: (equation, x, active) -> delay vector of delays_for_pairwise.
        self._batch_memo: dict[tuple, np.ndarray] = {}
        #: equation -> job-additive contribution matrices (pure
        #: functions of the job set; never invalidated).
        self._contrib_memo: dict[str, _Contribution] = {}
        #: (equation, active) -> level-independent blocking vector
        #: (only eq5's blocking set is priority-independent).
        self._blocking_memo: dict[tuple, np.ndarray] = {}
        #: Lazily built per-pair removal caps (see :meth:`removal_caps`).
        self._removal_caps: np.ndarray | None = None
        #: equation -> exact-delta band operands (pure functions of the
        #: job set; never invalidated -- see :meth:`band_operands`).
        self._band_memo: dict[str, tuple] = {}
        #: Per-memo hit/miss tallies (see :meth:`cache_stats`); plain
        #: dict increments so the hot-path cost stays sub-microsecond.
        self._cache_hits = {"masks": 0, "bounds": 0, "batches": 0,
                            "blocking": 0, "contrib": 0}
        self._cache_misses = {"masks": 0, "bounds": 0, "batches": 0,
                              "blocking": 0, "contrib": 0}

    @property
    def jobset(self) -> JobSet:
        return self._jobset

    @property
    def cache(self) -> SegmentCache:
        return self._cache

    @property
    def window_filter(self) -> bool:
        """Whether non-overlapping interference windows are filtered."""
        return self._window_filter

    # ------------------------------------------------------------------
    # Mask plumbing
    # ------------------------------------------------------------------

    def as_mask(self, jobs: "np.ndarray | Iterable[int] | None") -> np.ndarray:
        """Normalise a job collection (mask, indices, or None) to a
        boolean mask of length ``n``."""
        if jobs is None:
            return np.zeros(self._n, dtype=bool)
        array = np.asarray(jobs)
        if array.dtype == bool:
            if array.shape != (self._n,):
                raise ValueError(
                    f"mask has shape {array.shape}, expected ({self._n},)")
            return array.copy()
        mask = np.zeros(self._n, dtype=bool)
        mask[array.astype(np.int64)] = True
        return mask

    def _normalize_active(
            self, active: np.ndarray | None) -> np.ndarray | None:
        """Canonicalise ``active``: an all-true mask restricts nothing
        and collapses to None so memo keys agree."""
        if active is None:
            return None
        active = np.asarray(active, dtype=bool)
        if active.all():
            return None
        return active

    @staticmethod
    def _active_key(active: np.ndarray | None) -> bytes | None:
        return None if active is None else active.tobytes()

    # ------------------------------------------------------------------
    # Delta updates (online arrivals/departures)
    # ------------------------------------------------------------------

    @staticmethod
    def _key_mask_contains(key_part: bytes | None, job: int) -> bool:
        """Whether a serialised mask key involves ``job``.

        ``None`` encodes "no restriction" (every job active), which
        trivially contains any job.
        """
        if key_part is None:
            return True
        return bool(np.frombuffer(key_part, dtype=bool)[job])

    def invalidate_job(self, job: int) -> dict[str, int]:
        """Drop every memoised entry whose context involves ``job``.

        Memo entries are pure functions of their keys, so they never
        become *wrong* -- but once a job departs an online system, any
        entry whose subject is ``job`` or whose higher/lower/active
        masks contain it cannot be queried again until the job
        returns.  Purging exactly those entries keeps the memos small
        without FIFO-evicting entries that are still live, which is
        what makes per-event cost of the streaming admission engine
        independent of how long the engine has been running.

        Returns the number of dropped entries per memo
        (``{"masks": ..., "bounds": ..., "batches": ...,
        "blocking": ...}``).
        """
        if not 0 <= job < self._n:
            raise ValueError(f"job {job} out of range for {self._n} jobs")
        dropped = {"masks": 0, "bounds": 0, "batches": 0, "blocking": 0}
        for key in [k for k in self._mask_memo
                    if k[0] == job
                    or self._key_mask_contains(k[1], job)]:
            del self._mask_memo[key]
            dropped["masks"] += 1
        for key in [k for k in self._bound_memo
                    if k[0] == job
                    or self._key_mask_contains(k[2], job)
                    or (k[3] is not None
                        and self._key_mask_contains(k[3], job))
                    or self._key_mask_contains(k[4], job)]:
            del self._bound_memo[key]
            dropped["bounds"] += 1
        for key in [k for k in self._batch_memo
                    if self._key_mask_contains(k[2], job)]:
            del self._batch_memo[key]
            dropped["batches"] += 1
        for key in [k for k in self._blocking_memo
                    if self._key_mask_contains(k[1], job)]:
            del self._blocking_memo[key]
            dropped["blocking"] += 1
        return dropped

    def memo_sizes(self) -> dict[str, int]:
        """Current entry counts of the internal memos (the contribution
        matrices are pure functions of the job set and never dropped)."""
        return {"masks": len(self._mask_memo),
                "bounds": len(self._bound_memo),
                "batches": len(self._batch_memo),
                "blocking": len(self._blocking_memo)}

    def cache_stats(self) -> dict:
        """Hit/miss tallies per memo plus current sizes.

        ``hits``/``misses`` count lookups since construction;
        ``sizes`` is :meth:`memo_sizes` plus the contribution-matrix
        count.  The online engines aggregate these into the
        ``repro.obs`` registry and trace spans.
        """
        sizes = self.memo_sizes()
        sizes["contrib"] = len(self._contrib_memo)
        return {"hits": dict(self._cache_hits),
                "misses": dict(self._cache_misses),
                "sizes": sizes}

    def _interference_base(self, i: int,
                           active: np.ndarray | None) -> np.ndarray:
        """Memoised mask of every job that could interfere with ``J_i``:
        all other jobs, window-filtered, restricted to ``active``.

        This is simultaneously the ``H_i``/``L_i`` pre-filter of
        :meth:`_interferers` and the priority-independent blocking set of
        Eq. 5, so one memo entry serves every bound of job ``i`` under
        the same admission state.
        """
        key = (i, self._active_key(active))
        base = self._mask_memo.get(key)
        if base is not None:
            self._cache_hits["masks"] += 1
        else:
            self._cache_misses["masks"] += 1
            if self._window_filter:
                base = self._jobset.overlaps[i].copy()
            else:
                base = np.ones(self._n, dtype=bool)
            base[i] = False
            if active is not None:
                base &= active
            _evict_to_limit(self._mask_memo, _MASK_MEMO_LIMIT)
            self._mask_memo[key] = base
        return base

    def _interferers(self, i: int, jobs: MaskLike,
                     active: np.ndarray | None = None) -> np.ndarray:
        """Mask of jobs that can actually interfere with ``J_i``.

        ``active`` optionally restricts the whole analysis to a subset of
        jobs (used by the admission controllers, which remove rejected
        jobs from the system entirely).
        """
        mask = self.as_mask(jobs)
        mask &= self._interference_base(i, self._normalize_active(active))
        return mask

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------

    def _stage_additive(self, i: int, q_mask: np.ndarray,
                        stages: slice) -> float:
        """``sum_j max_{J_k in Q_i} ep_{k,j}`` over the selected stages."""
        ep = self._cache.ep[i, :, stages]
        masked = np.where(q_mask[:, None], ep, 0.0)
        return float(masked.max(axis=0).sum())

    def _stage_additive_raw(self, i: int, q_mask: np.ndarray,
                            stages: slice) -> float:
        """Like :meth:`_stage_additive` but on raw ``P`` (Eqs. 1-2)."""
        processing = self._jobset.P[:, stages]
        masked = np.where(q_mask[:, None], processing, 0.0)
        return float(masked.max(axis=0).sum())

    def _self_term(self, i: int, equation: str) -> float:
        """Job-additive contribution of ``J_i`` to its own delay."""
        cache = self._cache
        if self._self_coefficient == "refined":
            return float(cache.t1[i])
        # Literal reading: the self pair has one segment spanning all N
        # stages (m = 1, u = 0 for N >= 2, v = 1, w = 2).
        if equation == "eq3":
            return float(2 * cache.m[i, i] * cache.et1[i, i])
        if equation in ("eq4", "eq5"):
            return float(cache.m[i, i] * cache.et1[i, i])
        if equation in ("eq6", "eq10"):
            w_self = int(cache.w[i, i])
            return cache.top_et_sum(i, i, w_self)
        return float(cache.t1[i])

    def _require_single_resource(self, equation: str) -> None:
        if not self._jobset.system.is_single_resource():
            raise ModelError(
                f"{equation} is defined for multi-stage single-resource "
                f"pipelines; use the MSMR bounds (eq3-eq6) instead")

    # ------------------------------------------------------------------
    # Single-resource pipeline bounds (paper Eqs. 1 and 2)
    # ------------------------------------------------------------------

    def eq1(self, i: int, higher: MaskLike, *,
            active: np.ndarray | None = None) -> float:
        """Preemptive single-resource bound (paper Eq. 1).

        ``Delta_i <= sum_{Q_i} t_{k,1} + sum_{Ha_i} t_{k,2}
        + sum_{j<N} max_{Q_i} P_{k,j}`` where ``Ha_i`` holds the
        higher-priority jobs arriving strictly after ``J_i``.
        """
        self._require_single_resource("eq1")
        h_mask = self._interferers(i, higher, active)
        q_mask = h_mask.copy()
        q_mask[i] = True
        arrive_after = h_mask & (self._jobset.A > self._jobset.A[i])
        job_additive = float(self._cache.t1[q_mask].sum())
        job_additive += float(self._cache.t2[arrive_after].sum())
        stage_additive = self._stage_additive_raw(
            i, q_mask, slice(0, self._num_stages - 1))
        return job_additive + stage_additive

    def eq2(self, i: int, higher: MaskLike, lower: MaskLike, *,
            active: np.ndarray | None = None) -> float:
        """Non-preemptive single-resource bound (paper Eq. 2).

        Adds one lower-priority blocking term per stage.  This bound is
        *not* OPA-compatible (Observation IV.2, Example 1).
        """
        self._require_single_resource("eq2")
        h_mask = self._interferers(i, higher, active)
        l_mask = self._interferers(i, lower, active)
        q_mask = h_mask.copy()
        q_mask[i] = True
        job_additive = float(self._cache.t1[q_mask].sum())
        stage_additive = self._stage_additive_raw(
            i, q_mask, slice(0, self._num_stages - 1))
        blocking = self._stage_additive_raw(
            i, l_mask, slice(0, self._num_stages))
        return job_additive + stage_additive + blocking

    # ------------------------------------------------------------------
    # MSMR bounds (paper Eqs. 3-6)
    # ------------------------------------------------------------------

    def eq3(self, i: int, higher: MaskLike, *,
            active: np.ndarray | None = None) -> float:
        """Preemptive MSMR bound with per-segment accounting (Eq. 3).

        Every higher-priority job contributes two job-additive terms of
        size ``et_{k,1}`` per shared segment.
        """
        h_mask = self._interferers(i, higher, active)
        q_mask = h_mask.copy()
        q_mask[i] = True
        cache = self._cache
        job_additive = float(
            (2.0 * cache.m[i, h_mask] * cache.et1[i, h_mask]).sum())
        job_additive += self._self_term(i, "eq3")
        stage_additive = self._stage_additive(
            i, q_mask, slice(0, self._num_stages - 1))
        return job_additive + stage_additive

    def eq4(self, i: int, higher: MaskLike, lower: MaskLike, *,
            active: np.ndarray | None = None) -> float:
        """Non-preemptive MSMR bound (paper Eq. 4, OPA-incompatible)."""
        h_mask = self._interferers(i, higher, active)
        l_mask = self._interferers(i, lower, active)
        return self._eq4_with_blocking_set(i, h_mask, l_mask)

    def eq5(self, i: int, higher: MaskLike, *,
            active: np.ndarray | None = None) -> float:
        """OPA-compatible non-preemptive MSMR bound (paper Eq. 5).

        Identical to Eq. 4 except that the per-stage blocking term is
        maximised over *all* other jobs instead of ``L_i``, removing the
        dependence on relative priorities below ``J_i``.
        """
        h_mask = self._interferers(i, higher, active)
        # The blocking set is priority-independent, so the memoised base
        # interference mask *is* the eq5 blocking set (do not mutate).
        everyone_else = self._interference_base(
            i, self._normalize_active(active))
        return self._eq4_with_blocking_set(i, h_mask, everyone_else)

    def _eq4_with_blocking_set(self, i: int, h_mask: np.ndarray,
                               blocking_mask: np.ndarray) -> float:
        q_mask = h_mask.copy()
        q_mask[i] = True
        cache = self._cache
        job_additive = float(
            (cache.m[i, h_mask] * cache.et1[i, h_mask]).sum())
        job_additive += self._self_term(i, "eq4")
        stage_additive = self._stage_additive(
            i, q_mask, slice(0, self._num_stages - 1))
        blocking = self._stage_additive(
            i, blocking_mask, slice(0, self._num_stages))
        return job_additive + stage_additive + blocking

    def eq6(self, i: int, higher: MaskLike, *,
            active: np.ndarray | None = None) -> float:
        """Refined preemptive MSMR bound (paper Eq. 6).

        Each higher-priority job contributes its ``w_{i,k}`` largest
        shared-stage processing times, where single-stage segments count
        once and longer segments twice.
        """
        h_mask = self._interferers(i, higher, active)
        job_additive = float(self._cache.W[i, h_mask].sum())
        if self._self_coefficient == "refined":
            job_additive += float(self._cache.W[i, i])
        else:
            job_additive += self._self_term(i, "eq6")
        q_mask = h_mask.copy()
        q_mask[i] = True
        stage_additive = self._stage_additive(
            i, q_mask, slice(0, self._num_stages - 1))
        return job_additive + stage_additive

    # ------------------------------------------------------------------
    # Edge-computing bound (paper Eq. 10)
    # ------------------------------------------------------------------

    def eq10(self, i: int, higher: MaskLike, lower: MaskLike, *,
             active: np.ndarray | None = None) -> float:
        """3-stage edge pipeline bound (paper Eq. 10).

        Stage 1 (uplink) and stage 2 (server) contribute one stage-
        additive term each over ``Q_i``; stage 3 (downlink) is
        non-preemptive, so one lower-priority job may block there.
        Batch release makes ``Ha_i`` empty, which the refined
        job-additive term already reflects.
        """
        if self._num_stages != 3:
            raise ModelError(
                f"eq10 models the 3-stage edge pipeline, "
                f"system has {self._num_stages} stages")
        h_mask = self._interferers(i, higher, active)
        l_mask = self._interferers(i, lower, active)
        q_mask = h_mask.copy()
        q_mask[i] = True
        job_additive = float(self._cache.W[i, h_mask].sum())
        job_additive += (float(self._cache.W[i, i])
                         if self._self_coefficient == "refined"
                         else self._self_term(i, "eq10"))
        ep = self._cache.ep[i]
        uplink = float(np.where(q_mask, ep[:, 0], 0.0).max())
        server = float(np.where(q_mask, ep[:, 1], 0.0).max())
        downlink = float(np.where(l_mask, ep[:, 2], 0.0).max())
        return job_additive + uplink + server + downlink

    # ------------------------------------------------------------------
    # Uniform entry point
    # ------------------------------------------------------------------

    def delay_bound(self, i: int, higher: MaskLike,
                    lower: MaskLike | None = None, *,
                    equation: str = "eq6",
                    active: np.ndarray | None = None) -> float:
        """Evaluate the chosen bound for job ``i``.

        ``lower`` is required by the lower-priority-aware bounds
        (``eq2``, ``eq4``, ``eq10``) and ignored by the others.

        Evaluations are memoised keyed on ``(i, equation, higher,
        lower, active)``; repeated queries with an identical priority
        context (the common case inside the OPA and admission loops)
        are answered from cache.
        """
        if equation not in ALL_EQUATIONS:
            raise ValueError(f"unknown equation {equation!r}; "
                             f"expected one of {ALL_EQUATIONS}")
        lower_aware = equation in LOWER_AWARE_EQUATIONS
        if lower_aware and lower is None:
            raise ValueError(f"{equation} needs the lower-priority set")
        active = self._normalize_active(active)
        h_mask = self.as_mask(higher)
        l_mask = self.as_mask(lower) if lower_aware else None
        key = (i, equation, h_mask.tobytes(),
               l_mask.tobytes() if lower_aware else None,
               self._active_key(active))
        try:
            value = self._bound_memo[key]
            self._cache_hits["bounds"] += 1
            return value
        except KeyError:
            self._cache_misses["bounds"] += 1
        if equation == "eq2":
            value = self.eq2(i, h_mask, l_mask, active=active)
        elif equation == "eq4":
            value = self.eq4(i, h_mask, l_mask, active=active)
        elif equation == "eq10":
            value = self.eq10(i, h_mask, l_mask, active=active)
        elif equation == "eq1":
            value = self.eq1(i, h_mask, active=active)
        elif equation == "eq3":
            value = self.eq3(i, h_mask, active=active)
        elif equation == "eq5":
            value = self.eq5(i, h_mask, active=active)
        else:
            value = self.eq6(i, h_mask, active=active)
        _evict_to_limit(self._bound_memo, _BOUND_MEMO_LIMIT)
        self._bound_memo[key] = value
        return value

    # ------------------------------------------------------------------
    # Batch evaluation (used by OPA/OPDCA, DMR, OPT verification and
    # the experiment sweeps)
    # ------------------------------------------------------------------

    def _batch_masks(self, relation: np.ndarray,
                     active: np.ndarray | None,
                     rows=_ALL_ROWS) -> np.ndarray:
        """Row-wise interference filtering of a relation matrix: the
        batch counterpart of :meth:`_interferers`.

        ``relation`` holds one length-``n`` candidate row per evaluated
        job; ``rows`` selects which jobs those rows belong to (all of
        them by default).
        """
        mask = np.asarray(relation, dtype=bool) & ~self._eye[rows]
        if self._window_filter:
            mask = mask & self._jobset.overlaps[rows]
        if active is not None:
            mask = mask & active[None, :]
        return mask

    def _batch_stage_additive(self, q: np.ndarray, per_pair: np.ndarray,
                              stages: slice) -> np.ndarray:
        """``sum_j max_{Q_i} ep_{k,j}`` for every row of ``q`` at once."""
        masked = np.where(q[:, :, None], per_pair, 0.0)
        return masked.max(axis=1)[:, stages].sum(axis=1)

    def _batch_self_term(self, equation: str) -> np.ndarray:
        """Vector of job-additive self contributions (all jobs)."""
        cache = self._cache
        if self._self_coefficient == "refined":
            return cache.t1.astype(float)
        diag = np.arange(self._n)
        if equation == "eq3":
            return 2.0 * cache.m[diag, diag] * cache.et1[diag, diag]
        if equation in ("eq4", "eq5"):
            return (cache.m[diag, diag]
                    * cache.et1[diag, diag]).astype(float)
        if equation in ("eq6", "eq10"):
            count = np.minimum(cache.w[diag, diag], self._num_stages)
            values = np.where(
                count > 0,
                cache.et_cumsum[diag, diag, np.maximum(count, 1) - 1],
                0.0)
            return values
        return cache.t1.astype(float)

    def delay_bounds_all(self, higher_of: np.ndarray,
                         lower_of: np.ndarray | None = None, *,
                         equation: str = "eq6",
                         active: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the chosen bound for **every** job in one shot.

        ``higher_of``/``lower_of`` are ``(n, n)`` boolean matrices whose
        row ``i`` holds the candidate higher-/lower-priority sets of
        ``J_i`` (self entries and non-overlapping or inactive jobs are
        filtered internally, exactly as in :meth:`delay_bound`).  Rows
        of jobs outside ``active`` are returned as ``nan``.

        This is the vectorised fast path behind
        :meth:`delays_for_pairwise`, ``SDCA.audsley_batch`` and the
        admission controllers: one call replaces ``n`` scalar
        :meth:`delay_bound` evaluations, turning the O(n^2) inner loops
        of OPA/OPDCA into a handful of numpy reductions.
        """
        if equation not in ALL_EQUATIONS:
            raise ValueError(f"unknown equation {equation!r}; "
                             f"expected one of {ALL_EQUATIONS}")
        n = self._n
        higher_of = np.asarray(higher_of, dtype=bool)
        if higher_of.shape != (n, n):
            raise ValueError(f"higher_of has shape {higher_of.shape}, "
                             f"expected {(n, n)}")
        lower_aware = equation in LOWER_AWARE_EQUATIONS
        if lower_aware:
            if lower_of is None:
                raise ValueError(
                    f"{equation} needs the lower-priority set")
            lower_of = np.asarray(lower_of, dtype=bool)
            if lower_of.shape != (n, n):
                raise ValueError(f"lower_of has shape {lower_of.shape}, "
                                 f"expected {(n, n)}")
        active = self._normalize_active(active)
        delays = self._batch_dispatch(higher_of, lower_of, equation,
                                      active, _ALL_ROWS)
        if active is not None:
            delays = np.where(active, delays, np.nan)
        return delays

    def delay_bounds_rows(self, rows: "np.ndarray | Iterable[int]",
                          higher_of_rows: np.ndarray,
                          lower_of_rows: np.ndarray | None = None, *,
                          equation: str = "eq6",
                          active: np.ndarray | None = None) -> np.ndarray:
        """Evaluate the chosen bound for a *subset* of jobs in one shot.

        ``rows`` lists the job indices under analysis; row ``r`` of the
        ``(len(rows), n)`` matrices ``higher_of_rows``/``lower_of_rows``
        holds the candidate higher-/lower-priority set of job
        ``rows[r]``.  Semantically this equals slicing
        ``delay_bounds_all(...)[rows]`` -- each returned value is
        bitwise identical to the corresponding full-batch entry -- but
        only the selected rows are ever materialised, turning the
        per-level cost of a lazy Audsley scan from ``O(n^2 N)`` into
        ``O(len(rows) * n * N)``.  DMR's incremental re-evaluation of
        the rows a swap affects runs on it.

        Entries of jobs outside ``active`` are returned as ``nan``.
        """
        if equation not in ALL_EQUATIONS:
            raise ValueError(f"unknown equation {equation!r}; "
                             f"expected one of {ALL_EQUATIONS}")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError(f"rows must be 1-d, got shape {rows.shape}")
        n = self._n
        higher_of_rows = np.asarray(higher_of_rows, dtype=bool)
        if higher_of_rows.shape != (rows.size, n):
            raise ValueError(
                f"higher_of_rows has shape {higher_of_rows.shape}, "
                f"expected {(rows.size, n)}")
        if equation in LOWER_AWARE_EQUATIONS:
            if lower_of_rows is None:
                raise ValueError(
                    f"{equation} needs the lower-priority set")
            lower_of_rows = np.asarray(lower_of_rows, dtype=bool)
            if lower_of_rows.shape != (rows.size, n):
                raise ValueError(
                    f"lower_of_rows has shape {lower_of_rows.shape}, "
                    f"expected {(rows.size, n)}")
        active = self._normalize_active(active)
        delays = self._batch_dispatch(higher_of_rows, lower_of_rows,
                                      equation, active, rows)
        if active is not None:
            delays = np.where(active[rows], delays, np.nan)
        return delays

    # ------------------------------------------------------------------
    # Level evaluation (the Audsley/admission hot path)
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> str:
        """The effective level-evaluation kernel of this analyzer."""
        return self._kernel

    @property
    def requested_kernel(self) -> str:
        """The kernel requested at construction, before window-filter
        resolution (see :attr:`kernel`)."""
        return self._requested_kernel

    def level_bounds(self, unassigned: np.ndarray,
                     assigned_lower: np.ndarray | None = None, *,
                     equation: str = "eq6",
                     active: np.ndarray | None = None,
                     rows: "np.ndarray | Iterable[int] | None" = None
                     ) -> np.ndarray:
        """Delay bounds of every Audsley candidate at one priority level.

        Candidate ``J_i`` is evaluated with ``H_i`` = ``unassigned``
        minus itself and ``L_i`` = ``assigned_lower`` -- the context of
        ``SDCA.audsley_batch`` and the admission controllers -- for all
        candidates at once.  Semantically this equals
        ``delay_bounds_all`` on row-broadcast copies of the two masks,
        and with ``rows`` (job indices) only the selected rows are
        materialised, exactly like :meth:`delay_bounds_rows`.

        Under the default ``kernel="paired"`` the evaluation runs on
        the pairwise-contribution cache: the job-additive term is the
        masked reduction ``(C * cols).sum(axis=1)`` with ``cols =
        unassigned & active``, and each stage-additive/blocking term is
        one column-masked row-max over a premasked ``(n, n)`` stage
        plane of :attr:`SegmentCache.epq_s`/:attr:`SegmentCache.epb_s`
        -- no ``(n, n)`` relation mask is ever rebuilt per level, and Eq. 5's
        priority-independent blocking vector is computed once per
        ``active`` context.  Every reduction runs over the same
        operands in the same association as the reference broadcast
        path, so values are **bitwise identical** between the two
        kernels for every actual candidate (jobs in ``unassigned &
        active``); rows outside that set are only meaningful on the
        reference path.  Entries of jobs outside ``active`` are
        ``nan``.
        """
        if equation not in ALL_EQUATIONS:
            raise ValueError(f"unknown equation {equation!r}; "
                             f"expected one of {ALL_EQUATIONS}")
        n = self._n
        unassigned = np.asarray(unassigned, dtype=bool)
        if unassigned.shape != (n,):
            raise ValueError(f"unassigned has shape {unassigned.shape}, "
                             f"expected ({n},)")
        lower_aware = equation in LOWER_AWARE_EQUATIONS
        if lower_aware:
            if assigned_lower is None:
                raise ValueError(
                    f"{equation} needs the lower-priority set")
            assigned_lower = np.asarray(assigned_lower, dtype=bool)
            if assigned_lower.shape != (n,):
                raise ValueError(
                    f"assigned_lower has shape {assigned_lower.shape}, "
                    f"expected ({n},)")
        active = self._normalize_active(active)
        if rows is None:
            row_sel = _ALL_ROWS
        else:
            row_sel = np.asarray(rows, dtype=np.int64)
            if row_sel.ndim != 1:
                raise ValueError(
                    f"rows must be 1-d, got shape {row_sel.shape}")
        if self._kernel == "paired":
            delays = self._level_paired(equation, unassigned,
                                        assigned_lower, active, row_sel)
        else:
            size = n if row_sel is _ALL_ROWS else row_sel.size
            higher_of = np.broadcast_to(unassigned, (size, n))
            lower_of = (np.broadcast_to(assigned_lower, (size, n))
                        if lower_aware else None)
            delays = self._batch_dispatch(higher_of, lower_of, equation,
                                          active, row_sel)
        if active is not None:
            delays = np.where(active[row_sel], delays, np.nan)
        return delays

    def _contribution(self, equation: str) -> _Contribution:
        """Job-additive contribution matrices of one equation (built
        once per analyzer; pure functions of the job set)."""
        contrib = self._contrib_memo.get(equation)
        if contrib is not None:
            self._cache_hits["contrib"] += 1
            return contrib
        self._cache_misses["contrib"] += 1
        cache = self._cache
        base = self._jobset.overlaps & ~self._eye
        extra = None
        self_add = None
        if equation in ("eq1", "eq2"):
            # The t_{k,1} sum runs over Q_i = H_i + {J_i}: keep the
            # self term on the diagonal so the summation tree matches
            # the reference (t1 * q).sum(axis=1) exactly.
            C = cache.t1[None, :] * (base | self._eye)
            if equation == "eq1":
                arrivals = self._jobset.A
                extra = cache.t2[None, :] * (
                    base & (arrivals[None, :] > arrivals[:, None]))
        elif equation == "eq3":
            C = (2.0 * cache.m * cache.et1) * base
            self_add = self._batch_self_term("eq3")
        elif equation in ("eq4", "eq5"):
            C = (cache.m * cache.et1) * base
            self_add = self._batch_self_term("eq4")
        else:  # eq6 / eq10
            C = cache.W * base
            if self._self_coefficient == "refined":
                self_add = cache.W.diagonal().copy()
            else:
                self_add = self._batch_self_term(equation)
        contrib = _Contribution(C, extra, self_add)
        self._contrib_memo[equation] = contrib
        return contrib

    @staticmethod
    def _mask_plan(mask: np.ndarray) -> "tuple[int, np.ndarray | None]":
        """Reduction strategy for one column mask: its population count
        and, when sparse enough for column compression to pay off, the
        compressed column index (``None`` keeps the dense path)."""
        count = int(mask.sum())
        if 0 < count * 4 <= mask.size:
            return count, np.flatnonzero(mask)
        return count, None

    @staticmethod
    def _plane_max(plane: np.ndarray, mask: np.ndarray,
                   count: int, idx: "np.ndarray | None") -> np.ndarray:
        """Column-masked row-max of one stage plane.

        Every strategy is bitwise identical to
        ``np.where(mask, plane, 0.0).max(axis=1)``: max is an exact,
        order-independent reduction, and the 0.0 fill of the dropped
        columns is reproduced by ``initial=0.0`` on the compressed
        path (a masked-out column always exists there, so the dense
        result is floored at 0.0 too).
        """
        if count == 0:
            return np.zeros(plane.shape[0])
        if idx is not None:
            return plane[:, idx].max(axis=1, initial=0.0)
        return np.where(mask, plane, 0.0).max(axis=1)

    def _paired_stage_sum(self, field: str, rows, mask: np.ndarray,
                          stop: int) -> np.ndarray:
        """``sum_{j < stop} max_k mask[k] * tensor[:, k, j]`` over the
        stage-major twin ``field + "_s"`` of a contribution tensor.

        Walking one C-contiguous stage plane per iteration (instead of
        a stage slice of the job-major tensor, which strides by ``N``
        and pulls the whole ``(n, n, N)`` tensor through cache per
        stage) is what closed the large-``n`` gap of the paired
        kernel.  The per-stage maxima are collected into a ``(rows,
        stop)`` buffer and reduced with one ``sum(axis=1)``, which
        reproduces the reference path's summation tree (numpy's
        pairwise reduction depends only on the axis length).
        """
        tensor_s = getattr(self._cache, field + "_s")
        nrows = tensor_s.shape[1] if rows is _ALL_ROWS else rows.size
        count, idx = self._mask_plan(mask)
        if count == 0:
            return np.zeros(nrows)
        maxima = np.empty((nrows, stop))
        for j in range(stop):
            plane = tensor_s[j]
            if rows is not _ALL_ROWS:
                plane = plane[rows]
            maxima[:, j] = self._plane_max(plane, mask, count, idx)
        return maxima.sum(axis=1)

    def _level_paired(self, equation: str, unassigned: np.ndarray,
                      assigned_lower: np.ndarray | None,
                      active: np.ndarray | None, rows) -> np.ndarray:
        """Paired-kernel level evaluation (see :meth:`level_bounds`).

        :meth:`level_bound_single` is the scalar twin of this dispatch
        (1-d reductions, a fraction of the kernel launches); any change
        to an equation's term assembly here must be mirrored there --
        their bitwise agreement is pinned by
        ``test_single_probe_matches_batch_row``.
        """
        cache = self._cache
        cols = unassigned if active is None else unassigned & active
        contrib = self._contribution(equation)
        C = contrib.C[rows]
        job_additive = (C * cols).sum(axis=1)
        if contrib.extra is not None:
            job_additive += (contrib.extra[rows] * cols).sum(axis=1)
        if contrib.self_add is not None:
            job_additive += contrib.self_add[rows]
        last = self._num_stages - 1
        if equation in ("eq1", "eq2"):
            self._require_single_resource(equation)
            stage_additive = self._paired_stage_sum(
                "pq", rows, cols, last)
            if equation == "eq1":
                return job_additive + stage_additive
            low = (assigned_lower if active is None
                   else assigned_lower & active)
            blocking = self._paired_stage_sum(
                "pb", rows, low, self._num_stages)
            return job_additive + stage_additive + blocking
        if equation == "eq10":
            if self._num_stages != 3:
                raise ModelError(
                    f"eq10 models the 3-stage edge pipeline, "
                    f"system has {self._num_stages} stages")
            count, idx = self._mask_plan(cols)
            uplink_plane, server_plane = cache.epq_s[0], cache.epq_s[1]
            downlink_plane = cache.epb_s[2]
            if rows is not _ALL_ROWS:
                uplink_plane = uplink_plane[rows]
                server_plane = server_plane[rows]
                downlink_plane = downlink_plane[rows]
            uplink = self._plane_max(uplink_plane, cols, count, idx)
            server = self._plane_max(server_plane, cols, count, idx)
            low = (assigned_lower if active is None
                   else assigned_lower & active)
            lcount, lidx = self._mask_plan(low)
            downlink = self._plane_max(downlink_plane, low, lcount, lidx)
            return job_additive + uplink + server + downlink
        stage_additive = self._paired_stage_sum(
            "epq", rows, cols, last)
        if equation == "eq4":
            low = (assigned_lower if active is None
                   else assigned_lower & active)
            blocking = self._paired_stage_sum(
                "epb", rows, low, self._num_stages)
            return job_additive + stage_additive + blocking
        if equation == "eq5":
            blocking = self._eq5_blocking(active)[rows]
            return job_additive + stage_additive + blocking
        return job_additive + stage_additive  # eq3 / eq6

    def level_bound_single(self, i: int, unassigned: np.ndarray,
                           assigned_lower: np.ndarray | None = None, *,
                           equation: str = "eq6",
                           active: np.ndarray | None = None) -> float:
        """One Audsley candidate's bound at one level.

        Bitwise identical to ``level_bounds(...)[i]`` (1-d reductions
        over length-``n`` operands group exactly like the per-row
        reductions of the 2-d kernels), at a fraction of the kernel
        launches: this is the frontier re-verification probe of
        :func:`repro.core.opa.audsley_frontier` and the first-candidate
        probe of the online engine's lazy admission scan.
        """
        if self._kernel != "paired":
            return float(self.level_bounds(
                unassigned, assigned_lower, equation=equation,
                active=active, rows=np.array([i]))[0])
        if equation not in ALL_EQUATIONS:
            raise ValueError(f"unknown equation {equation!r}; "
                             f"expected one of {ALL_EQUATIONS}")
        lower_aware = equation in LOWER_AWARE_EQUATIONS
        if lower_aware and assigned_lower is None:
            raise ValueError(f"{equation} needs the lower-priority set")
        active = self._normalize_active(active)
        if active is not None and not active[i]:
            return float("nan")
        cache = self._cache
        cols = unassigned if active is None else unassigned & active
        contrib = self._contribution(equation)
        job_additive = (contrib.C[i] * cols).sum()
        if contrib.extra is not None:
            job_additive += (contrib.extra[i] * cols).sum()
        if contrib.self_add is not None:
            job_additive += contrib.self_add[i]
        last = self._num_stages - 1
        ccount, cidx = self._mask_plan(cols)

        def row_max(row: np.ndarray, mask: np.ndarray, count: int,
                    idx: "np.ndarray | None") -> float:
            # Scalar twin of _plane_max: bitwise identical to
            # np.where(mask, row, 0.0).max() on every strategy.
            if count == 0:
                return 0.0
            if idx is not None:
                return row[idx].max(initial=0.0)
            return np.where(mask, row, 0.0).max()

        def stage_sum(field: str, mask: np.ndarray, stop: int,
                      count: int, idx: "np.ndarray | None") -> float:
            # Row i of each stage-major plane is one contiguous read.
            if count == 0:
                return 0.0
            tensor_s = getattr(cache, field + "_s")
            maxima = np.empty(stop)
            for j in range(stop):
                maxima[j] = row_max(tensor_s[j, i], mask, count, idx)
            return maxima.sum()

        if equation in ("eq1", "eq2"):
            self._require_single_resource(equation)
            stage_additive = stage_sum("pq", cols, last, ccount, cidx)
            if equation == "eq1":
                return float(job_additive + stage_additive)
            low = (assigned_lower if active is None
                   else assigned_lower & active)
            lcount, lidx = self._mask_plan(low)
            blocking = stage_sum("pb", low, self._num_stages,
                                 lcount, lidx)
            return float(job_additive + stage_additive + blocking)
        if equation == "eq10":
            if self._num_stages != 3:
                raise ModelError(
                    f"eq10 models the 3-stage edge pipeline, "
                    f"system has {self._num_stages} stages")
            uplink = row_max(cache.epq_s[0, i], cols, ccount, cidx)
            server = row_max(cache.epq_s[1, i], cols, ccount, cidx)
            low = (assigned_lower if active is None
                   else assigned_lower & active)
            lcount, lidx = self._mask_plan(low)
            downlink = row_max(cache.epb_s[2, i], low, lcount, lidx)
            return float(job_additive + uplink + server + downlink)
        stage_additive = stage_sum("epq", cols, last, ccount, cidx)
        if equation == "eq4":
            low = (assigned_lower if active is None
                   else assigned_lower & active)
            lcount, lidx = self._mask_plan(low)
            blocking = stage_sum("epb", low, self._num_stages,
                                 lcount, lidx)
            return float(job_additive + stage_additive + blocking)
        if equation == "eq5":
            blocking = self._eq5_blocking(active)[i]
            return float(job_additive + stage_additive + blocking)
        return float(job_additive + stage_additive)  # eq3 / eq6

    def removal_caps(self) -> np.ndarray:
        """``caps[i, p]``: sound bound on how much removing job ``p``
        from ``J_i``'s context (placing it below, or discarding it)
        can *lower* ``J_i``'s bound, for any OPA-compatible equation.

        The job-additive pair coefficient of every supported bound is
        at most ``2 m_{i,p} et_{i,p,1}`` (Eq. 3's double counting is
        the worst case; Eq. 6/10's ``W`` sums at most ``w <= 2m``
        terms of at most ``et1`` each; Eqs. 1/5 contribute less), and
        each stage-additive or blocking maximum can drop by at most
        the ``ep_{p,j}`` term that leaves it -- doubled so one matrix
        also covers admission-style discards, where ``p`` leaves the
        blocking sets too.  Eq. 10's downlink term only *grows* when
        ``p`` is placed below a candidate, which cannot lower the
        bound and needs no cap.

        This single definition feeds the excess-lower-bound pruning of
        :func:`repro.core.opa.audsley_frontier` through both of its
        level adapters -- OPDCA's ``AudsleyLevelKernel.removal_caps``
        and the admission controller's
        ``repro.core.admission._ExcessLevels.removal_caps`` -- so
        the soundness argument lives in exactly one place.  Built once
        per analyzer, cached.
        """
        caps = self._removal_caps
        if caps is None:
            cache = self._cache
            caps = 2.0 * cache.m * cache.et1 + 2.0 * cache.ep.sum(axis=2)
            self._removal_caps = caps
        return caps

    def band_operands(self, equation: str) -> (
            "tuple[np.ndarray, np.ndarray, np.ndarray | None]"):
        """Operands for *exact-delta* maintenance of one level kernel.

        For the float-monotone equations every level value of candidate
        ``J_i`` decomposes as::

            bounds[i] = sum_{k in cols} delta[i, k] + self_add[i]
                        + sum_j max(0, max_{k in cols} planes[j, i, k])
                        [+ sum_j max(0, max_{k in act} block[j, i, k])]

        with ``cols = unassigned & active`` -- the paired kernel's own
        term assembly.  Removing one job ``p`` from ``cols`` therefore
        changes the job-additive term by exactly ``-delta[i, p]`` and
        each stage maximum by an exactly-representable difference of
        two maxima, which is what lets the online admission controller
        maintain *certified bands* on every candidate's excess within
        one Audsley run instead of re-evaluating whole levels (the
        certified-band route of
        :func:`repro.online.incremental.incremental_admission`).

        Returns ``(delta, planes, block_planes)``: the combined
        job-additive pair matrix (Eq. 1's arrive-after coefficients are
        pre-added), the stage-major interference planes summed over
        stages ``j < N-1``, and -- for Eq. 5 only, else ``None`` -- the
        stage-major blocking planes maximised over the *active* set
        (all ``N`` stages).  The constant ``self_add`` row terms are
        deliberately absent: bands are seeded from exact evaluations,
        so only the *changing* terms matter.

        Only defined for :data:`FLOAT_MONOTONE_EQUATIONS` on
        window-filtered analyzers (the premasked tensors bake the
        filter in).
        """
        if equation not in FLOAT_MONOTONE_EQUATIONS:
            raise ValueError(
                f"band operands are only defined for the float-monotone "
                f"equations {sorted(FLOAT_MONOTONE_EQUATIONS)}, "
                f"got {equation!r}")
        if not self._window_filter:
            raise ValueError(
                "band operands need a window-filtered analyzer (the "
                "premasked contribution tensors bake the filter in)")
        cached = self._band_memo.get(equation)
        if cached is not None:
            return cached
        contrib = self._contribution(equation)
        delta = contrib.C
        if contrib.extra is not None:
            delta = delta + contrib.extra
        last = self._num_stages - 1
        cache = self._cache
        if equation == "eq1":
            self._require_single_resource("eq1")
            planes = cache.pq_s[:last]
            block = None
        else:
            planes = cache.epq_s[:last]
            block = cache.epb_s if equation == "eq5" else None
        operands = (delta, planes, block)
        self._band_memo[equation] = operands
        return operands

    def _eq5_blocking(self, active: np.ndarray | None) -> np.ndarray:
        """Eq. 5's priority-*independent* blocking vector, memoised per
        ``active`` context: it never changes along an Audsley run, so
        every level after the first reads it back for free."""
        key = ("eq5", self._active_key(active))
        blocking = self._blocking_memo.get(key)
        if blocking is not None:
            self._cache_hits["blocking"] += 1
        else:
            self._cache_misses["blocking"] += 1
            everyone = (np.ones(self._n, dtype=bool) if active is None
                        else active)
            blocking = self._paired_stage_sum(
                "epb", _ALL_ROWS, everyone, self._num_stages)
            _evict_to_limit(self._blocking_memo, _BLOCKING_MEMO_LIMIT)
            self._blocking_memo[key] = blocking
        return blocking

    def _batch_dispatch(self, higher_of: np.ndarray,
                        lower_of: np.ndarray | None, equation: str,
                        active: np.ndarray | None, rows) -> np.ndarray:
        """Shared kernel dispatch of the full-batch and row-sliced
        entry points (``rows`` is an index array or ``_ALL_ROWS``)."""
        h = self._batch_masks(higher_of, active, rows)
        low = None
        if equation in LOWER_AWARE_EQUATIONS:
            low = self._batch_masks(lower_of, active, rows)
        if equation == "eq1":
            return self._batch_eq1(h, rows)
        if equation == "eq2":
            return self._batch_eq2(h, low, rows)
        if equation == "eq3":
            return self._batch_eq3(h, rows)
        if equation == "eq4":
            return self._batch_eq45(h, low, rows)
        if equation == "eq5":
            everyone = self._batch_masks(
                np.ones(h.shape, dtype=bool), active, rows)
            return self._batch_eq45(h, everyone, rows)
        if equation == "eq6":
            return self._batch_eq6(h, rows)
        return self._batch_eq10(h, low, rows)

    def _batch_eq1(self, h: np.ndarray, rows=_ALL_ROWS) -> np.ndarray:
        self._require_single_resource("eq1")
        q = h | self._eye[rows]
        arrivals = self._jobset.A
        arrive_after = h & (arrivals[None, :] > arrivals[rows][:, None])
        job_additive = (self._cache.t1[None, :] * q).sum(axis=1)
        job_additive += (self._cache.t2[None, :] * arrive_after).sum(axis=1)
        stage_additive = self._batch_stage_additive(
            q, self._jobset.P[None, :, :],
            slice(0, self._num_stages - 1))
        return job_additive + stage_additive

    def _batch_eq2(self, h: np.ndarray, low: np.ndarray,
                   rows=_ALL_ROWS) -> np.ndarray:
        self._require_single_resource("eq2")
        q = h | self._eye[rows]
        raw = self._jobset.P[None, :, :]
        job_additive = (self._cache.t1[None, :] * q).sum(axis=1)
        stage_additive = self._batch_stage_additive(
            q, raw, slice(0, self._num_stages - 1))
        blocking = self._batch_stage_additive(
            low, raw, slice(0, self._num_stages))
        return job_additive + stage_additive + blocking

    def _batch_eq3(self, h: np.ndarray, rows=_ALL_ROWS) -> np.ndarray:
        cache = self._cache
        q = h | self._eye[rows]
        job_additive = (2.0 * cache.m[rows] * cache.et1[rows] * h).sum(axis=1)
        job_additive += self._batch_self_term("eq3")[rows]
        stage_additive = self._batch_stage_additive(
            q, cache.ep[rows], slice(0, self._num_stages - 1))
        return job_additive + stage_additive

    def _batch_eq45(self, h: np.ndarray, blocking_set: np.ndarray,
                    rows=_ALL_ROWS) -> np.ndarray:
        cache = self._cache
        q = h | self._eye[rows]
        job_additive = (cache.m[rows] * cache.et1[rows] * h).sum(axis=1)
        job_additive += self._batch_self_term("eq4")[rows]
        stage_additive = self._batch_stage_additive(
            q, cache.ep[rows], slice(0, self._num_stages - 1))
        blocking = self._batch_stage_additive(
            blocking_set, cache.ep[rows], slice(0, self._num_stages))
        return job_additive + stage_additive + blocking

    def _batch_eq6(self, h: np.ndarray, rows=_ALL_ROWS) -> np.ndarray:
        cache = self._cache
        q = h | self._eye[rows]
        job_additive = (cache.W[rows] * h).sum(axis=1)
        if self._self_coefficient == "refined":
            job_additive += cache.W.diagonal()[rows]
        else:
            job_additive += self._batch_self_term("eq6")[rows]
        stage_additive = self._batch_stage_additive(
            q, cache.ep[rows], slice(0, self._num_stages - 1))
        return job_additive + stage_additive

    def _batch_eq10(self, h: np.ndarray, low: np.ndarray,
                    rows=_ALL_ROWS) -> np.ndarray:
        if self._num_stages != 3:
            raise ModelError(
                f"eq10 models the 3-stage edge pipeline, "
                f"system has {self._num_stages} stages")
        cache = self._cache
        q = h | self._eye[rows]
        job_additive = (cache.W[rows] * h).sum(axis=1)
        if self._self_coefficient == "refined":
            job_additive += cache.W.diagonal()[rows]
        else:
            job_additive += self._batch_self_term("eq10")[rows]
        ep = cache.ep[rows]
        uplink = np.where(q, ep[:, :, 0], 0.0).max(axis=1)
        server = np.where(q, ep[:, :, 1], 0.0).max(axis=1)
        downlink = np.where(low, ep[:, :, 2], 0.0).max(axis=1)
        return job_additive + uplink + server + downlink

    def delays_for_pairwise(self, x: np.ndarray, *,
                            equation: str = "eq6",
                            active: np.ndarray | None = None) -> np.ndarray:
        """End-to-end delay bounds of all jobs under a pairwise relation.

        ``x`` is an ``(n, n)`` boolean matrix with ``x[i, k]`` true iff
        ``J_i`` has higher priority than ``J_k``.  Only entries of
        conflicting pairs matter; the rest are ignored because their
        ``ep``/``W`` terms are zero.  Entries of jobs outside ``active``
        are returned as ``nan``.

        Evaluation is fully vectorised via :meth:`delay_bounds_all` and
        the result is memoised keyed on ``(equation, x, active)``.
        """
        x = np.asarray(x, dtype=bool)
        n = self._n
        if x.shape != (n, n):
            raise ValueError(f"x has shape {x.shape}, expected {(n, n)}")
        active = self._normalize_active(active)
        key = (equation, x.tobytes(), self._active_key(active))
        cached = self._batch_memo.get(key)
        if cached is not None:
            self._cache_hits["batches"] += 1
            return cached.copy()
        self._cache_misses["batches"] += 1
        delays = self.delay_bounds_all(
            x.T, x, equation=equation, active=active)
        _evict_to_limit(self._batch_memo, _BATCH_MEMO_LIMIT)
        self._batch_memo[key] = delays.copy()
        return delays

    def delays_for_ordering(self, priority: np.ndarray, *,
                            equation: str = "eq6",
                            active: np.ndarray | None = None) -> np.ndarray:
        """Delay bounds of all jobs under a total priority ordering.

        ``priority[i]`` is the priority value of ``J_i`` (lower value =
        higher priority, as in the paper).
        """
        priority = np.asarray(priority)
        x = priority[:, None] < priority[None, :]
        return self.delays_for_pairwise(x, equation=equation, active=active)
