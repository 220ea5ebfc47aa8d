"""The admission *cell*: the stream-agnostic decision core.

:class:`AdmissionCell` is the admit/evict/retry heart extracted from
the online engine's driver loop.  One cell owns exactly one
universe :class:`~repro.core.system.JobSet`, one incremental analyzer
(or the cold path), one bounded FIFO retry queue and one decision
memo, and exposes pure *event* methods -- :meth:`arrival`,
:meth:`departure`, :meth:`retry_pass` -- that return structured
:class:`CellEvent` outcomes.  Everything stream-shaped (event
ordering, time series, snapshots, validation hooks, run results) lives
in the one stream driver,
:class:`~repro.online.sharded.ShardedAdmissionEngine`: it hosts one
cell per resource shard (a single cell over the whole universe when
``shards=1``) and coordinates cross-shard jobs through the cell's
two-phase :meth:`reserve` / :meth:`commit_reservation` primitives.

Cells speak *local* job indices: the indices of their own universe.
Translation from global stream uids to per-shard locals is the shard
layer's job (:mod:`repro.online.sharded`).

A cell also keeps one *failure core* per parked job
(:class:`~repro.online.incremental.Outcome`): the stuck set of the
last controller run that discarded it or refused its retry.  A core
has no feasible priority order, nor does any superset of it, so a
retry whose candidate contains the parked job's core is answered
"infeasible" with no analysis at all.  Cores are recorded only by the
certified-band route, and only when every member's excess clears the
tolerance by the bands' seed pad; a core leaves with its job's queue
slot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro import obs
from repro.core.admission import AdmissionResult
from repro.core.dca import KERNEL_TIERS
from repro.core.schedulability import Policy
from repro.core.system import JobSet
from repro.online.incremental import (
    IncrementalAnalyzer,
    SubsetAnalysis,
    admit_outcome,
    cold_analysis,
    result_delays,
    trajectory_outcome,
)

#: Entry cap of a cell's decision memo (FIFO).
DECISION_MEMO_LIMIT = 256

#: Decision modes a cell accepts: sliced incremental analysis or a
#: cold re-analysis per decision (identical decisions either way).
CELL_MODES = ("incremental", "cold")

#: Level-evaluation kernels a cell accepts (the shared tier registry
#: :data:`repro.core.dca.KERNEL_TIERS`; validated here so the CLI knob
#: fails fast at engine construction, not deep in the analyzer).
CELL_KERNELS = KERNEL_TIERS

#: Cell event outcomes counted in the ``repro.obs`` registry.
CELL_DECISIONS = ("accept", "reject", "free", "expire", "noop")


def _cell_instruments():
    """Registry instruments shared by every cell in the process.

    Resolved per cell construction (never per event) so a registry
    ``reset()`` in a test re-registers them; the labelled children
    are pre-resolved into a plain dict to keep the per-event cost at
    one dict lookup plus one guarded increment.
    """
    registry = obs.get_registry()
    decisions = registry.counter(
        "repro_admission_decisions_total",
        "Cell event outcomes by decision kind.",
        labelnames=("decision",))
    return {
        "decisions": {kind: decisions.labels(decision=kind)
                      for kind in CELL_DECISIONS},
        "retry_depth": registry.gauge(
            "repro_admission_retry_depth",
            "Jobs currently parked in retry queues, process-wide."),
        "latency": registry.histogram(
            "repro_decision_seconds",
            "Admission decision latency (controller + analysis)."),
        "cache_hits": registry.counter(
            "repro_kernel_cache_hits_total",
            "DelayAnalyzer memo hits inside admission decisions."),
        "cache_misses": registry.counter(
            "repro_kernel_cache_misses_total",
            "DelayAnalyzer memo misses inside admission decisions."),
        "core_hits": registry.counter(
            "repro_core_hits_total",
            "All-or-nothing decisions answered by a parked job's "
            "failure core."),
    }


@dataclass(frozen=True)
class CellEvent:
    """Outcome of one cell event, in the cell's local indices.

    ``decision`` follows the vocabulary of
    :data:`repro.online.metrics.DECISIONS`: arrivals are ``accept`` /
    ``reject``, departures ``free`` / ``expire`` / ``noop``, retry
    admissions ``accept``.
    """

    decision: str
    #: Local uid the event concerns.
    uid: int
    #: Previously admitted jobs this decision evicted, ascending.
    evicted: tuple[int, ...] = ()
    #: Admitted jobs whose (renumbered) priority rank changed.
    flips: int = 0
    #: Retry-queue drops caused by this event (overflow / no parking).
    retry_drops: int = 0
    #: The candidate set the controller saw (arrival/retry only).
    candidate: tuple[int, ...] = ()
    #: The controller outcome (``None`` for a failed all-or-nothing
    #: retry, and for departures, which decide nothing).
    result: "AdmissionResult | None" = None
    #: Evicted jobs the cell was not allowed to park (see the
    #: ``parkable`` hook); the driver owns their retry fate.
    escalated: tuple[int, ...] = ()
    #: Wall-clock seconds the cell spent handling the event (feeds
    #: the driver's per-event latency records; never compared).
    seconds: float = 0.0


@dataclass(frozen=True)
class Reservation:
    """Phase-1 outcome of a two-phase cross-shard admission: the
    candidate set and all-or-nothing result this cell computed, ready
    to be committed (phase 2) or abandoned without any state change."""

    uid: int
    candidate: tuple[int, ...]
    result: "AdmissionResult | None"
    #: Wall-clock seconds phase 1 spent deciding (the shard driver
    #: folds these into its per-event latency records).
    seconds: float = 0.0

    @property
    def accepted(self) -> bool:
        return self.result is not None


class AdmissionCell:
    """Admission decisions over one universe: one cluster's state.

    Event methods and their semantics:

    * :meth:`arrival` runs the full OPDCA controller over
      ``admitted + {uid}`` -- it may *evict* incumbents to make room;
      evictees are parked in the FIFO retry queue (or ``escalated``
      to the driver when the ``parkable`` hook refuses them).
    * :meth:`departure` frees an admitted job's capacity (``free``),
      expires a parked one (``expire``) or ignores an absent one
      (``noop``); it never re-admits -- the driver chooses when to
      run :meth:`retry_pass`, which re-admits parked jobs FIFO under
      the *all-or-nothing* rule (the whole candidate set must fit;
      retries never evict).
    * :meth:`reserve` / :meth:`commit_reservation` are the two-phase
      primitives of cross-shard admission: phase 1 computes a
      no-eviction all-or-nothing decision *without touching cell
      state* (so a coordinator may abandon it freely, e.g. when a
      sibling shard refuses or the global certificate fails); phase 2
      applies it, and is only valid while the admitted set still
      equals the one the reservation was computed over.

    Decisions are pure functions of the candidate set over the fixed
    universe, memoised in incremental mode (see :meth:`decide`), so
    an immediately committed reservation costs no re-analysis.

    Parameters
    ----------
    universe:
        Every job this cell can ever see (local index == local uid).
    policy:
        Scheduling policy / DCA equation for the admission test.
    mode:
        ``"incremental"`` (sliced caches + lazy level evaluation) or
        ``"cold"`` (full re-analysis per decision).  Decisions are
        identical either way.
    retry_limit:
        Capacity of the FIFO retry queue; the oldest parked job is
        dropped when a newcomer overflows it, and ``0`` disables
        parking entirely.
    departure_of:
        Local uid -> departure time; the retry pass skips jobs whose
        own departure would expire them at or before the current time.
    cache:
        Optional pre-built segment cache for ``universe`` (the shard
        layer passes a lazily sliced view of one global cache).
    kernel:
        Level-evaluation kernel of the incremental analyzers.
    parkable:
        Optional predicate deciding which local uids the cell may park
        in its retry queue.  Jobs refused by the predicate are
        reported as ``escalated`` on the outcome instead (the shard
        layer uses this to keep cross-shard jobs out of per-cell
        queues, where a lone cell could re-admit them unilaterally).
    """

    def __init__(self, universe: "JobSet | None", *,
                 policy: "str | Policy" = Policy.PREEMPTIVE,
                 mode: str = "incremental",
                 retry_limit: int = 16,
                 departure_of: "Mapping[int, float] | None" = None,
                 cache=None,
                 kernel: str = "paired",
                 parkable: "Callable[[int], bool] | None" = None) -> None:
        if mode not in CELL_MODES:
            raise ValueError(
                f"mode must be one of {CELL_MODES}, got {mode!r}")
        if retry_limit < 0:
            raise ValueError(
                f"retry_limit must be >= 0, got {retry_limit}")
        if kernel not in CELL_KERNELS:
            raise ValueError(
                f"kernel must be one of {CELL_KERNELS}, got {kernel!r}")
        self._universe = universe
        self._policy = policy
        self._mode = mode
        self._retry_limit = retry_limit
        self._departure_of = dict(departure_of or {})
        self._parkable = parkable
        self._inc: "IncrementalAnalyzer | None" = (
            IncrementalAnalyzer(universe, policy, cache=cache,
                                kernel=kernel)
            if mode == "incremental" and universe is not None
            else None)
        #: all-or-nothing candidate tuple -> outcome (pure-function
        #: memo; incremental mode only -- cold is stateless by
        #: definition).
        self._decision_memo: "dict[tuple, AdmissionResult | None] | None" = (
            {} if mode == "incremental" else None)
        self._admitted: set[int] = set()
        self._ranks: dict[int, int] = {}
        self._retry: list[int] = []
        #: Parked uid -> failure core (frozenset of uids): the stuck
        #: set of the last run that discarded it or refused its retry.
        #: Keys stay a subset of the retry queue.
        self._cores: "dict[int, frozenset]" = {}
        #: uid -> core proved by the latest decision (the discarded
        #: jobs of a full run, or the newcomer of a failed
        #: all-or-nothing run); the event methods keep the parked
        #: ones.
        self._proved: "dict[int, frozenset]" = {}
        #: Wall-clock seconds spent inside the admission decision path
        #: (analysis construction + controller), and how many
        #: decisions were taken -- the quantities the BENCH_online
        #: speedup gates compare.
        self.decision_seconds = 0.0
        self.decision_count = 0
        #: Decision-memo and kernel-memo telemetry (see
        #: :meth:`obs_stats`).
        self.memo_hits = 0
        self.memo_misses = 0
        self.core_hits = 0
        self.kernel_cache = {"hits": 0, "misses": 0}
        self.outcome_counts = {kind: 0 for kind in CELL_DECISIONS}
        self._obs = _cell_instruments()

    # -- read-only state ----------------------------------------------

    @property
    def universe(self) -> "JobSet | None":
        return self._universe

    @property
    def incremental(self) -> "IncrementalAnalyzer | None":
        return self._inc

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def admitted(self) -> "frozenset[int]":
        return frozenset(self._admitted)

    @property
    def ranks(self) -> "dict[int, int]":
        return dict(self._ranks)

    @property
    def retry_queue(self) -> "tuple[int, ...]":
        return tuple(self._retry)

    def is_admitted(self, uid: int) -> bool:
        return uid in self._admitted

    # -- admission plumbing -------------------------------------------

    def _analysis(self, candidate: "list[int]") -> SubsetAnalysis:
        if self._inc is not None:
            return self._inc.subset(candidate)
        return cold_analysis(self._universe, candidate, self._policy)

    def decide(self, candidate: "list[int]",
               all_or_nothing: bool = False) -> "AdmissionResult | None":
        """Admission outcome for a candidate uid set (ascending).

        ``all_or_nothing`` (the retry / reservation rule) asks only
        whether the whole candidate set fits, returning ``None`` when
        the full controller would reject anyone.  It runs
        :func:`~repro.online.incremental.trajectory_outcome`, so a
        fit's ordering is the full controller's lowest-index
        trajectory.

        Admission is a pure function of the candidate set over the
        fixed universe, so the incremental cell memoises all-or-nothing
        outcomes keyed on the exact candidate tuple: retry attempts
        between unchanged admitted sets (the common congested pattern)
        are answered without any re-analysis at all.  Full-controller
        outcomes are not memoised: an arrival's candidate holds a uid
        decided for the first time, so no later lookup could match.
        Cold mode is by definition stateless across events and always
        recomputes.

        After the memo, an all-or-nothing question whose candidate
        contains a parked member's failure core is answered ``None``
        outright (``core_hits``).  Parked jobs are never admitted, so
        that member is the newcomer.  The failure cores a run proves
        are left in ``_proved`` for the event method to keep.
        """
        start = time.perf_counter()
        self._proved = {}
        try:
            key = tuple(candidate)
            memo = self._decision_memo if all_or_nothing else None
            if memo is not None and key in memo:
                self.memo_hits += 1
                return memo[key]
            if all_or_nothing and self._cores and \
                    self._core_covered(candidate):
                self.core_hits += 1
                self._obs["core_hits"].inc()
                return None
            self.memo_misses += 1
            analysis = self._analysis(candidate)
            if all_or_nothing:
                outcome = trajectory_outcome(analysis, mode=self._mode)
                failed = [uid for uid in candidate
                          if uid not in self._admitted]
            else:
                outcome = admit_outcome(analysis, mode=self._mode)
                failed = [candidate[i] for i in outcome.result.rejected]
            self._keep_proved(candidate, failed, outcome.cores)
            result = outcome.result
            stats = analysis.test.analyzer.cache_stats()
            hits = sum(stats["hits"].values())
            misses = sum(stats["misses"].values())
            self.kernel_cache["hits"] += hits
            self.kernel_cache["misses"] += misses
            self._obs["cache_hits"].inc(hits)
            self._obs["cache_misses"].inc(misses)
            if memo is not None:
                if result is not None and self._inc is not None:
                    # Park a thin rebuilder instead of the
                    # controller's own thunk, which pins the whole
                    # per-event ``SubsetAnalysis``; bitwise identical
                    # (:func:`repro.online.incremental.result_delays`).
                    # It must not capture ``result``: that cycle would
                    # leave the result and ``inc`` to the cyclic GC.
                    inc = self._inc
                    accepted, ordering = result.accepted, result.ordering
                    result.rebind_delays(
                        lambda: result_delays(inc.subset(list(key)),
                                              accepted, ordering))
                if len(memo) >= DECISION_MEMO_LIMIT:
                    memo.pop(next(iter(memo)))
                memo[key] = result
            return result
        finally:
            elapsed = time.perf_counter() - start
            self.decision_seconds += elapsed
            self.decision_count += 1
            self._obs["latency"].observe(elapsed)

    def _core_covered(self, candidate: "list[int]") -> bool:
        """Whether a candidate member's failure core lies inside the
        candidate."""
        members = None
        for uid in candidate:
            core = self._cores.get(uid)
            if core is not None:
                if members is None:
                    members = frozenset(candidate)
                if core <= members:
                    return True
        return False

    def _keep_proved(self, candidate: "list[int]", failed: "list[int]",
                     cores: tuple) -> None:
        """File a run's failure cores (local indices into
        ``candidate``, one per stuck level) under the uids that failed
        there -- the discarded jobs of a full run, the newcomer of an
        all-or-nothing one -- in ``_proved``."""
        for uid, core in zip(failed, cores):
            if core is not None:
                self._proved[uid] = frozenset(
                    map(candidate.__getitem__, core.tolist()))

    def _commit(self, candidate: "list[int]",
                result: AdmissionResult) -> "tuple[list[int], int]":
        """Apply an admission outcome; returns (evicted, rank flips)."""
        accepted = {candidate[i] for i in result.accepted}
        new_ranks = {candidate[i]: int(result.ordering[i])
                     for i in result.accepted}
        evicted = sorted(self._admitted - accepted)
        flips = sum(1 for uid, rank in new_ranks.items()
                    if uid in self._ranks and self._ranks[uid] != rank)
        self._admitted = accepted
        self._ranks = new_ranks
        return evicted, flips

    def _enqueue_retry(self, uid: int) -> "tuple[int, bool]":
        """Park ``uid``; returns (drops caused, escalated?)."""
        if self._parkable is not None and not self._parkable(uid):
            return 0, True
        if self._retry_limit == 0:
            return 1, False
        self._retry.append(uid)
        core = self._proved.get(uid)
        if core is not None:
            self._cores[uid] = core
        if len(self._retry) > self._retry_limit:
            self._cores.pop(self._retry.pop(0), None)
            return 1, False
        self._obs["retry_depth"].inc()
        return 0, False

    def _unqueue(self, uid: int) -> None:
        """Take ``uid`` out of the retry queue, with its core."""
        self._retry.remove(uid)
        self._cores.pop(uid, None)
        self._obs["retry_depth"].dec()

    def _count(self, decision: str) -> None:
        """Tally one event outcome (cell-local + registry)."""
        self.outcome_counts[decision] += 1
        self._obs["decisions"][decision].inc()

    def obs_stats(self) -> dict:
        """Telemetry snapshot for spans and engine summaries."""
        return {
            "decisions": self.decision_count,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "core_hits": self.core_hits,
            "kernel_cache_hits": self.kernel_cache["hits"],
            "kernel_cache_misses": self.kernel_cache["misses"],
            "retry_depth": len(self._retry),
            "outcomes": dict(self.outcome_counts),
        }

    # -- event methods ------------------------------------------------

    def arrival(self, uid: int) -> CellEvent:
        """Admit ``uid`` through the full controller (evictions
        allowed); rejected/evicted jobs are parked in the retry queue
        (or escalated, see ``parkable``)."""
        start = time.perf_counter()
        candidate = sorted(self._admitted | {uid})
        result = self.decide(candidate)
        evicted, flips = self._commit(candidate, result)
        accepted = uid in self._admitted
        drops = 0
        escalated: list[int] = []
        for evictee in evicted:
            dropped, up = self._enqueue_retry(evictee)
            drops += dropped
            if up:
                escalated.append(evictee)
        if not accepted:
            dropped, up = self._enqueue_retry(uid)
            drops += dropped
            if up:
                escalated.append(uid)
        decision = "accept" if accepted else "reject"
        self._count(decision)
        return CellEvent(
            decision=decision, uid=uid,
            evicted=tuple(evicted), flips=flips, retry_drops=drops,
            candidate=tuple(candidate), result=result,
            escalated=tuple(escalated),
            seconds=time.perf_counter() - start)

    def departure(self, uid: int) -> CellEvent:
        """Free ``uid``'s capacity (or expire/ignore an absent job).
        The driver decides whether to run a retry pass afterwards."""
        start = time.perf_counter()
        if uid in self._admitted:
            self._admitted.discard(uid)
            self._ranks.pop(uid, None)
            self._count("free")
            return CellEvent(decision="free", uid=uid,
                             seconds=time.perf_counter() - start)
        if uid in self._retry:
            self._unqueue(uid)
            self._count("expire")
            return CellEvent(decision="expire", uid=uid,
                             seconds=time.perf_counter() - start)
        self._count("noop")
        return CellEvent(decision="noop", uid=uid,
                         seconds=time.perf_counter() - start)

    def retry_pass(self, now: float) -> "Iterator[CellEvent]":
        """Try re-admitting parked jobs (FIFO) after freed capacity.

        A parked job is re-admitted only when the controller accepts
        the *entire* candidate set -- retries never evict.  Yields one
        event per attempt (``accept`` on re-admission, ``reject`` with
        ``result=None`` when the set did not fit whole; failed
        attempts stay parked, with the core of the failure when one
        was recorded) *as it goes*, so a driver observes the admitted
        set mid-pass exactly as it evolves.  Consume the iterator
        fully, or the pass stops where you stop."""
        for uid in list(self._retry):
            if self._departure_of.get(uid, float("inf")) <= now:
                continue  # its own departure event expires it
            start = time.perf_counter()
            candidate = sorted(self._admitted | {uid})
            result = self.decide(candidate, all_or_nothing=True)
            if result is None:
                core = self._proved.get(uid)
                if core is not None:
                    self._cores[uid] = core
                self._count("reject")
                yield CellEvent(
                    decision="reject", uid=uid,
                    candidate=tuple(candidate), result=None,
                    seconds=time.perf_counter() - start)
                continue
            _evicted, flips = self._commit(candidate, result)
            self._unqueue(uid)
            self._count("accept")
            yield CellEvent(
                decision="accept", uid=uid, flips=flips,
                candidate=tuple(candidate), result=result,
                seconds=time.perf_counter() - start)

    # -- two-phase reservation (cross-shard admission) ----------------

    def reserve(self, uid: int) -> Reservation:
        """Phase 1: can ``uid`` join the admitted set *whole*, with no
        evictions?  Pure -- no cell state changes; the decision is
        memoised exactly like any other, so an immediately following
        :meth:`commit_reservation` costs no re-analysis."""
        start = time.perf_counter()
        candidate = sorted(self._admitted | {uid})
        result = self.decide(candidate, all_or_nothing=True)
        return Reservation(uid=uid, candidate=tuple(candidate),
                           result=result,
                           seconds=time.perf_counter() - start)

    def commit_reservation(self, reservation: Reservation) -> CellEvent:
        """Phase 2: apply a successful reservation.  Must only be
        called while the admitted set still equals the one the
        reservation was computed over (the single-threaded shard
        driver guarantees this by committing immediately)."""
        start = time.perf_counter()
        if reservation.result is None:
            raise ValueError(
                f"cannot commit a failed reservation for uid "
                f"{reservation.uid}")
        if tuple(sorted(self._admitted | {reservation.uid})) != \
                reservation.candidate:
            raise ValueError(
                f"stale reservation for uid {reservation.uid}: the "
                f"admitted set changed since phase 1")
        evicted, flips = self._commit(list(reservation.candidate),
                                      reservation.result)
        assert not evicted  # all-or-nothing reservations never evict
        return CellEvent(decision="accept", uid=reservation.uid,
                         flips=flips, candidate=reservation.candidate,
                         result=reservation.result,
                         seconds=time.perf_counter() - start)

    # -- shard-driver hooks -------------------------------------------

    def evict(self, uid: int) -> bool:
        """Forcibly remove an admitted job (cross-shard revocation:
        the job lost its seat on another shard, so its reservation
        here is void).  Returns whether the job was present."""
        if uid not in self._admitted:
            return False
        self._admitted.discard(uid)
        self._ranks.pop(uid, None)
        return True

    def unpark(self, uid: int) -> bool:
        """Silently drop ``uid`` from the retry queue (no expiry
        accounting); returns whether it was parked."""
        if uid in self._retry:
            self._unqueue(uid)
            return True
        return False
