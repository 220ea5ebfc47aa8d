"""The online stream driver: one stream, one cell per resource shard.

:class:`ShardedAdmissionEngine` replays a materialised
:class:`~repro.online.streams.OnlineStream` one timestamped event at a
time and keeps the admitted job set schedulable throughout.  The
decisions themselves are the OPDCA admission controller (Section VI.B
of the paper, Algorithm 1 with the modified Step 10), taken by
:class:`~repro.online.cell.AdmissionCell`:

* an **arrival** runs the controller over ``admitted + {new job}``.
  The new job is accepted iff the controller keeps it; previously
  admitted jobs it discards are *evicted* (counted as churn) and
  parked in a bounded FIFO retry queue.
* a **departure** frees the leaving job's capacity, then tries to
  re-admit parked jobs -- a parked job is re-admitted only if the
  controller accepts the *whole* candidate set (no eviction cascades
  on departures).
* ties are deterministic: departures at time ``t`` are processed
  before arrivals at ``t`` (:func:`~repro.online.streams.
  stream_events`), mirroring the ``_COMPLETE < _ARRIVE`` convention of
  the discrete-event simulator.

The engine scales past one resource cluster by partitioning the
system's resources into shards
(:class:`~repro.core.partition.ShardMap`) and hosting one cell per
shard; ``shards=1`` (the default) is a single cell over the whole
universe.  Every arrival is routed by its resource footprint:

* a **shard-local** job (footprint inside one shard) goes through its
  home cell's full controller -- and because jobs in different shards
  never share a resource, those decisions are *exact*, not
  approximate (see :mod:`repro.core.partition`).
* a **cross-shard** job (footprint spanning shards) is admitted by
  conservative two-phase reservation: phase 1 asks every touched cell
  whether the job fits *whole, with no evictions*
  (:meth:`~repro.online.cell.AdmissionCell.reserve`) -- a cheap
  necessary filter -- and then certifies the whole prospective
  admitted set against the **whole-universe** analysis
  (:meth:`ShardedAdmissionEngine._certify`); only if both agree does
  phase 2 commit on each touched cell
  (:meth:`~repro.online.cell.AdmissionCell.commit_reservation`) --
  otherwise nothing changed anywhere and the job is parked in the
  engine-level cross-shard retry queue.  The invariant is
  all-or-nothing residency: a cross-shard job is admitted on every
  touched shard or on none.

  The global certificate is what makes cross-shard admission *sound*:
  a per-shard reservation bounds the job's end-to-end deadline using
  only that shard's members as interferers, and the per-shard stage
  delays are additive into one end-to-end deadline, so a job passing
  every per-shard check can still miss its deadline under the
  whole-set analysis.  Reservations alone would therefore be
  optimistic; the certificate searches the unrestricted universe for
  a feasible priority assignment (a *witness*) of the job's resource
  *component* -- the admitted jobs on shards transitively linked to
  it by resident cross-shard jobs (:meth:`ShardedAdmissionEngine.\
_component_candidate`).  Jobs outside the component share no resource
  with anything inside it, so whole-set feasibility factorises over
  components and the restricted check is exact, not an approximation:
  a committed set always has a feasible whole-universe priority
  assignment.
* admitting a *local* job onto a shard that hosts resident
  cross-shard visitors raises the interference those visitors see
  there, which the visitors' other shards cannot observe -- so after
  any such commit the engine re-certifies that shard's component and,
  while the certificate fails, *revokes* the youngest resident
  visitor (highest uid) from every touched shard and parks it in the
  cross-shard queue.  Shard-local jobs are never revoked: their
  per-shard bounds are exact (see :mod:`repro.core.partition`).  The
  same revocation path runs when a local arrival evicts a visitor
  outright -- cells never park cross-shard jobs themselves (the
  ``parkable`` hook), because a lone cell re-admitting one
  unilaterally would break the residency invariant.

The certificate is cheap in the common case: the engine carries the
*standing certified ordering* -- a concrete feasible whole-universe
priority assignment of the admitted set, maintained across departures
(removal is bound-preserving for the float-monotone equations) and
commits.  Appending a newly admitted job at the bottom of that
ordering leaves every incumbent's higher-priority set unchanged, so
for bounds that ignore the lower-priority set a single delay
evaluation of the new job certifies the extended set
(:meth:`ShardedAdmissionEngine._quick_certify`); the full search runs
only when that probe fails, and Audsley's completeness for
OPA-compatible bounds makes the accept/reject decisions identical
either way.  Under the same gate the full search is itself a witness
search (:func:`~repro.online.incremental.witness_outcome`): it
places every certainly-feasible job per round rather than tracing the
lowest-index Audsley trajectory, so its ordering may differ from the
cold controller's while its verdict never does.  Cells keep the
lowest-index trajectory for their own decisions.  A refused search
hands back its *failure core*, a stuck set clear of the bands' seed
pad that no superset can schedule: while a queued cross-shard job's
core lies inside ``admitted + {uid}`` its retry is skipped, and while
a refused re-certification's core stays admitted the next visitor is
revoked without searching again.

With ``shards=1`` the single cell owns the universe and its segment
cache outright, so every event is one plain controller decision.
``tests/online/test_engine.py`` rebuilds every such decision cold
through :func:`repro.core.admission.opdca_admission` and compares
accepted sets, orderings and delay vectors exactly;
``tests/online/test_single_cell_golden.py`` pins whole runs to digests
recorded from the former dedicated single-cell driver.
``mode="cold"`` makes the cells take the cold path themselves (the
``BENCH_online`` speedup reference).  The price of sharding is
conservatism on cross-shard jobs only (no-eviction reservations plus
the global certificate, where the single-shard oracle's full
controller may evict to make room): acceptance ratios stay within a
couple of percent of the oracle on cluster-structured workloads while
per-event candidate sets (and so decision cost) shrink by the shard
count -- shard-local traffic never pays for the whole-universe
analysis, which runs only for cross-shard candidates and for commits
onto shards that currently host visitors.

The optional validation hook replays accepted epochs through
:class:`~repro.sim.engine.PipelineSimulator` and records every
admitted job that misses its deadline under the assigned priorities.
"""

from __future__ import annotations

import time
from typing import Iterable

import numpy as np

from repro import obs
from repro.core.admission import AdmissionResult, ordering_of_accepted
from repro.core.dca import DelayAnalyzer
from repro.core.partition import Routing, ShardMap
from repro.core.schedulability import (
    FLOAT_MONOTONE_EQUATIONS,
    LOWER_AWARE_EQUATIONS,
    SDCA,
    Policy,
    resolve_equation,
)
from repro.core.segments import SegmentCache
from repro.core.system import JobSet
from repro.online.cell import CELL_KERNELS, CELL_MODES, AdmissionCell
from repro.online.incremental import (
    IncrementalAnalyzer,
    Outcome,
    admit_all_or_nothing,  # noqa: F401 - perfbench's ledger patches it
    cold_analysis,
    witness_outcome,
)
from repro.online.metrics import (
    EventRecord,
    OnlineMetrics,
    OnlineRunResult,
    admitted_utilisation,
)
from repro.online.streams import EVENT_ARRIVE, OnlineStream, stream_events


def _sim_preemption_flags(policy: "str | Policy",
                          system) -> list[bool]:
    """Per-stage preemption flags matching the analysis equation."""
    equation = resolve_equation(policy)
    if equation == "eq10":
        return list(system.preemptive_flags)
    if equation in ("eq2", "eq4", "eq5"):
        return [False] * system.num_stages
    return [True] * system.num_stages


def epoch_validation_failures(universe: JobSet,
                              policy: "str | Policy",
                              event_index: int,
                              result: AdmissionResult,
                              candidate: "list[int]") -> list[str]:
    """Replay one accepted epoch through the pipeline simulator.

    ``candidate`` maps the result's local indices back to universe
    uids.  Returns one message per admitted job that misses its
    deadline in simulation under the result's priority assignment.
    """
    from repro.sim.engine import PipelineSimulator

    if not result.accepted:
        return []
    ordering = ordering_of_accepted(result)
    accepted_ids = [candidate[i] for i in result.accepted]
    epoch = universe.restrict(accepted_ids)
    flags = _sim_preemption_flags(policy, epoch.system)
    sim = PipelineSimulator(epoch, ordering, preemptive=flags).run()
    return [
        f"event {event_index}: admitted job "
        f"{accepted_ids[position]} misses its deadline in "
        f"simulation (delay {sim.delays[position]:.3f} > "
        f"D {epoch.D[position]:.3f})"
        for position in sim.missed_jobs()
    ]


class _Shard:
    """One shard's cell plus the global<->local uid translation."""

    def __init__(self, shard: int, cell: AdmissionCell,
                 members: np.ndarray) -> None:
        self.shard = shard
        self.cell = cell
        #: ``members[local] == global`` (ascending global uids).
        self.members = members
        self.local_of = {int(g): i for i, g in enumerate(members)}
        #: A shard holding every job (always so with one shard) numbers
        #: them exactly like the stream.
        self._identity = bool(members.size) and \
            int(members[-1]) == members.size - 1

    def local(self, uid: int) -> int:
        return self.local_of[uid]

    def globalise(self, locals_: "tuple[int, ...]") -> tuple[int, ...]:
        """Local uid tuple -> global; ascending in, ascending out
        (``members`` is sorted)."""
        if self._identity:
            return tuple(locals_)
        return tuple(int(self.members[i]) for i in locals_)


class ShardedAdmissionEngine:
    """Replay one stream through N admission cells.

    Each cell owns one resource shard's restricted universe and runs
    ordinary single-cell admission for *shard-local* jobs (exact: a
    local job's delay bounds only involve its home shard's
    resources).  A *cross-shard* arrival is admitted in two phases:
    phase 1 asks every touched shard for a no-eviction
    :meth:`~repro.online.cell.AdmissionCell.reserve` (pure, no state
    change); if all accept, the engine *certifies* the admission by
    re-running the all-or-nothing controller over the job's resource
    component in the unrestricted universe -- per-shard checks alone
    would be optimistic, while feasibility factorises exactly over
    components -- and only then commits the reservation on every
    shard (:meth:`~repro.online.cell.AdmissionCell.\
commit_reservation`).  Any failure abandons the phase-1 reservations
    unchanged and parks the job in the engine's cross-shard retry
    queue.  A standing certified priority ordering of the admitted
    set makes the common certificate a single delay evaluation
    (append-at-bottom probe); the full Audsley search runs only when
    the probe fails, with identical accept/reject outcomes.  Commits
    of local jobs onto shards hosting cross-shard visitors re-certify
    that component and revoke the youngest visitor while it fails.
    See the module docstring for why each step is sound.

    Feed events through :meth:`process` (the ``repro.serve`` service
    does), or :meth:`run` to replay the whole stream; both produce
    the same :class:`~repro.online.metrics.OnlineRunResult` via
    :meth:`result`.  With ``shards=1`` (the default) there is one
    cell over the whole universe and every event is a plain
    controller decision.

    Parameters
    ----------
    stream:
        The materialised event stream (uids 0..k-1).
    shards:
        Shard count (resources split into contiguous blocks per stage
        via :meth:`~repro.core.partition.ShardMap.blocked`) or a
        pre-built :class:`~repro.core.partition.ShardMap`.
    policy:
        Scheduling policy / DCA equation for the admission test.
    mode:
        ``"incremental"`` (sliced caches + lazy level evaluation,
        the default) or ``"cold"`` (full re-analysis per decision;
        the benchmark reference).  Decisions are identical either
        way.
    retry_limit:
        Capacity of each cell's FIFO retry queue *and* of the
        engine's cross-shard queue; the oldest parked job is dropped
        when a newcomer overflows it.
    validate_every:
        Replay every k-th accepted epoch -- the admitted set under its
        whole-universe certificate ordering -- through the simulator
        (0 disables the hook).
    kernel:
        Level-evaluation kernel of the admission analyzers (one of
        :data:`~repro.online.cell.CELL_KERNELS`; decisions are
        identical on every tier).
    record_decisions:
        Keep ``(index, kind, uid, candidate, result)`` triples (global
        uids) on ``decisions`` for the cold-equivalence property
        tests; retry entries carry ``None`` when the candidate set did
        not fit whole, cross-shard reservations log one ``reserve``
        entry per touched shard plus one ``certify`` entry for the
        whole-universe check.  A feasible ``certify`` entry's ordering
        is the certificate's witness, which in incremental mode may
        differ from the cold controller's (the verdict cannot); cell
        entries carry the lowest-index trajectory.
    """

    def __init__(self, stream: OnlineStream, *,
                 shards: "int | ShardMap" = 1,
                 policy: "str | Policy" = Policy.PREEMPTIVE,
                 mode: str = "incremental",
                 retry_limit: int = 16,
                 validate_every: int = 0,
                 kernel: str = "paired",
                 record_decisions: bool = False) -> None:
        # Validated here, not only in the cells: an empty stream builds
        # no cell at all.
        if mode not in CELL_MODES:
            raise ValueError(
                f"mode must be one of {CELL_MODES}, got {mode!r}")
        if kernel not in CELL_KERNELS:
            raise ValueError(
                f"kernel must be one of {CELL_KERNELS}, got {kernel!r}")
        if retry_limit < 0:
            raise ValueError(
                f"retry_limit must be >= 0, got {retry_limit}")
        if validate_every < 0:
            raise ValueError(
                f"validate_every must be >= 0, got {validate_every}")
        self._stream = stream
        self._policy = policy
        self._mode = mode
        self._kernel = kernel
        self._retry_limit = retry_limit
        self._validate_every = validate_every
        self._universe: "JobSet | None" = (
            stream.universe() if stream.events else None)
        self._departure_of = {event.uid: event.departure
                              for event in stream.events}

        self._shard_map = (shards if isinstance(shards, ShardMap)
                           else ShardMap.blocked(stream.system,
                                                 int(shards)))
        self._routing: "Routing | None" = None
        self._cache: "SegmentCache | None" = None
        self._shards: "list[_Shard]" = []
        if self._universe is not None:
            self._routing = self._shard_map.route(self._universe)
            if mode == "incremental":
                self._cache = SegmentCache(self._universe)
            self._shards = [
                self._build_shard(shard, retry_limit, kernel)
                for shard in range(self._shard_map.num_shards)]

        #: (index, kind, uid, candidate, result) log (global uids).
        self.decisions: "list[tuple]" = []
        self._record_decisions = record_decisions

        self._admitted: set[int] = set()
        self._cross_retry: list[int] = []
        self._seen: set[int] = set()
        self._departed: set[int] = set()
        self._metrics = OnlineMetrics(self._universe)
        self._heaviness: "np.ndarray | None" = None
        #: Whole-universe certificate state (lazy: shard-local traffic
        #: never builds or touches it).
        self._global_inc: "IncrementalAnalyzer | None" = None
        self._global_test: "SDCA | None" = None
        #: Standing certified priority ordering (highest first) of the
        #: whole admitted set: the constructive witness behind the
        #: one-bound fast path (:meth:`_quick_certify`).  Maintained
        #: only in incremental mode under float-monotone bounds that
        #: ignore the lower-priority set (removals and bottom-appends
        #: are then provably bound-preserving); ``None`` whenever
        #: unavailable or no longer trusted -- and never kept when no
        #: job spans shards (one shard, or separable work), where no
        #: certificate ever consults it.
        equation = resolve_equation(policy)
        self._order_ok = (mode == "incremental"
                          and equation in FLOAT_MONOTONE_EQUATIONS
                          and equation not in LOWER_AWARE_EQUATIONS
                          and self._routing is not None
                          and self._routing.num_cross > 0)
        self._order: "list[int] | None" = [] if self._order_ok else None
        self._quick_certifies = 0
        #: Failure cores of queued cross-shard jobs: ``uid -> frozenset``
        #: of the global uids in the stuck set of the witness search
        #: that refused its certificate (see
        #: :class:`~repro.online.incremental.Outcome`).  A core has no
        #: feasible priority order and, under the float-monotone
        #: bounds, neither has any superset of it, so while the core
        #: lies inside ``admitted + {uid}`` a retry would provably
        #: fail again and is skipped outright.  Only the certified-band
        #: witness search records cores (never cold mode), and only
        #: clear of the seed pad; keys stay a subset of the
        #: cross-shard queue.
        self._cross_failed: "dict[int, frozenset]" = {}
        self._certify_seconds = 0.0
        self._certify_count = 0
        self._accept_count = 0
        self._validation_failures: list[str] = []
        #: Cross-shard accounting surfaced in ``summary["sharding"]``.
        self._cross_accepts = 0
        self._cross_rejects = 0
        self._cross_certify_rejects = 0
        self._cross_retry_accepts = 0
        self._revocations = 0
        self._event_index = 0
        #: Registry counters mirroring the certificate tallies above
        #: (pre-resolved children: per-event cost is one guarded
        #: increment; see ``repro.obs``).
        registry = obs.get_registry()
        certificates = registry.counter(
            "repro_certificates_total",
            "Whole-universe certificate evaluations by path.",
            labelnames=("path",))
        self._obs_certify = {
            "quick": certificates.labels(path="quick"),
            "full": certificates.labels(path="full"),
        }
        self._obs_revocations = registry.counter(
            "repro_certificate_revocations_total",
            "Cross-shard reservations revoked by a failed "
            "certificate.")
        self._obs_certify_rejects = registry.counter(
            "repro_cross_certify_rejects_total",
            "Cross-shard admissions rejected by the certificate.")

    def _build_shard(self, shard: int, retry_limit: int,
                     kernel: str) -> _Shard:
        routing = self._routing
        members = routing.members(shard)
        if members.size == 0:
            cell = AdmissionCell(None, policy=self._policy,
                                 mode=self._mode,
                                 retry_limit=retry_limit,
                                 kernel=kernel)
            return _Shard(shard, cell, members)
        if members.size == self._universe.num_jobs:
            # The shard owns every job (always so with one shard):
            # local uids are global uids, so the cell takes the
            # universe and the global cache themselves -- restrict()
            # copies would only rebuild the same tensors lazily.
            sub, sub_cache = self._universe, self._cache
            departure_of = self._departure_of
        else:
            indices = [int(g) for g in members]
            sub = self._universe.restrict(indices)
            sub_cache = (self._cache.restrict(sub, indices)
                         if self._cache is not None else None)
            departure_of = {i: self._departure_of[int(g)]
                            for i, g in enumerate(members)}
        cross = routing.cross

        def parkable(local_uid: int,
                     members=members, cross=cross) -> bool:
            return not bool(cross[int(members[local_uid])])

        cell = AdmissionCell(sub, policy=self._policy,
                             mode=self._mode, retry_limit=retry_limit,
                             departure_of=departure_of,
                             cache=sub_cache, kernel=kernel,
                             parkable=parkable)
        return _Shard(shard, cell, members)

    # -- read-only state ----------------------------------------------

    @property
    def universe(self) -> "JobSet | None":
        return self._universe

    @property
    def shard_map(self) -> ShardMap:
        return self._shard_map

    @property
    def routing(self) -> "Routing | None":
        return self._routing

    @property
    def num_shards(self) -> int:
        """The requested shard count (cells are built only for a
        non-empty stream)."""
        return self._shard_map.num_shards

    @property
    def cells(self) -> "list[AdmissionCell]":
        return [shard.cell for shard in self._shards]

    @property
    def admitted(self) -> "frozenset[int]":
        return frozenset(self._admitted)

    @property
    def cross_retry_queue(self) -> "tuple[int, ...]":
        return tuple(self._cross_retry)

    @property
    def decision_seconds(self) -> float:
        return (self._certify_seconds +
                sum(s.cell.decision_seconds for s in self._shards))

    @property
    def decision_count(self) -> int:
        return (self._certify_count + self._quick_certifies +
                sum(s.cell.decision_count for s in self._shards))

    @property
    def validation_failures(self) -> "list[str]":
        return list(self._validation_failures)

    @property
    def metrics(self) -> OnlineMetrics:
        """The running tallies and event records :meth:`result`
        summarises (read them; the engine owns them)."""
        return self._metrics

    # -- bookkeeping --------------------------------------------------

    def _log_decision(self, index: int, kind: str, uid: int,
                      candidate: "tuple[int, ...]",
                      result) -> None:
        if self._record_decisions:
            self.decisions.append(
                (index, kind, uid, tuple(candidate), result))

    def _snapshot(self, index: int, now: float, kind: str, uid: int,
                  decision: str, evicted: "tuple[int, ...]",
                  flips: int, latency: float) -> EventRecord:
        metrics = self._metrics
        record = EventRecord(
            index=index, time=now, kind=kind, uid=uid,
            decision=decision, evicted=evicted,
            admitted=len(self._admitted),
            acceptance_ratio=metrics.acceptance_ratio(),
            rejected_heaviness=metrics.rejected_heaviness(self._seen),
            utilisation=self._utilisation(),
            rank_changes=flips, latency=latency)
        metrics.record(record)
        return record

    def _utilisation(self) -> float:
        if self._universe is None or not self._admitted:
            return 0.0
        if self._heaviness is None:
            from repro.workload.heaviness import heaviness_matrix

            self._heaviness = heaviness_matrix(self._universe)
        mask = np.zeros(self._universe.num_jobs, dtype=bool)
        mask[sorted(self._admitted)] = True
        return admitted_utilisation(self._universe, mask,
                                    heaviness=self._heaviness)

    def _enqueue_cross(self, uid: int) -> None:
        """Park a cross-shard job in the engine-level queue (bounded
        FIFO, same overflow rule as the cells')."""
        if self._retry_limit == 0:
            self._cross_failed.pop(uid, None)
            self._metrics.retry_drops += 1
            return
        self._cross_retry.append(uid)
        if len(self._cross_retry) > self._retry_limit:
            self._cross_failed.pop(self._cross_retry.pop(0), None)
            self._metrics.retry_drops += 1

    def _touched(self, uid: int) -> "list[_Shard]":
        return [self._shards[s] for s in self._routing.touched[uid]]

    # -- whole-universe certificate -----------------------------------

    def _global_analyzer(self) -> IncrementalAnalyzer:
        if self._global_inc is None:
            self._global_inc = IncrementalAnalyzer(
                self._universe, self._policy,
                cache=self._cache, kernel=self._kernel)
        return self._global_inc

    def _order_remove(self, uid: int) -> None:
        """Drop ``uid`` from the standing certified ordering.  Removal
        is always sound under the fast-path gate: float-monotone
        bounds can never increase when a higher-priority set shrinks,
        so the surviving assignment stays feasible."""
        if self._order is None:
            return
        try:
            self._order.remove(uid)
        except ValueError:
            self._order = None  # bookkeeping drift: stop trusting it

    def _order_rebase_shard(self, home: _Shard) -> None:
        """Re-sync ``home``'s block of the standing ordering from its
        cell after a commit onto a *visitor-free* shard.

        With no resident cross-shard visitors, every user of
        ``home``'s resources is a cell member, so the cell's own exact
        all-or-nothing ordering certifies the block outright.  Placing
        the block contiguously at the bottom removes ``home`` members
        from every outside job's higher-priority set (bound-preserving
        under the float-monotone gate) and adds nothing above any
        block member that the cell's analysis did not already count.
        """
        order = self._order
        if order is None:
            return
        members = {int(home.members[i]) for i in home.cell.admitted}
        ranks = home.cell.ranks
        block = sorted(members, key=lambda uid: ranks[home.local(uid)])
        self._order = [u for u in order if u not in members] + block
        if set(self._order) != self._admitted:
            self._order = None

    def _order_merge(self, candidate: "tuple[int, ...]",
                     result: AdmissionResult) -> None:
        """Fold a fresh certificate's ordering into the standing one:
        the certified block lands at the bottom and survivors outside
        ``candidate`` keep their relative order -- they share no
        resource with the block (:meth:`_component_candidate`), so
        neither move touches any bound."""
        if not self._order_ok:
            return
        block = [candidate[i]
                 for i in np.argsort(result.ordering, kind="stable")]
        if self._order is not None:
            members = set(candidate)
            self._order = [u for u in self._order
                           if u not in members] + block
        elif set(candidate) == self._admitted:
            self._order = block
        if self._order is not None and \
                set(self._order) != self._admitted:
            self._order = None

    def _universe_test(self) -> SDCA:
        """Whole-universe single-bound test over one persistent
        analyzer (explicit higher/active masks; no hidden state)."""
        if self._global_test is None:
            self._global_test = SDCA(
                self._universe, self._policy,
                analyzer=DelayAnalyzer(self._universe, cache=self._cache,
                                       kernel=self._kernel))
        return self._global_test

    def _quick_certify(self, uid: int) -> bool:
        """Constructive one-bound extension of the standing
        certificate: is the certified ordering still feasible with
        ``uid`` appended at lowest priority?

        Appending at the bottom leaves every incumbent's
        higher-priority set unchanged, and the fast-path gate
        restricts to bounds that ignore the lower-priority set, so the
        incumbents' bounds are *literally* unchanged -- only ``uid``'s
        own bound (the whole admitted set above it) needs evaluating.
        A pass exhibits a feasible whole-universe assignment, the
        exact invariant the full certificate establishes; a fail only
        means "not feasible at the bottom", and the caller falls back
        to the full Audsley search -- which is complete for the
        OPA-compatible bounds, so accept/reject decisions are
        identical with or without this fast path.
        """
        order = self._order
        if order is None:
            return False
        rest = self._admitted - {uid}
        if set(order) != rest:
            self._order = None
            return False
        start = time.perf_counter()
        try:
            test = self._universe_test()
            higher = np.zeros(self._universe.num_jobs, dtype=bool)
            if rest:
                higher[sorted(rest)] = True
            active = higher.copy()
            active[uid] = True
            if test(uid, higher, active=active):
                order.append(uid)
                return True
            return False
        finally:
            self._certify_seconds += time.perf_counter() - start
            self._quick_certifies += 1
            self._obs_certify["quick"].inc()

    def _component_candidate(self, seeds: "Iterable[int]",
                             extra: "int | None" = None
                             ) -> tuple[int, ...]:
        """Admitted jobs (plus ``extra``) in the shard *component*
        reachable from ``seeds``.

        Two jobs interfere only when they share a resource (see
        :mod:`repro.core.partition`), and shards partition resources,
        so only admitted cross-shard jobs couple shards.  Taking the
        transitive closure of ``seeds`` under those couplings yields a
        set of shards whose residents share no resource with any job
        outside it -- whole-set feasibility therefore factorises over
        such components, and certifying the affected component alone
        is exactly as sound as certifying the full admitted set, at a
        fraction of the analysis cost (the candidate excludes every
        untouched shard's residents).
        """
        routing = self._routing
        shards = set(seeds)
        if extra is not None:
            shards.update(routing.touched[extra])
        links = [set(routing.touched[uid]) for uid in self._admitted
                 if routing.cross[uid]]
        grew = True
        while grew:
            grew = False
            for touched in links:
                if touched & shards and not touched <= shards:
                    shards |= touched
                    grew = True
        members = {uid for uid in self._admitted
                   if shards.intersection(routing.touched[uid])}
        if extra is not None:
            members.add(extra)
        return tuple(sorted(members))

    def _certify(self, candidate: "tuple[int, ...]") -> Outcome:
        """All-or-nothing admission of ``candidate`` (ascending global
        uids) over the *unrestricted* universe: the schedulability
        certificate of the global admitted set (or of one resource
        component of it -- see :meth:`_component_candidate`).
        A refusal carries the search's failure core when one was
        recorded (:meth:`_core_of`).

        Per-shard reservations see only their own members as
        interferers, so they under-count a cross-shard job's
        end-to-end delay; this check is the one place the full
        interference picture is evaluated.  It asks only for *a*
        feasible assignment (:func:`~repro.online.incremental.\
witness_outcome`, a witness search under the float-monotone gate),
        so a fit's ordering may differ from the cold controller's; the
        verdict is identical.
        """
        start = time.perf_counter()
        try:
            if self._mode == "cold":
                analysis = cold_analysis(self._universe, candidate,
                                         self._policy)
            else:
                analysis = self._global_analyzer().subset(candidate)
            return witness_outcome(analysis, mode=self._mode)
        finally:
            self._certify_seconds += time.perf_counter() - start
            self._certify_count += 1
            self._obs_certify["full"].inc()

    @staticmethod
    def _core_of(candidate: "tuple[int, ...]",
                 outcome: Outcome) -> "frozenset | None":
        """The global uids of a refused certificate's failure core, or
        ``None`` when the search recorded none."""
        core = outcome.cores[0] if outcome.cores else None
        if core is None:
            return None
        return frozenset(candidate[i] for i in core.tolist())

    def _visitors_on(self, home: _Shard) -> "list[int]":
        """Admitted cross-shard jobs resident on ``home``, ascending
        global uids."""
        routing = self._routing
        return sorted(uid for uid in self._admitted
                      if routing.cross[uid]
                      and home.shard in routing.touched[uid])

    def _reconfirm_after(self, home: _Shard, uid: int
                         ) -> "tuple[list[int], float]":
        """Re-certify ``home``'s resource component after committing
        ``uid`` onto ``home``.

        A new resident raises the interference ``home``'s cross-shard
        visitors see there, which their other shards cannot observe;
        shard-local jobs are unaffected (their per-shard bounds are
        exact).  Jobs outside ``home``'s component share no resource
        with the new resident, so their standing certificates are
        untouched (:meth:`_component_candidate`).  The cheap paths run
        first: a visitor-free ``home`` needs no global analysis at all
        (the cell's ordering is exact -- the standing order just
        re-syncs its block), and :meth:`_quick_certify` settles most
        of the rest with a single bound evaluation.  Otherwise, while
        the full certificate fails, the youngest visitor on ``home``
        (highest uid) is revoked from every touched shard and parked
        in the cross-shard queue; revocation can split the component,
        so the candidate is recomputed each round.  While the failed
        certificate's core is still wholly admitted, certifying again
        would provably fail, so the next visitor is revoked without
        it.  Returns the revoked uids (ascending) and the wall-clock
        seconds spent, for the caller's event record.
        """
        visitors = self._visitors_on(home)
        if not visitors:
            self._order_rebase_shard(home)
            return [], 0.0
        start = time.perf_counter()
        if self._quick_certify(uid):
            return [], time.perf_counter() - start
        revoked: list[int] = []
        core: "frozenset | None" = None
        while True:
            if core is None or not core <= self._admitted:
                candidate = self._component_candidate((home.shard,))
                outcome = self._certify(candidate)
                if outcome.result is not None:
                    self._order_merge(candidate, outcome.result)
                    break
                core = self._core_of(candidate, outcome)
            if not visitors:
                # Unreachable by construction: with no visitors left
                # on ``home`` the set is the pre-event certified set
                # minus removals plus exactly-analysed local jobs.
                self._order = None
                break
            victim = visitors.pop()
            for shard in self._touched(victim):
                if shard.cell.evict(shard.local(victim)):
                    self._revocations += 1
                    self._obs_revocations.inc()
            self._admitted.discard(victim)
            self._order_remove(victim)
            revoked.append(victim)
            self._enqueue_cross(victim)
        return sorted(revoked), time.perf_counter() - start

    def _maybe_validate(self, index: int) -> None:
        """Every k-th accept: replay the global admitted set through
        the simulator under its whole-universe certificate
        ordering."""
        self._accept_count += 1
        if not self._validate_every or \
                self._accept_count % self._validate_every:
            return
        candidate = sorted(self._admitted)
        if not candidate:
            return
        certificate = self._certify(tuple(candidate)).result
        if certificate is None:
            self._validation_failures.append(
                f"event {index}: admitted set has no feasible "
                f"whole-universe priority assignment")
            return
        self._validation_failures.extend(epoch_validation_failures(
            self._universe, self._policy, index, certificate,
            candidate))

    # -- local (single-shard) arrivals --------------------------------

    def _local_arrival(self, index: int, now: float, uid: int,
                       home: _Shard) -> None:
        event = home.cell.arrival(home.local(uid))
        evicted = home.globalise(event.evicted)
        self._log_decision(index, "arrive", uid,
                           home.globalise(event.candidate),
                           event.result)
        if event.decision == "accept":
            self._admitted.add(uid)
        for g in evicted:
            self._admitted.discard(g)
            self._order_remove(g)
        self._metrics.ever_admitted |= self._admitted
        self._metrics.evictions += len(evicted)
        self._metrics.rank_changes += event.flips
        self._metrics.retry_drops += event.retry_drops
        # Cross-shard evictees the cell could not park: revoke their
        # residency on every other touched shard, then park here.
        for local_uid in event.escalated:
            g = int(home.members[local_uid])
            if g == uid:
                self._enqueue_cross(g)
                continue
            for other in self._touched(g):
                if other.shard != home.shard:
                    if other.cell.evict(other.local(g)):
                        self._revocations += 1
                        self._obs_revocations.inc()
            self._enqueue_cross(g)
        # A new resident may push a surviving visitor's end-to-end
        # bound past its deadline; re-certify and revoke if needed.
        # A rejected arrival can only shrink the set (discard
        # cascade), which cannot break the standing certificate.
        reconfirm_seconds = 0.0
        if event.decision == "accept":
            revoked, reconfirm_seconds = \
                self._reconfirm_after(home, uid)
            if revoked:
                self._metrics.evictions += len(revoked)
                evicted = tuple(sorted(set(evicted) | set(revoked)))
        self._snapshot(index, now, "arrive", uid, event.decision,
                       evicted, event.flips,
                       event.seconds + reconfirm_seconds)
        if event.decision == "accept":
            self._maybe_validate(index)

    # -- cross-shard arrivals (two-phase reservation) -----------------

    def _cross_arrival(self, index: int, now: float, uid: int,
                       *, kind: str = "arrive") -> bool:
        """Two-phase reservation of ``uid`` on every touched shard,
        guarded by the whole-universe certificate.  Returns
        acceptance; on rejection nothing changed anywhere."""
        core = self._cross_failed.get(uid)
        if core is not None and core - {uid} <= self._admitted:
            # The failure core lies inside admitted + {uid}, so this
            # attempt cannot succeed; skip the reservations and the
            # certificate entirely (failed retry attempts leave no
            # record either way).
            return False
        touched = self._touched(uid)
        reservations = []
        seconds = 0.0
        for shard in touched:
            reservation = shard.cell.reserve(shard.local(uid))
            seconds += reservation.seconds
            self._log_decision(index, "reserve", uid,
                               shard.globalise(reservation.candidate),
                               reservation.result)
            reservations.append((shard, reservation))
            if not reservation.accepted:
                # Abort: phase 1 is pure, so the earlier shards need
                # no rollback.  Failed retry attempts leave no record,
                # matching the cells' own retry pass.
                if kind == "arrive":
                    self._snapshot(index, now, kind, uid, "reject",
                                   (), 0, seconds)
                return False
        # Phase 1b: every touched shard said yes, but each bounded the
        # job's end-to-end delay against its own members only.  Only
        # the whole-universe analysis sees the combined interference,
        # so commit requires its certificate too -- the one-bound
        # standing-order extension when it applies, else the full
        # Audsley search restricted to the job's resource component,
        # which is exact (jobs outside it share no resource with
        # anything inside).
        start = time.perf_counter()
        quick = self._quick_certify(uid)
        candidate: "tuple[int, ...]" = ()
        certificate = None
        if not quick:
            candidate = self._component_candidate((), extra=uid)
            outcome = self._certify(candidate)
            certificate = outcome.result
        seconds += time.perf_counter() - start
        if quick:
            self._log_decision(index, "certify-fast", uid, (), True)
        else:
            self._log_decision(index, "certify", uid, candidate,
                               certificate)
            if certificate is None:
                self._cross_certify_rejects += 1
                self._obs_certify_rejects.inc()
                core = self._core_of(candidate, outcome)
                if core is not None:
                    self._cross_failed[uid] = core
                if kind == "arrive":
                    self._snapshot(index, now, kind, uid, "reject",
                                   (), 0, seconds)
                return False
        flips = 0
        for shard, reservation in reservations:
            event = shard.cell.commit_reservation(reservation)
            flips += event.flips
            seconds += event.seconds
        self._admitted.add(uid)
        self._cross_failed.pop(uid, None)
        if not quick:
            self._order_merge(candidate, certificate)
        self._metrics.ever_admitted |= self._admitted
        self._metrics.rank_changes += flips
        self._snapshot(index, now, kind, uid, "accept", (), flips,
                       seconds)
        self._maybe_validate(index)
        return True

    def _on_arrival(self, index: int, now: float, uid: int) -> None:
        self._seen.add(uid)
        self._metrics.arrivals += 1
        if not self._routing.cross[uid]:
            home = self._shards[int(self._routing.home[uid])]
            self._local_arrival(index, now, uid, home)
            return
        if self._cross_arrival(index, now, uid):
            self._cross_accepts += 1
        else:
            self._cross_rejects += 1
            self._enqueue_cross(uid)

    # -- departures and retries ---------------------------------------

    def _on_departure(self, index: int, now: float, uid: int) -> None:
        if uid in self._admitted:
            self._admitted.discard(uid)
            self._order_remove(uid)
            seconds = 0.0
            for shard in self._touched(uid):
                event = shard.cell.departure(shard.local(uid))
                seconds += event.seconds
            self._snapshot(index, now, "depart", uid, "free", (), 0,
                           seconds)
            self._retry_pass(index, now, self._touched(uid))
            return
        if uid in self._cross_retry:
            self._cross_retry.remove(uid)
            self._cross_failed.pop(uid, None)
            self._metrics.expired += 1
            self._snapshot(index, now, "depart", uid, "expire", (),
                           0, 0.0)
            return
        decision = "noop"
        seconds = 0.0
        if not self._routing.cross[uid]:
            home = self._shards[int(self._routing.home[uid])]
            event = home.cell.departure(home.local(uid))
            decision = event.decision  # "expire" (parked) or "noop"
            seconds = event.seconds
            if decision == "expire":
                self._metrics.expired += 1
        self._snapshot(index, now, "depart", uid, decision, (), 0,
                       seconds)

    def _retry_pass(self, index: int, now: float,
                    touched: "list[_Shard]") -> None:
        """Re-admission after freed capacity: each touched cell's own
        FIFO pass first (ascending shard order), then the engine's
        cross-shard queue through fresh two-phase reservations."""
        for shard in touched:
            for event in shard.cell.retry_pass(now):
                uid = int(shard.members[event.uid])
                self._log_decision(index, "retry", uid,
                                   shard.globalise(event.candidate),
                                   event.result)
                if event.result is None:
                    continue
                self._admitted.add(uid)
                self._metrics.ever_admitted |= self._admitted
                self._metrics.rank_changes += event.flips
                self._metrics.retry_accepts += 1
                # A re-admitted local job is a new resident too: the
                # shard's visitors must survive the global re-check.
                revoked, reconfirm_seconds = \
                    self._reconfirm_after(shard, uid)
                if revoked:
                    self._metrics.evictions += len(revoked)
                self._snapshot(index, now, "retry", uid, "accept",
                               tuple(revoked), event.flips,
                               event.seconds + reconfirm_seconds)
                self._maybe_validate(index)
        for uid in list(self._cross_retry):
            if self._departure_of[uid] <= now:
                continue  # its own departure event expires it
            if self._cross_arrival(index, now, uid, kind="retry"):
                self._cross_retry.remove(uid)
                self._metrics.retry_accepts += 1
                self._cross_retry_accepts += 1

    # -- driver -------------------------------------------------------

    def _sharding_summary(self) -> dict:
        routing = self._routing
        per_shard = []
        for shard in self._shards:
            members = shard.members
            per_shard.append({
                "shard": shard.shard,
                "jobs": int(members.size),
                "local_jobs": (int(routing.local_jobs(
                    shard.shard).size) if routing else 0),
                "admitted": len(shard.cell.admitted),
                "decisions": shard.cell.decision_count,
            })
        return {
            "shards": self.num_shards,
            "cross_jobs": routing.num_cross if routing else 0,
            "cross_accepts": self._cross_accepts,
            "cross_rejects": self._cross_rejects,
            # Admission attempts (arrival *and* retry) rejected by the
            # whole-universe certificate after every per-shard
            # reservation had accepted -- the gap the certificate
            # exists to close.
            "cross_certify_rejects": self._cross_certify_rejects,
            "cross_retry_accepts": self._cross_retry_accepts,
            "revocations": self._revocations,
            "global_certifies": self._certify_count,
            # One-bound standing-order probes (pass or fail); a pass
            # replaces one full certificate above.
            "quick_certifies": self._quick_certifies,
            "per_shard": per_shard,
        }

    def process(self, now: float, kind: str,
                uid: int) -> "list[EventRecord]":
        """Feed one timestamped event and return its event records.

        The public single-event entry point (``repro.serve`` hosts
        engines behind a long-running service through it; :meth:`run`
        is exactly this in a loop, so a served event stream is bitwise
        identical to a batch replay of the same events in the same
        order).  ``kind`` is ``"arrive"`` or ``"depart"``; the caller
        owns chronological ordering and the depart-before-arrive tie
        rule (:func:`~repro.online.streams.stream_events`).  Returns
        the :class:`~repro.online.metrics.EventRecord` entries the
        event appended -- one for an arrival, one plus any retry
        re-admissions for a departure.

        Raises :class:`ValueError`, before any state changes, for an
        unknown ``kind``, a second arrival of ``uid``, or a departure of
        a ``uid`` that never arrived or has already departed.
        """
        if kind not in ("arrive", "depart"):
            raise ValueError(
                f"kind must be 'arrive' or 'depart', got {kind!r}")
        if kind == "arrive":
            if uid in self._seen:
                raise ValueError(f"uid {uid} has already arrived")
        elif uid not in self._seen:
            raise ValueError(f"uid {uid} departs before it arrived")
        elif uid in self._departed:
            raise ValueError(f"uid {uid} has already departed")
        before = len(self._metrics.records)
        index = self._event_index
        self._event_index += 1
        if kind == "arrive":
            self._on_arrival(index, now, uid)
        else:
            self._departed.add(uid)
            self._on_departure(index, now, uid)
        return self._metrics.records[before:]

    def result(self) -> OnlineRunResult:
        """The run outcome over everything processed so far."""
        config = self._stream.config
        summary = self._metrics.summary()
        summary["sharding"] = self._sharding_summary()
        return OnlineRunResult(
            seed=self._stream.seed,
            stream_kind=config.kind,
            policy=resolve_equation(self._policy),
            mode=self._mode,
            horizon=float(config.horizon),
            records=self._metrics.records,
            summary=summary,
            final_admitted=sorted(self._admitted),
            validation_failures=self._validation_failures,
            shards=self.num_shards,
            kernel=self._kernel)

    def run(self) -> OnlineRunResult:
        """Process every event chronologically and return the result."""
        for now, kind, uid in stream_events(self._stream):
            self.process(
                now, "arrive" if kind == EVENT_ARRIVE else "depart", uid)
        return self.result()


def sharded_acceptance_report(stream: OnlineStream, *,
                              shards: "int | ShardMap",
                              policy: "str | Policy" = Policy.PREEMPTIVE,
                              mode: str = "incremental",
                              retry_limit: int = 16,
                              kernel: str = "paired") -> dict:
    """Acceptance of the sharded engine vs the single-shard oracle.

    Runs the same stream through ``shards`` and one shard and reports
    their
    acceptance ratios plus the (signed) delta -- the cost of
    conservative cross-shard admission (no-eviction reservations plus
    the whole-universe certificate, where the oracle's full controller
    may evict to make room).  ``acceptance_delta`` is sharded minus
    oracle, so more negative means more conservatism; small positive
    deltas remain possible through path dependence (a job the oracle
    evicted early may depart before the sharded engine ever has to
    reject anything for it).
    """
    oracle = ShardedAdmissionEngine(
        stream, policy=policy, mode=mode, retry_limit=retry_limit,
        kernel=kernel).run()
    sharded = ShardedAdmissionEngine(
        stream, shards=shards, policy=policy, mode=mode,
        retry_limit=retry_limit, kernel=kernel).run()
    oracle_ratio = float(oracle.summary["acceptance_ratio"])
    sharded_ratio = float(sharded.summary["acceptance_ratio"])
    return {
        "shards": sharded.summary["sharding"]["shards"],
        "cross_jobs": sharded.summary["sharding"]["cross_jobs"],
        "oracle_acceptance": oracle_ratio,
        "sharded_acceptance": sharded_ratio,
        "acceptance_delta": sharded_ratio - oracle_ratio,
    }
