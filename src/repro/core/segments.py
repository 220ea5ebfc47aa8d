"""Segment algebra for job pairs in an MSMR pipeline.

Section II of the paper defines, for a job pair ``<J_i, J_k>``:

* a *segment*: a maximal run of consecutive stages at which the two jobs
  are mapped to the same resources;
* ``m_{i,k}``: the number of segments of the pair;
* ``u_{i,k}`` / ``v_{i,k}``: the number of segments spanning exactly one
  stage / two-or-more stages;
* ``w_{i,k} = u_{i,k} + 2 v_{i,k}``: the maximum number of job-additive
  stage-processing terms ``J_k`` can contribute to the delay of ``J_i``
  (one term for a single-stage segment, two for a longer one), with
  ``w_{i,i} = 1`` by convention;
* ``ep_{k,j}``: ``P_{k,j}`` if the pair shares stage ``S_j``, else 0
  (always relative to the job ``J_i`` under analysis);
* ``et_{k,x}``: the x-th largest ``ep_{k,j}`` over the stages.

:class:`SegmentCache` materialises all of these, for every ordered pair,
as numpy arrays so that the delay bounds in :mod:`repro.core.dca` reduce
to masked sums and maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.system import JobSet


def segments_of(shared: Sequence[bool]) -> list[tuple[int, int]]:
    """Decompose a boolean shared-stage vector into segments.

    Returns a list of ``(start, length)`` tuples, one per maximal run of
    consecutive ``True`` entries.

    >>> segments_of([True, False, True, True])
    [(0, 1), (2, 2)]
    """
    segments = []
    start = None
    for j, flag in enumerate(shared):
        if flag and start is None:
            start = j
        elif not flag and start is not None:
            segments.append((start, j - start))
            start = None
    if start is not None:
        segments.append((start, len(shared) - start))
    return segments


@dataclass(frozen=True)
class PairSegments:
    """Segment profile of one ordered job pair ``<J_i, J_k>``.

    Attributes mirror the paper's notation; see the module docstring.
    """

    segments: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        """Number of segments (``m_{i,k}``)."""
        return len(self.segments)

    @property
    def u(self) -> int:
        """Number of single-stage segments (``u_{i,k}``)."""
        return sum(1 for _, length in self.segments if length == 1)

    @property
    def v(self) -> int:
        """Number of segments spanning two or more stages (``v_{i,k}``)."""
        return sum(1 for _, length in self.segments if length >= 2)

    @property
    def w(self) -> int:
        """Maximum job-additive terms: ``w_{i,k} = u_{i,k} + 2 v_{i,k}``."""
        return self.u + 2 * self.v

    @property
    def shared_stages(self) -> tuple[int, ...]:
        """All stage indices covered by some segment."""
        stages: list[int] = []
        for start, length in self.segments:
            stages.extend(range(start, start + length))
        return tuple(stages)


def pair_segments(jobset: JobSet, i: int, k: int) -> PairSegments:
    """Segment profile of the pair ``<J_i, J_k>`` in ``jobset``."""
    shared = jobset.shares[i, k, :]
    return PairSegments(segments=tuple(segments_of(shared.tolist())))


class SegmentCache:
    """Precomputed pair-wise segment quantities for a whole job set.

    Arrays (``n`` jobs, ``N`` stages; first index is always the job under
    analysis ``J_i``, second the interfering job ``J_k``):

    ``ep``
        ``(n, n, N)`` -- ``ep_{k,j}`` relative to ``J_i``.
    ``et_sorted`` / ``et_cumsum``
        ``(n, n, N)`` -- ``ep`` sorted descending along stages, and its
        running sum (so the sum of the ``w`` largest terms is
        ``et_cumsum[i, k, w - 1]``).
    ``et1`` / ``et2``
        ``(n, n)`` -- largest and second-largest shared-stage times.
    ``m`` / ``u`` / ``v`` / ``w``
        ``(n, n)`` integer matrices of segment counts.  The diagonal holds
        the *raw* self profile (a job trivially shares every stage with
        itself, one segment of ``N`` stages); the refined convention
        ``w_{i,i} = 1`` is applied where the bounds are assembled.
    ``W``
        ``(n, n)`` -- job-additive weight of ``J_k`` on ``J_i`` under the
        refined preemptive bound (Eq. 6): the sum of the ``w_{i,k}``
        largest ``et`` terms, with the diagonal overridden to
        ``t_{i,1}`` (i.e. ``w_{i,i} = 1``).
    ``t_sorted`` / ``t1`` / ``t2``
        Global (mapping-independent) sorted stage times per job and the
        shorthands ``t_{k,1}``, ``t_{k,2}`` used by Eqs. 1-2.

    Lazy contribution tensors (the pairwise-contribution kernel cache;
    materialised on first access and sliced, never recomputed, by
    :meth:`restrict`), each ``(N, n, n)`` and C-contiguous, so one
    *stage plane* ``epq_s[j]`` is a single contiguous ``(n, n)`` read:

    ``epq_s``
        ``ep`` pre-masked by the priority-independent interference
        filter ``Q``-style: entry ``[j, i, k]`` is ``ep_{k,j}`` when
        ``J_k`` window-overlaps ``J_i`` (or ``k == i``), else 0.  The
        per-level stage-additive term of any bound is then one
        column-masked row-max per stage plane -- no per-level
        ``(n, n)`` relation mask ever has to be rebuilt.
    ``epb_s``
        Same, without the self diagonal: the candidate matrix of the
        non-preemptive blocking terms (Eqs. 2/4/5/10).
    ``pq_s`` / ``pb_s``
        Raw-``P`` counterparts used by the single-resource bounds
        (Eqs. 1-2): ``pq_s[j, i, k] = P[k, j]`` when ``J_k`` overlaps
        ``J_i`` or ``k == i``, else 0.

    The paired level kernel walks stages in its outer loop; a
    job-major ``(n, n, N)`` layout would stride each stage slice by
    ``N`` and pull the whole tensor through cache once per stage,
    which is what made the paired kernel *lose* to the reference path
    at large ``n``.
    """

    def __init__(self, jobset: JobSet) -> None:
        self._jobset = jobset
        shares = jobset.shares
        n, num_stages = jobset.num_jobs, jobset.num_stages

        self.ep = np.where(shares, jobset.P[None, :, :], 0.0)
        self.et_sorted = _sort_descending(self.ep)
        self.et_cumsum = np.empty_like(self.et_sorted)
        running = self.et_sorted[..., 0]
        self.et_cumsum[..., 0] = running
        for j in range(1, num_stages):
            running = running + self.et_sorted[..., j]
            self.et_cumsum[..., j] = running
        self.et1 = self.et_sorted[:, :, 0]
        self.et2 = (self.et_sorted[:, :, 1]
                    if num_stages >= 2 else np.zeros((n, n)))

        self.m, self.u, self.v = self._segment_counts(shares)
        self.w = self.u + 2 * self.v

        self.t_sorted = _sort_descending(jobset.P)
        self.t1 = self.t_sorted[:, 0]
        self.t2 = (self.t_sorted[:, 1]
                   if num_stages >= 2 else np.zeros(n))

        self.W = self._job_additive_weights()

    @staticmethod
    def _segment_counts(
            shares: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Count segments per pair by scanning stages once.

        Returns ``(m, u, v)`` integer matrices.
        """
        n, _, num_stages = shares.shape
        m = np.zeros((n, n), dtype=np.int64)
        u = np.zeros((n, n), dtype=np.int64)
        v = np.zeros((n, n), dtype=np.int64)
        run = np.zeros((n, n), dtype=np.int64)
        for j in range(num_stages):
            shared_j = shares[:, :, j]
            run = (run + 1) * shared_j
            if j + 1 < num_stages:
                closing = shared_j & ~shares[:, :, j + 1]
            else:
                closing = shared_j
            m += closing
            u += closing & (run == 1)
            v += closing & (run >= 2)
        return m, u, v

    def _job_additive_weights(self) -> np.ndarray:
        """Sum of the ``w_{i,k}`` largest ``et`` terms (Eq. 6 weights)."""
        n = self._jobset.num_jobs
        num_stages = self._jobset.num_stages
        # w <= N always (u single stages + 2v with each long segment
        # covering >= 2 stages), so w - 1 indexes et_cumsum safely.
        w_clipped = np.minimum(self.w, num_stages)
        weights = np.zeros((n, n))
        positive = w_clipped > 0
        idx_i, idx_k = np.nonzero(positive)
        weights[idx_i, idx_k] = self.et_cumsum[
            idx_i, idx_k, w_clipped[idx_i, idx_k] - 1]
        # Refined self convention: w_{i,i} = 1  =>  W[i, i] = t_{i,1}.
        weights[np.arange(n), np.arange(n)] = self.t1
        return weights

    @property
    def jobset(self) -> JobSet:
        return self._jobset

    # -- lazy contribution tensors (pairwise-contribution kernel) ------

    def __getattr__(self, name: str):
        # Only called for attributes not yet materialised.
        if name in _STAGE_MAJOR_FIELDS:
            value = self._build_contribution(name[:-2])
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def _build_contribution(self, name: str) -> np.ndarray:
        """Materialise one premasked ``(N, n, n)`` contribution tensor
        in one pass straight from ``ep`` (or ``P``).

        ``q``-variants include the self diagonal (``J_i`` is always in
        its own ``Q_i``); ``b``-variants exclude it (a job never blocks
        itself).  Both bake in the window-overlap filter, which is why
        the paired kernels of :class:`~repro.core.dca.DelayAnalyzer`
        only engage when ``window_filter`` is on (the default).  Each
        entry is a kept source value or ``0.0``.
        """
        jobset = self._jobset
        n, num_stages = jobset.num_jobs, jobset.num_stages
        eye = np.eye(n, dtype=bool)
        keep = jobset.overlaps & ~eye
        if name in ("epq", "pq"):
            keep |= eye
        if name in ("epq", "epb"):
            source = self.ep
        else:
            source = np.broadcast_to(jobset.P[None, :, :],
                                     (n, n, num_stages))
        out = np.zeros((num_stages, n, n))
        np.copyto(out, source.transpose(2, 0, 1), where=keep[None])
        return out

    def restrict(self, subset: JobSet,
                 indices: "Sequence[int] | np.ndarray") -> "SegmentCache":
        """Cache for ``subset``, built by *slicing* this cache.

        ``subset`` must be ``self.jobset.restrict(indices)`` (or an
        equivalent job set over the same jobs in the same order).
        Every cached array is a per-pair or per-job quantity, so the
        sliced cache is bitwise identical to
        ``SegmentCache(subset)`` -- the stage-sorting, cumulative-sum
        and segment-count kernels are simply never re-run.  Slices are
        materialised lazily, per field, on first access: a given bound
        only touches a few of the arrays (Eq. 6 reads ``W``/``ep``
        only), and the online engine builds one sliced cache per
        event.  This is the segment-algebra half of the incremental
        fast path of :mod:`repro.online.incremental`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size != subset.num_jobs:
            raise ValueError(
                f"{idx.size} indices for a {subset.num_jobs}-job subset")
        return _SlicedSegmentCache(self, subset, idx)

    def partition(self, parts) -> "list[SegmentCache | None]":
        """Sliced caches for the subsets of
        :meth:`repro.core.system.JobSet.partition` (``None`` for empty
        shards).  Each entry is a lazy :meth:`restrict` view, so a
        shard's cache costs nothing until its analyses first touch a
        field -- the segment algebra is never re-run per shard.
        """
        return [self.restrict(subset, indices)
                if subset is not None else None
                for indices, subset in parts]

    def top_et_sum(self, i: int, k: int, count: int) -> float:
        """Sum of the ``count`` largest shared-stage times of ``J_k``
        relative to ``J_i`` (0 for ``count == 0``)."""
        if count <= 0:
            return 0.0
        count = min(count, self._jobset.num_stages)
        return float(self.et_cumsum[i, k, count - 1])


def _sort_descending(values: np.ndarray) -> np.ndarray:
    """``values`` sorted descending along its last (stage) axis.

    An insertion network of ``np.maximum``/``np.minimum``
    compare-exchanges over the ``N`` stage planes: a stage axis is a
    handful of entries long, where ``np.sort`` pays its per-row set-up
    once per pair.  Each output entry is one of its row's inputs, so
    the result is bitwise ``-np.sort(-values, axis=-1)`` for the
    non-negative, non-NaN stage times a job set holds.
    """
    planes = [values[..., j] for j in range(values.shape[-1])]
    for k in range(1, len(planes)):
        for j in range(k, 0, -1):
            high, low = planes[j - 1], planes[j]
            planes[j - 1] = np.maximum(high, low)
            planes[j] = np.minimum(high, low)
    out = np.empty(values.shape)
    for j, plane in enumerate(planes):
        out[..., j] = plane
    return out


#: Fields of the cache whose leading *two* axes index (job, job).
_PAIR_FIELDS = ("ep", "et_sorted", "et_cumsum", "et1", "et2",
                "m", "u", "v", "w", "W")

#: Premasked stage-major ``(N, n, n)`` contribution tensors, built on
#: first access.  Window overlap is a pure pair predicate, so a slice
#: of a parent tensor is bitwise identical to the subset's own; their
#: (job, job) axes are the trailing two, so a sliced cache gathers
#: them from the parent's along axes 1 and 2.
_STAGE_MAJOR_FIELDS = ("epq_s", "epb_s", "pq_s", "pb_s")

#: Fields indexed by a single job axis.
_JOB_FIELDS = ("t_sorted", "t1", "t2")


class _SlicedSegmentCache(SegmentCache):
    """Lazy subset view over a parent :class:`SegmentCache`.

    Field slices are materialised (and cached on the instance) the
    first time they are read, so standing one up costs a few
    microseconds and only the arrays the selected bound actually
    touches are ever copied.  Values are bitwise identical to a cold
    ``SegmentCache`` of the subset job set.
    """

    def __init__(self, parent: SegmentCache, subset: JobSet,
                 idx: np.ndarray) -> None:
        self._jobset = subset
        self._parent = parent
        self._idx = idx

    def __getattr__(self, name: str):
        # Only called for attributes not yet materialised.  ``take``
        # returns C-contiguous gathers, so a stage plane of a sliced
        # tensor is one contiguous read, as on an unsliced cache.
        idx = self._idx
        if name in _PAIR_FIELDS:
            value = getattr(self._parent, name).take(idx, 0).take(idx, 1)
        elif name in _STAGE_MAJOR_FIELDS:
            value = getattr(self._parent, name).take(idx, 1).take(idx, 2)
        elif name in _JOB_FIELDS:
            value = getattr(self._parent, name).take(idx, 0)
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value
