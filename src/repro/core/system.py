"""Multi-stage multi-resource (MSMR) system and job-set model.

An MSMR system (Section II of the paper) is a pipeline of ``N`` stages;
stage ``S_j`` offers ``c_j`` heterogeneous resources of one type.  Every
job visits the stages in order and uses exactly one resource per stage.

:class:`JobSet` binds a list of :class:`~repro.core.job.Job` objects to a
:class:`MSMRSystem` and precomputes, as numpy arrays, everything the
delay analysis needs repeatedly:

* ``P``        -- ``(n, N)`` processing times,
* ``A``/``D``  -- arrival times and deadlines,
* ``R``        -- ``(n, N)`` job-to-resource mapping,
* ``shares``   -- ``(n, n, N)`` boolean tensor, ``shares[i, k, j]`` true
  iff ``J_i`` and ``J_k`` are mapped to the same resource at ``S_j``,
* conflict sets ``M_{i,j}`` and ``M_i`` from the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.exceptions import ModelError
from repro.core.intervals import overlap_matrix
from repro.core.job import Job


@dataclass(frozen=True)
class Stage:
    """One pipeline stage: a pool of same-type resources.

    Parameters
    ----------
    num_resources:
        Number of resources available at this stage (``>= 1``).
    preemptive:
        Whether jobs may be preempted while executing on a resource of
        this stage.  The analysis equations are selected independently,
        but the simulator and the edge model honour this flag.
    name:
        Optional label (e.g. ``"uplink"``, ``"server"``).
    """

    num_resources: int
    preemptive: bool = True
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.num_resources < 1:
            raise ModelError(
                f"stage needs at least one resource, got {self.num_resources}")


class MSMRSystem:
    """A pipeline of :class:`Stage` objects."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        stages = tuple(stages)
        if not stages:
            raise ModelError("a system needs at least one stage")
        self._stages = stages

    @classmethod
    def uniform(cls, num_stages: int, resources_per_stage: int = 1, *,
                preemptive: bool = True) -> "MSMRSystem":
        """Build a system with the same resource count at every stage.

        ``resources_per_stage=1`` yields the multi-stage *single*-resource
        pipeline of the original DCA papers (Eqs. 1-2).
        """
        stage = Stage(num_resources=resources_per_stage, preemptive=preemptive)
        return cls([stage] * num_stages)

    @property
    def stages(self) -> tuple[Stage, ...]:
        return self._stages

    @property
    def num_stages(self) -> int:
        return len(self._stages)

    @property
    def resources_per_stage(self) -> tuple[int, ...]:
        return tuple(stage.num_resources for stage in self._stages)

    @property
    def preemptive_flags(self) -> tuple[bool, ...]:
        return tuple(stage.preemptive for stage in self._stages)

    def is_single_resource(self) -> bool:
        """True if every stage has exactly one resource."""
        return all(stage.num_resources == 1 for stage in self._stages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MSMRSystem):
            return NotImplemented
        return self._stages == other._stages

    def __hash__(self) -> int:
        return hash(self._stages)

    def __repr__(self) -> str:
        counts = "x".join(str(s.num_resources) for s in self._stages)
        return f"MSMRSystem(stages={self.num_stages}, resources={counts})"


class JobSet:
    """A set of jobs bound to an MSMR system.

    The constructor validates that every job traverses all stages of the
    system and that every resource index is within range, then caches the
    numpy views used throughout the analysis.  :meth:`from_arrays` builds
    the same set straight from those views, and :class:`Job` objects are
    then made only when :attr:`jobs`, iteration, indexing or
    :meth:`label` ask for them.
    """

    def __init__(self, system: MSMRSystem, jobs: Iterable[Job]) -> None:
        self._system = system
        self._jobs: "tuple[Job, ...] | None" = tuple(jobs)
        if not self._jobs:
            raise ModelError("a job set needs at least one job")
        n_stages = system.num_stages
        for idx, job in enumerate(self._jobs):
            if job.num_stages != n_stages:
                raise ModelError(
                    f"job {job.label(idx)} has {job.num_stages} stages, "
                    f"system has {n_stages}")
            for j, resource in enumerate(job.resources):
                if resource >= system.stages[j].num_resources:
                    raise ModelError(
                        f"job {job.label(idx)} uses resource {resource} at "
                        f"stage {j}, but the stage only has "
                        f"{system.stages[j].num_resources}")
        jobs = self._jobs
        self._set_arrays(
            np.array([job.processing for job in jobs], dtype=float),
            np.array([job.arrival for job in jobs], dtype=float),
            np.array([job.deadline for job in jobs], dtype=float),
            np.array([job.resources for job in jobs], dtype=np.int64),
            _names_array([job.name for job in jobs]))

    @classmethod
    def from_arrays(cls, system: MSMRSystem, P, D, R, A=None,
                    names: "Sequence[str | None] | None" = None
                    ) -> "JobSet":
        """Build a job set from ``(n, N)`` processing times ``P``,
        deadlines ``D``, the ``(n, N)`` mapping ``R``, arrivals ``A``
        (default 0) and optional job ``names``.

        It rejects exactly what building one :class:`Job` per row and
        then :class:`JobSet` would, with the same message, and the
        result equals that set field for field.  No :class:`Job` is
        made until one is asked for.
        """
        P = np.array(P, dtype=float)
        D = np.array(D, dtype=float)
        R = np.array(R, dtype=np.int64)
        n = D.shape[0] if D.ndim == 1 else -1
        A = np.zeros(max(n, 0)) if A is None else np.array(A, dtype=float)
        if P.ndim != 2 or R.ndim != 2 or D.ndim != 1 or A.ndim != 1 or \
                not P.shape[0] == R.shape[0] == n == A.shape[0]:
            raise ModelError(
                f"from_arrays needs P (n, N), D (n,), R (n, N) and "
                f"A (n,), got shapes {P.shape}, {D.shape}, {R.shape} and "
                f"{A.shape}")
        if names is not None:
            names = list(names)
            if len(names) != n:
                raise ModelError(
                    f"from_arrays got {len(names)} names for {n} jobs")
        _check_job_rows(P, D, R)
        if n == 0:
            raise ModelError("a job set needs at least one job")
        counts = np.asarray(system.resources_per_stage, dtype=np.int64)
        if P.shape[1] != counts.size:
            raise ModelError(
                f"job {_label(names, 0)} has {P.shape[1]} stages, "
                f"system has {counts.size}")
        over = R >= counts
        if over.any():
            idx, j = divmod(int(np.argmax(over)), counts.size)
            raise ModelError(
                f"job {_label(names, idx)} uses resource {int(R[idx, j])} "
                f"at stage {j}, but the stage only has {int(counts[j])}")
        jobset = object.__new__(cls)
        jobset._system = system
        jobset._jobs = None
        jobset._set_arrays(P, A, D, R,
                           None if names is None else _names_array(names))
        return jobset

    def _set_arrays(self, P: np.ndarray, A: np.ndarray, D: np.ndarray,
                    R: np.ndarray, names: "np.ndarray | None") -> None:
        self.P = P
        self.A = A
        self.D = D
        self.R = R
        #: Job names as an object array, or ``None`` when no job has one.
        self._names = names
        # The O(n^2) pairwise tensors are materialised on first access:
        # the online engine's per-event subsets slice their segment
        # caches from the universe and often never touch them.
        self._shares: np.ndarray | None = None
        self._overlaps: np.ndarray | None = None
        self._conflicts: np.ndarray | None = None

    @property
    def shares(self) -> np.ndarray:
        """``(n, n, N)`` bool: ``shares[i, k, j]`` true iff ``J_i`` and
        ``J_k`` are mapped to the same resource at ``S_j`` (computed
        lazily, cached)."""
        if self._shares is None:
            self._shares = self.R[:, None, :] == self.R[None, :, :]
        return self._shares

    @property
    def overlaps(self) -> np.ndarray:
        """``(n, n)`` bool: interference windows ``[A, A + D]``
        intersect (closed intervals; touching windows are
        conservatively kept).  Computed lazily, cached."""
        if self._overlaps is None:
            self._overlaps = overlap_matrix(self.A, self.D)
        return self._overlaps

    @property
    def conflicts(self) -> np.ndarray:
        """``(n, n)`` bool: the pair shares at least one stage resource
        (self pairs excluded).  The conflict graph every pairwise
        solver branches over; computed lazily, cached, and shared so
        DMR, the CP search, the ILP builder and the heuristics stop
        re-reducing the ``(n, n, N)`` shares tensor each."""
        if self._conflicts is None:
            n = self.num_jobs
            self._conflicts = self.shares.any(axis=2) & \
                ~np.eye(n, dtype=bool)
        return self._conflicts

    @property
    def system(self) -> MSMRSystem:
        return self._system

    @property
    def jobs(self) -> tuple[Job, ...]:
        """The jobs, made from the arrays on first access if the set
        was built by :meth:`from_arrays` or :meth:`restrict`."""
        if self._jobs is None:
            names = ([None] * self.num_jobs if self._names is None
                     else self._names.tolist())
            self._jobs = tuple(
                Job(processing=tuple(p), deadline=d, arrival=a,
                    resources=tuple(r), name=name)
                for p, d, a, r, name in zip(
                    self.P.tolist(), self.D.tolist(), self.A.tolist(),
                    self.R.tolist(), names))
        return self._jobs

    @property
    def num_jobs(self) -> int:
        return self.D.shape[0]

    @property
    def num_stages(self) -> int:
        return self._system.num_stages

    def __len__(self) -> int:
        return self.D.shape[0]

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> Job:
        return self.jobs[index]

    def label(self, index: int) -> str:
        """Human-readable label of job ``index``."""
        return self.jobs[index].label(index)

    # ------------------------------------------------------------------
    # Conflict sets (Section II: M_{i,j} and M_i)
    # ------------------------------------------------------------------

    def competitors_at_stage(self, i: int, stage: int) -> list[int]:
        """``M_{i,j}``: jobs mapped to the same resource as ``J_i`` at
        ``stage`` (excluding ``J_i`` itself)."""
        mask = self.shares[i, :, stage].copy()
        mask[i] = False
        return [int(k) for k in np.flatnonzero(mask)]

    def competitors(self, i: int) -> list[int]:
        """``M_i``: jobs sharing at least one resource with ``J_i``."""
        mask = self.shares[i].any(axis=1)
        mask[i] = False
        return [int(k) for k in np.flatnonzero(mask)]

    def conflict_pairs(self) -> list[tuple[int, int]]:
        """All unordered pairs ``(i, k)``, ``i < k``, sharing a resource."""
        any_shared = self.shares.any(axis=2)
        pairs = []
        n = self.num_jobs
        for i in range(n):
            for k in range(i + 1, n):
                if any_shared[i, k]:
                    pairs.append((i, k))
        return pairs

    def jobs_on_resource(self, stage: int, resource: int) -> list[int]:
        """Indices of jobs mapped to ``resource`` at ``stage``."""
        return [int(k) for k in np.flatnonzero(self.R[:, stage] == resource)]

    # ------------------------------------------------------------------
    # Subset views (online admission / incremental analysis)
    # ------------------------------------------------------------------

    def restrict(self, indices: "Sequence[int] | np.ndarray") -> "JobSet":
        """Job set over ``jobs[indices]``, built by *slicing*.

        The subset is bitwise identical to
        ``JobSet(self.system, [self.jobs[i] for i in indices])`` -- the
        per-pair ``shares`` tensor and the ``overlaps`` matrix are pure
        elementwise comparisons, so slicing them equals recomputing
        them -- but skips the per-job validation loop and the
        ``O(k^2 N)`` comparison kernels entirely.  This is the job-set
        half of the incremental fast path used by
        :mod:`repro.online.incremental` (the other half is
        :meth:`repro.core.segments.SegmentCache.restrict`).

        ``indices`` must be distinct, in-range job indices; their order
        becomes the subset's job order.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ModelError(
                f"restrict needs a non-empty 1-d index collection, "
                f"got shape {idx.shape}")
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise ModelError("restrict indices must be distinct")
        if (idx < 0).any() or (idx >= self.num_jobs).any():
            raise ModelError(
                f"restrict indices out of range for {self.num_jobs} jobs")
        subset = object.__new__(JobSet)
        subset._system = self._system
        # Jobs are remade from the sliced arrays only if asked for.
        subset._jobs = None
        # The pairwise tensors are elementwise comparisons, so slicing
        # the parent's equals recomputing them from the sliced R/A/D.
        # ``overlaps`` is sliced when the parent already holds it; the
        # rest are recomputed lazily on first access.
        subset._set_arrays(
            self.P[idx], self.A[idx], self.D[idx], self.R[idx],
            None if self._names is None else self._names[idx])
        if self._overlaps is not None:
            subset._overlaps = self._overlaps.take(idx, 0).take(idx, 1)
        return subset

    def partition(self, assignment: "Sequence[int] | np.ndarray",
                  num_shards: "int | None" = None
                  ) -> "list[tuple[np.ndarray, JobSet | None]]":
        """Split the job set into disjoint per-shard subsets.

        ``assignment[i]`` names the shard of job ``i`` (ids ``0 ..
        num_shards - 1``).  Returns one ``(indices, subset)`` pair per
        shard, in shard order: ``indices`` are the ascending job
        indices assigned to the shard and ``subset`` is
        ``self.restrict(indices)`` -- built by slicing, so the pairs
        stand up in O(shard size) gathers -- or ``None`` for a shard
        that owns no job.  Every job lands in exactly one subset, so
        the subsets are disjoint and jointly cover the set.

        This is the job-set half of the shard layer
        (:mod:`repro.online.sharded`); the segment-algebra half is
        :meth:`repro.core.segments.SegmentCache.partition`.
        """
        shard_of = np.asarray(assignment, dtype=np.int64)
        if shard_of.shape != (self.num_jobs,):
            raise ModelError(
                f"partition needs one shard id per job "
                f"({self.num_jobs}), got shape {shard_of.shape}")
        if (shard_of < 0).any():
            raise ModelError("shard ids must be non-negative")
        highest = int(shard_of.max())
        if num_shards is None:
            num_shards = highest + 1
        elif highest >= num_shards:
            raise ModelError(
                f"assignment names shard {highest}, but only "
                f"{num_shards} shards exist")
        parts: "list[tuple[np.ndarray, JobSet | None]]" = []
        for shard in range(num_shards):
            indices = np.flatnonzero(shard_of == shard)
            parts.append((indices,
                          self.restrict(indices) if indices.size
                          else None))
        return parts

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def single_resource(cls, processing: Sequence[Sequence[float]],
                        deadlines: Sequence[float],
                        arrivals: Sequence[float] | None = None, *,
                        preemptive: bool = True) -> "JobSet":
        """Build a multi-stage *single*-resource job set from raw arrays.

        This is the setting of Eqs. 1-2 (and of the paper's Example 1):
        every job competes with every other job at every stage.
        """
        if not processing:
            raise ModelError("need at least one job")
        num_stages = len(processing[0])
        system = MSMRSystem.uniform(num_stages, 1, preemptive=preemptive)
        if arrivals is None:
            arrivals = [0.0] * len(processing)
        jobs = [
            Job(processing=tuple(p), deadline=d, arrival=a,
                resources=(0,) * num_stages)
            for p, d, a in zip(processing, deadlines, arrivals, strict=True)
        ]
        return cls(system, jobs)

    def __repr__(self) -> str:
        return (f"JobSet(n={self.num_jobs}, stages={self.num_stages}, "
                f"system={self._system!r})")


def _names_array(names: "list[str | None]") -> "np.ndarray | None":
    """Job names as a 1-d object array, or ``None`` if all are unset."""
    if all(name is None for name in names):
        return None
    array = np.empty(len(names), dtype=object)
    array[:] = names
    return array


def _label(names: "list[str | None] | None", index: int) -> str:
    """:meth:`Job.label` of row ``index`` without making the job."""
    name = None if names is None else names[index]
    return f"J{index}" if name is None else name


def _check_job_rows(P: np.ndarray, D: np.ndarray, R: np.ndarray) -> None:
    """Raise the :class:`ModelError` that ``Job.__post_init__`` raises
    for the first invalid row, checks in its order."""
    if P.shape[0] == 0:
        return
    if P.shape[1] == 0:
        raise ModelError("a job needs at least one stage")
    if R.shape[1] != P.shape[1]:
        raise ModelError(
            f"job has {P.shape[1]} processing times but "
            f"{R.shape[1]} resource mappings")
    checks = ((P < 0).any(axis=1), (P == 0).all(axis=1), D <= 0,
              (R < 0).any(axis=1))
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    processing = tuple(P[i].tolist())
    if checks[0][i]:
        raise ModelError(f"negative processing time in {processing}")
    if checks[1][i]:
        raise ModelError("all stage processing times are zero")
    if checks[2][i]:
        raise ModelError(f"deadline must be positive, got {float(D[i])}")
    raise ModelError(f"negative resource index in {tuple(R[i].tolist())}")
