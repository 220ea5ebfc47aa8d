"""Tests for the resource-cluster partition layer (ShardMap/Routing,
JobSet.partition, SegmentCache.partition)."""

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.core.partition import (
    ShardMap,
    partition_assignment,
    separable,
)
from repro.core.segments import (
    _JOB_FIELDS,
    _PAIR_FIELDS,
    _STAGE_MAJOR_FIELDS,
    SegmentCache,
)
from repro.core.system import JobSet
from repro.workload.random_jobs import RandomInstanceConfig, random_jobset

#: Every array field of a segment cache, the lazy stage-major
#: contribution tensors included.
CACHE_FIELDS = _PAIR_FIELDS + _STAGE_MAJOR_FIELDS + _JOB_FIELDS


def assert_cache_bitwise(warm: SegmentCache, cold: SegmentCache) -> None:
    """Every field of ``warm`` holds exactly ``cold``'s bytes (so
    ``-0.0`` and ``nan`` payloads count), and every stage-major twin
    is C-contiguous."""
    for name in CACHE_FIELDS:
        a, b = getattr(warm, name), getattr(cold, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    for name in _STAGE_MAJOR_FIELDS:
        assert getattr(warm, name).flags.c_contiguous, name
        assert getattr(cold, name).flags.c_contiguous, name


def warm_twins(cache: SegmentCache) -> None:
    """Materialise every stage-major twin of ``cache``."""
    for name in _STAGE_MAJOR_FIELDS:
        getattr(cache, name)


def _jobset(n=12, *, resources=4, seed=0):
    return random_jobset(
        RandomInstanceConfig(num_jobs=n, num_stages=3,
                             resources_per_stage=resources),
        seed=seed)


class TestShardMap:
    def test_blocked_assignment_covers_contiguous_blocks(self):
        jobset = _jobset(resources=4)
        shard_map = ShardMap.blocked(jobset.system, 2)
        assert shard_map.num_shards == 2
        for row in shard_map.assignment:
            assert list(row) == sorted(row)  # contiguous blocks
            assert set(row) == {0, 1}

    def test_blocked_needs_enough_resources(self):
        jobset = _jobset(resources=2)
        with pytest.raises(ModelError):
            ShardMap.blocked(jobset.system, 3)
        with pytest.raises(ModelError):
            ShardMap.blocked(jobset.system, 0)

    def test_explicit_assignment_validation(self):
        jobset = _jobset(resources=4)
        stages = jobset.system.num_stages
        with pytest.raises(ModelError):  # wrong stage count
            ShardMap(jobset.system, [[0] * 4] * (stages + 1))
        with pytest.raises(ModelError):  # wrong resource count
            ShardMap(jobset.system, [[0, 1]] * stages)
        with pytest.raises(ModelError):  # negative shard id
            ShardMap(jobset.system, [[0, 0, -1, 0]] * stages)
        with pytest.raises(ModelError):  # shard 1 owns nothing
            ShardMap(jobset.system, [[0, 0, 2, 2]] * stages)

    def test_shards_of_and_home_of(self):
        jobset = _jobset(resources=4)
        shard_map = ShardMap.blocked(jobset.system, 2)
        stages = jobset.system.num_stages
        local = [0] * stages   # all resources in shard 0's block
        assert shard_map.shards_of(local) == (0,)
        assert shard_map.home_of(local) == 0
        cross = [0] + [3] * (stages - 1)  # one stage in each block
        assert shard_map.shards_of(cross) == (0, 1)
        assert shard_map.home_of(cross) == 1  # majority of stages
        with pytest.raises(ModelError):
            shard_map.shards_of([0] * (stages + 1))

    def test_home_ties_break_to_smallest_shard(self):
        jobset = random_jobset(
            RandomInstanceConfig(num_jobs=4, num_stages=2,
                                 resources_per_stage=4), seed=0)
        shard_map = ShardMap.blocked(jobset.system, 2)
        assert shard_map.home_of([0, 3]) == 0  # 1 stage each -> min id

    def test_route_flags_cross_shard_jobs(self):
        jobset = _jobset(n=20, resources=4, seed=3)
        shard_map = ShardMap.blocked(jobset.system, 2)
        routing = shard_map.route(jobset)
        assert routing.num_jobs == jobset.num_jobs
        for i in range(jobset.num_jobs):
            touched = shard_map.shards_of(jobset.R[i])
            assert routing.touched[i] == touched
            assert routing.cross[i] == (len(touched) > 1)
            assert routing.home[i] in touched
        # members = locals homed there + cross visitors
        for shard in range(2):
            members = set(routing.members(shard).tolist())
            locals_ = set(routing.local_jobs(shard).tolist())
            assert locals_ <= members
            for i in locals_:
                assert not routing.cross[i]

    def test_separable_predicate(self):
        jobset = _jobset(n=20, resources=4, seed=3)
        routing = ShardMap.blocked(jobset.system, 2).route(jobset)
        local = [int(i) for i in np.flatnonzero(~routing.cross)]
        assert separable(routing, local)
        assert separable(routing) == (routing.num_cross == 0)


class TestJobSetPartition:
    def test_partition_is_disjoint_and_exhaustive(self):
        jobset = _jobset(n=15, resources=4, seed=1)
        routing = ShardMap.blocked(jobset.system, 2).route(jobset)
        parts = jobset.partition(partition_assignment(routing))
        seen = []
        for indices, sub in parts:
            seen.extend(indices.tolist())
            if sub is not None:
                assert sub.num_jobs == len(indices)
        assert sorted(seen) == list(range(jobset.num_jobs))

    def test_partitioned_subsets_match_restrict(self):
        jobset = _jobset(n=10, resources=4, seed=2)
        assignment = np.array([i % 2 for i in range(10)])
        parts = jobset.partition(assignment)
        for indices, sub in parts:
            expected = jobset.restrict([int(i) for i in indices])
            assert np.array_equal(sub.P, expected.P)
            assert np.array_equal(sub.R, expected.R)
            assert np.array_equal(sub.D, expected.D)

    def test_empty_shard_yields_none(self):
        jobset = _jobset(n=4, resources=4)
        parts = jobset.partition(np.zeros(4, dtype=int), num_shards=2)
        assert parts[1][1] is None
        assert parts[1][0].size == 0

    def test_partition_validation(self):
        jobset = _jobset(n=4, resources=4)
        with pytest.raises(ModelError):
            jobset.partition(np.zeros(3, dtype=int))  # wrong length
        with pytest.raises(ModelError):
            jobset.partition(np.array([0, 0, 0, -1]))
        with pytest.raises(ModelError):
            jobset.partition(np.array([0, 1, 2, 0]), num_shards=2)


class TestSegmentCachePartition:
    def test_sliced_caches_match_recomputed(self):
        jobset = _jobset(n=12, resources=4, seed=4)
        assignment = np.array([i % 3 for i in range(12)])
        parts = jobset.partition(assignment, num_shards=3)
        for parent_twins in (False, True):
            cache = SegmentCache(jobset)
            if parent_twins:
                warm_twins(cache)
            for (indices, sub), sliced in zip(parts,
                                              cache.partition(parts)):
                if sub is None:
                    assert sliced is None
                    continue
                assert_cache_bitwise(sliced, SegmentCache(sub))

    @pytest.mark.parametrize("parent_twins", (False, True))
    def test_subsets_of_shards_match_recomputed(self, parent_twins):
        """Universe -> shard -> subset: a twice-sliced cache gathers
        its twins from the shard's, which gathers from the
        universe's."""
        jobset = _jobset(n=16, resources=4, seed=6)
        cache = SegmentCache(jobset)
        if parent_twins:
            warm_twins(cache)
        parts = jobset.partition(np.arange(16) % 2, num_shards=2)
        for (indices, shard), shard_cache in zip(parts,
                                                 cache.partition(parts)):
            if parent_twins:
                warm_twins(shard_cache)
            local = np.array([0, 2, 3, 6])
            subset = shard.restrict(local)
            sliced = shard_cache.restrict(subset, local)
            cold = SegmentCache(JobSet(
                jobset.system, [jobset.jobs[int(i)]
                                for i in indices[local]]))
            assert_cache_bitwise(sliced, cold)
            assert_cache_bitwise(shard_cache, SegmentCache(shard))

    def test_unsliced_twins_are_transposed_job_major(self):
        """Twins are built natively from ``ep``/``P``, not by
        transposing: they must still be the transposes of the
        job-major premasked tensors, byte for byte."""
        jobset = _jobset(n=10, resources=2, seed=8)
        cache = SegmentCache(jobset)
        n, num_stages = jobset.num_jobs, jobset.num_stages
        eye = np.eye(n, dtype=bool)
        for name in _STAGE_MAJOR_FIELDS:
            twin = getattr(cache, name)
            # Job-major reference: epq/pq keep the self diagonal,
            # epb/pb drop it; ep* mask ep, p* mask the raw P.
            keep = jobset.overlaps & ~eye
            if name in ("epq_s", "pq_s"):
                keep |= eye
            source = (cache.ep if name.startswith("ep")
                      else np.broadcast_to(jobset.P[None, :, :],
                                           (n, n, num_stages)))
            job_major = np.where(keep[:, :, None], source, 0.0)
            expected = np.ascontiguousarray(job_major.transpose(2, 0, 1))
            assert twin.flags.c_contiguous, name
            assert twin.tobytes() == expected.tobytes(), name

    def test_partition_mirrors_jobset_shape(self):
        jobset = _jobset(n=6, resources=4)
        cache = SegmentCache(jobset)
        parts = jobset.partition(np.zeros(6, dtype=int), num_shards=2)
        caches = cache.partition(parts)
        assert len(caches) == 2
        assert caches[0] is not None and caches[1] is None


class TestAnalysisExactness:
    def test_shard_local_analysis_is_exact(self):
        """Delay bounds of shard-local jobs computed per shard equal
        the bounds over the union universe: jobs routed to different
        shards never share a resource, so per-shard analysis is exact
        (the soundness claim of :mod:`repro.core.partition`)."""
        from repro.core.dca import DelayAnalyzer

        jobset = _jobset(n=14, resources=4, seed=5)
        routing = ShardMap.blocked(jobset.system, 2).route(jobset)
        local = [int(i) for i in np.flatnonzero(~routing.cross)]
        assert len(local) >= 4, "seed must yield shard-local jobs"
        union = jobset.restrict(local)
        union_priority = np.arange(1, union.num_jobs + 1)
        whole = DelayAnalyzer(union).delays_for_ordering(
            union_priority)
        union_routing = ShardMap.blocked(
            union.system, 2).route(union)
        for shard in range(2):
            members = [int(i)
                       for i in union_routing.local_jobs(shard)]
            if not members:
                continue
            sub = union.restrict(members)
            # induced priorities keep the union's relative order
            sub_priority = np.argsort(
                np.argsort(union_priority[members])) + 1
            alone = DelayAnalyzer(sub).delays_for_ordering(
                sub_priority.astype(np.int64))
            assert np.array_equal(alone, whole[members])
