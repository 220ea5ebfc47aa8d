"""Unit tests for the segment algebra (Section II definitions)."""

import numpy as np
import pytest

from repro.core.job import Job
from repro.core.segments import (
    PairSegments,
    SegmentCache,
    pair_segments,
    segments_of,
)
from repro.core.system import JobSet, MSMRSystem, Stage


class TestSegmentsOf:
    def test_empty(self):
        assert segments_of([]) == []

    def test_no_shared_stage(self):
        assert segments_of([False, False]) == []

    def test_all_shared(self):
        assert segments_of([True, True, True]) == [(0, 3)]

    def test_single_stage_segments(self):
        assert segments_of([True, False, True]) == [(0, 1), (2, 1)]

    def test_mixed(self):
        shared = [True, True, False, True, False, True, True, True]
        assert segments_of(shared) == [(0, 2), (3, 1), (5, 3)]

    def test_trailing_segment_closed(self):
        assert segments_of([False, True]) == [(1, 1)]


class TestPairSegments:
    def test_counts_match_paper_definitions(self):
        profile = PairSegments(segments=((0, 1), (2, 2), (5, 1)))
        assert profile.m == 3
        assert profile.u == 2      # two single-stage segments
        assert profile.v == 1      # one multi-stage segment
        assert profile.w == 2 + 2 * 1

    def test_shared_stages(self):
        profile = PairSegments(segments=((1, 2), (4, 1)))
        assert profile.shared_stages == (1, 2, 4)

    def test_empty_profile(self):
        profile = PairSegments(segments=())
        assert profile.m == profile.u == profile.v == profile.w == 0


def figure1e_like_jobset():
    """Two jobs sharing stages {0, 1} and {3} out of 4 (m = 2, like
    Figure 1(e) of the paper)."""
    system = MSMRSystem([Stage(2)] * 4)
    jobs = [
        Job(processing=(4, 5, 6, 7), deadline=100,
            resources=(0, 0, 0, 0)),
        Job(processing=(3, 2, 9, 8), deadline=100,
            resources=(0, 0, 1, 0)),
    ]
    return JobSet(system, jobs)


class TestPairSegmentsFromJobset:
    def test_figure1e_profile(self):
        jobset = figure1e_like_jobset()
        profile = pair_segments(jobset, 0, 1)
        assert profile.segments == ((0, 2), (3, 1))
        assert profile.m == 2
        assert profile.u == 1
        assert profile.v == 1
        assert profile.w == 3

    def test_self_pair_is_one_full_segment(self):
        jobset = figure1e_like_jobset()
        profile = pair_segments(jobset, 0, 0)
        assert profile.segments == ((0, 4),)
        assert profile.m == 1


class TestSegmentCache:
    @pytest.fixture
    def cache(self):
        return SegmentCache(figure1e_like_jobset())

    def test_ep_masks_unshared_stages(self, cache):
        # Relative to J0, J1's stage-2 time is hidden (different
        # resource there).
        assert np.array_equal(cache.ep[0, 1], [3, 2, 0, 8])
        assert np.array_equal(cache.ep[1, 0], [4, 5, 0, 7])
        # Self rows expose everything.
        assert np.array_equal(cache.ep[0, 0], [4, 5, 6, 7])

    def test_et_sorted_descending(self, cache):
        assert np.array_equal(cache.et_sorted[0, 1], [8, 3, 2, 0])
        assert cache.et1[0, 1] == 8
        assert cache.et2[0, 1] == 3

    def test_segment_count_matrices(self, cache):
        assert cache.m[0, 1] == 2
        assert cache.u[0, 1] == 1
        assert cache.v[0, 1] == 1
        assert cache.w[0, 1] == 3
        assert cache.m[0, 0] == 1  # raw self profile

    def test_job_additive_weights(self, cache):
        # W[0, 1]: sum of the w=3 largest shared times of J1 w.r.t. J0.
        assert cache.W[0, 1] == 8 + 3 + 2
        # Diagonal follows the refined convention w_ii = 1 -> t_{i,1}.
        assert cache.W[0, 0] == 7
        assert cache.W[1, 1] == 9

    def test_global_t_ranks(self, cache):
        assert cache.t1[0] == 7
        assert cache.t2[0] == 6
        assert cache.t1[1] == 9

    def test_top_et_sum(self, cache):
        assert cache.top_et_sum(0, 1, 0) == 0.0
        assert cache.top_et_sum(0, 1, 1) == 8.0
        assert cache.top_et_sum(0, 1, 2) == 11.0
        # Counts beyond N clamp to the full sum.
        assert cache.top_et_sum(0, 1, 99) == 13.0

    def test_consistency_with_pair_segments(self, cache):
        jobset = cache.jobset
        for i in range(jobset.num_jobs):
            for k in range(jobset.num_jobs):
                profile = pair_segments(jobset, i, k)
                assert cache.m[i, k] == profile.m
                assert cache.u[i, k] == profile.u
                assert cache.v[i, k] == profile.v
                assert cache.w[i, k] == profile.w


class TestSegmentCacheEdgeShapes:
    def test_single_stage_system(self):
        jobset = JobSet.single_resource(processing=[(3,), (4,)],
                                        deadlines=[10, 10])
        cache = SegmentCache(jobset)
        assert cache.m[0, 1] == 1
        assert cache.u[0, 1] == 1
        assert cache.v[0, 1] == 0
        assert cache.w[0, 1] == 1
        assert cache.et2[0, 1] == 0.0

    def test_disjoint_jobs_have_zero_profiles(self):
        system = MSMRSystem([Stage(2), Stage(2)])
        jobs = [
            Job(processing=(1, 2), deadline=10, resources=(0, 0)),
            Job(processing=(3, 4), deadline=10, resources=(1, 1)),
        ]
        cache = SegmentCache(JobSet(system, jobs))
        assert cache.m[0, 1] == 0
        assert cache.w[0, 1] == 0
        assert cache.W[0, 1] == 0.0
        assert (cache.ep[0, 1] == 0).all()

    def test_alternating_stages_all_single_segments(self):
        system = MSMRSystem([Stage(2)] * 5)
        jobs = [
            Job(processing=(1,) * 5, deadline=10,
                resources=(0, 0, 0, 0, 0)),
            Job(processing=(1,) * 5, deadline=10,
                resources=(0, 1, 0, 1, 0)),
        ]
        cache = SegmentCache(JobSet(system, jobs))
        assert cache.m[0, 1] == 3
        assert cache.u[0, 1] == 3
        assert cache.v[0, 1] == 0
        assert cache.w[0, 1] == 3


class TestSegmentCacheSort:
    """The stage-plane compare-exchange sort and running sums against
    the ``np.sort``/``np.cumsum`` reference, bitwise."""

    @pytest.mark.parametrize("num_stages", range(1, 7))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_numpy_reference(self, num_stages, seed):
        rng = np.random.default_rng(seed)
        n = 24
        # Zero times, ties within a row and across rows, and a few
        # irrational-looking values.
        P = rng.choice((0.0, 1.0, 1.0, 2.5, 0.1, 7.3), size=(n, num_stages))
        P[P.sum(axis=1) == 0, 0] = 0.3
        system = MSMRSystem([Stage(3)] * num_stages)
        jobset = JobSet.from_arrays(
            system, P, np.full(n, 100.0),
            rng.integers(0, 3, size=(n, num_stages)))
        cache = SegmentCache(jobset)
        et_sorted = -np.sort(-cache.ep, axis=2)
        et_cumsum = np.cumsum(et_sorted, axis=2)
        t_sorted = -np.sort(-jobset.P, axis=1)
        assert cache.et_sorted.tobytes() == et_sorted.tobytes()
        assert cache.et_cumsum.tobytes() == et_cumsum.tobytes()
        assert cache.t_sorted.tobytes() == t_sorted.tobytes()
        assert cache.et1.tobytes() == et_sorted[:, :, 0].tobytes()
        assert cache.t1.tobytes() == t_sorted[:, 0].tobytes()
        if num_stages >= 2:
            assert cache.et2.tobytes() == et_sorted[:, :, 1].tobytes()
            assert cache.t2.tobytes() == t_sorted[:, 1].tobytes()
