"""Unit tests for Stage, MSMRSystem and JobSet."""

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.core.job import Job
from repro.core.system import JobSet, MSMRSystem, Stage


class TestStage:
    def test_defaults(self):
        stage = Stage(num_resources=3)
        assert stage.num_resources == 3
        assert stage.preemptive

    def test_rejects_zero_resources(self):
        with pytest.raises(ModelError):
            Stage(num_resources=0)


class TestMSMRSystem:
    def test_uniform_constructor(self):
        system = MSMRSystem.uniform(4, 2, preemptive=False)
        assert system.num_stages == 4
        assert system.resources_per_stage == (2, 2, 2, 2)
        assert system.preemptive_flags == (False,) * 4

    def test_single_resource_detection(self):
        assert MSMRSystem.uniform(3, 1).is_single_resource()
        assert not MSMRSystem.uniform(3, 2).is_single_resource()

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            MSMRSystem([])

    def test_equality_and_hash(self):
        a = MSMRSystem.uniform(2, 2)
        b = MSMRSystem.uniform(2, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != MSMRSystem.uniform(2, 3)

    def test_repr_mentions_shape(self):
        assert "2" in repr(MSMRSystem.uniform(3, 2))


def two_stage_jobset():
    system = MSMRSystem([Stage(2), Stage(2)])
    jobs = [
        Job(processing=(1, 2), deadline=10, resources=(0, 0)),
        Job(processing=(2, 3), deadline=12, resources=(0, 1)),
        Job(processing=(3, 4), deadline=14, resources=(1, 1)),
    ]
    return JobSet(system, jobs)


class TestJobSet:
    def test_arrays_shape_and_content(self):
        jobset = two_stage_jobset()
        assert jobset.P.shape == (3, 2)
        assert jobset.A.shape == (3,)
        assert np.array_equal(jobset.D, [10, 12, 14])
        assert np.array_equal(jobset.R, [[0, 0], [0, 1], [1, 1]])

    def test_shares_tensor(self):
        jobset = two_stage_jobset()
        # J0 and J1 share stage 0 only; J1 and J2 share stage 1 only.
        assert jobset.shares[0, 1, 0]
        assert not jobset.shares[0, 1, 1]
        assert not jobset.shares[0, 2, 0]
        assert jobset.shares[1, 2, 1]
        # Diagonal is all-shared.
        assert jobset.shares[1, 1].all()

    def test_overlaps_synchronous_release(self):
        jobset = two_stage_jobset()
        assert jobset.overlaps.all()

    def test_overlaps_disjoint_windows(self):
        system = MSMRSystem.uniform(1, 1)
        jobs = [
            Job(processing=(1,), deadline=5, resources=(0,), arrival=0),
            Job(processing=(1,), deadline=5, resources=(0,), arrival=100),
        ]
        jobset = JobSet(system, jobs)
        assert not jobset.overlaps[0, 1]
        assert jobset.overlaps[0, 0]

    def test_touching_windows_overlap(self):
        system = MSMRSystem.uniform(1, 1)
        jobs = [
            Job(processing=(1,), deadline=5, resources=(0,), arrival=0),
            Job(processing=(1,), deadline=5, resources=(0,), arrival=5),
        ]
        assert JobSet(system, jobs).overlaps[0, 1]

    def test_competitors(self):
        jobset = two_stage_jobset()
        assert jobset.competitors_at_stage(0, 0) == [1]
        assert jobset.competitors_at_stage(0, 1) == []
        assert jobset.competitors(1) == [0, 2]

    def test_conflict_pairs(self):
        assert two_stage_jobset().conflict_pairs() == [(0, 1), (1, 2)]

    def test_jobs_on_resource(self):
        jobset = two_stage_jobset()
        assert jobset.jobs_on_resource(0, 0) == [0, 1]
        assert jobset.jobs_on_resource(1, 1) == [1, 2]

    def test_rejects_stage_count_mismatch(self):
        system = MSMRSystem.uniform(3, 1)
        with pytest.raises(ModelError, match="stages"):
            JobSet(system, [Job(processing=(1, 2), deadline=5,
                                resources=(0, 0))])

    def test_rejects_resource_out_of_range(self):
        system = MSMRSystem([Stage(1), Stage(2)])
        with pytest.raises(ModelError, match="resource"):
            JobSet(system, [Job(processing=(1, 2), deadline=5,
                                resources=(0, 2))])

    def test_rejects_empty_jobs(self):
        with pytest.raises(ModelError):
            JobSet(MSMRSystem.uniform(1, 1), [])

    def test_single_resource_constructor(self):
        jobset = JobSet.single_resource(
            processing=[(1, 2), (3, 4)], deadlines=[5, 6])
        assert jobset.system.is_single_resource()
        assert jobset.shares.all()
        assert np.array_equal(jobset.A, [0.0, 0.0])

    def test_single_resource_with_arrivals(self):
        jobset = JobSet.single_resource(
            processing=[(1, 2), (3, 4)], deadlines=[5, 6],
            arrivals=[0, 2])
        assert np.array_equal(jobset.A, [0.0, 2.0])

    def test_iteration_and_indexing(self):
        jobset = two_stage_jobset()
        assert len(jobset) == 3
        assert jobset[0].deadline == 10
        assert [job.deadline for job in jobset] == [10, 12, 14]

    def test_label(self):
        jobset = two_stage_jobset()
        assert jobset.label(1) == "J1"


def _job_built(system, P, D, R, A=None, names=None):
    """The set (or the error text) one :class:`Job` per row gives."""
    n = len(D)
    A = [0.0] * n if A is None else A
    names = [None] * n if names is None else names
    try:
        return JobSet(system, [
            Job(processing=tuple(P[i]), deadline=D[i], arrival=A[i],
                resources=tuple(R[i]), name=names[i])
            for i in range(n)])
    except ModelError as error:
        return str(error)


def _array_built(system, P, D, R, A=None, names=None):
    try:
        return JobSet.from_arrays(system, P, D, R, A=A, names=names)
    except ModelError as error:
        return str(error)


TWO_BY_TWO = MSMRSystem([Stage(2), Stage(3)])


class TestFromArrays:
    @pytest.mark.parametrize("P, D, R", [
        # an empty set
        (np.zeros((0, 2)), [], np.zeros((0, 2))),
        # stage-count mismatch
        ([[1.0, 2.0, 3.0]], [5.0], [[0, 0, 0]]),
        # no stages at all, and processing/resource lengths that differ
        (np.zeros((1, 0)), [5.0], np.zeros((1, 0))),
        ([[1.0, 2.0]], [5.0], [[0]]),
        # negative and all-zero processing times
        ([[1.0, 2.0], [1.0, -2.0]], [5.0, 5.0], [[0, 0], [0, 0]]),
        ([[1.0, 2.0], [0.0, 0.0]], [5.0, 5.0], [[0, 0], [0, 0]]),
        # D <= 0
        ([[1.0, 2.0], [1.0, 2.0]], [5.0, 0.0], [[0, 0], [0, 0]]),
        ([[1.0, 2.0]], [-3.0], [[0, 0]]),
        # negative and out-of-range resources
        ([[1.0, 2.0], [1.0, 2.0]], [5.0, 5.0], [[0, 0], [0, -1]]),
        ([[1.0, 2.0], [1.0, 2.0]], [5.0, 5.0], [[0, 0], [0, 3]]),
        ([[1.0, 2.0], [1.0, 2.0]], [5.0, 5.0], [[2, 0], [0, 3]]),
        # the first bad row wins, checks in Job order within it
        ([[1.0, 2.0], [-1.0, 2.0], [0.0, 0.0]], [5.0, -1.0, 5.0],
         [[0, 0], [0, -1], [0, 0]]),
    ])
    def test_rejects_what_job_and_jobset_reject(self, P, D, R):
        want = _job_built(TWO_BY_TWO, np.asarray(P), list(D),
                          np.asarray(R, dtype=int))
        assert isinstance(want, str)
        assert _array_built(TWO_BY_TWO, P, D, R) == want

    def test_out_of_range_message_uses_the_name(self):
        P, D, R = [[1.0, 2.0]], [5.0], [[0, 7]]
        names = ["upload"]
        want = _job_built(TWO_BY_TWO, P, D, R, names=names)
        assert "upload" in want
        assert _array_built(TWO_BY_TWO, P, D, R, names=names) == want

    def test_rejects_bad_shapes(self):
        with pytest.raises(ModelError, match="shapes"):
            JobSet.from_arrays(TWO_BY_TWO, [1.0, 2.0], [5.0], [[0, 0]])
        with pytest.raises(ModelError, match="names"):
            JobSet.from_arrays(TWO_BY_TWO, [[1.0, 2.0]], [5.0], [[0, 0]],
                               names=["a", "b"])

    @staticmethod
    def _pair(names=("a", None, "c")):
        P = np.array([[1.0, 2.0], [3.0, 0.5], [2.5, 4.0]])
        D = np.array([10.0, 12.0, 9.5])
        A = np.array([0.0, 1.5, 3.0])
        R = np.array([[0, 2], [1, 2], [0, 0]])
        return (_job_built(TWO_BY_TWO, P, D, R, A=A, names=names),
                JobSet.from_arrays(TWO_BY_TWO, P, D, R, A=A, names=names))

    @pytest.mark.parametrize("names", (("a", None, "c"), None))
    def test_lazy_jobs_equal_job_built_set(self, names):
        built, lazy = self._pair(names)
        for field in ("P", "A", "D", "R"):
            got, want = getattr(lazy, field), getattr(built, field)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert lazy._jobs is None
        assert lazy.num_jobs == len(lazy) == 3
        assert lazy.label(1) == built.label(1)
        assert lazy.jobs == built.jobs
        assert [job.name for job in lazy] == [job.name for job in built]
        assert [lazy.label(i) for i in range(3)] == \
            [built.label(i) for i in range(3)]
        assert lazy[2] == built[2]
        assert np.array_equal(lazy.shares, built.shares)
        assert np.array_equal(lazy.overlaps, built.overlaps)

    def test_restrict_on_lazy_and_job_built_sets(self):
        built, lazy = self._pair()
        for parent in (built, lazy):
            subset = parent.restrict([2, 0])
            assert subset._jobs is None
            assert subset.jobs == (built.jobs[2], built.jobs[0])
            assert [job.name for job in subset] == ["c", "a"]
            assert subset.label(1) == "a"
            assert np.array_equal(subset.R, built.R[[2, 0]])

    def test_pickle_round_trip(self):
        import pickle

        built, lazy = self._pair()
        for jobset in (lazy, lazy.restrict([1, 2])):
            clone = pickle.loads(pickle.dumps(jobset))
            assert clone.system == jobset.system
            assert clone.P.tobytes() == jobset.P.tobytes()
            assert clone.jobs == jobset.jobs
            assert [job.name for job in clone] == \
                [job.name for job in jobset]
