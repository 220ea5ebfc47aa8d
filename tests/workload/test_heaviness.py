"""Tests for the heaviness metrics."""

import numpy as np
import pytest

from repro.core.job import Job
from repro.core.system import JobSet, MSMRSystem, Stage
from repro.workload.heaviness import (
    heaviness_matrix,
    heavy_mask,
    job_heaviness,
    rejected_heaviness,
    resource_heaviness,
    system_heaviness,
)


@pytest.fixture
def jobset():
    system = MSMRSystem([Stage(2), Stage(1)])
    jobs = [
        Job(processing=(2, 4), deadline=20, resources=(0, 0)),
        Job(processing=(3, 6), deadline=30, resources=(0, 0)),
        Job(processing=(5, 1), deadline=10, resources=(1, 0)),
    ]
    return JobSet(system, jobs)


class TestHeavinessMatrix:
    def test_values(self, jobset):
        h = heaviness_matrix(jobset)
        assert np.allclose(h[0], [0.1, 0.2])
        assert np.allclose(h[1], [0.1, 0.2])
        assert np.allclose(h[2], [0.5, 0.1])

    def test_job_heaviness(self, jobset):
        assert np.allclose(job_heaviness(jobset), [0.3, 0.3, 0.6])

    def test_heavy_mask(self, jobset):
        mask = heavy_mask(jobset, beta=0.2)
        assert mask.tolist() == [[False, True], [False, True],
                                 [True, False]]


class TestResourceHeaviness:
    def test_chi_per_resource(self, jobset):
        chi = resource_heaviness(jobset)
        assert chi[(0, 0)] == pytest.approx(0.2)     # J0 + J1 uplink
        assert chi[(0, 1)] == pytest.approx(0.5)     # J2
        assert chi[(1, 0)] == pytest.approx(0.5)     # all three

    def test_system_heaviness_is_max(self, jobset):
        assert system_heaviness(jobset) == pytest.approx(0.5)


class TestRejectedHeaviness:
    def test_percentage(self, jobset):
        assert rejected_heaviness(jobset, []) == 0.0
        assert rejected_heaviness(jobset, [2]) == pytest.approx(50.0)
        assert rejected_heaviness(jobset, [0, 1, 2]) == \
            pytest.approx(100.0)


@pytest.mark.parametrize("seed", range(4))
def test_resource_heaviness_equals_masked_sums_bitwise(seed):
    """Each total is the masked ``sum`` of its jobs, bit for bit, also
    for resources holding more than eight jobs (numpy's pairwise sum
    blocks) and for empty ones."""
    from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case

    jobset = generate_edge_case(
        EdgeWorkloadConfig(num_jobs=150, num_aps=6, num_servers=30,
                           beta=0.05, gamma=3.0), seed=seed).jobset
    h = heaviness_matrix(jobset)
    want = {
        (stage, resource): float(
            h[jobset.R[:, stage] == resource, stage].sum())
        for stage in range(jobset.num_stages)
        for resource in range(jobset.system.stages[stage].num_resources)}
    got = resource_heaviness(jobset)
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == \
        np.array(list(want.values())).tobytes()
    assert max(jobset.R[:, 0].tolist().count(y) for y in range(6)) > 8
