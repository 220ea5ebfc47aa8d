"""Tests for the DCMP decomposition baseline."""

import numpy as np
import pytest

from repro.baselines.dcmp import (
    dcmp,
    stage_ranks,
    virtual_deadlines,
)
from repro.core.job import Job
from repro.core.system import JobSet, MSMRSystem, Stage


@pytest.fixture
def jobset():
    system = MSMRSystem([Stage(1, preemptive=False),
                         Stage(1, preemptive=True)])
    jobs = [
        Job(processing=(2, 8), deadline=30, resources=(0, 0)),
        Job(processing=(4, 4), deadline=24, resources=(0, 0)),
    ]
    return JobSet(system, jobs)


class TestVirtualDeadlines:
    def test_split_proportional_to_upsilon(self, jobset):
        virtual = virtual_deadlines(jobset)
        # Heaviness: J0 = (2/30, 8/30), J1 = (4/24, 4/24).
        # Upsilon stage 0 (shared resource): 2/30 + 4/24 = 0.2333...
        # Upsilon stage 1: 8/30 + 4/24 = 0.4333...
        # J0: D * [0.35, 0.65].
        assert virtual.shape == (2, 2)
        assert virtual[0].sum() == pytest.approx(30.0)
        assert virtual[1].sum() == pytest.approx(24.0)
        assert virtual[0, 1] > virtual[0, 0]

    def test_sums_to_deadline(self, small_edge_jobset):
        virtual = virtual_deadlines(small_edge_jobset)
        assert np.allclose(virtual.sum(axis=1), small_edge_jobset.D)
        assert (virtual > 0).all()


class TestStageRanks:
    def test_rank_by_virtual_deadline(self):
        virtual = np.array([[5.0, 10.0], [7.0, 3.0]])
        rank = stage_ranks(virtual)
        assert rank[:, 0].tolist() == [1, 2]
        assert rank[:, 1].tolist() == [2, 1]

    def test_tie_breaks_by_index(self):
        virtual = np.array([[5.0], [5.0]])
        rank = stage_ranks(virtual)
        assert rank[:, 0].tolist() == [1, 2]


class TestDCMP:
    def test_feasible_loose_instance(self, jobset):
        result = dcmp(jobset)
        assert result.feasible
        assert not result.stage_misses.any()
        result.simulation.validate()

    def test_infeasible_when_budgets_shrink(self):
        system = MSMRSystem([Stage(1), Stage(1)])
        jobs = [
            Job(processing=(5, 5), deadline=11, resources=(0, 0)),
            Job(processing=(5, 5), deadline=11, resources=(0, 0)),
        ]
        result = dcmp(JobSet(system, jobs))
        # Two jobs of 10 units within deadline 11: the second job
        # cannot meet its budgets.
        assert not result.feasible

    def test_budget_release_stricter_than_immediate(self,
                                                    small_edge_jobset):
        immediate = dcmp(small_edge_jobset, release="immediate")
        budget = dcmp(small_edge_jobset, release="budget")
        # Budget release delays work; acceptance can only get harder.
        if budget.feasible:
            assert immediate.feasible

    def test_budget_release_monotonicity_over_seeds(self,
                                                    small_edge_config):
        from repro.workload.edge import generate_edge_case
        for seed in range(6):
            jobset = generate_edge_case(small_edge_config,
                                        seed=seed).jobset
            if dcmp(jobset, release="budget").feasible:
                assert dcmp(jobset, release="immediate").feasible

    def test_invalid_release_mode(self, jobset):
        with pytest.raises(ValueError, match="release"):
            dcmp(jobset, release="lazy")

    def test_stage_misses_shape(self, small_edge_jobset):
        result = dcmp(small_edge_jobset, release="budget")
        assert result.stage_misses.shape == (
            small_edge_jobset.num_jobs, 3)

    def test_end_to_end_property(self, jobset):
        result = dcmp(jobset)
        assert result.end_to_end_feasible == result.simulation.all_met
        assert result.delays.shape == (2,)


def test_virtual_deadlines_use_each_resources_masked_total():
    """``Upsilon_{i,j}`` is ``h[R[:, j] == R_{i,j}, j].sum()`` bit for
    bit, so the shares and deadlines are too."""
    from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
    from repro.workload.heaviness import heaviness_matrix

    jobset = generate_edge_case(
        EdgeWorkloadConfig(num_jobs=120, num_aps=8, num_servers=6,
                           beta=0.05, gamma=3.0), seed=1).jobset
    h = heaviness_matrix(jobset)
    upsilon = np.array([[h[jobset.R[:, j] == r, j].sum()
                         for j, r in enumerate(row)]
                        for row in jobset.R])
    want = jobset.D[:, None] * (upsilon
                                / upsilon.sum(axis=1, keepdims=True))
    assert virtual_deadlines(jobset).tobytes() == want.tobytes()
