"""Tests for the DCMP decomposition baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dcmp import (
    dcmp,
    fixed_priority_finish,
    stage_ranks,
    virtual_deadlines,
)
from repro.core.job import Job
from repro.core.system import JobSet, MSMRSystem, Stage
from repro.sim.engine import PipelineSimulator
from repro.sim.policies import PerStagePolicy
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
from tests.conftest import figure4_cases


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

    def test_immediate_delays_are_the_simulations(self, small_edge_jobset):
        result = dcmp(small_edge_jobset)
        assert result.delays.tobytes() == \
            result.simulation.delays.tobytes()
        assert result.end_to_end_feasible == result.simulation.all_met

    def test_budget_delays_run_from_arrival(self):
        """Budget-release delays are last-stage finish minus arrival,
        not minus the last stage's budget release."""
        jobset = generate_edge_case(EdgeWorkloadConfig(), seed=0).jobset
        result = dcmp(jobset, release="budget")
        finish = np.column_stack([
            stock_stage_simulation(jobset, j).finish_times
            for j in range(jobset.num_stages)])
        delays = finish[:, -1] - jobset.A
        assert result.delays[0] == pytest.approx(6004.2848, abs=1e-3)
        assert result.delays.tobytes() == delays.tobytes()
        assert result.end_to_end_feasible == bool(
            (delays <= jobset.D + 1e-9).all())
        assert result.stage_finish.tobytes() == finish.tobytes()
        assert result.simulation is None

    def test_budget_release_dispatches_a_zero_stage_time(self, jobset):
        """A job with no work at one stage is a valid pipeline job:
        budget-release DCMP finishes it at its stage release on an idle
        resource, and every other finish time is the simulator's on the
        stage sub-problem without it."""
        late = Job(processing=(3, 0), deadline=40, resources=(0, 0),
                   arrival=30.0)
        zero = JobSet(jobset.system, list(jobset.jobs) + [late])
        result = dcmp(zero, release="budget")
        virtual = virtual_deadlines(zero)
        rank = stage_ranks(virtual)
        releases = zero.A[:, None] + np.cumsum(virtual, axis=1) - virtual
        others = [0, 1]
        assert releases[2, 1] > result.stage_finish[others, 1].max()
        assert result.stage_finish[2, 1] == releases[2, 1]
        assert result.stage_finish[:, 0].tobytes() == \
            stock_stage_simulation(zero, 0).finish_times.tobytes()
        sub = JobSet.from_arrays(
            MSMRSystem([Stage(1, preemptive=True)]), zero.P[others, 1:],
            virtual[others, 1], zero.R[others, 1:], A=releases[others, 1])
        simulation = PipelineSimulator(
            sub, PerStagePolicy(rank[others, 1:]), preemptive=[True]).run()
        assert result.stage_finish[others, 1].tobytes() == \
            simulation.finish_times.tobytes()


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


def _stage_subproblem(jobset: JobSet, stage: int, budgets: np.ndarray,
                      virtual: np.ndarray) -> JobSet:
    """Single-stage job set for the budget-release DCMP variant (the
    former implementation, kept as the oracle)."""
    source = jobset.system.stages[stage]
    system = MSMRSystem([Stage(num_resources=source.num_resources,
                               preemptive=source.preemptive,
                               name=source.name)])
    releases = (budgets[:, stage] - virtual[:, stage])
    return JobSet.from_arrays(
        system, jobset.P[:, stage:stage + 1],
        np.maximum(virtual[:, stage], 1e-9),
        jobset.R[:, stage:stage + 1], A=releases)


def stock_stage_simulation(jobset: JobSet, stage: int):
    """Simulator run of one decomposed stage, as budget-release DCMP
    used to make it."""
    virtual = virtual_deadlines(jobset)
    rank = stage_ranks(virtual)
    budgets = jobset.A[:, None] + np.cumsum(virtual, axis=1)
    return PipelineSimulator(
        _stage_subproblem(jobset, stage, budgets, virtual),
        PerStagePolicy(rank[:, stage:stage + 1]),
        preemptive=[jobset.system.stages[stage].preemptive]).run()


def stock_budget_misses(jobset: JobSet) -> "tuple[bool, np.ndarray]":
    """Oracle: the former budget-release loop, ``(feasible,
    stage_misses)`` from one simulator run per stage."""
    virtual = virtual_deadlines(jobset)
    rank = stage_ranks(virtual)
    budgets = jobset.A[:, None] + np.cumsum(virtual, axis=1)
    stage_misses = np.zeros((jobset.num_jobs, jobset.num_stages),
                            dtype=bool)
    for j in range(jobset.num_stages):
        stage_jobset = _stage_subproblem(jobset, j, budgets, virtual)
        simulator = PipelineSimulator(
            stage_jobset, PerStagePolicy(rank[:, j:j + 1]),
            preemptive=[jobset.system.stages[j].preemptive])
        stage_misses[:, j] = \
            simulator.run().finish_times > budgets[:, j] + 1e-9
    return not bool(stage_misses.any()), stage_misses


class TestFixedPriorityLoop:
    """The per-resource loop against the pipeline simulator on the
    single-stage sub-problems, finish time for finish time."""

    @pytest.mark.parametrize("jobset", figure4_cases((0, 1, 2)))
    def test_figure4_cases_match_the_simulator(self, jobset):
        result = dcmp(jobset, release="budget")
        for j in range(jobset.num_stages):
            want = stock_stage_simulation(jobset, j).finish_times
            assert result.stage_finish[:, j].tobytes() == want.tobytes()
        feasible, misses = stock_budget_misses(jobset)
        assert result.feasible == feasible
        assert np.array_equal(result.stage_misses, misses)

    def test_small_edge_cases_match_the_budget_oracle(
            self, small_edge_config):
        for seed in range(6):
            jobset = generate_edge_case(small_edge_config,
                                        seed=seed).jobset
            result = dcmp(jobset, release="budget")
            feasible, misses = stock_budget_misses(jobset)
            assert result.feasible == feasible
            assert np.array_equal(result.stage_misses, misses)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12),
           resources=st.integers(1, 3), preemptive=st.booleans())
    def test_single_stage_sets_match_the_simulator(self, data, n,
                                                   resources,
                                                   preemptive):
        """Simultaneous releases, zero processing times and rank ties
        (broken by index) on preemptive and non-preemptive
        resources."""
        release = np.array(data.draw(st.lists(
            st.sampled_from((0.0, 0.1, 0.5, 1.0, 2.0, 3.3)),
            min_size=n, max_size=n)))
        work = np.array(data.draw(st.lists(
            st.sampled_from((0.0, 0.1, 0.3, 1.0, 1.5, 3.0)),
            min_size=n, max_size=n)))
        resource = np.array(data.draw(st.lists(
            st.integers(0, resources - 1), min_size=n, max_size=n)))
        rank = np.array(data.draw(st.lists(
            st.integers(1, 4), min_size=n, max_size=n)))
        system = MSMRSystem([Stage(resources, preemptive=preemptive)])
        jobset = JobSet.from_arrays(system, np.ones((n, 1)),
                                    np.full(n, 10.0), resource[:, None],
                                    A=release)
        # A one-stage job set refuses zero processing times; the
        # simulator runs them as zero-length executions.
        jobset.P = work[:, None]
        want = PipelineSimulator(jobset, PerStagePolicy(rank[:, None]),
                                 preemptive=[preemptive]).run()
        got = fixed_priority_finish(release, work, resource, rank,
                                    preemptive)
        assert got.tobytes() == want.finish_times.tobytes()
