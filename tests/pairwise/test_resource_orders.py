"""Tests for per-resource order extraction and the OPT witness."""

import sys

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.core.priorities import PairwiseAssignment, PriorityOrdering
from repro.pairwise.dmr import dmr
from repro.pairwise.opt import opt
from tests.conftest import FIG2_PAIRS


@pytest.fixture
def fig2_assignment(fig2_jobset):
    return PairwiseAssignment.from_pairs(fig2_jobset, FIG2_PAIRS)


class TestResourceOrder:
    def test_figure2_per_resource_orders(self, fig2_jobset,
                                         fig2_assignment):
        """Figure 2(b) read off per resource: S1/A J3>J1, S1/B J2>J4,
        S2-S3/A J4>J3, S2-S3/B J1>J2."""
        orders = fig2_assignment.per_resource_orders()
        assert orders[(0, 0)] == [2, 0]
        assert orders[(0, 1)] == [1, 3]
        assert orders[(1, 0)] == [3, 2]
        assert orders[(1, 1)] == [0, 1]
        assert orders[(2, 0)] == [3, 2]
        assert orders[(2, 1)] == [0, 1]

    def test_global_cycle_is_fine_per_resource(self, fig2_assignment):
        """The Figure 2(b) assignment is cyclic overall yet every
        single resource has a clean order -- exactly the paper's
        point about pairwise flexibility."""
        assert not fig2_assignment.is_acyclic()
        fig2_assignment.per_resource_orders()  # must not raise

    def test_single_job_resource(self, fig2_jobset, fig2_assignment):
        from repro.core.job import Job
        from repro.core.system import JobSet, MSMRSystem, Stage

        system = MSMRSystem([Stage(2)])
        jobs = [Job(processing=(1,), deadline=10, resources=(0,)),
                Job(processing=(1,), deadline=10, resources=(1,))]
        jobset = JobSet(system, jobs)
        assignment = PairwiseAssignment(jobset,
                                        np.zeros((2, 2), dtype=bool))
        assert assignment.resource_order(0, 0) == [0]
        assert assignment.resource_order(0, 1) == [1]

    def test_from_total_ordering_matches_ranks(self, fig2_jobset):
        ordering = PriorityOrdering([2, 3, 1, 4])
        assignment = ordering.to_pairwise(fig2_jobset)
        orders = assignment.per_resource_orders()
        for (stage, _resource), members in orders.items():
            ranks = [ordering.rank(i) for i in members]
            assert ranks == sorted(ranks)

    def test_intra_resource_cycle_detected(self):
        from repro.core.job import Job
        from repro.core.system import JobSet, MSMRSystem, Stage

        system = MSMRSystem([Stage(1)])
        jobs = [Job(processing=(1,), deadline=10, resources=(0,))
                for _ in range(3)]
        jobset = JobSet(system, jobs)
        x = np.zeros((3, 3), dtype=bool)
        x[0, 1] = x[1, 2] = x[2, 0] = True  # rock-paper-scissors
        assignment = PairwiseAssignment(jobset, x)
        with pytest.raises(ModelError, match="cyclic within"):
            assignment.resource_order(0, 0)


class TestWitness:
    def test_feasible_witness_skips_the_solver(self, small_edge_jobset,
                                               monkeypatch):
        def no_model(*_args, **_kwargs):
            raise AssertionError("the ILP was built despite a witness")

        # The package re-exports the function under the module's name.
        monkeypatch.setattr(sys.modules[opt.__module__],
                            "build_opt_model", no_model)
        heuristic = dmr(small_edge_jobset, "eq10")
        assert heuristic.feasible
        result = opt(small_edge_jobset, "eq10",
                     witness=heuristic.assignment)
        assert result.feasible
        assert result.solver == "opt/witness"
        assert result.stats["status"] == "witness"
        assert result.assignment is heuristic.assignment
        np.testing.assert_allclose(result.delays, heuristic.delays)

    def test_without_witness_the_backend_searches(self, fig2_jobset):
        """DMR fails on the Figure 2 instance, so there is no witness;
        the backend must still find the (cyclic) feasible assignment."""
        assert not dmr(fig2_jobset, "eq6").feasible
        result = opt(fig2_jobset, "eq6")
        assert result.feasible
        assert result.solver == "opt/highs"

    def test_same_verdict_with_and_without(self, small_edge_jobset):
        plain = opt(small_edge_jobset, "eq10")
        witnessed = opt(small_edge_jobset, "eq10",
                        witness=dmr(small_edge_jobset, "eq10").assignment)
        assert plain.feasible == witnessed.feasible
