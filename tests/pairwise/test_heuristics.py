"""Tests for the future-work pairwise strategies (LMR, local search,
OPA-guided hybrid)."""

import numpy as np
import pytest

from repro.core.dca import DelayAnalyzer
from repro.core.opdca import opdca
from repro.core.system import JobSet
from repro.pairwise.heuristics import (
    laxity_assignment,
    lmr,
    local_search,
    opa_guided,
)
from repro.pairwise.opt import opt
from repro.workload.random_jobs import RandomInstanceConfig, random_jobset


def moderate_instance(seed):
    return random_jobset(
        RandomInstanceConfig(num_jobs=6, num_stages=3,
                             resources_per_stage=2,
                             slack_range=(0.7, 1.8)), seed=seed)


class TestLaxityAssignment:
    def test_orientation_by_laxity(self):
        jobset = JobSet.single_resource(
            processing=[(10, 10), (1, 1)], deadlines=[25, 20])
        # Laxities: J0 = 5, J1 = 18 -> J0 wins despite larger deadline.
        assignment = laxity_assignment(jobset)
        assert assignment.is_higher(0, 1)

    def test_tie_falls_back_to_deadline_then_index(self):
        jobset = JobSet.single_resource(
            processing=[(5, 5), (5, 5)], deadlines=[20, 20])
        assignment = laxity_assignment(jobset)
        assert assignment.is_higher(0, 1)

    def test_acyclic(self, fig2_jobset):
        assert laxity_assignment(fig2_jobset).is_acyclic()


class TestHeuristicSoundness:
    @pytest.mark.parametrize("heuristic", [lmr, local_search, opa_guided],
                             ids=["lmr", "local_search", "opa_guided"])
    @pytest.mark.parametrize("seed", range(10))
    def test_feasible_results_verify(self, heuristic, seed):
        jobset = moderate_instance(seed)
        analyzer = DelayAnalyzer(jobset)
        result = heuristic(jobset, "eq6", analyzer=analyzer)
        if result.feasible:
            delays = analyzer.delays_for_pairwise(
                result.assignment.matrix(), equation="eq6")
            assert (delays <= jobset.D + 1e-9).all()

    @pytest.mark.parametrize("heuristic", [lmr, local_search, opa_guided],
                             ids=["lmr", "local_search", "opa_guided"])
    @pytest.mark.parametrize("seed", range(10))
    def test_never_beats_opt(self, heuristic, seed):
        jobset = moderate_instance(seed)
        analyzer = DelayAnalyzer(jobset)
        if heuristic(jobset, "eq6", analyzer=analyzer).feasible:
            assert opt(jobset, "eq6", backend="cp",
                       analyzer=analyzer).feasible


class TestOPAGuided:
    def test_feasible_ordering_accepted_directly(self):
        for seed in range(10):
            jobset = moderate_instance(seed)
            if opdca(jobset, "eq6").feasible:
                result = opa_guided(jobset, "eq6")
                assert result.feasible
                assert result.stats["opa_assigned"] == jobset.num_jobs

    def test_partial_ordering_reported(self, fig2_jobset):
        result = opa_guided(fig2_jobset, "eq6")
        # OPDCA fails on Figure 2 at the very first level (no job can
        # take the lowest priority), so the hybrid degenerates to pure
        # DM + repair there.
        assert result.stats["opa_assigned"] == 0
        assert not result.feasible

    def test_partial_prefix_used_when_opa_gets_stuck_midway(self):
        """Find an instance where OPA assigns some but not all
        priorities and check the hybrid keeps that suffix."""
        for seed in range(60):
            jobset = moderate_instance(seed)
            from repro.core.opa import audsley
            from repro.core.schedulability import SDCA
            opa = audsley(jobset.num_jobs,
                          SDCA(jobset, "eq6").is_schedulable)
            if not opa.feasible and 0 < len(opa.order):
                result = opa_guided(jobset, "eq6")
                assert result.stats["opa_assigned"] == len(opa.order)
                return
        pytest.skip("no partially-assignable instance in seed range")


class TestLocalSearch:
    def test_finds_cyclic_solution_on_figure2(self, fig2_jobset):
        """Local search can reach the cyclic region DMR cannot: the
        Figure 2 instance has only cyclic feasible assignments."""
        result = local_search(fig2_jobset, "eq6", restarts=6, seed=3)
        if result.feasible:
            assert not result.assignment.is_acyclic()
        # Either way the stats are well-formed.
        assert result.stats["residual_excess"] >= 0.0

    def test_deterministic_given_seed(self, fig2_jobset):
        a = local_search(fig2_jobset, "eq6", seed=1)
        b = local_search(fig2_jobset, "eq6", seed=1)
        assert a.feasible == b.feasible
        assert np.allclose(a.delays, b.delays)

    def test_respects_max_steps(self):
        jobset = moderate_instance(0)
        result = local_search(jobset, "eq6", max_steps=0, restarts=1)
        assert result.stats["steps"] == 0

    @pytest.mark.parametrize("equation", ["eq6", "eq10"])
    def test_trial_memo_matches_plain_descent_bitwise(self, equation):
        """The descent reuses a candidate's trial bounds until a
        committed flip involves its jobs; re-evaluating every candidate
        on every pass must give the same trajectory, bit for bit."""
        from repro.pairwise.dm import dm_assignment
        from repro.pairwise.heuristics import _FlipSearch

        stepped = 0
        for seed in range(6):
            jobset = random_jobset(
                RandomInstanceConfig(num_jobs=10, num_stages=3,
                                     resources_per_stage=2,
                                     slack_range=(0.6, 1.4)), seed=seed)
            analyzer = DelayAnalyzer(jobset)
            search = _FlipSearch(jobset, analyzer, equation)
            start = dm_assignment(jobset).matrix()
            delays = analyzer.delays_for_pairwise(start, equation=equation)
            x, got, steps = search.descend(start.copy(), delays.copy(), 80)

            ref_x, ref = start.copy(), delays.copy()
            ref_steps = 0
            while ref_steps < 80:
                current = np.maximum(0.0, ref - jobset.D)
                best_gain, best = 1e-12, None
                for i, k in search.pairs:
                    if current[i] <= 0.0 and current[k] <= 0.0:
                        continue
                    ref_x[i, k], ref_x[k, i] = ref_x[k, i], ref_x[i, k]
                    new_i = search.delay_of(ref_x, i)
                    new_k = search.delay_of(ref_x, k)
                    ref_x[i, k], ref_x[k, i] = ref_x[k, i], ref_x[i, k]
                    gain = (current[i] + current[k]
                            - max(0.0, new_i - jobset.D[i])
                            - max(0.0, new_k - jobset.D[k]))
                    if gain > best_gain:
                        best_gain, best = gain, (i, k, new_i, new_k)
                if best is None:
                    break
                i, k, ref[i], ref[k] = best
                ref_x[i, k], ref_x[k, i] = ref_x[k, i], ref_x[i, k]
                ref_steps += 1

            assert steps == ref_steps
            assert np.array_equal(x, ref_x)
            assert got.tobytes() == ref.tobytes()
            stepped += steps >= 2
        assert stepped >= 2
