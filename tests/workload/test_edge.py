"""Tests for the edge-computing workload generator (Section VI.A)."""

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.workload.edge import (
    EdgeWorkloadConfig,
    edge_system,
    generate_edge_case,
)
from repro.workload.heaviness import (
    heaviness_matrix,
    heavy_mask,
    system_heaviness,
)


class TestConfigValidation:
    def test_defaults_match_paper(self):
        config = EdgeWorkloadConfig()
        assert config.num_jobs == 100
        assert config.num_aps == 25
        assert config.num_servers == 20
        assert config.beta == 0.15
        assert config.heavy_fractions == (0.05, 0.05, 0.01)
        assert config.gamma == 0.7
        assert config.stage_ranges == ((2.0, 200.0), (50.0, 500.0),
                                       (2.0, 100.0))

    def test_rejects_bad_beta(self):
        with pytest.raises(ModelError):
            EdgeWorkloadConfig(beta=0.0)

    def test_rejects_light_min_above_beta(self):
        with pytest.raises(ModelError):
            EdgeWorkloadConfig(beta=0.05, light_min=0.06)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ModelError):
            EdgeWorkloadConfig(heavy_fractions=(0.1, 1.2, 0.0))

    def test_rejects_unknown_policy(self):
        with pytest.raises(ModelError):
            EdgeWorkloadConfig(mapping_policy="chaotic")

    def test_rejects_bad_packing_prob(self):
        with pytest.raises(ModelError):
            EdgeWorkloadConfig(packing_prob=1.5)

    def test_rejects_bad_light_dist(self):
        with pytest.raises(ModelError):
            EdgeWorkloadConfig(light_dist="normal")

    def test_with_overrides(self):
        config = EdgeWorkloadConfig().with_overrides(beta=0.2)
        assert config.beta == 0.2
        assert config.gamma == 0.7


class TestEdgeSystem:
    def test_three_stage_shape(self):
        system = edge_system(EdgeWorkloadConfig())
        assert system.num_stages == 3
        assert system.resources_per_stage == (25, 20, 25)
        assert system.preemptive_flags == (False, True, False)


class TestGeneratedCase:
    @pytest.fixture(scope="class")
    def case(self):
        return generate_edge_case(EdgeWorkloadConfig(), seed=11)

    def test_job_count_and_release(self, case):
        jobset = case.jobset
        assert jobset.num_jobs == 100
        assert (jobset.A == 0.0).all()

    def test_processing_ranges_respected(self, case):
        processing = case.jobset.P
        for j, (lo, hi) in enumerate(case.config.stage_ranges):
            assert (processing[:, j] >= lo - 1e-9).all()
            assert (processing[:, j] <= hi + 1e-9).all()

    def test_heaviness_cap_2beta(self, case):
        h = heaviness_matrix(case.jobset)
        assert (h < 2 * case.config.beta + 1e-9).all()

    def test_system_heaviness_within_gamma(self, case):
        assert system_heaviness(case.jobset) <= case.config.gamma + 1e-9

    def test_system_heaviness_is_cached_bitwise(self, case):
        """Computed once, by the generator's invariant check, and
        equal to the function's value bit for bit."""
        assert "system_heaviness" in vars(case)
        assert case.system_heaviness == system_heaviness(case.jobset)

    def test_heavy_fraction_counts(self, case):
        mask = heavy_mask(case.jobset, case.config.beta)
        expected = [round(f * 100) for f in case.config.heavy_fractions]
        assert mask.sum(axis=0).tolist() == expected
        assert np.array_equal(mask, case.heavy)

    def test_same_ap_up_and_down(self, case):
        resources = case.jobset.R
        assert np.array_equal(resources[:, 0], resources[:, 2])
        assert np.array_equal(resources[:, 0], case.ap_of)
        assert np.array_equal(resources[:, 1], case.server_of)

    def test_determinism(self):
        a = generate_edge_case(EdgeWorkloadConfig(), seed=3)
        b = generate_edge_case(EdgeWorkloadConfig(), seed=3)
        assert np.array_equal(a.jobset.P, b.jobset.P)
        assert np.array_equal(a.jobset.R, b.jobset.R)
        assert np.array_equal(a.jobset.D, b.jobset.D)

    def test_seeds_differ(self):
        a = generate_edge_case(EdgeWorkloadConfig(), seed=3)
        b = generate_edge_case(EdgeWorkloadConfig(), seed=4)
        assert not np.array_equal(a.jobset.P, b.jobset.P)


class TestMappingPolicies:
    @pytest.mark.parametrize("policy", ["uniform", "best_fit",
                                        "worst_fit", "mixed"])
    def test_all_policies_respect_gamma(self, policy):
        config = EdgeWorkloadConfig(num_jobs=40, num_aps=10,
                                    num_servers=8,
                                    mapping_policy=policy)
        case = generate_edge_case(config, seed=5)
        assert system_heaviness(case.jobset) <= config.gamma + 1e-9

    def test_best_fit_packs_tighter_than_worst_fit(self):
        best = generate_edge_case(
            EdgeWorkloadConfig(mapping_policy="best_fit"), seed=2)
        worst = generate_edge_case(
            EdgeWorkloadConfig(mapping_policy="worst_fit"), seed=2)
        assert system_heaviness(best.jobset) > \
            system_heaviness(worst.jobset)

    def test_overcommitted_pool_raises(self):
        config = EdgeWorkloadConfig(num_jobs=60, num_aps=2,
                                    num_servers=1, gamma=0.3,
                                    mapping_retries=3)
        with pytest.raises(ModelError, match="gamma"):
            generate_edge_case(config, seed=0)


class TestLightDistributions:
    def test_loguniform_lighter_on_average(self):
        uniform = generate_edge_case(
            EdgeWorkloadConfig(light_dist="uniform"), seed=9)
        log = generate_edge_case(
            EdgeWorkloadConfig(light_dist="loguniform"), seed=9)
        h_uniform = heaviness_matrix(uniform.jobset)
        h_log = heaviness_matrix(log.jobset)
        assert h_log.mean() < h_uniform.mean()
