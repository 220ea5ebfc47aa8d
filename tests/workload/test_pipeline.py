"""Tests for the generic N-stage workload generator."""

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.workload.heaviness import heaviness_matrix, system_heaviness
from repro.workload.pipeline import (
    PipelineWorkloadConfig,
    generate_pipeline_case,
    pipeline_system,
)


class TestConfig:
    def test_scalar_broadcast(self):
        config = PipelineWorkloadConfig(num_stages=4,
                                        resources_per_stage=5,
                                        heavy_fractions=0.1,
                                        preemptive=False)
        assert config.pools() == (5, 5, 5, 5)
        assert config.fractions() == (0.1,) * 4
        assert config.flags() == (False,) * 4
        assert len(config.ranges()) == 4

    def test_per_stage_values(self):
        config = PipelineWorkloadConfig(
            num_stages=2, resources_per_stage=(3, 7),
            heavy_fractions=(0.0, 0.2),
            stage_ranges=((1.0, 10.0), (5.0, 50.0)),
            preemptive=(True, False))
        assert config.pools() == (3, 7)
        assert config.ranges() == ((1.0, 10.0), (5.0, 50.0))
        assert config.flags() == (True, False)

    def test_single_range_broadcast(self):
        config = PipelineWorkloadConfig(num_stages=3,
                                        stage_ranges=(4.0, 40.0))
        assert config.ranges() == ((4.0, 40.0),) * 3

    def test_wrong_length_rejected(self):
        with pytest.raises(ModelError, match="per-stage"):
            PipelineWorkloadConfig(num_stages=3,
                                   resources_per_stage=(1, 2))

    def test_bad_values_rejected(self):
        with pytest.raises(ModelError, match="beta"):
            PipelineWorkloadConfig(beta=0.0)
        with pytest.raises(ModelError, match="light_min"):
            PipelineWorkloadConfig(beta=0.1, light_min=0.2)
        with pytest.raises(ModelError, match="fractions"):
            PipelineWorkloadConfig(heavy_fractions=1.5)
        with pytest.raises(ModelError, match="range"):
            PipelineWorkloadConfig(stage_ranges=((5.0, 1.0),) * 3)
        with pytest.raises(ModelError, match="stage"):
            PipelineWorkloadConfig(num_stages=0)

    def test_with_overrides(self):
        base = PipelineWorkloadConfig()
        changed = base.with_overrides(num_stages=5)
        assert changed.num_stages == 5
        assert changed.num_jobs == base.num_jobs


class TestSystem:
    def test_stage_count_and_pools(self):
        config = PipelineWorkloadConfig(num_stages=4,
                                        resources_per_stage=(2, 3, 4, 5))
        system = pipeline_system(config)
        assert system.num_stages == 4
        assert system.resources_per_stage == (2, 3, 4, 5)

    def test_preemption_flags_honoured(self):
        config = PipelineWorkloadConfig(num_stages=2,
                                        preemptive=(False, True))
        system = pipeline_system(config)
        assert system.preemptive_flags == (False, True)


class TestGeneration:
    def test_deterministic_given_seed(self):
        config = PipelineWorkloadConfig(num_jobs=20)
        a = generate_pipeline_case(config, seed=5)
        b = generate_pipeline_case(config, seed=5)
        np.testing.assert_array_equal(a.jobset.P, b.jobset.P)
        np.testing.assert_array_equal(a.jobset.R, b.jobset.R)

    def test_different_seeds_differ(self):
        config = PipelineWorkloadConfig(num_jobs=20)
        a = generate_pipeline_case(config, seed=1)
        b = generate_pipeline_case(config, seed=2)
        assert not np.array_equal(a.jobset.P, b.jobset.P)

    @pytest.mark.parametrize("num_stages", [1, 2, 4, 6])
    def test_invariants_across_depths(self, num_stages):
        config = PipelineWorkloadConfig(num_stages=num_stages,
                                        num_jobs=30)
        case = generate_pipeline_case(config, seed=3)
        h = heaviness_matrix(case.jobset)
        assert (h < 2 * config.beta + 1e-9).all()
        assert system_heaviness(case.jobset) <= config.gamma + 1e-9
        assert "system_heaviness" in vars(case)
        assert case.system_heaviness == system_heaviness(case.jobset)
        for j, (lo, hi) in enumerate(config.ranges()):
            column = case.jobset.P[:, j]
            assert (column >= lo - 1e-9).all()
            assert (column <= hi + 1e-9).all()

    def test_heavy_counts_match_fractions(self):
        config = PipelineWorkloadConfig(num_jobs=50,
                                        heavy_fractions=(0.1, 0.2, 0.0))
        case = generate_pipeline_case(config, seed=0)
        counts = case.heavy.sum(axis=0)
        assert counts.tolist() == [5, 10, 0]
        h = heaviness_matrix(case.jobset)
        assert (h[case.heavy] >= config.beta - 1e-9).all()
        assert (h[~case.heavy] < config.beta + 1e-9).all()

    def test_batch_release(self):
        case = generate_pipeline_case(PipelineWorkloadConfig(num_jobs=10),
                                      seed=0)
        assert (case.jobset.A == 0.0).all()

    def test_overload_raises(self):
        config = PipelineWorkloadConfig(num_jobs=60,
                                        resources_per_stage=1,
                                        heavy_fractions=0.5,
                                        gamma=0.3,
                                        mapping_retries=3)
        with pytest.raises(ModelError, match="gamma"):
            generate_pipeline_case(config, seed=0)

    def test_compatible_with_evaluate_case(self):
        from repro.experiments.runner import evaluate_case

        case = generate_pipeline_case(
            PipelineWorkloadConfig(num_jobs=15, resources_per_stage=3),
            seed=2)
        result = evaluate_case(case, approaches=("dm", "opdca"),
                               equation="eq6")
        assert set(result.accepted) == {"dm", "opdca"}
