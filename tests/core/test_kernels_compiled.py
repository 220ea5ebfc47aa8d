"""Compiled kernel tier: equivalence, fallback and availability.

The compiled tier (``DelayAnalyzer(kernel="compiled")``) runs
numba-jitted loop primitives over the same premasked operands as the
paired kernel.  Numba is optional and absent from the minimal test
environment, so these suites exercise the *pure-python fallback*
loops by monkeypatching :data:`repro.core.kernels.FORCE_FALLBACK` --
the fallback shares every line of arithmetic with the jitted code
(numba compiles the same function body without ``fastmath``), so the
equivalence contracts proven here carry over to the jitted tier.

Contracts under test (see ``docs/kernels.md``):

* compiled vs reference agrees to <= 1e-9 relative on every equation
  (eq1/eq2 on single-resource instances, eq3-eq6 on MSMR, eq10 on
  edge pipelines);
* single-probe vs batch-row is *bitwise* within the compiled tier;
* ``rows=`` slices match the full batch bitwise;
* memo invalidation (the online departure path) never changes values;
* availability: ``kernel="compiled"`` without numba raises
  :class:`~repro.core.kernels.CompiledKernelUnavailable` with an
  actionable message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.dca import DelayAnalyzer
from repro.core.kernels import CompiledKernelUnavailable, resolve_kernel
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
from repro.workload.random_jobs import (
    RandomInstanceConfig,
    random_jobset,
    random_single_resource_jobset,
)
from tests.properties.test_property_kernels import (
    MSMR_EQUATIONS,
    draw_level_context,
)

#: The ``force_fallback`` fixture is an idempotent module-attribute
#: patch, so sharing it across hypothesis examples is sound.
FIXTURE_OK = (HealthCheck.function_scoped_fixture,)

instances = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "num_jobs": st.integers(2, 8),
    "num_stages": st.integers(1, 4),
    "resources": st.integers(1, 3),
})


def build(params):
    config = RandomInstanceConfig(
        num_jobs=params["num_jobs"],
        num_stages=params["num_stages"],
        resources_per_stage=params["resources"],
        max_offset=5.0,
    )
    return random_jobset(config, seed=params["seed"])


@pytest.fixture
def force_fallback(monkeypatch):
    """Make the compiled tier constructible without numba (its
    pure-python fallback loops serve the calls)."""
    monkeypatch.setattr(kernels, "FORCE_FALLBACK", True)


@pytest.fixture
def no_compiled(monkeypatch):
    """Simulate a minimal environment: no numba, no force flag."""
    monkeypatch.setattr(kernels, "FORCE_FALLBACK", False)
    monkeypatch.setattr(kernels, "HAS_NUMBA", False)


def edge_jobset(num_jobs=12, seed=2):
    return generate_edge_case(
        EdgeWorkloadConfig(num_jobs=num_jobs, num_aps=4, num_servers=3),
        seed=seed).jobset


class TestCompiledEquivalence:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=FIXTURE_OK)
    @given(params=instances, data=st.data())
    def test_compiled_matches_reference_msmr(self, params, data,
                                             force_fallback):
        jobset = build(params)
        n = jobset.num_jobs
        compiled = DelayAnalyzer(jobset, kernel="compiled")
        reference = DelayAnalyzer(jobset, kernel="reference")
        unassigned, assigned_lower, active = draw_level_context(data, n)
        equation = data.draw(st.sampled_from(MSMR_EQUATIONS))
        c = compiled.level_bounds(unassigned, assigned_lower,
                                  equation=equation, active=active)
        r = reference.level_bounds(unassigned, assigned_lower,
                                   equation=equation, active=active)
        candidates = unassigned & active
        np.testing.assert_allclose(c[candidates], r[candidates],
                                   rtol=1e-9)
        assert np.isnan(c[~active]).all()

    @settings(max_examples=20, deadline=None,
              suppress_health_check=FIXTURE_OK)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_compiled_matches_reference_single_resource(
            self, seed, data, force_fallback):
        jobset = random_single_resource_jobset(
            seed=seed, num_jobs=data.draw(st.integers(2, 8)),
            max_offset=4.0)
        n = jobset.num_jobs
        compiled = DelayAnalyzer(jobset, kernel="compiled")
        reference = DelayAnalyzer(jobset, kernel="reference")
        unassigned, assigned_lower, active = draw_level_context(data, n)
        equation = data.draw(st.sampled_from(("eq1", "eq2")))
        c = compiled.level_bounds(unassigned, assigned_lower,
                                  equation=equation, active=active)
        r = reference.level_bounds(unassigned, assigned_lower,
                                   equation=equation, active=active)
        candidates = unassigned & active
        np.testing.assert_allclose(c[candidates], r[candidates],
                                   rtol=1e-9)

    def test_compiled_matches_reference_eq10(self, force_fallback):
        jobset = edge_jobset(num_jobs=14, seed=3)
        n = jobset.num_jobs
        compiled = DelayAnalyzer(jobset, kernel="compiled")
        reference = DelayAnalyzer(jobset, kernel="reference")
        rng = np.random.default_rng(11)
        for _ in range(10):
            unassigned = rng.random(n) < 0.8
            unassigned[rng.integers(n)] = True
            lower = ~unassigned & (rng.random(n) < 0.5)
            active = np.ones(n, dtype=bool)
            active[rng.random(n) < 0.2] = False
            c = compiled.level_bounds(unassigned, lower,
                                      equation="eq10", active=active)
            r = reference.level_bounds(unassigned, lower,
                                       equation="eq10", active=active)
            candidates = unassigned & active
            np.testing.assert_allclose(c[candidates], r[candidates],
                                       rtol=1e-9)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=FIXTURE_OK)
    @given(params=instances, data=st.data())
    def test_single_probe_matches_batch_row(self, params, data,
                                            force_fallback):
        jobset = build(params)
        n = jobset.num_jobs
        analyzer = DelayAnalyzer(jobset, kernel="compiled")
        unassigned, assigned_lower, active = draw_level_context(data, n)
        equation = data.draw(st.sampled_from(MSMR_EQUATIONS))
        batch = analyzer.level_bounds(unassigned, assigned_lower,
                                      equation=equation, active=active)
        for i in np.flatnonzero(unassigned & active):
            single = analyzer.level_bound_single(
                int(i), unassigned, assigned_lower,
                equation=equation, active=active)
            assert single == batch[i]  # bitwise, not approx

    def test_rows_slices_match_full_level(self, force_fallback):
        jobset = edge_jobset()
        n = jobset.num_jobs
        analyzer = DelayAnalyzer(jobset, kernel="compiled")
        rng = np.random.default_rng(3)
        unassigned = rng.random(n) < 0.7
        unassigned[0] = True
        lower = ~unassigned & (rng.random(n) < 0.5)
        full = analyzer.level_bounds(unassigned, lower,
                                     equation="eq10")
        rows = np.flatnonzero(unassigned)[::2]
        sliced = analyzer.level_bounds(unassigned, lower,
                                       equation="eq10", rows=rows)
        assert np.array_equal(full[rows], sliced)

    def test_invalidate_job_preserves_values(self, force_fallback):
        """The online departure path: purging memo entries that
        involve a job must not change any re-queried value."""
        jobset = edge_jobset()
        n = jobset.num_jobs
        analyzer = DelayAnalyzer(jobset, kernel="compiled")
        rng = np.random.default_rng(5)
        unassigned = rng.random(n) < 0.7
        unassigned[1] = True
        lower = ~unassigned & (rng.random(n) < 0.5)
        # eq5's level-independent blocking vector is memoised per
        # active mask, so the purge has something to drop.
        before = analyzer.level_bounds(unassigned, lower,
                                       equation="eq5")
        dropped = analyzer.invalidate_job(1)
        assert sum(dropped.values()) > 0
        after = analyzer.level_bounds(unassigned, lower,
                                      equation="eq5")
        assert np.array_equal(before, after)

    def test_engine_compiled_matches_cold(self, force_fallback):
        """Engine-vs-cold decision equality holds on the compiled
        tier: the incremental engine on compiled-fallback kernels
        reproduces the cold per-event rebuild bit for bit (restrict
        and invalidate paths included)."""
        from repro.online import (
            OnlineAdmissionEngine,
            StreamConfig,
            generate_stream,
        )

        stream = generate_stream(
            StreamConfig(horizon=60.0, rate=0.35), seed=3)
        warm = OnlineAdmissionEngine(
            stream, mode="incremental", kernel="compiled").run()
        cold = OnlineAdmissionEngine(
            stream, mode="cold", kernel="compiled").run()
        one = warm.deterministic_dict()
        two = cold.deterministic_dict()
        one.pop("mode"), two.pop("mode")
        assert one == two


class TestAvailability:
    def test_compiled_without_numba_raises(self, no_compiled):
        with pytest.raises(CompiledKernelUnavailable,
                           match="numba"):
            DelayAnalyzer(edge_jobset(num_jobs=6), kernel="compiled")

    def test_window_filter_off_resolves_to_reference(self,
                                                     force_fallback):
        assert resolve_kernel("paired",
                              window_filter=False) == "reference"
        assert resolve_kernel("compiled",
                              window_filter=False) == "reference"

    def test_unavailable_beats_window_filter_downgrade(self,
                                                       no_compiled):
        # The availability error must not be masked by the
        # window-filter downgrade to "reference".
        with pytest.raises(CompiledKernelUnavailable):
            resolve_kernel("compiled", window_filter=False)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="paired"):
            resolve_kernel("blas")

    def test_auto_is_not_a_tier(self):
        with pytest.raises(ValueError) as error:
            DelayAnalyzer(edge_jobset(num_jobs=6), kernel="auto")
        assert str(error.value) == (
            "kernel must be one of ('paired', 'reference', 'compiled'), "
            "got 'auto'")

    def test_requested_kernel_survives_resolution(self,
                                                  force_fallback):
        analyzer = DelayAnalyzer(edge_jobset(num_jobs=4),
                                 kernel="compiled", window_filter=False)
        assert analyzer.requested_kernel == "compiled"
        assert analyzer.kernel == "reference"
