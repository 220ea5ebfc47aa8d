"""Property suites for the pairwise-contribution kernel cache.

Two families of invariants pin the tentpole fast paths down:

* **Kernel equivalence** -- the paired contribution kernel
  (``DelayAnalyzer(kernel="paired")``, the default) must agree with
  the reference broadcast tensor path on every equation, policy and
  random active mask to <= 1e-9 relative.  The implementation is in
  fact *bitwise* identical for candidate rows (the reductions run
  over the same operands in the same association), which the fixed
  cases assert exactly; the hypothesis sweep uses the documented
  1e-9 contract.
* **Frontier equivalence** -- the frontier-carrying Audsley engine
  (:func:`repro.core.opa.audsley_frontier`, the default OPDCA batch
  path) must return identical feasibility, priorities, assignment
  order and failure diagnostics to the stock per-level batch loop on
  random job sets, including infeasible ones.
* **Admission equivalence** -- :func:`repro.core.admission.\
opdca_admission` (the driver with ``discard=True``) and the online
  cold controller (the driver in stock mode) must reproduce the stock
  per-level admission loop, kept here as :func:`stock_opdca_admission`,
  bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    AdmissionResult,
    _frontier_admission,
    _StockExcessLevels,
    opdca_admission,
)
from repro.core.dca import (
    ALL_EQUATIONS,
    KERNEL_TIERS,
    DelayAnalyzer,
    resolve_kernel,
)
from repro.core.opa import audsley, audsley_frontier
from repro.core.opdca import opdca
from repro.core.schedulability import SDCA, Policy
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
from repro.workload.random_jobs import (
    RandomInstanceConfig,
    random_jobset,
    random_single_resource_jobset,
)
from tests.conftest import figure4_cases

#: Equations valid on a general MSMR instance.
MSMR_EQUATIONS = ("eq3", "eq4", "eq5", "eq6")

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


def draw_level_context(data, n):
    """Random (unassigned, assigned_lower, active) level masks."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    unassigned = rng.random(n) < rng.uniform(0.2, 1.0)
    if not unassigned.any():
        unassigned[rng.integers(n)] = True
    assigned_lower = ~unassigned & (rng.random(n) < 0.5)
    active = np.ones(n, dtype=bool)
    active[rng.random(n) < 0.25] = False
    active |= unassigned & (rng.random(n) < 0.5)
    return unassigned, assigned_lower, active


class TestKernelEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(params=instances, data=st.data())
    def test_paired_matches_reference_msmr(self, params, data):
        jobset = build(params)
        n = jobset.num_jobs
        paired = DelayAnalyzer(jobset, kernel="paired")
        reference = DelayAnalyzer(jobset, kernel="reference")
        unassigned, assigned_lower, active = draw_level_context(data, n)
        equation = data.draw(st.sampled_from(MSMR_EQUATIONS))
        p = paired.level_bounds(unassigned, assigned_lower,
                                equation=equation, active=active)
        r = reference.level_bounds(unassigned, assigned_lower,
                                   equation=equation, active=active)
        candidates = unassigned & active
        np.testing.assert_allclose(p[candidates], r[candidates],
                                   rtol=1e-9)
        # Inactive rows are nan on both kernels.
        assert np.isnan(p[~active]).all()
        assert np.isnan(r[~active]).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_paired_matches_reference_single_resource(self, seed, data):
        jobset = random_single_resource_jobset(
            seed=seed, num_jobs=data.draw(st.integers(2, 8)),
            max_offset=4.0)
        n = jobset.num_jobs
        paired = DelayAnalyzer(jobset)
        reference = DelayAnalyzer(jobset, kernel="reference")
        unassigned, assigned_lower, active = draw_level_context(data, n)
        equation = data.draw(st.sampled_from(("eq1", "eq2")))
        p = paired.level_bounds(unassigned, assigned_lower,
                                equation=equation, active=active)
        r = reference.level_bounds(unassigned, assigned_lower,
                                   equation=equation, active=active)
        candidates = unassigned & active
        np.testing.assert_allclose(p[candidates], r[candidates],
                                   rtol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5_000), case_seed=st.integers(0, 100),
           data=st.data())
    def test_paired_matches_reference_eq10_policies(self, seed,
                                                    case_seed, data):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=9, num_aps=3, num_servers=3),
            seed=case_seed).jobset
        n = jobset.num_jobs
        policy = data.draw(st.sampled_from(list(Policy)))
        paired = SDCA(jobset, policy)
        reference = SDCA(jobset, policy, analyzer=DelayAnalyzer(
            jobset, kernel="reference"))
        rng = np.random.default_rng(seed)
        unassigned = rng.random(n) < 0.7
        if not unassigned.any():
            unassigned[0] = True
        assigned_lower = ~unassigned & (rng.random(n) < 0.5)
        active = np.ones(n, dtype=bool)
        active[rng.random(n) < 0.2] = False
        p = paired.level_delays(unassigned, assigned_lower,
                                active=active)
        r = reference.level_delays(unassigned, assigned_lower,
                                   active=active)
        candidates = unassigned & active
        np.testing.assert_allclose(p[candidates], r[candidates],
                                   rtol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(params=instances, data=st.data())
    def test_single_probe_matches_batch_row(self, params, data):
        jobset = build(params)
        n = jobset.num_jobs
        analyzer = DelayAnalyzer(jobset)
        unassigned, assigned_lower, active = draw_level_context(data, n)
        equation = data.draw(st.sampled_from(MSMR_EQUATIONS))
        batch = analyzer.level_bounds(unassigned, assigned_lower,
                                      equation=equation, active=active)
        for i in np.flatnonzero(unassigned & active):
            single = analyzer.level_bound_single(
                int(i), unassigned, assigned_lower,
                equation=equation, active=active)
            assert single == batch[i]  # bitwise, not approx

    def test_fixed_cases_are_bitwise_identical(self):
        """The stronger (implementation) property on a few dense cases:
        candidate rows agree bit for bit, not just to 1e-9."""
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=16, num_aps=4, num_servers=4),
            seed=2).jobset
        n = jobset.num_jobs
        paired = DelayAnalyzer(jobset)
        reference = DelayAnalyzer(jobset, kernel="reference")
        rng = np.random.default_rng(7)
        for equation in ("eq3", "eq4", "eq5", "eq6", "eq10"):
            for _ in range(10):
                unassigned = rng.random(n) < 0.8
                unassigned[rng.integers(n)] = True
                lower = ~unassigned & (rng.random(n) < 0.5)
                active = np.ones(n, dtype=bool)
                active[rng.random(n) < 0.2] = False
                p = paired.level_bounds(unassigned, lower,
                                        equation=equation, active=active)
                r = reference.level_bounds(unassigned, lower,
                                           equation=equation,
                                           active=active)
                candidates = unassigned & active
                assert np.array_equal(p[candidates], r[candidates])

    def test_rows_slices_match_full_level(self):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=12, num_aps=4, num_servers=3),
            seed=5).jobset
        n = jobset.num_jobs
        analyzer = DelayAnalyzer(jobset)
        rng = np.random.default_rng(3)
        unassigned = rng.random(n) < 0.7
        unassigned[0] = True
        lower = ~unassigned & (rng.random(n) < 0.5)
        full = analyzer.level_bounds(unassigned, lower, equation="eq10")
        rows = np.flatnonzero(unassigned)[::2]
        sliced = analyzer.level_bounds(unassigned, lower,
                                       equation="eq10", rows=rows)
        assert np.array_equal(full[rows], sliced)

    def test_invalidate_job_preserves_values(self):
        """The online departure path: purging memo entries that
        involve a job must not change any re-queried value."""
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=12, num_aps=4, num_servers=3),
            seed=2).jobset
        n = jobset.num_jobs
        analyzer = DelayAnalyzer(jobset)
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

    def test_window_filter_off_falls_back_to_reference(self):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=8, num_aps=3, num_servers=3),
            seed=1).jobset
        analyzer = DelayAnalyzer(jobset, window_filter=False)
        assert analyzer.kernel == "reference"

    def test_unknown_kernel_rejected(self):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=6, num_aps=3, num_servers=3),
            seed=1).jobset
        with pytest.raises(ValueError, match="kernel"):
            DelayAnalyzer(jobset, kernel="blas")


class TestKernelResolution:
    """``resolve_kernel``: the tier registry's validation and the
    window-filter downgrade, shared by every ``kernel`` knob."""

    def test_window_filter_off_resolves_to_reference(self):
        for kernel in KERNEL_TIERS:
            assert resolve_kernel(kernel,
                                  window_filter=False) == "reference"

    def test_unknown_kernel_rejected(self):
        for kernel in ("blas", "compiled"):
            with pytest.raises(ValueError, match="paired"):
                resolve_kernel(kernel)

    def test_auto_is_not_a_tier(self):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=6, num_aps=3, num_servers=3),
            seed=1).jobset
        with pytest.raises(ValueError) as error:
            DelayAnalyzer(jobset, kernel="auto")
        assert str(error.value) == (
            "kernel must be one of ('paired', 'reference'), got 'auto'")

    def test_requested_kernel_survives_resolution(self):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=4, num_aps=3, num_servers=3),
            seed=1).jobset
        analyzer = DelayAnalyzer(jobset, kernel="paired",
                                 window_filter=False)
        assert analyzer.requested_kernel == "paired"
        assert analyzer.kernel == "reference"


def stock_opdca_admission(jobset,
                          policy: "str | Policy" = Policy.PREEMPTIVE, *,
                          test: SDCA | None = None) -> AdmissionResult:
    """Oracle: the stock per-level admission loop (every level
    evaluated in full, eager closing delays), kept verbatim from the
    controller's former implementation.

    Runs OPDCA as an admission controller.

    Follows Algorithm 1 with the modified Step 10: when no unassigned
    job is feasible at the current priority level, discard the
    unassigned job with the largest ``Delta_i - D_i`` (computed with all
    other unassigned jobs as higher priority and the already-assigned
    jobs as lower priority) and retry the level.
    """
    if test is None:
        test = SDCA(jobset, policy)
    n = jobset.num_jobs
    deadlines = jobset.D

    active = np.ones(n, dtype=bool)
    unassigned = np.ones(n, dtype=bool)
    assigned_lower = np.zeros(n, dtype=bool)
    priority = np.zeros(n, dtype=np.int64)
    rejected: list[int] = []
    order_low_to_high: list[int] = []

    while unassigned.any():
        level = int(unassigned.sum())
        # One vectorised call evaluates every candidate of this level
        # (higher = unassigned minus self, lower = assigned so far)
        # through the analyzer's level kernel -- the paired
        # contribution matrices by default, bitwise identical to the
        # broadcast tensor path.
        delays = test.level_delays(unassigned, assigned_lower,
                                   active=active)
        placed = None
        excesses: list[tuple[float, int]] = []
        for i in np.flatnonzero(unassigned):
            i = int(i)
            excess = float(delays[i]) - float(deadlines[i])
            if excess <= 1e-9:
                placed = i
                break
            excesses.append((excess, i))
        if placed is not None:
            priority[placed] = level
            unassigned[placed] = False
            assigned_lower[placed] = True
            order_low_to_high.append(placed)
            continue
        # Modified Step 10: discard the worst offender and retry.
        worst_excess, worst_job = max(excesses)
        rejected.append(worst_job)
        active[worst_job] = False
        unassigned[worst_job] = False

    # Re-number the assigned priorities contiguously (1..#accepted).
    accepted = [int(i) for i in np.flatnonzero(active)]
    final_priority = np.zeros(n, dtype=np.int64)
    for rank, job in enumerate(reversed(order_low_to_high), start=1):
        final_priority[job] = rank

    delays = np.full(n, np.nan)
    if accepted:
        sub_priority = np.where(final_priority > 0, final_priority, n + 1)
        x = (sub_priority[:, None] < sub_priority[None, :])
        x[~active, :] = False
        x[:, ~active] = False
        all_delays = test.analyzer.delays_for_pairwise(
            x, equation=test.equation, active=active)
        delays[active] = all_delays[active]

    return AdmissionResult(accepted=accepted, rejected=rejected,
                           ordering=final_priority, delays=delays)


class _StockKernelRun:
    """Stock per-level batch Audsley via ``audsley(batch_test=...)``."""

    @staticmethod
    def run(jobset, equation):
        test = SDCA(jobset, equation)
        return audsley(jobset.num_jobs, test.is_schedulable,
                       batch_test=test.audsley_batch)


class TestFrontierEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(params=instances, equation=st.sampled_from(ALL_EQUATIONS))
    def test_frontier_matches_stock_batch(self, params, equation):
        jobset = build(params)
        if equation in ("eq1", "eq2") and \
                not jobset.system.is_single_resource():
            return
        if equation == "eq10" and jobset.num_stages != 3:
            return
        stock = _StockKernelRun.run(jobset, equation)
        test = SDCA(jobset, equation)
        frontier = audsley_frontier(jobset.num_jobs,
                                    test.level_kernel())
        assert frontier.feasible == stock.feasible
        assert (frontier.priority == stock.priority).all()
        assert frontier.order == stock.order
        assert frontier.failed_level == stock.failed_level
        assert frontier.unassigned == stock.unassigned

    @settings(max_examples=30, deadline=None)
    @given(case_seed=st.integers(0, 200),
           equation=st.sampled_from(("eq5", "eq6", "eq10")),
           gamma=st.sampled_from((0.6, 1.0, 1.4)))
    def test_frontier_matches_stock_on_edge_cases(self, case_seed,
                                                  equation, gamma):
        """Edge workloads across load levels: feasible, infeasible and
        borderline instances all reach identical OPA results."""
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=12, num_aps=4, num_servers=3,
                               gamma=gamma),
            seed=case_seed).jobset
        stock = _StockKernelRun.run(jobset, equation)
        test = SDCA(jobset, equation)
        frontier = audsley_frontier(jobset.num_jobs,
                                    test.level_kernel())
        assert frontier.feasible == stock.feasible
        assert (frontier.priority == stock.priority).all()
        assert frontier.order == stock.order
        assert frontier.failed_level == stock.failed_level
        assert frontier.unassigned == stock.unassigned

    def test_candidate_subset_respected(self):
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=10, num_aps=3, num_servers=3),
            seed=9).jobset
        test = SDCA(jobset, "eq6")
        candidates = [1, 3, 4, 7]
        stock = audsley(jobset.num_jobs, test.is_schedulable,
                        candidates=candidates,
                        batch_test=test.audsley_batch)
        frontier = audsley_frontier(jobset.num_jobs,
                                    test.level_kernel(),
                                    candidates=candidates)
        assert frontier.feasible == stock.feasible
        assert (frontier.priority == stock.priority).all()
        assert frontier.order == stock.order


class TestEq10FrontierOnFigure4:
    """``eq10`` on the Figure 4 edge cases: OPDCA against the stock
    batch loop and the admission controller against the stock
    admission loop, bitwise.  The driver places carried candidates
    from their padded values and emits trajectories without probes
    here, so this pins those skips to the stock decisions."""

    @pytest.mark.parametrize("jobset", figure4_cases((0, 1, 2)))
    def test_opdca_and_admission_match_the_stock_loops(self, jobset):
        test = SDCA(jobset, "eq10")
        stock = audsley(jobset.num_jobs, test.is_schedulable,
                        batch_test=test.audsley_batch)
        result = opdca(jobset, test=test).opa
        assert result.feasible == stock.feasible
        assert result.priority.tobytes() == stock.priority.tobytes()
        assert result.order == stock.order
        assert result.failed_level == stock.failed_level
        assert result.unassigned == stock.unassigned
        admitted = opdca_admission(jobset, "eq10")
        oracle = stock_opdca_admission(jobset, "eq10")
        assert admitted.accepted == oracle.accepted
        assert admitted.rejected == oracle.rejected
        assert admitted.ordering.tobytes() == oracle.ordering.tobytes()
        assert admitted.delays.tobytes() == oracle.delays.tobytes()


class TestAdmissionOracle:
    """``opdca_admission`` and the cold stock adapter against the
    stock per-level loop: ``accepted``, ``rejected``, ``ordering`` and
    ``delays`` (``nan`` included), bitwise."""

    @staticmethod
    def _case(params, equation):
        if equation in ("eq1", "eq2"):
            return random_single_resource_jobset(
                seed=params["seed"], num_jobs=params["num_jobs"],
                num_stages=params["num_stages"],
                preemptive=equation == "eq1", max_offset=5.0)
        if equation == "eq10":
            params = dict(params, num_stages=3)
        return build(params)

    @staticmethod
    def _assert_same(result, oracle):
        assert result.accepted == oracle.accepted
        assert result.rejected == oracle.rejected
        assert np.array_equal(result.ordering, oracle.ordering)
        assert np.array_equal(result.delays, oracle.delays,
                              equal_nan=True)

    @settings(max_examples=80, deadline=None)
    @given(params=instances, equation=st.sampled_from(ALL_EQUATIONS),
           kernel=st.sampled_from(("paired", "reference")),
           window_filter=st.booleans())
    def test_opdca_admission_matches_oracle(self, params, equation,
                                            kernel, window_filter):
        jobset = self._case(params, equation)

        def test():
            return SDCA(jobset, equation, analyzer=DelayAnalyzer(
                jobset, kernel=kernel, window_filter=window_filter))

        self._assert_same(opdca_admission(jobset, equation, test=test()),
                          stock_opdca_admission(jobset, equation,
                                                test=test()))

    @settings(max_examples=30, deadline=None)
    @given(case_seed=st.integers(0, 200),
           equation=st.sampled_from(("eq5", "eq6", "eq10")),
           gamma=st.sampled_from((1.0, 1.4, 2.0)))
    def test_opdca_admission_matches_oracle_on_edge_cases(
            self, case_seed, equation, gamma):
        """Congested edge workloads: long discard cascades."""
        jobset = generate_edge_case(
            EdgeWorkloadConfig(num_jobs=12, num_aps=4, num_servers=3,
                               gamma=gamma),
            seed=case_seed).jobset
        self._assert_same(opdca_admission(jobset, equation),
                          stock_opdca_admission(jobset, equation))

    @settings(max_examples=40, deadline=None)
    @given(params=instances, equation=st.sampled_from(ALL_EQUATIONS))
    def test_cold_stock_adapter_matches_oracle(self, params, equation):
        """The online cold controller: same result as the oracle, and
        every level is evaluated in full, as the stock loop does."""
        jobset = self._case(params, equation)
        rows_seen = []

        class Recording(_StockExcessLevels):
            def delays_rows(self, rows, unassigned, assigned_lower):
                rows_seen.append(
                    np.array_equal(rows, np.flatnonzero(unassigned)))
                return super().delays_rows(rows, unassigned,
                                           assigned_lower)

        cold = _frontier_admission(jobset, SDCA(jobset, equation),
                                   discard=True, adapter=Recording)
        self._assert_same(cold, stock_opdca_admission(jobset, equation))
        assert len(rows_seen) == jobset.num_jobs and all(rows_seen)
