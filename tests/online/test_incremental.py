"""Bitwise-consistency tests for the incremental analysis stack.

The contract of :mod:`repro.online.incremental` is *exact* equivalence
with cold re-analysis: sliced job sets and segment caches, row-sliced
batch bounds, active-masked scalar bounds and the lazily evaluated
admission controller must all reproduce the cold path bit for bit.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dca import DelayAnalyzer
from repro.core.intervals import overlap_matrix
from repro.core.schedulability import SDCA
from repro.core.segments import SegmentCache
from repro.core.system import JobSet
from repro.online.incremental import (
    IncrementalAnalyzer,
    cold_analysis,
    incremental_admission,
)
from repro.online.streams import (
    StreamConfig,
    clustered_stream,
    generate_stream,
)
from repro.workload.random_jobs import RandomInstanceConfig, random_jobset
from tests.core.test_partition import assert_cache_bitwise, warm_twins
from tests.properties.test_property_kernels import stock_opdca_admission


def _universe(seed, num_jobs=14, *, offsets=True):
    config = RandomInstanceConfig(
        num_jobs=num_jobs, num_stages=3, resources_per_stage=2,
        max_offset=30.0 if offsets else 0.0)
    return random_jobset(config, seed=seed)


class TestRestrict:
    def test_jobset_restrict_is_bitwise_cold(self):
        universe = _universe(0)
        idx = np.array([1, 3, 4, 8, 11])
        warm = universe.restrict(idx)
        cold = JobSet(universe.system,
                      [universe.jobs[int(i)] for i in idx])
        for name in ("P", "A", "D", "R", "shares", "overlaps",
                     "conflicts"):
            assert getattr(warm, name).tobytes() == \
                getattr(cold, name).tobytes(), name
        assert warm.jobs == cold.jobs

    @pytest.mark.parametrize("parent_overlaps", (False, True))
    def test_sliced_overlaps_match_recomputed(self, parent_overlaps):
        """A subset slices its parent's ``overlaps`` when the parent
        holds it (nested too); either way it equals recomputing."""
        universe = _universe(6, num_jobs=16)
        if parent_overlaps:
            universe.overlaps
        shard = universe.restrict(np.arange(1, 16, 2))
        subset = shard.restrict([0, 3, 4, 7])
        for sliced in (shard, subset):
            assert (sliced._overlaps is not None) == parent_overlaps
            expected = overlap_matrix(sliced.A, sliced.D)
            assert sliced.overlaps.tobytes() == expected.tobytes()

    def test_segment_cache_restrict_is_bitwise_cold(self):
        universe = _universe(1)
        idx = np.array([0, 2, 5, 6, 9, 13])
        warm_set = universe.restrict(idx)
        warm = SegmentCache(universe).restrict(warm_set, idx)
        cold = SegmentCache(
            JobSet(universe.system,
                   [universe.jobs[int(i)] for i in idx]))
        assert_cache_bitwise(warm, cold)

    @pytest.mark.parametrize("parent_twins", (False, True))
    def test_nested_restrict_is_bitwise_cold(self, parent_twins):
        """Universe -> shard -> subset, the online engine's nesting,
        with every parent twin already materialised or not."""
        universe = _universe(7, num_jobs=16)
        cache = SegmentCache(universe)
        shard_idx = np.array([0, 1, 4, 5, 8, 9, 12, 13, 15])
        shard = universe.restrict(shard_idx)
        shard_cache = cache.restrict(shard, shard_idx)
        if parent_twins:
            warm_twins(cache)
            warm_twins(shard_cache)
        local = np.array([1, 2, 5, 8])
        subset = shard.restrict(local)
        warm = shard_cache.restrict(subset, local)
        cold = SegmentCache(JobSet(
            universe.system,
            [universe.jobs[int(i)] for i in shard_idx[local]]))
        assert_cache_bitwise(warm, cold)

    def test_restrict_validates_indices(self):
        from repro.core.exceptions import ModelError

        universe = _universe(2, num_jobs=5)
        with pytest.raises(ModelError):
            universe.restrict([])
        with pytest.raises(ModelError):
            universe.restrict([1, 1])
        with pytest.raises(ModelError):
            universe.restrict([0, 9])

    def test_analyzer_rejects_foreign_cache(self):
        universe = _universe(3, num_jobs=6)
        other = _universe(4, num_jobs=6)
        with pytest.raises(ValueError):
            DelayAnalyzer(universe, cache=SegmentCache(other))


class TestDelayBoundsRows:
    @pytest.mark.parametrize("equation",
                             ["eq3", "eq4", "eq5", "eq6", "eq10"])
    def test_rows_match_full_batch_bitwise(self, equation):
        universe = _universe(5)
        analyzer = DelayAnalyzer(universe)
        rng = np.random.default_rng(0)
        n = universe.num_jobs
        for _ in range(10):
            x = rng.random((n, n)) < 0.5
            active = rng.random(n) < 0.75
            full = analyzer.delay_bounds_all(
                x, x.T, equation=equation, active=active)
            rows = rng.choice(n, size=6, replace=False)
            sliced = analyzer.delay_bounds_rows(
                rows, x[rows], x.T[rows], equation=equation,
                active=active)
            expected = full[rows]
            same = (expected == sliced) | (np.isnan(expected)
                                           & np.isnan(sliced))
            assert same.all()

    @pytest.mark.parametrize("equation", ["eq1", "eq2"])
    def test_single_resource_rows_match_full_batch(self, equation):
        from repro.workload.random_jobs import (
            random_single_resource_jobset,
        )

        jobset = random_single_resource_jobset(seed=4, num_jobs=8,
                                               max_offset=10.0)
        analyzer = DelayAnalyzer(jobset)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.random((8, 8)) < 0.5
            full = analyzer.delay_bounds_all(x, x.T, equation=equation)
            rows = rng.choice(8, size=3, replace=False)
            sliced = analyzer.delay_bounds_rows(
                rows, x[rows], x.T[rows], equation=equation)
            assert np.array_equal(full[rows], sliced)

    def test_rows_validation(self):
        universe = _universe(6, num_jobs=5)
        analyzer = DelayAnalyzer(universe)
        with pytest.raises(ValueError):
            analyzer.delay_bounds_rows([0], np.ones((2, 5), bool))
        with pytest.raises(ValueError):
            analyzer.delay_bounds_rows([0], np.ones((1, 5), bool),
                                       equation="bogus")
        with pytest.raises(ValueError):
            analyzer.delay_bounds_rows([0], np.ones((1, 5), bool),
                                       equation="eq4")  # needs lower


sequence_params = st.fixed_dictionaries({
    "seed": st.integers(0, 5_000),
    "num_jobs": st.integers(4, 12),
    "ops": st.lists(st.integers(0, 10_000), min_size=2, max_size=14),
})


class TestDeltaConsistency:
    """After any random arrival/departure sequence, the persistent
    universe analyzer, restricted to the present jobs by an explicit
    ``active`` mask (the whole-universe scalar path of the sharded
    quick certificate), answers bitwise identically to a cold analyzer
    built from the surviving job set."""

    @settings(max_examples=40, deadline=None)
    @given(params=sequence_params)
    def test_scalar_bounds_match_cold_rebuild_bitwise(self, params):
        universe = _universe(params["seed"],
                             num_jobs=params["num_jobs"])
        analyzer = DelayAnalyzer(universe)
        test = SDCA(universe, "preemptive", analyzer=analyzer)
        n = universe.num_jobs
        present: list[int] = []
        rng = np.random.default_rng(params["seed"] + 1)
        for op in params["ops"]:
            absent = [i for i in range(n) if i not in present]
            if present and (op % 2 == 0 or not absent):
                present.pop(op % len(present))
            elif absent:
                present.append(absent[op % len(absent)])
            if not present:
                continue
            active = np.zeros(n, dtype=bool)
            active[present] = True
            # Random priority context over the survivors.
            ranks = rng.permutation(len(present))
            cold_set = JobSet(universe.system,
                              [universe.jobs[i] for i in sorted(present)])
            cold = DelayAnalyzer(cold_set)
            order = sorted(present)
            for position, uid in enumerate(order):
                higher_local = [j for j, other in enumerate(order)
                                if ranks[j] < ranks[position]]
                higher_uids = [order[j] for j in higher_local]
                live = test.delay(
                    uid,
                    analyzer.as_mask(higher_uids
                                         if higher_uids else None),
                    active=active)
                rebuilt = cold.delay_bound(
                    position,
                    cold.as_mask(higher_local
                                 if higher_local else None),
                    equation="eq6")
                assert live == rebuilt  # bitwise, not approx


admission_params = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "num_jobs": st.integers(2, 14),
    "offsets": st.booleans(),
    # eq10 exercises the monotone-but-not-float-monotone path (fused
    # frontier re-verification); eq3/eq5/eq6 the float-monotone one.
    "equation": st.sampled_from(["eq3", "eq5", "eq6", "eq10"]),
    # Unfiltered analyzers route eq3/eq5/eq6 through the frontier
    # driver instead of the certified bands.
    "window_filter": st.booleans(),
})


def _fresh_test(jobset, equation, window_filter):
    return SDCA(jobset, equation,
                analyzer=DelayAnalyzer(jobset, window_filter=window_filter))


class TestIncrementalAdmission:
    @settings(max_examples=60, deadline=None)
    @given(params=admission_params)
    def test_matches_stock_opdca_admission_bitwise(self, params):
        jobset = _universe(params["seed"],
                           num_jobs=params["num_jobs"],
                           offsets=params["offsets"])
        equation = params["equation"]
        window_filter = params["window_filter"]
        lazy = incremental_admission(
            jobset, _fresh_test(jobset, equation, window_filter))
        stock = stock_opdca_admission(
            jobset, equation,
            test=_fresh_test(jobset, equation, window_filter))
        assert lazy.accepted == stock.accepted
        assert lazy.rejected == stock.rejected
        assert np.array_equal(lazy.ordering, stock.ordering)
        assert np.array_equal(lazy.delays, stock.delays,
                              equal_nan=True)

    def test_sliced_subset_admission_matches_cold(self):
        """The engine's per-event pipeline: sliced caches + lazy
        admission == cold rebuild + stock admission, bitwise."""
        stream = generate_stream(
            StreamConfig(horizon=150.0, rate=0.3), seed=0)
        inc = IncrementalAnalyzer(stream.universe(), "preemptive")
        rng = np.random.default_rng(1)
        n = stream.num_events
        for _ in range(10):
            size = int(rng.integers(1, min(12, n) + 1))
            idx = np.sort(rng.choice(n, size=size, replace=False))
            warm = inc.subset(idx)
            cold = cold_analysis(stream.universe(), idx, "preemptive")
            lazy = incremental_admission(warm.jobset, warm.test)
            stock = stock_opdca_admission(
                cold.jobset, cold.test.equation, test=cold.test)
            assert lazy.accepted == stock.accepted
            assert lazy.rejected == stock.rejected
            assert np.array_equal(lazy.delays, stock.delays,
                                  equal_nan=True)

    @settings(max_examples=30, deadline=None)
    @given(params=st.fixed_dictionaries({
        "seed": st.integers(0, 10_000),
        "num_jobs": st.integers(2, 10),
        "equation": st.sampled_from(["eq1", "eq2"]),
        "preemptive": st.booleans(),
    }))
    def test_single_resource_equations_match_stock(self, params):
        """eq1/eq2 run the bespoke single-resource kernels (and eq2 is
        not OPA-compatible, forcing the full-batch path)."""
        from repro.workload.random_jobs import (
            random_single_resource_jobset,
        )

        jobset = random_single_resource_jobset(
            seed=params["seed"], num_jobs=params["num_jobs"],
            preemptive=params["preemptive"], max_offset=10.0)
        test = SDCA(jobset, params["equation"])
        lazy = incremental_admission(jobset, test)
        stock = stock_opdca_admission(jobset, params["equation"])
        assert lazy.accepted == stock.accepted
        assert lazy.rejected == stock.rejected
        assert np.array_equal(lazy.ordering, stock.ordering)
        assert np.array_equal(lazy.delays, stock.delays,
                              equal_nan=True)

    @settings(max_examples=25, deadline=None)
    @given(params=admission_params)
    def test_feasibility_variant_matches_stock(self, params):
        """None exactly when the full controller rejects someone; on
        success, bitwise identical to the full controller."""
        from repro.online.incremental import incremental_feasibility

        jobset = _universe(params["seed"], num_jobs=params["num_jobs"],
                           offsets=params["offsets"])
        equation = params["equation"]
        window_filter = params["window_filter"]
        outcome = incremental_feasibility(
            jobset, _fresh_test(jobset, equation, window_filter))
        stock = stock_opdca_admission(
            jobset, equation,
            test=_fresh_test(jobset, equation, window_filter))
        if stock.rejected:
            assert outcome is None
        else:
            assert outcome is not None
            assert outcome.accepted == stock.accepted
            assert outcome.rejected == []
            assert np.array_equal(outcome.ordering, stock.ordering)
            assert np.array_equal(outcome.delays, stock.delays,
                                  equal_nan=True)


    def test_cold_all_or_nothing_uses_the_admission_pass_rule(self):
        """A job whose excess ``Delta - D`` sits just above 1e-9 yet
        within ``D + 1e-9``: every admission path -- cold or
        incremental, full controller or all-or-nothing -- rejects it
        under the same ``Delta - D <= 1e-9`` rule."""
        from repro.core.job import Job
        from repro.core.system import MSMRSystem
        from repro.online.incremental import (
            admit_all_or_nothing,
            admit_outcome,
            trajectory_outcome,
        )

        jobset = JobSet(MSMRSystem.uniform(1, 1), [
            Job(processing=(10.000000001,), deadline=10.0,
                resources=(0,))])
        cold = cold_analysis(jobset, [0], "eq6")
        warm = IncrementalAnalyzer(jobset, "eq6").subset([0])
        assert admit_outcome(cold, mode="cold").result.rejected == [0]
        assert admit_outcome(warm).result.rejected == [0]
        for analysis, mode in ((cold, "cold"), (warm, "incremental")):
            assert trajectory_outcome(analysis, mode=mode).result is None
            assert admit_all_or_nothing(analysis, mode=mode) is None


# -- whole-universe witness search ------------------------------------

_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _stream_universe(kind, seed):
    """A clustered-stream or edge-pool universe (memoised: Hypothesis
    revisits the same few streams)."""
    if kind == "clustered":
        return clustered_stream(
            StreamConfig(kind="poisson", horizon=40.0, rate=1.0,
                         pool_size=30),
            clusters=3, cross_fraction=0.1, seed=seed).universe()
    return generate_stream(
        StreamConfig(horizon=40.0, rate=1.0, generator="edge",
                     pool_size=12), seed=seed).universe()


def _knife_edge(universe, indices, equation, margin):
    """``universe`` with every processing time scaled so that the
    subset's most slack job, evaluated with the rest of the subset
    above it, misses its deadline by ``tol + margin * 1e-9 * D``.
    Delay bounds are linear in processing times and windows ignore
    them, so every bound scales alike and no job keeps more slack:
    the first witness round has no certainly-feasible job and must
    refresh its straddlers exactly.  ``margin > 0`` makes that job a
    straddler that fails, ``margin < 0`` one that passes."""
    cold = cold_analysis(universe, indices, equation)
    k = cold.jobset.num_jobs
    every = np.ones(k, dtype=bool)
    bounds = cold.test.analyzer.level_bounds(
        every, None, equation=equation, active=every)
    deadlines = cold.jobset.D
    m = int(np.argmax(deadlines / bounds))
    target = deadlines[m] * (1.0 + margin * 1e-9) + _TOL
    alpha = target / bounds[m]
    jobs = [dataclasses.replace(
        job, processing=tuple(alpha * p for p in job.processing))
        for job in universe.jobs]
    return JobSet(universe.system, jobs)


def assert_witness(universe, indices, equation, ordering):
    """Cold reference-kernel check of a feasible assignment: every
    delay bound under ``ordering`` (1 = highest) is within its
    deadline plus the tolerance."""
    cold = cold_analysis(universe, indices, equation)
    k = cold.jobset.num_jobs
    priority = np.asarray(ordering)
    assert sorted(priority.tolist()) == list(range(1, k + 1))
    higher = priority[:, None] < priority[None, :]
    delays = cold.test.analyzer.delays_for_pairwise(
        higher, equation=equation, active=np.ones(k, dtype=bool))
    assert np.all(delays <= cold.jobset.D + _TOL), (
        f"witness misses a deadline by "
        f"{float(np.max(delays - cold.jobset.D))}")


witness_params = st.fixed_dictionaries({
    "kind": st.sampled_from(["clustered", "edge"]),
    "seed": st.integers(0, 5),
    "equation": st.sampled_from(["eq3", "eq5", "eq6"]),
    "subset_seed": st.integers(0, 10_000),
    "size": st.integers(1, 40),
    # None: the stream's own deadlines; otherwise scale to a
    # knife-edge first round (see _knife_edge).
    "margin": st.sampled_from([None, None, 0.25, -0.25]),
})


class TestWitnessSearch:
    @settings(max_examples=80, deadline=None)
    @given(params=witness_params)
    def test_verdict_matches_stock_and_cold_and_witness_holds(
            self, params):
        from repro.online.incremental import (
            admit_all_or_nothing,
            incremental_feasibility,
        )

        universe = _stream_universe(params["kind"], params["seed"])
        equation = params["equation"]
        rng = np.random.default_rng(params["subset_seed"])
        size = min(params["size"], universe.num_jobs)
        indices = np.sort(rng.choice(universe.num_jobs, size=size,
                                     replace=False))
        if params["margin"] is not None:
            universe = _knife_edge(universe, indices, equation,
                                   params["margin"])
        analysis = IncrementalAnalyzer(universe, equation).subset(indices)
        witness = admit_all_or_nothing(analysis)
        stock = incremental_feasibility(analysis.jobset, analysis.test)
        cold = admit_all_or_nothing(
            cold_analysis(universe, indices, equation), mode="cold")
        assert (witness is None) == (stock is None) == (cold is None)
        if witness is not None:
            assert witness.accepted == list(range(size))
            assert witness.rejected == []
            assert_witness(universe, indices, equation, witness.ordering)
