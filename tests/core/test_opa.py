"""Unit tests for the generic Audsley OPA engine."""


import numpy as np

from repro.core.opa import audsley, audsley_frontier


def priority_test(feasible_orders):
    """Build a test callback accepting job i at a level iff some order
    in ``feasible_orders`` (highest first) puts i at that position,
    given the currently unassigned set.  Simpler: delegate to a closure
    below in concrete tests."""


class TestBasicAssignment:
    def test_all_always_feasible_assigns_in_scan_order(self):
        result = audsley(3, lambda i, higher, lower: True)
        assert result.feasible
        # Lowest priority (3) goes to the first scanned job (J0).
        assert result.priority.tolist() == [3, 2, 1]
        assert result.order == [2, 1, 0]

    def test_respects_feasibility(self):
        # J0 only feasible when nothing else is above it -> must be the
        # single highest-priority job.
        def test(i, higher, lower):
            if i == 0:
                return not higher.any()
            return True

        result = audsley(3, test)
        assert result.feasible
        assert result.priority[0] == 1

    def test_infeasible_reports_level_and_unassigned(self):
        # Nothing can ever take the lowest priority.
        result = audsley(3, lambda i, higher, lower: not higher.any())
        assert not result.feasible
        assert result.failed_level == 3
        assert result.unassigned == [0, 1, 2]
        assert result.order == []

    def test_partial_failure(self):
        # Exactly one job (J2) tolerates others above it; after J2
        # takes priority 3, nobody can take priority 2.
        def test(i, higher, lower):
            return i == 2 or not higher.any()

        result = audsley(3, test)
        assert not result.feasible
        assert result.failed_level == 2
        assert set(result.unassigned) == {0, 1}
        assert result.priority[2] == 3


class TestMaskContract:
    def test_masks_reflect_algorithm_state(self):
        observed = []

        def test(i, higher, lower):
            observed.append((i, higher.copy(), lower.copy()))
            return True

        audsley(3, test)
        # First call: level 3, i=0, everything else unassigned/higher.
        i, higher, lower = observed[0]
        assert i == 0
        assert higher.tolist() == [False, True, True]
        assert not lower.any()
        # Second accepted call: level 2, i=1, J0 already lower.
        i, higher, lower = observed[1]
        assert i == 1
        assert higher.tolist() == [False, False, True]
        assert lower.tolist() == [True, False, False]

    def test_self_never_in_higher_mask(self):
        def test(i, higher, lower):
            assert not higher[i]
            assert not lower[i]
            return True

        audsley(4, test)


class TestCandidateSubset:
    def test_only_candidates_assigned(self):
        result = audsley(5, lambda i, h, lo: True,
                         candidates=[1, 3, 4])
        assert result.feasible
        assert result.priority[0] == 0
        assert result.priority[2] == 0
        assert sorted(result.priority[[1, 3, 4]].tolist()) == [1, 2, 3]

    def test_non_candidates_never_in_masks(self):
        def test(i, higher, lower):
            assert not higher[0]
            assert not lower[0]
            return True

        audsley(3, test, candidates=[1, 2])


class TestOptimality:
    def test_finds_the_unique_feasible_order(self):
        # Feasibility encodes the unique order J2 > J1 > J0:
        # job i tolerates exactly the jobs with larger index above it.
        def test(i, higher, lower):
            return not higher[:i].any()

        result = audsley(3, test)
        assert result.feasible
        assert result.order == [2, 1, 0]
        assert result.priority.tolist() == [3, 2, 1]


class _StaticKernel:
    """Frontier kernel whose values ignore the level context: a
    candidate passes iff its value is at most 1."""

    monotone = True
    float_monotone = True

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.deadline_tol = np.ones(len(values))
        self.discarded = []

    def delays_rows(self, rows, unassigned, assigned_lower):
        return self.values[rows]

    def probe(self, i, unassigned, assigned_lower):
        return float(self.values[i])

    def discard(self, j):
        self.discarded.append(j)


class TestFrontierDiscard:
    def test_stops_at_the_first_infeasible_level_by_default(self):
        result = audsley_frontier(3, _StaticKernel([5.0, 0.0, 5.0]))
        assert not result.feasible
        assert result.failed_level == 2
        assert result.unassigned == [0, 2]
        assert result.rejected == []

    def test_discards_the_worst_offender_ties_to_larger_index(self):
        kernel = _StaticKernel([5.0, 0.0, 5.0, 3.0])
        result = audsley_frontier(4, kernel, discard=True)
        # Level 4 places J1; level 3 ties J0/J2 at 5 -> J2 goes first,
        # then J0 (5 > 3), then J3 (still above 1) at level 1.
        assert result.rejected == [2, 0, 3]
        assert kernel.discarded == [2, 0, 3]
        assert result.order == [1]
        assert not result.feasible
        assert result.failed_level is None

    def test_without_discards_matches_the_plain_run(self):
        values = [0.5, 0.0, 1.0]
        plain = audsley_frontier(3, _StaticKernel(values))
        kernel = _StaticKernel(values)
        discarding = audsley_frontier(3, kernel, discard=True)
        assert discarding.feasible and plain.feasible
        assert discarding.order == plain.order
        assert discarding.priority.tolist() == plain.priority.tolist()
        assert discarding.rejected == kernel.discarded == []


class _LevelTableKernel:
    """Monotone-in-exact-arithmetic frontier kernel (like ``eq10``):
    ``table[depth][i]`` is candidate ``i``'s value once ``depth`` jobs
    are placed; a candidate passes iff its value is at most 1."""

    monotone = True
    float_monotone = False

    def __init__(self, table):
        self.table = np.asarray(table, dtype=float)
        self.deadline_tol = np.ones(self.table.shape[1])
        self.probes = []

    def value(self, rows, assigned_lower):
        return self.table[int(assigned_lower.sum())][rows]

    def delays_rows(self, rows, unassigned, assigned_lower):
        return self.value(rows, assigned_lower)

    def probe(self, i, unassigned, assigned_lower):
        self.probes.append(i)
        return float(self.value(i, assigned_lower))

    def batch_test(self, unassigned, assigned_lower):
        return self.value(slice(None), assigned_lower) <= 1.0


class TestCarriedUpperBound:
    """A carried candidate is placed without a probe only when its
    value plus the safety margin clears the threshold."""

    @staticmethod
    def _assert_stock(result, kernel):
        stock = audsley(kernel.table.shape[1], lambda *a: False,
                        batch_test=kernel.batch_test)
        assert result.feasible == stock.feasible
        assert result.priority.tolist() == stock.priority.tolist()
        assert result.order == stock.order
        assert result.failed_level == stock.failed_level
        assert result.unassigned == stock.unassigned

    def test_a_bound_inside_the_margin_is_probed(self):
        # J1 passes at level 3 by less than the margin, then rises
        # (by less than the margin) above its threshold: the carried
        # value must not place it.
        kernel = _LevelTableKernel([[0.5, 1.0 - 1e-12, 0.5],
                                    [0.5, 1.0 + 1e-12, 0.5],
                                    [0.5, 1.0 + 1e-12, 0.5]])
        result = audsley_frontier(3, kernel)
        assert kernel.probes == [1]
        assert result.order == [2, 0]
        assert result.failed_level == 1
        self._assert_stock(result, kernel)

    def test_a_bound_that_clears_the_margin_is_placed_unprobed(self):
        # Level 4 places J1 and carries J2; at level 3 J0 still fails
        # and J2 is placed from its carried value.
        kernel = _LevelTableKernel([[2.0, 0.5, 0.9, 0.5],
                                    [2.0, 0.5, 0.9, 0.5],
                                    [2.0, 0.5, 0.9, 0.5],
                                    [0.5, 0.5, 0.9, 0.5]])
        result = audsley_frontier(4, kernel)
        assert kernel.probes == []
        assert result.order == [0, 3, 2, 1]
        self._assert_stock(result, kernel)

    def test_a_full_level_inside_the_margin_is_not_emitted(self):
        # Every candidate passes at level 3, J2 only by less than the
        # margin: the trajectory is not emitted blind, and J2's rise
        # at level 1 is caught.
        kernel = _LevelTableKernel([[0.5, 0.5, 1.0 - 1e-12],
                                    [0.5, 0.5, 1.0 - 1e-12],
                                    [0.5, 0.5, 1.0 + 1e-12]])
        result = audsley_frontier(3, kernel)
        assert not result.feasible
        assert result.failed_level == 1
        self._assert_stock(result, kernel)

    def test_a_full_level_that_clears_the_margin_is_emitted(self):
        kernel = _LevelTableKernel([[0.5, 0.5, 0.5]] * 3)
        calls = []
        rows_of = kernel.delays_rows
        kernel.delays_rows = lambda *a: calls.append(a[0]) or rows_of(*a)
        result = audsley_frontier(3, kernel)
        assert len(calls) == 1 and kernel.probes == []
        assert result.order == [2, 1, 0]
        self._assert_stock(result, kernel)
