"""The array-built OPT ILP equals the per-row build, bit for bit.

:func:`build_opt_model` appends each job's Eq. 9a rows and its Eq. 8
deadline row as numpy blocks.  The oracle below is the earlier per-row
construction, copied verbatim together with the dict-of-rows builder it
used, so the comparison does not lean on any code under test.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.dca import DelayAnalyzer
from repro.core.schedulability import resolve_equation
from repro.pairwise.ilp import (
    _stage_plan,
    build_opt_model,
    job_additive_coefficients,
)
from repro.solver.milp import MILPProblem
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case


class _DictRowBuilder:
    """The earlier ``ModelBuilder``: one dict per constraint row."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._integrality: list[int] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._objective: list[float] = []
        self._ub_rows: list[dict[int, float]] = []
        self._ub_rhs: list[float] = []
        self._eq_rows: list[dict[int, float]] = []
        self._eq_rhs: list[float] = []

    def add_variable(self, name: str, *, lower: float = 0.0,
                     upper: float = np.inf, integer: bool = False,
                     objective: float = 0.0) -> int:
        if lower > upper:
            raise ValueError(f"variable {name}: lower {lower} > upper {upper}")
        self._names.append(name)
        self._integrality.append(1 if integer else 0)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._objective.append(float(objective))
        return len(self._names) - 1

    def add_binary(self, name: str, *, objective: float = 0.0) -> int:
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True,
                                 objective=objective)

    def add_continuous(self, name: str, *, lower: float = 0.0,
                       upper: float = np.inf,
                       objective: float = 0.0) -> int:
        return self.add_variable(name, lower=lower, upper=upper,
                                 integer=False, objective=objective)

    def add_leq(self, coefficients: dict[int, float], rhs: float) -> int:
        self._check_columns(coefficients)
        self._ub_rows.append(dict(coefficients))
        self._ub_rhs.append(float(rhs))
        return len(self._ub_rows) - 1

    def add_geq(self, coefficients: dict[int, float], rhs: float) -> int:
        negated = {idx: -value for idx, value in coefficients.items()}
        return self.add_leq(negated, -float(rhs))

    def add_eq(self, coefficients: dict[int, float], rhs: float) -> int:
        self._check_columns(coefficients)
        self._eq_rows.append(dict(coefficients))
        self._eq_rhs.append(float(rhs))
        return len(self._eq_rows) - 1

    def _check_columns(self, coefficients: dict[int, float]) -> None:
        num_vars = len(self._names)
        for idx in coefficients:
            if not 0 <= idx < num_vars:
                raise IndexError(f"unknown variable index {idx}")

    def build(self) -> MILPProblem:
        num_vars = len(self._names)

        def to_sparse(rows: list[dict[int, float]]) -> sparse.csr_matrix:
            data, row_idx, col_idx = [], [], []
            for r, row in enumerate(rows):
                for c, value in row.items():
                    row_idx.append(r)
                    col_idx.append(c)
                    data.append(value)
            return sparse.csr_matrix(
                (data, (row_idx, col_idx)), shape=(len(rows), num_vars))

        return MILPProblem(
            objective=np.asarray(self._objective, dtype=float),
            integrality=np.asarray(self._integrality, dtype=np.int64),
            lower=np.asarray(self._lower, dtype=float),
            upper=np.asarray(self._upper, dtype=float),
            a_ub=to_sparse(self._ub_rows),
            b_ub=np.asarray(self._ub_rhs, dtype=float),
            a_eq=to_sparse(self._eq_rows),
            b_eq=np.asarray(self._eq_rhs, dtype=float),
            names=list(self._names),
        )


def oracle_model(jobset, equation: str, mode: str):
    """``(problem, pair_vars, theta_vars, lambda_vars, selector_vars)``
    from the per-row loop."""
    equation = resolve_equation(equation)
    analyzer = DelayAnalyzer(jobset)
    n = jobset.num_jobs
    num_stages = jobset.num_stages
    ep = analyzer.cache.ep
    coefficients = job_additive_coefficients(analyzer, equation)
    big_m = float(jobset.P.max())
    theta_stages, lambda_stages = _stage_plan(equation, num_stages)

    relevant = jobset.conflicts & jobset.overlaps

    builder = _DictRowBuilder()
    pair_vars: dict[tuple[int, int], int] = {}
    for i in range(n):
        for k in range(i + 1, n):
            if relevant[i, k]:
                pair_vars[(i, k)] = builder.add_binary(f"x[{i}>{k}]")

    def higher_term(k: int, i: int) -> tuple[int, float, float]:
        if k < i:
            return pair_vars[(k, i)], 1.0, 0.0
        var = pair_vars[(i, k)]
        return var, -1.0, 1.0

    theta_vars: dict[tuple[int, int], int] = {}
    lambda_vars: dict[tuple[int, int], int] = {}
    selector_vars: dict[tuple[int, int, int], int] = {}

    for i in range(n):
        for j in theta_stages:
            theta_vars[(i, j)] = builder.add_continuous(
                f"theta[{i},{j}]", lower=float(ep[i, i, j]))
        for j in lambda_stages:
            lambda_vars[(i, j)] = builder.add_continuous(
                f"lambda[{i},{j}]", lower=0.0)

    for i in range(n):
        neighbours = [int(k) for k in np.flatnonzero(relevant[i])]
        for j in theta_stages:
            theta = theta_vars[(i, j)]
            for k in neighbours:
                value = float(ep[i, k, j])
                if value <= 0.0:
                    continue
                var, coeff, const = higher_term(k, i)
                builder.add_geq({theta: 1.0, var: -value * coeff},
                                value * const)
        for j in lambda_stages:
            lam = lambda_vars[(i, j)]
            for k in neighbours:
                value = float(ep[i, k, j])
                if value <= 0.0:
                    continue
                var, coeff, const = higher_term(k, i)
                builder.add_geq({lam: 1.0, var: value * coeff},
                                value * (1.0 - const))
        if mode == "faithful":
            _oracle_selectors(builder, i, theta_stages, theta_vars, ep,
                              neighbours, higher_term, big_m,
                              selector_vars, lower_set=False)
            _oracle_selectors(builder, i, lambda_stages, lambda_vars, ep,
                              neighbours, higher_term, big_m,
                              selector_vars, lower_set=True)
        row: dict[int, float] = {}
        rhs = float(jobset.D[i]) - float(coefficients[i, i])
        for k in neighbours:
            weight = float(coefficients[i, k])
            if weight == 0.0:
                continue
            var, coeff, const = higher_term(k, i)
            row[var] = row.get(var, 0.0) + weight * coeff
            rhs -= weight * const
        for j in theta_stages:
            row[theta_vars[(i, j)]] = 1.0
        for j in lambda_stages:
            row[lambda_vars[(i, j)]] = 1.0
        builder.add_leq(row, rhs)

    return (builder.build(), pair_vars, theta_vars, lambda_vars,
            selector_vars)


def _oracle_selectors(builder, i, stages, max_vars, ep, neighbours,
                      higher_term, big_m, selector_vars, *, lower_set):
    for j in stages:
        target = max_vars[(i, j)]
        members: list[int] = []
        b_self = builder.add_binary(f"b[{i},{j},self]")
        selector_vars[(i, j, i)] = b_self
        members.append(b_self)
        self_value = 0.0 if lower_set else float(ep[i, i, j])
        builder.add_leq({target: 1.0, b_self: big_m}, self_value + big_m)
        for k in neighbours:
            value = float(ep[i, k, j])
            b_k = builder.add_binary(f"b[{i},{j},{k}]")
            selector_vars[(i, j, k)] = b_k
            members.append(b_k)
            if value <= 0.0:
                builder.add_leq({target: 1.0, b_k: big_m}, big_m)
                continue
            var, coeff, const = higher_term(k, i)
            if lower_set:
                coeff, const = -coeff, 1.0 - const
            builder.add_leq(
                {target: 1.0, var: -value * coeff, b_k: big_m},
                value * const + big_m)
        builder.add_eq({b: 1.0 for b in members}, 1.0)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape and bytes (so ``-0.0`` differs from ``0.0``)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _assert_same_problem(got: MILPProblem, want: MILPProblem) -> None:
    for field in ("objective", "integrality", "lower", "upper", "b_ub",
                  "b_eq"):
        assert _same(getattr(got, field), getattr(want, field)), field
    assert got.names == want.names
    for field in ("a_ub", "a_eq"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.shape == w.shape, field
        for part in ("data", "indices", "indptr"):
            assert _same(getattr(g, part), getattr(w, part)), \
                (field, part)


def _fig2(request):
    return request.getfixturevalue("fig2_jobset")


def _edge(beta: float):
    return lambda _request: generate_edge_case(
        EdgeWorkloadConfig(beta=beta), seed=0).jobset


JOBSETS = {"fig2": _fig2, "edge-0.05": _edge(0.05),
           "edge-0.15": _edge(0.15), "edge-0.3": _edge(0.3)}


@pytest.mark.parametrize("mode", ("compact", "faithful"))
@pytest.mark.parametrize("equation", ("eq6", "eq4", "eq10"))
@pytest.mark.parametrize("source", sorted(JOBSETS))
def test_model_matches_per_row_oracle(request, source, equation, mode):
    jobset = JOBSETS[source](request)
    problem, pair_vars, theta_vars, lambda_vars, selector_vars = \
        oracle_model(jobset, equation, mode)
    model = build_opt_model(jobset, equation, mode=mode)
    _assert_same_problem(model.problem, problem)
    assert model.pair_vars == pair_vars
    assert model.theta_vars == theta_vars
    assert model.lambda_vars == lambda_vars
    assert model.selector_vars == selector_vars


def test_signed_zeros_survive_in_b_ub():
    """A theta row whose neighbour is higher indexed-lower keeps the
    ``-(value * 0.0)`` right-hand side, i.e. ``-0.0``."""
    jobset = generate_edge_case(EdgeWorkloadConfig(), seed=0).jobset
    b_ub = build_opt_model(jobset, "eq10").problem.b_ub
    negative_zeros = (b_ub == 0.0) & np.signbit(b_ub)
    assert negative_zeros.sum() > 0
    assert _same(b_ub, oracle_model(jobset, "eq10", "compact")[0].b_ub)
