"""OPT driver: optimal pairwise priority assignment (Section V.A).

Builds the ILP of Eqs. 7-9 and solves it with a complete backend, or
bypasses the ILP entirely with the exact CP search.  OPT is a pure
feasibility problem, so a caller holding an assignment it believes
feasible (a DM, DMR or OPDCA result) may pass it as a *witness* and
skip the solver.  Every solution -- witness or solver output -- is
verified against the :class:`~repro.core.dca.DelayAnalyzer` before it
is returned, so a buggy model, backend or heuristic cannot silently
accept an infeasible instance.

:func:`opt_decomposed` exploits the conflict-graph structure: every
delay term of ``J_i`` involves only jobs sharing a resource with it, so
connected components of the conflict graph are independent
sub-problems.  Solving them separately turns one ILP over ``p`` pair
variables into several ILPs over the per-component pair counts --
exponentially cheaper whenever the mapping splits the jobs.
"""

from __future__ import annotations

import numpy as np

from repro.core.dca import DelayAnalyzer
from repro.core.exceptions import SolverError
from repro.core.priorities import PairwiseAssignment
from repro.core.schedulability import DEADLINE_TOLERANCE, resolve_equation
from repro.core.system import JobSet
from repro.pairwise.conflicts import ConflictGraph
from repro.pairwise.ilp import build_opt_model, extract_assignment
from repro.pairwise.results import PairwiseResult
from repro.pairwise.search import cp_search
from repro.solver.branch_bound import solve_branch_bound
from repro.solver.highs import solve_highs
from repro.solver.result import SolveStatus

#: Available OPT backends.
BACKENDS = ("highs", "branch_bound", "cp")


def opt(jobset: JobSet, equation: str = "eq6", *,
        backend: str = "highs", mode: str = "compact",
        analyzer: DelayAnalyzer | None = None,
        time_limit: float | None = None,
        node_limit: int | None = None,
        witness: PairwiseAssignment | None = None) -> PairwiseResult:
    """Compute an optimal (complete) pairwise priority assignment.

    Parameters
    ----------
    jobset:
        Job set with its mapping.
    equation:
        ``eq6`` (preemptive, default), ``eq10`` (edge pipeline) or
        ``eq4`` (non-preemptive).
    backend:
        ``"highs"`` (scipy MILP), ``"branch_bound"`` (from-scratch 0/1
        B&B) or ``"cp"`` (exact backtracking search, no LP).
    mode:
        ILP linearisation, ``"compact"`` or ``"faithful"`` (ignored by
        the CP backend).
    time_limit / node_limit:
        Optional backend budgets.
    witness:
        An assignment already believed to meet every deadline (e.g. a
        feasible DM, DMR or OPDCA result).  Any feasible assignment is
        optimal for this feasibility problem, so when given, no model
        is built and no backend runs: the witness is verified like a
        solver solution and returned with ``stats["status"] ==
        "witness"``.  A witness that misses a deadline raises
        :class:`SolverError` -- it is never silently rejected or
        replaced by a search.

    Returns
    -------
    PairwiseResult
        ``feasible`` is True iff a deadline-respecting assignment was
        found; exact backends report ``feasible=False`` only on proven
        infeasibility (check ``stats`` for budget exhaustion).
    """
    equation = resolve_equation(equation)
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if analyzer is None:
        analyzer = DelayAnalyzer(jobset)

    if witness is not None:
        return _verified(jobset, analyzer, equation, witness,
                         solver="opt/witness", stats={"status": "witness"})

    if backend == "cp":
        result = cp_search(jobset, equation, analyzer=analyzer,
                           **({"decision_limit": node_limit}
                              if node_limit else {}))
        result.solver = "opt/cp"
        return result

    model = build_opt_model(jobset, equation, mode=mode, analyzer=analyzer)
    if backend == "highs":
        solve = solve_highs(model.problem, time_limit=time_limit,
                            node_limit=node_limit)
    else:
        solve = solve_branch_bound(
            model.problem,
            **({"node_limit": node_limit} if node_limit else {}))

    stats = {
        "backend": backend,
        "mode": mode,
        "variables": model.problem.num_vars,
        "pair_variables": model.num_pair_vars,
        "constraints": model.problem.num_constraints,
        "status": solve.status.value,
    }
    stats.update(solve.stats)

    if solve.status is SolveStatus.INFEASIBLE:
        return PairwiseResult(feasible=False, assignment=None, delays=None,
                              equation=equation, solver=f"opt/{backend}",
                              stats=stats)
    if not solve.feasible:
        raise SolverError(
            f"OPT backend {backend} returned status {solve.status.value} "
            f"(neither solved nor proven infeasible); consider raising "
            f"the time/node limits")

    assignment = extract_assignment(model, solve.x, jobset)
    return _verified(jobset, analyzer, equation, assignment,
                     solver=f"opt/{backend}", stats=stats)


def _verified(jobset: JobSet, analyzer: DelayAnalyzer, equation: str,
              assignment: PairwiseAssignment, *, solver: str,
              stats: dict) -> PairwiseResult:
    """Recompute every bound under ``assignment`` and return it as a
    feasible OPT result, or raise if any job misses its deadline."""
    delays = analyzer.delays_for_pairwise(
        assignment.matrix(), equation=equation)
    if (delays > jobset.D + max(DEADLINE_TOLERANCE, 1e-6)).any():
        worst = int(np.argmax(delays - jobset.D))
        raise SolverError(
            f"{solver} solution violates the analysis: job {worst} has "
            f"bound {delays[worst]:.6g} > deadline {jobset.D[worst]:.6g} "
            f"(inconsistent model, backend or witness)")
    return PairwiseResult(feasible=True, assignment=assignment,
                          delays=delays, equation=equation,
                          solver=solver, stats=stats)


def _component_jobset(jobset: JobSet, members: "list[int]") -> JobSet:
    """A sub-jobset containing only the component's jobs.

    Valid because every delay term of a member involves only jobs it
    shares a resource with -- all inside the component -- and jobs
    outside contribute ``ep = 0`` to every sum, max and blocking term.
    """
    return JobSet(jobset.system, [jobset.jobs[i] for i in members])


def opt_decomposed(jobset: JobSet, equation: str = "eq6", *,
                   backend: str = "highs", mode: str = "compact",
                   analyzer: DelayAnalyzer | None = None,
                   time_limit: float | None = None,
                   node_limit: int | None = None) -> PairwiseResult:
    """OPT solved independently per conflict-graph component.

    Returns the same verdict as :func:`opt` (both are complete), with
    ``stats["components"]`` recording the decomposition.  Isolated jobs
    (no conflicts) are checked directly against their deadline without
    any solver call.  On infeasibility, ``stats["failed_component"]``
    names the sub-problem that cannot be scheduled.
    """
    equation = resolve_equation(equation)
    if analyzer is None:
        analyzer = DelayAnalyzer(jobset)
    graph = ConflictGraph(jobset)
    components = graph.components()
    n = jobset.num_jobs
    matrix = np.zeros((n, n), dtype=bool)
    none = np.zeros(n, dtype=bool)
    stats: dict = {
        "backend": backend,
        "mode": mode,
        "components": [len(component) for component in components],
    }
    for index, members in enumerate(components):
        if len(members) == 1:
            i = members[0]
            bound = analyzer.delay_bound(i, none, none,
                                         equation=equation)
            if bound > jobset.D[i] + DEADLINE_TOLERANCE:
                stats["failed_component"] = index
                return PairwiseResult(
                    feasible=False, assignment=None, delays=None,
                    equation=equation, solver=f"opt-decomposed/{backend}",
                    stats=stats)
            continue
        sub_jobset = _component_jobset(jobset, members)
        sub_result = opt(sub_jobset, equation, backend=backend,
                         mode=mode, time_limit=time_limit,
                         node_limit=node_limit)
        if not sub_result.feasible:
            stats["failed_component"] = index
            return PairwiseResult(
                feasible=False, assignment=None, delays=None,
                equation=equation, solver=f"opt-decomposed/{backend}",
                stats=stats)
        sub_matrix = sub_result.assignment.matrix()
        index_map = np.array(members)
        matrix[np.ix_(index_map, index_map)] = sub_matrix
    assignment = PairwiseAssignment(jobset, matrix)
    delays = analyzer.delays_for_pairwise(matrix, equation=equation)
    if (delays > jobset.D + max(DEADLINE_TOLERANCE, 1e-6)).any():
        worst = int(np.argmax(delays - jobset.D))
        raise SolverError(
            f"decomposed OPT solution violates the full-instance "
            f"analysis: job {worst} has bound {delays[worst]:.6g} > "
            f"deadline {jobset.D[worst]:.6g} (decomposition bug)")
    return PairwiseResult(feasible=True, assignment=assignment,
                          delays=delays, equation=equation,
                          solver=f"opt-decomposed/{backend}",
                          stats=stats)
