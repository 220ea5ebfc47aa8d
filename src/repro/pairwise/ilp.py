"""OPT -- ILP formulation of pairwise priority assignment (Eqs. 7-9).

One binary variable orients each conflicting pair (Eq. 7 is built in:
``X_{i,k}`` and ``X_{k,i}`` are complements of a single variable).  The
end-to-end delay of each job (Eq. 8) combines

* a linear job-additive term ``sum_k X_{k,i} * C_{i,k}`` where the
  coefficient ``C`` packs the ``w_{i,k}`` largest shared-stage times
  (Eq. 6) -- or the per-segment term of Eq. 4 for the non-preemptive
  variant -- all computable offline because segments depend only on the
  job-to-resource mapping, and
* per-stage maxima ``theta_{i,j} = max_{k in Q_i} ep_{k,j}`` (and, for
  the bounds with non-preemptive blocking, ``lambda_{i,j} = max_{k in
  L_i} ep_{k,j}``), linearised per Eq. 9.

Two linearisation modes are provided:

``faithful``
    Exactly the paper's Eq. 9: auxiliary selector binaries ``b_y`` with
    big-M upper bounds force ``theta`` to *equal* the maximum.

``compact``
    Lower bounds only (Eq. 9a).  Because ``theta``/``lambda`` appear
    with positive sign in constraints of the form ``Delta_i <= D_i``,
    any feasible point can set them to the exact maxima, so the two
    models accept exactly the same orientations while the compact one
    has no auxiliary binaries.  (Benchmarked in ablation A5.)

Pairs whose interference windows do not overlap are not given variables:
their orientation cannot influence any delay term (the analysis filters
them out), so they are fixed to the deadline-monotonic orientation when
the solution is extracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dca import DelayAnalyzer
from repro.core.priorities import PairwiseAssignment
from repro.core.schedulability import resolve_equation
from repro.core.system import JobSet
from repro.pairwise.dm import dm_assignment
from repro.solver.milp import MILPProblem, ModelBuilder

#: Equations the OPT model supports, mapped to
#: (stage-additive stages, lower-set blocking stages) selectors.
SUPPORTED_EQUATIONS = ("eq6", "eq10", "eq4")


@dataclass
class OPTModel:
    """The assembled ILP plus the variable bookkeeping needed to read a
    solution back."""

    problem: MILPProblem
    equation: str
    mode: str
    #: ``(i, k)`` with ``i < k`` -> column of the binary "J_i > J_k".
    pair_vars: dict[tuple[int, int], int]
    #: ``(job, stage)`` -> column of ``theta_{i,j}``.
    theta_vars: dict[tuple[int, int], int]
    #: ``(job, stage)`` -> column of ``lambda_{i,j}``.
    lambda_vars: dict[tuple[int, int], int]
    #: Selector binaries of the faithful mode, ``(job, stage, member)``.
    selector_vars: dict[tuple[int, int, int], int] = field(
        default_factory=dict)

    @property
    def num_pair_vars(self) -> int:
        return len(self.pair_vars)


def job_additive_coefficients(analyzer: DelayAnalyzer,
                              equation: str) -> np.ndarray:
    """``C[i, k]``: delay ``J_k`` adds to ``J_i`` when ``J_k`` is higher
    priority (the coefficient of ``X_{k,i}`` in Eq. 8)."""
    cache = analyzer.cache
    if equation in ("eq6", "eq10"):
        return cache.W.copy()
    if equation == "eq4":
        coefficients = cache.m * cache.et1
        n = coefficients.shape[0]
        coefficients[np.arange(n), np.arange(n)] = cache.t1
        return coefficients
    raise ValueError(f"OPT supports {SUPPORTED_EQUATIONS}, got {equation!r}")


def _stage_plan(equation: str, num_stages: int
                ) -> tuple[list[int], list[int]]:
    """Stages needing a ``theta`` (Q_i max) and a ``lambda`` (L_i max)."""
    if equation == "eq6":
        return list(range(num_stages - 1)), []
    if equation == "eq10":
        return [0, 1], [2]
    # eq4: stage-additive over all but last, blocking over all stages.
    return list(range(num_stages - 1)), list(range(num_stages))


def build_opt_model(jobset: JobSet, equation: str = "eq6", *,
                    mode: str = "compact",
                    analyzer: DelayAnalyzer | None = None) -> OPTModel:
    """Assemble the OPT ILP for ``jobset``.

    Parameters
    ----------
    jobset:
        Job set with its job-to-resource mapping.
    equation:
        Delay bound to encode: ``eq6`` (preemptive), ``eq10`` (edge
        pipeline) or ``eq4`` (non-preemptive; valid here because OPA
        compatibility is not needed for pairwise assignment).
    mode:
        ``"compact"`` or ``"faithful"`` (see module docstring).
    """
    equation = resolve_equation(equation)
    if equation not in SUPPORTED_EQUATIONS:
        raise ValueError(
            f"OPT supports {SUPPORTED_EQUATIONS}, got {equation!r}")
    if mode not in ("compact", "faithful"):
        raise ValueError(f"mode must be 'compact' or 'faithful', got {mode!r}")
    if analyzer is None:
        analyzer = DelayAnalyzer(jobset)

    n = jobset.num_jobs
    num_stages = jobset.num_stages
    ep = analyzer.cache.ep
    coefficients = job_additive_coefficients(analyzer, equation)
    big_m = float(jobset.P.max())
    theta_stages, lambda_stages = _stage_plan(equation, num_stages)

    relevant = jobset.conflicts & jobset.overlaps

    builder = ModelBuilder()
    pair_vars: dict[tuple[int, int], int] = {}
    # pair_col[i, k] = pair_col[k, i]: column of the pair's binary.
    pair_col = np.full((n, n), -1, dtype=np.int64)
    for i, k in zip(*(side.tolist()
                      for side in np.nonzero(np.triu(relevant, 1)))):
        var = builder.add_binary(f"x[{i}>{k}]")
        pair_vars[(i, k)] = pair_col[i, k] = pair_col[k, i] = var

    def higher_term(k: int, i: int) -> tuple[int, float, float]:
        """``X_{k,i}`` as ``(var, coefficient, constant)`` so that
        ``X_{k,i} = coefficient * var + constant``."""
        if k < i:
            return pair_vars[(k, i)], 1.0, 0.0
        var = pair_vars[(i, k)]
        return var, -1.0, 1.0

    theta_vars: dict[tuple[int, int], int] = {}
    lambda_vars: dict[tuple[int, int], int] = {}
    selector_vars: dict[tuple[int, int, int], int] = {}
    #: max_col[i, s]: column of job i's s-th maximum (its theta stages,
    #: then its lambda stages).
    max_col = np.empty((n, len(theta_stages) + len(lambda_stages)),
                       dtype=np.int64)
    for i in range(n):
        # theta_{i,j} >= ep_{i,j} always (J_i itself is in Q_i/Z_{i,j}),
        # folded into the variable's lower bound.
        for s, j in enumerate(theta_stages):
            theta_vars[(i, j)] = max_col[i, s] = builder.add_continuous(
                f"theta[{i},{j}]", lower=float(ep[i, i, j]))
        for s, j in enumerate(lambda_stages, start=len(theta_stages)):
            lambda_vars[(i, j)] = max_col[i, s] = builder.add_continuous(
                f"lambda[{i},{j}]", lower=0.0)

    rows, columns, values, rhs, deadline_row = _job_rows(
        jobset, ep, coefficients, relevant, pair_col, max_col,
        theta_stages, lambda_stages)
    if mode == "compact":
        builder.add_leq_block(rows, columns, values, rhs)
    else:
        # Eq. 9b/9c selectors go between each job's Eq. 9a rows and its
        # deadline row.
        cut = np.searchsorted(rows, np.arange(rhs.size + 1))

        def append(lo: int, hi: int) -> None:
            entries = slice(cut[lo], cut[hi])
            builder.add_leq_block(rows[entries] - lo, columns[entries],
                                  values[entries], rhs[lo:hi])

        first = 0
        for i in range(n):
            last = int(deadline_row[i])
            append(first, last)
            neighbours = [int(k) for k in np.flatnonzero(relevant[i])]
            _add_selectors(builder, i, theta_stages, theta_vars, ep,
                           neighbours, higher_term, big_m, selector_vars,
                           lower_set=False)
            _add_selectors(builder, i, lambda_stages, lambda_vars, ep,
                           neighbours, higher_term, big_m, selector_vars,
                           lower_set=True)
            append(last, last + 1)
            first = last + 1

    return OPTModel(problem=builder.build(), equation=equation, mode=mode,
                    pair_vars=pair_vars, theta_vars=theta_vars,
                    lambda_vars=lambda_vars, selector_vars=selector_vars)


def _job_rows(jobset: JobSet, ep: np.ndarray, coefficients: np.ndarray,
              relevant: np.ndarray, pair_col: np.ndarray,
              max_col: np.ndarray, theta_stages: list[int],
              lambda_stages: list[int]):
    """Every job's Eq. 9a rows and Eq. 8 deadline row as ``<=`` rows in
    coordinate form, sorted by row: ``(rows, columns, values, rhs,
    deadline_row)``.

    Job ``i`` owns a run of rows: one per theta stage ``j`` and
    neighbour ``k`` with ``ep_{i,k,j} > 0`` (``theta >= X_{k,i} ep``),
    then the same for its lambda stages (``lambda >= X_{i,k} ep``), both
    stored negated, and last its deadline row ``deadline_row[i]``.  Each
    value is the same float expression the per-row build evaluated, so
    signed zeros survive.
    """
    n = jobset.num_jobs
    # Directed neighbour pairs, job first: X_{k,i} = coeff * var + const.
    job, other = np.nonzero(relevant)
    var = pair_col[job, other]
    higher = other < job
    coeff = np.where(higher, 1.0, -1.0)
    const = np.where(higher, 0.0, 1.0)

    # Eq. 9a: per job, slot (theta stages, then lambda stages) major.
    ep_pairs = ep[job, other][:, theta_stages + lambda_stages]
    pair, slot = np.nonzero(~(ep_pairs <= 0.0))
    order = np.lexsort((other[pair], slot, job[pair]))
    pair, slot = pair[order], slot[order]
    value = ep_pairs[pair, slot]
    c, k = coeff[pair], const[pair]
    lower_set = slot >= len(theta_stages)
    max_job = job[pair]
    # Jobs before max_job own one deadline row each.
    max_row = np.arange(pair.size) + max_job
    # theta - value*(c*var + k) >= 0 and, with X_{i,k} = 1 - X_{k,i},
    # lambda + value*c*var >= value*(1 - k); both stored negated.
    max_value = np.where(lower_set, -(value * c), -(-value * c))
    max_rhs = np.where(lower_set, -(value * (1.0 - k)), -(value * k))

    # Eq. 8: C_{i,i} + sum_k C_{i,k} X_{k,i} + sum maxima <= D_i.
    per_job = np.bincount(max_job, minlength=n)
    deadline_row = np.cumsum(per_job) + np.arange(n)
    weight = coefficients[job, other]
    used = weight != 0.0
    bounds = (jobset.D - np.diagonal(coefficients)).tolist()
    # Left to right per job, exactly as a scalar running subtraction.
    for i, term in zip(job[used].tolist(),
                       (weight[used] * const[used]).tolist()):
        bounds[i] -= term
    rhs = np.empty(pair.size + n)
    rhs[max_row] = max_rhs
    rhs[deadline_row] = bounds

    slots = max_col.shape[1]
    rows = np.concatenate((max_row, max_row, deadline_row[job[used]],
                           np.repeat(deadline_row, slots)))
    columns = np.concatenate((max_col[max_job, slot], var[pair],
                              var[used], max_col.ravel()))
    values = np.concatenate((np.full(pair.size, -1.0), max_value,
                             0.0 + weight[used] * coeff[used],
                             np.ones(n * slots)))
    order = np.argsort(rows, kind="stable")
    return rows[order], columns[order], values[order], rhs, deadline_row


def _add_selectors(builder: ModelBuilder, i: int, stages: list[int],
                   max_vars: dict[tuple[int, int], int], ep: np.ndarray,
                   neighbours: list[int], higher_term, big_m: float,
                   selector_vars: dict[tuple[int, int, int], int], *,
                   lower_set: bool) -> None:
    """Eq. 9b/9c: selector binaries forcing each max variable to equal
    one of its candidate terms.

    For a ``theta`` (max over ``Q_i``) the candidates are ``J_i`` itself
    plus each neighbour's ``X_{k,i} * ep``; for a ``lambda`` (max over
    ``L_i``, possibly empty) a zero-valued "none" candidate replaces the
    self term.
    """
    for j in stages:
        target = max_vars[(i, j)]
        members: list[int] = []
        # Self / "none" candidate, encoded with member index i.
        b_self = builder.add_binary(f"b[{i},{j},self]")
        selector_vars[(i, j, i)] = b_self
        members.append(b_self)
        self_value = 0.0 if lower_set else float(ep[i, i, j])
        # target <= self_value + (1 - b_self) * M
        builder.add_leq({target: 1.0, b_self: big_m}, self_value + big_m)
        for k in neighbours:
            value = float(ep[i, k, j])
            b_k = builder.add_binary(f"b[{i},{j},{k}]")
            selector_vars[(i, j, k)] = b_k
            members.append(b_k)
            if value <= 0.0:
                # target <= 0 + (1 - b_k) * M
                builder.add_leq({target: 1.0, b_k: big_m}, big_m)
                continue
            var, coeff, const = higher_term(k, i)
            if lower_set:
                # candidate value = value * X_{i,k} = value*(1-X_{k,i})
                coeff, const = -coeff, 1.0 - const
            # target <= value*(coeff*var + const) + (1 - b_k)*M
            builder.add_leq(
                {target: 1.0, var: -value * coeff, b_k: big_m},
                value * const + big_m)
        builder.add_eq({b: 1.0 for b in members}, 1.0)


def extract_assignment(model: OPTModel, x: np.ndarray,
                       jobset: JobSet) -> PairwiseAssignment:
    """Read a solved variable vector back into a
    :class:`PairwiseAssignment`.

    Conflicting pairs without a variable (non-overlapping windows, whose
    orientation is immaterial) inherit the deadline-monotonic
    orientation.
    """
    matrix = dm_assignment(jobset).matrix()
    for (i, k), var in model.pair_vars.items():
        i_wins = x[var] > 0.5
        matrix[i, k] = i_wins
        matrix[k, i] = not i_wins
    return PairwiseAssignment.from_matrix(jobset, matrix)
