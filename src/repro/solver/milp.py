"""A small mixed-integer linear programming problem container.

The paper solves its pairwise-priority ILP (OPT, Eqs. 7-9) with Gurobi;
offline we provide interchangeable backends (HiGHS via scipy, and a
from-scratch branch-and-bound in :mod:`repro.solver.branch_bound`).
This module defines the backend-agnostic problem representation and a
convenient incremental :class:`ModelBuilder`.

Conventions: minimise ``c @ x`` subject to ``A_ub @ x <= b_ub``,
``A_eq @ x == b_eq`` and variable bounds; integer variables are flagged
through the ``integrality`` vector (0 = continuous, 1 = integer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse


@dataclass
class MILPProblem:
    """Immutable MILP in standard minimisation form."""

    objective: np.ndarray
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    names: list[str] = field(default_factory=list)

    @property
    def num_vars(self) -> int:
        return int(self.objective.shape[0])

    @property
    def num_constraints(self) -> int:
        return int(self.a_ub.shape[0] + self.a_eq.shape[0])

    @property
    def num_integers(self) -> int:
        return int((self.integrality > 0).sum())

    def check_solution(self, x: np.ndarray, *, tol: float = 1e-6) -> bool:
        """Verify feasibility of ``x`` (bounds, constraints,
        integrality)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            return False
        if (x < self.lower - tol).any() or (x > self.upper + tol).any():
            return False
        integer_vars = self.integrality > 0
        if integer_vars.any():
            frac = np.abs(x[integer_vars] - np.round(x[integer_vars]))
            if (frac > tol).any():
                return False
        if self.a_ub.shape[0] and \
                (self.a_ub @ x > self.b_ub + tol).any():
            return False
        if self.a_eq.shape[0] and \
                (np.abs(self.a_eq @ x - self.b_eq) > tol).any():
            return False
        return True


class ModelBuilder:
    """Incrementally assemble a :class:`MILPProblem`.

    >>> builder = ModelBuilder()
    >>> x = builder.add_binary("x")
    >>> y = builder.add_binary("y")
    >>> builder.add_leq({x: 1.0, y: 1.0}, 1.0)    # x + y <= 1
    >>> problem = builder.build()
    >>> problem.num_vars
    2
    """

    def __init__(self) -> None:
        self._names: list[str] = []
        self._integrality: list[int] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._objective: list[float] = []
        self._ub = _Rows()
        self._eq = _Rows()

    # -- variables ---------------------------------------------------

    def add_variable(self, name: str, *, lower: float = 0.0,
                     upper: float = np.inf, integer: bool = False,
                     objective: float = 0.0) -> int:
        """Add a variable and return its column index."""
        if lower > upper:
            raise ValueError(f"variable {name}: lower {lower} > upper {upper}")
        self._names.append(name)
        self._integrality.append(1 if integer else 0)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._objective.append(float(objective))
        return len(self._names) - 1

    def add_binary(self, name: str, *, objective: float = 0.0) -> int:
        """Add a 0/1 variable."""
        return self.add_variable(name, lower=0.0, upper=1.0, integer=True,
                                 objective=objective)

    def add_continuous(self, name: str, *, lower: float = 0.0,
                       upper: float = np.inf,
                       objective: float = 0.0) -> int:
        """Add a continuous variable with the given bounds."""
        return self.add_variable(name, lower=lower, upper=upper,
                                 integer=False, objective=objective)

    # -- constraints ---------------------------------------------------

    def add_leq(self, coefficients: dict[int, float], rhs: float) -> int:
        """Add ``sum coeff * var <= rhs``; returns the row index."""
        self._check_columns(coefficients)
        return self._ub.add(coefficients, rhs)

    def add_geq(self, coefficients: dict[int, float], rhs: float) -> int:
        """Add ``sum coeff * var >= rhs`` (stored negated)."""
        negated = {idx: -value for idx, value in coefficients.items()}
        return self.add_leq(negated, -float(rhs))

    def add_eq(self, coefficients: dict[int, float], rhs: float) -> int:
        """Add ``sum coeff * var == rhs``; returns the row index."""
        self._check_columns(coefficients)
        return self._eq.add(coefficients, rhs)

    def add_leq_block(self, rows: np.ndarray, columns: np.ndarray,
                      values: np.ndarray, rhs: np.ndarray) -> int:
        """Add ``len(rhs)`` ``<=`` rows at once, in coordinate form.

        Entry ``e`` puts ``values[e]`` at column ``columns[e]`` of block
        row ``rows[e]``; block row ``r`` reads ``... <= rhs[r]``.  The
        result equals one :meth:`add_leq` per block row, in order.
        Returns the index of the block's first row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        columns = np.array(columns, dtype=np.int64)
        values = np.array(values, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        if not rows.shape == columns.shape == values.shape or \
                rows.ndim != 1 or rhs.ndim != 1:
            raise ValueError(
                f"block needs 1-d rows, columns and values of one length "
                f"and 1-d rhs, got shapes {rows.shape}, {columns.shape}, "
                f"{values.shape} and {rhs.shape}")
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.size):
            raise IndexError(
                f"block rows must lie in [0, {rhs.size})")
        if columns.size and (columns.min() < 0 or
                             columns.max() >= len(self._names)):
            raise IndexError(
                f"unknown variable index in {columns.tolist()}")
        return self._ub.add_block(rows, columns, values, rhs)

    def _check_columns(self, coefficients: dict[int, float]) -> None:
        num_vars = len(self._names)
        for idx in coefficients:
            if not 0 <= idx < num_vars:
                raise IndexError(f"unknown variable index {idx}")

    # -- assembly ---------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def set_objective(self, coefficients: dict[int, float]) -> None:
        """Overwrite objective coefficients (minimisation)."""
        self._check_columns(coefficients)
        for idx, value in coefficients.items():
            self._objective[idx] = float(value)

    def build(self) -> MILPProblem:
        """Assemble the accumulated rows into an immutable problem."""
        num_vars = len(self._names)
        return MILPProblem(
            objective=np.asarray(self._objective, dtype=float),
            integrality=np.asarray(self._integrality, dtype=np.int64),
            lower=np.asarray(self._lower, dtype=float),
            upper=np.asarray(self._upper, dtype=float),
            a_ub=self._ub.matrix(num_vars),
            b_ub=np.asarray(self._ub.rhs, dtype=float),
            a_eq=self._eq.matrix(num_vars),
            b_eq=np.asarray(self._eq.rhs, dtype=float),
            names=list(self._names),
        )


class _Rows:
    """Constraint rows of one kind in coordinate form: array chunks from
    blocks, Python lists for rows added one at a time."""

    def __init__(self) -> None:
        self.rhs: list[float] = []
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._rows: list[int] = []
        self._columns: list[int] = []
        self._values: list[float] = []

    def add(self, coefficients: dict[int, float], rhs: float) -> int:
        row = len(self.rhs)
        self._rows.extend([row] * len(coefficients))
        self._columns.extend(coefficients)
        self._values.extend(coefficients.values())
        self.rhs.append(float(rhs))
        return row

    def add_block(self, rows: np.ndarray, columns: np.ndarray,
                  values: np.ndarray, rhs: np.ndarray) -> int:
        first = len(self.rhs)
        self._flush()
        self._chunks.append((rows + first, columns, values))
        self.rhs.extend(rhs.tolist())
        return first

    def _flush(self) -> None:
        if self._rows:
            self._chunks.append((np.asarray(self._rows),
                                 np.asarray(self._columns),
                                 np.asarray(self._values)))
            self._rows, self._columns, self._values = [], [], []

    def matrix(self, num_vars: int) -> sparse.csr_matrix:
        if self._chunks:
            self._flush()
            rows, columns, values = (np.concatenate(part)
                                     for part in zip(*self._chunks))
        else:
            rows, columns, values = self._rows, self._columns, self._values
        return sparse.csr_matrix((values, (rows, columns)),
                                 shape=(len(self.rhs), num_vars))
