"""The ``S_DCA`` schedulability test (Section IV.A of the paper).

``S_DCA(J_i, H_i, L_i)`` deems job ``J_i`` schedulable when the DCA
delay bound evaluated with higher-priority set ``H_i`` (and, for the
non-preemptive / edge bounds, lower-priority set ``L_i``) does not
exceed the end-to-end deadline ``D_i``.

The test is OPA-compatible exactly when the underlying bound is
(Observations IV.1/IV.2): compatible for ``eq1``, ``eq3``, ``eq5``,
``eq6`` and ``eq10``; incompatible for ``eq2`` and ``eq4``.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable

import numpy as np

from repro.core.dca import (
    ALL_EQUATIONS,
    FLOAT_MONOTONE_EQUATIONS,
    LOWER_AWARE_EQUATIONS,
    OPA_COMPATIBLE_EQUATIONS,
    DelayAnalyzer,
)
from repro.core.system import JobSet

#: Absolute slack tolerance when comparing a bound against a deadline,
#: guarding against floating-point noise in the vectorised sums.
DEADLINE_TOLERANCE = 1e-9


class Policy(str, Enum):
    """Scheduling policy, mapped to the paper's recommended bound."""

    #: Preemptive MSMR scheduling -> refined Eq. 6.
    PREEMPTIVE = "preemptive"
    #: Non-preemptive MSMR scheduling -> OPA-compatible Eq. 5.
    NONPREEMPTIVE = "nonpreemptive"
    #: 3-stage edge pipeline (preemptive server, non-preemptive
    #: downlink, batch release) -> Eq. 10.
    EDGE = "edge"

    @property
    def equation(self) -> str:
        return _POLICY_EQUATION[self]


_POLICY_EQUATION = {
    Policy.PREEMPTIVE: "eq6",
    Policy.NONPREEMPTIVE: "eq5",
    Policy.EDGE: "eq10",
}


def resolve_equation(policy_or_equation: "str | Policy") -> str:
    """Accept either a :class:`Policy` or a raw equation name."""
    if isinstance(policy_or_equation, Policy):
        return policy_or_equation.equation
    value = str(policy_or_equation)
    if value in ALL_EQUATIONS:
        return value
    try:
        return Policy(value).equation
    except ValueError:
        raise ValueError(
            f"unknown policy/equation {policy_or_equation!r}; expected a "
            f"Policy or one of {ALL_EQUATIONS}") from None


class SDCA:
    """DCA-based schedulability test bound to one job set.

    Parameters
    ----------
    jobset:
        Job set under analysis.
    policy:
        A :class:`Policy` or raw equation name selecting the bound.
    analyzer:
        Optionally reuse an existing :class:`DelayAnalyzer` (so several
        tests can share the segment cache).
    """

    def __init__(self, jobset: JobSet,
                 policy: "str | Policy" = Policy.PREEMPTIVE, *,
                 analyzer: DelayAnalyzer | None = None) -> None:
        self._equation = resolve_equation(policy)
        self._analyzer = analyzer if analyzer is not None \
            else DelayAnalyzer(jobset)
        if self._analyzer.jobset is not jobset:
            raise ValueError("analyzer was built for a different job set")
        self._jobset = jobset

    @property
    def jobset(self) -> JobSet:
        return self._jobset

    @property
    def equation(self) -> str:
        return self._equation

    @property
    def analyzer(self) -> DelayAnalyzer:
        return self._analyzer

    @property
    def opa_compatible(self) -> bool:
        """Whether this test satisfies the OPA-compatibility conditions."""
        return self._equation in OPA_COMPATIBLE_EQUATIONS

    @property
    def uses_lower_set(self) -> bool:
        """Whether the bound depends on the lower-priority set."""
        return self._equation in LOWER_AWARE_EQUATIONS

    def delay(self, i: int, higher: "np.ndarray | Iterable[int]",
              lower: "np.ndarray | Iterable[int] | None" = None, *,
              active: np.ndarray | None = None) -> float:
        """Delay bound of ``J_i`` for the given priority context."""
        if self.uses_lower_set and lower is None:
            lower = np.zeros(self._jobset.num_jobs, dtype=bool)
        return self._analyzer.delay_bound(
            i, higher, lower, equation=self._equation, active=active)

    def __call__(self, i: int, higher: "np.ndarray | Iterable[int]",
                 lower: "np.ndarray | Iterable[int] | None" = None, *,
                 active: np.ndarray | None = None) -> bool:
        """``S_DCA(J_i, H_i, L_i)``: true iff ``Delta_i <= D_i``."""
        bound = self.delay(i, higher, lower, active=active)
        return bound <= self._jobset.D[i] + DEADLINE_TOLERANCE

    is_schedulable = __call__

    def slack(self, i: int, higher: "np.ndarray | Iterable[int]",
              lower: "np.ndarray | Iterable[int] | None" = None, *,
              active: np.ndarray | None = None) -> float:
        """``D_i - Delta_i`` (negative when the job misses)."""
        return float(self._jobset.D[i]) - self.delay(i, higher, lower,
                                                     active=active)

    # ------------------------------------------------------------------
    # Batched evaluation (vectorised fast paths for OPA/admission)
    # ------------------------------------------------------------------

    def level_delays(self, unassigned: np.ndarray,
                     assigned_lower: np.ndarray | None = None, *,
                     active: np.ndarray | None = None,
                     rows: "np.ndarray | None" = None) -> np.ndarray:
        """Delay bounds of every Audsley candidate at one priority
        level (``H_i`` = ``unassigned`` minus self, ``L_i`` =
        ``assigned_lower``), served by the analyzer's level kernel
        (see :meth:`DelayAnalyzer.level_bounds`)."""
        if self.uses_lower_set and assigned_lower is None:
            assigned_lower = np.zeros(self._jobset.num_jobs, dtype=bool)
        return self._analyzer.level_bounds(
            unassigned, assigned_lower, equation=self._equation,
            active=active, rows=rows)

    def audsley_batch(self, unassigned: np.ndarray,
                      assigned_lower: np.ndarray, *,
                      active: np.ndarray | None = None) -> np.ndarray:
        """Feasibility of every Audsley candidate at one priority level.

        Candidate ``J_i`` is evaluated with ``H_i`` = ``unassigned``
        minus ``J_i`` (the self entry is dropped by the batch kernel)
        and ``L_i`` = ``assigned_lower``, i.e. exactly the context of
        the serial per-candidate scan, but for all candidates at once.
        Pass the result to ``audsley(..., batch_test=...)``.  Entries
        are only meaningful for candidates (``unassigned & active``
        jobs) -- precisely the rows the Audsley engine reads.
        """
        delays = self.level_delays(unassigned, assigned_lower,
                                   active=active)
        with np.errstate(invalid="ignore"):
            return delays <= self._jobset.D + DEADLINE_TOLERANCE

    def level_kernel(self) -> "AudsleyLevelKernel":
        """Adapter for :func:`repro.core.opa.audsley_frontier`: exposes
        per-level candidate evaluation, the fused single-candidate
        probe, and the monotonicity contracts of this bound."""
        return AudsleyLevelKernel(self)


class AudsleyLevelKernel:
    """Level-evaluation interface consumed by
    :func:`repro.core.opa.audsley_frontier`.

    Wraps one :class:`SDCA` test and exposes exactly what the
    frontier-carrying Audsley engine needs:

    ``delays_rows(rows, unassigned, assigned_lower)``
        Delay bounds of the selected candidates at the current level,
        bitwise identical to the corresponding entries of
        :meth:`SDCA.audsley_batch`'s underlying evaluation.
    ``probe(i, unassigned, assigned_lower)``
        Single-candidate bound (a one-row slice of the level kernel),
        bitwise identical to the candidate's batch entry -- the cheap
        re-verification of a carried frontier candidate whose ``eq10``
        bound sits within the driver's safety margin of its deadline.
    ``monotone`` / ``float_monotone``
        Whether a candidate once verified feasible stays feasible
        along the assignment trajectory -- in exact arithmetic
        (OPA-compatible bounds) and ulp-for-ulp in floating point
        (:data:`~repro.core.dca.FLOAT_MONOTONE_EQUATIONS`).
    ``deadline_tol``
        ``D + DEADLINE_TOLERANCE``, the per-job feasibility threshold
        (elementwise identical to the vector ``audsley_batch``
        rebuilds per level).
    """

    def __init__(self, test: SDCA,
                 active: "np.ndarray | None" = None) -> None:
        self._test = test
        self._active = active
        self.num_jobs = test.jobset.num_jobs
        self.monotone = test.opa_compatible
        self.float_monotone = test.equation in FLOAT_MONOTONE_EQUATIONS
        self.deadline_tol = test.jobset.D + DEADLINE_TOLERANCE

    def removal_caps(self) -> "np.ndarray | None":
        """Sound per-pair bound-decrease caps for excess lower-bound
        pruning (:meth:`DelayAnalyzer.removal_caps`, where the
        soundness argument lives), or None for the non-monotone
        equations where evaluated bounds cannot be carried at all."""
        if not self.monotone:
            return None
        return self._test.analyzer.removal_caps()

    def delays_rows(self, rows: np.ndarray, unassigned: np.ndarray,
                    assigned_lower: np.ndarray) -> np.ndarray:
        return self._test.level_delays(
            unassigned, assigned_lower, active=self._active, rows=rows)

    def probe(self, i: int, unassigned: np.ndarray,
              assigned_lower: np.ndarray) -> float:
        test = self._test
        lower = assigned_lower if test.uses_lower_set else None
        return test.analyzer.level_bound_single(
            i, unassigned, lower, equation=test.equation,
            active=self._active)
