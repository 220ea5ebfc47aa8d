"""Independent validation of simulator traces.

The simulator is itself a substrate the reproduction's conclusions rest
on (it is DCMP's acceptance oracle and yields the empirical tightness
numbers), so this module re-checks a finished
:class:`~repro.sim.trace.Trace` against the system model *without
reusing any simulator logic*:

1. **Conservation** -- every job executes exactly ``P_{i,j}`` time at
   each stage, on the one resource it is mapped to, and completes each
   stage exactly once.
2. **Mutual exclusion** -- slices on one resource never overlap.
3. **Precedence** -- a job never starts stage ``j+1`` before finishing
   stage ``j``, and never starts stage 1 before its arrival.
4. **Work conservation + priority (optional, given a policy)** -- when
   a job waits ready at a resource while another runs, the runner must
   not be beatable under the dispatch policy at a preemptive stage; at
   a non-preemptive stage the runner must have started before the
   waiter became ready (legal blocking), up to the dispatch tie rules.

Violations are collected (not raised) so tests can assert on the whole
list; :func:`validate_trace` returns a :class:`ValidationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.system import JobSet
from repro.sim.trace import Trace

#: Slack for float comparisons on simulated times.
_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant."""

    rule: str           # "conservation" | "exclusion" | "precedence"
                        # | "priority"
    message: str
    job: int | None = None
    stage: int | None = None


@dataclass
class ValidationReport:
    """Outcome of validating one trace."""

    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self, rule: str) -> list[Violation]:
        return [v for v in self.violations if v.rule == rule]

    def format(self) -> str:
        if self.ok:
            return "trace valid: all invariants hold"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.rule}] {v.message}" for v in self.violations]
        return "\n".join(lines)


def _check_conservation(jobset: JobSet, trace: Trace,
                        report: ValidationReport) -> None:
    n, num_stages = jobset.num_jobs, jobset.num_stages
    executed = np.zeros((n, num_stages))
    completions = np.zeros((n, num_stages), dtype=int)
    for interval in trace.intervals:
        executed[interval.job, interval.stage] += interval.duration
        if interval.completed:
            completions[interval.job, interval.stage] += 1
        mapped = int(jobset.R[interval.job, interval.stage])
        if interval.resource != mapped:
            report.violations.append(Violation(
                rule="conservation", job=interval.job,
                stage=interval.stage,
                message=f"J{interval.job} ran at S{interval.stage} on "
                        f"R{interval.resource}, mapped to R{mapped}"))
    for i in range(n):
        for j in range(num_stages):
            if abs(executed[i, j] - jobset.P[i, j]) > 1e-6:
                report.violations.append(Violation(
                    rule="conservation", job=i, stage=j,
                    message=f"J{i} executed {executed[i, j]:.6f} at "
                            f"S{j}, needs {jobset.P[i, j]:.6f}"))
            if completions[i, j] != 1:
                report.violations.append(Violation(
                    rule="conservation", job=i, stage=j,
                    message=f"J{i} completed S{j} "
                            f"{completions[i, j]} times"))


def _check_exclusion(trace: Trace, report: ValidationReport) -> None:
    by_resource: dict[tuple[int, int], list] = {}
    for interval in trace.intervals:
        by_resource.setdefault(
            (interval.stage, interval.resource), []).append(interval)
    for (stage, resource), intervals in by_resource.items():
        intervals.sort(key=lambda iv: (iv.start, iv.end))
        for a, b in zip(intervals, intervals[1:]):
            if b.start < a.end - _EPS:
                report.violations.append(Violation(
                    rule="exclusion", stage=stage,
                    message=f"S{stage}/R{resource}: J{a.job} "
                            f"[{a.start:g},{a.end:g}) overlaps "
                            f"J{b.job} [{b.start:g},{b.end:g})"))


def _stage_spans(jobset: JobSet, trace: Trace
                 ) -> "tuple[np.ndarray, np.ndarray]":
    """First-start and completion time per (job, stage); NaN if never
    run (zero-processing stages complete instantaneously)."""
    n, num_stages = jobset.num_jobs, jobset.num_stages
    first = np.full((n, num_stages), np.nan)
    done = np.full((n, num_stages), np.nan)
    for interval in trace.intervals:
        i, j = interval.job, interval.stage
        if np.isnan(first[i, j]) or interval.start < first[i, j]:
            first[i, j] = interval.start
        if interval.completed:
            done[i, j] = interval.end
    return first, done


def _check_precedence(jobset: JobSet, trace: Trace,
                      report: ValidationReport) -> None:
    first, done = _stage_spans(jobset, trace)
    n, num_stages = jobset.num_jobs, jobset.num_stages
    for i in range(n):
        if not np.isnan(first[i, 0]) and \
                first[i, 0] < jobset.A[i] - _EPS:
            report.violations.append(Violation(
                rule="precedence", job=i, stage=0,
                message=f"J{i} started S0 at {first[i, 0]:g} before "
                        f"arrival {jobset.A[i]:g}"))
        for j in range(1, num_stages):
            if np.isnan(first[i, j]) or np.isnan(done[i, j - 1]):
                continue
            if first[i, j] < done[i, j - 1] - _EPS:
                report.violations.append(Violation(
                    rule="precedence", job=i, stage=j,
                    message=f"J{i} started S{j} at {first[i, j]:g} "
                            f"before finishing S{j - 1} at "
                            f"{done[i, j - 1]:g}"))


def _ready_time(jobset: JobSet, done: np.ndarray, job: int,
                stage: int) -> float:
    """When ``job`` became ready at ``stage`` (arrival or previous
    stage completion)."""
    if stage == 0:
        return float(jobset.A[job])
    return float(done[job, stage - 1])


def _check_priority(jobset: JobSet, trace: Trace, policy,
                    preemptive: "list[bool]",
                    report: ValidationReport) -> None:
    first, done = _stage_spans(jobset, trace)
    by_resource: dict[tuple[int, int], list] = {}
    for interval in trace.intervals:
        by_resource.setdefault(
            (interval.stage, interval.resource), []).append(interval)
    for (stage, _resource), intervals in by_resource.items():
        jobs_here = {iv.job for iv in intervals}
        for interval in intervals:
            if interval.duration <= _EPS:
                continue
            for waiter in jobs_here:
                if waiter == interval.job:
                    continue
                ready = _ready_time(jobset, done, waiter, stage)
                finished = done[waiter, stage]
                waiting = (ready <= interval.start + _EPS
                           and not np.isnan(finished)
                           and first[waiter, stage] >= interval.end
                           - _EPS)
                if not waiting:
                    continue
                if not policy.beats(waiter, interval.job, stage):
                    continue  # runner legitimately outranks the waiter
                if preemptive[stage]:
                    report.violations.append(Violation(
                        rule="priority", job=waiter, stage=stage,
                        message=f"J{waiter} (beats J{interval.job}) "
                                f"waited through "
                                f"[{interval.start:g},{interval.end:g})"
                                f" at preemptive S{stage}"))
                elif interval.start > ready + _EPS:
                    report.violations.append(Violation(
                        rule="priority", job=waiter, stage=stage,
                        message=f"J{waiter} was ready at {ready:g} but "
                                f"non-preemptive S{stage} started "
                                f"J{interval.job} later at "
                                f"{interval.start:g}"))


def validate_trace(jobset: JobSet, trace: Trace, *, policy=None,
                   preemptive: "list[bool] | None" = None
                   ) -> ValidationReport:
    """Re-check a trace against the system model.

    Parameters
    ----------
    jobset:
        The job set the trace claims to execute.
    trace:
        The executed intervals.
    policy:
        Optional dispatch policy (anything
        :func:`~repro.sim.policies.make_policy` accepts); enables the
        priority/work-conservation check.
    preemptive:
        Per-stage preemption flags for the priority check; defaults to
        the system's.
    """
    report = ValidationReport()
    _check_conservation(jobset, trace, report)
    _check_exclusion(trace, report)
    _check_precedence(jobset, trace, report)
    if policy is not None:
        from repro.sim.policies import make_policy

        resolved = (policy if hasattr(policy, "beats")
                    else make_policy(policy))
        flags = (list(jobset.system.preemptive_flags)
                 if preemptive is None else list(preemptive))
        _check_priority(jobset, trace, resolved, flags, report)
    return report
