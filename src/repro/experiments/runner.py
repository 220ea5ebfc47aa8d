"""Per-test-case evaluation of every approach (Section VI).

For one generated edge test case, runs each approach of Figure 4 --
DM, DMR, OPDCA, OPT and DCMP -- against the Eq. 10 analysis (DCMP by
simulation, as in the paper) and records acceptance plus wall-clock
time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.baselines.dcmp import dcmp
from repro.core.dca import DelayAnalyzer
from repro.core.opdca import opdca
from repro.core.schedulability import SDCA
from repro.pairwise.dm import dm
from repro.pairwise.dmr import dmr
from repro.pairwise.opt import opt
from repro.workload.edge import EdgeTestCase

#: Approaches in the paper's stacking order, plus the DCMP baseline.
APPROACHES = ("dm", "dmr", "opdca", "opt", "dcmp")

#: Format marker of serialized case results (result-store payloads).
CASE_RESULT_FORMAT = "repro-case-result"
CASE_RESULT_VERSION = 1


@dataclass
class CaseResult:
    """Acceptance and timing of every approach on one test case.

    ``runtime`` holds each approach's wall-clock seconds.  OPT's entry
    is the pure ILP/backend time only when no approach run before it
    proved feasibility; otherwise it is the time to verify that
    approach's assignment (the *witness*, named in
    ``notes["opt_status"]`` as e.g. ``witness:dmr``).
    """

    seed: int
    accepted: dict[str, bool]
    runtime: dict[str, float]
    system_heaviness: float
    notes: dict[str, str] = field(default_factory=dict)

    def accepted_by(self, approach: str) -> bool:
        return self.accepted.get(approach, False)

    def to_dict(self) -> dict:
        """JSON-ready form (exact: floats survive bitwise via repr)."""
        return {
            "format": CASE_RESULT_FORMAT,
            "version": CASE_RESULT_VERSION,
            "seed": int(self.seed),
            "accepted": {k: bool(v) for k, v in self.accepted.items()},
            "runtime": {k: float(v) for k, v in self.runtime.items()},
            "system_heaviness": float(self.system_heaviness),
            "notes": {k: str(v) for k, v in self.notes.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseResult":
        """Rebuild a result from :meth:`to_dict` output (validated)."""
        if data.get("format") != CASE_RESULT_FORMAT or \
                int(data.get("version", -1)) != CASE_RESULT_VERSION:
            raise ValueError(
                f"not a {CASE_RESULT_FORMAT} v{CASE_RESULT_VERSION} "
                f"payload: format={data.get('format')!r} "
                f"version={data.get('version')!r}")
        return cls(seed=int(data["seed"]),
                   accepted={k: bool(v)
                             for k, v in data["accepted"].items()},
                   runtime={k: float(v)
                            for k, v in data["runtime"].items()},
                   system_heaviness=float(data["system_heaviness"]),
                   notes={k: str(v) for k, v in data["notes"].items()})


def evaluate_case(case: EdgeTestCase, *,
                  approaches: tuple[str, ...] = APPROACHES,
                  equation: str = "eq10",
                  opt_backend: str = "highs") -> CaseResult:
    """Run the selected approaches on one test case.

    All analytical approaches share one :class:`DelayAnalyzer` (and thus
    one segment cache); DCMP schedules its budget-released stages with
    the edge pipeline's preemption flags.  ``approaches`` is validated
    before any of them runs.

    OPT is a feasibility problem, so the first assignment that DM, DMR
    or OPDCA (run earlier in ``approaches``) found feasible is handed
    to :func:`~repro.pairwise.opt.opt` as its witness: OPT then only
    re-verifies it against the analysis and ``runtime["opt"]`` times
    that check.  The ILP is built and solved -- and timed -- only when
    no such witness exists.  The accept bit is the same either way.
    """
    unknown = [name for name in approaches if name not in APPROACHES]
    if unknown:
        raise ValueError(f"unknown approach {unknown[0]!r}")
    jobset = case.jobset
    analyzer = DelayAnalyzer(jobset)
    accepted: dict[str, bool] = {}
    runtime: dict[str, float] = {}
    notes: dict[str, str] = {}
    # First feasible heuristic assignment and the approach that found it.
    witness = witness_source = None

    def timed(name, fn):
        start = time.perf_counter()
        result = fn()
        runtime[name] = time.perf_counter() - start
        return result

    for approach in approaches:
        if approach == "dm":
            result = timed("dm", lambda: dm(jobset, equation,
                                            analyzer=analyzer))
            accepted["dm"] = result.feasible
            if witness is None and result.feasible:
                witness, witness_source = result.assignment, "dm"
        elif approach == "dmr":
            result = timed("dmr", lambda: dmr(jobset, equation,
                                              analyzer=analyzer))
            accepted["dmr"] = result.feasible
            notes["dmr_flips"] = str(result.stats.get("flips", 0))
            if witness is None and result.feasible:
                witness, witness_source = result.assignment, "dmr"
        elif approach == "opdca":
            test = SDCA(jobset, equation, analyzer=analyzer)
            result = timed("opdca", lambda: opdca(jobset, equation,
                                                  test=test))
            accepted["opdca"] = result.feasible
            if witness is None and result.feasible:
                witness = result.ordering.to_pairwise(jobset)
                witness_source = "opdca"
        elif approach == "opt":
            result = timed("opt", lambda: opt(
                jobset, equation, analyzer=analyzer,
                backend=opt_backend, witness=witness))
            accepted["opt"] = result.feasible
            notes["opt_status"] = (
                f"witness:{witness_source}" if witness is not None
                else str(result.stats.get("status", "")))
        else:  # "dcmp"
            # Budget release = the strict reading of "decomposed jobs";
            # see repro.baselines.dcmp and EXPERIMENTS.md.
            result = timed("dcmp", lambda: dcmp(jobset, release="budget"))
            accepted["dcmp"] = result.feasible

    return CaseResult(seed=case.seed, accepted=accepted, runtime=runtime,
                      system_heaviness=case.system_heaviness,
                      notes=notes)
