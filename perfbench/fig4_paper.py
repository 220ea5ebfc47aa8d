"""Workload ``fig4-paper``: cases of the paper's Figure 4, serially.

One *round* is one seeded case at each of the twelve points of panels
4a-c (DM, DMR, OPDCA, OPT and DCMP through
``repro.experiments.runner.evaluate_case``) and at each of the six
settings of panel 4d (the OPDCA, DMR and DM admission controllers).
A *pass* evaluates case seeds ``0 .. ROUNDS-1`` at every point (108
cases); the run seed rotates the order of the rounds.  Every seed
therefore does the same work: case costs vary several-fold, and
disjoint case sets per seed made the spread between seeds larger than
any regression bound worth having.  A run makes passes until its time
is up (at least three), and each case's time is its median over the
passes.  Outcomes of every case are committed in
``expected/fig4-paper.json`` and checked in every pass.
"""

from __future__ import annotations

import time

import common
from ledger import Ledger, install_fig4, layer_report

#: Rounds of a pass, which are also the case seeds with committed
#: outcomes.  A pass takes 4.5-9 s on a shared 2-vCPU x86-64 VM.
ROUNDS = 6
#: Case seed of the untimed warm-up (outside the committed ones).
WARMUP_SEED = ROUNDS
EQUATION = "eq10"


def round_seeds(seed: int) -> list:
    """Case seed of each round: ``0 .. ROUNDS-1`` rotated by the run
    seed."""
    return [(seed + r) % ROUNDS for r in range(ROUNDS)]


def points():
    """``(key, overrides)`` for the 12 points of 4a-c, then the six
    settings of 4d, in the paper's order."""
    from repro.experiments.config import (
        ADMISSION_SETTINGS,
        BETA_VALUES,
        GAMMA_VALUES,
        HEAVY_FRACTION_VALUES,
    )

    out = [(f"4a/beta={beta:g}", {"beta": beta}) for beta in BETA_VALUES]
    out += [(f"4b/h={list(h)}", {"heavy_fractions": h})
            for h in HEAVY_FRACTION_VALUES]
    out += [(f"4c/gamma={gamma:g}", {"gamma": gamma})
            for gamma in GAMMA_VALUES]
    out += [(f"4d/{label}", dict(overrides))
            for label, overrides in ADMISSION_SETTINGS]
    return out


class Evaluator:
    """Runs one case of one point and returns its outcome.

    Library functions are looked up through their modules at call
    time, so the traced run's wrappers see every call.
    """

    def __init__(self) -> None:
        from repro.core import admission
        from repro.experiments import runner
        from repro.experiments.config import ADMISSION_APPROACHES
        from repro.pairwise import admission as pairwise_admission
        from repro.workload import edge, heaviness

        self.edge = edge
        self.runner = runner
        self.admission = admission
        self.pairwise_admission = pairwise_admission
        self.heaviness = heaviness
        self.admission_approaches = ADMISSION_APPROACHES
        base = edge.EdgeWorkloadConfig()
        self.points = [(key, base.with_overrides(**overrides))
                       for key, overrides in points()]

    def acceptance(self, workload, seed: int):
        """Panels 4a-c: the accept bits of every approach (in
        ``runner.APPROACHES`` order) and the case result."""
        case = self.edge.generate_edge_case(workload, seed=seed)
        result = self.runner.evaluate_case(case, equation=EQUATION)
        bits = "".join("1" if result.accepted_by(name) else "0"
                       for name in self.runner.APPROACHES)
        return bits, result

    def rejected(self, workload, seed: int) -> list:
        """Panel 4d: rejected heaviness per admission controller."""
        case = self.edge.generate_edge_case(workload, seed=seed)
        jobset = case.jobset
        controllers = {
            "opdca": self.admission.opdca_admission,
            "dmr": self.pairwise_admission.dmr_admission,
            "dm": self.pairwise_admission.dm_admission,
        }
        return [self.heaviness.rejected_heaviness(
                    jobset, controllers[name](jobset, EQUATION).rejected)
                for name in self.admission_approaches]

    def run(self, key: str, workload, seed: int):
        """``(outcome, case result or None)`` of one case."""
        if key.startswith("4d/"):
            return self.rejected(workload, seed), None
        return self.acceptance(workload, seed)


def dominance_error(bits: str) -> "str | None":
    """OPT is complete: it must accept whatever DM, DMR or OPDCA
    accepts (``bits`` in ``dm, dmr, opdca, opt, dcmp`` order)."""
    if bits[3] == "0" and "1" in bits[:3]:
        return f"OPT rejected a case accepted by a heuristic ({bits})"
    return None


class Workload:
    name = "fig4-paper"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seeds = round_seeds(seed)
        self.seconds = seconds

    def setup(self) -> None:
        self.evaluator = Evaluator()
        self.expected = common.load_expected(self.name)
        # Untimed warm-up: lazy imports inside scipy's MILP path and
        # first-call costs are paid once per process, not per case.
        for key, workload in (self.evaluator.points[0],
                              self.evaluator.points[-1]):
            self.evaluator.run(key, workload, WARMUP_SEED)

    def close(self) -> None:
        pass

    def _pass(self, on_case=None) -> dict:
        """Evaluate and check every case once: per-case times, errors,
        and the 4a-c cases OPDCA and OPT accept."""
        times = []
        errors = []
        opdca_accepts = opt_accepts = 0
        for seed in self.seeds:
            for key, workload in self.evaluator.points:
                began = time.perf_counter()
                try:
                    outcome, result = self.evaluator.run(key, workload,
                                                         seed)
                except Exception as error:  # noqa: BLE001 - counted
                    times.append(time.perf_counter() - began)
                    errors.append(f"{key} seed {seed}: {error!r}")
                    continue
                times.append(time.perf_counter() - began)
                want = self.expected[key].get(str(seed))
                if outcome != want:
                    errors.append(f"{key} seed {seed}: got {outcome}, "
                                  f"expected {want}")
                elif result is not None:
                    problem = dominance_error(outcome)
                    if problem:
                        errors.append(f"{key} seed {seed}: {problem}")
                if result is not None:
                    opdca_accepts += outcome[2] == "1"
                    opt_accepts += outcome[3] == "1"
                    if on_case is not None:
                        on_case(outcome, result)
        return {"times": times, "errors": errors,
                "opdca_accepts": opdca_accepts, "opt_accepts": opt_accepts}

    def measure(self) -> dict:
        passes, rss = common.run_passes(
            self.name, self.seconds, lambda _k: self._pass(),
            common.peak_rss_mb)
        times = common.op_medians([p["times"] for p in passes])
        first = passes[0]
        # Latency per 4a-c case (every approach on one case).  Panel
        # 4d's cases run only the admission controllers, in a third of
        # the time, so over all cases the median would fall in the gap
        # between the two kinds; they count in the rate.
        keys = [key for _seed in self.seeds
                for key, _workload in self.evaluator.points]
        metrics = common.latency_metrics(
            [t for t, key in zip(times, keys) if not key.startswith("4d/")],
            common.TAIL_PERCENTILE[self.name])
        metrics["ops_per_s"] = len(times) / sum(times)
        metrics["peak_rss_mb"] = rss
        # OPDCA's share of the cases the optimum (OPT) accepts.
        metrics["acceptance_ratio"] = (first["opdca_accepts"]
                                       / first["opt_accepts"])
        return {"attempted": len(times) * len(passes),
                "passes": len(passes),
                "errors": [e for p in passes for e in p["errors"]],
                "metrics": metrics}

    def trace(self) -> dict:
        """One pass untraced, then the same pass traced."""
        began = time.perf_counter()
        untraced = self._pass()
        untraced_s = time.perf_counter() - began
        ledger = Ledger()
        install_fig4(ledger)
        tally = {"flips": 0, "opt": 0, "redundant": 0}

        def on_case(bits, result) -> None:
            tally["flips"] += int(result.notes.get("dmr_flips", 0))
            tally["opt"] += 1
            tally["redundant"] += bits[1] == "1"

        began = time.perf_counter()
        try:
            traced = self._pass(on_case=on_case)
        finally:
            ledger.restore()
        traced_s = time.perf_counter() - began
        cases = len(traced["times"])
        metrics = layer_report(ledger.raw(), ops=cases,
                               busy_seconds=traced_s,
                               names=common.PER_LAYER)
        metrics["pairwise.dmr.flips"] = float(tally["flips"])
        metrics["pairwise.opt.redundant_share"] = (
            tally["redundant"] / tally["opt"])
        metrics["trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        return {"attempted": 2 * cases,
                "errors": untraced["errors"] + traced["errors"],
                "metrics": metrics}
