"""Figure 4 drivers: regenerate every panel of the paper's evaluation.

Each driver sweeps one workload knob, evaluates every approach on
``cases`` seeded test cases per point, and returns a
:class:`FigureResult` whose rows mirror the paper's series: acceptance
ratios for panels (a)-(c), rejected heaviness for panel (d).  Rendering
to the terminal lives in :mod:`repro.experiments.report`.

Case evaluation is dispatched through
:mod:`repro.experiments.parallel`: with ``config.n_workers > 1`` the
seeded cases of a whole sweep are sharded across a process pool and
merged back per point, producing results identical to the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.admission import opdca_admission
from repro.core.dca import DelayAnalyzer
from repro.core.schedulability import SDCA
from repro.experiments.config import (
    ADMISSION_APPROACHES,
    ADMISSION_SETTINGS,
    BETA_VALUES,
    GAMMA_VALUES,
    HEAVY_FRACTION_VALUES,
    ExperimentConfig,
)
from repro.experiments.parallel import (
    ScenarioSpec,
    evaluate_scenarios,
    parallel_map,
)
from repro.experiments.runner import APPROACHES
from repro.pairwise.admission import dm_admission, dmr_admission
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
from repro.workload.heaviness import rejected_heaviness

#: Sentinel: "open the store named by ``config.cache_dir``".  Callers
#: pass ``store=None`` to force caching off regardless of the config.
_FROM_CONFIG = object()


@dataclass
class SweepPoint:
    """One x-axis point of a figure."""

    label: str
    workload: EdgeWorkloadConfig
    #: approach -> acceptance ratio in percent (figures a-c) or mean
    #: rejected heaviness in percent (figure d).
    values: dict[str, float] = field(default_factory=dict)
    #: approach -> per-case booleans / measurements.
    raw: dict[str, list] = field(default_factory=dict)
    mean_system_heaviness: float = float("nan")


@dataclass
class FigureResult:
    """All points of one panel, ready for reporting."""

    name: str
    title: str
    xlabel: str
    metric: str
    approaches: tuple[str, ...]
    points: list[SweepPoint]
    cases: int

    def series(self, approach: str) -> list[float]:
        """The y-values of one approach across the sweep."""
        return [point.values[approach] for point in self.points]


def _acceptance_sweep(name: str, title: str, xlabel: str,
                      labelled_configs: list[tuple[str, EdgeWorkloadConfig]],
                      config: ExperimentConfig,
                      store=_FROM_CONFIG) -> FigureResult:
    # Shard the whole sweep (all points x all cases) in one batch so
    # workers stay busy across point boundaries, then merge per point.
    # With a result store, cached cases are served from disk and fresh
    # ones checkpointed, so a warm regeneration never re-evaluates.
    specs = [
        ScenarioSpec(seed=config.seed0 + offset, workload=workload,
                     generator="edge", equation=config.equation,
                     approaches=APPROACHES,
                     opt_backend=config.opt_backend)
        for _, workload in labelled_configs
        for offset in range(config.cases)
    ]
    if store is _FROM_CONFIG:
        store = config.open_store()
    results = evaluate_scenarios(specs, n_workers=config.n_workers,
                                 store=store)

    points = []
    for index, (label, workload) in enumerate(labelled_configs):
        point = SweepPoint(label=label, workload=workload)
        chunk = results[index * config.cases:(index + 1) * config.cases]
        outcomes: dict[str, list] = {name: [] for name in APPROACHES}
        heaviness = []
        for result in chunk:
            for approach in APPROACHES:
                outcomes[approach].append(result.accepted_by(approach))
            heaviness.append(result.system_heaviness)
        for approach in APPROACHES:
            point.raw[approach] = outcomes[approach]
            point.values[approach] = 100.0 * float(
                np.mean(outcomes[approach]))
        point.mean_system_heaviness = float(np.mean(heaviness))
        points.append(point)
    return FigureResult(name=name, title=title, xlabel=xlabel,
                        metric="acceptance ratio (%)",
                        approaches=APPROACHES, points=points,
                        cases=config.cases)


def figure_4a(config: ExperimentConfig | None = None, *,
              betas: tuple[float, ...] = BETA_VALUES,
              store=_FROM_CONFIG) -> FigureResult:
    """Figure 4(a): acceptance ratios for varying heaviness threshold."""
    config = config or ExperimentConfig.from_environment()
    sweeps = [(f"beta={beta:g}", config.base.with_overrides(beta=beta))
              for beta in betas]
    return _acceptance_sweep("fig4a",
                             "Acceptance ratio vs heaviness threshold",
                             "heaviness threshold (beta)", sweeps, config,
                             store=store)


def figure_4b(config: ExperimentConfig | None = None, *,
              fractions=HEAVY_FRACTION_VALUES,
              store=_FROM_CONFIG) -> FigureResult:
    """Figure 4(b): acceptance ratios for varying per-stage heaviness."""
    config = config or ExperimentConfig.from_environment()
    sweeps = [
        (f"h={list(h)}", config.base.with_overrides(heavy_fractions=h))
        for h in fractions
    ]
    return _acceptance_sweep("fig4b",
                             "Acceptance ratio vs per-stage heaviness",
                             "per-stage heavy fractions [h1,h2,h3]",
                             sweeps, config, store=store)


def figure_4c(config: ExperimentConfig | None = None, *,
              gammas: tuple[float, ...] = GAMMA_VALUES,
              store=_FROM_CONFIG) -> FigureResult:
    """Figure 4(c): acceptance ratios for varying heaviness bound."""
    config = config or ExperimentConfig.from_environment()
    sweeps = [(f"gamma={gamma:g}",
               config.base.with_overrides(gamma=gamma))
              for gamma in gammas]
    return _acceptance_sweep("fig4c",
                             "Acceptance ratio vs taskset heaviness bound",
                             "heaviness bound (gamma)", sweeps, config,
                             store=store)


def _admission_case(workload: EdgeWorkloadConfig, seed: int,
                    equation: str) -> tuple[dict[str, float], float]:
    """Evaluate every admission controller on one seeded case.

    Module-level so :func:`parallel_map` can ship it to workers.  The
    controllers share one analyzer; each keeps its own active mask.
    Returns (per-approach rejected heaviness, system heaviness).
    """
    case = generate_edge_case(workload, seed=seed)
    jobset = case.jobset
    analyzer = DelayAnalyzer(jobset)
    rejected = {}
    for approach in ADMISSION_APPROACHES:
        if approach == "opdca":
            result = opdca_admission(
                jobset, equation,
                test=SDCA(jobset, equation, analyzer=analyzer))
        elif approach == "dmr":
            result = dmr_admission(jobset, equation, analyzer=analyzer)
        else:
            result = dm_admission(jobset, equation, analyzer=analyzer)
        rejected[approach] = rejected_heaviness(jobset, result.rejected)
    return rejected, case.system_heaviness


def figure_4d(config: ExperimentConfig | None = None, *,
              settings=ADMISSION_SETTINGS,
              store=_FROM_CONFIG) -> FigureResult:
    """Figure 4(d): rejected heaviness of the admission controllers.

    Runs OPDCA, DMR and DM in admission-controller mode (discarding the
    worst-offending job instead of rejecting the whole case) and reports
    the mean percentage of job heaviness rejected.
    """
    config = config or ExperimentConfig.from_environment()
    workloads = [config.base.with_overrides(**overrides)
                 for _, overrides in settings]
    if store is _FROM_CONFIG:
        store = config.open_store()
    cases = parallel_map(
        _admission_case,
        [(workload, config.seed0 + offset, config.equation)
         for workload in workloads
         for offset in range(config.cases)],
        n_workers=config.n_workers,
        store=store, key="fig4d/admission")

    points = []
    for index, (label, _) in enumerate(settings):
        workload = workloads[index]
        point = SweepPoint(label=label, workload=workload)
        chunk = cases[index * config.cases:(index + 1) * config.cases]
        rejected: dict[str, list[float]] = {
            name: [] for name in ADMISSION_APPROACHES}
        heaviness = []
        for case_rejected, case_heaviness in chunk:
            heaviness.append(case_heaviness)
            for approach in ADMISSION_APPROACHES:
                rejected[approach].append(case_rejected[approach])
        for approach in ADMISSION_APPROACHES:
            point.raw[approach] = rejected[approach]
            point.values[approach] = float(np.mean(rejected[approach]))
        point.mean_system_heaviness = float(np.mean(heaviness))
        points.append(point)
    return FigureResult(name="fig4d",
                        title="Rejected heaviness as admission controller",
                        xlabel="workload setting",
                        metric="rejected heaviness (%)",
                        approaches=ADMISSION_APPROACHES, points=points,
                        cases=config.cases)


ALL_FIGURES = {
    "fig4a": figure_4a,
    "fig4b": figure_4b,
    "fig4c": figure_4c,
    "fig4d": figure_4d,
}
