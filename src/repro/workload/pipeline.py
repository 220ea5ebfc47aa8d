"""Generic N-stage MSMR workload generator.

The paper's evaluation fixes the edge pipeline at ``N = 3``; its
conclusion conjectures that the gap between pairwise assignment and
total orderings "is likely to grow with the number of stages,
resources, and jobs".  This generator produces load-controlled
instances for *any* stage count so the sensitivity study
(:mod:`repro.experiments.sensitivity`) can test that conjecture.

The sampling model mirrors the edge generator (DESIGN.md, "Workload
calibration") with per-stage knobs generalised to length-``N`` tuples:
heaviness classes per stage, joint deadline/heaviness draw honouring
the per-stage processing ranges, and a ``gamma``-bounded mapping.
Unlike the edge scenario, every stage has its own independent resource
pool (no shared AP between stages).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from repro.core.exceptions import ModelError
from repro.core.system import JobSet, MSMRSystem, Stage
from repro.workload.edge import _draw_heavy_classes, _draw_heaviness, _pick
from repro.workload.heaviness import heaviness_matrix, system_heaviness

#: Default per-stage processing range when none is given (ms).
DEFAULT_STAGE_RANGE = (2.0, 200.0)


@dataclass(frozen=True)
class PipelineWorkloadConfig:
    """Knobs of the generic pipeline generator.

    Scalar values for ``resources_per_stage``, ``heavy_fractions``,
    ``stage_ranges`` and ``preemptive`` are broadcast to every stage.
    """

    num_stages: int = 3
    num_jobs: int = 60
    resources_per_stage: "int | tuple[int, ...]" = 8
    beta: float = 0.15
    heavy_fractions: "float | tuple[float, ...]" = 0.05
    gamma: float = 0.7
    stage_ranges: "tuple | None" = None
    preemptive: "bool | tuple[bool, ...]" = True
    light_min: float = 0.01
    light_dist: str = "loguniform"
    packing_prob: float = 0.2
    mapping_retries: int = 50

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise ModelError(
                f"need at least one stage, got {self.num_stages}")
        if self.num_jobs < 1:
            raise ModelError(f"need at least one job, got {self.num_jobs}")
        if self.beta <= 0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if not 0 < self.light_min < self.beta:
            raise ModelError(
                f"light_min must lie in (0, beta), got {self.light_min} "
                f"with beta={self.beta}")
        if self.gamma <= 0:
            raise ModelError(f"gamma must be positive, got {self.gamma}")
        if self.light_dist not in ("uniform", "loguniform"):
            raise ModelError(
                f"light_dist must be 'uniform' or 'loguniform', got "
                f"{self.light_dist!r}")
        if not 0.0 <= self.packing_prob <= 1.0:
            raise ModelError(
                f"packing_prob must lie in [0, 1], got "
                f"{self.packing_prob}")
        for count in self.pools():
            if count < 1:
                raise ModelError(f"resource pools must be >= 1, got "
                                 f"{self.pools()}")
        for fraction in self.fractions():
            if not 0.0 <= fraction <= 1.0:
                raise ModelError(
                    f"heavy fractions must lie in [0, 1], got "
                    f"{self.fractions()}")
        for lo, hi in self.ranges():
            if lo <= 0 or hi < lo:
                raise ModelError(f"bad stage range ({lo}, {hi})")

    def _broadcast(self, value, caster) -> tuple:
        if np.isscalar(value):
            return (caster(value),) * self.num_stages
        value = tuple(value)
        if len(value) != self.num_stages:
            raise ModelError(
                f"expected {self.num_stages} per-stage values, got "
                f"{len(value)}")
        return tuple(caster(v) for v in value)

    def pools(self) -> tuple[int, ...]:
        """Per-stage resource counts."""
        return self._broadcast(self.resources_per_stage, int)

    def fractions(self) -> tuple[float, ...]:
        """Per-stage heavy-job fractions."""
        return self._broadcast(self.heavy_fractions, float)

    def ranges(self) -> tuple[tuple[float, float], ...]:
        """Per-stage processing-time ranges."""
        if self.stage_ranges is None:
            return (DEFAULT_STAGE_RANGE,) * self.num_stages
        ranges = tuple(self.stage_ranges)
        if len(ranges) == 2 and np.isscalar(ranges[0]):
            return (tuple(map(float, ranges)),) * self.num_stages
        if len(ranges) != self.num_stages:
            raise ModelError(
                f"expected {self.num_stages} stage ranges, got "
                f"{len(ranges)}")
        return tuple((float(lo), float(hi)) for lo, hi in ranges)

    def flags(self) -> tuple[bool, ...]:
        """Per-stage preemption flags."""
        return self._broadcast(self.preemptive, bool)

    def with_overrides(self, **kwargs) -> "PipelineWorkloadConfig":
        """Functional update (used by the sensitivity sweeps)."""
        return replace(self, **kwargs)


@dataclass
class PipelineTestCase:
    """A generated N-stage test case (compatible with
    :func:`repro.experiments.runner.evaluate_case`)."""

    jobset: JobSet
    config: PipelineWorkloadConfig
    seed: int
    heavy: np.ndarray

    @functools.cached_property
    def system_heaviness(self) -> float:
        return system_heaviness(self.jobset)


def pipeline_system(config: PipelineWorkloadConfig) -> MSMRSystem:
    """The N-stage system for a configuration."""
    return MSMRSystem([
        Stage(num_resources=pool, preemptive=flag, name=f"stage{j}")
        for j, (pool, flag) in enumerate(zip(config.pools(),
                                             config.flags()))
    ])


def generate_pipeline_case(config: PipelineWorkloadConfig | None = None,
                           *, seed: int = 0) -> PipelineTestCase:
    """Generate one N-stage test case honouring every heaviness knob."""
    if config is None:
        config = PipelineWorkloadConfig()
    rng = np.random.default_rng(seed)
    heavy = _draw_heavy_classes(rng, config.num_jobs, config.fractions())
    ranges = config.ranges()
    deadlines, heaviness = _draw_heaviness(
        rng, config, heavy, ranges,
        "no feasible deadline for job {i}: ranges {ranges} conflict "
        "with heaviness classes {windows}")
    processing = heaviness * deadlines[:, None]
    mapping = _draw_mapping(rng, config, heaviness)
    jobset = JobSet.from_arrays(
        pipeline_system(config), processing, deadlines, mapping,
        names=[f"J{i}" for i in range(config.num_jobs)])
    case = PipelineTestCase(jobset=jobset, config=config, seed=seed,
                            heavy=heavy)
    _check_invariants(case)
    return case


def _draw_mapping(rng: np.random.Generator,
                  config: PipelineWorkloadConfig,
                  heaviness: np.ndarray) -> np.ndarray:
    """Independent per-stage placement keeping ``chi_{y,j} <= gamma``
    (the edge generator's calibrated ``mixed`` policy)."""
    n, num_stages = config.num_jobs, config.num_stages
    pools = config.pools()
    limit = config.gamma + 1e-12
    rows = heaviness.tolist()
    for _ in range(config.mapping_retries):
        order = rng.permutation(n)
        mapping = np.full((n, num_stages), -1, dtype=np.int64)
        chi = [[0.0] * pool for pool in pools]
        ok = True
        for i in order.tolist():
            for j, h in enumerate(rows[i]):
                loads = [c + h for c in chi[j]]
                resource = _pick(
                    rng, [y for y, load in enumerate(loads)
                          if load <= limit],
                    loads.__getitem__, "mixed", config.packing_prob)
                if resource is None:
                    ok = False
                    break
                mapping[i, j] = resource
                chi[j][resource] += h
            if not ok:
                break
        if ok:
            return mapping
    raise ModelError(
        f"could not place {n} jobs within gamma={config.gamma} after "
        f"{config.mapping_retries} attempts; lower the load or raise "
        f"gamma")


def _check_invariants(case: PipelineTestCase) -> None:
    config = case.config
    h = heaviness_matrix(case.jobset)
    if (h >= 2.0 * config.beta + 1e-9).any():
        raise ModelError("a job exceeds the 2*beta heaviness cap")
    load = case.system_heaviness
    if load > config.gamma + 1e-9:
        raise ModelError(
            f"system heaviness {load:.3f} exceeds gamma={config.gamma}")
    for j, (lo, hi) in enumerate(config.ranges()):
        column = case.jobset.P[:, j]
        if (column < lo - 1e-9).any() or (column > hi + 1e-9).any():
            raise ModelError(
                f"stage {j} processing times leave [{lo}, {hi}]")
