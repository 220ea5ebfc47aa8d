"""Edge-computing workload generator (Section VI.A, Figure 3).

Generates test cases for the 3-stage edge pipeline: jobs offload
through an access point (AP), execute on an edge server, and download
their result through the same AP.  Stage 2 (server) is preemptive;
stages 1 and 3 (wireless up/down links) are not.  All jobs of a test
case are released together (the paper's periodic batch scheduling).

The paper fixes 25 APs, 20 servers and 100 jobs, with offload /
processing / download times in [2, 200] / [50, 500] / [2, 100] ms, and
steers difficulty through three knobs:

* ``beta`` -- heaviness threshold: a job is heavy at a stage when
  ``h_{i,j} = P_{i,j}/D_i >= beta``; any job's per-stage heaviness is
  below ``2 beta``;
* ``heavy_fractions`` ``[h1, h2, h3]`` -- fraction of jobs heavy at
  each stage;
* ``gamma`` -- bound on the system heaviness ``H = max chi_{y,j}``.

The exact sampling distributions are not spelled out in the paper; the
choices here (documented in DESIGN.md) honour every stated constraint:

1. stage-heaviness classes are assigned to exactly
   ``round(h_j * n)`` jobs per stage;
2. the deadline ``D_i`` is drawn uniformly from the interval on which
   every stage can satisfy both its processing-time range and its
   heaviness class, then ``h_{i,j}`` is drawn uniformly within the
   admissible class window and ``P_{i,j} = h_{i,j} D_i``;
3. the job-to-resource mapping draws a resource uniformly among those
   whose heaviness would stay within ``gamma`` (the whole mapping is
   retried when a job does not fit anywhere, so ``H <= gamma`` holds by
   construction).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.exceptions import ModelError
from repro.core.system import JobSet, MSMRSystem, Stage
from repro.workload.heaviness import heaviness_matrix, system_heaviness

#: Mapping policies: how to choose among resources that still fit.
MAPPING_POLICIES = ("uniform", "best_fit", "worst_fit", "mixed")


@dataclass(frozen=True)
class EdgeWorkloadConfig:
    """Knobs of the edge workload generator (paper defaults)."""

    num_jobs: int = 100
    num_aps: int = 25
    num_servers: int = 20
    #: Heaviness threshold; per-stage heaviness stays below ``2 beta``.
    beta: float = 0.15
    #: Fraction of jobs heavy at each stage ``[h1, h2, h3]``.
    heavy_fractions: tuple[float, float, float] = (0.05, 0.05, 0.01)
    #: Bound on the system heaviness ``H``.
    gamma: float = 0.7
    #: Processing-time ranges (ms) per stage: offload, compute, download.
    stage_ranges: tuple[tuple[float, float], ...] = (
        (2.0, 200.0), (50.0, 500.0), (2.0, 100.0))
    #: Smallest per-stage heaviness of a light job.
    light_min: float = 0.01
    #: Distribution of light per-stage heaviness within
    #: ``[light_min, beta)``: ``"uniform"`` or ``"loguniform"``
    #: (log-uniform skews light jobs lighter, softening how strongly
    #: ``beta`` scales the total load).
    light_dist: str = "loguniform"
    #: Resource choice among fitting candidates (see module docstring).
    mapping_policy: str = "mixed"
    #: ``mixed`` policy: probability of a best-fit (packing) choice;
    #: the calibration knob for overall instance difficulty.
    packing_prob: float = 0.2
    #: Attempts to re-draw a mapping before giving up on ``gamma``.
    mapping_retries: int = 50

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ModelError(f"beta must be positive, got {self.beta}")
        if not 0 < self.light_min < self.beta:
            raise ModelError(
                f"light_min must lie in (0, beta), got {self.light_min} "
                f"with beta={self.beta}")
        if len(self.heavy_fractions) != 3 or \
                any(not 0 <= h <= 1 for h in self.heavy_fractions):
            raise ModelError(
                f"heavy_fractions must be three ratios in [0, 1], got "
                f"{self.heavy_fractions}")
        if self.gamma <= 0:
            raise ModelError(f"gamma must be positive, got {self.gamma}")
        if self.mapping_policy not in MAPPING_POLICIES:
            raise ModelError(
                f"mapping_policy must be one of {MAPPING_POLICIES}, got "
                f"{self.mapping_policy!r}")
        if not 0.0 <= self.packing_prob <= 1.0:
            raise ModelError(
                f"packing_prob must lie in [0, 1], got {self.packing_prob}")
        if self.light_dist not in ("uniform", "loguniform"):
            raise ModelError(
                f"light_dist must be 'uniform' or 'loguniform', got "
                f"{self.light_dist!r}")
        if len(self.stage_ranges) != 3 or any(
                lo <= 0 or hi < lo for lo, hi in self.stage_ranges):
            raise ModelError(f"bad stage ranges {self.stage_ranges}")

    def with_overrides(self, **kwargs) -> "EdgeWorkloadConfig":
        """Functional update (used by the experiment sweeps)."""
        return replace(self, **kwargs)


@dataclass
class EdgeTestCase:
    """A generated test case plus its ground-truth metadata."""

    jobset: JobSet
    config: EdgeWorkloadConfig
    seed: int
    #: ``(n, 3)`` bool: which (job, stage) pairs were drawn heavy.
    heavy: np.ndarray
    #: AP index per job (stages 1 and 3) and server index (stage 2).
    ap_of: np.ndarray = field(default=None)
    server_of: np.ndarray = field(default=None)

    @functools.cached_property
    def system_heaviness(self) -> float:
        return system_heaviness(self.jobset)


def edge_system(config: EdgeWorkloadConfig) -> MSMRSystem:
    """The 3-stage edge pipeline for a configuration."""
    return MSMRSystem([
        Stage(num_resources=config.num_aps, preemptive=False,
              name="uplink"),
        Stage(num_resources=config.num_servers, preemptive=True,
              name="server"),
        Stage(num_resources=config.num_aps, preemptive=False,
              name="downlink"),
    ])


def generate_edge_case(config: EdgeWorkloadConfig | None = None, *,
                       seed: int = 0) -> EdgeTestCase:
    """Generate one edge test case (jobs + mapping).

    Raises :class:`ModelError` when no mapping within ``gamma`` is found
    after ``mapping_retries`` attempts (parameters are then genuinely
    over-committed for the resource pool).
    """
    if config is None:
        config = EdgeWorkloadConfig()
    rng = np.random.default_rng(seed)
    n = config.num_jobs

    heavy = _draw_heavy_classes(rng, n, config.heavy_fractions)
    deadlines, heaviness = _draw_heaviness(
        rng, config, heavy, config.stage_ranges,
        "no feasible deadline for job {i}: stage ranges {ranges} are "
        "incompatible with the heaviness classes {windows}")
    processing = heaviness * deadlines[:, None]

    ap_of, server_of = _draw_mapping(rng, config, heaviness)

    jobset = JobSet.from_arrays(
        edge_system(config), processing, deadlines,
        np.stack([ap_of, server_of, ap_of], axis=1),
        names=[f"J{i}" for i in range(n)])
    case = EdgeTestCase(jobset=jobset, config=config, seed=seed,
                        heavy=heavy, ap_of=ap_of, server_of=server_of)
    _check_invariants(case)
    return case


def _draw_heavy_classes(rng: np.random.Generator, n: int,
                        fractions: "tuple[float, ...]") -> np.ndarray:
    """Pick exactly ``round(h_j * n)`` heavy jobs per stage."""
    heavy = np.zeros((n, len(fractions)), dtype=bool)
    for j, fraction in enumerate(fractions):
        count = int(round(fraction * n))
        if count > 0:
            chosen = rng.choice(n, size=count, replace=False)
            heavy[chosen, j] = True
    return heavy


def _draw_heaviness(rng: np.random.Generator, config, heavy: np.ndarray,
                    ranges: "tuple[tuple[float, float], ...]",
                    error: str) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``D_i`` and ``h_{i,j}`` jointly.

    For stage ``j`` with range ``[lo_j, hi_j]`` and class window
    ``[c_lo, c_hi)`` the deadline must satisfy
    ``lo_j / c_hi <= D`` (so some admissible ``h`` reaches ``lo_j``)
    and ``D <= hi_j / c_lo``; the per-stage heaviness is then drawn
    uniformly from ``[max(c_lo, lo_j/D), min(c_hi, hi_j/D)]``
    (log-uniformly for light classes under ``light_dist``).

    ``config`` supplies ``beta``, ``light_min`` and ``light_dist``.  A
    job with no feasible deadline raises ``error`` formatted with the
    job index ``i``, ``ranges`` and its class ``windows``.

    The random stream is that of a per-job ``rng.uniform`` for ``D_i``
    followed by one per stage: ``rng.uniform(a, b)`` is
    ``a + (b - a) * u`` on the next double ``u``, so one
    ``rng.random((n, N + 1))`` draw consumes the same doubles in the
    same order.
    """
    beta, light_min = config.beta, config.light_min
    lo = np.array([low for low, _high in ranges], dtype=float)
    hi = np.array([high for _low, high in ranges], dtype=float)
    c_lo = np.where(heavy, beta, light_min)
    c_hi = np.where(heavy, 2.0 * beta, beta)
    d_low = np.maximum((lo / c_hi).max(axis=1), 0.0)
    d_high = (hi / c_lo).min(axis=1)
    span = d_high - d_low
    bad = (d_low > d_high) | ~np.isfinite(span)
    if bad.any():
        i = int(np.argmax(bad))
        if d_low[i] <= d_high[i]:
            # What rng.uniform(d_low, d_high) raises on an infinite span.
            raise OverflowError("high - low range exceeds valid bounds")
        windows = [(beta, 2.0 * beta) if is_heavy else (light_min, beta)
                   for is_heavy in heavy[i].tolist()]
        raise ModelError(error.format(i=i, ranges=ranges, windows=windows))
    u = rng.random((heavy.shape[0], heavy.shape[1] + 1))
    deadlines = d_low + span * u[:, 0]
    h_lo = np.maximum(c_lo, lo / deadlines[:, None])
    # Numerical guard: the deadline interval guarantees h_lo <= h_hi
    # up to rounding.
    h_hi = np.maximum(np.minimum(c_hi, hi / deadlines[:, None]), h_lo)
    heaviness = h_lo + (h_hi - h_lo) * u[:, 1:]
    logarithmic = ~heavy & ~(h_lo <= 0.0)
    if config.light_dist != "uniform" and logarithmic.any():
        log_lo = np.log(h_lo[logarithmic])
        log_hi = np.log(h_hi[logarithmic])
        heaviness[logarithmic] = np.exp(
            log_lo + (log_hi - log_lo) * u[:, 1:][logarithmic])
    return deadlines, heaviness


def _draw_mapping(rng: np.random.Generator, config: EdgeWorkloadConfig,
                  heaviness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign APs and servers keeping every ``chi_{y,j} <= gamma``."""
    n = config.num_jobs
    limit = config.gamma + 1e-12
    policy, packing = config.mapping_policy, config.packing_prob
    aps, servers = range(config.num_aps), range(config.num_servers)
    rows = heaviness.tolist()
    for _ in range(config.mapping_retries):
        order = rng.permutation(n)
        ap_of = np.full(n, -1, dtype=np.int64)
        server_of = np.full(n, -1, dtype=np.int64)
        chi_up = [0.0] * config.num_aps
        chi_down = [0.0] * config.num_aps
        chi_server = [0.0] * config.num_servers
        ok = True
        for i in order.tolist():
            up, compute, down = rows[i]
            # An AP fits when both of its links stay within gamma.  Both
            # picks draw before either failure is acted on.
            ap = _pick(rng, [y for y in aps if chi_up[y] + up <= limit
                             and chi_down[y] + down <= limit],
                       lambda y: max(chi_up[y] + up, chi_down[y] + down),
                       policy, packing)
            server = _pick(rng, [y for y in servers
                                 if chi_server[y] + compute <= limit],
                           lambda y: chi_server[y] + compute,
                           policy, packing)
            if ap is None or server is None:
                ok = False
                break
            ap_of[i] = ap
            server_of[i] = server
            chi_up[ap] += up
            chi_down[ap] += down
            chi_server[server] += compute
        if ok:
            return ap_of, server_of
    raise ModelError(
        f"could not place {n} jobs within gamma={config.gamma} after "
        f"{config.mapping_retries} attempts; lower the load or raise "
        f"gamma")


def _pick(rng: np.random.Generator, feasible: "list[int]", load,
          policy: str, packing_prob: float) -> int | None:
    """Choose one of the ``feasible`` resources (those staying within
    ``gamma``).

    ``load(y)`` is the resulting heaviness of resource ``y`` if the job
    were placed there.  Policy:

    * ``uniform``  -- uniformly random feasible resource;
    * ``best_fit`` -- the feasible resource left *fullest* (packs load
      onto few resources, maximising contention for a given gamma);
    * ``worst_fit`` -- the feasible resource left *emptiest* (spreads
      load, the easiest instances);
    * ``mixed``    -- best-fit with probability ``packing_prob``, else
      uniform; interpolates difficulty while keeping ``gamma`` binding.

    A draw among ``k`` candidates is ``rng.integers(0, k)``, the draw
    ``rng.choice`` makes on a ``k``-element array.
    """
    if not feasible:
        return None
    if policy == "mixed":
        policy = ("best_fit" if rng.random() < packing_prob
                  else "uniform")
    if policy == "uniform":
        return feasible[rng.integers(0, len(feasible))]
    loads = [load(y) for y in feasible]
    target = max(loads) if policy == "best_fit" else min(loads)
    best = [y for y, value in zip(feasible, loads) if value == target]
    return best[rng.integers(0, len(best))]


def _check_invariants(case: EdgeTestCase) -> None:
    """Assert every constraint the paper states for generated cases."""
    config = case.config
    h = heaviness_matrix(case.jobset)
    if (h >= 2.0 * config.beta + 1e-9).any():
        raise ModelError("a job exceeds the 2*beta heaviness cap")
    load = case.system_heaviness
    if load > config.gamma + 1e-9:
        raise ModelError(
            f"system heaviness {load:.3f} exceeds gamma={config.gamma}")
    processing = case.jobset.P
    for j, (lo, hi) in enumerate(config.stage_ranges):
        column = processing[:, j]
        if (column < lo - 1e-9).any() or (column > hi + 1e-9).any():
            raise ModelError(
                f"stage {j} processing times leave [{lo}, {hi}]")
