"""Stream identity of the array generators against the scalar oracle.

The edge and pipeline generators draw their deadlines and heaviness
with one ``rng.random`` block and their mappings with
``rng.integers`` over Python floats.  The functions below are the
earlier scalar implementations, copied verbatim (per-job
``rng.uniform`` draws, ``rng.choice`` picks over numpy loads, one
:class:`Job` per row).  Every generated array and every error text must
match them bitwise.

The comparison is against an oracle rather than pinned digests because
``np.log``/``np.exp`` take different SIMD paths on different CPUs: the
contract is "the same doubles as the scalar code on this machine".
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.exceptions import ModelError
from repro.core.job import Job
from repro.core.system import JobSet
from repro.workload.edge import (
    MAPPING_POLICIES,
    EdgeWorkloadConfig,
    edge_system,
    generate_edge_case,
)
from repro.workload.pipeline import (
    PipelineWorkloadConfig,
    generate_pipeline_case,
    pipeline_system,
)

# ----------------------------------------------------------------------
# Edge oracle: the scalar generator, verbatim.
# ----------------------------------------------------------------------


def _edge_draw_heavy_classes(rng: np.random.Generator,
                             config: EdgeWorkloadConfig) -> np.ndarray:
    """Pick exactly ``round(h_j * n)`` heavy jobs per stage."""
    n = config.num_jobs
    heavy = np.zeros((n, 3), dtype=bool)
    for j, fraction in enumerate(config.heavy_fractions):
        count = int(round(fraction * n))
        if count > 0:
            chosen = rng.choice(n, size=count, replace=False)
            heavy[chosen, j] = True
    return heavy


def _edge_draw_heaviness(rng: np.random.Generator,
                         config: EdgeWorkloadConfig,
                         heavy: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    n = config.num_jobs
    beta = config.beta
    deadlines = np.empty(n)
    heaviness = np.empty((n, 3))
    for i in range(n):
        d_low, d_high = 0.0, np.inf
        windows = []
        for j, (lo, hi) in enumerate(config.stage_ranges):
            if heavy[i, j]:
                c_lo, c_hi = beta, 2.0 * beta
            else:
                c_lo, c_hi = config.light_min, beta
            windows.append((c_lo, c_hi))
            d_low = max(d_low, lo / c_hi)
            d_high = min(d_high, hi / c_lo)
        if d_low > d_high:
            raise ModelError(
                f"no feasible deadline for job {i}: stage ranges "
                f"{config.stage_ranges} are incompatible with the "
                f"heaviness classes {windows}")
        deadlines[i] = rng.uniform(d_low, d_high)
        for j, (lo, hi) in enumerate(config.stage_ranges):
            c_lo, c_hi = windows[j]
            h_lo = max(c_lo, lo / deadlines[i])
            h_hi = min(c_hi, hi / deadlines[i])
            # Numerical guard: the deadline interval guarantees
            # h_lo <= h_hi up to rounding.
            h_hi = max(h_hi, h_lo)
            if heavy[i, j] or config.light_dist == "uniform" or \
                    h_lo <= 0.0:
                heaviness[i, j] = rng.uniform(h_lo, h_hi)
            else:
                heaviness[i, j] = float(np.exp(
                    rng.uniform(np.log(h_lo), np.log(max(h_hi, h_lo)))))
    return deadlines, heaviness


def _edge_draw_mapping(rng: np.random.Generator,
                       config: EdgeWorkloadConfig,
                       heaviness: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    n = config.num_jobs
    for _ in range(config.mapping_retries):
        order = rng.permutation(n)
        ap_of = np.full(n, -1, dtype=np.int64)
        server_of = np.full(n, -1, dtype=np.int64)
        chi_up = np.zeros(config.num_aps)
        chi_down = np.zeros(config.num_aps)
        chi_server = np.zeros(config.num_servers)
        ok = True
        for i in order:
            i = int(i)
            ap = _edge_pick(rng, config,
                            np.maximum(chi_up + heaviness[i, 0],
                                       chi_down + heaviness[i, 2]))
            server = _edge_pick(rng, config, chi_server + heaviness[i, 1])
            if ap is None or server is None:
                ok = False
                break
            ap_of[i] = ap
            server_of[i] = server
            chi_up[ap] += heaviness[i, 0]
            chi_down[ap] += heaviness[i, 2]
            chi_server[server] += heaviness[i, 1]
        if ok:
            return ap_of, server_of
    raise ModelError(
        f"could not place {n} jobs within gamma={config.gamma} after "
        f"{config.mapping_retries} attempts; lower the load or raise "
        f"gamma")


def _edge_pick(rng: np.random.Generator, config: EdgeWorkloadConfig,
               load_if_assigned: np.ndarray) -> int | None:
    feasible = np.flatnonzero(load_if_assigned <= config.gamma + 1e-12)
    if feasible.size == 0:
        return None
    policy = config.mapping_policy
    if policy == "mixed":
        policy = ("best_fit" if rng.random() < config.packing_prob
                  else "uniform")
    if policy == "uniform":
        return int(rng.choice(feasible))
    loads = load_if_assigned[feasible]
    if policy == "best_fit":
        best = np.flatnonzero(loads == loads.max())
    else:
        best = np.flatnonzero(loads == loads.min())
    return int(feasible[rng.choice(best)])


def oracle_edge_case(config: EdgeWorkloadConfig, seed: int):
    """``(jobset, heavy, ap_of, server_of)`` as the scalar code made
    them."""
    rng = np.random.default_rng(seed)
    n = config.num_jobs
    heavy = _edge_draw_heavy_classes(rng, config)
    deadlines, heaviness = _edge_draw_heaviness(rng, config, heavy)
    processing = heaviness * deadlines[:, None]
    ap_of, server_of = _edge_draw_mapping(rng, config, heaviness)
    jobs = [
        Job(processing=tuple(processing[i]),
            deadline=float(deadlines[i]),
            arrival=0.0,
            resources=(int(ap_of[i]), int(server_of[i]), int(ap_of[i])),
            name=f"J{i}")
        for i in range(n)
    ]
    return JobSet(edge_system(config), jobs), heavy, ap_of, server_of


# ----------------------------------------------------------------------
# Pipeline oracle: the scalar generator, verbatim.
# ----------------------------------------------------------------------


def _pipe_draw_heavy_classes(rng: np.random.Generator,
                             config: PipelineWorkloadConfig) -> np.ndarray:
    n, num_stages = config.num_jobs, config.num_stages
    heavy = np.zeros((n, num_stages), dtype=bool)
    for j, fraction in enumerate(config.fractions()):
        count = int(round(fraction * n))
        if count > 0:
            chosen = rng.choice(n, size=count, replace=False)
            heavy[chosen, j] = True
    return heavy


def _pipe_draw_heaviness(rng: np.random.Generator,
                         config: PipelineWorkloadConfig,
                         heavy: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    n, num_stages = config.num_jobs, config.num_stages
    beta = config.beta
    ranges = config.ranges()
    deadlines = np.empty(n)
    heaviness = np.empty((n, num_stages))
    for i in range(n):
        d_low, d_high = 0.0, np.inf
        windows = []
        for j, (lo, hi) in enumerate(ranges):
            if heavy[i, j]:
                c_lo, c_hi = beta, 2.0 * beta
            else:
                c_lo, c_hi = config.light_min, beta
            windows.append((c_lo, c_hi))
            d_low = max(d_low, lo / c_hi)
            d_high = min(d_high, hi / c_lo)
        if d_low > d_high:
            raise ModelError(
                f"no feasible deadline for job {i}: ranges {ranges} "
                f"conflict with heaviness classes {windows}")
        deadlines[i] = rng.uniform(d_low, d_high)
        for j, (lo, hi) in enumerate(ranges):
            c_lo, c_hi = windows[j]
            h_lo = max(c_lo, lo / deadlines[i])
            h_hi = max(min(c_hi, hi / deadlines[i]), h_lo)
            if heavy[i, j] or config.light_dist == "uniform" or \
                    h_lo <= 0.0:
                heaviness[i, j] = rng.uniform(h_lo, h_hi)
            else:
                heaviness[i, j] = float(np.exp(
                    rng.uniform(np.log(h_lo), np.log(h_hi))))
    return deadlines, heaviness


def _pipe_draw_mapping(rng: np.random.Generator,
                       config: PipelineWorkloadConfig,
                       heaviness: np.ndarray) -> np.ndarray:
    n, num_stages = config.num_jobs, config.num_stages
    pools = config.pools()
    for _ in range(config.mapping_retries):
        order = rng.permutation(n)
        mapping = np.full((n, num_stages), -1, dtype=np.int64)
        chi = [np.zeros(pool) for pool in pools]
        ok = True
        for i in order:
            i = int(i)
            for j in range(num_stages):
                resource = _pipe_pick(rng, config,
                                      chi[j] + heaviness[i, j])
                if resource is None:
                    ok = False
                    break
                mapping[i, j] = resource
                chi[j][resource] += heaviness[i, j]
            if not ok:
                break
        if ok:
            return mapping
    raise ModelError(
        f"could not place {n} jobs within gamma={config.gamma} after "
        f"{config.mapping_retries} attempts; lower the load or raise "
        f"gamma")


def _pipe_pick(rng: np.random.Generator, config: PipelineWorkloadConfig,
               load_if_assigned: np.ndarray) -> int | None:
    feasible = np.flatnonzero(load_if_assigned <= config.gamma + 1e-12)
    if feasible.size == 0:
        return None
    if rng.random() < config.packing_prob:
        loads = load_if_assigned[feasible]
        best = np.flatnonzero(loads == loads.max())
        return int(feasible[rng.choice(best)])
    return int(rng.choice(feasible))


def oracle_pipeline_case(config: PipelineWorkloadConfig, seed: int):
    """``(jobset, heavy)`` as the scalar code made them."""
    rng = np.random.default_rng(seed)
    heavy = _pipe_draw_heavy_classes(rng, config)
    deadlines, heaviness = _pipe_draw_heaviness(rng, config, heavy)
    processing = heaviness * deadlines[:, None]
    mapping = _pipe_draw_mapping(rng, config, heaviness)
    jobs = [
        Job(processing=tuple(processing[i]),
            deadline=float(deadlines[i]),
            arrival=0.0,
            resources=tuple(int(r) for r in mapping[i]),
            name=f"J{i}")
        for i in range(config.num_jobs)
    ]
    return JobSet(pipeline_system(config), jobs), heavy


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _assert_same_jobset(got: JobSet, want: JobSet) -> None:
    for field in ("P", "D", "A", "R"):
        assert _same_array(getattr(got, field), getattr(want, field)), field
    assert got.system == want.system


def _outcome(make):
    """``("ok", value)`` or ``("error", type, text)`` of ``make()``."""
    try:
        return ("ok", make())
    except (ModelError, OverflowError) as error:
        return ("error", type(error), str(error))


BETAS = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
GAMMAS = (0.5, 0.7, 1.0)
SEEDS = range(8)


@pytest.mark.parametrize("light_dist", ("uniform", "loguniform"))
@pytest.mark.parametrize("policy", MAPPING_POLICIES)
def test_edge_generator_matches_scalar_oracle(policy, light_dist):
    errors = 0
    for beta, gamma, seed in itertools.product(BETAS, GAMMAS, SEEDS):
        config = EdgeWorkloadConfig(beta=beta, gamma=gamma,
                                    mapping_policy=policy,
                                    light_dist=light_dist)
        want = _outcome(lambda: oracle_edge_case(config, seed))
        got = _outcome(lambda: generate_edge_case(config, seed=seed))
        label = (policy, light_dist, beta, gamma, seed)
        assert got[0] == want[0], (label, got, want)
        if want[0] == "error":
            errors += 1
            assert got[1:] == want[1:], label
            continue
        case = got[1]
        jobset, heavy, ap_of, server_of = want[1]
        _assert_same_jobset(case.jobset, jobset)
        assert _same_array(case.heavy, heavy), label
        assert _same_array(case.ap_of, ap_of), label
        assert _same_array(case.server_of, server_of), label
    # The grid reaches the over-committed corner too.
    if policy == "best_fit":
        assert errors > 0


@pytest.mark.parametrize("config", [
    # No feasible deadline for some job.
    EdgeWorkloadConfig(
        stage_ranges=((2.0, 200.0), (190.0, 500.0), (2.0, 3.0)),
        heavy_fractions=(0.05, 0.3, 0.01)),
    # Unbounded ranges: the deadline draw's span is infinite.
    EdgeWorkloadConfig(stage_ranges=((2.0, np.inf),) * 3),
])
def test_edge_deadline_errors_match_oracle(config):
    want = _outcome(lambda: oracle_edge_case(config, 3))
    got = _outcome(lambda: generate_edge_case(config, seed=3))
    assert want[0] == "error"
    assert got == want


PIPELINE_CONFIGS = [
    PipelineWorkloadConfig(),
    PipelineWorkloadConfig(num_stages=1, num_jobs=20, resources_per_stage=3),
    PipelineWorkloadConfig(num_stages=2, num_jobs=40,
                           resources_per_stage=(4, 6), beta=0.25,
                           heavy_fractions=(0.1, 0.0), gamma=0.9,
                           light_dist="uniform"),
    PipelineWorkloadConfig(num_stages=5, num_jobs=80, beta=0.1,
                           heavy_fractions=0.1, packing_prob=0.8,
                           stage_ranges=(5.0, 50.0)),
    PipelineWorkloadConfig(num_stages=4, num_jobs=30,
                           resources_per_stage=(2, 3, 2, 5),
                           stage_ranges=((2.0, 20.0), (50.0, 500.0),
                                         (1.0, 10.0), (10.0, 90.0)),
                           packing_prob=0.0, gamma=0.6),
    # Over-committed: every mapping attempt fails.
    PipelineWorkloadConfig(num_stages=3, num_jobs=60,
                           resources_per_stage=2, beta=0.3, gamma=0.5,
                           mapping_retries=3),
    # No feasible deadline for the heavy jobs.
    PipelineWorkloadConfig(num_stages=2, num_jobs=10, beta=0.05,
                           heavy_fractions=(0.5, 0.0),
                           stage_ranges=((150.0, 200.0), (1.0, 2.0))),
]


@pytest.mark.parametrize("index", range(len(PIPELINE_CONFIGS)))
def test_pipeline_generator_matches_scalar_oracle(index):
    config = PIPELINE_CONFIGS[index]
    for seed in SEEDS:
        want = _outcome(lambda: oracle_pipeline_case(config, seed))
        got = _outcome(lambda: generate_pipeline_case(config, seed=seed))
        assert got[0] == want[0], (index, seed, got, want)
        if want[0] == "error":
            assert got[1:] == want[1:], (index, seed)
            continue
        jobset, heavy = want[1]
        _assert_same_jobset(got[1].jobset, jobset)
        assert _same_array(got[1].heavy, heavy), (index, seed)


def test_pipeline_grid_reaches_both_error_kinds():
    texts = {_outcome(lambda: oracle_pipeline_case(config, 0))[-1]
             for config in PIPELINE_CONFIGS[-2:]}
    assert any(text.startswith("could not place") for text in texts)
    assert any(text.startswith("no feasible deadline") for text in texts)


def test_generated_jobs_equal_job_built_jobs():
    config = EdgeWorkloadConfig(beta=0.1)
    case = generate_edge_case(config, seed=5)
    jobset = oracle_edge_case(config, 5)[0]
    assert case.jobset.jobs == jobset.jobs
    assert [job.name for job in case.jobset] == \
        [job.name for job in jobset]
    assert case.jobset.label(7) == jobset.label(7) == "J7"
