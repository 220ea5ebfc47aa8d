"""Shared fixtures: the paper's running examples and small workloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import Job
from repro.core.system import JobSet, MSMRSystem, Stage
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case

#: Stage-processing times of the paper's Example 1 (Section IV.A):
#: J1 <5,7,15>, J2 <7,9,17>, J3 <6,8,30>, J4 <2,4,3>.
EXAMPLE1_PROCESSING = [(5, 7, 15), (7, 9, 17), (6, 8, 30), (2, 4, 3)]


@pytest.fixture
def example1_jobset() -> JobSet:
    """Example 1: 3-stage single-resource pipeline, 4 jobs.

    Deadlines are irrelevant for the delay values the paper quotes
    (Delta_2 = 92 -> 87); a generous common deadline is used.
    """
    return JobSet.single_resource(
        processing=EXAMPLE1_PROCESSING,
        deadlines=[200.0] * 4,
        preemptive=False,
    )


@pytest.fixture
def fig2_jobset() -> JobSet:
    """The MSMR instance of Figure 2 / Observation V.1.

    Same stage times as Example 1, deadlines {60, 55, 55, 50},
    preemptive scheduling, synchronous release, and the job-to-resource
    mapping of Figure 2(a): two resources (A=0, B=1) per stage with
    S1: {J1,J3}->A, {J2,J4}->B; S2, S3: {J3,J4}->A, {J1,J2}->B.
    """
    system = MSMRSystem([Stage(2), Stage(2), Stage(2)])
    jobs = [
        Job(processing=(5, 7, 15), deadline=60, resources=(0, 1, 1),
            name="J1"),
        Job(processing=(7, 9, 17), deadline=55, resources=(1, 1, 1),
            name="J2"),
        Job(processing=(6, 8, 30), deadline=55, resources=(0, 0, 0),
            name="J3"),
        Job(processing=(2, 4, 3), deadline=50, resources=(1, 0, 0),
            name="J4"),
    ]
    return JobSet(system, jobs)


#: The pairwise priority assignment of Figure 2(b):
#: J3 > J1 (S1), J1 > J2 (S2/S3), J2 > J4 (S1), J4 > J3 (S2/S3).
FIG2_PAIRS = [(2, 0), (0, 1), (1, 3), (3, 2)]


@pytest.fixture
def small_edge_config() -> EdgeWorkloadConfig:
    """A scaled-down edge workload for fast tests."""
    return EdgeWorkloadConfig(num_jobs=20, num_aps=6, num_servers=5)


def figure4_cases(seeds=(0,)) -> list:
    """The Figure 4 edge job sets as ``pytest.param``s, labelled by
    point and seed: the twelve points of panels 4a-c, then the six
    settings of panel 4d, at each case seed."""
    from repro.experiments.config import (
        ADMISSION_SETTINGS,
        BETA_VALUES,
        GAMMA_VALUES,
        HEAVY_FRACTION_VALUES,
    )

    points = [(f"4a/beta={beta:g}", {"beta": beta})
              for beta in BETA_VALUES]
    points += [(f"4b/h={list(h)}", {"heavy_fractions": h})
               for h in HEAVY_FRACTION_VALUES]
    points += [(f"4c/gamma={gamma:g}", {"gamma": gamma})
               for gamma in GAMMA_VALUES]
    points += [(f"4d/{label}", dict(overrides))
               for label, overrides in ADMISSION_SETTINGS]
    base = EdgeWorkloadConfig()
    return [pytest.param(
                generate_edge_case(base.with_overrides(**overrides),
                                   seed=seed).jobset,
                id=f"{label}/seed={seed}")
            for label, overrides in points for seed in seeds]


@pytest.fixture
def small_edge_jobset(small_edge_config):
    return generate_edge_case(small_edge_config, seed=7).jobset


def as_mask(n: int, members) -> np.ndarray:
    """Helper: boolean mask from index collection."""
    mask = np.zeros(n, dtype=bool)
    for member in members:
        mask[member] = True
    return mask
