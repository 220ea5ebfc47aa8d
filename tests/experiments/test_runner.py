"""Tests for the per-case experiment runner."""

import pytest

from repro.core.exceptions import SolverError
from repro.experiments import runner
from repro.experiments.runner import APPROACHES, evaluate_case
from repro.pairwise.dm import dm
from repro.pairwise.opt import opt
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case

SEEDED_CONFIG = EdgeWorkloadConfig(num_jobs=12, num_aps=4, num_servers=3)
#: Same size, loaded so that the 8 seeds mix rejections, DMR-only
#: acceptances and DM acceptances.
CONTENDED_CONFIG = SEEDED_CONFIG.with_overrides(beta=0.22, gamma=0.95)


@pytest.fixture(scope="module")
def case():
    config = EdgeWorkloadConfig(num_jobs=15, num_aps=5, num_servers=4)
    return generate_edge_case(config, seed=1)


class TestEvaluateCase:
    def test_all_approaches_reported(self, case):
        result = evaluate_case(case)
        assert set(result.accepted) == set(APPROACHES)
        assert set(result.runtime) == set(APPROACHES)
        assert all(t >= 0 for t in result.runtime.values())

    def test_guaranteed_dominances(self, case):
        result = evaluate_case(case)
        if result.accepted_by("dm"):
            assert result.accepted_by("dmr")
            assert result.accepted_by("opdca")
        if result.accepted_by("dmr"):
            assert result.accepted_by("opt")
        if result.accepted_by("opdca"):
            assert result.accepted_by("opt")

    def test_subset_of_approaches(self, case):
        result = evaluate_case(case, approaches=("dm", "dcmp"))
        assert set(result.accepted) == {"dm", "dcmp"}

    def test_unknown_approach_rejected(self, case, monkeypatch):
        with pytest.raises(ValueError, match="unknown approach"):
            evaluate_case(case, approaches=("rms",))
        ran = []
        for name in APPROACHES:
            monkeypatch.setattr(
                runner, name,
                lambda *args, _name=name, **kwargs: ran.append(_name))
        with pytest.raises(ValueError, match="unknown approach 'rms'"):
            evaluate_case(case, approaches=("opt", "rms"))
        assert ran == []

    def test_heaviness_recorded(self, case):
        result = evaluate_case(case, approaches=("dm",))
        assert 0 < result.system_heaviness <= case.config.gamma + 1e-9

    def test_opt_backend_choice(self, case):
        result = evaluate_case(case, approaches=("opt",),
                               opt_backend="cp")
        assert "opt" in result.accepted

    def test_dominances_across_seeds(self):
        for seed in range(8):
            case = generate_edge_case(SEEDED_CONFIG, seed=seed)
            result = evaluate_case(
                case, approaches=("dm", "dmr", "opdca", "opt"))
            assert not (result.accepted_by("dm")
                        and not result.accepted_by("dmr"))
            assert not (result.accepted_by("dmr")
                        and not result.accepted_by("opt"))
            assert not (result.accepted_by("opdca")
                        and not result.accepted_by("opt"))

    @pytest.mark.parametrize("config", [SEEDED_CONFIG, CONTENDED_CONFIG],
                             ids=["seeded", "contended"])
    def test_witness_free_ilp_dominates_across_seeds(self, config):
        """With a witness, OPT accepts whatever a heuristic accepted by
        construction; the pure ILP must reach the same verdicts."""
        for seed in range(8):
            case = generate_edge_case(config, seed=seed)
            result = evaluate_case(
                case, approaches=("dm", "dmr", "opdca", "opt"))
            ilp = opt(case.jobset, "eq10", backend="highs")
            assert ilp.solver == "opt/highs"
            if any(result.accepted_by(name)
                   for name in ("dm", "dmr", "opdca")):
                assert ilp.feasible, f"seed {seed}"
            assert ilp.feasible == result.accepted_by("opt"), \
                f"seed {seed}"

    def test_opt_status_names_the_witness(self):
        statuses = set()
        for seed in range(8):
            case = generate_edge_case(CONTENDED_CONFIG, seed=seed)
            result = evaluate_case(
                case, approaches=("dm", "dmr", "opdca", "opt"))
            status = result.notes["opt_status"]
            statuses.add(status)
            first = next((name for name in ("dm", "dmr", "opdca")
                          if result.accepted_by(name)), None)
            if first is None:
                assert not status.startswith("witness")
            else:
                assert status == f"witness:{first}"
        assert {"witness:dm", "witness:dmr"} <= statuses
        assert any(not s.startswith("witness") for s in statuses)

    def test_forged_witness_raises(self):
        """A heuristic assignment that misses a deadline must fail
        loudly as a witness, never become an OPT accept."""
        jobset = generate_edge_case(CONTENDED_CONFIG, seed=0).jobset
        rejected = dm(jobset, "eq10")
        assert not rejected.feasible
        with pytest.raises(SolverError, match="violates the analysis"):
            opt(jobset, "eq10", witness=rejected.assignment)
