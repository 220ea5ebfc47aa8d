"""Campaign spec validation, (de)serialisation and expansion."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    AXIS_NAMES,
    CampaignError,
    CampaignSpec,
    campaign_hash,
    expand,
    load_campaign,
    manifest,
    save_campaign,
)
from repro.campaign.spec import DEFAULT_AXES, tomllib

REPO_ROOT = Path(__file__).resolve().parents[2]

TINY_WORKLOAD = {"edge": {"num_aps": 4, "num_servers": 3}}


def tiny_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="tiny",
        axes={"family": ("edge", "poisson"), "jobs": (6, 8),
              "seed": (0, 1)},
        approaches=("dm", "dmr"),
        horizon=20.0,
        rate=0.3,
        workload=TINY_WORKLOAD,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(CampaignError, match="unknown axis"):
            CampaignSpec(axes={"frequency": (1, 2)})

    def test_unknown_family_rejected(self):
        with pytest.raises(CampaignError, match="unknown family"):
            CampaignSpec(axes={"family": ("edge", "galactic")})

    def test_replay_family_rejected(self):
        # Replay streams need an external trace file; campaigns must
        # stay self-contained value objects.
        with pytest.raises(CampaignError, match="unknown family"):
            CampaignSpec(axes={"family": ("replay",)})

    def test_bad_equation_rejected(self):
        with pytest.raises(CampaignError, match="unknown equation"):
            CampaignSpec(axes={"equation": ("eq7",)})

    def test_bad_policy_rejected(self):
        with pytest.raises(CampaignError, match="unknown policy"):
            CampaignSpec(axes={"policy": ("fifo",)})

    def test_bad_backend_rejected(self):
        with pytest.raises(CampaignError, match="unknown opt backend"):
            CampaignSpec(axes={"opt_backend": ("gurobi",)})

    def test_jobs_must_be_positive_ints(self):
        for bad in (0, -3, 2.5, "10", True):
            with pytest.raises(CampaignError, match="positive integer"):
                CampaignSpec(axes={"jobs": (bad,)})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError, match="no values"):
            CampaignSpec(axes={"jobs": ()})

    def test_duplicate_values_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignSpec(axes={"seed": (1, 1)})

    def test_unknown_workload_section_rejected(self):
        with pytest.raises(CampaignError, match="workload section"):
            CampaignSpec(workload={"cloud": {}})

    def test_bad_mode_rejected(self):
        with pytest.raises(CampaignError, match="mode"):
            CampaignSpec(mode="lazy")

    def test_exclude_unknown_axis_rejected(self):
        with pytest.raises(CampaignError, match="unknown axis"):
            tiny_spec(exclude=({"frequency": (1,)},))

    def test_exclude_undeclared_value_is_contradictory(self):
        with pytest.raises(CampaignError, match="contradictory"):
            tiny_spec(exclude=({"jobs": (99,)},))

    def test_exclude_empty_clause_rejected(self):
        with pytest.raises(CampaignError, match="non-empty"):
            tiny_spec(exclude=({},))

    def test_excludes_eliminating_everything_rejected(self):
        spec = tiny_spec(exclude=({"family": ("edge", "poisson")},))
        with pytest.raises(CampaignError, match="eliminate"):
            expand(spec)

    def test_unknown_approach_rejected(self):
        with pytest.raises(CampaignError, match="unknown approach"):
            CampaignSpec(approaches=("dm", "opdca", "typo"))

    def test_empty_approaches_rejected(self):
        with pytest.raises(CampaignError, match="no approaches"):
            CampaignSpec(approaches=())


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        spec = tiny_spec(exclude=({"family": ("edge",),
                                   "jobs": (6,)},))
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip_identity(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "campaign.json"
        save_campaign(spec, path)
        assert load_campaign(path) == spec

    def test_json_text_round_trip_identity(self):
        spec = tiny_spec()
        text = json.dumps(spec.to_dict())
        assert CampaignSpec.from_dict(json.loads(text)) == spec

    @pytest.mark.skipif(tomllib is None,
                        reason="tomllib needs Python >= 3.11")
    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "campaign.toml"
        path.write_text(
            'name = "toml-campaign"\n'
            "[axes]\n"
            'family = ["edge"]\n'
            "jobs = [6]\n"
            "seed = [0, 1]\n"
            "[workload.edge]\n"
            "num_aps = 4\n"
            "num_servers = 3\n")
        spec = load_campaign(path)
        assert spec.name == "toml-campaign"
        assert spec.axes["jobs"] == (6,)
        # TOML and JSON declarations of the same campaign are the
        # same value object (and hash identically).
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert campaign_hash(clone) == campaign_hash(spec)


class TestMalformedFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign spec"):
            load_campaign(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json!")
        with pytest.raises(CampaignError, match="malformed JSON"):
            load_campaign(path)

    @pytest.mark.skipif(tomllib is None,
                        reason="tomllib needs Python >= 3.11")
    def test_malformed_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("name = [unterminated")
        with pytest.raises(CampaignError, match="malformed TOML"):
            load_campaign(path)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: nope")
        with pytest.raises(CampaignError, match="extension"):
            load_campaign(path)

    def test_non_mapping_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CampaignError, match="mapping"):
            load_campaign(path)

    def test_unknown_top_level_keys(self):
        with pytest.raises(CampaignError, match="unknown campaign"):
            CampaignSpec.from_dict({"name": "x", "iterations": 5})

    def test_foreign_format_rejected(self):
        with pytest.raises(CampaignError, match="format"):
            CampaignSpec.from_dict({"format": "something-else"})

    def test_future_version_rejected(self):
        with pytest.raises(CampaignError, match="version"):
            CampaignSpec.from_dict({"version": 99})


class TestExpansion:
    def test_deterministic(self):
        spec = tiny_spec()
        first = expand(spec)
        second = expand(spec)
        assert [s.point for s in first] == [s.point for s in second]
        assert [s.spec for s in first] == [s.spec for s in second]

    def test_counts_and_kinds(self):
        scenarios = expand(tiny_spec())
        assert len(scenarios) == 8  # 2 families x 2 jobs x 2 seeds
        assert sum(s.kind == "batch" for s in scenarios) == 4
        assert sum(s.kind == "online" for s in scenarios) == 4

    def test_irrelevant_axes_collapse(self):
        # Two equations only multiply the batch scenarios: online
        # scenarios ignore `equation`, so they materialise once.
        spec = tiny_spec(axes={"family": ("edge", "poisson"),
                               "equation": ("eq6", "eq10"),
                               "seed": (0, 1)})
        scenarios = expand(spec)
        batch = [s for s in scenarios if s.kind == "batch"]
        online = [s for s in scenarios if s.kind == "online"]
        assert len(batch) == 4   # 2 equations x 2 seeds
        assert len(online) == 2  # equation collapsed: 2 seeds only
        assert {s.spec.equation for s in batch} == {"eq6", "eq10"}

    def test_points_carry_only_relevant_axes(self):
        for scenario in expand(tiny_spec()):
            if scenario.kind == "batch":
                assert "policy" not in scenario.point
                assert scenario.point["equation"] == "eq10"
            else:
                assert "equation" not in scenario.point
                assert "opt_backend" not in scenario.point
                assert scenario.point["policy"] == "preemptive"

    def test_excludes_drop_matching_points(self):
        spec = tiny_spec(exclude=({"family": ("edge",),
                                   "jobs": (6,)},))
        scenarios = expand(spec)
        assert len(scenarios) == 6
        assert not any(s.point["family"] == "edge" and
                       s.point["jobs"] == 6 for s in scenarios)

    def test_exclude_on_irrelevant_axis_spares_the_family(self):
        # `policy` is irrelevant to batch families: the clause must
        # trim online points only, never silently delete every edge
        # scenario (which an exclusion-before-collapse check would).
        spec = tiny_spec(
            axes={"family": ("edge", "poisson"), "jobs": (8,),
                  "policy": ("preemptive", "edge"), "seed": (0,)},
            exclude=({"family": ("edge",),
                      "policy": ("preemptive",)},))
        with pytest.raises(CampaignError, match="never match"):
            # ...and because batch families never consume `policy`,
            # this clause matches nothing at all: contradictory.
            expand(spec)

    def test_exclude_policy_trims_online_only(self):
        spec = tiny_spec(
            axes={"family": ("edge", "poisson"), "jobs": (8,),
                  "policy": ("preemptive", "edge"), "seed": (0,)},
            exclude=({"policy": ("edge",)},))
        scenarios = expand(spec)
        batch = [s for s in scenarios if s.kind == "batch"]
        online = [s for s in scenarios if s.kind == "online"]
        assert len(batch) == 1  # edge family untouched
        assert [s.point["policy"] for s in online] == ["preemptive"]

    def test_dead_exclude_clause_is_contradictory(self):
        # A batch-only campaign cannot be trimmed by a policy clause:
        # the clause matches no grid point and must be rejected, not
        # silently ignored.
        spec = tiny_spec(
            axes={"family": ("edge",), "jobs": (6, 8), "seed": (0,),
                  "policy": ("preemptive", "edge")},
            exclude=({"policy": ("edge",)},))
        with pytest.raises(CampaignError, match="never match"):
            expand(spec)

    def test_jobs_axis_reaches_the_generators(self):
        for scenario in expand(tiny_spec()):
            if scenario.kind == "batch":
                assert scenario.spec.workload.num_jobs == \
                    scenario.point["jobs"]
            else:
                assert scenario.spec.stream.pool_size == \
                    scenario.point["jobs"]

    def test_workload_overrides_reach_the_configs(self):
        scenarios = expand(tiny_spec())
        edge = next(s for s in scenarios if s.kind == "batch")
        assert edge.spec.workload.num_aps == 4
        assert edge.spec.workload.num_servers == 3

    def test_bad_workload_override_fails_at_expand(self):
        spec = tiny_spec(workload={"edge": {"num_reactors": 2}})
        with pytest.raises(CampaignError, match="workload overrides"):
            expand(spec)

    def test_bad_stream_override_fails_at_expand(self):
        spec = tiny_spec(workload={"stream": {"warp_factor": 9}})
        with pytest.raises(CampaignError, match="stream config"):
            expand(spec)

    def test_axis_owned_stream_override_rejected(self):
        spec = tiny_spec(workload={"stream": {"pool_size": 4}})
        with pytest.raises(CampaignError, match="'jobs' axes"):
            expand(spec)

    def test_stream_overrides_win_over_spec_knobs(self):
        spec = tiny_spec(workload={**TINY_WORKLOAD,
                                   "stream": {"horizon": 15.0}})
        online = [s for s in expand(spec) if s.kind == "online"]
        assert all(s.spec.stream.horizon == 15.0 for s in online)


class TestManifestAndHash:
    def test_manifest_spec_round_trips(self):
        spec = tiny_spec()
        data = manifest(spec)
        assert CampaignSpec.from_dict(data["spec"]) == spec
        assert data["scenarios"] == 8
        assert data["batch_scenarios"] == 4
        assert data["online_scenarios"] == 4
        assert data["grid_points"] == 8

    def test_manifest_is_json_ready(self):
        text = json.dumps(manifest(tiny_spec()), sort_keys=True)
        assert "campaign_hash" in text

    def test_hash_stable_and_sensitive(self):
        spec = tiny_spec()
        assert campaign_hash(spec) == campaign_hash(tiny_spec())
        changed = tiny_spec(axes={"family": ("edge",), "jobs": (6, 8),
                                  "seed": (0, 1)})
        assert campaign_hash(changed) != campaign_hash(spec)

    def test_default_axes_cover_every_axis(self):
        assert tuple(DEFAULT_AXES) == AXIS_NAMES
        effective = CampaignSpec().effective_axes()
        assert tuple(effective) == AXIS_NAMES


class TestRepoCampaignFiles:
    def test_smoke_campaign(self):
        spec = load_campaign(REPO_ROOT / "examples/campaigns/smoke.json")
        assert len(spec.declared_axes()) == 3
        assert len(expand(spec)) == 12

    def test_demo_campaign_is_three_axes_48_plus(self):
        spec = load_campaign(REPO_ROOT / "examples/campaigns/demo.json")
        assert len(spec.declared_axes()) == 3
        scenarios = expand(spec)
        assert len(scenarios) >= 48
        points = [tuple(sorted(s.point.items())) for s in scenarios]
        assert len(set(points)) == len(points)  # no duplicates


# -- property: spec -> JSON -> spec is the identity --------------------

_axis_values = st.fixed_dictionaries({}, optional={
    "family": st.lists(st.sampled_from(("edge", "pipeline", "poisson",
                                        "mmpp", "diurnal")),
                       min_size=1, max_size=3, unique=True),
    "jobs": st.lists(st.integers(1, 40), min_size=1, max_size=3,
                     unique=True),
    "equation": st.lists(st.sampled_from(("eq1", "eq5", "eq6", "eq10")),
                         min_size=1, max_size=2, unique=True),
    "policy": st.lists(st.sampled_from(("preemptive", "nonpreemptive",
                                        "edge", "eq10")),
                       min_size=1, max_size=2, unique=True),
    "opt_backend": st.lists(st.sampled_from(("highs", "branch_bound")),
                            min_size=1, max_size=2, unique=True),
    "seed": st.lists(st.integers(0, 1000), min_size=1, max_size=4,
                     unique=True),
})


@settings(max_examples=25, deadline=None)
@given(axes=_axis_values,
       name=st.text(alphabet="abcdefghij-", min_size=1, max_size=12),
       retry_limit=st.integers(0, 64),
       horizon=st.floats(1.0, 500.0, allow_nan=False),
       rate=st.floats(0.01, 2.0, allow_nan=False))
def test_property_spec_json_round_trip_identity(axes, name,
                                                retry_limit, horizon,
                                                rate):
    spec = CampaignSpec(name=name, axes=axes,
                        retry_limit=retry_limit, horizon=horizon,
                        rate=rate, workload=TINY_WORKLOAD)
    through_json = json.loads(json.dumps(spec.to_dict()))
    assert CampaignSpec.from_dict(through_json) == spec


class TestShardsAndKernel:
    def test_shards_axis_expands_online_only(self):
        spec = tiny_spec(axes={"family": ("edge", "poisson"),
                               "shards": (1, 2), "seed": (0,)})
        scenarios = expand(spec)
        batch = [s for s in scenarios if s.kind == "batch"]
        online = [s for s in scenarios if s.kind == "online"]
        assert len(batch) == 1   # shards collapsed for batch families
        assert len(online) == 2
        assert {s.spec.shards for s in online} == {1, 2}
        assert all("shards" not in s.point for s in batch)
        assert all(s.point["shards"] in (1, 2) for s in online)

    def test_shards_axis_defaults_to_one(self):
        for scenario in expand(tiny_spec()):
            if scenario.kind == "online":
                assert scenario.spec.shards == 1

    def test_shards_axis_validation(self):
        base = {"family": ("poisson",), "seed": (0,)}
        with pytest.raises(CampaignError, match="positive integers"):
            tiny_spec(axes={**base, "shards": (0,)})
        with pytest.raises(CampaignError, match="positive integers"):
            tiny_spec(axes={**base, "shards": (True,)})
        with pytest.raises(CampaignError, match="positive integers"):
            tiny_spec(axes={**base, "shards": ("two",)})

    def test_kernel_knob_round_trips(self):
        # Every tier in the shared registry is a valid campaign value.
        from repro.core.dca import KERNEL_TIERS

        for kernel in KERNEL_TIERS:
            spec = tiny_spec(kernel=kernel)
            payload = spec.to_dict()
            assert payload["kernel"] == kernel
            assert CampaignSpec.from_dict(payload) == spec
            assert campaign_hash(spec) == campaign_hash(
                CampaignSpec.from_dict(payload))
        # the default serialises too (explicit beats implicit)
        assert tiny_spec().to_dict()["kernel"] == "paired"

    def test_kernel_knob_validation(self):
        with pytest.raises(CampaignError, match="kernel"):
            tiny_spec(kernel="fast")

    def test_kernel_knob_rejects_auto(self):
        with pytest.raises(CampaignError) as error:
            tiny_spec(kernel="auto")
        assert "('paired', 'reference')" in str(error.value)

    def test_kernel_knob_reaches_online_scenarios(self):
        spec = tiny_spec(kernel="reference")
        for scenario in expand(spec):
            if scenario.kind == "online":
                assert scenario.spec.kernel == "reference"
