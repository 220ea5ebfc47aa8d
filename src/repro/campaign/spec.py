"""Declarative scenario-matrix campaigns.

A *campaign* declares a cross-product of experiment axes -- workload
family, job-count ladder, DCA equation, admission policy, OPT backend
and seeds -- plus exclusion clauses, and :func:`expand` deterministically
materialises it into the concrete scenario objects the rest of the
stack already knows how to evaluate, shard and cache:

* batch families (``edge``, ``pipeline``) become
  :class:`~repro.experiments.parallel.ScenarioSpec` instances driven
  through :func:`~repro.experiments.parallel.evaluate_scenarios`;
* stream families (``poisson``, ``mmpp``, ``diurnal``) become
  :class:`~repro.online.engine.OnlineScenarioSpec` instances driven
  through :func:`~repro.online.engine.evaluate_online`.

Axis semantics
--------------
``family``
    Which generator produces the scenario.  Batch families sweep the
    figure-style one-shot analyses; stream families sweep the online
    admission engine.
``jobs``
    Job-count ladder: ``num_jobs`` of the batch workload configs,
    ``pool_size`` of the online stream pool.
``equation``
    DCA delay-bound equation of the batch analyses (``eq1``..``eq6``,
    ``eq10``).  Ignored by stream families.
``policy``
    Admission policy of the online engine (``preemptive`` |
    ``nonpreemptive`` | ``edge`` | any equation name).  Ignored by
    batch families.
``opt_backend``
    MILP backend of the batch OPT approach.  Ignored by stream
    families.
``shards``
    Resource-shard count of the online admission engine (1 = one
    cell over the whole universe; > 1 splits it into one cell per
    blocked :class:`~repro.core.partition.ShardMap` shard).  Ignored
    by batch families.
``seed``
    Explicit seed list; every scenario carries its own seed, so the
    shard a scenario lands on can never change its result.

The cross-product runs over *every* declared axis, but an axis that is
irrelevant to a family (``policy`` for batch, ``equation`` /
``opt_backend`` for streams) is **collapsed**: only points holding the
irrelevant axis at its first declared value materialise a scenario, so
each distinct scenario appears exactly once and the manifest reports
how many grid points each collapse absorbed.

Exclusion clauses are conjunctions over axis values (``{"family":
"edge", "jobs": [100, 150]}`` drops every edge point at 100 or 150
jobs).  A clause only applies to families that consume every axis it
names, so ``{"policy": "edge"}`` trims online scenarios without
touching batch families.  Contradictory excludes are rejected at the
earliest point they are detectable: a clause naming an unknown axis
or an undeclared value fails validation, a clause that matches no
grid point at all (e.g. one whose axes are irrelevant to every family
it could apply to) and a clause set that eliminates the whole
campaign both fail expansion.

Specs load from JSON (:func:`load_campaign`), from TOML on Python >=
3.11, and from Python via the :class:`CampaignSpec` constructor;
``spec -> to_dict -> from_dict`` is the identity (property-tested), so
the manifest embeds a faithful copy of the spec it was expanded from.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

try:  # Python >= 3.11; JSON remains the lowest common denominator.
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None

from repro.core.dca import ALL_EQUATIONS, KERNEL_TIERS
from repro.core.exceptions import ModelError
from repro.core.schedulability import resolve_equation
from repro.experiments.parallel import ScenarioSpec
from repro.experiments.runner import APPROACHES
from repro.online.engine import OnlineScenarioSpec
from repro.online.streams import StreamConfig
from repro.store.hashing import full_salt, hash_payload
from repro.workload.edge import EdgeWorkloadConfig
from repro.workload.pipeline import PipelineWorkloadConfig

CAMPAIGN_FORMAT = "repro-campaign"
CAMPAIGN_VERSION = 1
MANIFEST_FORMAT = "repro-campaign-manifest"

#: Families backed by the one-shot batch generators.
BATCH_FAMILIES = ("edge", "pipeline")
#: Families backed by the online stream generators (``replay`` streams
#: depend on an external trace file and are deliberately not
#: campaign-able: campaigns must be self-contained value objects).
ONLINE_FAMILIES = ("poisson", "mmpp", "diurnal")
FAMILIES = BATCH_FAMILIES + ONLINE_FAMILIES

#: Canonical axis order: expansion iterates the cross-product in this
#: order, so scenario order is independent of declaration order.
AXIS_NAMES = ("family", "jobs", "equation", "policy", "opt_backend",
              "shards", "seed")

#: Axes each family actually consumes; the rest are collapsed.
RELEVANT_AXES = {
    **{family: frozenset({"family", "jobs", "equation", "opt_backend",
                          "seed"})
       for family in BATCH_FAMILIES},
    **{family: frozenset({"family", "jobs", "policy", "shards",
                          "seed"})
       for family in ONLINE_FAMILIES},
}

OPT_BACKENDS = ("highs", "branch_bound", "cp")

#: Level-evaluation kernels of the online analyzers (the shared tier
#: registry :data:`repro.core.dca.KERNEL_TIERS`, same values as
#: :data:`repro.online.cell.CELL_KERNELS`).
KERNELS = KERNEL_TIERS

#: Singleton defaults for axes a spec does not declare.
DEFAULT_AXES = {
    "family": ("edge",),
    "jobs": (10,),
    "equation": ("eq10",),
    "policy": ("preemptive",),
    "opt_backend": ("highs",),
    "shards": (1,),
    "seed": (0,),
}

#: Workload-override sections a spec may carry: constructor kwargs for
#: the batch configs and extra :class:`StreamConfig` fields.
WORKLOAD_SECTIONS = ("edge", "pipeline", "stream")


class CampaignError(ModelError):
    """A campaign spec that cannot be loaded, validated or expanded."""


def _freeze(value):
    """Recursively turn lists into tuples (canonical in-memory form)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _freeze(item) for key, item in value.items()}
    return value


def _thaw(value):
    """Recursively turn tuples into lists (canonical JSON form)."""
    if isinstance(value, (list, tuple)):
        return [_thaw(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _thaw(item) for key, item in value.items()}
    return value


def _as_values(axis: str, raw) -> tuple:
    """Normalise one axis declaration to a non-empty value tuple."""
    values = raw if isinstance(raw, (list, tuple)) else (raw,)
    values = tuple(values)
    if not values:
        raise CampaignError(f"axis {axis!r} declares no values")
    if len(set(values)) != len(values):
        raise CampaignError(
            f"axis {axis!r} declares duplicate values: {list(values)}")
    return values


def _validate_axis_values(axis: str, values: tuple) -> None:
    if axis == "family":
        for value in values:
            if value not in FAMILIES:
                raise CampaignError(
                    f"unknown family {value!r}; expected one of "
                    f"{FAMILIES}")
    elif axis == "jobs":
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise CampaignError(
                    f"axis 'jobs' needs positive integers, got "
                    f"{value!r}")
    elif axis == "equation":
        for value in values:
            if value not in ALL_EQUATIONS:
                raise CampaignError(
                    f"unknown equation {value!r}; expected one of "
                    f"{ALL_EQUATIONS}")
    elif axis == "policy":
        for value in values:
            try:
                resolve_equation(value)
            except ValueError as error:
                raise CampaignError(str(error)) from None
    elif axis == "opt_backend":
        for value in values:
            if value not in OPT_BACKENDS:
                raise CampaignError(
                    f"unknown opt backend {value!r}; expected one of "
                    f"{OPT_BACKENDS}")
    elif axis == "shards":
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise CampaignError(
                    f"axis 'shards' needs positive integers, got "
                    f"{value!r}")
    elif axis == "seed":
        for value in values:
            if not isinstance(value, int) or isinstance(value, bool):
                raise CampaignError(
                    f"axis 'seed' needs integers, got {value!r}")


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative scenario-matrix campaign (a pure value object).

    ``axes`` maps axis names to value tuples; axes left out fall back
    to :data:`DEFAULT_AXES` singletons.  ``exclude`` is a tuple of
    conjunction clauses, each mapping axis names to the value tuples
    they drop.  The remaining fields parameterise the materialised
    scenarios uniformly (they are deliberately *not* axes: sweeping
    them would multiply the grid without exercising new analysis
    paths).
    """

    name: str = "campaign"
    axes: dict = field(default_factory=dict)
    exclude: tuple = ()
    #: Batch approaches evaluated per scenario.
    approaches: tuple = APPROACHES
    #: Online engine knobs shared by every stream scenario.
    mode: str = "incremental"
    retry_limit: int = 16
    validate_every: int = 0
    horizon: float = 60.0
    rate: float = 0.25
    dwell_scale: float = 1.0
    #: Level-evaluation kernel of the online analyzers (a knob, not
    #: an axis: decisions are kernel-independent by construction, so
    #: sweeping it would only duplicate scenarios).
    kernel: str = "paired"
    #: Per-family constructor overrides (sections of
    #: :data:`WORKLOAD_SECTIONS`).
    workload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise CampaignError(
                f"campaign name must be a non-empty string, got "
                f"{self.name!r}")
        axes = {}
        for axis, raw in dict(self.axes).items():
            if axis not in AXIS_NAMES:
                raise CampaignError(
                    f"unknown axis {axis!r}; expected one of "
                    f"{AXIS_NAMES}")
            values = _as_values(axis, _freeze(raw))
            _validate_axis_values(axis, values)
            axes[axis] = values
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "exclude",
                           self._normalise_excludes(self.exclude))
        approaches = tuple(self.approaches)
        if not approaches:
            raise CampaignError("campaign declares no approaches")
        for approach in approaches:
            if approach not in APPROACHES:
                raise CampaignError(
                    f"unknown approach {approach!r}; expected a "
                    f"subset of {APPROACHES}")
        object.__setattr__(self, "approaches", approaches)
        if self.mode not in ("incremental", "cold"):
            raise CampaignError(
                f"mode must be 'incremental' or 'cold', got "
                f"{self.mode!r}")
        if not isinstance(self.retry_limit, int) or self.retry_limit < 0:
            raise CampaignError(
                f"retry_limit must be a non-negative integer, got "
                f"{self.retry_limit!r}")
        if self.kernel not in KERNELS:
            raise CampaignError(
                f"kernel must be one of {KERNELS}, got "
                f"{self.kernel!r}")
        workload = _freeze(dict(self.workload))
        for section, overrides in workload.items():
            if section not in WORKLOAD_SECTIONS:
                raise CampaignError(
                    f"unknown workload section {section!r}; expected "
                    f"one of {WORKLOAD_SECTIONS}")
            if not isinstance(overrides, dict):
                raise CampaignError(
                    f"workload section {section!r} must be a mapping, "
                    f"got {overrides!r}")
        object.__setattr__(self, "workload", workload)

    # -- normalisation -------------------------------------------------

    def _normalise_excludes(self, raw) -> tuple:
        clauses = []
        for clause in tuple(raw):
            if not isinstance(clause, dict) or not clause:
                raise CampaignError(
                    f"exclude clauses must be non-empty mappings, got "
                    f"{clause!r}")
            normalised = {}
            for axis, values in clause.items():
                if axis not in AXIS_NAMES:
                    raise CampaignError(
                        f"exclude clause names unknown axis {axis!r}; "
                        f"expected one of {AXIS_NAMES}")
                declared = self.axes.get(axis, DEFAULT_AXES[axis])
                values = _as_values(axis, _freeze(values))
                for value in values:
                    if value not in declared:
                        raise CampaignError(
                            f"contradictory exclude: axis {axis!r} "
                            f"never takes value {value!r} (declared "
                            f"values: {list(declared)})")
                normalised[axis] = values
            clauses.append(normalised)
        return tuple(clauses)

    # -- derived views -------------------------------------------------

    def effective_axes(self) -> dict:
        """Declared axes completed with defaults, in canonical order."""
        return {axis: self.axes.get(axis, DEFAULT_AXES[axis])
                for axis in AXIS_NAMES}

    def declared_axes(self) -> tuple:
        """Axis names the spec declares explicitly (canonical order)."""
        return tuple(axis for axis in AXIS_NAMES if axis in self.axes)

    def excluded(self, point: dict) -> bool:
        """True when any exclude clause matches ``point`` entirely.

        A clause only applies to families that actually consume every
        axis it names: ``{"policy": "edge"}`` trims online scenarios
        and leaves batch families alone.  (Without this rule a clause
        naming a family-irrelevant axis would silently delete the
        whole family -- it would kill the one axis-first grid point
        the collapse rule materialises.)
        """
        relevant = RELEVANT_AXES[point["family"]]
        return any(all(axis in relevant and point[axis] in values
                       for axis, values in clause.items())
                   for clause in self.exclude)

    def matching_clauses(self, point: dict) -> "tuple[int, ...]":
        """Indices of the exclude clauses that match ``point`` (same
        relevance rule as :meth:`excluded`)."""
        relevant = RELEVANT_AXES[point["family"]]
        return tuple(
            index for index, clause in enumerate(self.exclude)
            if all(axis in relevant and point[axis] in values
                   for axis, values in clause.items()))

    # -- (de)serialisation ---------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready form; ``from_dict`` inverts it exactly."""
        return {
            "format": CAMPAIGN_FORMAT,
            "version": CAMPAIGN_VERSION,
            "name": self.name,
            "axes": {axis: _thaw(values)
                     for axis, values in self.axes.items()},
            "exclude": [_thaw(clause) for clause in self.exclude],
            "approaches": list(self.approaches),
            "mode": self.mode,
            "retry_limit": self.retry_limit,
            "validate_every": self.validate_every,
            "horizon": self.horizon,
            "rate": self.rate,
            "dwell_scale": self.dwell_scale,
            "kernel": self.kernel,
            "workload": _thaw(self.workload),
        }

    @classmethod
    def from_dict(cls, data) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (or a
        hand-written mapping following the same schema; ``format`` /
        ``version`` are optional but validated when present)."""
        if not isinstance(data, dict):
            raise CampaignError(
                f"campaign spec must be a mapping, got "
                f"{type(data).__name__}")
        if data.get("format", CAMPAIGN_FORMAT) != CAMPAIGN_FORMAT:
            raise CampaignError(
                f"not a {CAMPAIGN_FORMAT} payload: "
                f"format={data.get('format')!r}")
        version = data.get("version", CAMPAIGN_VERSION)
        if version != CAMPAIGN_VERSION:
            raise CampaignError(
                f"unsupported campaign version {version!r} "
                f"(supported: {CAMPAIGN_VERSION})")
        known = {"format", "version", "name", "axes", "exclude",
                 "approaches", "mode", "retry_limit", "validate_every",
                 "horizon", "rate", "dwell_scale", "kernel",
                 "workload"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise CampaignError(
                f"unknown campaign spec keys: {unknown} (expected a "
                f"subset of {sorted(known)})")
        kwargs = {}
        for key in ("name", "mode", "retry_limit", "validate_every",
                    "horizon", "rate", "dwell_scale", "kernel"):
            if key in data:
                kwargs[key] = data[key]
        if "axes" in data:
            axes = data["axes"]
            if not isinstance(axes, dict):
                raise CampaignError(
                    f"'axes' must be a mapping of axis name to value "
                    f"list, got {type(axes).__name__}")
            kwargs["axes"] = axes
        if "exclude" in data:
            exclude = data["exclude"]
            if not isinstance(exclude, (list, tuple)):
                raise CampaignError(
                    f"'exclude' must be a list of clauses, got "
                    f"{type(exclude).__name__}")
            kwargs["exclude"] = tuple(exclude)
        if "approaches" in data:
            kwargs["approaches"] = tuple(data["approaches"])
        if "workload" in data:
            if not isinstance(data["workload"], dict):
                raise CampaignError(
                    f"'workload' must be a mapping of sections, got "
                    f"{type(data['workload']).__name__}")
            kwargs["workload"] = data["workload"]
        return cls(**kwargs)


def load_campaign(path) -> CampaignSpec:
    """Load a :class:`CampaignSpec` from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    if not path.exists():
        raise CampaignError(f"no campaign spec at {path}")
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise CampaignError(
                f"malformed JSON in {path}: {error}") from None
    elif suffix == ".toml":
        if tomllib is None:  # pragma: no cover - 3.10 only
            raise CampaignError(
                f"TOML campaign specs need Python >= 3.11 (tomllib); "
                f"convert {path.name} to JSON")
        try:
            data = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as error:
            raise CampaignError(
                f"malformed TOML in {path}: {error}") from None
    else:
        raise CampaignError(
            f"unsupported campaign spec extension {suffix!r} "
            f"(expected .json or .toml)")
    return CampaignSpec.from_dict(data)


def save_campaign(spec: CampaignSpec, path) -> None:
    """Write ``spec`` as pretty-printed JSON (loadable back exactly)."""
    Path(path).write_text(json.dumps(spec.to_dict(), indent=2,
                                     sort_keys=True) + "\n")


# -- expansion ---------------------------------------------------------

@dataclass(frozen=True)
class ExpandedScenario:
    """One materialised grid point of a campaign."""

    #: Relevant-axis values only (irrelevant axes are collapsed away).
    point: dict
    #: ``"batch"`` or ``"online"``.
    kind: str
    #: The runnable spec object.
    spec: "ScenarioSpec | OnlineScenarioSpec"


def _batch_workload(family: str, jobs: int, overrides: dict):
    try:
        if family == "edge":
            return EdgeWorkloadConfig(num_jobs=jobs, **overrides)
        return PipelineWorkloadConfig(num_jobs=jobs, **overrides)
    except (TypeError, ModelError) as error:
        raise CampaignError(
            f"invalid workload overrides for family {family!r}: "
            f"{error}") from None


def _stream_config(spec: CampaignSpec, family: str, jobs: int):
    overrides = dict(spec.workload.get("stream", {}))
    for axis_owned in ("kind", "pool_size"):
        if axis_owned in overrides:
            raise CampaignError(
                f"stream override {axis_owned!r} belongs to the "
                f"'family'/'jobs' axes; declare it there instead")
    kwargs = dict(kind=family, pool_size=jobs, horizon=spec.horizon,
                  rate=spec.rate, dwell_scale=spec.dwell_scale)
    kwargs.update(overrides)  # section overrides win over spec knobs
    try:
        return StreamConfig(**kwargs)
    except (TypeError, ModelError) as error:
        raise CampaignError(
            f"invalid stream configuration for family {family!r}: "
            f"{error}") from None


def _materialise(spec: CampaignSpec, point: dict) -> ExpandedScenario:
    family = point["family"]
    relevant = {axis: point[axis] for axis in AXIS_NAMES
                if axis in RELEVANT_AXES[family]}
    if family in BATCH_FAMILIES:
        workload = _batch_workload(
            family, point["jobs"],
            spec.workload.get(family, {}))
        scenario = ScenarioSpec(seed=point["seed"], workload=workload,
                                generator=family,
                                equation=point["equation"],
                                approaches=spec.approaches,
                                opt_backend=point["opt_backend"])
        return ExpandedScenario(point=relevant, kind="batch",
                                spec=scenario)
    scenario = OnlineScenarioSpec(
        stream=_stream_config(spec, family, point["jobs"]),
        seed=point["seed"], policy=point["policy"], mode=spec.mode,
        retry_limit=spec.retry_limit,
        validate_every=spec.validate_every,
        shards=point["shards"], kernel=spec.kernel)
    return ExpandedScenario(point=relevant, kind="online",
                            spec=scenario)


def expand(spec: CampaignSpec) -> list[ExpandedScenario]:
    """Deterministically materialise the campaign's scenario list.

    Iterates the cross-product of the effective axes in canonical
    :data:`AXIS_NAMES` order, drops excluded points, collapses
    family-irrelevant axes to their first declared value, and returns
    the surviving grid points as runnable scenario specs.  The result
    is a pure function of the spec: same spec, same list, in the same
    order, in every process.
    """
    axes = spec.effective_axes()
    scenarios = []
    clause_matches = [0] * len(spec.exclude)
    for combo in itertools.product(*axes.values()):
        point = dict(zip(axes, combo))
        matched = spec.matching_clauses(point)
        if matched:
            for index in matched:
                clause_matches[index] += 1
            continue
        relevant = RELEVANT_AXES[point["family"]]
        if any(point[axis] != axes[axis][0] for axis in AXIS_NAMES
               if axis not in relevant):
            continue  # collapsed duplicate of the axis-first point
        scenarios.append(_materialise(spec, point))
    dead = [dict(spec.exclude[index])
            for index, count in enumerate(clause_matches)
            if count == 0]
    if dead:
        raise CampaignError(
            f"campaign {spec.name!r}: contradictory exclude clauses "
            f"never match any grid point (every named axis must be "
            f"relevant to at least one matching family): {dead}")
    if not scenarios:
        raise CampaignError(
            f"campaign {spec.name!r}: the exclude clauses eliminate "
            f"every scenario")
    return scenarios


def campaign_hash(spec: CampaignSpec, *, salt: str | None = None) -> str:
    """Content hash identifying the campaign (spec + store salt)."""
    from repro.store.hashing import CACHE_SALT

    effective = CACHE_SALT if salt is None else salt
    return hash_payload({
        "kind": "campaign",
        "salt": full_salt(effective),
        "spec": spec.to_dict(),
    })


def manifest(spec: CampaignSpec, *, salt: str | None = None,
             scenarios: "list[ExpandedScenario] | None" = None) -> dict:
    """Expansion manifest: the spec plus deterministic grid accounting.

    Embeds a faithful ``spec`` copy (round-trips through
    :meth:`CampaignSpec.from_dict`), the campaign content hash, and
    per-axis scenario counts, so a manifest alone is enough to re-run
    or audit the campaign.  Callers that already expanded the spec
    pass ``scenarios`` to avoid materialising the grid twice
    (:func:`expand` is deterministic, so the result is identical).
    """
    axes = spec.effective_axes()
    if scenarios is None:
        scenarios = expand(spec)
    total = 1
    for values in axes.values():
        total *= len(values)
    per_axis: dict = {axis: {} for axis in axes}
    kinds = {"batch": 0, "online": 0}
    for scenario in scenarios:
        kinds[scenario.kind] += 1
        for axis, value in scenario.point.items():
            bucket = per_axis[axis]
            bucket[str(value)] = bucket.get(str(value), 0) + 1
    return {
        "format": MANIFEST_FORMAT,
        "version": CAMPAIGN_VERSION,
        "campaign_hash": campaign_hash(spec, salt=salt),
        "spec": spec.to_dict(),
        "grid_points": total,
        "scenarios": len(scenarios),
        "batch_scenarios": kinds["batch"],
        "online_scenarios": kinds["online"],
        "per_axis": per_axis,
    }
