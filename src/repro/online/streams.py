"""Streaming workload generators for the online admission engine.

The batch experiments of the paper evaluate one fixed job set per run.
The online engine instead consumes a *stream*: timestamped jobs that
arrive over a finite horizon and depart again once their reservation
window closes.  A stream is materialised up front as a list of
:class:`OnlineJob` records (deterministic in its seed), so every run is
exactly reproducible, shardable across worker processes, and cacheable
in the result store.

Stream kinds
------------
``poisson``
    Homogeneous Poisson arrivals at ``rate`` jobs per time unit.
``mmpp``
    Bursty 2-state Markov-modulated Poisson process: a *calm* state at
    ``rate`` and a *burst* state at ``rate * burst_factor``, with
    exponentially distributed sojourns (``mean_calm`` /
    ``mean_burst``).
``diurnal``
    Inhomogeneous Poisson with a sinusoidal daily profile
    ``rate * (1 + amplitude * sin(2 pi t / period))``, sampled by
    thinning.
``replay``
    Events read back verbatim from a JSONL file previously written by
    :func:`save_stream` (or by any external tool following the same
    schema), enabling trace-driven evaluation.

Job *bodies* (processing times, deadlines, resource mappings) are not
invented here: every stream draws them from a pool generated by the
existing workload generators (:func:`repro.workload.random_jobs.\
random_jobset` or :func:`repro.workload.edge.generate_edge_case`), so
online scenarios inherit the exact instance families of the batch
experiments.

Timing model: an arrival at ``t`` asks for admission of a job released
at ``t`` with end-to-end deadline ``D``; its *departure* (capacity
release) is scheduled at ``t + dwell_scale * D``.  With the default
``dwell_scale = 1`` a job occupies the system exactly for its
analysis window ``[A, A + D]``, so the interference structure seen by
the delay bounds (window-filtered) coincides with co-residency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.exceptions import ModelError
from repro.core.job import Job
from repro.core.serialize import (
    job_from_dict,
    job_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.core.system import JobSet, MSMRSystem, Stage
from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
from repro.workload.random_jobs import RandomInstanceConfig, random_jobset

STREAM_KINDS = ("poisson", "mmpp", "diurnal", "replay")
STREAM_FORMAT = "repro-online-stream"
STREAM_VERSION = 1

#: Safety valve: a mis-parameterised stream (huge rate * horizon) must
#: fail fast instead of materialising an unbounded universe.
MAX_STREAM_EVENTS = 100_000


@dataclass(frozen=True)
class StreamConfig:
    """Parameters of one online workload stream (a pure value object:
    hashable, picklable and content-addressable for the result store).
    """

    kind: str = "poisson"
    #: Arrivals are generated on ``[0, horizon)``.
    horizon: float = 200.0
    #: Mean arrival rate (jobs per time unit) of the calm/base profile.
    rate: float = 0.25
    #: Departure = arrival + ``dwell_scale`` * deadline.
    dwell_scale: float = 1.0
    #: Size of the job-body pool drawn from the batch generators.
    pool_size: int = 20
    #: Pool generator: ``"random"`` (generic MSMR) or ``"edge"``.
    generator: str = "random"
    #: Optional explicit pool workload config; defaults per generator.
    workload: "RandomInstanceConfig | EdgeWorkloadConfig | None" = None
    #: MMPP: burst-state rate multiplier and mean state sojourns.
    burst_factor: float = 4.0
    mean_calm: float = 60.0
    mean_burst: float = 20.0
    #: Diurnal: sinusoid period and relative amplitude in [0, 1].
    period: float = 100.0
    amplitude: float = 0.8
    #: Replay: JSONL file written by :func:`save_stream`.
    replay_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in STREAM_KINDS:
            raise ModelError(
                f"stream kind must be one of {STREAM_KINDS}, got "
                f"{self.kind!r}")
        if self.kind != "replay":
            if self.horizon <= 0:
                raise ModelError(
                    f"horizon must be positive, got {self.horizon}")
            if self.rate <= 0:
                raise ModelError(f"rate must be positive, got {self.rate}")
            # Cap against the *peak* rate: the burst state of an MMPP
            # and the crest of the diurnal profile, not just the base.
            peak = self.rate
            if self.kind == "mmpp" and self.burst_factor >= 1.0:
                peak = self.rate * self.burst_factor
            elif self.kind == "diurnal":
                peak = self.rate * (1.0 + self.amplitude)
            if peak * self.horizon > MAX_STREAM_EVENTS:
                raise ModelError(
                    f"peak rate * horizon = {peak * self.horizon:.0f} "
                    f"exceeds the {MAX_STREAM_EVENTS}-event stream cap")
            if self.pool_size < 1:
                raise ModelError(
                    f"pool_size must be >= 1, got {self.pool_size}")
        if self.dwell_scale <= 0:
            raise ModelError(
                f"dwell_scale must be positive, got {self.dwell_scale}")
        if self.generator not in ("random", "edge"):
            raise ModelError(
                f"generator must be 'random' or 'edge', got "
                f"{self.generator!r}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ModelError(
                f"amplitude must lie in [0, 1], got {self.amplitude}")
        if self.burst_factor < 1.0:
            raise ModelError(
                f"burst_factor must be >= 1, got {self.burst_factor}")
        if self.kind == "replay" and not self.replay_path:
            raise ModelError("replay streams need replay_path")

    def pool_config(self):
        """The workload configuration of the job-body pool."""
        if self.workload is not None:
            return self.workload
        if self.generator == "edge":
            return EdgeWorkloadConfig(
                num_jobs=self.pool_size, num_aps=8, num_servers=6)
        return RandomInstanceConfig(
            num_jobs=self.pool_size, num_stages=3, resources_per_stage=2)


@dataclass(frozen=True)
class OnlineJob:
    """One streamed job: an immutable body plus its presence window."""

    uid: int
    job: Job
    arrival: float
    departure: float

    def __post_init__(self) -> None:
        if self.departure <= self.arrival:
            raise ModelError(
                f"job {self.uid} departs at {self.departure} before "
                f"arriving at {self.arrival}")


@dataclass
class OnlineStream:
    """A materialised stream: system, chronologically sorted events."""

    system: MSMRSystem
    events: list[OnlineJob]
    config: StreamConfig
    seed: int = 0
    source: str | None = field(default=None, compare=False)

    @property
    def num_events(self) -> int:
        return len(self.events)

    def universe(self) -> JobSet:
        """Job set over *every* streamed job, with true arrival times.

        Job index ``i`` is exactly ``events[i].uid``; the online engine
        analyses live subsets of this universe through boolean masks
        and :meth:`repro.core.system.JobSet.restrict`.  Hand-built
        streams must honour that invariant (``generate_stream`` and
        ``load_stream`` do by construction) -- it is validated here so
        a mis-numbered stream fails fast instead of silently analysing
        the wrong job bodies.
        """
        if not self.events:
            raise ModelError("cannot build a universe for an empty stream")
        for index, event in enumerate(self.events):
            if event.uid != index:
                raise ModelError(
                    f"stream events must be numbered 0..k-1 in order: "
                    f"events[{index}].uid == {event.uid}")
        return JobSet(self.system, [event.job for event in self.events])


#: Event-kind codes: departures at time t are dispatched before
#: arrivals at t (capacity freed at t serves an arrival at t), exactly
#: like ``_COMPLETE < _ARRIVE`` in :mod:`repro.sim.engine`.
EVENT_DEPART, EVENT_ARRIVE = 0, 1


def stream_events(stream: OnlineStream) -> "list[tuple[float, int, int]]":
    """Chronological ``(time, kind, uid)`` event list of a stream.

    ``kind`` is :data:`EVENT_DEPART` (0) or :data:`EVENT_ARRIVE` (1),
    so the plain tuple sort realises the depart-before-arrive tie rule.
    This is *the* replay order of the engine driver and of the serve
    load generator -- anything feeding :meth:`~repro.online.sharded.
    ShardedAdmissionEngine.process` directly should derive its ordering
    from here to stay bitwise comparable with a batch run.
    """
    events = []
    for event in stream.events:
        events.append((event.arrival, EVENT_ARRIVE, event.uid))
        events.append((event.departure, EVENT_DEPART, event.uid))
    events.sort()
    return events


def _pool(config: StreamConfig, seed: int) -> tuple[MSMRSystem, tuple]:
    """Draw the job-body pool from the batch generators."""
    workload = config.pool_config()
    if config.generator == "edge":
        case = generate_edge_case(workload, seed=seed)
        return case.jobset.system, case.jobset.jobs
    jobset = random_jobset(workload, seed=seed)
    return jobset.system, jobset.jobs


def _poisson_arrivals(config: StreamConfig,
                      rng: np.random.Generator) -> list[float]:
    times = []
    t = rng.exponential(1.0 / config.rate)
    while t < config.horizon:
        times.append(float(t))
        t += rng.exponential(1.0 / config.rate)
    return times


def _mmpp_arrivals(config: StreamConfig,
                   rng: np.random.Generator) -> list[float]:
    """2-state MMPP by per-state thinning of a dominating process."""
    peak = config.rate * config.burst_factor
    t, state_end, bursty = 0.0, rng.exponential(config.mean_calm), False
    times = []
    while True:
        t += rng.exponential(1.0 / peak)
        if t >= config.horizon:
            return times
        while t >= state_end:
            bursty = not bursty
            state_end += rng.exponential(
                config.mean_burst if bursty else config.mean_calm)
        current = peak if bursty else config.rate
        if rng.random() < current / peak:
            times.append(float(t))


def _diurnal_arrivals(config: StreamConfig,
                      rng: np.random.Generator) -> list[float]:
    """Sinusoidal-rate Poisson process sampled by thinning."""
    peak = config.rate * (1.0 + config.amplitude)
    t = 0.0
    times = []
    while True:
        t += rng.exponential(1.0 / peak)
        if t >= config.horizon:
            return times
        current = config.rate * (
            1.0 + config.amplitude * np.sin(2.0 * np.pi * t / config.period))
        if rng.random() < current / peak:
            times.append(float(t))


_ARRIVAL_SAMPLERS = {
    "poisson": _poisson_arrivals,
    "mmpp": _mmpp_arrivals,
    "diurnal": _diurnal_arrivals,
}


def generate_stream(config: StreamConfig, *, seed: int = 0) -> OnlineStream:
    """Materialise one stream (deterministic in ``(config, seed)``)."""
    if config.kind == "replay":
        return load_stream(config.replay_path, config=config)
    system, bodies = _pool(config, seed)
    rng = np.random.default_rng(seed)
    arrivals = _ARRIVAL_SAMPLERS[config.kind](config, rng)
    events = []
    for uid, arrival in enumerate(arrivals):
        body = bodies[int(rng.integers(0, len(bodies)))]
        job = replace(body, arrival=arrival, name=f"A{uid}")
        events.append(OnlineJob(
            uid=uid, job=job, arrival=arrival,
            departure=arrival + config.dwell_scale * job.deadline))
    return OnlineStream(system=system, events=events, config=config,
                        seed=seed)


def clustered_stream(config: StreamConfig, *, clusters: int,
                     cross_fraction: float = 0.0,
                     seed: int = 0) -> OnlineStream:
    """Merge ``clusters`` independent substreams into one wide stream.

    Cluster ``k`` is ``generate_stream(config, seed=seed + k)`` with
    every resource index offset into the ``k``-th contiguous block of
    a widened system (each stage's pool grows ``clusters``-fold), so
    the blocks line up exactly with
    :meth:`repro.core.partition.ShardMap.blocked` -- by construction
    every job is shard-local under ``clusters`` shards.
    ``cross_fraction`` then rewrites that fraction of jobs (one
    uniformly chosen stage each) to borrow the matching resource of
    the *next* cluster's block, making them cross-shard: the knob that
    exercises two-phase reservation in tests and benchmarks.  The
    rewire needs at least two stages to leave a job genuinely
    *spanning* two shards -- on a single-stage system it would
    relocate the whole job into the next cluster (still shard-local),
    silently producing zero cross-shard jobs, so ``cross_fraction > 0``
    raises there.

    The returned stream is deterministic in ``(config, clusters,
    cross_fraction, seed)``; note its ``config`` does not encode the
    clustering (this helper feeds benchmarks and tests directly and is
    not part of the result-store spec surface).
    """
    if clusters < 1:
        raise ModelError(f"clusters must be >= 1, got {clusters}")
    if not 0.0 <= cross_fraction <= 1.0:
        raise ModelError(
            f"cross_fraction must lie in [0, 1], got {cross_fraction}")
    subs = [generate_stream(config, seed=seed + k)
            for k in range(clusters)]
    template = subs[0].system
    shape = [stage.num_resources for stage in template.stages]
    if cross_fraction > 0.0 and len(shape) < 2:
        raise ModelError(
            "cross_fraction needs a multi-stage system: rewiring the "
            "only stage of a single-stage job moves it wholly into "
            "the next cluster (still shard-local) instead of making "
            "it span two shards")
    for sub in subs[1:]:
        if [s.num_resources for s in sub.system.stages] != shape:
            raise ModelError(
                "cluster substreams disagree on stage resource "
                "counts; use a fixed-shape pool generator")
    system = MSMRSystem([
        Stage(num_resources=stage.num_resources * clusters,
              preemptive=stage.preemptive)
        for stage in template.stages])
    merged = []
    for k, sub in enumerate(subs):
        offsets = [k * c for c in shape]
        for event in sub.events:
            job = replace(event.job, resources=tuple(
                r + off for r, off in zip(event.job.resources, offsets)))
            merged.append((event.arrival, k, event.uid, job,
                           event.departure))
    merged.sort(key=lambda entry: (entry[0], entry[1], entry[2]))
    rng = np.random.default_rng(seed)
    events = []
    for uid, (arrival, k, _old, job, departure) in enumerate(merged):
        if clusters > 1 and rng.random() < cross_fraction:
            stage = int(rng.integers(0, len(job.resources)))
            local = job.resources[stage] - k * shape[stage]
            borrowed = ((k + 1) % clusters) * shape[stage] + local
            job = replace(job, resources=tuple(
                borrowed if j == stage else r
                for j, r in enumerate(job.resources)))
        job = replace(job, name=f"C{k}A{uid}")
        events.append(OnlineJob(uid=uid, job=job, arrival=arrival,
                                departure=departure))
    return OnlineStream(system=system, events=events, config=config,
                        seed=seed)


def save_stream(stream: OnlineStream, path) -> int:
    """Write a stream to JSONL (header line + one line per event).

    Returns the number of event lines written.  The file replays
    bit-exactly through :func:`load_stream`.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        header = {
            "format": STREAM_FORMAT,
            "version": STREAM_VERSION,
            **system_to_dict(stream.system),
        }
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        for event in stream.events:
            record = {
                "uid": event.uid,
                "arrival": event.arrival,
                "departure": event.departure,
                "job": job_to_dict(event.job),
            }
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    return len(stream.events)


def load_stream(path, *, config: StreamConfig | None = None) -> OnlineStream:
    """Read a stream back from :func:`save_stream` output.

    Events are re-sorted chronologically and re-numbered ``0..k-1`` in
    arrival order, so hand-written replay files need not be sorted.
    """
    path = Path(path)
    if not path.exists():
        raise ModelError(f"no stream file at {path}")
    with path.open("r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ModelError(f"stream file {path} is empty")
    header = json.loads(lines[0])
    if header.get("format") != STREAM_FORMAT:
        raise ModelError(
            f"not a {STREAM_FORMAT} file (format={header.get('format')!r})")
    if int(header.get("version", -1)) != STREAM_VERSION:
        raise ModelError(
            f"unsupported {STREAM_FORMAT} version "
            f"{header.get('version')!r}")
    system = system_from_dict(header)
    raw = [json.loads(line) for line in lines[1:]]
    raw.sort(key=lambda record: (float(record["arrival"]),
                                 int(record.get("uid", 0))))
    events = []
    for uid, record in enumerate(raw):
        job = job_from_dict(record["job"])
        arrival = float(record["arrival"])
        if abs(job.arrival - arrival) > 1e-12:
            job = replace(job, arrival=arrival)
        events.append(OnlineJob(
            uid=uid, job=job, arrival=arrival,
            departure=float(record["departure"])))
    if config is None:
        config = StreamConfig(kind="replay", replay_path=str(path))
    return OnlineStream(system=system, events=events, config=config,
                        source=str(path))
