#!/usr/bin/env python3
"""cProfile harness over the three analysis hot paths.

Profiles, at fixed seeds (deterministic workloads, comparable across
runs):

* ``opdca``   -- batched OPDCA (paired contribution kernels + the
  frontier-carrying Audsley engine) over edge cases;
* ``admission`` -- the OPDCA admission controller over overloaded
  edge cases (discard cascade included);
* ``online``  -- the streaming admission engine in incremental mode
  over a congested Poisson stream.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py [target ...] \
        [--jobs N] [--cases K] [--top N] [--sort cumulative|tottime] \
        [--kernel paired|reference]

With no targets, all three are profiled.  Each target prints a
top-``N`` table sorted by cumulative time (default), the right view
for "which layer is hot"; ``--sort tottime`` surfaces leaf kernels.
``--kernel`` selects the level-evaluation tier under profile (see
``docs/kernels.md``); the header prints it, so saved profiles are
attributable.

After the flat profile each target prints a **per-phase breakdown**:
profiler rows bucketed into the four hot-path phases -- ``probe``
(level-bound evaluation: paired frontier probes),
``splice`` (certified-band and priority-order surgery),
``cache-invalidate`` (departure-path memo/segment eviction) and
``memo`` (subset-analysis reuse) -- with own-time and share of total.
``docs/kernels.md`` walks through reading it.

This is a developer tool: output is wall-clock and machine-dependent.
The committed regression gates live in ``benchmarks/`` and
``scripts/compare_bench.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

TARGETS = ("opdca", "admission", "online")


def _edge_jobsets(num_jobs: int, cases: int, *, gamma: float | None = None):
    from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case

    scale = num_jobs / 100.0
    kwargs = {} if gamma is None else {"gamma": gamma}
    config = EdgeWorkloadConfig(
        num_jobs=num_jobs,
        num_aps=max(2, int(round(25 * scale))),
        num_servers=max(2, int(round(20 * scale))), **kwargs)
    return [generate_edge_case(config, seed=seed).jobset
            for seed in range(cases)]


def run_opdca(num_jobs: int, cases: int, kernel: str) -> None:
    from repro.core.dca import DelayAnalyzer
    from repro.core.opdca import opdca
    from repro.core.schedulability import SDCA

    for jobset in _edge_jobsets(num_jobs, cases):
        test = SDCA(jobset, "eq10",
                    analyzer=DelayAnalyzer(jobset, kernel=kernel))
        opdca(jobset, "eq10", test=test)


def run_admission(num_jobs: int, cases: int, kernel: str) -> None:
    from repro.core.admission import opdca_admission
    from repro.core.dca import DelayAnalyzer
    from repro.core.schedulability import SDCA

    # A tight heaviness budget forces the discard cascade.
    for jobset in _edge_jobsets(num_jobs, cases, gamma=1.4):
        test = SDCA(jobset, "eq10",
                    analyzer=DelayAnalyzer(jobset, kernel=kernel))
        opdca_admission(jobset, "eq10", test=test)


def run_online(num_jobs: int, cases: int, kernel: str) -> None:
    from repro.online import (
        OnlineAdmissionEngine,
        StreamConfig,
        generate_stream,
    )

    for seed in range(cases):
        stream = generate_stream(
            StreamConfig(horizon=150.0, rate=1.3, dwell_scale=2.0,
                         pool_size=min(num_jobs, 40)),
            seed=seed)
        OnlineAdmissionEngine(stream, mode="incremental",
                              kernel=kernel).run()


RUNNERS = {"opdca": run_opdca, "admission": run_admission,
           "online": run_online}

#: Per-phase buckets of the admission hot path: own-time (tottime) of
#: every profiled function whose name matches one of the patterns is
#: summed into the bucket.  Names, not filenames, so the table stays
#: stable across shard counts and engine refactors (see
#: ``docs/kernels.md`` for the walkthrough).
PHASES: "dict[str, tuple[str, ...]]" = {
    # Level-bound evaluation: the Audsley drivers' level adapters and
    # exact row refreshes, and the tier kernels under them (paired
    # masks, reference).
    "probe": (
        "delays_rows", "probe", "exact_rows",
        "level_bounds", "level_bound_single", "_level_paired",
        "_paired_stage_sum", "delay_bounds_rows",
    ),
    # Certified-band and priority-order surgery.
    "splice": (
        "_drop_stage_maxima", "remove", "remove_many",
        "_order_rebase_shard",
    ),
    # Departure path: memo and segment-cache eviction.
    "cache-invalidate": (
        "invalidate_job", "_evict_to_limit", "forget", "depart",
    ),
    # Cross-decision subset-analysis reuse (LRU memo) and bound
    # seeding.
    "memo": (
        "subset", "remember", "_analysis", "seed",
    ),
}


def _phase_breakdown(stats: pstats.Stats) -> None:
    """Bucket profiler rows into the hot-path phases and print the
    own-time table (phases, then ``other``, then total)."""
    buckets = {phase: 0.0 for phase in PHASES}
    total = 0.0
    for (_, _, name), (_, _, tottime, _, _) in stats.stats.items():
        total += tottime
        for phase, names in PHASES.items():
            if name in names:
                buckets[phase] += tottime
                break
    if total <= 0.0:
        return
    print("--- per-phase breakdown (own time) ---")
    other = total - sum(buckets.values())
    for phase, seconds in [*buckets.items(), ("other", other)]:
        print(f"  {phase:<16s} {seconds:8.3f}s  "
              f"{100.0 * seconds / total:5.1f}%")
    print(f"  {'total':<16s} {total:8.3f}s")


def profile_target(target: str, *, num_jobs: int, cases: int,
                   top: int, sort: str, kernel: str) -> None:
    runner = RUNNERS[target]
    runner(num_jobs, min(cases, 1), kernel)  # warm caches
    profiler = cProfile.Profile()
    profiler.enable()
    runner(num_jobs, cases, kernel)
    profiler.disable()
    print(f"\n=== {target} (n={num_jobs}, cases={cases}, "
          f"kernel={kernel}, sort={sort}) ===")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    _phase_breakdown(stats)


def main(argv: "list[str] | None" = None) -> int:
    from repro.core.dca import KERNEL_TIERS

    parser = argparse.ArgumentParser(
        description="Profile the opdca/admission/online hot paths.")
    parser.add_argument("targets", nargs="*", metavar="TARGET",
                        help=f"hot paths to profile, from {TARGETS} "
                             f"(default: all)")
    parser.add_argument("--jobs", type=int, default=100, metavar="N",
                        help="jobs per case / stream pool size "
                             "(default: 100)")
    parser.add_argument("--cases", type=int, default=3, metavar="K",
                        help="cases (or stream seeds) per target "
                             "(default: 3)")
    parser.add_argument("--top", type=int, default=25, metavar="N",
                        help="rows of the profile table (default: 25)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime"),
                        help="profile sort key (default: cumulative)")
    parser.add_argument("--kernel", default="paired",
                        choices=KERNEL_TIERS,
                        help="level-evaluation kernel tier under "
                             "profile (default: paired)")
    args = parser.parse_args(argv)
    if args.jobs <= 0 or args.cases <= 0 or args.top <= 0:
        parser.error("--jobs/--cases/--top must be positive")
    targets = args.targets or list(TARGETS)
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        parser.error(f"unknown target(s) {unknown}; expected {TARGETS}")
    for target in targets:
        profile_target(target, num_jobs=args.jobs, cases=args.cases,
                       top=args.top, sort=args.sort,
                       kernel=args.kernel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
