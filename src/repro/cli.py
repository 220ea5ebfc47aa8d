"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's figures and the reproduction's
ablations as plain-text tables, e.g.::

    python -m repro fig4a --cases 50
    python -m repro fig4a --cases 100 --jobs 8 --cache-dir .cache
    python -m repro fig4d
    python -m repro ablate-solver --cases 5
    python -m repro scalability --sizes 25 50 100
    python -m repro online --stream poisson --horizon 200 --cases 4
    python -m repro campaign run examples/campaigns/demo.json --jobs 8
    python -m repro store stats --cache-dir .cache
    python -m repro online --horizon 50 --trace trace.jsonl
    python -m repro obs report trace.jsonl

``online`` leaves the one-shot world of the figures: it streams
timestamped job arrivals/departures through the admission engine of
:mod:`repro.online` and reports acceptance/heaviness/latency time
series (``--stream poisson|mmpp|diurnal|replay``).

``campaign`` scales the sweeps out declaratively: a JSON/TOML spec
names axes (workload family, job ladder, equation, policy, OPT
backend, seeds) plus excludes, ``expand`` materialises the
cross-product deterministically, ``run`` drives it through the
parallel engine and the result store (resumable, chunk-checkpointed),
and ``report`` aggregates a fully-cached campaign without evaluating
anything (see :mod:`repro.campaign`).

Every subcommand accepts ``--jobs N`` to shard its seeded test cases
across ``N`` worker processes (default: the ``REPRO_JOBS`` environment
variable, else serial).  Results are identical for any worker count.

Every subcommand also accepts ``--cache-dir DIR`` (default: the
``REPRO_CACHE_DIR`` environment variable) to persist per-case results
in a content-addressed store: re-runs and interrupted sweeps resume
from what is already on disk.  ``--resume`` additionally *requires*
the store to exist (guarding against a mistyped directory silently
starting a cold sweep) and ``--no-cache`` disables caching entirely.
The ``store`` subcommand inspects (``stats``), compacts (``gc``) and
flattens (``export``) such a store.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from repro.core.dca import KERNEL_TIERS
from repro.experiments.ablation import (
    bound_tightness,
    heuristic_comparison,
    holistic_comparison,
    refinement_ablation,
    scalability,
    solver_agreement,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import (
    format_cache_summary,
    format_chart,
    format_series,
    format_table,
    shape_checks,
)


def positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer.

    Rejects ``0`` and negatives with a clear argparse error instead of
    letting them reach ``ProcessPoolExecutor`` (which would die with
    an opaque traceback) or produce empty sweeps.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type: an integer >= 0 (0 is a meaningful value, e.g.
    ``--retry-limit 0`` disables the online retry queue)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for every experiment/ablation subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Optimal Fixed Priority "
                    "Scheduling in Multi-Stage Multi-Resource Distributed "
                    "Real-Time Systems' (DATE 2024).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist per-case results in a "
                            "content-addressed store at DIR (default: "
                            "the REPRO_CACHE_DIR env var); cached "
                            "cases are never re-evaluated")
        p.add_argument("--resume", action="store_true",
                       help="require an existing store at --cache-dir "
                            "and resume from it (errors out instead "
                            "of silently starting a cold sweep)")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the result store even when "
                            "--cache-dir or REPRO_CACHE_DIR is set")

    def add_trace_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a JSONL span trace of the run to "
                            "FILE (render it with `repro obs report "
                            "FILE`); traced runs are forced serial "
                            "because spans do not cross the worker-"
                            "process boundary")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cases", type=positive_int, default=None,
                       help="test cases per sweep point "
                            "(default: 10, or 100 with REPRO_FULL=1)")
        # None sentinel, NOT 0: overrides apply on `is not None`, so an
        # explicit `--seed0 0` behaves exactly like the default instead
        # of being silently dropped by a truthiness test.
        p.add_argument("--seed0", type=int, default=None,
                       help="first seed of the case range (default: 0)")
        p.add_argument("--jobs", type=positive_int, default=None,
                       metavar="N",
                       help="worker processes for the case sweep "
                            "(default: REPRO_JOBS env var, else 1; "
                            "results are identical for any N)")
        add_cache_options(p)

    for name in ("fig4a", "fig4b", "fig4c", "fig4d"):
        p = sub.add_parser(name, help=f"regenerate {name} of the paper")
        add_common(p)
        p.add_argument("--stacked", action="store_true",
                       help="show DMR/OPDCA/OPT as stacked increments "
                            "(the paper's histogram view)")
        p.add_argument("--chart", action="store_true",
                       help="also render the panel as an ASCII chart")
        p.add_argument("--opt-backend", default="highs",
                       choices=("highs", "branch_bound", "cp"))

    p = sub.add_parser("ablate-refinement",
                       help="A1: Eq.3 vs refined Eq.6 pessimism")
    add_common(p)
    p = sub.add_parser("ablate-solver",
                       help="A2/A5: OPT backend & linearisation agreement")
    add_common(p)
    p = sub.add_parser("validate-sim",
                       help="A3: simulated delays vs analytical bounds")
    add_common(p)
    p = sub.add_parser("ablate-heuristics",
                       help="A6: pairwise heuristics vs DMR and OPT")
    add_common(p)
    p = sub.add_parser("ablate-holistic",
                       help="A7: classical holistic analysis vs DCA")
    add_common(p)
    p = sub.add_parser("scalability", help="A4: runtime vs job count")
    p.add_argument("--cases", type=positive_int, default=3)
    p.add_argument("--sizes", type=positive_int, nargs="+",
                   default=[25, 50, 100, 150], metavar="N",
                   help="job counts to sweep")
    p.add_argument("--jobs", type=positive_int, default=None,
                   metavar="N",
                   help="worker processes (as for the other commands)")
    add_cache_options(p)
    p = sub.add_parser(
        "sensitivity",
        help="S1-S3: does the OPT gap grow with jobs/resources/stages?")
    add_common(p)
    p.add_argument("--axis", choices=("jobs", "resources", "stages",
                                      "all"),
                   default="all")

    p = sub.add_parser(
        "opdca",
        help="one-shot OPDCA admission over a generated workload")
    p.add_argument("--size", type=positive_int, default=20,
                   metavar="N", help="jobs in the generated workload")
    p.add_argument("--cases", type=positive_int, default=None,
                   help="independent workloads (seeds seed0..; "
                        "default 5)")
    p.add_argument("--seed0", type=int, default=None,
                   help="first workload seed (default: 0)")
    p.add_argument("--generator", default="random",
                   choices=("random", "edge"),
                   help="workload generator family")
    p.add_argument("--policy", default="preemptive",
                   help="scheduling policy or DCA equation "
                        "(preemptive | nonpreemptive | edge | "
                        "eq1..eq10)")
    p.add_argument("--kernel", default="paired", choices=KERNEL_TIERS,
                   help="level-evaluation kernel: 'paired' "
                        "(vectorised pairwise-contribution cache, the "
                        "default) or 'reference' (broadcast path); "
                        "see docs/kernels.md")
    add_trace_option(p)

    p = sub.add_parser(
        "online",
        help="streaming admission control over timestamped job "
             "arrivals/departures")
    p.add_argument("--stream", default="poisson",
                   choices=("poisson", "mmpp", "diurnal", "replay"),
                   help="arrival process of the workload stream")
    p.add_argument("--horizon", type=float, default=200.0,
                   help="stream horizon (arrivals fall in [0, horizon))")
    p.add_argument("--rate", type=float, default=0.25,
                   help="mean arrival rate (jobs per time unit)")
    p.add_argument("--cases", type=positive_int, default=None,
                   help="independent streams (seeds seed0..seed0+cases-1;"
                        " default 4)")
    p.add_argument("--seed0", type=int, default=None,
                   help="first stream seed (default: 0)")
    p.add_argument("--jobs", type=positive_int, default=None, metavar="N",
                   help="worker processes to shard the streams over "
                        "(results are identical for any N)")
    p.add_argument("--pool", type=positive_int, default=20,
                   help="size of the job-body pool drawn from the "
                        "batch generators")
    p.add_argument("--generator", default="random",
                   choices=("random", "edge"),
                   help="pool generator family")
    p.add_argument("--policy", default="preemptive",
                   help="scheduling policy or DCA equation for the "
                        "admission test (preemptive | nonpreemptive | "
                        "edge | eq1..eq10)")
    p.add_argument("--dwell-scale", type=float, default=1.0,
                   help="departure = arrival + dwell-scale * deadline")
    p.add_argument("--retry-limit", type=nonnegative_int, default=16,
                   help="capacity of the FIFO retry queue "
                        "(0 disables it)")
    p.add_argument("--mode", default="incremental",
                   choices=("incremental", "cold"),
                   help="incremental (sliced caches, lazy levels) or "
                        "cold re-analysis per event; decisions are "
                        "identical")
    p.add_argument("--kernel", default="paired", choices=KERNEL_TIERS,
                   help="level-evaluation kernel of the admission "
                        "analyzers: 'paired' (vectorised pairwise-"
                        "contribution cache, the default) or "
                        "'reference' (broadcast path); decisions are "
                        "identical under both tiers")
    p.add_argument("--shards", type=positive_int, default=1,
                   help="resource shards: 1 runs one admission "
                        "cell over the whole universe; N > 1 splits each "
                        "stage's resource pool into N blocked shards "
                        "and admits cross-shard jobs by two-phase "
                        "reservation (needs >= N resources per stage)")
    p.add_argument("--validate", type=int, default=0, metavar="K",
                   help="replay every K-th accepted epoch through the "
                        "pipeline simulator (0 = off)")
    p.add_argument("--replay-file", default=None, metavar="FILE",
                   help="JSONL stream to replay (with --stream replay)")
    p.add_argument("--series", action="store_true",
                   help="also print the per-event time series of the "
                        "first stream")
    add_trace_option(p)
    add_cache_options(p)

    p = sub.add_parser(
        "campaign",
        help="declarative scenario-matrix campaigns "
             "(expand | run | report)")
    campaign_sub = p.add_subparsers(dest="campaign_command",
                                    required=True)
    for action, description in (
            ("expand", "materialise the scenario grid and print the "
                       "manifest"),
            ("run", "execute the campaign through the parallel sweep "
                    "engine and the result store"),
            ("report", "aggregate a fully-cached campaign from the "
                       "result store without evaluating anything")):
        cp = campaign_sub.add_parser(action, help=description)
        cp.add_argument("spec", metavar="SPEC",
                        help="campaign spec file (.json or .toml)")
        cp.add_argument("--output", "-o", default=None, metavar="FILE",
                        help="write the manifest (expand) or the "
                             "consolidated report (run/report) as "
                             "JSON to FILE")
        if action == "expand":
            cp.add_argument("--list", action="store_true",
                            help="also print one line per "
                                 "materialised scenario")
        else:
            cp.add_argument("--jobs", type=positive_int, default=None,
                            metavar="N",
                            help="worker processes for the scenario "
                                 "sweep (default: REPRO_JOBS env var, "
                                 "else 1; results are identical for "
                                 "any N)")
            add_cache_options(cp)
        if action == "run":
            cp.add_argument("--kernel", default=None,
                            choices=KERNEL_TIERS,
                            help="override the spec's online "
                                 "level-evaluation kernel (decisions "
                                 "are identical under every tier; "
                                 "note the override changes the "
                                 "campaign hash and store keys)")
            add_trace_option(cp)

    p = sub.add_parser(
        "obs",
        help="observability tooling: render --trace files "
             "(see docs/observability.md)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    op = obs_sub.add_parser(
        "report",
        help="render the span tree and top-self-time table of a "
             "JSONL trace file written by --trace")
    op.add_argument("trace_file", metavar="FILE",
                    help="JSONL span trace (one span object per line)")
    op.add_argument("--top", type=positive_int, default=10,
                    help="rows in the top-self-time table "
                         "(default: 10)")

    p = sub.add_parser("store",
                       help="inspect/manage a result store "
                            "(stats | gc | export)")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    for action, description in (
            ("stats", "summarise entries, staleness and size"),
            ("gc", "compact shards, dropping stale/corrupt records"),
            ("export", "flatten the store to one sorted JSONL file")):
        sp = store_sub.add_parser(action, help=description)
        sp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="store root (default: REPRO_CACHE_DIR)")
        if action == "export":
            sp.add_argument("--output", "-o", required=True,
                            metavar="FILE",
                            help="destination JSONL file")

    p = sub.add_parser(
        "serve",
        help="long-running admission-control service over HTTP "
             "(run | bench)")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)
    sp = serve_sub.add_parser(
        "run", help="start the HTTP admission service")
    sp.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sp.add_argument("--port", type=int, default=8642,
                    help="bind port (0 picks a free one)")
    sp.add_argument("--store", dest="cache_dir", default=None,
                    metavar="DIR",
                    help="snapshot store root, enabling /v1/snapshot "
                         "and /v1/restore (default: REPRO_CACHE_DIR)")
    sp.add_argument("--restore", action="store_true",
                    help="rebuild tenants from the store's latest "
                         "snapshot before serving")
    sp.add_argument("--snapshot-on-exit", action="store_true",
                    help="persist a final snapshot on SIGINT/SIGTERM")
    sp.add_argument("--queue-limit", type=positive_int, default=1024,
                    help="admit-queue bound; full queue sheds with "
                         "HTTP 503")
    sp.add_argument("--max-batch", type=positive_int, default=64,
                    help="events coalesced per batcher wakeup")
    sp.add_argument("--queue-timeout", type=float, default=2.0,
                    help="seconds an event may wait in the queue "
                         "before it is shed as stale")
    sp = serve_sub.add_parser(
        "bench",
        help="replay multi-tenant streams against a live (or "
             "in-process) server and report sustained events/sec")
    sp.add_argument("--url", default=None, metavar="URL",
                    help="bench a running server (default: start an "
                         "in-process one)")
    sp.add_argument("--tenants", type=positive_int, default=1,
                    help="concurrent tenants to replay")
    sp.add_argument("--seed", type=int, default=0,
                    help="first tenant's stream seed")
    sp.add_argument("--depth", type=positive_int, default=64,
                    help="pipelined requests in flight per tenant")
    sp.add_argument("--shards", type=positive_int, default=1,
                    help="shards per tenant engine")
    sp.add_argument("--verify", action="store_true",
                    help="assert served decisions are bitwise "
                         "identical to an offline engine run")
    sp.add_argument("--no-overload", action="store_true",
                    help="skip the overload/shedding phase")
    sp.add_argument("--output", "-o", default=None, metavar="FILE",
                    help="write BENCH_serve.json (compare_bench "
                         "schema) to FILE")

    return parser


def _cache_dir(args: argparse.Namespace) -> "str | None":
    explicit = getattr(args, "cache_dir", None)
    if explicit:
        return explicit
    environment = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return environment or None


def _resolve_store(args: argparse.Namespace,
                   parser: argparse.ArgumentParser):
    """The ResultStore the flags ask for (or ``None``)."""
    if getattr(args, "no_cache", False):
        if getattr(args, "resume", False):
            parser.error("--resume and --no-cache are contradictory")
        return None
    cache_dir = _cache_dir(args)
    if getattr(args, "resume", False):
        from repro.store import is_store

        if not cache_dir:
            parser.error("--resume requires --cache-dir "
                         "(or REPRO_CACHE_DIR)")
        if not is_store(cache_dir):
            parser.error(f"--resume: no result store at {cache_dir!r} "
                         f"(run once with --cache-dir to create it)")
    if not cache_dir:
        return None
    from repro.store import ResultStore

    return ResultStore(cache_dir)


def _run_store_command(args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> int:
    from repro.store import store_export, store_gc, store_stats

    cache_dir = _cache_dir(args)
    if not cache_dir:
        parser.error("store commands need --cache-dir "
                     "(or REPRO_CACHE_DIR)")
    try:
        if args.store_command == "stats":
            print(store_stats(cache_dir))
        elif args.store_command == "gc":
            print(store_gc(cache_dir))
        else:
            print(store_export(cache_dir, args.output))
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_serve_command(args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> int:
    """``repro serve run`` / ``repro serve bench``."""
    if args.serve_command == "run":
        import asyncio

        from repro.serve.app import AdmissionService, serve_forever
        from repro.serve.snapshot import restore_snapshot

        cache_dir = _cache_dir(args)
        store = None
        if cache_dir:
            from repro.store import ResultStore

            store = ResultStore(cache_dir)
        service = AdmissionService(
            store=store, queue_limit=args.queue_limit,
            max_batch=args.max_batch,
            queue_timeout=args.queue_timeout)
        if args.restore:
            if store is None:
                parser.error("--restore needs --store "
                             "(or REPRO_CACHE_DIR)")
            outcome = restore_snapshot(service.tenants, store)
            print(f"restored snapshot {outcome['key']}: "
                  f"{outcome['tenants']} tenants, "
                  f"{outcome['events']} events replayed")

        def ready(bound) -> None:
            print(f"serving on http://{bound[0]}:{bound[1]} "
                  f"(Ctrl-C stops)", flush=True)

        asyncio.run(serve_forever(
            service, args.host, args.port,
            snapshot_on_exit=args.snapshot_on_exit, ready=ready))
        return 0

    from repro.serve.bench import format_bench_report, run_bench

    report = run_bench(
        url=args.url, tenants=args.tenants, seed=args.seed,
        depth=args.depth, shards=args.shards, verify=args.verify,
        overload=not args.no_overload, output=args.output)
    print(format_bench_report(report))
    if args.output:
        print(f"wrote {args.output}")
    return 0


def _run_obs_command(args: argparse.Namespace,
                     parser: argparse.ArgumentParser) -> int:
    """``repro obs report``: render a ``--trace`` JSONL file."""
    from repro.obs import load_spans, render_report

    try:
        spans = load_spans(args.trace_file)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {args.trace_file} is not a JSONL trace file: "
              f"{error}", file=sys.stderr)
        return 1
    print(render_report(spans, top=args.top), end="")
    return 0


def _configure_trace(args: argparse.Namespace):
    """Install a JSONL span exporter when ``--trace FILE`` is given.

    Returns the exporter (or ``None``).  Spans are process-local --
    they cannot cross the ``ProcessPoolExecutor`` boundary -- so a
    traced run is forced serial rather than silently producing a
    trace with the worker-side spans missing.
    """
    path = getattr(args, "trace", None)
    if not path:
        return None
    from repro import obs

    if getattr(args, "jobs", None) not in (None, 1):
        print(f"[trace] spans do not cross the worker-process "
              f"boundary; forcing --jobs 1 (was {args.jobs})")
        args.jobs = 1
    exporter = obs.JsonlSpanExporter(path)
    obs.configure_exporter(exporter)
    return exporter


def _finish_trace(exporter) -> None:
    if exporter is None:
        return
    from repro import obs

    obs.reset_tracing()
    print(f"[trace] {exporter.exported} spans written to "
          f"{exporter.path} (render with `repro obs report "
          f"{exporter.path}`)")


def _seed0(args: argparse.Namespace) -> int:
    """Resolved ``--seed0`` (``None`` sentinel means the default 0)."""
    seed0 = getattr(args, "seed0", None)
    return seed0 if seed0 is not None else 0


def _run_opdca_command(args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> int:
    """One-shot OPDCA admission sweeps with a selectable kernel."""
    from repro.core.admission import opdca_admission
    from repro.core.dca import DelayAnalyzer
    from repro.core.exceptions import ModelError
    from repro.core.schedulability import SDCA, resolve_equation
    from repro.workload.edge import EdgeWorkloadConfig, generate_edge_case
    from repro.workload.random_jobs import (
        RandomInstanceConfig,
        random_jobset,
    )

    from repro import obs

    try:
        equation = resolve_equation(args.policy)
    except ValueError as error:
        parser.error(str(error))
    cases = args.cases if args.cases is not None else 5
    seed0 = _seed0(args)
    print(f"OPDCA admission ({args.generator}, n={args.size}, "
          f"policy={args.policy} [{equation}], kernel={args.kernel})")
    print(f"{'seed':>6s} {'accepted':>9s} {'rejected':>9s} "
          f"{'ratio':>7s} {'seconds':>8s}")
    total_accepted = total_jobs = 0
    for seed in range(seed0, seed0 + cases):
        try:
            if args.generator == "edge":
                jobset = generate_edge_case(
                    EdgeWorkloadConfig(num_jobs=args.size),
                    seed=seed).jobset
            else:
                jobset = random_jobset(
                    RandomInstanceConfig(num_jobs=args.size),
                    seed=seed)
        except ModelError as error:
            parser.error(str(error))
        analyzer = DelayAnalyzer(jobset, kernel=args.kernel)
        test = SDCA(jobset, args.policy, analyzer=analyzer)
        start = time.perf_counter()
        with obs.span("opdca.case", seed=seed, jobs=jobset.num_jobs,
                      policy=args.policy,
                      kernel=args.kernel) as case_span:
            result = opdca_admission(jobset, args.policy, test=test)
            cache = analyzer.cache_stats()
            case_span.update_attributes({
                "accepted": result.num_accepted,
                "rejected": result.num_rejected,
                "kernel_cache_hits": sum(cache["hits"].values()),
                "kernel_cache_misses": sum(cache["misses"].values()),
            })
        elapsed = time.perf_counter() - start
        ratio = result.num_accepted / jobset.num_jobs
        total_accepted += result.num_accepted
        total_jobs += jobset.num_jobs
        print(f"{seed:>6d} {result.num_accepted:>9d} "
              f"{result.num_rejected:>9d} {100.0 * ratio:>6.1f}% "
              f"{elapsed:>8.3f}")
    print(f"{'mean':>6s} {'':>9s} {'':>9s} "
          f"{100.0 * total_accepted / max(total_jobs, 1):>6.1f}%")
    return 0


def _run_online_command(args: argparse.Namespace,
                        parser: argparse.ArgumentParser, store) -> int:
    """Drive the streaming admission engine from the CLI flags."""
    from repro.core.exceptions import ModelError
    from repro.online import (
        OnlineScenarioSpec,
        StreamConfig,
        evaluate_online,
        format_online_table,
    )

    if args.validate < 0:
        parser.error("--validate must be >= 0")
    if args.stream == "replay" and not args.replay_file:
        parser.error("--stream replay requires --replay-file")
    kwargs = dict(kind=args.stream, horizon=args.horizon,
                  rate=args.rate, dwell_scale=args.dwell_scale,
                  pool_size=args.pool, generator=args.generator)
    if args.stream == "replay":
        kwargs["replay_path"] = args.replay_file
    try:
        stream_config = StreamConfig(**kwargs)
    except ModelError as error:
        parser.error(str(error))
    cases = args.cases if args.cases is not None else 4
    if args.stream == "replay" and cases != 1:
        print("[online] replay streams are seed-independent; "
              "running 1 case")
        cases = 1
    seed0 = _seed0(args)
    specs = [
        OnlineScenarioSpec(stream=stream_config, seed=seed0 + offset,
                           policy=args.policy, mode=args.mode,
                           retry_limit=args.retry_limit,
                           validate_every=args.validate,
                           shards=args.shards, kernel=args.kernel)
        for offset in range(cases)
    ]
    try:
        results = evaluate_online(specs, n_workers=_n_workers(args),
                                  store=store)
    except ModelError as error:
        # e.g. --shards exceeding a stage's resource pool.
        parser.error(str(error))
    title = (f"online admission ({args.stream}, "
             f"horizon={args.horizon:g}, policy={args.policy}, "
             f"mode={args.mode}"
             + (f", shards={args.shards}" if args.shards > 1 else "")
             + ")")
    print(format_online_table(results, title=title))
    if args.series and results:
        first = results[0]
        print(f"\nper-event series (seed {first.seed}):")
        for record in first.records:
            extra = (f"  evicted={list(record.evicted)}"
                     if record.evicted else "")
            print(f"  t={record.time:8.2f}  {record.kind:6s} "
                  f"A{record.uid:<4d} {record.decision:7s} "
                  f"admitted={record.admitted:<3d} "
                  f"util={record.utilisation:.2f} "
                  f"acc={100.0 * record.acceptance_ratio:5.1f}%"
                  f"{extra}")
    failures = [failure for result in results
                for failure in result.validation_failures]
    if failures:
        print(f"\nVALIDATION FAILURES ({len(failures)}):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    return 0


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_campaign_command(args: argparse.Namespace,
                          parser: argparse.ArgumentParser,
                          store) -> int:
    """Drive ``repro campaign expand|run|report`` from the CLI flags."""
    from repro.campaign import (
        CampaignError,
        CampaignRunner,
        build_report,
        load_campaign,
        manifest,
    )

    try:
        spec = load_campaign(args.spec)
    except CampaignError as error:
        parser.error(str(error))
    if getattr(args, "kernel", None) and args.kernel != spec.kernel:
        print(f"[campaign] kernel override: {spec.kernel} -> "
              f"{args.kernel} (campaign hash and store keys change)")
        spec = replace(spec, kernel=args.kernel)

    if args.campaign_command == "expand":
        from repro.campaign import expand

        try:
            scenarios = expand(spec)
            campaign_manifest = manifest(spec, scenarios=scenarios)
        except CampaignError as error:
            parser.error(str(error))
        print(f"campaign {spec.name}  "
              f"hash={campaign_manifest['campaign_hash'][:12]}")
        print(f"  grid points: {campaign_manifest['grid_points']}  "
              f"scenarios: {campaign_manifest['scenarios']} "
              f"({campaign_manifest['batch_scenarios']} batch, "
              f"{campaign_manifest['online_scenarios']} online)")
        for axis, counts in campaign_manifest["per_axis"].items():
            parts = "  ".join(f"{value}:{count}"
                              for value, count in counts.items())
            print(f"  axis {axis:<12s} {parts}")
        if args.list:
            for index, scenario in enumerate(scenarios):
                point = "  ".join(f"{axis}={value}" for axis, value
                                  in scenario.point.items())
                print(f"  [{index:4d}] {scenario.kind:6s} {point}")
        if args.output:
            _write_json(args.output, campaign_manifest)
            print(f"  manifest written to {args.output}")
        return 0

    try:
        runner = CampaignRunner(spec, store=store,
                                n_workers=_n_workers(args),
                                progress=print)
    except CampaignError as error:
        parser.error(str(error))
    if args.campaign_command == "report":
        if store is None:
            parser.error("campaign report needs --cache-dir "
                         "(or REPRO_CACHE_DIR) pointing at a store "
                         "populated by `repro campaign run`")
        missing = runner.missing()
        if missing:
            parser.error(
                f"campaign report: {missing} of "
                f"{len(runner.scenarios)} scenarios are not in the "
                f"store at {store.root} -- run `repro campaign run` "
                f"first")
    result = runner.run()
    report = build_report(result)
    print(report.format())
    if args.output:
        _write_json(args.output, report.to_dict())
        print(f"\nreport written to {args.output}")
    failures = sum(len(run.validation_failures)
                   for _, run in result.online)
    return 1 if failures else 0


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_environment()
    overrides = {}
    if getattr(args, "cases", None) is not None:
        overrides["cases"] = args.cases
    if getattr(args, "seed0", None) is not None:
        overrides["seed0"] = args.seed0
    if getattr(args, "opt_backend", None):
        overrides["opt_backend"] = args.opt_backend
    if getattr(args, "jobs", None) is not None:
        overrides["n_workers"] = args.jobs
    if overrides:
        config = replace(config, **overrides)
    return config


def _n_workers(args: argparse.Namespace) -> int:
    """Worker count for subcommands not driven by ExperimentConfig."""
    from repro.experiments.parallel import default_workers

    jobs = getattr(args, "jobs", None)
    return jobs if jobs is not None else default_workers()


def main(argv: "list[str] | None" = None) -> int:
    """Entry point of ``python -m repro``; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "store":
        return _run_store_command(args, parser)
    if args.command == "serve":
        return _run_serve_command(args, parser)
    if args.command == "obs":
        return _run_obs_command(args, parser)
    start = time.perf_counter()
    exporter = _configure_trace(args)
    n_workers = _n_workers(args)
    exit_code = 0
    if args.command == "scalability":
        # A timing table: never open (or even create) a store for it.
        store = None
        if getattr(args, "resume", False) or _cache_dir(args):
            print("[cache] scalability is a timing benchmark; "
                  "its measurements are never cached")
    elif args.command == "campaign" and \
            args.campaign_command == "expand":
        # Pure spec manipulation: never open (or create) a store.
        store = None
    elif args.command == "opdca":
        # A one-shot console sweep: nothing to cache.
        store = None
    else:
        store = _resolve_store(args, parser)

    if args.command in ALL_FIGURES:
        config = _experiment_config(args)
        figure = ALL_FIGURES[args.command](config, store=store)
        print(format_table(figure, stacked=args.stacked))
        print()
        print(format_series(figure))
        if args.chart:
            print()
            print(format_chart(figure))
        problems = shape_checks(figure)
        if problems:
            print("\nSHAPE VIOLATIONS (should be impossible for the "
                  "guaranteed relations):")
            for problem in problems:
                print(f"  - {problem}")
    elif args.command == "ablate-refinement":
        cases = args.cases if args.cases is not None else 10
        print(refinement_ablation(cases=cases, seed0=_seed0(args),
                                  n_workers=n_workers,
                                  store=store).format())
    elif args.command == "ablate-solver":
        cases = args.cases if args.cases is not None else 5
        print(solver_agreement(cases=cases, seed0=_seed0(args),
                               n_workers=n_workers,
                               store=store).format())
    elif args.command == "validate-sim":
        cases = args.cases if args.cases is not None else 10
        print(bound_tightness(cases=cases, seed0=_seed0(args),
                              n_workers=n_workers,
                              store=store).format())
    elif args.command == "ablate-heuristics":
        cases = args.cases if args.cases is not None else 10
        print(heuristic_comparison(cases=cases, seed0=_seed0(args),
                                   n_workers=n_workers,
                                   store=store).format())
    elif args.command == "ablate-holistic":
        cases = args.cases if args.cases is not None else 10
        print(holistic_comparison(cases=cases, seed0=_seed0(args),
                                  n_workers=n_workers,
                                  store=store).format())
    elif args.command == "opdca":
        exit_code = _run_opdca_command(args, parser)
    elif args.command == "online":
        exit_code = _run_online_command(args, parser, store)
    elif args.command == "campaign":
        exit_code = _run_campaign_command(args, parser, store)
    elif args.command == "scalability":
        print(scalability(job_counts=tuple(args.sizes),
                          cases=args.cases,
                          n_workers=n_workers).format())
    elif args.command == "sensitivity":
        from repro.experiments.sensitivity import (
            gap_vs_jobs,
            gap_vs_resources,
            gap_vs_stages,
            summarize_gaps,
        )

        cases = args.cases if args.cases is not None else 10
        sweeps = {"jobs": gap_vs_jobs, "resources": gap_vs_resources,
                  "stages": gap_vs_stages}
        selected = (list(sweeps) if args.axis == "all" else [args.axis])
        results = []
        for axis in selected:
            result = sweeps[axis](cases=cases, seed0=_seed0(args),
                                  n_workers=n_workers, store=store)
            results.append(result)
            print(result.format())
            print()
        print(summarize_gaps(results))
    else:  # pragma: no cover - argparse guards this
        return 1

    _finish_trace(exporter)
    if store is not None:
        print()
        print(format_cache_summary(store))
    print(f"\n[done in {time.perf_counter() - start:.1f}s]")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
