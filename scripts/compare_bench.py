#!/usr/bin/env python3
"""Benchmark-regression gate: compare a fresh pytest-benchmark JSON
report against a committed baseline.

Usage::

    python scripts/compare_bench.py BASELINE FRESH \
        [--tolerance 0.20] [--floor METRIC=X] [--ceiling METRIC=X]

Both files are ``--benchmark-json`` reports; benchmarks are matched by
name and compared on the deterministic *derived* metrics the suites
publish through ``extra_info`` (never on raw wall-clock seconds, which
vary too much across runner hardware):

* ``speedup(...)`` ratios -- batched-vs-serial bound evaluation,
  incremental-vs-cold admission -- must stay within ``--tolerance``
  (default -20%) of the baseline value; repeatable ``--floor
  METRIC=X`` flags additionally enforce the historic absolute gates
  (e.g. ``--floor 'speedup(admission)=2.0'``).
* ``events_per_sec(...)`` throughputs must stay within ``--tolerance``
  of the baseline.  They are hardware-proportional, so the committed
  baselines must be refreshed from a CI artifact, not a laptop (see
  ``benchmarks/baselines/README.md``).
* ``acceptance_ratio(...)`` quality metrics -- the sharded engine's
  acceptance vs the single-shard oracle -- must not drop below
  ``--tolerance`` of the baseline (deterministic, so any drift is a
  real behaviour change, not noise).
* repeatable ``--ceiling METRIC=X`` flags enforce absolute *upper*
  bounds over the fresh report (e.g. ``--ceiling
  'overhead_pct(online)=5.0'`` caps the measured overhead of the
  ``repro.obs`` telemetry spine); like ``--floor`` they apply to any
  ``extra_info`` metric, gated prefix or not.

Gated metrics that appear only in the fresh report (a brand-new
benchmark or a newly published metric) never fail the run; they are
surfaced as ``add it to the committed baseline to arm the gate`` notes
so they get committed on the next baseline refresh instead of riding
along ungated.

Improvements beyond ``+tolerance`` pass but print a reminder to ratchet
the baseline, so the committed trajectory keeps up with the code.

Exit status: 0 when every gated metric passes, 1 on any regression,
2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

#: ``extra_info`` key prefixes that participate in the gate.  Every
#: other numeric key is reported as context but never fails the run.
RATIO_PREFIX = "speedup("
THROUGHPUT_PREFIX = "events_per_sec("
QUALITY_PREFIX = "acceptance_ratio("


def load_metrics(path: str) -> "dict[str, dict[str, float]]":
    """``{benchmark name: {metric: value}}`` for the numeric
    ``extra_info`` entries of one report."""
    try:
        with open(path) as handle:
            report = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    benchmarks = report.get("benchmarks") or []
    if not benchmarks:
        raise SystemExit(f"error: no benchmarks in {path}")
    metrics: dict[str, dict[str, float]] = {}
    for bench in benchmarks:
        info = {key: float(value)
                for key, value in (bench.get("extra_info") or {}).items()
                if isinstance(value, (int, float))}
        metrics[bench.get("name", "?")] = info
    return metrics


def gated(metric: str) -> bool:
    return metric.startswith(
        (RATIO_PREFIX, THROUGHPUT_PREFIX, QUALITY_PREFIX))


def parse_bound(text: str, flag: str) -> "tuple[str, float]":
    """Split a ``--floor``/``--ceiling`` ``METRIC=X`` argument on its
    *last* ``=`` (the metric names themselves contain ``=``, e.g.
    ``speedup(bounds)@n=100``)."""
    metric, _, value = text.rpartition("=")
    if not metric:
        raise SystemExit(
            f"error: {flag} needs METRIC=VALUE, got {text!r}")
    try:
        return metric, float(value)
    except ValueError:
        raise SystemExit(
            f"error: {flag} value must be a number, got {text!r}")


def parse_floor(text: str) -> "tuple[str, float]":
    return parse_bound(text, "--floor")


def compare(baseline: "dict[str, dict[str, float]]",
            fresh: "dict[str, dict[str, float]]", *,
            tolerance: float, floors: "dict[str, float]",
            ceilings: "dict[str, float] | None" = None
            ) -> "tuple[list[str], list[str]]":
    """Returns ``(failures, notes)`` over every matched metric."""
    failures: list[str] = []
    notes: list[str] = []
    ceilings = ceilings or {}
    matched = 0
    for name, base_info in sorted(baseline.items()):
        fresh_info = fresh.get(name)
        if fresh_info is None:
            failures.append(
                f"{name}: benchmark missing from the fresh report")
            continue
        for metric, base_value in sorted(base_info.items()):
            if not gated(metric):
                continue
            if metric not in fresh_info:
                failures.append(
                    f"{name}/{metric}: metric missing from the fresh "
                    f"report (baseline {base_value:g})")
                continue
            value = fresh_info[metric]
            floor = base_value * (1.0 - tolerance)
            matched += 1
            verdict = "ok"
            if value < floor:
                verdict = "REGRESSION"
                failures.append(
                    f"{name}/{metric}: {value:g} < {floor:g} "
                    f"(baseline {base_value:g} -{tolerance:.0%})")
            elif value > base_value * (1.0 + tolerance):
                verdict = "improved"
                notes.append(
                    f"{name}/{metric}: {value:g} beats the baseline "
                    f"{base_value:g} by more than {tolerance:.0%} -- "
                    f"consider ratcheting the committed baseline")
            print(f"  {name}/{metric}: baseline={base_value:g} "
                  f"fresh={value:g} [{verdict}]")
    if matched == 0 and not floors and not ceilings:
        # A report whose only gates are absolute bounds (e.g. the
        # observability-overhead ceiling) legitimately matches no
        # relative metric; with neither floors nor ceilings, though,
        # zero matches means the gate is not protecting anything.
        failures.append(
            "no gated metrics (speedup(*)/events_per_sec(*)/"
            "acceptance_ratio(*)) matched between baseline and fresh "
            "report")
    # Gated metrics that only exist in the fresh report are not
    # protected by anything yet: surface them so they get committed to
    # the baseline instead of silently riding along ungated.
    for name, info in sorted(fresh.items()):
        base_info = baseline.get(name, {})
        for metric in sorted(info):
            if gated(metric) and metric not in base_info:
                notes.append(
                    f"{name}/{metric}: gated metric present only in "
                    f"the fresh report ({info[metric]:g}) -- add it to "
                    f"the committed baseline to arm the gate")
    # Absolute floors are enforced over the *fresh* report alone, so a
    # baseline refresh that drops or renames a metric can never
    # silently disarm a historic gate.
    for metric, floor in sorted(floors.items()):
        found = False
        for name, info in sorted(fresh.items()):
            if metric not in info:
                continue
            found = True
            if info[metric] < floor:
                failures.append(
                    f"{name}/{metric}: {info[metric]:g} is below the "
                    f"absolute floor {floor:g}")
        if not found:
            failures.append(
                f"--floor names metric {metric!r} absent from the "
                f"fresh report")
    # Ceilings mirror floors: absolute upper bounds over the fresh
    # report (e.g. 'overhead_pct(online)=5.0' caps the measured
    # disabled-instrumentation overhead of the telemetry spine).
    for metric, ceiling in sorted(ceilings.items()):
        found = False
        for name, info in sorted(fresh.items()):
            if metric not in info:
                continue
            found = True
            value = info[metric]
            verdict = "ok" if value <= ceiling else "REGRESSION"
            print(f"  {name}/{metric}: fresh={value:g} "
                  f"ceiling={ceiling:g} [{verdict}]")
            if value > ceiling:
                failures.append(
                    f"{name}/{metric}: {value:g} is above the "
                    f"absolute ceiling {ceiling:g}")
        if not found:
            failures.append(
                f"--ceiling names metric {metric!r} absent from the "
                f"fresh report")
    return failures, notes


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when a fresh benchmark report regresses "
                    "against a committed baseline.")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        metavar="FRACTION",
                        help="allowed relative drop per metric "
                             "(default: 0.20 = -20%%)")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="METRIC=X",
                        help="absolute floor for one metric, e.g. "
                             "'speedup(admission)=2.0' (repeatable; "
                             "carries the historic fixed CI gates)")
    parser.add_argument("--ceiling", action="append", default=[],
                        metavar="METRIC=X",
                        help="absolute ceiling for one metric over "
                             "the fresh report, e.g. "
                             "'overhead_pct(online)=5.0' (repeatable)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must lie in [0, 1), got "
                     f"{args.tolerance}")
    floors = dict(parse_floor(text) for text in args.floor)
    ceilings = dict(parse_bound(text, "--ceiling")
                    for text in args.ceiling)

    print(f"comparing {args.fresh} against baseline {args.baseline} "
          f"(tolerance -{args.tolerance:.0%}"
          + (f", floors {floors}" if floors else "")
          + (f", ceilings {ceilings}" if ceilings else "") + ")")
    failures, notes = compare(
        load_metrics(args.baseline), load_metrics(args.fresh),
        tolerance=args.tolerance, floors=floors, ceilings=ceilings)
    for note in notes:
        print(f"note: {note}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
