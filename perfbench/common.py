"""Helpers shared by the benchmark's workload processes.

Nothing here imports ``repro``: the instrument (timing, percentiles,
digests, the result line) stays fixed while the program under test
changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time

#: Units of every metric the benchmark can print (``BENCHMARK.json``
#: lists the same names).
UNITS = {
    # end to end (untraced run)
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "acceptance_ratio": "ratio",
    # paper Figure 4 layers
    "workload.gen_ms": "ms",
    "core.segments.build_ms": "ms",
    "pairwise.ilp.build_ms": "ms",
    "pairwise.ilp.vars": "count",
    "solver.highs.solve_ms": "ms",
    "solver.highs.solves": "count",
    "pairwise.opt.redundant_share": "ratio",
    "core.opdca.busy_ms": "ms",
    "core.admission.busy_ms": "ms",
    "pairwise.dm.busy_ms": "ms",
    "pairwise.dmr.busy_ms": "ms",
    "pairwise.dmr.flips": "count",
    "baselines.dcmp.busy_ms": "ms",
    # delay-analysis kernel
    "core.dca.level_calls": "count",
    "core.dca.level_ms": "ms",
    "core.dca.band_calls": "count",
    "core.dca.band_ms": "ms",
    # online admission
    "online.streams.generate_ms": "ms",
    "online.engine.init_ms": "ms",
    "online.engine.arrive_calls": "count",
    "online.engine.arrive_ms": "ms",
    "online.engine.depart_calls": "count",
    "online.engine.depart_ms": "ms",
    "online.cell.decide_calls": "count",
    "online.cell.decide_ms": "ms",
    "online.cell.memo_hit_ratio": "ratio",
    "online.cell.retry_attempts": "count",
    "online.cell.retry_accepts": "count",
    "online.incremental.subset_ms": "ms",
    "online.incremental.admission_ms": "ms",
    "online.incremental.feasibility_ms": "ms",
    "online.universe_jobs": "count",
    "online.admitted_mean": "count",
    "online.sharded.certify_calls": "count",
    "online.sharded.certify_ms": "ms",
    "online.sharded.certificates_quick": "count",
    "online.sharded.certificates_full": "count",
    "online.sharded.revocations": "count",
    # admission service
    "serve.decision_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_mean": "count",
    "serve.handler_ms": "ms",
    "serve.http_ms": "ms",
    "serve.scrape_ms": "ms",
    "client.cpu_ms": "ms",
    # every workload
    "unattributed_ms": "ms",
    "trace_overhead_pct": "%",
    "calibration_ms": "ms",
}

END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "latency_p50_ms",
              "latency_tail_ms", "acceptance_ratio")
PER_LAYER = tuple(name for name in UNITS if name not in END_TO_END)

#: Tail percentile per workload: the highest one with at least ten
#: latencies beyond it in a pass (``fig4-paper`` times 72 cases of
#: panels 4a-c a pass, ``online-sharded`` ~1200 events, ``serve-closed``
#: ~1550 admit requests).
TAIL_PERCENTILE = {"fig4-paper": 85.0, "online-sharded": 99.0,
                   "serve-closed": 99.0}

#: Fewest passes a run makes over its inputs: every operation's time
#: is the median (the minimum for ``serve-closed``) of at least this
#: many timings.  With three, ``online-sharded``'s rate and p99 spread
#: by 0.12-0.14 over ten seeds, and with five by 0.04-0.08.
#: ``fig4-paper``, whose pass is the longest, spread by 0.03-0.15 with
#: three.
MIN_PASSES = {"fig4-paper": 3, "online-sharded": 5, "serve-closed": 5}


def run_passes(name: str, seconds: float, one_pass, peak_rss) -> tuple:
    """Results of ``one_pass(k)`` for ``k = 0, 1, ...`` until
    ``seconds`` have passed and at least ``MIN_PASSES[name]`` are made,
    and ``peak_rss()`` read after the first pass.

    Every pass does the same work on the same inputs, so the passes of
    a run are repeated timings of each operation taken seconds apart.
    The peak resident set is read after one pass because the count of
    passes follows the host's speed, and later passes can still raise
    the peak (the service's grows over its first four passes).
    """
    results = []
    rss = None
    start = time.perf_counter()
    while (len(results) < MIN_PASSES[name]
           or time.perf_counter() - start < seconds):
        results.append(one_pass(len(results)))
        if rss is None:
            rss = peak_rss()
    return results, rss


def op_medians(passes) -> list:
    """Per operation, the median of its times over ``passes`` (lists
    of equal length, one time per operation in the same order).

    The shared host slows for a few seconds at a time; an operation
    caught in such a spell in one pass keeps the time of the others.
    """
    return [median(times) for times in zip(*passes)]


def op_minima(passes) -> list:
    """Per operation, the least of its times over ``passes`` (laid out
    as for :func:`op_medians`).

    For a request that crosses two processes: the host's delays in
    waking either one only ever add time, and in a contended spell
    they hit so many requests in most passes that the median keeps
    them (see ``serve_closed``).
    """
    return [min(times) for times in zip(*passes)]


def latency_metrics(times, tail: float) -> dict:
    """``latency_p50_ms`` and ``latency_tail_ms`` of per-operation
    times (seconds) from :func:`op_medians` or :func:`op_minima`."""
    return {"latency_p50_ms": median(times) * 1e3,
            "latency_tail_ms": percentile(times, tail) * 1e3}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[11], fields[12] are utime, stime (1-based 14, 15).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def digest(rows) -> str:
    """Stable SHA-256 of JSON-ready rows."""
    text = json.dumps(rows, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibration_ms() -> float:
    """A fixed pure-Python loop, timed as a machine-speed diagnostic.

    Reported next to the metrics so a reader can tell a slow machine
    from a slow commit; it never scales any metric.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop from being optimised away
        raise AssertionError
    return elapsed * 1e3


def die_with_parent() -> None:
    """Have the kernel send this process SIGTERM when its parent
    exits, so that no benchmark process outlives the one that started
    it (Linux only; elsewhere a no-op)."""
    if not sys.platform.startswith("linux"):
        return
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    pr_set_pdeathsig = 1
    if libc.prctl(pr_set_pdeathsig, int(signal.SIGTERM), 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")


def load_expected(name: str) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected", f"{name}.json")) as handle:
        return json.load(handle)


def emit(payload: dict) -> None:
    """Print one JSON result line and flush (the parent reads the
    last line of a worker's standard output)."""
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    sys.stdout.flush()
