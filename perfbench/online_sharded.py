"""Workload ``online-sharded``: closed-loop replay of congested
clustered streams through the sharded admission engine.

Each event is fed through the engine's public ``process`` entry point
as soon as the previous one returns.  A *pass* replays streams
``0 .. STREAMS-1``, each on a fresh engine, in an order the run seed
rotates; a run makes passes until its time is up (at least five), and
each event's time is its median over the passes.  Every seed does the
same work: a stream's cost per event varies by up to 2x from one
stream to the next, and disjoint streams per seed made the spread
between seeds wider than any useful regression bound.  Decision
digests of the streams are committed in ``expected/online-sharded.json``
and checked in every pass.
"""

from __future__ import annotations

import gc
import time

import common
from ledger import Ledger, certificate_counts, install_online, layer_report

#: The ``benchmarks/bench_online.py`` operating point: Poisson
#: arrivals against a finite job pool, congested enough that the
#: engine accepts, rejects, evicts and retries.
CONGESTED = dict(rate=1.3, dwell_scale=2.0, pool_size=40)
#: Stream length in time units: ~600 events over four clusters, which
#: one engine replays in 1.7-3.5 s on a shared 2-vCPU x86-64 VM.
HORIZON = 60.0
#: Streams of a pass, which are also the streams with committed
#: digests.
STREAMS = 2
SHARDS = 4
CROSS_FRACTION = 0.05
#: Untimed warm-up stream (not one of the pass's).
WARMUP_HORIZON = 20.0


def stream_order(seed: int) -> list:
    """Streams ``0 .. STREAMS-1`` rotated by the run seed."""
    return [(seed + k) % STREAMS for k in range(STREAMS)]


def make_stream(index: int, horizon: float = HORIZON):
    from repro.online import streams

    config = streams.StreamConfig(horizon=horizon, **CONGESTED)
    # clustered_stream uses seeds seed..seed+3 for its clusters.
    return streams.clustered_stream(
        config, clusters=SHARDS, cross_fraction=CROSS_FRACTION,
        seed=SHARDS * index)


def make_engine(stream):
    from repro.online.sharded import ShardedAdmissionEngine

    return ShardedAdmissionEngine(stream, shards=SHARDS)


def decision_rows(result) -> list:
    """The deterministic part of a run's records, for the digest."""
    rows = [[r.index, r.kind, r.uid, r.decision, list(r.evicted),
             r.admitted] for r in result.records]
    rows.append(list(result.final_admitted))
    return rows


def cold_check(universe, admitted) -> "str | None":
    """A set the engine held admitted must pass a cold OPDCA run."""
    from repro.core.opdca import opdca
    from repro.core.system import JobSet

    if not admitted:
        return None
    members = sorted(admitted)
    jobset = JobSet(universe.system, [universe.jobs[i] for i in members])
    if not opdca(jobset).feasible:
        return f"cold OPDCA rejects the admitted set {members}"
    return None


def replay(engine, events, times: list):
    """Feed every event, appending its time to ``times``; returns the
    largest admitted set seen."""
    peak = -1
    peak_set = frozenset()
    perf = time.perf_counter
    process = engine.process
    for now, kind, uid in events:
        began = perf()
        records = process(now, kind, uid)
        times.append(perf() - began)
        if records[-1].admitted > peak:
            peak = records[-1].admitted
            peak_set = engine.admitted
    return peak_set


class Workload:
    name = "online-sharded"

    def __init__(self, seed: int, seconds: float) -> None:
        self.order = stream_order(seed)
        self.seconds = seconds

    def setup(self) -> None:
        self.expected = common.load_expected(self.name)
        self._make_streams()
        # Untimed warm-up replay of a short stream outside the pass.
        warm = make_stream(STREAMS, horizon=WARMUP_HORIZON)
        replay(make_engine(warm), self.events(warm), [])

    def _make_streams(self) -> float:
        """Generate the pass's streams; returns the seconds it took."""
        began = time.perf_counter()
        self.streams = [(index, stream, self.events(stream))
                        for index, stream
                        in ((i, make_stream(i)) for i in self.order)]
        return time.perf_counter() - began

    @staticmethod
    def events(stream) -> list:
        from repro.online.engine import EVENT_ARRIVE, stream_events

        return [(now, "arrive" if kind == EVENT_ARRIVE else "depart", uid)
                for now, kind, uid in stream_events(stream)]

    def close(self) -> None:
        pass

    def _pass(self, ledger=None) -> dict:
        """Replay and check every stream once on fresh engines.

        ``busy`` is the wall time of building the engines and
        replaying (checks excluded); ``cold`` holds each stream's
        universe and largest admitted set for :func:`cold_check`, run
        after the timed passes because it calls the layers the ledger
        times.
        """
        tally = {"times": [], "errors": [], "cold": [], "arrivals": 0,
                 "accepted": 0.0, "admitted": 0.0, "universe": 0,
                 "busy": 0.0}
        for index, stream, events in self.streams:
            began = time.perf_counter()
            done = len(tally["times"])
            engine = make_engine(stream)
            try:
                peak_set = replay(engine, events, tally["times"])
            except Exception as error:  # noqa: BLE001 - counted
                tally["errors"].append(f"stream {index}: {error!r}")
                # One time per event, so that passes line up.
                missing = done + len(events) - len(tally["times"])
                tally["times"] += [time.perf_counter() - began] * missing
                continue
            finally:
                tally["busy"] += time.perf_counter() - began
            result = engine.result()
            summary = result.summary
            tally["arrivals"] += summary["arrivals"]
            tally["accepted"] += (summary["acceptance_ratio"]
                                  * summary["arrivals"])
            tally["admitted"] += summary["mean_admitted"] * len(events)
            tally["universe"] += engine.universe.num_jobs
            want = self.expected.get(str(index))
            got = common.digest(decision_rows(result))
            if want != got:
                tally["errors"].append(
                    f"stream {index}: decision digest {got} != {want}")
            tally["cold"].append((index, engine.universe, peak_set))
            engine = result = None
            if ledger is not None:
                ledger.harvest_cells()
            gc.collect()
        return tally

    @staticmethod
    def _cold_checks(tally: dict) -> list:
        return [f"stream {index}: {problem}"
                for index, universe, peak_set in tally.pop("cold")
                for problem in [cold_check(universe, peak_set)]
                if problem]

    def measure(self) -> dict:
        def one_pass(k: int) -> dict:
            tally = self._pass()
            if k:
                tally.pop("cold")  # frees the pass's universes
            return tally

        passes, rss = common.run_passes(self.name, self.seconds, one_pass,
                                        common.peak_rss_mb)
        errors = [e for p in passes for e in p["errors"]]
        # Every pass makes the same decisions (the digests say so), so
        # the first pass's admitted sets stand for all of them.
        errors += self._cold_checks(passes[0])
        times = common.op_medians([p["times"] for p in passes])
        first = passes[0]
        metrics = common.latency_metrics(
            times, common.TAIL_PERCENTILE[self.name])
        metrics["ops_per_s"] = len(times) / sum(times)
        metrics["peak_rss_mb"] = rss
        metrics["acceptance_ratio"] = first["accepted"] / first["arrivals"]
        return {"attempted": len(times) * len(passes),
                "passes": len(passes), "errors": errors,
                "metrics": metrics}

    def trace(self) -> dict:
        """One pass untraced, then the same pass traced; each
        regenerates its streams first, so that stream generation is
        in the ledger."""
        generate_s = self._make_streams()
        untraced = self._pass()
        ledger = Ledger()
        install_online(ledger)
        before = certificate_counts()
        try:
            traced_generate_s = self._make_streams()
            traced = self._pass(ledger)
        finally:
            ledger.restore()
        after = certificate_counts()
        errors = (untraced["errors"] + traced["errors"]
                  + self._cold_checks(untraced))
        traced.pop("cold")
        busy = traced_generate_s + traced["busy"]
        events = len(traced["times"])
        metrics = layer_report(ledger.raw(), ops=events,
                               busy_seconds=busy, names=common.PER_LAYER)
        for name, value in after.items():
            metrics[name] = value - before[name]
        metrics["online.universe_jobs"] = (traced["universe"]
                                           / len(self.streams))
        metrics["online.admitted_mean"] = traced["admitted"] / events
        metrics["trace_overhead_pct"] = (
            busy / (generate_s + untraced["busy"]) - 1.0) * 100.0
        return {"attempted": 2 * events, "errors": errors,
                "metrics": metrics}
