"""The traced run's per-layer ledger.

Wrappers installed from here time calls into the public functions of
each layer of ``repro``.  Synchronous wrappers keep a call stack, so
every layer's *self* time (its duration minus the time of wrapped
calls it made) is known; the end-to-end time minus the sum of all
self times is what no layer accounts for.  Coroutine wrappers (the
service's HTTP handlers) record plain durations, because other tasks
run while they wait.

Functions that other modules bound by name (``from x import f``) are
patched where the caller looks them up, which is why several targets
name the consumer module rather than the defining one.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Ledger:
    """Calls, inclusive time and self time per layer, plus counts."""

    def __init__(self) -> None:
        self._stack: list = []
        self._patches: list = []
        self.cells: list = []
        self.reset()

    def reset(self) -> None:
        """Zero every tally (live wrapped frames keep running); the
        memo tallies of live cells count from here on."""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = defaultdict(float)
        self.counts["memo_hits"] = -sum(c.memo_hits for c in self.cells)
        self.counts["memo_misses"] = -sum(
            c.memo_misses for c in self.cells)

    # -- wrappers ------------------------------------------------------

    def timed(self, name, fn, *, split=None, on_result=None):
        """``fn`` wrapped to bill its time to ``name`` (or to
        ``split(args)`` when the layer depends on the arguments)."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name if split is None else split(args)
            frame = [0.0]
            ledger._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                ledger._stack.pop()
                ledger.calls[key] += 1
                ledger.total[key] += elapsed
                ledger.own[key] += elapsed - frame[0]
                if ledger._stack:
                    ledger._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(ledger, result, args)
            return result

        return wrapper

    def timed_async(self, name, fn):
        """Coroutine ``fn`` wrapped to record its duration only."""
        ledger = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                ledger.calls[name] += 1
                ledger.total[name] += perf_counter() - start

        return wrapper

    # -- installation --------------------------------------------------

    def patch(self, owner, attr, wrapper) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = wrapper(original)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, wrapper(original))
        self._patches.append((owner, attr, original))

    def patch_path(self, module: str, attr: str, wrapper) -> None:
        """Patch ``module.attr``; ``attr`` may be ``Class.method``."""
        owner = importlib.import_module(module)
        head, _, tail = attr.rpartition(".")
        if head:
            owner = getattr(owner, head)
        self.patch(owner, tail, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- readout -------------------------------------------------------

    def harvest_cells(self) -> None:
        """Fold the decision-memo tallies of the cells built so far
        into the counts and drop the references, so finished engines
        can be freed."""
        for cell in self.cells:
            self.counts["memo_hits"] += cell.memo_hits
            self.counts["memo_misses"] += cell.memo_misses
        self.cells = []

    def memo_ratio(self) -> float:
        self.harvest_cells()
        hits = self.counts["memo_hits"]
        misses = self.counts["memo_misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    def raw(self) -> dict:
        """JSON-ready tallies (the serve launcher ships these)."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "own": dict(self.own), "counts": dict(self.counts),
                "memo_hit_ratio": self.memo_ratio()}


def _timed(ledger: Ledger, name: str, **options):
    return lambda fn: ledger.timed(name, fn, **options)


def install_kernel(ledger: Ledger) -> None:
    """Delay-analysis kernel, shared by every workload."""
    for method in ("level_bounds", "level_bound_single"):
        ledger.patch_path("repro.core.dca", f"DelayAnalyzer.{method}",
                          _timed(ledger, "core.dca.level"))
    ledger.patch_path("repro.core.dca", "DelayAnalyzer.band_operands",
                      _timed(ledger, "core.dca.band"))
    for method in ("__init__", "restrict"):
        ledger.patch_path("repro.core.segments", f"SegmentCache.{method}",
                          _timed(ledger, "core.segments.build"))


def _count_ilp_vars(ledger, model, _args) -> None:
    ledger.counts["pairwise.ilp.vars"] += model.problem.num_vars


def install_fig4(ledger: Ledger) -> None:
    """Paper Figure 4 layers (4a-c through ``evaluate_case``, 4d
    through the admission controllers)."""
    install_kernel(ledger)
    ledger.patch_path("repro.workload.edge", "generate_edge_case",
                      _timed(ledger, "workload.gen"))
    ledger.patch_path("repro.pairwise.opt", "build_opt_model",
                      _timed(ledger, "pairwise.ilp.build",
                             on_result=_count_ilp_vars))
    ledger.patch_path("repro.pairwise.opt", "solve_highs",
                      _timed(ledger, "solver.highs.solve"))
    for attr, name in (("dm", "pairwise.dm"), ("dmr", "pairwise.dmr"),
                       ("opdca", "core.opdca"),
                       ("dcmp", "baselines.dcmp")):
        ledger.patch_path("repro.experiments.runner", attr,
                          _timed(ledger, name))
    ledger.patch_path("repro.core.admission", "opdca_admission",
                      _timed(ledger, "core.admission"))
    for attr, name in (("dm_admission", "pairwise.dm"),
                       ("dmr_admission", "pairwise.dmr")):
        ledger.patch_path("repro.pairwise.admission", attr,
                          _timed(ledger, name))


def _engine_kind(args) -> str:
    # process(self, now, kind, uid)
    return ("online.engine.arrive" if args[2] == "arrive"
            else "online.engine.depart")


def _register_cell(ledger, _result, args) -> None:
    ledger.cells.append(args[0])


def _counted_retry_pass(ledger: Ledger):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A generator: frames would outlive the caller's turn, so
            # only attempts and accepts are counted here; the time
            # lands in the decide layer it calls.
            for event in fn(*args, **kwargs):
                ledger.counts["online.cell.retry_attempts"] += 1
                if event.result is not None:
                    ledger.counts["online.cell.retry_accepts"] += 1
                yield event
        return wrapper
    return wrap


def install_online(ledger: Ledger) -> None:
    """Online admission layers: streams, engines, cells, the
    incremental analyzer and the sharded certificate."""
    install_kernel(ledger)
    for attr in ("generate_stream", "clustered_stream"):
        ledger.patch_path("repro.online.streams", attr,
                          _timed(ledger, "online.streams.generate"))
    for module, cls in (("repro.online.engine", "OnlineAdmissionEngine"),
                        ("repro.online.sharded",
                         "ShardedAdmissionEngine")):
        ledger.patch_path(module, f"{cls}.__init__",
                          _timed(ledger, "online.engine.init"))
        ledger.patch_path(module, f"{cls}.process",
                          _timed(ledger, "online.engine",
                                 split=_engine_kind))
    ledger.patch_path("repro.online.cell", "AdmissionCell.__init__",
                      _timed(ledger, "online.cell.init",
                             on_result=_register_cell))
    ledger.patch_path("repro.online.cell", "AdmissionCell.decide",
                      _timed(ledger, "online.cell.decide"))
    ledger.patch_path("repro.online.cell", "AdmissionCell.retry_pass",
                      _counted_retry_pass(ledger))
    ledger.patch_path("repro.online.incremental",
                      "IncrementalAnalyzer.subset",
                      _timed(ledger, "online.incremental.subset"))
    for attr, name in (("incremental_admission", "admission"),
                       ("incremental_feasibility", "feasibility")):
        ledger.patch_path("repro.online.incremental", attr,
                          _timed(ledger, f"online.incremental.{name}"))
    ledger.patch_path("repro.online.sharded", "admit_all_or_nothing",
                      _timed(ledger, "online.sharded.certify"))


def _queue_wait(ledger: Ledger):
    def wrap(submit):
        @functools.wraps(submit)
        def wrapper(self, work, **kwargs):
            enqueued = perf_counter()

            def timed_work():
                ledger.calls["serve.queue_wait"] += 1
                ledger.total["serve.queue_wait"] += \
                    perf_counter() - enqueued
                return work()

            return submit(self, timed_work, **kwargs)
        return wrapper
    return wrap


def install_serve(ledger: Ledger) -> None:
    """Admission-service layers on top of the online ones."""
    install_online(ledger)
    ledger.patch_path("repro.serve.tenants", "Tenant.process",
                      _timed(ledger, "serve.decision"))
    ledger.patch_path("repro.serve.app", "AdmissionService.metrics",
                      _timed(ledger, "serve.scrape"))
    ledger.patch_path("repro.serve.batcher", "EventBatcher.submit",
                      _queue_wait(ledger))
    routes = importlib.import_module("repro.serve.handlers").ROUTES
    for path in ("/v1/admit", "/v1/depart"):
        ledger.patch(routes, ("POST", path),
                     lambda fn: ledger.timed_async("serve.handler", fn))


CERTIFICATE_COUNTERS = (
    ("repro_certificates_total", "quick",
     "online.sharded.certificates_quick"),
    ("repro_certificates_total", "full",
     "online.sharded.certificates_full"),
    ("repro_certificate_revocations_total", None,
     "online.sharded.revocations"),
)


def certificate_counts() -> dict:
    """Current values of the ``repro_certificate*`` registry counters."""
    from repro import obs

    snapshot = obs.get_registry().snapshot()
    out = {}
    for metric, label, name in CERTIFICATE_COUNTERS:
        entry = snapshot.get(metric, {})
        if label is None:
            out[name] = float(entry.get("value", 0.0))
        else:
            out[name] = float(entry.get("children", {}).get(label, 0.0))
    return out


#: Layers reported with their inclusive time: each is an umbrella
#: whose inner layers are reported on their own.
INCLUSIVE = {
    "core.opdca.busy_ms": "core.opdca",
    "core.admission.busy_ms": "core.admission",
    "pairwise.dm.busy_ms": "pairwise.dm",
    "pairwise.dmr.busy_ms": "pairwise.dmr",
    "baselines.dcmp.busy_ms": "baselines.dcmp",
    "online.engine.init_ms": "online.engine.init",
    "online.engine.arrive_ms": "online.engine.arrive",
    "online.engine.depart_ms": "online.engine.depart",
    "online.cell.decide_ms": "online.cell.decide",
    "online.sharded.certify_ms": "online.sharded.certify",
    "serve.scrape_ms": "serve.scrape",
}

#: Layers reported with their self time.
SELF = {
    "workload.gen_ms": "workload.gen",
    "core.segments.build_ms": "core.segments.build",
    "pairwise.ilp.build_ms": "pairwise.ilp.build",
    "solver.highs.solve_ms": "solver.highs.solve",
    "core.dca.level_ms": "core.dca.level",
    "core.dca.band_ms": "core.dca.band",
    "online.streams.generate_ms": "online.streams.generate",
    "online.incremental.subset_ms": "online.incremental.subset",
    "online.incremental.admission_ms": "online.incremental.admission",
    "online.incremental.feasibility_ms":
        "online.incremental.feasibility",
    "serve.decision_ms": "serve.decision",
}

CALLS = {
    "solver.highs.solves": "solver.highs.solve",
    "core.dca.level_calls": "core.dca.level",
    "core.dca.band_calls": "core.dca.band",
    "online.engine.arrive_calls": "online.engine.arrive",
    "online.engine.depart_calls": "online.engine.depart",
    "online.cell.decide_calls": "online.cell.decide",
    "online.sharded.certify_calls": "online.sharded.certify",
}

COUNTS = ("pairwise.ilp.vars", "online.cell.retry_attempts",
          "online.cell.retry_accepts")


def layer_report(raw: dict, *, ops: int, busy_seconds: float,
                 names) -> dict:
    """Per-layer metrics from :meth:`Ledger.raw` tallies.

    Times are milliseconds per operation (case or event), counts are
    totals over the traced phase, and ``unattributed_ms`` is the busy
    time per operation that no layer's self time covers.  Layers the
    workload never reached read 0.
    """
    out = {name: 0.0 for name in names}
    for metric, layer in INCLUSIVE.items():
        out[metric] = raw["total"].get(layer, 0.0) * 1e3 / ops
    for metric, layer in SELF.items():
        out[metric] = raw["own"].get(layer, 0.0) * 1e3 / ops
    for metric, layer in CALLS.items():
        out[metric] = float(raw["calls"].get(layer, 0))
    for metric in COUNTS:
        out[metric] = float(raw["counts"].get(metric, 0.0))
    out["online.cell.memo_hit_ratio"] = raw["memo_hit_ratio"]
    attributed = sum(raw["own"].values())
    out["unattributed_ms"] = (busy_seconds - attributed) * 1e3 / ops
    return out
