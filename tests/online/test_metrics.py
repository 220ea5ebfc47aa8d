"""SLO helpers (latency_percentiles / throughput), the per-cell
telemetry counters, and observability noninterference."""

from __future__ import annotations

from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro import obs
from repro.online import (
    OnlineAdmissionEngine,
    OnlineScenarioSpec,
    StreamConfig,
    generate_stream,
    run_online_scenario,
)
from repro.online.metrics import latency_percentiles, throughput

LIGHT = StreamConfig(horizon=60.0, rate=0.6, dwell_scale=1.0,
                     pool_size=8)


class TestLatencyPercentiles:
    def test_empty_sample_reports_zeros(self):
        out = latency_percentiles([])
        assert out == {"latency_p50_ms": 0.0, "latency_p99_ms": 0.0}

    def test_single_sample_is_every_percentile(self):
        out = latency_percentiles([0.002])
        assert out["latency_p50_ms"] == pytest.approx(2.0)
        assert out["latency_p99_ms"] == pytest.approx(2.0)

    def test_matches_numpy_linear_percentile(self):
        rng = np.random.default_rng(3)
        sample = rng.exponential(0.01, size=500).tolist()
        out = latency_percentiles(sample)
        assert out["latency_p50_ms"] == pytest.approx(
            float(np.percentile(sample, 50)) * 1e3)
        assert out["latency_p99_ms"] == pytest.approx(
            float(np.percentile(sample, 99)) * 1e3)

    def test_unit_scale_and_prefix_overrides(self):
        out = latency_percentiles([1.0, 3.0], unit_scale=1.0,
                                  prefix="decision_")
        assert out["decision_p50_ms"] == pytest.approx(2.0)
        assert set(out) == {"decision_p50_ms", "decision_p99_ms"}


class TestThroughput:
    def test_zero_busy_seconds_is_zero_not_nan(self):
        assert throughput(100, 0.0) == 0.0
        assert throughput(0, 0.0) == 0.0

    def test_negative_busy_seconds_guarded(self):
        assert throughput(100, -1.0) == 0.0

    def test_simple_ratio(self):
        assert throughput(50, 2.0) == 25.0


class TestCellTelemetry:
    def test_obs_stats_reconcile_with_the_run(self):
        stream = generate_stream(LIGHT, seed=1)
        engine = OnlineAdmissionEngine(stream)
        result = engine.run()
        stats = engine.cells[0].obs_stats()
        assert stats["decisions"] == engine.decision_count > 0
        # Every decide() call hit the memo, was answered by a parked
        # job's failure core, or ran the analyzers.
        assert stats["memo_hits"] + stats["memo_misses"] + \
            stats["core_hits"] == stats["decisions"]
        assert stats["kernel_cache_misses"] > 0
        assert stats["retry_depth"] >= 0
        # Outcome tallies cover at least every event record of the
        # run (failed retry attempts are counted but not recorded).
        assert sum(stats["outcomes"].values()) >= len(result.records)

    def test_outcome_counts_match_records(self):
        stream = generate_stream(LIGHT, seed=2)
        engine = OnlineAdmissionEngine(stream)
        result = engine.run()
        tally = TallyCounter(
            record.decision for record in result.records)
        outcomes = engine.cells[0].obs_stats()["outcomes"]
        for key in ("accept", "free", "expire", "noop"):
            assert outcomes.get(key, 0) == tally.get(key, 0)
        # The cell also tallies a "reject" per failed *retry* attempt;
        # the engine only records the per-event rejections.
        assert outcomes.get("reject", 0) >= tally.get("reject", 0)

    def test_null_instrumentation_preserves_decisions(self):
        stream = generate_stream(LIGHT, seed=3)
        plain = OnlineAdmissionEngine(stream).run()
        muted_engine = OnlineAdmissionEngine(stream)
        with obs.null_instrumentation():
            muted = muted_engine.run()
        assert [r.decision for r in muted.records] == \
            [r.decision for r in plain.records]
        # The registry-facing counters stayed silent, but the plain
        # attribute telemetry (decision counts etc.) still ticked.
        assert muted_engine.decision_count > 0


class TestTracingNoninterference:
    def test_traced_run_is_bitwise_identical(self, tmp_path):
        """Telemetry observes, never steers: a run with the span
        exporter live must produce the exact deterministic result of
        an untraced run."""
        spec = OnlineScenarioSpec(stream=LIGHT, seed=5)
        baseline = run_online_scenario(spec).deterministic_dict()
        exporter = obs.JsonlSpanExporter(
            str(tmp_path / "trace.jsonl"))
        obs.configure_exporter(exporter)
        try:
            traced = run_online_scenario(spec).deterministic_dict()
        finally:
            obs.reset_tracing()
        assert traced == baseline
        assert exporter.exported > 0

    def test_sharded_traced_run_is_bitwise_identical(self, tmp_path):
        spec = OnlineScenarioSpec(stream=LIGHT, seed=5, shards=2)
        baseline = run_online_scenario(spec).deterministic_dict()
        obs.configure_exporter(obs.JsonlSpanExporter(
            str(tmp_path / "trace.jsonl")))
        try:
            traced = run_online_scenario(spec).deterministic_dict()
        finally:
            obs.reset_tracing()
        assert traced == baseline
