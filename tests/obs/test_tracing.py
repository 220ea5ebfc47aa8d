"""The tracing half of repro.obs: spans, exporter, decorators,
report rendering."""

from __future__ import annotations

import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _clean_tracing():
    obs.reset_tracing()
    yield
    obs.reset_tracing()


def _exporter(tmp_path) -> obs.JsonlSpanExporter:
    exporter = obs.JsonlSpanExporter(str(tmp_path / "trace.jsonl"))
    obs.configure_exporter(exporter)
    return exporter


class TestDisabled:
    def test_span_is_null_without_exporter(self):
        handle = obs.span("work")
        with handle as inner:
            assert inner is handle
            inner.set_attribute("k", "v")  # no-op, no error
        assert not obs.tracing_enabled()
        assert obs.current_span() is None

    def test_decorators_pass_through(self):
        @obs.trace_step("step")
        def double(x):
            return 2 * x

        @obs.profile_step("prof")
        def triple(x):
            return 3 * x

        assert double(2) == 4
        assert triple(2) == 6


class TestSpans:
    def test_span_tree_nesting_and_export(self, tmp_path):
        exporter = _exporter(tmp_path)
        with obs.span("root", kind="outer") as root:
            with obs.span("child") as child:
                assert obs.current_span() is child
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
            assert obs.current_span() is root
        assert exporter.exported == 2
        spans = obs.load_spans(exporter.path)
        by_name = {span["name"]: span for span in spans}
        assert by_name["child"]["parent_id"] == \
            by_name["root"]["span_id"]
        assert by_name["root"]["parent_id"] is None
        assert by_name["root"]["attrs"]["kind"] == "outer"
        assert by_name["root"]["duration"] >= \
            by_name["child"]["duration"]

    def test_sibling_roots_get_distinct_traces(self, tmp_path):
        exporter = _exporter(tmp_path)
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        spans = obs.load_spans(exporter.path)
        assert spans[0]["trace_id"] != spans[1]["trace_id"]

    def test_exception_marks_error_and_still_exports(self, tmp_path):
        exporter = _exporter(tmp_path)
        with pytest.raises(RuntimeError):
            with obs.span("broken"):
                raise RuntimeError("boom")
        (span,) = obs.load_spans(exporter.path)
        assert span["attrs"]["error"] == "RuntimeError"

    def test_name_can_also_be_an_attribute_key(self, tmp_path):
        # span()'s first parameter is positional-only precisely so
        # attrs named "name" don't collide with it.
        _exporter(tmp_path)
        with obs.span("campaign", name="demo") as step:
            assert step.attrs["name"] == "demo"

    def test_store_span_adopts_external_trace_id(self, tmp_path):
        exporter = _exporter(tmp_path)
        with obs.SpanStore().start("serve.event", "req-42", uid=7):
            pass
        (span,) = obs.load_spans(exporter.path)
        assert span["trace_id"] == "req-42"
        assert span["parent_id"] is None
        assert span["attrs"]["uid"] == 7

    def test_update_attributes(self, tmp_path):
        exporter = _exporter(tmp_path)
        with obs.span("work") as step:
            step.update_attributes({"a": 1, "b": 2})
        (span,) = obs.load_spans(exporter.path)
        assert span["attrs"] == {"a": 1, "b": 2}


class TestExporter:
    def test_truncates_on_open(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("stale\n")
        obs.JsonlSpanExporter(str(path))
        assert path.read_text() == ""

    def test_lines_are_valid_json(self, tmp_path):
        exporter = _exporter(tmp_path)
        with obs.span("a", value=1.5):
            pass
        for line in open(exporter.path):
            record = json.loads(line)
            assert {"name", "trace_id", "span_id", "parent_id",
                    "start", "duration", "wall_start",
                    "attrs"} <= set(record)

    def test_iter_trace_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a"}\n\n{"name": "b"}\n')
        names = [s["name"] for s in obs.iter_trace_file(str(path))]
        assert names == ["a", "b"]


class TestDecorators:
    def test_trace_step_wraps_in_span(self, tmp_path):
        exporter = _exporter(tmp_path)

        @obs.trace_step("compute")
        def compute(x):
            return x + 1

        assert compute(1) == 2
        (span,) = obs.load_spans(exporter.path)
        assert span["name"] == "compute"

    def test_profile_step_without_env_is_plain_span(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        exporter = _exporter(tmp_path)

        @obs.profile_step("compute")
        def compute(x):
            return x + 1

        assert compute(1) == 2
        (span,) = obs.load_spans(exporter.path)
        assert "profile" not in span["attrs"]

    def test_maybe_profile_attaches_to_enclosing_span(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        exporter = _exporter(tmp_path)
        with obs.span("stage") as stage:
            with obs.maybe_profile(stage):
                sum(range(100))
        (span,) = obs.load_spans(exporter.path)
        assert isinstance(span["attrs"]["profile"], list)

    def test_maybe_profile_noop_without_env(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        exporter = _exporter(tmp_path)
        with obs.span("stage") as stage:
            with obs.maybe_profile(stage):
                pass
        (span,) = obs.load_spans(exporter.path)
        assert "profile" not in span["attrs"]

    def test_profile_step_attaches_cprofile(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        exporter = _exporter(tmp_path)

        @obs.profile_step("compute")
        def compute(n):
            return sum(range(n))

        assert compute(1000) == sum(range(1000))
        (span,) = obs.load_spans(exporter.path)
        profile = span["attrs"]["profile"]
        assert isinstance(profile, list) and profile
        assert any("cumulative" in line or "cumtime" in line
                   for line in profile)


class TestReport:
    def test_renders_tree_and_self_time(self, tmp_path):
        exporter = _exporter(tmp_path)
        with obs.span("outer", items=3):
            with obs.span("inner"):
                pass
        report = obs.render_report(obs.load_spans(exporter.path))
        lines = report.splitlines()
        outer_line = next(line for line in lines
                          if line.lstrip().startswith("outer"))
        inner_line = next(line for line in lines
                          if line.lstrip().startswith("inner"))
        indent = len(outer_line) - len(outer_line.lstrip())
        assert len(inner_line) - len(inner_line.lstrip()) > indent
        assert "items=3" in report
        assert "ms" in report
        assert "by self time" in report

    def test_empty_trace(self):
        assert "no spans" in obs.render_report([])

    def test_top_limits_table(self, tmp_path):
        exporter = _exporter(tmp_path)
        for index in range(5):
            with obs.span(f"work{index}"):
                pass
        report = obs.render_report(
            obs.load_spans(exporter.path), top=2)
        assert "top 2 spans" in report

    def test_orphan_parent_renders_as_root(self):
        spans = [{
            "name": "lonely", "trace_id": "t", "span_id": "s1",
            "parent_id": "missing", "start": 0.0, "duration": 0.5,
            "attrs": {},
        }]
        report = obs.render_report(spans)
        assert "lonely" in report

    def test_profile_section_rendered(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        exporter = _exporter(tmp_path)

        @obs.profile_step("hot")
        def hot():
            return sum(range(100))

        hot()
        report = obs.render_report(obs.load_spans(exporter.path))
        assert "profile for hot" in report
        assert "profile=<attached>" in report
