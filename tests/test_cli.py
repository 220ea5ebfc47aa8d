"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for command in ("fig4a", "fig4b", "fig4c", "fig4d",
                        "ablate-refinement", "ablate-solver",
                        "validate-sim", "scalability",
                        "ablate-heuristics", "ablate-holistic",
                        "sensitivity"):
            args = parser.parse_args(
                [command] if command != "scalability" else [command])
            assert args.command == command

    def test_chart_flag(self):
        args = build_parser().parse_args(["fig4b", "--chart"])
        assert args.chart

    def test_sensitivity_axis(self):
        args = build_parser().parse_args(
            ["sensitivity", "--axis", "stages"])
        assert args.axis == "stages"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sensitivity", "--axis", "bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_options(self):
        args = build_parser().parse_args(
            ["fig4a", "--cases", "3", "--stacked",
             "--opt-backend", "cp"])
        assert args.cases == 3
        assert args.stacked
        assert args.opt_backend == "cp"

    def test_jobs_flag_on_every_command(self):
        parser = build_parser()
        for command in ("fig4a", "fig4b", "fig4c", "fig4d",
                        "ablate-refinement", "ablate-solver",
                        "validate-sim", "scalability",
                        "ablate-heuristics", "ablate-holistic",
                        "sensitivity", "online"):
            args = parser.parse_args([command, "--jobs", "4"])
            assert args.jobs == 4
            assert parser.parse_args([command]).jobs is None

    def test_seed0_uses_none_sentinel(self):
        """An explicit `--seed0 0` must behave exactly like the
        default (the old truthiness check silently dropped it)."""
        parser = build_parser()
        assert parser.parse_args(["fig4a"]).seed0 is None
        assert parser.parse_args(["fig4a", "--seed0", "0"]).seed0 == 0
        assert parser.parse_args(["fig4a", "--seed0", "7"]).seed0 == 7

    def test_online_parser_options(self):
        parser = build_parser()
        args = parser.parse_args(["online"])
        assert args.stream == "poisson"
        assert args.mode == "incremental"
        args = parser.parse_args(
            ["online", "--stream", "mmpp", "--horizon", "50",
             "--rate", "0.4", "--cases", "2", "--jobs", "2",
             "--policy", "edge", "--mode", "cold", "--validate", "3"])
        assert args.stream == "mmpp"
        assert args.horizon == 50.0
        assert args.rate == 0.4
        assert args.mode == "cold"
        assert args.validate == 3
        with pytest.raises(SystemExit):
            parser.parse_args(["online", "--stream", "bogus"])
        # 0 is meaningful (queue disabled); negatives are not.
        args = parser.parse_args(["online", "--retry-limit", "0"])
        assert args.retry_limit == 0
        with pytest.raises(SystemExit):
            parser.parse_args(["online", "--retry-limit", "-1"])

    def test_scalability_sizes(self):
        args = build_parser().parse_args(
            ["scalability", "--sizes", "8", "16", "--jobs", "2"])
        assert args.sizes == [8, 16]
        assert args.jobs == 2


class TestMain:
    def test_fig4a_tiny_run(self, capsys, monkeypatch):
        # Shrink the workload via environment-independent override:
        # use very few cases with default workload but a beta grid of
        # one value would still be slow at n=100; patch the default
        # base config instead.
        from repro.experiments import config as config_module
        from repro.workload.edge import EdgeWorkloadConfig
        monkeypatch.setattr(
            config_module.ExperimentConfig, "from_environment",
            classmethod(lambda cls: cls(
                cases=2,
                base=EdgeWorkloadConfig(num_jobs=10, num_aps=4,
                                        num_servers=3))))
        exit_code = main(["fig4a", "--cases", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Acceptance ratio" in captured.out
        assert "OPDCA" in captured.out

    def test_scalability_tiny_run(self, capsys):
        exit_code = main(["scalability", "--sizes", "8", "--cases", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "A4 scalability" in captured.out
        assert "speedup(bounds)" in captured.out

    def test_fig4a_chart_output(self, capsys, monkeypatch):
        from repro.experiments import config as config_module
        from repro.workload.edge import EdgeWorkloadConfig
        monkeypatch.setattr(
            config_module.ExperimentConfig, "from_environment",
            classmethod(lambda cls: cls(
                cases=2,
                base=EdgeWorkloadConfig(num_jobs=10, num_aps=4,
                                        num_servers=3))))
        exit_code = main(["fig4a", "--cases", "2", "--chart"])
        captured = capsys.readouterr()
        assert exit_code == 0
        # The chart legend names the stacked series.
        assert "+OPT" in captured.out
        assert "|" in captured.out

    def test_ablate_holistic_tiny_run(self, capsys, monkeypatch):
        from repro.experiments import ablation as ablation_module
        from repro.workload.edge import EdgeWorkloadConfig

        original = ablation_module.holistic_comparison

        def patched(**kwargs):
            kwargs["config"] = EdgeWorkloadConfig(
                num_jobs=10, num_aps=4, num_servers=3)
            return original(**kwargs)

        monkeypatch.setattr("repro.cli.holistic_comparison", patched)
        exit_code = main(["ablate-holistic", "--cases", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "A7 holistic vs DCA" in captured.out

    def test_sensitivity_jobs_tiny_run(self, capsys, monkeypatch):
        from repro.experiments import sensitivity as sens_module
        from repro.workload.edge import EdgeWorkloadConfig

        original = sens_module.gap_vs_jobs

        def patched(**kwargs):
            kwargs.setdefault("base", EdgeWorkloadConfig(
                num_jobs=8, num_aps=3, num_servers=3, gamma=0.9))
            kwargs.setdefault("job_counts", (6, 8))
            return original(**kwargs)

        monkeypatch.setattr(
            "repro.experiments.sensitivity.gap_vs_jobs", patched)
        exit_code = main(["sensitivity", "--cases", "2",
                          "--axis", "jobs"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "S1 gap vs jobs" in captured.out
        assert "gap(OPT-OPDCA)" in captured.out


class TestSeed0Override:
    def test_explicit_zero_resolves_like_default(self):
        """`--seed0 0` must reach the experiment config exactly like
        the default (the old truthiness check silently dropped it),
        and a non-zero override must land unchanged."""
        from repro.cli import _experiment_config, _seed0

        parser = build_parser()
        default = parser.parse_args(["fig4a", "--cases", "2"])
        explicit = parser.parse_args(
            ["fig4a", "--cases", "2", "--seed0", "0"])
        shifted = parser.parse_args(
            ["fig4a", "--cases", "2", "--seed0", "17"])
        assert _experiment_config(default).seed0 == 0
        assert _experiment_config(explicit).seed0 == 0
        assert _experiment_config(shifted).seed0 == 17
        # The ablation/sensitivity call sites resolve via _seed0.
        assert _seed0(default) == 0
        assert _seed0(explicit) == 0
        assert _seed0(shifted) == 17

    def test_negative_seed0_still_accepted(self):
        args = build_parser().parse_args(["fig4b", "--seed0", "-3"])
        from repro.cli import _seed0

        assert _seed0(args) == -3


class TestOnlineCommand:
    @staticmethod
    def _deterministic_columns(output: str) -> "list[tuple]":
        """Per-seed table cells excluding the wall-clock columns."""
        rows = []
        for line in output.splitlines():
            cells = line.split()
            if cells and cells[0].isdigit():
                rows.append(tuple(cells[:-2]))  # drop p99 ms + ev/s
        return rows

    def test_end_to_end_serial_and_sharded(self, capsys):
        argv = ["online", "--stream", "poisson", "--horizon", "60",
                "--rate", "0.2", "--cases", "2"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert "online admission" in serial
        assert "accept%" in serial
        assert main(argv + ["--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        rows = self._deterministic_columns(serial)
        assert len(rows) == 2
        assert rows == self._deterministic_columns(sharded)

    def test_series_and_validate(self, capsys):
        assert main(["online", "--horizon", "40", "--rate", "0.2",
                     "--cases", "1", "--series",
                     "--validate", "1"]) == 0
        out = capsys.readouterr().out
        assert "per-event series" in out
        assert "arrive" in out

    def test_replay_round_trip(self, capsys, tmp_path):
        from repro.online import StreamConfig, generate_stream, save_stream

        stream = generate_stream(
            StreamConfig(horizon=40.0, rate=0.2), seed=0)
        path = tmp_path / "trace.jsonl"
        save_stream(stream, path)
        assert main(["online", "--stream", "replay",
                     "--replay-file", str(path), "--cases", "3"]) == 0
        out = capsys.readouterr().out
        assert "running 1 case" in out

    def test_replay_requires_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["online", "--stream", "replay"])
        assert "--replay-file" in capsys.readouterr().err

    def test_store_caching(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["online", "--horizon", "50", "--rate", "0.2",
                "--cases", "2", "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "misses=2" in cold and "writes=2" in cold
        assert main(argv + ["--resume"]) == 0
        warm = capsys.readouterr().out
        assert "hits=2" in warm and "misses=0" in warm


class TestArgumentValidation:
    """--jobs/--sizes/--cases must fail fast with a clear argparse
    error instead of an opaque ProcessPoolExecutor traceback."""

    @pytest.mark.parametrize("value", ["0", "-1", "-8", "two"])
    def test_jobs_rejected_on_every_command(self, value, capsys):
        for command in ("fig4a", "scalability", "sensitivity"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--jobs", value])
            error = capsys.readouterr().err
            assert "positive integer" in error or \
                "expected an integer" in error

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_sizes_rejected(self, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scalability", "--sizes",
                                       "25", value])

    def test_cases_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4a", "--cases", "0"])

    def test_valid_values_still_accepted(self):
        args = build_parser().parse_args(
            ["scalability", "--sizes", "8", "16", "--jobs", "2"])
        assert args.sizes == [8, 16]
        assert args.jobs == 2


@pytest.fixture
def tiny_environment(monkeypatch):
    """Pin ExperimentConfig.from_environment to a tiny workload so
    cache-flag end-to-end runs finish in milliseconds."""
    from repro.experiments import config as config_module
    from repro.workload.edge import EdgeWorkloadConfig
    monkeypatch.setattr(
        config_module.ExperimentConfig, "from_environment",
        classmethod(lambda cls: cls(
            cases=2,
            base=EdgeWorkloadConfig(num_jobs=10, num_aps=4,
                                    num_servers=3))))


class TestCacheFlags:
    def test_cache_flags_on_every_command(self):
        parser = build_parser()
        for command in ("fig4a", "fig4b", "fig4c", "fig4d",
                        "ablate-refinement", "ablate-solver",
                        "validate-sim", "scalability",
                        "ablate-heuristics", "ablate-holistic",
                        "sensitivity"):
            args = parser.parse_args([command, "--cache-dir", "/x",
                                      "--no-cache"])
            assert args.cache_dir == "/x"
            assert args.no_cache
            assert not parser.parse_args([command]).resume

    def test_resume_requires_cache_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["fig4a", "--resume"])
        assert "--resume requires --cache-dir" in \
            capsys.readouterr().err

    def test_resume_requires_existing_store(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig4a", "--resume",
                  "--cache-dir", str(tmp_path / "nope")])
        assert "no result store" in capsys.readouterr().err

    def test_resume_with_no_cache_is_contradictory(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig4a", "--resume", "--no-cache"])
        assert "contradictory" in capsys.readouterr().err

    def test_cold_then_warm_run_end_to_end(self, capsys, tmp_path,
                                           tiny_environment):
        """The CI warm-store contract: a second run over the same
        cache dir evaluates nothing and says so (misses=0)."""
        cache = str(tmp_path / "cache")
        assert main(["fig4a", "--cases", "2",
                     "--cache-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert "misses=8" in cold and "writes=8" in cold
        assert main(["fig4a", "--cases", "2", "--resume",
                     "--cache-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "hits=8" in warm and "misses=0" in warm
        # Identical tables modulo the cache/timing footer.
        table = "Acceptance ratio vs heaviness threshold"
        assert table in cold and table in warm
        assert cold.split("[cache]")[0] == warm.split("[cache]")[0]

    def test_no_cache_overrides_environment(self, capsys, monkeypatch,
                                            tmp_path,
                                            tiny_environment):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert main(["fig4a", "--cases", "2", "--no-cache"]) == 0
        assert "[cache]" not in capsys.readouterr().out
        assert not (tmp_path / "env").exists()

    def test_scalability_never_caches(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["scalability", "--sizes", "8", "--cases", "1",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "never cached" in out
        # The store must not even be created as a side effect.
        assert not (tmp_path / "cache").exists()


class TestStoreSubcommand:
    def _seed_store(self, capsys, cache):
        assert main(["fig4a", "--cases", "2",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()

    def test_stats_gc_export(self, capsys, tmp_path,
                             tiny_environment):
        cache = str(tmp_path / "cache")
        self._seed_store(capsys, cache)

        assert main(["store", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries:  8" in out and "case=8" in out

        assert main(["store", "gc", "--cache-dir", cache]) == 0
        assert "kept 8 records" in capsys.readouterr().out

        output = str(tmp_path / "dump.jsonl")
        assert main(["store", "export", "--cache-dir", cache,
                     "--output", output]) == 0
        assert "exported 8 records" in capsys.readouterr().out
        import json
        lines = open(output).read().splitlines()
        assert len(lines) == 8
        assert all(json.loads(line)["kind"] == "case"
                   for line in lines)

    def test_missing_store_is_a_clean_error(self, capsys, tmp_path):
        exit_code = main(["store", "stats",
                          "--cache-dir", str(tmp_path / "nope")])
        assert exit_code == 1
        assert "no result store" in capsys.readouterr().err

    def test_store_needs_cache_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["store", "stats"])
        assert "need --cache-dir" in capsys.readouterr().err


class TestOpdcaCommand:
    def test_parser_options(self):
        parser = build_parser()
        args = parser.parse_args(["opdca"])
        assert args.command == "opdca"
        assert args.kernel == "paired"
        args = parser.parse_args(
            ["opdca", "--size", "10", "--cases", "3", "--generator",
             "edge", "--policy", "nonpreemptive", "--kernel",
             "reference"])
        assert args.size == 10
        assert args.kernel == "reference"
        with pytest.raises(SystemExit):
            parser.parse_args(["opdca", "--kernel", "fast"])

    def test_end_to_end_kernel_independent(self, capsys):
        argv = ["opdca", "--size", "8", "--cases", "2"]
        assert main(argv) == 0
        paired = capsys.readouterr().out
        assert "OPDCA admission" in paired
        assert main(argv + ["--kernel", "reference"]) == 0
        reference = capsys.readouterr().out

        def ratios(output):
            return [line.split()[1:4]
                    for line in output.splitlines()
                    if line.split() and line.split()[0].isdigit()]

        # decisions are kernel-independent by construction
        assert ratios(paired) == ratios(reference)


class TestShardsAndKernelFlags:
    def test_online_parser_accepts_shards_and_kernel(self):
        parser = build_parser()
        args = parser.parse_args(
            ["online", "--shards", "2", "--kernel", "reference"])
        assert args.shards == 2
        assert args.kernel == "reference"
        with pytest.raises(SystemExit):
            parser.parse_args(["online", "--shards", "0"])
        with pytest.raises(SystemExit):
            parser.parse_args(["online", "--kernel", "fast"])

    @pytest.mark.parametrize("argv", [
        ["online", "--kernel", "auto"],
        ["opdca", "--kernel", "auto"],
        ["campaign", "run", "spec.json", "--kernel", "auto"],
    ], ids=["online", "opdca", "campaign-run"])
    def test_kernel_auto_rejected(self, argv, capsys):
        for kernel in ("auto", "compiled"):
            with pytest.raises(SystemExit) as exit_info:
                main([*argv[:-1], kernel])
            assert exit_info.value.code == 2
            error = capsys.readouterr().err
            assert f"invalid choice: '{kernel}'" in error
            assert "'paired', 'reference')" in error

    def test_online_sharded_end_to_end(self, capsys):
        argv = ["online", "--stream", "poisson", "--horizon", "40",
                "--rate", "0.3", "--cases", "1", "--shards", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out

    def test_online_too_many_shards_is_a_clean_error(self, capsys):
        argv = ["online", "--stream", "poisson", "--horizon", "30",
                "--cases", "1", "--shards", "512"]
        with pytest.raises(SystemExit):
            main(argv)
        assert "shards" in capsys.readouterr().err

    def test_campaign_run_kernel_override(self, tmp_path, capsys):
        import json

        spec = {
            "format": "repro-campaign",
            "name": "kernel-smoke",
            "axes": {"family": ["poisson"], "seed": [0]},
            "approaches": ["dm"],
            "horizon": 20.0,
            "rate": 0.3,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["campaign", "run", str(path),
                     "--kernel", "reference"]) == 0
        out = capsys.readouterr().out
        assert "kernel" in out.lower()


class TestTraceFlag:
    def test_online_trace_writes_spans(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["online", "--horizon", "40", "--rate", "0.2",
                     "--cases", "1", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "spans written to" in out
        from repro import obs

        spans = obs.load_spans(str(trace))
        names = {span["name"] for span in spans}
        assert "online.scenario" in names
        assert "online.engine.run" in names
        scenario = next(s for s in spans
                        if s["name"] == "online.scenario")
        assert "kernel_cache_misses" in scenario["attrs"]
        assert not obs.tracing_enabled()  # reset after the command

    def test_trace_forces_serial_execution(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["online", "--horizon", "40", "--rate", "0.2",
                     "--cases", "2", "--jobs", "2",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "forcing --jobs 1" in out
        from repro import obs

        assert len(obs.load_spans(str(trace))) > 0

    def test_opdca_trace_has_case_spans(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["opdca", "--size", "4", "--cases", "2",
                     "--trace", str(trace)]) == 0
        from repro import obs

        cases = [s for s in obs.load_spans(str(trace))
                 if s["name"] == "opdca.case"]
        assert len(cases) == 2
        assert all("kernel_cache_hits" in c["attrs"] for c in cases)


class TestObsReportCommand:
    def test_renders_trace_tree(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["online", "--horizon", "40", "--rate", "0.2",
                     "--cases", "1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "online.scenario" in out
        assert "by self time" in out
        assert "ms" in out

    def test_top_flag(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["online", "--horizon", "40", "--rate", "0.2",
                     "--cases", "1", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace), "--top", "3"]) == 0
        assert "top 3 spans" in capsys.readouterr().out

    def test_missing_file_exits_nonzero(self, capsys, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert main(["obs", "report", str(missing)]) == 1
        assert "nope.jsonl" in capsys.readouterr().err

    def test_malformed_file_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["obs", "report", str(bad)]) == 1
        assert capsys.readouterr().err
