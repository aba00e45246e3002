"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.k == 50
        assert args.repetitions == 1

    def test_sizes_parsing(self):
        args = build_parser().parse_args(["table1", "--sizes", "100,500"])
        assert args.sizes == "100,500"

    def test_select_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", "--method", "magic"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--backend", "distributed"],
            ["select", "--workers", "2"],
            ["workers", "--count", "2"],
            ["select", "--resume", "sweep.ckpt.npz"],
        ],
        ids=[
            "distributed-backend", "select-workers", "workers-command",
            "select-resume",
        ],
    )
    def test_removed_options_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err or "unrecognized arguments" in err

    def test_trace_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["trace"])
        assert info.value.code == 2
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_select_json_flag(self):
        args = build_parser().parse_args(["select", "--json"])
        assert args.json is True
        assert args.cache_dir is None

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8173
        assert args.max_batch_size == 32
        assert args.max_wait_ms == 2.0
        assert args.max_queue == 256
        assert args.no_model is False
        assert args.no_resilience is False

    def test_serve_tuning_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--no-model", "--max-batch-size", "4",
            "--max-wait-ms", "0.5", "--cache-dir", "/tmp/c",
        ])
        assert args.port == 0
        assert args.no_model is True
        assert args.max_batch_size == 4
        assert args.cache_dir == "/tmp/c"

    def test_serve_backend_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "cuda"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "epanechnikov" in out
        assert "tesla-s1070" in out
        assert "cuda-gpu" in out

    def test_select_grid(self, capsys):
        assert main(["select", "--n", "200", "--k", "10"]) == 0
        out = capsys.readouterr().out
        assert "grid-search" in out
        assert "h*" in out

    def test_select_rot_on_other_dgp(self, capsys):
        assert main(["select", "--n", "200", "--method", "rot",
                     "--dgp", "sine"]) == 0
        assert "rule-of-thumb" in capsys.readouterr().out

    def test_select_gpusim_backend(self, capsys):
        assert main(["select", "--n", "150", "--k", "8",
                     "--backend", "gpusim"]) == 0
        assert "gpusim" in capsys.readouterr().out

    def test_select_json_output(self, capsys):
        import json

        assert main(["select", "--n", "120", "--k", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "grid-search"
        assert payload["bandwidth"] > 0
        assert len(payload["scores"]) == payload["n_evaluations"]
        assert payload["resilience"] is None
        assert payload["scale_factor"] > 0

    def test_select_json_includes_resilience_report(self, capsys):
        import json

        assert main([
            "select", "--n", "120", "--k", "6", "--json", "--resilient",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resilience"] is not None
        assert payload["resilience"]["backend_used"] == "numpy"

    def test_select_retry_flags_reach_the_engine(self, capsys):
        import json

        from repro.resilience import FaultInjector, FaultSpec, inject_faults

        argv = ["select", "--n", "120", "--k", "6", "--json"]
        assert main(argv) == 0
        clean = json.loads(capsys.readouterr().out)
        one_nan = FaultInjector(
            [FaultSpec(site="data.block", kind="nan", at=(0,))], seed=0
        )
        with inject_faults(one_nan):
            assert main(argv + ["--max-retries", "0", "--no-fallback"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[REPRO_RETRY_EXHAUSTED] ")
        assert len(err.splitlines()) == 1
        with inject_faults(one_nan):
            assert main(argv + ["--max-retries", "1"]) == 0
        absorbed = json.loads(capsys.readouterr().out)
        assert absorbed["resilience"]["retries"] == 1
        assert absorbed["bandwidth"] == clean["bandwidth"]

    def test_select_impossible_budget_is_one_error_line(self, capsys):
        assert main(["select", "--n", "120", "--k", "6", "--mem-budget", "1KiB"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("[REPRO_MEM_BUDGET] ")
        assert len(captured.err.splitlines()) == 1

    def test_select_cache_dir_warm_rerun(self, tmp_path, capsys):
        import json

        argv = [
            "select", "--n", "120", "--k", "6", "--json",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["bandwidth"] == cold["bandwidth"]
        assert warm["scores"] == cold["scores"]
        assert warm["diagnostics"].get("cache") == "hit"

    @pytest.mark.parametrize(
        ("argv", "span"),
        [
            (["--k", "10"], "fastgrid"),
            (["--method", "bagged", "--subsamples", "2",
              "--subsample-size", "100"], "bagged.subsample[0]"),
        ],
        ids=["grid", "bagged"],
    )
    def test_select_trace_writes_and_prints_the_spans(
        self, tmp_path, capsys, argv, span
    ):
        import json

        path = tmp_path / "trace.json"
        assert main(["select", "--n", "300", *argv, "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "select_bandwidth" in out
        assert span in out
        names = {event["name"] for event in json.loads(path.read_text())["traceEvents"]}
        assert {"select_bandwidth", span} <= names

    def test_select_trace_with_json_prints_only_the_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main([
            "select", "--n", "300", "--method", "bagged", "--subsamples", "2",
            "--subsample-size", "100", "--json", "--trace", str(path),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        spans = {s["name"] for s in payload["diagnostics"]["trace"]["spans"]}
        assert {"select_bandwidth", "bagged.subsample[1]"} <= spans
        assert json.loads(path.read_text())["traceEvents"]

    def test_info_lists_serving_cache(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "serving cache" in out
        assert "memory budget" in out

    def test_table1_tiny(self, capsys):
        code = main([
            "table1", "--sizes", "60,120", "--k", "6",
            "--programs", "sequential-c,cuda-gpu",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "SHAPE REPORT" in out

    def test_table2_tiny(self, capsys):
        code = main([
            "table2", "--sizes", "60,120", "--bandwidths", "5,20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PANEL A" in out and "PANEL B" in out

    def test_fig1_tiny(self, capsys):
        code = main(["fig1", "--sizes", "60,120", "--k", "6"])
        assert code == 0
        assert "FIG. 1" in capsys.readouterr().out

    def test_fig1_output_artifacts(self, tmp_path, capsys):
        code = main([
            "fig1", "--sizes", "60", "--k", "5",
            "--output", str(tmp_path / "figs"),
        ])
        assert code == 0
        assert (tmp_path / "figs" / "figure1_series.csv").exists()
        assert (tmp_path / "figs" / "figure1.json").exists()

    def test_shape_tiny(self, capsys):
        code = main(["shape", "--sizes", "100,400", "--k", "10"])
        out = capsys.readouterr().out
        assert "SHAPE REPORT" in out
        assert code in (0, 1)
