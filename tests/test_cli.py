"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses(self):
        args = build_parser().parse_args(["run", "example2", "--fast"])
        assert args.experiment == "example2" and args.fast

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope"])

    def test_hit_duration_json(self):
        args = build_parser().parse_args(
            ["hit", "--length", "120", "--streams", "30", "--buffer", "90",
             "--duration", '{"family": "exponential", "mean": 5}'],
        )
        assert args.duration == {"family": "exponential", "mean": 5}


class TestBackendSelection:
    def test_unknown_backend_flag_exits_2(self, capsys):
        assert main(["--backend", "stdlib", "list"]) == 2
        err = capsys.readouterr().err
        assert "'stdlib'" in err and "numpy" in err and "scalar" in err

    def test_unknown_backend_env_exits_2(self, monkeypatch, capsys):
        from repro.numerics import backend

        monkeypatch.setenv("REPRO_BACKEND", "stdlib")
        monkeypatch.setattr(backend, "_active", None)
        assert main(["list"]) == 2
        err = capsys.readouterr().err
        assert "'stdlib'" in err and "numpy" in err and "scalar" in err

    def test_backend_flag_overrides_env(self, monkeypatch):
        from repro.numerics import backend

        monkeypatch.setenv("REPRO_BACKEND", "stdlib")
        monkeypatch.setattr(backend, "_active", None)
        assert main(["--backend", "scalar", "list"]) == 0
        assert backend.active_backend() == "scalar"

    def test_help_names_numpy_default(self):
        text = build_parser().format_help()
        assert "{numpy,scalar}" in text and "default: numpy" in text


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure7a" in out and "example1" in out

    def test_hit_output(self, capsys):
        code = main(
            ["hit", "--length", "120", "--streams", "30", "--buffer", "90"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P(hit|FF)" in out and "P(hit)" in out

    def test_hit_with_custom_mix(self, capsys):
        main(
            ["hit", "--length", "120", "--streams", "30", "--buffer", "90",
             "--p-ff", "1.0", "--p-rw", "0.0", "--p-pause", "0.0"]
        )
        out = capsys.readouterr().out
        assert "mix 1.0/0.0/0.0" in out

    def test_size_output(self, capsys):
        code = main(
            ["size", "--length", "60", "--wait", "0.5",
             "--duration", '{"family": "exponential", "mean": 5}']
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n*=" in out and "pure batching would need 120" in out

    def test_run_example2_with_csv(self, tmp_path, capsys):
        code = main(["run", "example2", "--fast", "--csv", str(tmp_path)])
        assert code == 0
        csv_files = sorted(tmp_path.glob("example2_*.csv"))
        assert len(csv_files) == 2
        assert "C_b" in csv_files[0].read_text()


class TestPlanCommand:
    def test_plan_from_spec(self, tmp_path, capsys):
        spec = {
            "movies": [
                {
                    "name": "a", "length": 60, "wait": 1.0, "p_star": 0.5,
                    "duration": {"family": "exponential", "mean": 5},
                    "arrival_rate": 0.3,
                },
                {
                    "name": "b", "length": 90, "wait": 2.0, "p_star": 0.5,
                    "duration": {"family": "exponential", "mean": 3},
                },
            ]
        }
        path = tmp_path / "plan.json"
        import json

        path.write_text(json.dumps(spec))
        assert main(["plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "VCR reserve for a" in out
        assert "total provisioning" in out
        # Movie b has no arrival rate: no reserve line for it.
        assert "VCR reserve for b" not in out

    def test_plan_rejects_empty_spec(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"movies": []}')
        assert main(["plan", str(path)]) == 2


class TestFitCommand:
    def test_fit_trace(self, tmp_path, capsys):
        from repro.vod.vcr import VCRBehavior
        from repro.workloads.generator import WorkloadGenerator

        generator = WorkloadGenerator.single_movie(
            90.0, VCRBehavior.paper_figure7(), arrival_rate=0.5, seed=6
        )
        trace_path = tmp_path / "trace.jsonl"
        generator.generate(500.0).save(trace_path)
        assert main(["fit", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "TraceStatistics" in out
        assert "FittedBehavior" in out
        assert "censoring-corrected" in out


class TestSimulateCommand:
    def test_simulate_from_spec(self, tmp_path, capsys):
        import json

        spec = {
            "movies": [
                {
                    "name": "a", "length": 60, "wait": 2.0, "p_star": 0.5,
                    "duration": {"family": "exponential", "mean": 5},
                    "popularity": 2.0,
                },
                {
                    "name": "b", "length": 90, "wait": 3.0, "p_star": 0.5,
                    "duration": {"family": "exponential", "mean": 5},
                },
            ]
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec))
        code = main(
            ["simulate", str(path), "--arrival-rate", "0.8",
             "--horizon", "500", "--warmup", "100", "--headroom", "15"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sized allocation" in out
        assert "simulated outcome" in out
        assert "resume hit rate" in out

    def test_simulate_rejects_empty_spec(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text('{"movies": []}')
        assert main(["simulate", str(path)]) == 2


class TestRuntimeCommand:
    def test_runtime_parses(self):
        args = build_parser().parse_args(
            ["runtime", "--trace", "t.jsonl", "--tick", "15"]
        )
        assert args.command == "runtime"
        assert args.tick == 15.0

    def test_runtime_replays_a_trace(self, tmp_path, capsys):
        from repro.vod.vcr import VCRBehavior
        from repro.workloads.generator import WorkloadGenerator

        generator = WorkloadGenerator.single_movie(
            90.0, VCRBehavior.paper_figure7(), arrival_rate=0.5, seed=6
        )
        trace_path = tmp_path / "trace.jsonl"
        generator.generate(600.0).save(trace_path)
        code = main(
            ["runtime", "--trace", str(trace_path), "--tick", "60",
             "--stream-budget", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "replaying" in out
        assert "bootstrap" in out           # the first delta deploys a plan
        assert "control summary" in out
        assert "deltas_emitted=" in out
        assert "cache[models]" in out and "hit_rate=" in out

    def test_runtime_rejects_empty_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "empty.jsonl"
        trace_path.write_text("")
        assert main(["runtime", "--trace", str(trace_path)]) == 2

    def test_runtime_rejects_missing_trace(self, tmp_path, capsys):
        code = main(["runtime", "--trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_runtime_rejects_bad_tick(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        trace_path.write_text("")
        assert main(["runtime", "--trace", str(trace_path), "--tick", "0"]) == 2

    def test_runtime_rejects_malformed_json_line(self, tmp_path, capsys):
        trace_path = tmp_path / "bad.jsonl"
        trace_path.write_text(
            '{"session_id": 1, "arrival_minutes": 0.0, "movie_id": 0, '
            '"movie_length": 90.0}\n'
            "{not json at all\n"
        )
        assert main(["runtime", "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err
        assert "line 2" in err

    def test_runtime_rejects_malformed_record(self, tmp_path, capsys):
        # Valid JSON, but not a session record (missing required fields).
        trace_path = tmp_path / "bad.jsonl"
        trace_path.write_text('{"session_id": 1}\n')
        assert main(["runtime", "--trace", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err
        assert "line 1" in err


class TestFitTraceErrors:
    def test_fit_rejects_missing_trace(self, tmp_path, capsys):
        assert main(["fit", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_fit_rejects_malformed_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "bad.jsonl"
        trace_path.write_text("}{\n")
        assert main(["fit", str(trace_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid trace" in err and "line 1" in err


class TestRunWorkers:
    def test_workers_flag_parses(self):
        args = build_parser().parse_args(["run", "figure8", "--workers", "2"])
        assert args.workers == 2

    def test_run_with_workers_prints_telemetry(self, tmp_path, capsys):
        code = main(
            ["run", "figure8", "--fast", "--workers", "2",
             "--csv", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "parallel:" in out
        assert "3 tasks over" in out
        assert sorted(tmp_path.glob("figure8_*.csv"))

    def test_run_serial_prints_no_telemetry(self, capsys):
        assert main(["run", "figure8", "--fast"]) == 0
        assert "parallel:" not in capsys.readouterr().out


class TestShippedSpecs:
    def test_example1_spec_plans(self, capsys):
        from pathlib import Path

        spec = Path(__file__).resolve().parent.parent / "examples" / "specs" / "example1.json"
        assert spec.exists()
        assert main(["plan", str(spec), "--stream-budget", "1230"]) == 0
        out = capsys.readouterr().out
        assert "movie1" in out and "movie3" in out
        assert "VCR reserve for movie1" in out
