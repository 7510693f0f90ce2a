"""Unit tests for the command-line interface."""

import json
import re

import pytest

from repro.circuits.library import S27_BENCH
from repro.cli import _stimulus_spec, build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults_match_paper(self):
        args = build_parser().parse_args(["estimate", "s27"])
        assert args.alpha == pytest.approx(0.20)
        assert args.max_error == pytest.approx(0.05)
        assert args.confidence == pytest.approx(0.99)
        assert args.stopping == "order-statistic"

    def test_unknown_stopping_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "s27", "--stopping", "magic"])

    def test_help_lists_canonical_names_only(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--help"])
        text = capsys.readouterr().out
        # Other tests may register extra components, so compare as sets.
        stopping = set(re.search(r"--stopping \{([^}]*)\}", text).group(1).split(","))
        engines = set(re.search(r"--power-simulator \{([^}]*)\}", text).group(1).split(","))
        assert {"clt", "ks", "order-statistic"} <= stopping
        assert {"event-driven", "zero-delay"} <= engines
        assert not stopping & {"order_stat", "kolmogorov-smirnov"}
        assert not engines & {"compiled", "zero-delay-compiled", "event-driven-compiled"}

    @pytest.mark.parametrize(
        "option, alias",
        [
            ("--stopping", "order_stat"),
            ("--stopping", "kolmogorov-smirnov"),
            ("--power-simulator", "compiled"),
            ("--power-simulator", "zero-delay-compiled"),
            ("--power-simulator", "event-driven-compiled"),
        ],
    )
    def test_aliases_still_parse(self, option, alias):
        args = build_parser().parse_args(["estimate", "s27", option, alias])
        assert getattr(args, option[2:].replace("-", "_")) == alias

    def test_input_probability_shared_across_verbs(self):
        for verb in (["estimate", "s27"], ["table1"], ["table2"], ["figure3"]):
            args = build_parser().parse_args([*verb, "--input-probability", "0.3"])
            assert args.input_probability == pytest.approx(0.3)

    def test_batch_verb_parses(self):
        args = build_parser().parse_args(["batch", "jobs.json", "--workers", "3", "--json"])
        assert args.jobs_file == "jobs.json"
        assert args.workers == 3
        assert args.json


class TestCommands:
    def test_circuits_listing(self, capsys):
        assert main(["circuits"]) == 0
        output = capsys.readouterr().out
        assert "s27" in output and "s15850" in output

    def test_estimate_registered_circuit(self, capsys):
        exit_code = main(["estimate", "s27", "--seed", "3", "--reference-cycles", "5000"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "average power" in output
        assert "independence interval" in output
        assert "relative error" in output

    def test_estimate_bench_file(self, tmp_path, capsys):
        bench_path = tmp_path / "mini.bench"
        bench_path.write_text(S27_BENCH)
        assert main(["estimate", str(bench_path), "--seed", "4"]) == 0
        assert "average power" in capsys.readouterr().out

    def test_estimate_unknown_circuit_fails(self):
        with pytest.raises(SystemExit, match="unknown circuit"):
            main(["estimate", "not-a-circuit"])

    def test_table1_explicit_circuits(self, capsys):
        exit_code = main(
            ["table1", "s27", "--reference-cycles", "5000", "--seed", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "SIM (mW)" in output and "s27" in output

    def test_figure3_small_sweep(self, capsys):
        exit_code = main(
            [
                "figure3",
                "--circuit",
                "s298",
                "--max-interval",
                "3",
                "--sequence-length",
                "200",
                "--seed",
                "6",
            ]
        )
        assert exit_code == 0
        assert "threshold" in capsys.readouterr().out

    def test_estimate_json_output(self, capsys):
        assert main(["estimate", "s27", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["spec"]["circuit"] == "s27"
        assert payload["result"]["data"]["average_power_w"] > 0

    def test_estimate_with_registered_estimator_kind(self, capsys):
        exit_code = main(
            ["estimate", "s27", "--estimator", "consecutive-mc", "--seed", "3"]
        )
        assert exit_code == 0
        assert "consecutive-mc" in capsys.readouterr().out

    def test_circuits_json_output(self, capsys):
        assert main(["circuits", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["circuit"] == "s27" for entry in payload)

    def test_estimate_progress_streams_events(self, capsys):
        assert main(["estimate", "s27", "--seed", "4", "--progress"]) == 0
        captured = capsys.readouterr()
        kinds = [json.loads(line)["kind"] for line in captured.err.splitlines() if line]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "estimate-completed"


class TestBatchCommand:
    @pytest.fixture()
    def jobs_file(self, tmp_path):
        quick = {
            "randomness_sequence_length": 64,
            "min_samples": 64,
            "check_interval": 32,
            "max_samples": 2000,
            "warmup_cycles": 16,
        }
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                {
                    "jobs": [
                        {"circuit": "s27", "seed": 11, "label": "cli:s27", "config": quick},
                        {"circuit": "s298", "seed": 12, "label": "cli:s298", "config": quick},
                    ]
                }
            )
        )
        return path

    def test_batch_runs_and_writes_manifest(self, tmp_path, jobs_file, capsys):
        manifest = tmp_path / "out.json"
        exit_code = main(["batch", str(jobs_file), "--workers", "2", "--output", str(manifest)])
        assert exit_code == 0
        assert "cli:s27" in capsys.readouterr().out
        payload = json.loads(manifest.read_text())
        assert payload["num_jobs"] == 2 and payload["num_errors"] == 0
        assert payload["jobs"][0]["result"]["data"]["average_power_w"] > 0

    def test_batch_json_output(self, tmp_path, jobs_file, capsys):
        manifest = tmp_path / "out.json"
        exit_code = main(["batch", str(jobs_file), "--output", str(manifest), "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro-batch-manifest/v1"

    def test_batch_failing_job_sets_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad_jobs.json"
        path.write_text(json.dumps([{"circuit": "nope", "seed": 1}]))
        manifest = tmp_path / "out.json"
        assert main(["batch", str(path), "--output", str(manifest)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_batch_failing_job_json_mode_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad_jobs.json"
        path.write_text(json.dumps([{"circuit": "nope", "seed": 1, "label": "doomed"}]))
        manifest = tmp_path / "out.json"
        assert main(["batch", str(path), "--output", str(manifest), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_errors"] == 1
        assert json.loads(manifest.read_text())["num_errors"] == 1

    def test_batch_parallel_failing_job_exits_1(self, tmp_path, jobs_file, capsys):
        jobs = json.loads(jobs_file.read_text())["jobs"]
        jobs.append({"circuit": "nope", "seed": 3, "label": "doomed"})
        path = tmp_path / "mixed_jobs.json"
        path.write_text(json.dumps({"jobs": jobs}))
        manifest = tmp_path / "out.json"
        assert main(["batch", str(path), "--workers", "2", "--output", str(manifest)]) == 1
        payload = json.loads(manifest.read_text())
        assert payload["num_errors"] == 1
        good = [job for job in payload["jobs"] if job["status"] == "ok"]
        assert len(good) == 2  # the failure does not take down its siblings

    def test_batch_missing_file_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot load jobs"):
            main(["batch", str(tmp_path / "missing.json")])

    def test_batch_typoed_config_key_reports_cleanly(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps([{"circuit": "s27", "config": {"max_sample": 2000}}]))
        with pytest.raises(SystemExit, match="job #0 is invalid"):
            main(["batch", str(path)])

    def test_estimate_figure3_profile_kind_emits_json(self, capsys):
        exit_code = main(
            [
                "estimate",
                "s27",
                "--estimator",
                "figure3-profile",
                "--params",
                '{"max_interval": 2, "sequence_length": 100}',
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["result"]["type"] == "figure3-profile"

    def test_estimate_params_forwarded(self, capsys):
        exit_code = main(
            [
                "estimate",
                "s27",
                "--estimator",
                "fixed-warmup",
                "--params",
                '{"warmup_period": 7}',
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        assert "independence interval : 7 cycles" in capsys.readouterr().out


class TestShardedEstimate:
    def test_workers_and_delay_model_parse(self):
        args = build_parser().parse_args(
            ["estimate", "s27", "--workers", "2", "--delay-model", "unit"]
        )
        assert args.workers == 2
        assert args.delay_model == "unit"

    def test_unknown_delay_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "s27", "--delay-model", "magic"])

    def test_estimate_with_workers_matches_serial(self, capsys):
        common = ["estimate", "s27", "--seed", "6", "--chains", "64", "--json"]
        assert main(common) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main([*common, "--workers", "2"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert sharded["result"]["data"]["average_power_w"] == (
            serial["result"]["data"]["average_power_w"]
        )
        assert sharded["result"]["data"]["sample_size"] == (
            serial["result"]["data"]["sample_size"]
        )
        assert sharded["spec"]["config"]["num_workers"] == 2

    def test_estimate_text_output_reports_workers(self, capsys):
        assert main(["estimate", "s27", "--seed", "6", "--chains", "64",
                     "--workers", "2"]) == 0
        assert "shard workers" in capsys.readouterr().out


class TestCompileVerb:
    def test_compile_text_output(self, capsys):
        assert main(["compile", "s27"]) == 0
        out = capsys.readouterr().out
        assert "cache key" in out
        assert "logic levels" in out
        assert "Quantized delay schedules" in out
        assert "fanout" in out

    def test_compile_json_output(self, capsys):
        assert main(["compile", "s298", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["circuit"] == "s298"
        assert payload["gates"] == 119
        assert sum(payload["gates_per_level"]) == payload["gates"]
        assert set(payload["delay_models"]) == {"zero", "unit", "fanout", "type-table"}
        assert payload["delay_models"]["zero"]["zero_tick_gates"] == payload["gates"]
        assert len(payload["key"]) == 24

    def test_compile_optimize_reports_removals(self, capsys):
        assert main(["compile", "s27", "--optimize", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "optimized" in payload
        assert payload["optimized"]["gates_removed"] >= 0

    def test_compile_selected_delay_models(self, capsys):
        assert main(["compile", "s27", "--delay-models", "unit", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["delay_models"]) == {"unit"}

    def test_compile_unknown_circuit_fails(self):
        with pytest.raises(SystemExit):
            main(["compile", "nope"])


class TestStimulusOption:
    def test_defaults_to_bernoulli(self):
        args = build_parser().parse_args(["estimate", "s27"])
        assert args.stimulus == "bernoulli"
        spec = _stimulus_spec(args)
        assert spec.kind == "bernoulli"
        assert spec.params["probabilities"] == 0.5

    def test_unknown_stimulus_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "s27", "--stimulus", "magic"])

    def test_probability_forwarded_to_probability_kinds(self):
        args = build_parser().parse_args(
            ["estimate", "s27", "--stimulus", "lag-one-markov",
             "--input-probability", "0.3"]
        )
        spec = _stimulus_spec(args)
        assert spec.kind == "lag-one-markov"
        assert spec.params == {"probability": 0.3}

    def test_parameterless_kinds_get_bare_spec(self):
        args = build_parser().parse_args(["estimate", "s27", "--stimulus", "sobol"])
        spec = _stimulus_spec(args)
        assert spec.kind == "sobol"
        assert spec.params == {"probability": 0.5}

    def test_registry_kinds_are_offered(self):
        for kind in ("antithetic", "stratified", "sobol"):
            args = build_parser().parse_args(["estimate", "s27", "--stimulus", kind])
            assert args.stimulus == kind

    def test_estimate_runs_with_variance_stimulus(self, capsys):
        exit_code = main(
            ["estimate", "s27", "--stimulus", "antithetic", "--chains", "8",
             "--seed", "3", "--json", "--reference-cycles", "0"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["stimulus"]["kind"] == "antithetic"
        estimate = payload["result"]["data"]
        assert estimate["stopping_criterion"] == "grouped-order-statistic"
        assert estimate["effective_sample_size"] > 0
