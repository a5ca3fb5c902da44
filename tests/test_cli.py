"""Unit tests for the repro-study command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.telemetry import NULL_METRICS, get_metrics


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_no_args(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"

    def test_csv_parsing(self):
        args = build_parser().parse_args(["fig3", "--models", "convnet, vgg16", "--rates", "0.1,0.5"])
        assert args.models == ("convnet", "vgg16")
        assert args.rates == (0.1, 0.5)

    def test_scale_choices(self):
        args = build_parser().parse_args(["--scale", "small", "table1"])
        assert args.scale == "small"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "table1"])

    def test_panel_requires_fault(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["panel", "--dataset", "gtsrb", "--model", "convnet"])

    def test_panel_fault_choices(self):
        args = build_parser().parse_args(
            ["panel", "--dataset", "gtsrb", "--model", "convnet", "--fault", "removal"]
        )
        assert args.fault == "removal"

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.command == "study"
        assert args.checkpoint is None
        assert not args.resume
        assert args.max_attempts == 2

    def test_study_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["study", "--checkpoint", "out/study.jsonl", "--resume", "--max-attempts", "3"]
        )
        assert args.checkpoint == "out/study.jsonl"
        assert args.resume
        assert args.max_attempts == 3

    def test_verbosity_flags(self):
        assert not build_parser().parse_args(["table1"]).verbose
        assert build_parser().parse_args(["-v", "table1"]).verbose
        assert build_parser().parse_args(["--quiet", "table1"]).quiet
        # Mutually exclusive.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["-v", "-q", "table1"])

    def test_study_telemetry_flags(self):
        args = build_parser().parse_args(["study"])
        assert args.trace is None and not args.progress
        args = build_parser().parse_args(
            ["study", "--trace", "out/trace.jsonl", "--progress"]
        )
        assert args.trace == "out/trace.jsonl"
        assert args.progress

    def test_trace_subcommand(self):
        args = build_parser().parse_args(["trace", "out/trace.jsonl"])
        assert args.command == "trace"
        assert args.file == "out/trace.jsonl"
        assert args.top == 5
        assert not args.strict
        assert args.export_chrome is None
        assert build_parser().parse_args(["trace", "t.jsonl", "--top", "3"]).top == 3
        args = build_parser().parse_args(
            ["trace", "t.jsonl", "--strict", "--export-chrome", "out/chrome.json"]
        )
        assert args.strict
        assert args.export_chrome == "out/chrome.json"

    def test_profile_subcommand(self):
        args = build_parser().parse_args(["profile"])
        assert args.command == "profile"
        assert args.model == "vgg11"
        assert args.batch == 4
        assert args.steps == 30
        assert args.image_shape == ("3", "32", "32")
        args = build_parser().parse_args(
            ["profile", "--model", "convnet", "--image-shape", "1,16,16",
             "--classes", "2", "--steps", "5", "--top", "3"]
        )
        assert args.model == "convnet"
        assert args.image_shape == ("1", "16", "16")
        assert args.classes == 2
        assert args.top == 3

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.model == "convnet"
        assert args.dataset == "gtsrb"
        assert args.technique == "baseline"
        assert args.fault == "none"
        assert args.state is None
        assert args.port == 8777
        assert args.max_batch_size == 8
        assert args.replicas == 1
        assert args.replica_backend == "auto"

    def test_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--dataset", "pneumonia", "--fault", "mislabelling@30%",
            "--state", "model.npz", "--port", "9000",
            "--max-batch-size", "16", "--trace", "out/serve.jsonl",
        ])
        assert args.dataset == "pneumonia"
        assert args.fault == "mislabelling@30%"
        assert args.state == "model.npz"
        assert args.port == 9000
        assert args.max_batch_size == 16
        assert args.trace == "out/serve.jsonl"

    @pytest.mark.parametrize("flag", ["--max-latency-ms", "--serve-workers"])
    def test_serve_has_no_fill_wait_or_worker_flags(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_max_batch_size_is_the_fleet_chunk(self):
        from repro.cli import _serve_settings
        from repro.serve import FleetSettings

        parse = build_parser().parse_args
        fleet = _serve_settings(parse(["serve", "--replicas", "3"]))
        assert isinstance(fleet, FleetSettings)
        assert (fleet.replicas, fleet.chunk) == (3, 8)
        fleet = _serve_settings(parse(["serve", "--replicas", "2", "--max-batch-size", "16"]))
        assert fleet.chunk == 16
        single = _serve_settings(parse(["serve", "--max-batch-size", "16"]))
        assert isinstance(single, FleetSettings)
        assert (single.replicas, single.chunk, single.resolved_backend()) == (1, 16, "thread")
        with pytest.raises(ValueError, match="chunk"):
            _serve_settings(parse(["serve", "--replicas", "2", "--max-batch-size", "0"]))

    def test_serve_fleet_flags_apply_to_one_replica(self):
        from repro.cli import _serve_settings

        single = _serve_settings(build_parser().parse_args([
            "serve", "--max-queue", "4", "--shed-policy", "evict-lowest",
            "--client-rate", "5", "--replica-deadline", "3",
        ]))
        assert single.replicas == 1
        assert (single.max_queue, single.shed_policy) == (4, "evict-lowest")
        assert (single.client_rate, single.replica_deadline_s) == (5.0, 3.0)


class TestMain:
    def test_table1_prints_catalog(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Label Relaxation*" in out
        assert "re-implemented" in out

    def test_motivating_smoke(self, capsys, monkeypatch):
        # Use a fast model/rate at smoke scale to keep the test short.
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        assert main(["motivating", "--model", "convnet", "--rate", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "golden accuracy" in out

    def test_panel_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        code = main(
            [
                "panel",
                "--dataset",
                "pneumonia",
                "--model",
                "convnet",
                "--fault",
                "mislabelling",
                "--rates",
                "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pneumonia, convnet, mislabelling" in out
        assert "30%" in out

    def test_study_resume_requires_checkpoint(self, capsys):
        assert main(["study", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_study_refuses_existing_checkpoint_without_resume(self, tmp_path, capsys):
        path = tmp_path / "study.jsonl"
        path.write_text('{"kind": "header"}\n')
        code = main(["study", "--checkpoint", str(path)])
        assert code == 2
        assert "already exists" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--jobs", "0"],
            ["--cluster", "nonsense"],
            ["--cluster", "127.0.0.1:0", "--jobs", "2"],
        ],
        ids=["jobs-0", "bad-address", "cluster-with-jobs"],
    )
    def test_study_refused_flags_leave_no_checkpoint(self, tmp_path, flags):
        path = tmp_path / "study.jsonl"
        assert main(["study", "--checkpoint", str(path), *flags]) == 2
        assert not path.exists()

    def test_study_checkpoint_and_resume_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        path = tmp_path / "study.jsonl"
        out = tmp_path / "results.json"
        argv = [
            "study",
            "--models", "convnet",
            "--datasets", "pneumonia",
            "--faults", "mislabelling",
            "--rates", "0.3",
            "--techniques", "baseline",
            "--checkpoint", str(path),
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "1 cells ok" in first.out
        assert "1 executed" in first.out
        assert path.exists()
        assert out.exists()

        # Resuming replays the journaled cell without retraining.
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr()
        assert "1 replayed" in second.out
        assert "0 executed" in second.out

    def test_quiet_suppresses_diagnostics(self, capsys):
        assert main(["--quiet", "study", "--resume"]) == 2  # errors still show
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_verbose_prefixes_logger_names(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        argv = [
            "--verbose", "study",
            "--models", "convnet", "--datasets", "pneumonia",
            "--faults", "mislabelling", "--rates", "0.3",
            "--techniques", "baseline",
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "repro.cli: [scale=" in err
        assert "repro.experiments" in err  # debug lines from the executors

    def test_study_trace_and_summarize_roundtrip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        trace = tmp_path / "trace.jsonl"
        argv = [
            "study",
            "--models", "convnet", "--datasets", "pneumonia",
            "--faults", "mislabelling", "--rates", "0.3",
            "--techniques", "baseline",
            "--trace", str(trace),
        ]
        assert main(argv) == 0
        assert get_metrics() is NULL_METRICS
        first = capsys.readouterr()
        assert "tracing to" in first.err
        assert trace.exists()

        assert main(["trace", str(trace)]) == 0
        report = capsys.readouterr().out
        assert "per-phase wall-clock:" in report
        assert "unit" in report and "epoch" in report
        assert "slowest cells:" in report

    def test_trace_command_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_trace_command_strict_rejects_corrupt_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "span_start", "name": "study", "span": "1", "parent": null}\n')
        assert main(["trace", str(path), "--strict"]) == 2
        assert "left open" in capsys.readouterr().err

    def test_trace_command_tolerates_truncated_trace(self, tmp_path, capsys):
        """A killed sweep's trace summarizes with a repair warning, exit 0."""
        path = tmp_path / "truncated.jsonl"
        path.write_text(
            '{"ev": "span_start", "name": "study", "span": "1", "parent": null, '
            '"t": 0.0, "pid": 1}\n'
            '{"ev": "span_start", "name": "unit", "span": "2", "parent": "1", '
            '"t": 0.1, "pid": 1}\n'
            '{"ev": "span_end", "name": "unit", "span": "2", "t": 0.5, '
            '"dur_s": 0.4, "pid": 1, "outcome": "ok"}\n'
            '{"ev": "span_st'  # torn mid-write by the kill
        )
        assert main(["trace", str(path)]) == 0
        captured = capsys.readouterr()
        assert "synthesized span_end" in captured.err
        assert "per-phase wall-clock:" in captured.out
        assert "truncated trace" in captured.out

    def test_trace_command_export_chrome(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"ev": "span_start", "name": "study", "span": "1", "parent": null, '
            '"t": 0.0, "pid": 1, "wall": 100.0}\n'
            '{"ev": "span_end", "name": "study", "span": "1", "t": 0.5, '
            '"dur_s": 0.5, "pid": 1, "outcome": "ok"}\n'
        )
        out = tmp_path / "chrome.json"
        assert main(["trace", str(path), "--export-chrome", str(out)]) == 0
        assert "exported" in capsys.readouterr().err
        trace = json.loads(out.read_text())
        phases = [event["ph"] for event in trace["traceEvents"]]
        assert "B" in phases and "E" in phases

    def test_profile_command_smoke(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        code = main([
            "profile", "--model", "convnet", "--image-shape", "1,12,12",
            "--classes", "2", "--width", "2", "--batch", "2",
            "--steps", "3", "--warmup", "1", "--out", str(out),
        ])
        assert code == 0
        report = capsys.readouterr().out
        assert "profile: convnet" in report
        assert "conv2d" in report
        assert "coverage" in report
        import json

        payload = json.loads(out.read_text())
        assert payload["steps"] == 3
        assert payload["ops"] and payload["ops"][0]["calls"] > 0

    def test_profile_command_unknown_model(self, capsys):
        assert main(["profile", "--model", "transformer9000"]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_bad_state_file(self, tmp_path, capsys):
        code = main(["serve", "--state", str(tmp_path / "missing.npz")])
        assert code == 2
        assert "no such model state file" in capsys.readouterr().err

    def test_serve_invalid_batch_settings(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "1")
        code = main([
            "serve", "--dataset", "pneumonia", "--model", "convnet",
            "--max-batch-size", "0",
        ])
        assert code == 2
        assert "chunk" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--replicas", "0"], "replicas must be >= 1"),
        (["--replicas", "-2"], "replicas must be >= 1"),
        (["--max-queue", "0"], "max_queue must be >= 1"),
    ])
    def test_serve_invalid_fleet_settings_are_exit_2(self, flags, message, capsys):
        # Refused before the re-fit, for one replica as for many.
        from repro.cli import _serve_settings

        argv = ["serve", "--dataset", "pneumonia", *flags]
        with pytest.raises(ValueError, match=message):
            _serve_settings(build_parser().parse_args(argv))
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_serve_end_to_end_smoke(self, capsys, monkeypatch):
        """Train, serve over HTTP, predict, shut down — the whole path."""
        import json
        import threading
        import time
        import urllib.request

        monkeypatch.setenv("REPRO_EPOCHS", "2")
        port = 8797  # fixed test port; the suite runs serially
        codes: dict[str, int] = {}
        thread = threading.Thread(
            target=lambda: codes.update(code=main([
                "serve", "--dataset", "pneumonia", "--model", "convnet",
                "--port", str(port),
            ])),
            daemon=True,
        )
        thread.start()
        url = f"http://127.0.0.1:{port}"
        for _ in range(200):  # wait for train + bind
            try:
                urllib.request.urlopen(url + "/healthz", timeout=1).read()
                break
            except OSError:
                time.sleep(0.25)
        else:
            raise AssertionError("serve endpoint never came up")
        request = urllib.request.Request(
            url + "/predict",
            data=json.dumps({
                "model": "pneumonia/convnet/baseline/none",
                "inputs": [[[0.0] * 16] * 16],  # one grayscale sample
                "return": "labels",
            }).encode(),
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            payload = json.loads(response.read())
        assert payload["count"] == 1
        assert payload["labels"][0] in (0, 1)
        with urllib.request.urlopen(url + "/fleet", timeout=10) as response:
            fleet = json.loads(response.read())
        assert fleet["backend"] == "thread"  # one replica stays in-process
        assert [r["alive"] for r in fleet["replicas"]] == [True]
        shutdown = urllib.request.Request(
            url + "/shutdown", data=b"{}", method="POST"
        )
        urllib.request.urlopen(shutdown, timeout=10).read()
        thread.join(timeout=15)
        assert codes.get("code") == 0

    def test_hardware_faults_parser_defaults(self):
        args = build_parser().parse_args(["hardware-faults"])
        assert args.command == "hardware-faults"
        assert args.techniques == ("baseline", "label_smoothing")
        assert args.hw_types == ("bit_flip",)
        assert args.hw_rates == (1e-4, 1e-3)
        assert args.trials == 3
        assert args.jobs == 1
        assert args.bit is None

    def test_hardware_faults_resume_requires_checkpoint(self, capsys):
        assert main(["hardware-faults", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_hardware_faults_invalid_axis_is_exit_2(self, capsys):
        assert main(["hardware-faults", "--hw-types", "gamma_ray"]) == 2
        assert "error" in capsys.readouterr().err

    def test_hardware_faults_smoke(self, tmp_path, capsys, monkeypatch):
        """A tiny cross-axis campaign end to end, with the JSON artifact."""
        import json

        monkeypatch.setenv("REPRO_EPOCHS", "2")
        out = tmp_path / "BENCH_hardware_faults.json"
        argv = [
            "hardware-faults",
            "--models", "convnet", "--datasets", "pneumonia",
            "--techniques", "baseline", "--data-faults", "none",
            "--hw-rates", "1e-2", "--trials", "2",
            "--out", str(out),
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out
        assert "hw fault" in table
        assert "pneumonia/convnet/baseline/none" in table
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "hardware_faults"
        assert payload["units"] == 1
        assert payload["summary"][0]["sdc_rate"] >= 0.0

    def test_hardware_faults_failed_unit_is_exit_1(self, tmp_path, capsys, monkeypatch):
        from repro.faults.hardware import campaign

        def broken_fit(unit):
            raise RuntimeError("fit exploded")

        monkeypatch.setattr(campaign, "_fitted_cell", broken_fit)
        journal = tmp_path / "hw.jsonl"
        argv = [
            "hardware-faults",
            "--models", "convnet", "--datasets", "pneumonia",
            "--techniques", "baseline", "--data-faults", "none",
            "--hw-rates", "1e-2", "--trials", "1",
            "--checkpoint", str(journal),
        ]
        assert main(argv) == 1
        assert "FAILED pneumonia/convnet/baseline" in capsys.readouterr().err
        assert '"kind": "failure"' in journal.read_text()

    def test_study_progress_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_EPOCHS", "2")
        argv = [
            "study",
            "--models", "convnet", "--datasets", "pneumonia",
            "--faults", "mislabelling", "--rates", "0.3",
            "--techniques", "baseline",
            "--progress",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[1/1]" in captured.err
        assert "retries 0" in captured.err
        assert "1 cells ok" in captured.out
