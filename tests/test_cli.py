"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.memsim import Machine, MachineConfig
from repro.trace import write_csv


@pytest.fixture(scope="module")
def short_trace(tmp_path_factory):
    """A quick crash-run trace archived to CSV."""
    path = tmp_path_factory.mktemp("cli") / "run.csv"
    result = Machine(MachineConfig.nt4(seed=11, max_run_seconds=40_000)).run()
    write_csv(result.bundle, path)
    return path, result


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--profile", "w2k", "--seed", "3", "--out", "x.csv"])
        assert args.profile == "w2k"
        assert args.seed == 3

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "trace.csv", "--scheme", "ewma"])
        assert args.trace == "trace.csv"
        assert args.scheme == "ewma"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_telemetry_flags_on_every_workload_command(self):
        for base in (["simulate", "--out", "x.csv"],
                     ["analyze", "t.csv"],
                     ["validate"],
                     ["campaign"]):
            args = build_parser().parse_args(
                base + ["--log-level", "debug", "--telemetry-out", "runs/d"])
            assert args.log_level == "debug"
            assert args.telemetry_out == "runs/d"

    def test_simulate_accepts_scenario_profiles(self):
        args = build_parser().parse_args(
            ["simulate", "--profile", "stress", "--telemetry-out", "d"])
        assert args.profile == "stress"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--profile", "bogus"])

    def test_telemetry_args(self):
        args = build_parser().parse_args(["telemetry", "runs/", "--metrics"])
        assert args.path == "runs/"
        assert args.metrics
        assert args.format == "table"

    def test_telemetry_format_choices(self):
        for fmt in ("table", "json", "csv", "prom"):
            args = build_parser().parse_args(
                ["telemetry", "runs/", "--format", fmt])
            assert args.format == fmt
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "runs/", "--format", "xml"])

    def test_perf_profile_flags_on_every_command(self):
        for base in (["simulate", "--out", "x.csv"],
                     ["analyze", "t.csv"],
                     ["validate"],
                     ["campaign"],
                     ["watch"],
                     ["dashboard", "x.jsonl"]):
            args = build_parser().parse_args(base + ["--perf-profile"])
            assert args.perf_profile
            assert not args.perf_memory

    def test_watch_args(self):
        args = build_parser().parse_args(
            ["watch", "--scenario", "stress", "--seed", "3",
             "--alerts", "rules.toml", "--events", "out.jsonl",
             "--chunk-size", "64"])
        assert args.scenario == "stress"
        assert args.alerts == "rules.toml"
        assert args.events == "out.jsonl"
        assert args.chunk_size == 64
        defaults = build_parser().parse_args(["watch"])
        assert defaults.scenario is None and defaults.trace is None
        assert defaults.counter == "AvailableBytes"
        # --scenario and --trace are mutually exclusive sources.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["watch", "--scenario", "stress", "--trace", "x.csv"])

    def test_dashboard_args(self):
        args = build_parser().parse_args(
            ["dashboard", "out.jsonl", "-o", "report.html"])
        assert args.path == "out.jsonl"
        assert args.out == "report.html"


class TestCommands:
    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--seed", "2", "--max-seconds", "3000",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = out.read_text()
        assert "AvailableBytes" in text

    def test_simulate_fault_factor(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--seed", "2", "--max-seconds", "2000",
                     "--fault-factor", "2.0", "--out", str(out)])
        assert code == 0

    def test_analyze_reports_lead(self, short_trace, capsys):
        path, result = short_trace
        code = main(["analyze", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "WARNING at" in out
        assert "lead time" in out

    def test_analyze_unknown_counter(self, short_trace, capsys):
        path, __ = short_trace
        code = main(["analyze", str(path), "--counter", "Bogus"])
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_analyze_variance_indicator(self, short_trace, capsys):
        path, __ = short_trace
        code = main(["analyze", str(path), "--indicator", "variance"])
        assert code == 0
        assert "variance" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        code = main(["validate"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_campaign_runs_and_persists(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--runs", "1", "--max-seconds", "40000",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Campaign results" in text
        assert out.exists()

    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.scenario == "stress"
        assert args.runs == 3


class TestTelemetryCli:
    """The observability surface: --log-level, --telemetry-out, telemetry."""

    @pytest.fixture
    def run_dir(self, tmp_path):
        """A telemetry-instrumented short simulate run."""
        out = tmp_path / "run"
        code = main(["simulate", "--seed", "5", "--max-seconds", "3000",
                     "--telemetry-out", str(out)])
        assert code == 0
        return out

    def test_simulate_needs_out_or_telemetry(self, capsys):
        code = main(["simulate", "--seed", "1"])
        assert code == 2
        assert "telemetry-out" in capsys.readouterr().err

    def test_simulate_writes_manifest_with_spans_and_metrics(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema"] == obs.MANIFEST_SCHEMA
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        named = {s["name"] for s in manifest["spans"]}
        assert len(named) >= 3
        assert {"machine-setup", "machine-run", "machine-collect"} <= named
        assert all(s["duration"] is not None for s in manifest["spans"])
        assert manifest["metrics"]["sim.events_fired"]["value"] > 0
        assert manifest["outcome"]["exit_code"] == 0
        assert (run_dir / "events.jsonl").exists()

    def test_telemetry_session_closed_after_main(self, run_dir):
        assert not obs.telemetry_enabled()

    def test_telemetry_subcommand_renders_summary(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out
        assert "simulate" in out
        assert "stage durations" in out

    def test_telemetry_subcommand_metrics_flag(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--metrics"])
        assert code == 0
        assert "sim.events_fired" in capsys.readouterr().out

    def test_telemetry_subcommand_missing_path(self, tmp_path, capsys):
        code = main(["telemetry", str(tmp_path / "nope")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_log_level_emits_structured_lines(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "5", "--max-seconds", "2000",
                     "--out", str(tmp_path / "t.csv"), "--log-level", "info"])
        assert code == 0
        err = capsys.readouterr().err
        assert "repro.memsim.machine: run starting" in err
        assert "seed=5" in err

    def test_scenario_profile_simulate(self, tmp_path):
        out = tmp_path / "scen"
        code = main(["simulate", "--profile", "webserver", "--seed", "2",
                     "--max-seconds", "2000", "--telemetry-out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["profile"] == "webserver"

    def test_telemetry_format_json(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--format", "json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["command"] == "simulate"
        assert records[0]["metrics"]["sim.events_fired.value"] > 0

    def test_telemetry_format_csv(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "run,command,seed,metric,value"
        assert any("run.wall_seconds" in line for line in lines[1:])

    def test_telemetry_format_prom(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--format", "prom"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_events_fired counter" in out
        assert "repro_sim_events_fired_total" in out
        assert out.endswith("# EOF\n")

    def test_failing_run_still_writes_error_manifest(self, tmp_path, capsys):
        out = tmp_path / "failed-run"
        with pytest.raises(FileNotFoundError):
            main(["analyze", str(tmp_path / "nope.csv"),
                  "--telemetry-out", str(out)])
        assert not obs.telemetry_enabled()  # session still torn down
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outcome"]["status"] == "error"
        assert manifest["outcome"]["error"]["type"] == "FileNotFoundError"
        assert manifest["outcome"]["exit_code"] is None

    def test_perf_profile_into_manifest(self, tmp_path):
        out = tmp_path / "profiled"
        code = main(["simulate", "--seed", "5", "--max-seconds", "3000",
                     "--telemetry-out", str(out), "--perf-profile"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        hotpaths = manifest["profile"]["hotpaths"]
        assert "memsim.machine_run" in hotpaths
        assert "simkernel.run_until" in hotpaths
        assert hotpaths["memsim.machine_run"]["calls"] == 1

    def test_perf_profile_prints_table_without_manifest(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "5", "--max-seconds", "2000",
                     "--out", str(tmp_path / "t.csv"), "--perf-profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hot-path profile" in out
        assert "memsim.machine_run" in out


class TestWatchCli:
    def test_watch_replay_full_pipeline(self, short_trace, tmp_path, capsys):
        path, result = short_trace
        rules = tmp_path / "rules.toml"
        rules.write_text(
            '[[rule]]\nname = "low-mem"\nsignal = "AvailableBytes"\n'
            'kind = "threshold"\nop = "lt"\nvalue = 100e6\n'
            'severity = "critical"\n'
        )
        events_path = tmp_path / "out.jsonl"
        html_path = tmp_path / "report.html"
        code = main(["watch", "--trace", str(path),
                     "--alerts", str(rules),
                     "--events", str(events_path),
                     "--dashboard", str(html_path),
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ALARM" in out
        assert "crashed" in out

        # The stream on disk validates and the alarm precedes the crash.
        from repro.obs.live import read_events, validate_stream

        events = read_events(events_path)
        counts = validate_stream(events)
        assert counts["alarm"] == 1
        end = events[-1]
        assert end["kind"] == "end"
        assert end["alarm_time"] < end["crash_time"]
        assert end["crash_time"] == pytest.approx(result.crash_time)
        assert counts.get("alert", 0) >= 1

        # The dashboard rendered alongside, self-contained.
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_watch_missing_rules_file(self, short_trace, tmp_path, capsys):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path),
                     "--alerts", str(tmp_path / "nope.toml"), "--quiet"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_watch_bad_counter(self, short_trace, capsys):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path),
                     "--counter", "NoSuchCounter", "--quiet"])
        assert code == 2
        assert "NoSuchCounter" in capsys.readouterr().err

    def test_watch_status_lines(self, short_trace, capsys):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path), "--status-every", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state=" in out
        assert "samples=" in out

    def test_watch_writes_manifest(self, short_trace, tmp_path):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path), "--quiet",
                     "--telemetry-out", str(tmp_path / "run")])
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "watch"
        assert manifest["outcome"]["alarm_time"] is not None


class TestDashboardCli:
    def test_run_dashboard_from_jsonl(self, short_trace, tmp_path, capsys):
        path, _ = short_trace
        events_path = tmp_path / "out.jsonl"
        assert main(["watch", "--trace", str(path), "--quiet",
                     "--events", str(events_path)]) == 0
        html_path = tmp_path / "report.html"
        code = main(["dashboard", str(events_path), "-o", str(html_path)])
        assert code == 0
        assert "run dashboard" in capsys.readouterr().out
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_campaign_dashboard_from_manifests(self, tmp_path, capsys):
        from repro.obs import RunManifest, write_manifest

        cells = {
            "aging": {
                "runs": [{"seed": 1, "crashed": True, "crash_time": 900.0,
                          "alarm_time": 400.0, "lead_time": 500.0,
                          "duration": 900.0}],
                "crashed": 1, "detected": 1, "missed": 0,
                "median_lead": 500.0, "false_alarms": 0,
                "lead_times": [500.0],
            },
        }
        write_manifest(RunManifest(command="campaign",
                                   outcome={"cells": cells}),
                       tmp_path / "run1")
        html_path = tmp_path / "campaign.html"
        code = main(["dashboard", str(tmp_path), "-o", str(html_path)])
        assert code == 0
        assert "campaign dashboard" in capsys.readouterr().out
        assert "aging" in html_path.read_text()

    def test_missing_path_errors(self, tmp_path, capsys):
        code = main(["dashboard", str(tmp_path / "nothing"),
                     "-o", str(tmp_path / "x.html")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCampaignDashboardFlag:
    def test_campaign_outcome_carries_run_records(self, tmp_path):
        dash = tmp_path / "campaign.html"
        code = main(["campaign", "--scenario", "stress", "--runs", "1",
                     "--max-seconds", "12000",
                     "--telemetry-out", str(tmp_path / "run"),
                     "--dashboard", str(dash)])
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        cells = manifest["outcome"]["cells"]
        assert set(cells) == {"stress-aging", "stress-healthy"}
        for cell in cells.values():
            assert isinstance(cell["runs"], list)
            assert {"seed", "crashed", "alarm_time",
                    "lead_time"} <= set(cell["runs"][0])
        assert dash.read_text().startswith("<!DOCTYPE html>")


@pytest.fixture(scope="module")
def timeline_file(tmp_path_factory):
    """A small finished repro.timeline/1 artifact with annotations."""
    from repro.obs.timeline import TimelineRecorder

    path = tmp_path_factory.mktemp("tl") / "tl.jsonl"
    clock = {"now": 1000.0}

    def tick():
        clock["now"] += 1.0
        return clock["now"]

    recorder = TimelineRecorder(path, interval=3600.0, clock=tick,
                                wall_clock=lambda: 5e9 + clock["now"])
    recorder.start()
    for _ in range(3):
        recorder.sample_once()
    recorder.annotate("retry", index=1, attempt=1)
    recorder.annotate("worker-death", index=2)
    recorder.finalize()
    return path


class TestTimelineCli:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--timeline", "tl.jsonl",
             "--timeline-every", "0.5", "--costs", "costs.json"])
        assert args.timeline == "tl.jsonl"
        assert args.timeline_every == 0.5
        assert args.costs == "costs.json"
        args = build_parser().parse_args(["watch", "--timeline", "w.jsonl"])
        assert args.timeline == "w.jsonl"
        assert args.timeline_every == 1.0
        args = build_parser().parse_args(
            ["timeline", "tl.jsonl", "--since", "10", "--until", "60",
             "--slice", "s.jsonl", "--csv", "t.csv", "--prom", "t.prom",
             "--dashboard", "t.html", "--costs", "c.json"])
        assert args.path == "tl.jsonl"
        assert args.since == 10.0 and args.until == 60.0
        assert args.slice_out == "s.jsonl"

    def test_summary_output(self, timeline_file, capsys):
        code = main(["timeline", str(timeline_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Timeline" in out
        assert "n_frames" in out
        assert "annotations.retry" in out
        assert "annotations.worker-death" in out

    def test_slice_and_exports_round_trip(self, timeline_file, tmp_path,
                                          capsys):
        from repro.obs.timeline import read_timeline, validate_timeline

        sliced = tmp_path / "slice.jsonl"
        csv_out = tmp_path / "tl.csv"
        prom_out = tmp_path / "tl.prom"
        dash_out = tmp_path / "tl.html"
        code = main(["timeline", str(timeline_file), "--since", "1",
                     "--slice", str(sliced), "--csv", str(csv_out),
                     "--prom", str(prom_out), "--dashboard", str(dash_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "slice [" in out
        # The sliced artifact is itself a valid timeline stream.
        validate_timeline(read_timeline(sliced))
        assert csv_out.read_text().startswith("seq,t,wall_time,metric,value")
        assert "# EOF" in prom_out.read_text()
        assert dash_out.read_text().startswith("<!DOCTYPE html>")

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["timeline", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_costs_profile_errors(self, timeline_file, tmp_path,
                                          capsys):
        bad = tmp_path / "costs.json"
        bad.write_text("{not json")
        code = main(["timeline", str(timeline_file), "--costs", str(bad),
                     "--dashboard", str(tmp_path / "t.html")])
        assert code == 2
        assert "bad costs profile" in capsys.readouterr().err


class TestCampaignTimelineFlag:
    def test_campaign_records_timeline_and_costs(self, tmp_path, capsys):
        from repro.obs.timeline import read_timeline, timeline_summary

        tl = tmp_path / "tl.jsonl"
        costs_path = tmp_path / "costs.json"
        code = main(["campaign", "--scenario", "stress", "--runs", "1",
                     "--max-seconds", "12000",
                     "--timeline", str(tl), "--timeline-every", "0.1",
                     "--costs", str(costs_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline: recording" in out
        records = read_timeline(tl)
        summary = timeline_summary(records)  # validates the stream
        assert summary["status"] == "complete"
        events = {r.get("event") for r in records
                  if r.get("kind") == "annotation"}
        assert {"campaign-begin", "campaign-end"} <= events
        costs = json.loads(costs_path.read_text())
        assert costs["schema"] == "repro.costs/1"
        shares = [p["share"] for p in costs["phases"].values()
                  if p["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)
        assert "Cost attribution" in out or "cost" in out.lower()
