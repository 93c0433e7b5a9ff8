"""Tests for the campaign timeline recorder (repro.obs.timeline): the
background sampler, the repro.timeline/1 artifact, the load/validate/
slice/summary/CSV helpers, the /timeline endpoint, and the recorder
wired end to end around a real campaign — including the bit-identical
observation-only guarantee."""

import csv
import io
import json
import threading
import time

import pytest

from repro import obs
from repro.analysis import cells_payload, execute_campaign
from repro.analysis.campaign import ExperimentSpec
from repro.exceptions import TraceError, ValidationError
from repro.obs.ops import flight_dump, flight_note
from repro.obs.resources import compact_resources
from repro.obs.statusd import StatusBoard, StatusServer
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    TimelineRecorder,
    read_timeline,
    slice_timeline,
    timeline_summary,
    timeline_to_csv,
    validate_timeline,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def make_recorder(path=None, *, clock=None, **kwargs):
    """A recorder whose thread never fires (huge interval) so tests
    drive sample_once() deterministically."""
    clock = clock or FakeClock()
    kwargs.setdefault("interval", 3600.0)
    return TimelineRecorder(path, clock=clock, wall_clock=lambda: 5e9,
                            **kwargs), clock


class StubResources:
    """Stands in for ResourceSampler.latest_compact()."""

    def __init__(self):
        self.compact = {
            "parent_rss_bytes": 1000, "parent_cpu_seconds": 1.0,
            "workers": [{"ordinal": 0, "rss_bytes": 500,
                         "cpu_seconds": 0.5}],
        }

    def latest_compact(self):
        return dict(self.compact)


class TestTimelineRecorder:
    def test_parameters_validated(self):
        with pytest.raises(ValidationError, match="interval"):
            TimelineRecorder(interval=0.0)
        with pytest.raises(ValidationError, match="ring"):
            TimelineRecorder(ring=4)

    def test_lifecycle_and_atomic_artifact(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        recorder, clock = make_recorder(path)
        recorder.start()
        assert not path.exists()  # streams to a temp until finalize
        for _ in range(3):
            clock.tick(1.0)
            recorder.sample_once()
        recorder.annotate("retry", index=2, attempt=1)
        assert recorder.finalize() == str(path)
        assert path.exists()
        # Idempotent: a second finalize reports the same path, no-op.
        assert recorder.finalize("error") == str(path)

        records = read_timeline(path)
        counts = validate_timeline(records)
        assert counts["header"] == 1
        assert counts["frame"] == 4  # 3 manual + 1 final
        assert counts["annotation"] == 1
        assert counts["end"] == 1
        header, end = records[0], records[-1]
        assert header["schema"] == TIMELINE_SCHEMA
        assert header["interval"] == 3600.0
        assert end["status"] == "ok"
        assert end["frames"] == 4
        assert end["annotations"] == 1
        # The ring mirrors the artifact exactly.
        assert recorder.records() == records

    def test_memory_only_recorder(self):
        recorder, clock = make_recorder(None)
        recorder.start()
        clock.tick(1.0)
        recorder.sample_once()
        assert recorder.finalize() is None
        validate_timeline(recorder.records())

    def test_counter_totals_and_deltas(self):
        session = obs.enable_telemetry()
        session.metrics.counter("campaign.runs_completed").inc(3)
        session.metrics.counter("fractal.cache_hits").inc(99)  # whitelist
        recorder, clock = make_recorder(None)
        recorder.start()
        clock.tick(1.0)
        first = recorder.sample_once()
        assert first["counters"]["campaign.runs_completed"] == 3
        assert "fractal.cache_hits" not in first["counters"]
        assert first["deltas"]["campaign.runs_completed"] == 3

        session.metrics.counter("campaign.runs_completed").inc(2)
        session.metrics.counter("perf.pool.retries").inc()
        clock.tick(1.0)
        second = recorder.sample_once()
        assert second["counters"]["campaign.runs_completed"] == 5
        assert second["deltas"] == {"campaign.runs_completed": 2,
                                    "perf.pool.retries": 1}
        clock.tick(1.0)
        third = recorder.sample_once()
        assert third["deltas"] == {}  # nothing moved
        recorder.finalize()

    def test_progress_and_resources_in_frames(self):
        clock = FakeClock()
        board = StatusBoard(ewma_alpha=1.0, clock=clock)
        board.begin(total_units=2, cells={"aging": 2})
        recorder, _ = make_recorder(None, clock=clock, board=board,
                                    resources=StubResources())
        recorder.start()
        clock.tick(5.0)
        board.unit_finished(cell="aging")
        frame = recorder.sample_once()
        assert frame["progress"]["units_done"] == 1
        assert frame["progress"]["units_remaining"] == 1
        assert frame["progress"]["state"] == "running"
        assert "cells" not in frame["progress"]  # digest, not the board
        assert frame["resources"]["parent_rss_bytes"] == 1000
        assert frame["resources"]["workers"][0]["ordinal"] == 0
        recorder.finalize()

    def test_self_watch_alert_becomes_annotation(self):
        stub = StubResources()
        stub.compact["self_watch_alerts"] = 0
        stub.compact["self_watch_state"] = "watching"
        recorder, clock = make_recorder(None, resources=stub)
        recorder.start()
        clock.tick(1.0)
        recorder.sample_once()
        stub.compact["self_watch_alerts"] = 2
        stub.compact["self_watch_state"] = "warning"
        clock.tick(1.0)
        recorder.sample_once()
        clock.tick(1.0)
        recorder.sample_once()  # no further alerts -> no new annotation
        recorder.finalize()
        alerts = [r for r in recorder.records()
                  if r.get("kind") == "annotation" and r["event"] == "alert"]
        assert len(alerts) == 1
        assert alerts[0]["count"] == 2
        assert alerts[0]["state"] == "warning"

    def test_time_forced_monotone(self):
        recorder, clock = make_recorder(None)
        recorder.start()
        clock.tick(5.0)
        recorder.sample_once()
        clock.tick(-3.0)  # clock regression
        recorder.sample_once()
        recorder.finalize()
        validate_timeline(recorder.records())  # enforces monotone t

    def test_ring_bounded(self):
        recorder, clock = make_recorder(None, ring=8)
        recorder.start()
        for _ in range(30):
            clock.tick(1.0)
            recorder.sample_once()
        assert len(recorder.records()) == 8
        recorder.finalize()

    def test_operational_notes_become_annotations(self):
        recorder, clock = make_recorder(None)
        recorder.start()
        clock.tick(1.0)
        flight_note("retry", index=1, attempt=2, kind="timeout", delay_s=0.5)
        flight_note("unit", index=1, status="failed", kind="worker-death")
        flight_note("unit", index=2, status="ok")  # success: no annotation
        flight_note("unit", index=3, status="failed", kind="timeout")
        flight_note("unit", index=4, status="error", kind="raise")
        flight_note("round", round=2, pending=3, workers=2)
        flight_note("span", name="x")  # not an annotated note kind
        flight_dump("test-reason")
        recorder.finalize()
        events = [r["event"] for r in recorder.records()
                  if r.get("kind") == "annotation"]
        assert events == ["retry", "worker-death", "timeout", "unit-failed",
                          "round", "flight-dump"]
        retry = [r for r in recorder.records()
                 if r.get("kind") == "annotation"][0]
        assert retry["index"] == 1
        assert retry["attempt"] == 2
        assert retry["error_kind"] == "timeout"

        # After finalize the listener is gone: no late annotations.
        flight_note("retry", index=9)
        assert len([r for r in recorder.records()
                    if r.get("kind") == "annotation"]) == 6

    def test_background_thread_samples_and_stops(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        recorder = TimelineRecorder(path, interval=0.02)
        recorder.start()
        time.sleep(0.2)
        recorder.finalize()
        assert "repro-timeline" not in {
            t.name for t in threading.enumerate()}
        counts = validate_timeline(read_timeline(path))
        assert counts["frame"] >= 2

    def test_context_manager_records_error_status(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        recorder, clock = make_recorder(path)
        with pytest.raises(RuntimeError):
            with recorder:
                clock.tick(1.0)
                raise RuntimeError("boom")
        records = read_timeline(path)
        assert records[-1]["status"] == "error"


class TestReadValidate:
    def _stream(self, tmp_path, lines):
        path = tmp_path / "tl.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_final_line_tolerated(self, tmp_path):
        recorder, clock = make_recorder(tmp_path / "tl.jsonl")
        recorder.start()
        clock.tick(1.0)
        recorder.sample_once()
        recorder.finalize()
        text = (tmp_path / "tl.jsonl").read_text()
        torn = self._stream(tmp_path, [text.rstrip("\n")[:-20]])
        records = read_timeline(torn)
        assert records[0]["kind"] == "header"

    def test_corrupt_middle_line_raises(self, tmp_path):
        header = json.dumps({"kind": "header", "schema": TIMELINE_SCHEMA,
                             "t": 0.0})
        frame = json.dumps({"kind": "frame", "seq": 0, "t": 1.0})
        path = self._stream(tmp_path, [header, "{not json", frame])
        with pytest.raises(TraceError, match="corrupt"):
            read_timeline(path)

    def _valid(self):
        return [
            {"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0},
            {"kind": "frame", "seq": 0, "t": 1.0},
            {"kind": "annotation", "t": 1.5, "event": "retry"},
            {"kind": "frame", "seq": 1, "t": 2.0},
            {"kind": "end", "t": 3.0, "status": "ok"},
        ]

    def test_valid_stream_counts(self):
        assert validate_timeline(self._valid()) == {
            "header": 1, "frame": 2, "annotation": 1, "end": 1}

    @pytest.mark.parametrize("mutate, message", [
        (lambda r: r.clear(), "empty"),
        (lambda r: r.pop(0), "must start with a header"),
        (lambda r: r[0].update(schema="repro.timeline/99"),
         "unsupported timeline schema"),
        (lambda r: r[1].update(kind="mystery"), "unknown timeline record"),
        (lambda r: r.insert(2, dict(r[0])), "duplicate header"),
        (lambda r: r.append({"kind": "frame", "seq": 9, "t": 9.0}),
         "after the end"),
        (lambda r: r[3].update(t=0.5), "non-monotone"),
        (lambda r: r[3].update(seq=0), "seq not increasing"),
        (lambda r: r[1].update(t=float("nan")), "finite t"),
        (lambda r: r[1].pop("seq"), "integer seq"),
    ])
    def test_invalid_streams_rejected(self, mutate, message):
        records = self._valid()
        mutate(records)
        with pytest.raises(TraceError, match=message):
            validate_timeline(records)


def synthetic_records():
    """A hand-built stream with progress, resources and annotations."""
    def frame(seq, t, done, rate, eta, parent_rss, worker_rss):
        return {
            "kind": "frame", "seq": seq, "t": t, "wall_time": 5e9 + t,
            "counters": {"campaign.runs_completed": done},
            "deltas": {},
            "progress": {
                "state": "running", "total_units": 4, "units_done": done,
                "units_failed": 0, "units_remaining": 4 - done,
                "units_per_second": rate, "eta_seconds": eta,
                "last_progress_at": 5e9 + t,
            },
            "resources": {
                "parent_rss_bytes": parent_rss, "parent_cpu_seconds": t,
                "workers": [{"ordinal": 0, "rss_bytes": worker_rss,
                             "cpu_seconds": t / 2}],
            },
        }

    return [
        {"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0,
         "wall_time": 5e9, "pid": 1, "interval": 1.0},
        frame(0, 1.0, 1, 1.0, 3.0, 1000, 400),
        {"kind": "annotation", "t": 1.5, "wall_time": 5e9 + 1.5,
         "event": "retry", "index": 2, "attempt": 1},
        frame(1, 2.0, 2, 1.2, 1.7, 1100, 600),
        {"kind": "annotation", "t": 2.5, "wall_time": 5e9 + 2.5,
         "event": "worker-death", "index": 3},
        frame(2, 3.0, 4, 0.9, 0.0, 900, 500),
        {"kind": "end", "t": 3.5, "wall_time": 5e9 + 3.5, "status": "ok",
         "frames": 3, "annotations": 2},
    ]


class TestSliceSummaryCsv:
    def test_slice_keeps_header_and_rebuilds_end(self):
        sliced = slice_timeline(synthetic_records(), since=1.5, until=2.6)
        assert sliced[0]["kind"] == "header"
        assert [r["kind"] for r in sliced] == [
            "header", "annotation", "frame", "annotation", "end"]
        assert sliced[-1]["frames"] == 1
        assert sliced[-1]["annotations"] == 2
        validate_timeline(sliced)

    def test_slice_open_ended(self):
        assert len(slice_timeline(synthetic_records(), since=3.0)) == 3
        assert len(slice_timeline(synthetic_records(), until=1.0)) == 3

    def test_summary_digest(self):
        summary = timeline_summary(synthetic_records())
        assert summary["schema"] == TIMELINE_SCHEMA
        assert summary["duration_seconds"] == 3.5
        assert summary["n_frames"] == 3
        assert summary["n_annotations"] == 2
        assert summary["annotations_by_event"] == {
            "retry": 1, "worker-death": 1}
        assert summary["peak_parent_rss_bytes"] == 1100
        assert summary["peak_worker_rss_bytes"] == 600
        assert summary["max_workers_seen"] == 1
        assert summary["peak_units_per_second"] == 1.2
        assert summary["final_progress"]["units_done"] == 4
        assert summary["status"] == "ok"

    def test_csv_long_format(self):
        text = timeline_to_csv(synthetic_records())
        rows = list(csv.DictReader(io.StringIO(text)))
        metrics = {row["metric"] for row in rows}
        assert "progress.units_done" in metrics
        assert "resources.parent_rss_bytes" in metrics
        assert "resources.worker.0.rss_bytes" in metrics
        assert "counter.campaign.runs_completed" in metrics
        assert "progress.state" not in metrics  # strings stay out
        done = [row for row in rows
                if row["metric"] == "progress.units_done"]
        assert [d["value"] for d in done] == ["1", "2", "4"]


class TestCompactResources:
    def test_none_in_none_out(self):
        assert compact_resources(None) is None

    def test_digest_shape(self):
        snapshot = {
            "parent": {"pid": 7, "rss_bytes": 123, "cpu_seconds": 4.5,
                       "num_fds": 9},
            "workers": [{"pid": 8, "ordinal": 1, "rss_bytes": 55,
                         "cpu_seconds": 0.5, "num_threads": 3}],
            "self_watch": {"state": "watching", "alerts_fired": 0,
                           "n_samples": 12},
        }
        compact = compact_resources(snapshot)
        assert compact == {
            "parent_rss_bytes": 123, "parent_cpu_seconds": 4.5,
            "workers": [{"ordinal": 1, "rss_bytes": 55,
                         "cpu_seconds": 0.5}],
            "self_watch_state": "watching", "self_watch_alerts": 0,
        }


class TestTimelineEndpoint:
    def test_no_recorder_attached(self):
        server = StatusServer(board=StatusBoard())
        payload = server.timeline_payload()
        assert payload["schema"] is None
        assert payload["records"] == []
        assert "no timeline recorder" in payload["note"]

    def test_serves_ring_over_http(self):
        import urllib.request

        recorder, clock = make_recorder(None)
        recorder.start()
        clock.tick(1.0)
        recorder.sample_once()
        server = StatusServer(board=StatusBoard(), timeline=recorder)
        port = server.start()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/timeline", timeout=10) as resp:
                payload = json.loads(resp.read())
        finally:
            server.stop()
            recorder.finalize()
        assert payload["schema"] == TIMELINE_SCHEMA
        assert payload["records"][0]["kind"] == "header"
        assert any(r["kind"] == "frame" for r in payload["records"])


@pytest.fixture(scope="module")
def small_specs():
    return [
        ExperimentSpec(name="aging", scenario="stress", n_runs=1,
                       base_seed=31, max_run_seconds=20_000.0),
        ExperimentSpec(name="healthy", scenario="stress", n_runs=1,
                       base_seed=131, fault_factor=0.0,
                       max_run_seconds=6_000.0),
    ]


class TestCampaignIntegration:
    def test_observation_only_bit_identical(self, small_specs, tmp_path):
        """The recorded campaign's payload is bit-identical to the bare
        run — the timeline recorder observes, never perturbs."""
        reference = cells_payload(execute_campaign(small_specs).results)

        obs.enable_telemetry()
        board = StatusBoard()
        recorder = TimelineRecorder(tmp_path / "tl.jsonl", interval=0.05,
                                    board=board)
        recorder.start()
        try:
            outcome = execute_campaign(small_specs, workers=2, status=board,
                                       timeline=recorder)
        finally:
            recorder.finalize(outcome.status
                              if "outcome" in locals() else "error")
        assert cells_payload(outcome.results) == reference

        records = read_timeline(tmp_path / "tl.jsonl")
        summary = timeline_summary(records)
        begin = [r for r in records if r.get("event") == "campaign-begin"]
        end = [r for r in records if r.get("event") == "campaign-end"]
        assert len(begin) == 1 and len(end) == 1
        assert begin[0]["units"] == 2
        assert end[0]["status"] == "complete"
        assert end[0]["executed"] == 2
        assert summary["final_progress"]["units_done"] == 2
        assert any(r.get("event") == "round" for r in records)
