"""The shared append-only JSONL policy (repro.obs.jsonl), checked on every
reader at once, and the writers' bytes pinned to literal expected text."""

import io
import json
import os

import pytest

from repro import obs
from repro.analysis.checkpoint import JOURNAL_SCHEMA, CampaignJournal
from repro.exceptions import TraceError
from repro.obs.jsonl import write_record
from repro.obs.live import WATCH_SCHEMA, EventStreamWriter, read_events
from repro.obs.manifest import EVENTS_FILENAME, RunManifest, write_manifest
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    TimelineRecorder,
    read_timeline,
    validate_timeline,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable_telemetry()
    yield
    obs.disable_telemetry()


# Per format: a valid header, a valid body record, and a reader that
# loads + validates a file and returns how many records it kept.
FORMATS = {
    "watch": (
        {"kind": "header", "t": 0.0, "schema": WATCH_SCHEMA, "counter": "x",
         "source": {}, "monitor": {}, "rules": []},
        {"kind": "sample", "t": 1.0, "value": 2.0},
        lambda path: len(read_events(path)),
    ),
    "timeline": (
        {"kind": "header", "schema": TIMELINE_SCHEMA, "t": 0.0},
        {"kind": "frame", "seq": 0, "t": 1.0},
        lambda path: sum(validate_timeline(read_timeline(path)).values()),
    ),
    "journal": (
        {"kind": "header", "schema": JOURNAL_SCHEMA, "fingerprint": "fp"},
        {"kind": "unit", "key": "a#0", "payload": {}},
        lambda path: 1 + len(CampaignJournal.load(path, fingerprint="fp")),
    ),
}


@pytest.fixture(params=sorted(FORMATS))
def stream(request, tmp_path):
    header, body, count = FORMATS[request.param]
    path = tmp_path / "stream.jsonl"

    def write(*lines):
        path.write_text("".join(
            (line if isinstance(line, str) else json.dumps(line)) + "\n"
            for line in lines))
        return path

    return header, body, count, write


class TestSharedPolicy:
    def test_blank_lines_skipped(self, stream):
        header, body, count, write = stream
        assert count(write(header, "", body, "   ")) == 2

    def test_torn_tail_after_header_tolerated(self, stream):
        header, body, count, write = stream
        path = write(header, body)
        with open(path, "a") as handle:
            handle.write(json.dumps(body)[:-7])  # SIGKILL mid-append
        assert count(path) == 2

    def test_torn_header_only_file_raises(self, stream):
        header, _, count, write = stream
        path = write(json.dumps(header)[:-7])
        with pytest.raises(TraceError, match="line 1") as info:
            count(path)
        assert str(path) in str(info.value)

    def test_corrupt_interior_line_names_its_line(self, stream):
        header, body, count, write = stream
        path = write(header, "{not json", body)
        with pytest.raises(TraceError, match="corrupt .* line 2") as info:
            count(path)
        assert str(path) in str(info.value)

    def test_non_object_line_raises(self, stream):
        header, body, count, write = stream
        with pytest.raises(TraceError, match="line 2 .* not a JSON object"):
            count(write(header, "[1, 2]", body))

    def test_foreign_schema_raises(self, stream):
        header, body, count, write = stream
        with pytest.raises(TraceError, match="unsupported .* schema"):
            count(write(dict(header, schema="other/9"), body))

    def test_duplicate_header_raises(self, stream):
        header, body, count, write = stream
        with pytest.raises(TraceError, match="duplicate header"):
            count(write(header, body, header))


class TestWriteRecord:
    def test_durable_record_is_fsynced(self, monkeypatch):
        synced = []
        monkeypatch.setattr("repro.obs.atomic.os.fsync", synced.append)
        handle = io.StringIO()
        handle.fileno = lambda: 7
        write_record(handle, {"a": 1}, durable=True)
        write_record(handle, {"b": 2})
        assert synced == [7]
        assert handle.getvalue() == '{"a": 1}\n{"b": 2}\n'


WATCH_BYTES = (
    '{"kind": "header", "t": 0.0, "schema": "repro.watch-events/1", '
    '"counter": "x", "source": {"type": "test", "seed": 7}, '
    '"monitor": {"chunk_size": 128}, "rules": []}\n'
    '{"kind": "sample", "t": 1.0, "value": 2.5}\n'
    '{"kind": "indicator", "t": 2.0, "value": 0.125, "n": 1}\n'
    '{"kind": "status", "t": 3.0, "state": "calibrating", "n_samples": 1, '
    '"n_indicators": 1, "alerts_fired": 0, "value": null}\n'
    '{"kind": "end", "t": 4.0, "n_samples": 1, "n_dropped": 0, '
    '"n_indicators": 1, "state": "calibrating", "alarm_time": null, '
    '"crash_time": null, "crash_reason": null, "lead_time": null, '
    '"alerts": {}}\n'
)

TIMELINE_BYTES = (
    '{"kind": "header", "schema": "repro.timeline/1", "t": 0.0, '
    '"wall_time": 5000000000.0, "pid": %d, "interval": 3600.0, '
    '"fields": {"cells": 2}}\n'
    '{"kind": "frame", "seq": 0, "t": 1.5, "wall_time": 5000000000.0, '
    '"counters": {}, "deltas": {}, "progress": null, "resources": null}\n'
    '{"kind": "annotation", "t": 1.75, "wall_time": 5000000000.0, '
    '"event": "retry", "index": 3, "attempt": 2}\n'
    '{"kind": "frame", "seq": 1, "t": 1.75, "wall_time": 5000000000.0, '
    '"counters": {}, "deltas": {}, "progress": null, "resources": null}\n'
    '{"kind": "end", "t": 1.75, "wall_time": 5000000000.0, "status": "ok", '
    '"frames": 2, "annotations": 1}\n'
)

EVENTS_BYTES = (
    '{"kind": "run", "wall_time": 1.5, "seed": 7}\n'
    '{"kind": "alert", "obj": "object", "x": [1, 2]}\n'
    '{"kind": "odd", "v": "{3}", "f": 0.1}\n'
)


class TestWriterBytes:
    def test_watch_stream(self):
        buf = io.StringIO()
        writer = EventStreamWriter(buf)
        writer.emit("header", 0.0, schema=WATCH_SCHEMA, counter="x",
                    source={"type": "test", "seed": 7},
                    monitor={"chunk_size": 128}, rules=[])
        writer.emit("sample", 1, value=2.5)
        writer.emit("indicator", 2.0, value=0.125, n=1)
        writer.emit("status", 3.0, state="calibrating", n_samples=1,
                    n_indicators=1, alerts_fired=0, value=None)
        writer.emit("end", 4.0, n_samples=1, n_dropped=0, n_indicators=1,
                    state="calibrating", alarm_time=None, crash_time=None,
                    crash_reason=None, lead_time=None, alerts={})
        assert buf.getvalue() == WATCH_BYTES

    def test_timeline(self, tmp_path):
        now = [1000.0]
        path = tmp_path / "tl.jsonl"
        recorder = TimelineRecorder(path, interval=3600.0,
                                    clock=lambda: now[0],
                                    wall_clock=lambda: 5e9,
                                    fields={"cells": 2})
        recorder.start()
        now[0] += 1.5
        recorder.sample_once()
        now[0] += 0.25
        recorder.annotate("retry", index=3, attempt=2)
        recorder.finalize()
        assert path.read_text() == TIMELINE_BYTES % os.getpid()

    def test_manifest_events(self, tmp_path):
        manifest = RunManifest(command="simulate", events=[
            {"kind": "run", "wall_time": 1.5, "seed": 7},
            {"kind": "alert", "obj": "object", "x": [1, 2]},
            {"kind": "odd", "v": {3}, "f": 0.1},  # not JSON: written as str
        ])
        write_manifest(manifest, tmp_path)
        assert (tmp_path / EVENTS_FILENAME).read_text() == EVENTS_BYTES
