"""Checkpoint-journal unit tests: header discipline, crash damage
tolerance, fingerprint matching."""

import json
import time

import pytest

from repro.analysis.checkpoint import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalState,
    config_fingerprint,
)
from repro.exceptions import TraceError, ValidationError
from repro.obs import session as _obs


class TestConfigFingerprint:
    def test_stable_across_calls(self):
        config = [{"name": "a", "seed": 3}, {"name": "b", "seed": 4}]
        assert config_fingerprint(config) == config_fingerprint(config)

    def test_dict_key_order_irrelevant(self):
        assert (config_fingerprint({"a": 1, "b": 2})
                == config_fingerprint({"b": 2, "a": 1}))

    def test_different_configs_differ(self):
        assert (config_fingerprint({"seed": 1})
                != config_fingerprint({"seed": 2}))

    def test_short_hex(self):
        fp = config_fingerprint({"x": 1})
        assert len(fp) == 16
        int(fp, 16)  # valid hex

    def test_non_jsonable_rejected(self):
        with pytest.raises(ValidationError, match="JSON-able"):
            config_fingerprint({"x": object()})


class TestJournalRoundTrip:
    def test_write_then_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fingerprint="abc123") as journal:
            journal.record_unit("cell#0", {"seed": 1, "crashed": False})
            journal.record_unit("cell#1", {"seed": 2, "crashed": True})
        units = CampaignJournal.load(path, fingerprint="abc123")
        assert units == {
            "cell#0": {"seed": 1, "crashed": False},
            "cell#1": {"seed": 2, "crashed": True},
        }

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fingerprint="fp"):
            pass
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {"kind": "header", "schema": JOURNAL_SCHEMA,
                         "fingerprint": "fp"}

    def test_reopen_appends_not_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#0", {"seed": 1})
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#1", {"seed": 2})
        units = CampaignJournal.load(path)
        assert sorted(units) == ["a#0", "a#1"]
        # exactly one header
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds.count("header") == 1

    def test_reopen_with_wrong_fingerprint_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fingerprint="fp1"):
            pass
        with pytest.raises(TraceError, match="different campaign"):
            CampaignJournal(path, fingerprint="fp2")

    def test_empty_key_rejected(self, tmp_path):
        with CampaignJournal(tmp_path / "j.jsonl", fingerprint="fp") as j:
            with pytest.raises(ValidationError, match="key"):
                j.record_unit("", {})

    def test_duplicate_keys_keep_first(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#0", {"seed": 1})
            journal.record_unit("a#0", {"seed": 999})
        assert CampaignJournal.load(path)["a#0"] == {"seed": 1}


class TestJournalDamage:
    def make(self, tmp_path, *units):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path, fingerprint="fp") as journal:
            for key, payload in units:
                journal.record_unit(key, payload)
        return path

    def test_truncated_final_line_dropped(self, tmp_path):
        path = self.make(tmp_path, ("a#0", {"seed": 1}))
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", "key": "a#1", "payl')  # SIGKILL here
        with _obs.telemetry_session() as session:
            units = CampaignJournal.load(path, fingerprint="fp")
            truncated = session.metrics.counter(
                "campaign.journal_truncated").value
        assert units == {"a#0": {"seed": 1}}
        assert truncated == 1

    def test_corrupt_interior_line_is_hard_error(self, tmp_path):
        path = self.make(tmp_path, ("a#0", {"seed": 1}))
        text = path.read_text()
        path.write_text(text + "garbage not json\n"
                        + '{"kind": "unit", "key": "a#1", "payload": {}}\n')
        with pytest.raises(TraceError, match="corrupt journal line"):
            CampaignJournal.load(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "unit", "key": "a#0", "payload": {}}\n')
        with pytest.raises(TraceError, match="header"):
            CampaignJournal.load(path)

    def test_foreign_schema_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "header", "schema": "other/9", '
                        '"fingerprint": "fp"}\n')
        with pytest.raises(TraceError, match="schema"):
            CampaignJournal.load(path)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = self.make(tmp_path, ("a#0", {"seed": 1}))
        with pytest.raises(TraceError, match="different campaign"):
            CampaignJournal.load(path, fingerprint="other")

    def test_unknown_kind_skipped(self, tmp_path):
        path = self.make(tmp_path, ("a#0", {"seed": 1}))
        with open(path, "a") as handle:
            handle.write('{"kind": "future-extension", "data": 42}\n')
        assert CampaignJournal.load(path, fingerprint="fp") == {
            "a#0": {"seed": 1}}

    def test_malformed_unit_record_rejected(self, tmp_path):
        path = self.make(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", "key": 3, "payload": {}}\n')
            handle.write('{"kind": "unit", "key": "ok", "payload": {}}\n')
        with pytest.raises(TraceError, match="malformed unit record"):
            CampaignJournal.load(path)

    def test_resume_after_torn_tail_keeps_every_unit(self, tmp_path):
        # A parent killed mid-append leaves a torn line; two resumed
        # runs must each append on a line of their own.
        path = self.make(tmp_path, ("a#0", {"seed": 1}))
        with open(path, "a") as handle:
            handle.write('{"kind": "unit", "key": "a#1", "payl')
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#1", {"seed": 2})
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#2", {"seed": 3})
        assert CampaignJournal.load(path, fingerprint="fp") == {
            "a#0": {"seed": 1}, "a#1": {"seed": 2}, "a#2": {"seed": 3}}
        assert all(json.loads(line) for line in path.read_text().splitlines())


class TestJournalHeartbeat:
    def test_unit_lines_carry_wall_time(self, tmp_path):
        path = tmp_path / "j.jsonl"
        before = time.time()
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#0", {"seed": 1})
        after = time.time()
        record = json.loads(path.read_text().splitlines()[1])
        assert before <= record["wall_time"] <= after

    def test_read_state_reports_last_progress(self, tmp_path):
        path = tmp_path / "j.jsonl"
        before = time.time()
        with CampaignJournal(path, fingerprint="fp") as journal:
            journal.record_unit("a#0", {"seed": 1})
            journal.record_unit("a#1", {"seed": 2})
        state = CampaignJournal.read_state(path, fingerprint="fp")
        assert isinstance(state, JournalState)
        assert sorted(state.units) == ["a#0", "a#1"]
        assert before <= state.last_progress_at <= time.time()
        # load() stays the plain-dict view of the same parse.
        assert CampaignJournal.load(path, fingerprint="fp") == state.units

    def test_newest_heartbeat_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"kind": "header", "schema": "%s", "fingerprint": "fp"}\n'
            '{"kind": "unit", "key": "a#0", "payload": {}, "wall_time": 50.0}\n'
            '{"kind": "unit", "key": "a#1", "payload": {}, "wall_time": 90.0}\n'
            '{"kind": "unit", "key": "a#2", "payload": {}, "wall_time": 70.0}\n'
            % JOURNAL_SCHEMA)
        state = CampaignJournal.read_state(path)
        assert state.last_progress_at == 90.0

    def test_legacy_journal_without_heartbeat(self, tmp_path):
        # Journals written before the wall_time field still load fully.
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"kind": "header", "schema": "%s", "fingerprint": "fp"}\n'
            '{"kind": "unit", "key": "a#0", "payload": {"seed": 1}}\n'
            % JOURNAL_SCHEMA)
        state = CampaignJournal.read_state(path, fingerprint="fp")
        assert state.units == {"a#0": {"seed": 1}}
        assert state.last_progress_at is None
