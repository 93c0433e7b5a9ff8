"""Append-only checkpoint journals for campaign execution.

A campaign is hours of simulation whose parent process can itself be
killed — the stress-to-crash methodology applies to the harness as much
as to the hosts it simulates.  The journal makes finished work durable
the moment it completes:

* one **header** line carrying the journal schema and a fingerprint of
  the campaign configuration (specs + seeds), so a journal can never be
  replayed against a different campaign;
* one **unit** line per completed work unit (``key`` + JSON payload),
  appended with an ``fsync`` per line so a SIGKILL at any instant loses
  at most the unit in flight.

Crash damage follows the policy every append-only stream shares
(:mod:`repro.obs.jsonl`); on top of it the journal rejects foreign
schemas and fingerprint mismatches.  Because completed units are keyed
by a config/seed fingerprint and the work itself is deterministic,
``campaign --resume`` produces a payload bit-identical to an
uninterrupted run.

The journal is deliberately campaign-agnostic (keys and JSON payloads),
so fleet-scale tooling can reuse it for any resumable unit-of-work map.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..exceptions import TraceError, ValidationError
from ..obs import session as _obs
from ..obs.jsonl import check_stream, open_append, read_jsonl, write_record
from ..obs.logger import get_logger

__all__ = [
    "JOURNAL_SCHEMA",
    "config_fingerprint",
    "CampaignJournal",
    "JournalState",
]

JOURNAL_SCHEMA = "repro.campaign-journal/1"

_log = get_logger("analysis.checkpoint")


@dataclass
class JournalState:
    """Everything :meth:`CampaignJournal.read_state` recovers from disk.

    ``last_progress_at`` is the newest unit heartbeat (wall-clock
    seconds since the epoch), or None for journals written before
    heartbeats existed — resume stays backward compatible.
    """

    units: Dict[str, dict] = field(default_factory=dict)
    last_progress_at: Optional[float] = None


def config_fingerprint(config: object) -> str:
    """Stable fingerprint of a JSON-able configuration object.

    Canonical-JSON SHA-256, truncated to 16 hex chars — collisions are
    irrelevant at that length for "is this the same campaign?" checks,
    and short enough to read in a journal header or error message.
    """
    try:
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise ValidationError(
            f"fingerprint config must be JSON-able: {exc}") from None
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class CampaignJournal:
    """Append-only JSONL journal of completed work units.

    Open for appending with the constructor (writes/validates the
    header), read back with :meth:`load`.  Usable as a context manager.
    """

    def __init__(self, path: str | os.PathLike, *, fingerprint: str):
        self.path = os.fspath(path)
        self.fingerprint = fingerprint
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        fresh = not (os.path.exists(self.path)
                     and os.path.getsize(self.path) > 0)
        if not fresh:
            # Appending to an existing journal: it must belong to this
            # campaign.  load() validates header + fingerprint, and
            # open_append() trims a torn tail left by a killed run.
            self.load(self.path, fingerprint=fingerprint)
        self._handle = open_append(self.path)
        if fresh:
            self._append({"kind": "header", "schema": JOURNAL_SCHEMA,
                          "fingerprint": fingerprint})

    def _append(self, record: dict) -> None:
        write_record(self._handle, record, durable=True)

    def record_unit(self, key: str, payload: dict) -> None:
        """Durably journal one completed unit (flushed + fsynced).

        Each unit line carries a ``wall_time`` heartbeat so a resumed
        (or scraped) campaign can report when the journal last made
        progress.  Readers that predate the field ignore it.
        """
        if not key:
            raise ValidationError("journal unit key must be non-empty")
        self._append({"kind": "unit", "key": key, "payload": payload,
                      "wall_time": time.time()})
        _obs.counter("campaign.journal_units").inc()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    @classmethod
    def load(
        cls,
        path: str | os.PathLike,
        *,
        fingerprint: Optional[str] = None,
    ) -> Dict[str, dict]:
        """Read a journal back as ``{key: payload}``.

        Validates the header schema and (when given) the campaign
        fingerprint.  A torn final line is dropped with a warning and a
        ``campaign.journal_truncated`` count.  Duplicate keys keep the
        first record (units are deterministic, so later duplicates are
        identical re-executions).
        """
        return cls.read_state(path, fingerprint=fingerprint).units

    @classmethod
    def read_state(
        cls,
        path: str | os.PathLike,
        *,
        fingerprint: Optional[str] = None,
    ) -> JournalState:
        """Like :meth:`load`, but return the full :class:`JournalState`
        (units plus the last-progress heartbeat)."""
        path = os.fspath(path)
        records, torn = read_jsonl(path, name="journal")
        if torn is not None:
            _log.warning("dropping truncated final journal line "
                         "(crash mid-append)", path=path, line=torn)
            _obs.counter("campaign.journal_truncated").inc()
        check_stream(records, schema=JOURNAL_SCHEMA, name="journal")
        if (fingerprint is not None
                and records[0].get("fingerprint") != fingerprint):
            raise TraceError(
                f"journal {path} belongs to a different campaign "
                f"(fingerprint {records[0].get('fingerprint')!r}, "
                f"expected {fingerprint!r}); refusing to resume")
        units: Dict[str, dict] = {}
        last_progress_at: Optional[float] = None
        for n, record in enumerate(records[1:], start=2):
            kind = record.get("kind")
            if kind == "unit":
                key = record.get("key")
                payload = record.get("payload")
                if not isinstance(key, str) or not isinstance(payload, dict):
                    raise TraceError(f"malformed unit record {n} in {path}")
                units.setdefault(key, payload)
                heartbeat = record.get("wall_time")
                if isinstance(heartbeat, (int, float)):
                    if (last_progress_at is None
                            or heartbeat > last_progress_at):
                        last_progress_at = float(heartbeat)
            else:
                # Unknown-but-well-formed kinds are skipped so newer
                # journal writers stay readable by older tools.
                _log.warning("skipping unknown journal record kind",
                             path=path, record=n, kind=kind)
        return JournalState(units=units, last_progress_at=last_progress_at)
