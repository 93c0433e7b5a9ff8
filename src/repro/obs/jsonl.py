"""Append-only JSON-lines streams: one line format, one damage policy.

The watch stream, the campaign timeline, the checkpoint journal and a
run's ``events.jsonl`` all write and read through this module: one
flushed JSON object per line, blank lines skipped, a torn final line
after a complete header dropped, and any other damage a
:class:`~repro.exceptions.TraceError` naming the path and line
(docs/OBSERVABILITY.md, "Append-only JSONL streams")."""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from ..exceptions import TraceError
from .atomic import atomic_write, fsync_handle

__all__ = ["write_record", "write_jsonl", "open_append", "read_jsonl",
           "check_stream"]


def write_record(handle: TextIO, record: dict, *,
                 durable: bool = False) -> None:
    """Write ``record`` as one flushed JSON line; ``durable`` also fsyncs
    it.  Values JSON cannot encode are written as their ``str``."""
    handle.write(json.dumps(record, default=str) + "\n")
    if durable:
        fsync_handle(handle)
    else:
        handle.flush()


def write_jsonl(path: str | os.PathLike, records: Sequence[dict]) -> None:
    """Atomically replace ``path`` with ``records``."""
    with atomic_write(path) as handle:
        for record in records:
            write_record(handle, record)


def open_append(path: str | os.PathLike) -> TextIO:
    """Open ``path`` for appending, first cutting it back to its last
    newline: a torn final line goes, and the next record starts a line
    of its own."""
    with open(path, "a+b") as raw:
        raw.seek(0)
        raw.truncate(raw.read().rfind(b"\n") + 1)
    return open(path, "a", encoding="utf-8")


def read_jsonl(path: str | os.PathLike,
               *, name: str) -> Tuple[List[dict], Optional[int]]:
    """Read ``path``'s records; returns them and the line number of a
    dropped torn final line (or None).  ``name`` labels errors."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(n, line) for n, line in enumerate(handle, start=1)
                 if line.strip()]
    records: List[dict] = []
    for n, line in lines:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if (n == lines[-1][0] and records
                    and records[0].get("kind") == "header"):
                return records, n
            raise TraceError(f"corrupt {name} line {n} in {path}: "
                             f"bad JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise TraceError(f"{name} line {n} in {path} is not a JSON object")
        records.append(record)
    return records, None


def check_stream(records: Sequence[dict], *, schema: str, name: str,
                 kinds: Optional[Sequence[str]] = None) -> Dict[str, int]:
    """Checks every headed stream shares; returns per-kind counts.

    A header carrying ``schema`` comes first and never again.  ``kinds``
    marks a timed stream: only those kinds, a finite ``t`` that never
    decreases, nothing after ``end``.  The journal passes none."""
    if not records:
        raise TraceError(f"empty {name} stream")
    head = records[0]
    if head.get("kind") != "header":
        raise TraceError(f"{name} stream must start with a header record, "
                         f"got {head.get('kind')!r}")
    if head.get("schema") != schema:
        raise TraceError(f"unsupported {name} schema {head.get('schema')!r} "
                         f"(expected {schema!r})")
    counts: Dict[str, int] = {}
    last_t = -math.inf
    for n, record in enumerate(records, start=1):
        kind, t = record.get("kind"), record.get("t")
        if kind == "header" and n > 1:
            raise TraceError(f"duplicate header in {name} stream at record {n}")
        if kinds is not None:
            if kind not in kinds:
                raise TraceError(f"unknown {name} record kind {kind!r} "
                                 f"at record {n}")
            if "end" in counts:
                raise TraceError(f"{name} record after the end record "
                                 f"at record {n}")
            if (not isinstance(t, (int, float)) or isinstance(t, bool)
                    or not math.isfinite(t)):
                raise TraceError(f"{name} record {n} lacks a finite t")
            if t < last_t:
                raise TraceError(f"{name} time goes backwards at record {n} "
                                 f"(non-monotone: {t} after {last_t})")
            last_t = t
        counts[kind] = counts.get(kind, 0) + 1
    return counts
