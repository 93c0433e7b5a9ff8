"""Per-run manifest artifacts: what ran, how long, what it saw.

A :class:`RunManifest` is the durable record of one CLI invocation (or
any embedding-defined "run"): command, configuration, seed, component
versions, wall-clock envelope, completed stage spans, a metrics
snapshot, the event log, a hot-path profile (when the session ran with
profiling on), and a command-specific ``outcome`` block.

On disk a run is a directory::

    <out>/
      manifest.json    # the full manifest, one pretty-printed object
      events.jsonl     # the event log again, one JSON object per line

``events.jsonl`` duplicates ``manifest["events"]`` on purpose: line-
oriented logs can be tailed, grepped and concatenated across runs
without parsing the whole manifest, which is how fleet-scale tooling
wants to consume them.

:func:`load_manifests` accepts a single ``manifest.json``, a run
directory, or a directory of run directories, so ``python -m repro
telemetry <path>`` summarises one run or a whole campaign archive with
the same invocation.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..exceptions import TraceError, ValidationError
from .atomic import atomic_write_json
from .jsonl import write_jsonl
from .session import TelemetrySession

__all__ = [
    "MANIFEST_SCHEMA",
    "MANIFEST_FILENAME",
    "EVENTS_FILENAME",
    "RunManifest",
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "load_manifests",
]

MANIFEST_SCHEMA = "repro.run-manifest/1"
MANIFEST_FILENAME = "manifest.json"
EVENTS_FILENAME = "events.jsonl"


def _versions() -> Dict[str, str]:
    import numpy

    from .. import __version__

    return {
        "repro": __version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


@dataclass
class RunManifest:
    """Everything worth keeping about one run, JSON-able as-is."""

    command: str
    config: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None
    versions: Dict[str, str] = field(default_factory=_versions)
    started_at: float = field(default_factory=time.time)
    finished_at: Optional[float] = None
    spans: List[dict] = field(default_factory=list)
    metrics: Dict[str, dict] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    profile: Dict[str, object] = field(default_factory=dict)
    outcome: Dict[str, object] = field(default_factory=dict)
    schema: str = MANIFEST_SCHEMA

    @property
    def wall_seconds(self) -> Optional[float]:
        """Total wall-clock duration, once finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def events_of(self, kind: str) -> List[dict]:
        """Every recorded event of one kind, in order (mirrors the
        session-side helper, so consumers aggregate live sessions and
        archived runs with the same code)."""
        return [e for e in self.events if e.get("kind") == kind]

    def stage_durations(self) -> Dict[str, float]:
        """Completed span path → summed duration in seconds."""
        out: Dict[str, float] = {}
        for record in self.spans:
            if record.get("duration") is None:
                continue
            path = record["path"]
            out[path] = out.get(path, 0.0) + float(record["duration"])
        return out

    def to_dict(self) -> dict:
        """Plain-dict form written to ``manifest.json``."""
        return {
            "schema": self.schema,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "versions": self.versions,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "spans": self.spans,
            "metrics": self.metrics,
            "events": self.events,
            "profile": self.profile,
            "outcome": self.outcome,
        }


def build_manifest(
    session: TelemetrySession,
    *,
    command: str,
    config: Optional[Dict[str, object]] = None,
    seed: Optional[int] = None,
    outcome: Optional[Dict[str, object]] = None,
) -> RunManifest:
    """Freeze a telemetry session into a finished manifest."""
    if not command:
        raise ValidationError("manifest command must be non-empty")
    return RunManifest(
        command=command,
        config=dict(config or {}),
        seed=seed,
        started_at=session.started_at,
        finished_at=time.time(),
        spans=session.spans.to_list(),
        metrics=session.metrics.snapshot(),
        events=list(session.events),
        profile=session.profiler.snapshot() if session.profiler else {},
        outcome=dict(outcome or {}),
    )


def write_manifest(manifest: RunManifest, out_dir: str | os.PathLike) -> str:
    """Write ``manifest.json`` + ``events.jsonl`` under ``out_dir``.

    Creates the directory as needed; returns the manifest path.  Both
    files are written atomically (temp + rename), and the event log is
    written *before* the manifest: a crash mid-write can never leave a
    ``manifest.json`` pointing at a truncated or missing event log.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, MANIFEST_FILENAME)
    write_jsonl(os.path.join(out_dir, EVENTS_FILENAME), manifest.events)
    atomic_write_json(manifest_path, manifest.to_dict(), default=str)
    return manifest_path


def read_manifest(path: str | os.PathLike) -> RunManifest:
    """Read one ``manifest.json`` back into a :class:`RunManifest`."""
    with open(path, "r") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceError(f"corrupt manifest {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceError(f"corrupt manifest {path}: expected a JSON object")
    schema = payload.get("schema")
    if schema != MANIFEST_SCHEMA:
        raise TraceError(
            f"unsupported manifest schema {schema!r} in {path} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    return RunManifest(
        command=payload["command"],
        config=payload.get("config", {}),
        seed=payload.get("seed"),
        versions=payload.get("versions", {}),
        started_at=payload.get("started_at", 0.0),
        finished_at=payload.get("finished_at"),
        spans=payload.get("spans", []),
        metrics=payload.get("metrics", {}),
        events=payload.get("events", []),
        profile=payload.get("profile", {}),
        outcome=payload.get("outcome", {}),
    )


def load_manifests(path: str | os.PathLike) -> List[RunManifest]:
    """Load every manifest reachable from ``path``.

    Accepts a ``manifest.json`` file, a run directory containing one,
    or a directory whose immediate subdirectories are run directories.
    Results are ordered by ``started_at``.
    """
    path = os.fspath(path)
    found: List[str] = []
    if os.path.isfile(path):
        found.append(path)
    elif os.path.isdir(path):
        direct = os.path.join(path, MANIFEST_FILENAME)
        if os.path.isfile(direct):
            found.append(direct)
        for entry in sorted(os.listdir(path)):
            nested = os.path.join(path, entry, MANIFEST_FILENAME)
            if os.path.isfile(nested):
                found.append(nested)
    else:
        raise TraceError(f"no manifest at {path!r}")
    if not found:
        raise TraceError(f"no {MANIFEST_FILENAME} found under {path!r}")
    manifests = [read_manifest(p) for p in found]
    manifests.sort(key=lambda m: m.started_at)
    return manifests
