"""Live watch sessions: a versioned JSONL event stream over a running host.

The offline tooling (PR 1/2) explains a run *after* it finished; this
module is the live surface the paper's operational story needs — an
analyst watching the windowed Hölder indicator of a running host and
raising a crash warning before failure.  Three pieces:

* the **event schema** ``repro.watch-events/1``: one JSON object per
  line, every event carrying ``kind`` + simulation time ``t``.  Kinds:
  ``header`` (stream identity: source, counter, monitor config, alert
  rules), ``sample`` (counter samples, optionally decimated),
  ``indicator`` (Hölder indicator points), ``detector_state`` (monitor
  lifecycle transitions), ``alarm`` (the detector's latched warning),
  ``alert`` (rule-engine firings), ``status`` (periodic heartbeat),
  ``crash`` and ``end`` (termination summary).  Streams are validated
  line-by-line (:func:`validate_event`, :func:`validate_stream`) so a
  consumer never has to guess at half-written or foreign files; the
  line format and damage policy are :mod:`repro.obs.jsonl`'s.
* :class:`EventStreamWriter` — emits schema-valid events to a line
  handle (flushing per line, so streams can be tailed), mirrors alert
  firings into the current telemetry session as events plus
  Prometheus-compatible counters, and keeps per-kind counts.
* :class:`LiveWatcher` — glues an
  :class:`~repro.core.online.OnlineAgingMonitor` and an optional
  :class:`~repro.obs.alerts.AlertEngine` to a sample source: either a
  live :class:`~repro.memsim.machine.Machine` (attached as an in-sim
  periodic poller over the counter sampler) or a replayed trace bundle.

The dashboard (:mod:`repro.obs.dashboard`) renders these streams; the
CLI front end is ``python -m repro watch``.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, Optional, Sequence, TextIO

from ..exceptions import TraceError
from .alerts import AlertEngine, AlertFiring
from .jsonl import check_stream, read_jsonl, write_record
from .logger import get_logger
from . import session as _obs

__all__ = [
    "WATCH_SCHEMA",
    "EVENT_KINDS",
    "validate_event",
    "validate_stream",
    "read_events",
    "EventStreamWriter",
    "LiveWatcher",
]

WATCH_SCHEMA = "repro.watch-events/1"

_log = get_logger("obs.live")

# Required fields per event kind, beyond the envelope ("kind" + "t").
_REQUIRED_FIELDS: Dict[str, tuple] = {
    "header": ("schema", "counter", "source", "monitor", "rules"),
    "sample": ("value",),
    "indicator": ("value", "n"),
    "detector_state": ("state", "previous"),
    "alarm": ("indicator", "value", "baseline"),
    "alert": ("rule", "severity", "signal", "value", "message"),
    "status": ("state", "n_samples", "n_indicators", "alerts_fired"),
    "crash": ("reason",),
    "end": ("n_samples", "n_indicators", "state", "alarm_time",
            "crash_time", "lead_time", "alerts"),
}

EVENT_KINDS = tuple(_REQUIRED_FIELDS)

_NUMERIC_FIELDS = {
    "sample": ("value",),
    "indicator": ("value",),
    "alarm": ("indicator", "value", "baseline"),
    "alert": ("value",),
}


def validate_event(event: object, *, where: str = "event") -> dict:
    """Check one event against the schema; returns it, raises TraceError.

    ``where`` names the event in error messages (e.g. ``"line 17"``).
    """
    if not isinstance(event, dict):
        raise TraceError(f"{where}: expected a JSON object, got {type(event).__name__}")
    kind = event.get("kind")
    if kind not in _REQUIRED_FIELDS:
        raise TraceError(
            f"{where}: unknown event kind {kind!r} (known: {EVENT_KINDS})")
    t = event.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool) or not math.isfinite(t):
        raise TraceError(f"{where}: {kind} event needs a finite numeric 't'")
    missing = [f for f in _REQUIRED_FIELDS[kind] if f not in event]
    if missing:
        raise TraceError(f"{where}: {kind} event missing field(s) {missing}")
    for name in _NUMERIC_FIELDS.get(kind, ()):
        value = event[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TraceError(
                f"{where}: {kind} event field {name!r} must be numeric, "
                f"got {value!r}")
    if kind == "header" and event["schema"] != WATCH_SCHEMA:
        raise TraceError(
            f"{where}: unsupported stream schema {event['schema']!r} "
            f"(expected {WATCH_SCHEMA!r})")
    return event


def validate_stream(events: Sequence[dict]) -> Dict[str, int]:
    """Validate every event, then the stream as a whole
    (:func:`repro.obs.jsonl.check_stream`); returns per-kind counts."""
    for i, event in enumerate(events):
        validate_event(event, where=f"event {i}")
    return check_stream(events, schema=WATCH_SCHEMA, name="watch",
                        kinds=EVENT_KINDS)


def read_events(path: str | os.PathLike, *, validate: bool = True) -> List[dict]:
    """Read a JSONL watch stream back; validates by default."""
    events, _ = read_jsonl(path, name="watch")
    if validate:
        validate_stream(events)
    return events


class EventStreamWriter:
    """Emit schema-valid watch events as JSON lines.

    Parameters
    ----------
    handle:
        Writable text handle (each event is flushed, so ``tail -f``
        works on live streams).  ``None`` keeps counts (and optionally
        the events) without writing anywhere.
    keep:
        Retain every emitted event in :attr:`events` (in-memory
        consumers: tests, direct dashboard rendering).
    """

    def __init__(self, handle: Optional[TextIO] = None, *, keep: bool = False) -> None:
        self._handle = handle
        self._keep = keep
        self.events: List[dict] = []
        self.counts: Dict[str, int] = {}
        self._last_t: Optional[float] = None

    @property
    def n_events(self) -> int:
        """Events emitted so far."""
        return sum(self.counts.values())

    @property
    def last_t(self) -> Optional[float]:
        """Time of the newest event (None before the first)."""
        return self._last_t

    def emit(self, kind: str, t: float, **fields) -> dict:
        """Build, validate and write one event; returns the event dict."""
        event = {"kind": kind, "t": float(t)}
        event.update(fields)
        validate_event(event)
        if self._last_t is not None and event["t"] < self._last_t:
            raise TraceError(
                f"watch events must not go backwards in time "
                f"({event['t']} after {self._last_t})")
        self._last_t = event["t"]
        if self._handle is not None:
            write_record(self._handle, event)
        if self._keep:
            self.events.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        _obs.counter("watch.events").inc()
        return event

    def emit_alert(self, firing: AlertFiring) -> dict:
        """Emit one rule firing, mirrored into the telemetry session."""
        event = self.emit(
            "alert", firing.time, rule=firing.rule, severity=firing.severity,
            signal=firing.signal, value=firing.value, message=firing.message,
        )
        _obs.record_event("alert", sim_time=firing.time, rule=firing.rule,
                          severity=firing.severity, signal=firing.signal,
                          value=firing.value)
        _obs.counter("watch.alerts_fired").inc()
        _obs.counter(f"watch.alerts_fired.{firing.rule}").inc()
        return event


class LiveWatcher:
    """Attach an online monitor + alert rules to a live sample stream.

    One watcher observes one counter.  Feed it samples directly
    (:meth:`feed`), replay a recorded bundle (:meth:`replay`), or attach
    it to a running machine (:meth:`attach` before ``machine.run()``),
    then :meth:`finalize` to close the stream with ``crash``/``end``
    events and get the session summary.

    Parameters
    ----------
    monitor:
        The :class:`~repro.core.online.OnlineAgingMonitor` to drive (its
        ``on_indicator``/``on_state_change`` callbacks are taken over).
    writer:
        Destination event stream (a fresh in-memory one by default).
    engine:
        Optional :class:`~repro.obs.alerts.AlertEngine`; counter samples
        are offered under the counter's name, indicator points under
        ``"indicator"``.
    counter:
        Counter this watcher observes.
    status_every:
        Simulated seconds between ``status`` heartbeat events (0
        disables them).
    sample_every:
        Record every Nth counter sample in the stream (decimation keeps
        multi-day streams tailable; the monitor always sees every
        sample).  0 suppresses ``sample`` events entirely.
    on_status:
        Optional callback receiving each status event (CLI live lines).
    """

    def __init__(
        self,
        monitor,
        *,
        writer: Optional[EventStreamWriter] = None,
        engine: Optional[AlertEngine] = None,
        counter: str = "AvailableBytes",
        status_every: float = 600.0,
        sample_every: int = 1,
        on_status: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if sample_every < 0:
            raise TraceError(f"sample_every must be >= 0, got {sample_every}")
        if status_every < 0:
            raise TraceError(f"status_every must be >= 0, got {status_every}")
        self.monitor = monitor
        self.writer = writer if writer is not None else EventStreamWriter(keep=True)
        self.engine = engine
        self.counter = counter
        self.status_every = status_every
        self.sample_every = sample_every
        self.on_status = on_status
        self.n_samples = 0
        self.n_dropped = 0
        self._n_indicators = 0
        self._last_value: Optional[float] = None
        self._last_status_t: Optional[float] = None
        self._finalized = False
        self._header_written = False
        self._cursor = 0
        monitor.on_indicator = self._on_indicator
        monitor.on_state_change = self._on_state_change

    # -- stream lifecycle ------------------------------------------------------

    def write_header(self, source: Dict[str, object], *, t: float = 0.0) -> None:
        """Open the stream: schema, source identity, config, rule set."""
        if self._header_written:
            raise TraceError("watch stream header already written")
        monitor = self.monitor
        rules = [] if self.engine is None else [
            {"name": r.name, "signal": r.signal, "kind": r.kind,
             "condition": r.condition, "severity": r.severity}
            for r in self.engine.rules
        ]
        self.writer.emit(
            "header", t, schema=WATCH_SCHEMA, counter=self.counter,
            source=dict(source),
            monitor={
                "chunk_size": monitor.chunk_size,
                "history": monitor.history,
                "indicator_window": monitor.indicator_window,
                "indicator": monitor.indicator,
                "n_warmup": monitor.n_warmup,
                "n_calibration": monitor.n_calibration,
                "cusum_k": monitor.cusum_k,
                "cusum_h": monitor.cusum_h,
            },
            rules=rules,
        )
        self._header_written = True

    def feed(self, t: float, value: float) -> None:
        """Push one counter sample through stream + rules + monitor.

        Non-finite samples (collector gaps in replayed traces) are
        counted and dropped — a gap must never become a spurious alarm.
        """
        if not self._header_written:
            raise TraceError("write_header() must precede feed()")
        t = float(t)
        value = float(value)
        if not math.isfinite(t) or not math.isfinite(value):
            self.n_dropped += 1
            _obs.counter("watch.dropped_samples").inc()
            return
        self.n_samples += 1
        self._last_value = value
        if self.sample_every and (self.n_samples - 1) % self.sample_every == 0:
            self.writer.emit("sample", t, value=value)
        if self.engine is not None:
            for firing in self.engine.observe(self.counter, t, value):
                self.writer.emit_alert(firing)
        self.monitor.update(t, value)
        if self._last_status_t is None:
            self._last_status_t = t
        elif self.status_every and t - self._last_status_t >= self.status_every:
            self._last_status_t = t
            self._emit_status(t)

    def replay(self, bundle) -> Dict[str, object]:
        """Replay a recorded :class:`~repro.trace.series.TraceBundle`.

        Writes the header (source type ``replay``), feeds every sample
        of the watched counter, then finalizes against the bundle's
        ground-truth crash metadata.  Returns the end-event summary.
        """
        if self.counter not in bundle:
            raise TraceError(
                f"no counter {self.counter!r} in bundle; "
                f"available: {bundle.names}")
        series = bundle[self.counter]
        meta = bundle.metadata
        source = {"type": "replay"}
        for key in ("os_profile", "seed", "duration"):
            if key in meta:
                source[key] = meta[key]
        self.write_header(source, t=float(series.times[0]))
        for t, value in zip(series.times, series.values):
            self.feed(t, value)
        crash_time = meta.get("crash_time")
        return self.finalize(
            crash_time=None if crash_time is None else float(crash_time),
            crash_reason=meta.get("crash_reason"),
        )

    # -- live attachment -------------------------------------------------------

    def attach(self, machine, *, poll_interval: Optional[float] = None) -> None:
        """Schedule this watcher as an in-sim periodic poller.

        Call before ``machine.run()``; the watcher drains new sampler
        output every ``poll_interval`` simulated seconds (default: 16
        sampling intervals), so events interleave with the simulation at
        the right times.  After the run, :meth:`finalize` drains the
        tail and closes the stream.
        """
        interval = (poll_interval if poll_interval is not None
                    else 16.0 * machine.config.sampling_interval)
        if interval <= 0:
            raise TraceError(f"poll_interval must be positive, got {interval}")
        self._machine = machine
        if not self._header_written:
            config = machine.config
            self.write_header({
                "type": "simulation",
                "os_profile": config.os_profile,
                "seed": config.seed,
                "max_run_seconds": config.max_run_seconds,
            })

        def poll() -> None:
            self.drain(machine.sampler)
            if not machine.crashed:
                machine.sim.schedule_in(interval, poll, label="watch.poll")

        machine.sim.schedule_in(interval, poll, label="watch.poll")

    def drain(self, sampler) -> int:
        """Feed every sample collected since the last drain; returns count."""
        times, values, self._cursor = sampler.read_since(self.counter, self._cursor)
        for t, value in zip(times, values):
            self.feed(t, value)
        return len(times)

    def finalize(
        self,
        *,
        crash_time: Optional[float] = None,
        crash_reason: Optional[str] = None,
        t: Optional[float] = None,
    ) -> Dict[str, object]:
        """Close the stream: drain the tail, emit ``crash`` + ``end``.

        Returns the ``end`` event (the machine-readable session summary).
        """
        if self._finalized:
            raise TraceError("watch session already finalized")
        self._finalized = True
        machine = getattr(self, "_machine", None)
        if machine is not None:
            self.drain(machine.sampler)
            if crash_time is None and machine.crashed:
                crash_time = machine.crash_time
                crash_reason = machine.crash_reason
        end_t = t
        if end_t is None:
            end_t = self.writer.last_t if self.writer.last_t is not None else 0.0
        if crash_time is not None:
            end_t = max(end_t, float(crash_time))
            self.writer.emit("crash", float(crash_time),
                             reason=crash_reason or "unknown")
        alarm_time = self.monitor.alarm_time
        lead = None
        if alarm_time is not None and crash_time is not None:
            lead = float(crash_time) - float(alarm_time)
        alerts = {} if self.engine is None else self.engine.counts()
        end = self.writer.emit(
            "end", end_t,
            n_samples=self.n_samples,
            n_dropped=self.n_dropped,
            n_indicators=self._n_indicators,
            state=self.monitor.state,
            alarm_time=alarm_time,
            crash_time=crash_time,
            crash_reason=crash_reason,
            lead_time=lead,
            alerts=alerts,
        )
        _log.info("watch session finished", n_samples=self.n_samples,
                  state=self.monitor.state,
                  alarm_time=alarm_time if alarm_time is not None else "none",
                  crash_time=crash_time if crash_time is not None else "none")
        return end

    # -- monitor callbacks -----------------------------------------------------

    def _on_indicator(self, t: float, value: float) -> None:
        self._n_indicators += 1
        self.writer.emit("indicator", t, value=value, n=self._n_indicators)
        if self.engine is not None:
            for firing in self.engine.observe("indicator", t, value):
                self.writer.emit_alert(firing)

    def _on_state_change(self, t: float, old: str, new: str) -> None:
        self.writer.emit("detector_state", t, state=new, previous=old)
        if new == "alarmed":
            point = float(self.monitor.indicator_history[-1])
            self.writer.emit(
                "alarm", t, indicator=point,
                value=point, baseline=self.monitor.baseline_mean,
            )
            _obs.counter("watch.alarms").inc()

    # -- status ----------------------------------------------------------------

    def _emit_status(self, t: float) -> None:
        event = self.writer.emit(
            "status", t,
            state=self.monitor.state,
            n_samples=self.n_samples,
            n_indicators=self._n_indicators,
            alerts_fired=0 if self.engine is None else self.engine.total_fired,
            value=self._last_value,
        )
        if self.on_status is not None:
            self.on_status(event)
