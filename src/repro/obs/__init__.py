"""repro.obs — run telemetry: logging, metrics, spans, manifests, profiling.

The observability layer of the reproduction (subsystems S14/S15 in
DESIGN.md).  Its pieces are composable but independently usable:

* :mod:`repro.obs.atomic` — atomic write-temp-then-rename artifact
  writes (:func:`atomic_write` and friends), shared by every durable
  artifact writer in the library so a crash never leaves a truncated
  file.
* :mod:`repro.obs.logger` — structured logging under the ``"repro"``
  stdlib-logging root, with human and JSON-lines sinks
  (:func:`configure_logging`, :func:`get_logger`).
* :mod:`repro.obs.metrics` — a name-keyed registry of counters,
  gauges, histograms (with p50/p90/p99 quantiles) and timers with
  near-zero cost when disabled.
* :mod:`repro.obs.spans` — nestable ``span(...)`` context managers
  that time pipeline stages and simulation phases.
* :mod:`repro.obs.manifest` — per-run manifest artifacts
  (``manifest.json`` + ``events.jsonl``) freezing config, seed,
  versions, stage durations, a metrics snapshot and the event log.
* :mod:`repro.obs.profile` — hot-path profiling hooks (wall/CPU time,
  call counts, peak RSS / traced-allocation peaks) attachable to any
  telemetry session via ``enable_telemetry(profile=True)``.
* :mod:`repro.obs.export` — exporters rendering sessions and saved
  manifests as Prometheus/OpenMetrics text, flat JSON or CSV.
* :mod:`repro.obs.live` — live watch sessions: the versioned
  ``repro.watch-events/1`` JSONL event stream and the
  :class:`LiveWatcher` that attaches an online aging monitor (plus
  alert rules) to a running machine or a replayed trace.
* :mod:`repro.obs.alerts` — the declarative alert-rule engine
  (threshold / rate-of-change / sustained-excursion rules over any
  counter or indicator, loaded from TOML/JSON).
* :mod:`repro.obs.dashboard` — self-contained HTML dashboards (inline
  SVG, no external resources) for one watch stream or a whole campaign
  of run manifests.
* :mod:`repro.obs.ops` — the campaign control plane's identity layer:
  cross-process trace contexts carried into pool workers, and the
  flight recorder (bounded ring buffer dumped as a
  ``repro.flight-record/1`` artifact on pool failure).
* :mod:`repro.obs.resources` — stdlib-only per-process resource
  sampling (/proc with rusage fallback) for the parent and pool
  workers, with a ``self_watch`` mode streaming the parent's RSS
  through an online aging monitor.
* :mod:`repro.obs.statusd` — the live localhost HTTP surface
  (``/status``, ``/metrics``, ``/healthz``, ``/timeline``) behind
  ``campaign --status-port`` / ``watch --status-port``.
* :mod:`repro.obs.timeline` — the control plane's historical dimension:
  the :class:`TimelineRecorder` background sampler writing
  ``repro.timeline/1`` JSONL artifacts (periodic frames + discrete
  annotations) behind ``campaign --timeline`` / ``watch --timeline``,
  plus the load/validate/slice/summarize/export helpers driving the
  ``timeline`` subcommand.
* :mod:`repro.obs.costs` — cross-worker cost attribution: folds the
  merged span tree into a ``repro.costs/1`` profile (wall/CPU share per
  pipeline phase, per worker and pooled, top cost centers).

Library code is instrumented against the *current telemetry session*
(:mod:`repro.obs.session`); the default session is disabled, so imports
and instrumentation are free until a driver opts in::

    from repro import obs

    obs.configure_logging("info")
    session = obs.enable_telemetry()
    ...                                   # run simulator / pipeline
    manifest = obs.build_manifest(session, command="simulate", seed=7)
    obs.write_manifest(manifest, "runs/seed7")
"""

from .atomic import (
    atomic_write,
    atomic_write_json,
    atomic_write_text,
    fsync_handle,
)
from .logger import (
    LOG_LEVELS,
    StructuredLogger,
    configure_logging,
    get_logger,
    reset_logging,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Timer
from .spans import SpanCollector, SpanRecord
from .session import (
    TelemetrySession,
    counter,
    current_session,
    disable_telemetry,
    enable_telemetry,
    gauge,
    histogram,
    record_event,
    span,
    telemetry_enabled,
    telemetry_session,
    timer,
)
from .manifest import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    MANIFEST_SCHEMA,
    RunManifest,
    build_manifest,
    load_manifests,
    read_manifest,
    write_manifest,
)
from .profile import (
    Profiler,
    ProfileRecord,
    active_profiler,
    peak_rss_bytes,
    profile,
    set_active_profiler,
)
from .export import (
    PrometheusWriter,
    flatten_metrics,
    manifests_to_csv,
    manifests_to_json,
    manifests_to_prometheus,
    scoreboard_to_prometheus,
    session_to_prometheus,
    span_tree_rows,
    timeline_to_prometheus,
    watch_events_to_prometheus,
)
from .alerts import (
    AlertEngine,
    AlertFiring,
    AlertRule,
    load_rules,
    parse_rules,
)
from .live import (
    WATCH_SCHEMA,
    EventStreamWriter,
    LiveWatcher,
    read_events,
    validate_event,
    validate_stream,
)
from .ops import (
    FLIGHT_SCHEMA,
    FlightRecorder,
    TraceContext,
    current_flight_recorder,
    current_trace,
    flight_dump,
    flight_note,
    install_flight_recorder,
    new_trace,
    trace_scope,
    uninstall_flight_recorder,
)
from .resources import (
    ProcessSample,
    ResourceSampler,
    SelfWatch,
    compact_resources,
    sample_process,
)
from .statusd import (
    STATUS_SCHEMA,
    StatusBoard,
    StatusServer,
)
from .timeline import (
    TIMELINE_SCHEMA,
    TimelineRecorder,
    read_timeline,
    slice_timeline,
    timeline_summary,
    timeline_to_csv,
    validate_timeline,
)
from .costs import (
    COSTS_SCHEMA,
    build_cost_profile,
    classify_hotpath,
    classify_span,
    cost_table,
)

__all__ = [
    # atomic artifact writes
    "atomic_write",
    "atomic_write_text",
    "atomic_write_json",
    "fsync_handle",
    # logging
    "LOG_LEVELS",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
    "reset_logging",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    # spans
    "SpanCollector",
    "SpanRecord",
    # session
    "TelemetrySession",
    "current_session",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
    "telemetry_session",
    "counter",
    "gauge",
    "histogram",
    "timer",
    "span",
    "record_event",
    # manifests
    "MANIFEST_SCHEMA",
    "MANIFEST_FILENAME",
    "EVENTS_FILENAME",
    "RunManifest",
    "build_manifest",
    "read_manifest",
    "write_manifest",
    "load_manifests",
    # profiling
    "Profiler",
    "ProfileRecord",
    "profile",
    "active_profiler",
    "set_active_profiler",
    "peak_rss_bytes",
    # exporters
    "PrometheusWriter",
    "flatten_metrics",
    "manifests_to_json",
    "manifests_to_csv",
    "manifests_to_prometheus",
    "scoreboard_to_prometheus",
    "session_to_prometheus",
    "span_tree_rows",
    "timeline_to_prometheus",
    "watch_events_to_prometheus",
    # alert rules
    "AlertRule",
    "AlertFiring",
    "AlertEngine",
    "parse_rules",
    "load_rules",
    # live watch streams
    "WATCH_SCHEMA",
    "EventStreamWriter",
    "LiveWatcher",
    "read_events",
    "validate_event",
    "validate_stream",
    # control plane: traces + flight recorder
    "FLIGHT_SCHEMA",
    "TraceContext",
    "new_trace",
    "current_trace",
    "trace_scope",
    "FlightRecorder",
    "install_flight_recorder",
    "uninstall_flight_recorder",
    "current_flight_recorder",
    "flight_note",
    "flight_dump",
    # resource sampling + self-watch
    "ProcessSample",
    "sample_process",
    "ResourceSampler",
    "SelfWatch",
    "compact_resources",
    # status surface
    "STATUS_SCHEMA",
    "StatusBoard",
    "StatusServer",
    # campaign timeline
    "TIMELINE_SCHEMA",
    "TimelineRecorder",
    "read_timeline",
    "validate_timeline",
    "slice_timeline",
    "timeline_summary",
    "timeline_to_csv",
    # cost attribution
    "COSTS_SCHEMA",
    "build_cost_profile",
    "classify_span",
    "classify_hotpath",
    "cost_table",
]
