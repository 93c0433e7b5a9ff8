"""Declarative experiment campaigns over the simulator and analysis chain.

An :class:`ExperimentSpec` names everything that distinguishes one
experimental cell; :func:`run_campaign` executes a list of cells, each as
a fleet of seeded runs analysed with the configured detector, and
returns aggregates ready for tabulation.  This is the machinery behind
the multi-run experiments (T3/T4/A2-style studies) exposed as a public
API for downstream parameter studies.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_choice, check_positive, check_positive_int
from ..core.detectors import DetectorConfig
from ..core.engines import holder_engine_names
from ..exceptions import AnalysisError, ExecutionError, ValidationError
from ..memsim.machine import FLEET_ENGINES
from ..memsim.scenarios import SCENARIO_NAMES, build_scenario
from ..obs import get_logger
from ..obs import ops as _ops
from ..obs import session as _obs
from ..perf.pool import parallel_map, resilient_map, resolve_workers
from ..stats.roc import DetectionOutcome, score_detections
from ..testing.chaos import ChaosError, ChaosSpec, chaos_pre_unit
from .checkpoint import CampaignJournal, config_fingerprint
from .detector_registry import detector_names, evaluate_detector

_log = get_logger("analysis.campaign")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experimental cell.

    Attributes
    ----------
    name:
        Label used in result tables (must be unique in a campaign).
    scenario:
        One of :data:`repro.memsim.scenarios.SCENARIO_NAMES`.
    profile:
        ``"nt4"`` or ``"w2k"``.
    n_runs:
        Number of seeded runs in the cell.
    base_seed:
        Seed of the first run (run i uses ``base_seed + i``).
    fault_factor:
        Aging-intensity multiplier (0 disables aging via the scenario's
        fault scaling — use a healthy cell for false-alarm accounting).
    counter:
        Counter the detector monitors.
    indicator:
        ``"mean"`` or ``"variance"`` Hölder moment.
    detector:
        Detector configuration (consumed by the Hölder family).
    detector_name:
        Which registered detector family scores the cell's runs (see
        :mod:`repro.analysis.detector_registry`); ``"holder"`` is the
        legacy default and keeps alarms bit-identical to pre-registry
        campaigns.
    holder_engine:
        Which registered :class:`~repro.core.engines.HolderEngine`
        computes Hölder trajectories for the Hölder detector family.
        Full-window estimates are identical across engines (protocol
        contract), so payloads are bit-identical whichever is selected.
    collect_scores:
        Record per-run peak decision statistics (healthy vs pre-crash)
        for scoreboard ROC sweeps.  Observation-only — alarm times are
        identical with it on or off.
    max_run_seconds:
        Simulation budget per run.
    engine:
        Simulation core for the cell's runs: ``"object"`` (one
        :class:`~repro.memsim.machine.Machine` per run through the
        discrete-event kernel) or ``"vector"`` (the whole cell advanced
        per tick by :class:`~repro.memsim.fleet_vec.VectorFleet`; the
        fleet is presimulated as one pool unit and the run units only
        analyse).  Detector plumbing, journaling and aggregation are
        engine-agnostic.
    """

    name: str
    scenario: str = "stress"
    profile: str = "nt4"
    n_runs: int = 3
    base_seed: int = 0
    fault_factor: float = 1.0
    counter: str = "AvailableBytes"
    indicator: str = "mean"
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    detector_name: str = "holder"
    holder_engine: str = "batch"
    collect_scores: bool = True
    max_run_seconds: float = 80_000.0
    engine: str = "object"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("spec name must be non-empty")
        check_choice(self.scenario, name="scenario", choices=SCENARIO_NAMES)
        check_choice(self.profile, name="profile", choices=("nt4", "w2k"))
        check_positive_int(self.n_runs, name="n_runs")
        check_choice(self.indicator, name="indicator", choices=("mean", "variance"))
        check_choice(self.detector_name, name="detector_name",
                     choices=detector_names())
        check_choice(self.holder_engine, name="holder_engine",
                     choices=holder_engine_names())
        check_positive(self.max_run_seconds, name="max_run_seconds")
        check_choice(self.engine, name="engine", choices=FLEET_ENGINES)
        if self.fault_factor < 0:
            raise ValidationError("fault_factor must be non-negative")


@dataclass(frozen=True)
class RunRecord:
    """Per-run outcome within a cell.

    ``detector`` names the registry family that scored the run;
    ``peak_healthy``/``peak_precrash`` are its peak decision statistics
    over the run's healthy and pre-crash segments (None when score
    collection was off, the segment was empty, or the record predates
    the scoreboard — the defaults keep v1 journals and results loadable).
    """

    seed: int
    crashed: bool
    crash_time: Optional[float]
    crash_reason: Optional[str]
    alarm_time: Optional[float]
    lead_time: Optional[float]
    duration: float
    detector: str = "holder"
    peak_healthy: Optional[float] = None
    peak_precrash: Optional[float] = None


@dataclass(frozen=True)
class CellResult:
    """A cell's runs plus detection aggregates.

    ``outcome`` is only present when the cell produced at least one
    crash (healthy cells have nothing to score leads against); healthy
    cells report ``false_alarms`` instead.
    """

    spec: ExperimentSpec
    runs: List[RunRecord]
    outcome: Optional[DetectionOutcome]
    false_alarms: int

    @property
    def n_crashed(self) -> int:
        """Number of runs that crashed."""
        return sum(1 for r in self.runs if r.crashed)

    @property
    def median_lead(self) -> float:
        """Median lead over detected crashes (NaN when none).

        Zero-lead detections (alarm at the crash instant) count: the
        detector *did* fire, it just bought no time, and dropping them
        would bias the median optimistic.
        """
        leads = [r.lead_time for r in self.runs
                 if r.lead_time is not None and r.lead_time >= 0]
        return float(np.median(leads)) if leads else float("nan")


def _execute_run(spec: ExperimentSpec, run_index: int,
                 presimulated=None) -> RunRecord:
    """Simulate and analyse one seeded run of a cell.

    The single source of truth for per-run work: both the sequential
    loop and the process pool call exactly this, with the seed derived
    deterministically from (``base_seed``, ``run_index``) — which is
    what makes ``workers=N`` output bit-identical to ``workers=1``.

    Vector-engine cells pass the host's presimulated
    :class:`~repro.memsim.machine.RunResult` as ``presimulated`` (the
    cell's fleet was advanced as one batch beforehand); the unit then
    only analyses.  Counter-based per-host seeding makes the attached result
    identical however the pending set was batched, so journal resume
    and retries stay bit-exact.
    """
    seed = spec.base_seed + run_index
    with _obs.span("cell-run", cell=spec.name, run_index=run_index, seed=seed,
                   detector=spec.detector_name):
        if presimulated is not None:
            result = presimulated
        else:
            machine = _build(spec, seed)
            result = machine.run()

        alarm_time: Optional[float] = None
        peak_healthy: Optional[float] = None
        peak_precrash: Optional[float] = None
        try:
            evaluation = evaluate_detector(
                spec.detector_name, result.bundle, spec,
                collect_scores=spec.collect_scores,
            )
            alarm_time = evaluation.alarm_time
            peak_healthy = evaluation.peak_healthy
            peak_precrash = evaluation.peak_precrash
        except (AnalysisError, ValidationError) as exc:
            # Expected on too-short runs or degenerate counters; anything
            # else (a real bug) must propagate, especially off a worker.
            alarm_time = None
            _obs.counter("campaign.analysis_failures").inc()
            _log.warning("counter analysis failed; scoring run as no-alarm",
                         cell=spec.name, seed=seed,
                         detector=spec.detector_name,
                         error_type=type(exc).__name__, error=str(exc))

    lead = None
    if alarm_time is not None and result.crash_time is not None:
        lead = result.crash_time - alarm_time
    record = RunRecord(
        seed=seed,
        crashed=result.crashed,
        crash_time=result.crash_time,
        crash_reason=result.crash_reason,
        alarm_time=alarm_time,
        lead_time=lead,
        duration=result.duration,
        detector=spec.detector_name,
        peak_healthy=peak_healthy,
        peak_precrash=peak_precrash,
    )
    _obs.counter("campaign.runs_completed").inc()
    _obs.counter(f"campaign.detector.{spec.detector_name}.runs").inc()
    if alarm_time is not None:
        _obs.counter(f"campaign.detector.{spec.detector_name}.alarms").inc()
    _log.info("run finished", cell=spec.name,
              run=f"{run_index + 1}/{spec.n_runs}",
              seed=seed, crashed=result.crashed,
              alarm_time=alarm_time if alarm_time is not None else "none",
              lead_time=lead if lead is not None else "none")
    return record


def _aggregate_cell(spec: ExperimentSpec, records: List[RunRecord]) -> CellResult:
    """Fold a cell's run records into its :class:`CellResult`."""
    crashed = [r for r in records if r.crashed]
    if crashed:
        outcome = score_detections(
            [r.alarm_time for r in crashed],
            [r.crash_time for r in crashed],
            min_lead=60.0, max_lead_fraction=0.95,
        )
    else:
        outcome = None
    false_alarms = sum(
        1 for r in records if not r.crashed and r.alarm_time is not None
    )
    _log.info("cell finished", cell=spec.name, crashed=len(crashed),
              false_alarms=false_alarms)
    return CellResult(spec=spec, runs=records, outcome=outcome,
                      false_alarms=false_alarms)


def _campaign_unit(unit) -> RunRecord:
    """Pool entry point: one (spec, run_index[, presimulated]) item."""
    spec, run_index, *rest = unit
    return _execute_run(spec, run_index,
                        presimulated=rest[0] if rest else None)


def _scenario_kwargs(spec: ExperimentSpec) -> dict:
    """Scenario keyword arguments shared by both engines' builders.

    Scenario scaling cannot reach exactly zero (``scaled()`` requires a
    positive factor), so a fault-free cell disables faults explicitly.
    """
    kwargs = {"profile": spec.profile, "max_run_seconds": spec.max_run_seconds}
    if spec.fault_factor == 0.0:
        from ..memsim.config import FaultConfig

        kwargs["config_overrides"] = {"faults": FaultConfig(
            heap_leak_fraction=0.0, pool_leak_rate=0.0,
            fragmentation_rate=0.0,
        )}
    else:
        kwargs["fault_factor"] = spec.fault_factor
    return kwargs


def _build(spec: ExperimentSpec, seed: int):
    return build_scenario(spec.scenario, seed=seed, **_scenario_kwargs(spec))


def _presimulate_cell(spec: ExperimentSpec,
                      run_indices: Sequence[int]) -> Dict[int, "RunResult"]:
    """Advance one vector-engine cell's pending hosts as a single fleet.

    Returns run_index -> RunResult.  Because every variate is a pure
    function of ``(base_seed + run_index, stream, tick)``, the subset of
    hosts simulated together is irrelevant: resuming a half-journaled
    campaign presimulates only the missing hosts yet reproduces exactly
    what a full-fleet run would have given them.
    """
    from ..memsim.fleet_vec import VectorFleet
    from ..memsim.scenarios import scenario_batch_job, scenario_config

    seeds = [spec.base_seed + i for i in run_indices]
    config = scenario_config(spec.scenario, seed=spec.base_seed,
                             **_scenario_kwargs(spec))
    with _obs.span("cell-presimulate", cell=spec.name, hosts=len(seeds),
                   engine=spec.engine):
        fleet = VectorFleet(config, seeds=seeds,
                            batch_job=scenario_batch_job(spec.scenario))
        results = fleet.run()
    return dict(zip(run_indices, results))


def _presimulate_unit(unit) -> Dict[int, "RunResult"]:
    """Pool entry point: one (spec, run_indices) presimulation fleet."""
    spec, run_indices = unit
    return _presimulate_cell(spec, run_indices)


def _attach_presimulated(specs: Sequence[ExperimentSpec], pending_units,
                         *, workers: int):
    """Presimulate the vector cells' pending hosts and attach each
    host's RunResult to its unit as ``(spec, run_index, result)``.

    One pool unit per distinct fleet: cells that differ only in what
    analyses them (``detector_grid`` copies) share the key, so each host
    is simulated once.  Hosts are not sharded within a cell — the fleet's
    cost is per tick, not per host.  No timeout or retry budget, so a
    worker death falls back to presimulating in-process.
    """
    by_cell: Dict[str, List[int]] = {}
    for spec, i in pending_units:
        if spec.engine == "vector":
            by_cell.setdefault(spec.name, []).append(i)
    fleets: Dict[Tuple, Tuple[ExperimentSpec, List[int]]] = {}
    cell_fleet: Dict[str, Tuple] = {}
    for spec in specs:
        if spec.name in by_cell:
            indices = by_cell[spec.name]
            key = (spec.scenario, spec.profile, spec.fault_factor,
                   spec.max_run_seconds, spec.base_seed, tuple(indices))
            fleets.setdefault(key, (spec, indices))
            cell_fleet[spec.name] = key
    results = parallel_map(_presimulate_unit, list(fleets.values()),
                           workers=workers, label="presimulate-worker")
    by_key = dict(zip(fleets, results))
    return [
        (spec, i, by_key[cell_fleet[spec.name]][i])
        if spec.name in cell_fleet else (spec, i)
        for spec, i in pending_units
    ]


def run_cell(spec: ExperimentSpec) -> CellResult:
    """Execute one cell in-process: fleet, analysis, aggregation."""
    return execute_campaign([spec], workers=1).results[spec.name]


def cells_payload(results: Dict[str, CellResult]) -> Dict[str, dict]:
    """JSON-able per-cell summary, rich enough to rebuild detection-quality
    dashboards from a run manifest alone (no trace or results file needed).

    This is the shape ``cmd_campaign`` stores under ``outcome.cells`` and
    :func:`repro.obs.dashboard.render_campaign_dashboard` consumes.
    """
    payload: Dict[str, dict] = {}
    for name, cell in results.items():
        median = cell.median_lead
        payload[name] = {
            "scenario": cell.spec.scenario,
            "profile": cell.spec.profile,
            "fault_factor": cell.spec.fault_factor,
            "detector": cell.spec.detector_name,
            "runs": [
                {
                    "seed": r.seed,
                    "crashed": r.crashed,
                    "crash_time": r.crash_time,
                    "alarm_time": r.alarm_time,
                    "lead_time": r.lead_time,
                    "duration": r.duration,
                    "peak_healthy": r.peak_healthy,
                    "peak_precrash": r.peak_precrash,
                }
                for r in cell.runs
            ],
            "crashed": cell.n_crashed,
            "detected": cell.outcome.n_detected if cell.outcome else 0,
            "premature": cell.outcome.n_premature if cell.outcome else 0,
            "missed": cell.outcome.n_missed if cell.outcome else 0,
            "median_lead": None if np.isnan(median) else median,
            "false_alarms": cell.false_alarms,
            "lead_times": list(cell.outcome.lead_times) if cell.outcome else [],
        }
    return payload


def detector_grid(specs: Sequence[ExperimentSpec],
                  detectors: Sequence[str]) -> List[ExperimentSpec]:
    """Expand scenario cells × detector names into a tournament grid.

    Every cell in ``specs`` is replicated once per detector name as
    ``<cell>@<detector>``; seeds, scenarios and budgets are untouched,
    so each detector family scores the *same* simulated runs and the
    scoreboard comparison is apples-to-apples.
    """
    if not specs:
        raise ValidationError("detector grid needs at least one spec")
    if not detectors:
        raise ValidationError("detector grid needs at least one detector name")
    if len(set(detectors)) != len(detectors):
        raise ValidationError(f"duplicate detector names: {list(detectors)}")
    grid: List[ExperimentSpec] = []
    for spec in specs:
        for name in detectors:
            grid.append(replace(spec, name=f"{spec.name}@{name}",
                                detector_name=name))
    return grid


@dataclass(frozen=True)
class MissingUnit:
    """One (cell, run) unit that failed permanently during execution."""

    cell: str
    run_index: int
    error: str


@dataclass
class CampaignOutcome:
    """What a resilient campaign execution produced.

    ``status`` is ``"complete"`` when every (cell, run) unit finished,
    ``"incomplete"`` when some failed permanently — in which case
    ``missing`` names each one (and ``missing_cells`` the affected
    cells), ``results`` aggregates whatever *did* finish, and a
    ``--resume`` against the same journal will execute exactly the
    missing units.
    """

    results: Dict[str, CellResult]
    status: str
    missing: List[MissingUnit] = field(default_factory=list)
    executed_units: int = 0
    resumed_units: int = 0
    # Newest journal heartbeat recovered on resume (wall-clock epoch
    # seconds), None for fresh runs or pre-heartbeat journals.
    resumed_last_progress_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        """True when no unit is missing."""
        return self.status == "complete"

    @property
    def missing_cells(self) -> List[str]:
        """Names of cells with at least one missing run, in spec order."""
        seen: List[str] = []
        for unit in self.missing:
            if unit.cell not in seen:
                seen.append(unit.cell)
        return seen


def campaign_fingerprint(specs: List[ExperimentSpec]) -> str:
    """Fingerprint of a campaign's full configuration (specs + seeds).

    Keys the checkpoint journal: a journal written by one campaign can
    never be resumed against a different one.
    """
    return config_fingerprint([asdict(spec) for spec in specs])


def unit_key(spec: ExperimentSpec, run_index: int) -> str:
    """Journal key of one (cell, run) work unit."""
    return f"{spec.name}#{run_index}"


def _validate_specs(specs: List[ExperimentSpec]) -> None:
    if not specs:
        raise ValidationError("campaign needs at least one spec")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate spec names in campaign: {names}")


def execute_campaign(
    specs: List[ExperimentSpec],
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff_base: float = 0.5,
    backoff_cap: float = 30.0,
    journal: Optional[str | os.PathLike] = None,
    resume: bool = False,
    chaos: Optional[ChaosSpec] = None,
    allow_partial: bool = False,
    status=None,
    timeline=None,
) -> CampaignOutcome:
    """Run a campaign with crash tolerance; returns a
    :class:`CampaignOutcome`.

    The campaign's (cell, run) work units execute through
    :func:`repro.perf.pool.resilient_map`: ``workers > 1`` fans them
    across a process pool, each unit seeded from its (``base_seed``,
    ``run_index``) alone and reassembled in submission order, so results
    are bit-identical to sequential.  ``timeout`` bounds each unit's
    wall clock (parallel mode only) and ``retries`` re-runs units whose
    worker died, hung, or raised a transient :class:`ChaosError`, with
    exponential backoff — a retried unit recomputes the identical
    record, so resilience never perturbs results.

    ``journal`` names an append-only checkpoint file
    (:class:`~repro.analysis.checkpoint.CampaignJournal`): every
    completed unit is journaled (fsynced) the moment it finishes, keyed
    by a fingerprint of the campaign configuration.  ``resume=True``
    loads it first and executes only the units it is missing; because
    units are deterministic, an interrupted-then-resumed campaign's
    outcome is bit-identical to an uninterrupted run's.

    ``chaos`` injects faults (see :class:`repro.testing.chaos.ChaosSpec`)
    — the dev/test harness proving all of the above.

    Units that fail permanently (budget exhausted) raise
    :class:`~repro.exceptions.ExecutionError` unless ``allow_partial``
    is set, in which case the outcome comes back ``"incomplete"`` with
    the missing units listed and every completed run aggregated.

    ``status`` (duck-typed, e.g. a
    :class:`~repro.obs.statusd.StatusBoard`) receives live progress —
    ``begin``/``unit_finished``/``unit_failed``/``finish`` — for the
    ``/status`` endpoint.  ``timeline`` (duck-typed, e.g. a
    :class:`~repro.obs.timeline.TimelineRecorder`) receives
    campaign-begin/campaign-end annotations bracketing the execution;
    its periodic frames run on its own thread.  Both observe execution
    and never feed back into it, so a run with either attached stays
    bit-identical to one without.  The whole execution runs under a
    cross-process trace (:func:`repro.obs.ops.trace_scope`); worker
    telemetry merges back tagged with the campaign's trace id.
    """
    _validate_specs(specs)
    workers = resolve_workers(workers)
    units = [(spec, i) for spec in specs for i in range(spec.n_runs)]
    keys = [unit_key(spec, i) for spec, i in units]
    fingerprint = campaign_fingerprint(specs)

    completed: Dict[str, RunRecord] = {}
    last_progress_at: Optional[float] = None
    if resume:
        if journal is None:
            raise ValidationError("resume=True requires a journal path")
        if os.path.exists(journal) and os.path.getsize(journal) > 0:
            state = CampaignJournal.read_state(
                journal, fingerprint=fingerprint)
            wanted = set(keys)
            completed = {key: RunRecord(**payload)
                         for key, payload in state.units.items()
                         if key in wanted}
            last_progress_at = state.last_progress_at
            _obs.counter("campaign.units_resumed").inc(len(completed))

    pending = [(unit, key) for unit, key in zip(units, keys)
               if key not in completed]
    _log.info("campaign starting", cells=len(specs), units=len(units),
              resumed=len(completed), pending=len(pending), workers=workers,
              fingerprint=fingerprint,
              last_progress_at=(last_progress_at
                                if last_progress_at is not None else "none"))

    if status is not None:
        status.begin(
            total_units=len(units),
            cells={spec.name: spec.n_runs for spec in specs},
            resumed=len(completed),
            fingerprint=fingerprint,
            workers=workers,
            journal=None if journal is None else os.fspath(journal),
            resumed_last_progress_at=last_progress_at,
        )
    if timeline is not None:
        timeline.annotate(
            "campaign-begin", cells=len(specs), units=len(units),
            resumed=len(completed), pending=len(pending), workers=workers,
            fingerprint=fingerprint)

    outcomes = []
    if pending:
        pending_units = [unit for unit, _ in pending]
        pending_keys = [key for _, key in pending]
        trace = _ops.current_trace() or _ops.new_trace("campaign")
        # Vector-engine cells: each cell's pending hosts advance as one
        # fleet per pool unit, then every host's result rides to its
        # analysis unit.  Counter-based seeding makes a host's result
        # independent of which hosts shared its fleet, so resume/retry
        # stay bit-exact.
        if any(spec.engine == "vector" for spec, _ in pending_units):
            with _ops.trace_scope(trace):
                pending_units = _attach_presimulated(
                    specs, pending_units, workers=workers)
        journal_handle = (CampaignJournal(journal, fingerprint=fingerprint)
                          if journal is not None else None)

        def on_result(index: int, record: RunRecord) -> None:
            key = pending_keys[index]
            completed[key] = record
            if journal_handle is not None:
                journal_handle.record_unit(key, asdict(record))
            if status is not None:
                status.unit_finished(
                    cell=pending_units[index][0].name,
                    detector=pending_units[index][0].detector_name,
                    alarmed=record.alarm_time is not None,
                )

        pre_unit = (partial(chaos_pre_unit, chaos)
                    if chaos is not None else None)
        try:
            with _ops.trace_scope(trace), \
                    _obs.span("campaign-pool", cells=len(specs),
                              units=len(pending_units), workers=workers,
                              trace_id=trace.trace_id):
                outcomes = resilient_map(
                    _campaign_unit, pending_units, workers=workers,
                    label="campaign-worker", timeout=timeout,
                    retries=retries, backoff_base=backoff_base,
                    backoff_cap=backoff_cap, retry_exceptions=(ChaosError,),
                    pre_unit=pre_unit, on_result=on_result,
                )
        finally:
            if journal_handle is not None:
                journal_handle.close()

        missing = [
            MissingUnit(cell=pending_units[o.index][0].name,
                        run_index=pending_units[o.index][1],
                        error=o.error or "unknown failure")
            for o in outcomes if not o.ok
        ]
        if status is not None:
            for unit in missing:
                status.unit_failed(cell=unit.cell, error=unit.error)
    else:
        missing = []

    results: Dict[str, CellResult] = {}
    for spec in specs:
        records = [completed[unit_key(spec, i)] for i in range(spec.n_runs)
                   if unit_key(spec, i) in completed]
        results[spec.name] = _aggregate_cell(spec, records)

    outcome = CampaignOutcome(
        results=results,
        status="complete" if not missing else "incomplete",
        missing=missing,
        executed_units=sum(1 for o in outcomes if o.ok),
        resumed_units=len(units) - len(pending),
        resumed_last_progress_at=last_progress_at,
    )
    if status is not None:
        status.finish(outcome.status, missing_units=len(missing))
    if timeline is not None:
        timeline.annotate(
            "campaign-end", status=outcome.status,
            executed=outcome.executed_units, missing=len(missing))
    if missing:
        _obs.counter("campaign.units_missing").inc(len(missing))
        _log.warning("campaign incomplete", missing=len(missing),
                     cells=",".join(outcome.missing_cells))
        if not allow_partial:
            detail = "; ".join(
                f"{u.cell}#{u.run_index}: {u.error}" for u in missing[:5])
            raise ExecutionError(
                f"campaign incomplete: {len(missing)} unit(s) failed "
                f"permanently across cell(s) {outcome.missing_cells} "
                f"({detail})"
                + (f"; completed units are journaled in {journal} — fix "
                   f"the cause and resume" if journal is not None else "")
            )
    return outcome


def run_campaign(
    specs: List[ExperimentSpec],
    *,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    journal: Optional[str | os.PathLike] = None,
    resume: bool = False,
) -> Dict[str, CellResult]:
    """Run every cell; returns results keyed by spec name.

    ``workers > 1`` fans the campaign's (cell, run) work units across a
    process pool: every unit is seeded from its (``base_seed``,
    ``run_index``) alone, results are reassembled in submission order
    and aggregated by the same code as the sequential loop, so the
    returned :class:`CellResult` values — and the
    :func:`cells_payload` built from them — are bit-identical to a
    ``workers=1`` run.  Per-worker telemetry (counters, spans, events)
    is merged back into the calling session.

    ``timeout``/``retries``/``journal``/``resume`` are the resilience
    knobs, passed through to :func:`execute_campaign` (which is the
    richer API: partial outcomes, chaos injection).  A permanent unit
    failure raises :class:`~repro.exceptions.ExecutionError` here.
    """
    return execute_campaign(
        specs, workers=workers, timeout=timeout, retries=retries,
        journal=journal, resume=resume, allow_partial=False,
    ).results
