"""The benchmark's workloads: inputs from a seed, one timed iteration each.

Every workload is a real user path of the ``repro`` command line:

``campaign-object`` / ``campaign-vector``
    ``repro campaign --engine object|vector --workers 2 --out F`` followed
    by ``repro scoreboard F``: the aging/healthy cell pair the command
    builds, run through :func:`~repro.analysis.execute_campaign`, then
    the artifact round trip ``save_results`` -> ``load_results`` ->
    ``cells_payload`` -> ``build_scoreboard``.
``replay-tournament``
    Recorded aging and healthy traces, each written as a columnar store
    and read back, scored by every registered detector, then replayed
    through ``repro watch --trace`` (an online monitor at the command's
    defaults, sliding Hölder engine).

An iteration returns an :class:`IterationResult`: the output digest the
correctness hash is taken over, how many operations it attempted and how
many failed, and the watch-replay throughput inputs.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import (
    ExperimentSpec,
    build_scoreboard,
    cells_payload,
    execute_campaign,
    load_results,
    save_results,
)
from repro.analysis.detector_registry import detector_names, evaluate_detector
from repro.core.online import OnlineAgingMonitor
from repro.exceptions import ReproError
from repro.memsim.config import FaultConfig
from repro.memsim.scenarios import build_scenario
from repro.obs.live import LiveWatcher
from repro.perf.pool import parallel_map
from repro.trace import read_bundle, write_bundle

#: Pool workers (the benchmark machine's core count).
WORKERS = 2
#: Runs per campaign cell.  ``repro campaign --runs 8`` takes ~32 s per
#: engine on 2 cores; 4 keeps a run inside the benchmark's time budget
#: while still giving the pool 8 uneven units.
CAMPAIGN_RUNS = 4
#: Budgets of the aging and healthy cells, as ``repro campaign`` sets them.
AGING_BUDGET_S = 60_000.0
HEALTHY_BUDGET_S = 15_000.0
#: Offset of the healthy cell's seeds, as ``repro campaign`` sets it.
HEALTHY_SEED_OFFSET = 1000
#: Traces of each kind (aging, healthy) replayed per iteration.
REPLAY_TRACES = 3
#: Aging intensity of a replayed aging trace.  The trend detector
#: dominates a replay and stops scanning at its first alarm, so its work
#: follows the alarm time.  At the default intensity that varies ~25%
#: per trace with the seed; at 2x the hosts crash at ~5.5-6.5 ks, the
#: alarm comes early and the work varies ~13%, and the watch monitor
#: still alarms 1-2 ks before the crash.
REPLAY_FAULT_FACTOR = 2.0
#: Budget of a replayed healthy trace, as long as the aging ones: the
#: watch monitor calibrates after ~3.6k samples and the trend detector
#: scores 9 windows.
REPLAY_HEALTHY_BUDGET_S = 6_000.0
#: ``repro watch`` defaults.
WATCH = dict(chunk_size=128, history=2048, indicator_window=512,
             n_calibration=10, holder_engine="sliding")
WATCH_COUNTER = "AvailableBytes"
WATCH_STATUS_EVERY = 600.0
WATCH_SAMPLE_EVERY = 4

_NO_FAULTS = FaultConfig(heap_leak_fraction=0.0, pool_leak_rate=0.0,
                         fragmentation_rate=0.0)


@dataclass
class IterationResult:
    """What one timed iteration produced."""

    digest: dict
    attempted: int
    failed: int
    watch_samples: int = 0
    watch_s: float = 0.0
    bytes_written: int = 0
    notes: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def campaign_specs(seed: int, engine: str) -> List[ExperimentSpec]:
    """The aging/healthy cell pair ``repro campaign`` builds for
    ``--base-seed seed --engine engine`` (stress scenario, nt4 profile)."""
    return [
        ExperimentSpec(name="stress-aging", scenario="stress", profile="nt4",
                       n_runs=CAMPAIGN_RUNS, base_seed=seed,
                       max_run_seconds=AGING_BUDGET_S, engine=engine),
        ExperimentSpec(name="stress-healthy", scenario="stress",
                       profile="nt4", n_runs=CAMPAIGN_RUNS,
                       base_seed=seed + HEALTHY_SEED_OFFSET, fault_factor=0.0,
                       max_run_seconds=HEALTHY_BUDGET_S, engine=engine),
    ]


def campaign_iteration(specs: List[ExperimentSpec],
                       scratch: str) -> IterationResult:
    """One campaign plus its artifact round trip."""
    units = sum(spec.n_runs for spec in specs)
    outcome = execute_campaign(specs, workers=WORKERS, allow_partial=True)
    payload = cells_payload(outcome.results)
    path = os.path.join(scratch, "results.json")
    save_results(outcome.results, path)
    reloaded = cells_payload(load_results(path))
    scoreboard = build_scoreboard(reloaded)
    size = os.path.getsize(path)
    os.remove(path)

    failed = len(outcome.missing)
    notes = [f"unit {u.cell}#{u.run_index} failed: {u.error}"
             for u in outcome.missing]
    if reloaded != payload or set(scoreboard["cells"]) != set(payload):
        failed += 1
        notes.append("artifact round trip changed the cells payload")
    return IterationResult(digest={"cells": payload}, attempted=units + 1,
                           failed=failed, bytes_written=size, notes=notes)


# ---------------------------------------------------------------------------
# Replay tournament
# ---------------------------------------------------------------------------

def replay_trace_plan(seed: int) -> List[Tuple[str, int, float, float]]:
    """``(label, seed, budget, fault_factor)`` of every replayed trace;
    fault factor 0 disables aging."""
    plan = []
    for i in range(REPLAY_TRACES):
        plan.append((f"aging-{seed + i}", seed + i, AGING_BUDGET_S,
                     REPLAY_FAULT_FACTOR))
    for i in range(REPLAY_TRACES):
        s = seed + HEALTHY_SEED_OFFSET + i
        plan.append((f"healthy-{s}", s, REPLAY_HEALTHY_BUDGET_S, 0.0))
    return plan


def simulate_trace(unit: Tuple[str, int, float, float]):
    """Pool entry point: one trace of :func:`replay_trace_plan`."""
    _label, seed, budget, fault_factor = unit
    if fault_factor:
        machine = build_scenario("stress", seed=seed, profile="nt4",
                                 max_run_seconds=budget,
                                 fault_factor=fault_factor)
    else:
        machine = build_scenario("stress", seed=seed, profile="nt4",
                                 max_run_seconds=budget,
                                 config_overrides={"faults": _NO_FAULTS})
    return machine.run().bundle


def replay_inputs(seed: int) -> List[Tuple[str, object]]:
    """The replayed traces, simulated across the pool workers."""
    plan = replay_trace_plan(seed)
    bundles = parallel_map(simulate_trace, plan, workers=WORKERS,
                           label="replay-setup")
    return [(label, bundle) for (label, *_), bundle in zip(plan, bundles)]


def _tree_size(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _same_bundle(a, b) -> bool:
    if list(a.names) != list(b.names):
        return False
    return all(np.array_equal(a[n].times, b[n].times)
               and np.array_equal(a[n].values, b[n].values)
               for n in a.names)


def replay_iteration(traces: List[Tuple[str, object]],
                     scratch: str) -> IterationResult:
    """Store round trip, detector tournament and watch replay per trace."""
    spec = ExperimentSpec(name="replay")
    names = detector_names()
    alarms: Dict[str, Dict[str, Optional[float]]] = {}
    watch: Dict[str, Dict[str, Optional[float]]] = {}
    attempted = failed = samples = written = 0
    watch_s = 0.0
    notes: List[str] = []
    for label, bundle in traces:
        store = os.path.join(scratch, f"store-{label}")
        write_bundle(bundle, store)
        stored = read_bundle(store)
        written += _tree_size(store)
        shutil.rmtree(store)
        attempted += 1
        if not _same_bundle(bundle, stored):
            failed += 1
            notes.append(f"{label}: columnar store round trip changed data")

        alarms[label] = {}
        for name in names:
            attempted += 1
            try:
                alarms[label][name] = evaluate_detector(name, stored,
                                                        spec).alarm_time
            except ReproError as exc:
                failed += 1
                alarms[label][name] = "error"
                notes.append(f"{label}: detector {name} failed: {exc}")

        watcher = LiveWatcher(OnlineAgingMonitor(**WATCH),
                              counter=WATCH_COUNTER,
                              status_every=WATCH_STATUS_EVERY,
                              sample_every=WATCH_SAMPLE_EVERY)
        attempted += 1
        t0 = time.perf_counter()
        try:
            end = watcher.replay(stored)
        except ReproError as exc:
            failed += 1
            watch[label] = {"error": True}
            notes.append(f"{label}: watch replay failed: {exc}")
            continue
        watch_s += time.perf_counter() - t0
        samples += int(end["n_samples"])
        watch[label] = {"alarm_time": end["alarm_time"],
                        "crash_time": end["crash_time"]}
    return IterationResult(digest={"detectors": alarms, "watch": watch},
                           attempted=attempted, failed=failed,
                           watch_samples=samples, watch_s=watch_s,
                           bytes_written=written, notes=notes)
