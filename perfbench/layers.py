"""Per-layer metrics of a traced iteration.

:data:`PER_LAYER` is the catalogue: every metric the traced run reports,
its unit, which direction is better and whether it is an exact count
(a number that repeats exactly between two traced runs of one seed, on
which a later change may rest a count claim).  :func:`layer_metrics`
computes them from the merged spans and the program's own telemetry
counters; a layer a workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .measure import (
    LAYER, NAME, PARENT, SID, T0, T1, ATTRS, self_times, span_pid,
)

#: Detectors of the registry, as the tournament scores them.
DETECTORS = ("entropy", "holder", "holder-cusum", "holder-ewma",
             "holder-threshold", "naive", "trend")

#: Layers spans are grouped into (module names of the program).
LAYERS = ("analysis.campaign", "perf.pool", "memsim.machine",
          "simkernel.engine", "memsim.fleet_vec", "simkernel.batch_rng",
          "analysis.detector_registry", "stats.trend", "core.holder",
          "fractal.wavelets", "obs.live", "core.online", "trace.store",
          "analysis.results", "analysis.scoreboard")


def _catalogue() -> List[Tuple[str, str, str, bool]]:
    """(name, unit, better, exact) of every per-layer metric."""
    m: List[Tuple[str, str, str, bool]] = [
        ("memsim.machine.calls", "count", "lower", True),
        ("memsim.machine.busy_s", "s", "lower", False),
        ("memsim.machine.sim_host_s", "s", "higher", True),
        ("memsim.machine.busy_us_per_sim_s", "us/s", "lower", False),
        ("simkernel.events", "count", "lower", True),
        ("simkernel.events_per_busy_s", "1/s", "higher", False),
        ("memsim.fleet_vec.calls", "count", "lower", True),
        ("memsim.fleet_vec.busy_s", "s", "lower", False),
        ("memsim.fleet_vec.host_ticks", "count", "lower", True),
        ("memsim.fleet_vec.busy_us_per_host_tick", "us", "lower", False),
        ("simkernel.batch_rng.calls", "count", "lower", True),
        ("simkernel.batch_rng.busy_s", "s", "lower", False),
        ("campaign.units_attempted", "count", "lower", True),
        ("campaign.units_completed", "count", "higher", True),
        ("campaign.analysis_failures", "count", "lower", True),
        ("campaign.presim_s", "s", "lower", False),
        ("campaign.aggregate_s", "s", "lower", False),
        ("pool.units", "count", "lower", True),
        ("pool.retries", "count", "lower", True),
        ("pool.timeouts", "count", "lower", True),
        ("pool.fallbacks", "count", "lower", True),
        ("pool.spawn_s", "s", "lower", False),
        ("pool.queue_wait_s", "s", "lower", False),
        ("pool.worker_busy_s", "s", "lower", False),
        ("pool.utilisation", "ratio", "higher", False),
        ("pool.imbalance", "ratio", "lower", False),
    ]
    for name in DETECTORS:
        m.append((f"detect.{name}.calls", "count", "lower", True))
        m.append((f"detect.{name}.busy_s", "s", "lower", False))
    m += [
        ("stats.trend.mann_kendall.calls", "count", "lower", True),
        ("stats.trend.mann_kendall.busy_s", "s", "lower", False),
        ("stats.trend.sen_slope.calls", "count", "lower", True),
        ("stats.trend.sen_slope.busy_s", "s", "lower", False),
        ("stats.trend.pairs", "count", "lower", True),
        ("fractal.cwt.calls", "count", "lower", True),
        ("fractal.cwt.busy_s", "s", "lower", False),
        ("fractal.cwt_flops", "count", "lower", True),
        ("fractal.cwt_plan_hit_ratio", "ratio", "higher", True),
        ("core.holder.calls", "count", "lower", True),
        ("core.holder.busy_s", "s", "lower", False),
        ("watch.samples", "count", "higher", True),
        ("watch.replay_busy_s", "s", "lower", False),
        ("watch.samples_per_s", "1/s", "higher", False),
        ("online.update.calls", "count", "lower", True),
        ("online.update.busy_s", "s", "lower", False),
        ("online.update_many.calls", "count", "lower", True),
        ("online.update_many.busy_s", "s", "lower", False),
        ("online.indicator_points", "count", "higher", True),
        ("perf.sliding.segments", "count", "lower", True),
        ("trace.store.write_s", "s", "lower", False),
        ("trace.store.read_s", "s", "lower", False),
        ("trace.store.bytes", "bytes", "lower", True),
        ("trace.store.write_mb_per_s", "MB/s", "higher", False),
        ("trace.store.read_mb_per_s", "MB/s", "higher", False),
        ("artifacts.save_results_s", "s", "lower", False),
        ("artifacts.load_results_s", "s", "lower", False),
        ("artifacts.scoreboard_s", "s", "lower", False),
        ("artifacts.bytes", "bytes", "lower", True),
        ("obs.trace_overhead_frac", "ratio", "lower", False),
        ("obs.unattributed_frac", "ratio", "lower", False),
        ("obs.orphan_spans", "count", "lower", True),
        ("mem.parent_peak_rss_mb", "MB", "lower", False),
        ("mem.worker_peak_rss_mb", "MB", "lower", False),
    ]
    for layer in LAYERS:
        m.append((f"self_s.{layer}", "s", "lower", False))
    return m


PER_LAYER = tuple(_catalogue())
EXACT_COUNTS = tuple(name for name, _, _, exact in PER_LAYER if exact)


def _duration(span) -> float:
    return span[T1] - span[T0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Sequence[tuple], counters: Mapping[str, float], *,
                  parent_pid: int, wall_s: float, untraced_wall_s: float,
                  bytes_written: int, parent_rss_mb: float,
                  worker_rss_mb: float, orphans: int,
                  mk_exact_n: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced iteration.

    ``spans`` are the iteration's merged spans from every process,
    ``counters`` the program's telemetry counters for the same
    iteration, ``wall_s`` / ``untraced_wall_s`` the traced and untraced
    iteration times of the same run.
    """
    by_name: Dict[str, List[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
    by_sid = {span[SID]: span for span in spans}

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def busy(name: str) -> float:
        return sum(_duration(s) for s in by_name.get(name, ()))

    def layer_busy(layer: str, pid: Optional[str] = None) -> float:
        """Inclusive time of the layer's outermost spans."""
        total = 0.0
        for span in spans:
            if span[LAYER] != layer or (pid and span_pid(span[SID]) != pid):
                continue
            parent = by_sid.get(span[PARENT])
            if parent is not None and parent[LAYER] == layer:
                continue
            total += _duration(span)
        return total

    def count(name: str) -> float:
        return float(counters.get(name, 0.0))

    out: Dict[str, float] = {}

    machine_busy = busy("memsim.machine.run")
    sim_s = sum(s[ATTRS]["sim_s"] for s in by_name.get("memsim.machine.run", ()))
    out["memsim.machine.calls"] = calls("memsim.machine.run")
    out["memsim.machine.busy_s"] = layer_busy("memsim.machine")
    out["memsim.machine.sim_host_s"] = sim_s
    out["memsim.machine.busy_us_per_sim_s"] = _ratio(machine_busy * 1e6, sim_s)
    events = count("sim.events_fired")
    out["simkernel.events"] = events
    out["simkernel.events_per_busy_s"] = _ratio(
        events, busy("simkernel.engine.run_until"))

    fleet_busy = layer_busy("memsim.fleet_vec")
    ticks = count("memsim_vec.host_ticks")
    out["memsim.fleet_vec.calls"] = calls("memsim.fleet_vec.run")
    out["memsim.fleet_vec.busy_s"] = fleet_busy
    out["memsim.fleet_vec.host_ticks"] = ticks
    out["memsim.fleet_vec.busy_us_per_host_tick"] = _ratio(fleet_busy * 1e6,
                                                           ticks)
    rng_names = [n for n in by_name if n.startswith("simkernel.batch_rng.")]
    out["simkernel.batch_rng.calls"] = sum(calls(n) for n in rng_names)
    out["simkernel.batch_rng.busy_s"] = layer_busy("simkernel.batch_rng")

    maps = by_name.get("pool.map", [])
    units = by_name.get("pool.unit", [])
    executes = by_name.get("campaign.execute", [])
    out["campaign.units_attempted"] = len(units) if executes else 0
    out["campaign.units_completed"] = count("campaign.runs_completed")
    out["campaign.analysis_failures"] = count("campaign.analysis_failures")
    out["campaign.presim_s"] = (layer_busy("memsim.fleet_vec", str(parent_pid))
                                if executes else 0.0)
    aggregate = 0.0
    for execute in executes:
        inner = [m for m in maps if m[PARENT] == execute[SID]]
        if inner:
            aggregate += execute[T1] - max(m[T1] for m in inner)
    out["campaign.aggregate_s"] = aggregate

    spawn = queue = 0.0
    worker_busy: Dict[str, float] = {}
    capacity = 0.0
    for pool_map in maps:
        mine = [u for u in units if u[PARENT] == pool_map[SID]]
        if not mine:
            continue
        spawn += min(u[T0] for u in mine) - pool_map[T0]
        queue += sum(u[T0] - pool_map[T0] for u in mine)
        pids = {span_pid(u[SID]) for u in mine}
        capacity += _duration(pool_map) * len(pids)
        for unit in mine:
            pid = span_pid(unit[SID])
            worker_busy[pid] = worker_busy.get(pid, 0.0) + _duration(unit)
    total_busy = sum(worker_busy.values())
    out["pool.units"] = count("perf.pool.units")
    out["pool.retries"] = count("perf.pool.retries")
    out["pool.timeouts"] = count("perf.pool.timeouts")
    out["pool.fallbacks"] = count("perf.pool.fallbacks")
    out["pool.spawn_s"] = spawn
    out["pool.queue_wait_s"] = queue
    out["pool.worker_busy_s"] = total_busy
    out["pool.utilisation"] = _ratio(total_busy, capacity)
    out["pool.imbalance"] = _ratio(max(worker_busy.values(), default=0.0),
                                   _ratio(total_busy, len(worker_busy)))

    for name in DETECTORS:
        out[f"detect.{name}.calls"] = calls(f"detect.{name}")
        out[f"detect.{name}.busy_s"] = busy(f"detect.{name}")

    pairs = 0
    for span in by_name.get("stats.trend.mann_kendall", ()):
        n = min(span[ATTRS]["n"], mk_exact_n)
        pairs += n * (n - 1) // 2
    for span in by_name.get("stats.trend.sen_slope", ()):
        n = span[ATTRS]["n"]
        pairs += min(n * (n - 1) // 2, span[ATTRS]["max_pairs"])
    for fn in ("mann_kendall", "sen_slope"):
        out[f"stats.trend.{fn}.calls"] = calls(f"stats.trend.{fn}")
        out[f"stats.trend.{fn}.busy_s"] = busy(f"stats.trend.{fn}")
    out["stats.trend.pairs"] = pairs

    hits = count("fractal.cwt_plan_hits")
    out["fractal.cwt.calls"] = calls("fractal.cwt")
    out["fractal.cwt.busy_s"] = busy("fractal.cwt")
    out["fractal.cwt_flops"] = count("fractal.cwt_flops")
    out["fractal.cwt_plan_hit_ratio"] = _ratio(
        hits, hits + count("fractal.cwt_plan_misses"))
    out["core.holder.calls"] = calls("core.holder.wavelet_holder")
    out["core.holder.busy_s"] = busy("core.holder.wavelet_holder")

    samples = sum(s[ATTRS]["samples"] for s in by_name.get("watch.replay", ()))
    replay_busy = busy("watch.replay")
    out["watch.samples"] = samples
    out["watch.replay_busy_s"] = replay_busy
    out["watch.samples_per_s"] = _ratio(samples, replay_busy)
    for fn in ("update", "update_many"):
        out[f"online.{fn}.calls"] = calls(f"online.{fn}")
        out[f"online.{fn}.busy_s"] = busy(f"online.{fn}")
    out["online.indicator_points"] = count("online.indicator_points")
    out["perf.sliding.segments"] = count("perf.sliding.segments")

    write_s = busy("trace.store.write")
    read_s = busy("trace.store.read")
    store_bytes = bytes_written if calls("trace.store.write") else 0
    out["trace.store.write_s"] = write_s
    out["trace.store.read_s"] = read_s
    out["trace.store.bytes"] = store_bytes
    out["trace.store.write_mb_per_s"] = _ratio(store_bytes / 1e6, write_s)
    out["trace.store.read_mb_per_s"] = _ratio(store_bytes / 1e6, read_s)

    out["artifacts.save_results_s"] = busy("artifacts.save_results")
    out["artifacts.load_results_s"] = busy("artifacts.load_results")
    out["artifacts.scoreboard_s"] = busy("artifacts.build_scoreboard")
    out["artifacts.bytes"] = (bytes_written if calls("artifacts.save_results")
                              else 0)

    selfs = self_times(spans)
    parent = str(parent_pid)
    parent_self = sum(t for sid, t in selfs.items() if span_pid(sid) == parent)
    out["obs.trace_overhead_frac"] = _ratio(wall_s - untraced_wall_s,
                                            untraced_wall_s)
    out["obs.unattributed_frac"] = 1.0 - _ratio(parent_self, wall_s)
    out["obs.orphan_spans"] = orphans
    out["mem.parent_peak_rss_mb"] = parent_rss_mb
    out["mem.worker_peak_rss_mb"] = worker_rss_mb
    for layer in LAYERS:
        out[f"self_s.{layer}"] = sum(
            selfs[s[SID]] for s in spans if s[LAYER] == layer)
    return out
