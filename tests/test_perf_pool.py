"""Tests for repro.perf.pool and the parallel campaign/fleet paths."""

import os
import signal
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

from repro.analysis.campaign import ExperimentSpec, cells_payload, run_campaign
from repro.exceptions import ExecutionError, ValidationError
from repro.memsim import MachineConfig, run_fleet
from repro.obs import session as _obs
from repro.perf.pool import (
    backoff_delay,
    parallel_map,
    resilient_map,
    resolve_workers,
)
from repro.testing.chaos import ChaosError, ChaosSpec, chaos_pre_unit

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _square(x):
    return x * x


def _sleep_for(seconds):
    time.sleep(seconds)
    return seconds


def _instrumented(x):
    _obs.counter("worker.calls").inc()
    _obs.histogram("worker.load").observe(float(x))
    _obs.record_event("worker_item", item=x)
    with _obs.span("unit", item=x):
        pass
    return x + 1


def _explode(x):
    raise ValueError(f"boom on {x}")


class TestResolveWorkers:
    def test_none_means_all_cores(self):
        import os
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            resolve_workers(0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            resolve_workers(-2)


class TestParallelMap:
    def test_sequential_path(self):
        assert parallel_map(_square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_parallel_preserves_input_order(self):
        items = list(range(12))
        assert parallel_map(_square, items, workers=4) == [i * i for i in items]

    def test_parallel_matches_sequential(self):
        items = [3, 1, 4, 1, 5, 9, 2, 6]
        assert (parallel_map(_square, items, workers=4)
                == parallel_map(_square, items, workers=1))

    def test_unpicklable_fn_falls_back_to_sequential(self):
        with _obs.telemetry_session() as session:
            out = parallel_map(lambda x: x + 1, [1, 2, 3], workers=4)
            fallbacks = session.metrics.counter("perf.pool.fallbacks").value
        assert out == [2, 3, 4]
        assert fallbacks == 1

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_explode, [1, 2], workers=2)

    def test_worker_telemetry_merges_into_parent(self):
        with _obs.telemetry_session() as session:
            out = parallel_map(_instrumented, [10, 20, 30], workers=3,
                               label="test-worker")
            counters = session.metrics.snapshot()
            span_paths = [r.path for r in session.spans.records]
            events = session.events_of("worker_item")
        assert out == [11, 21, 31]
        assert counters["worker.calls"]["value"] == 3
        hist = counters["worker.load"]
        assert hist["count"] == 3
        assert hist["total"] == 60.0
        assert hist["min"] == 10.0 and hist["max"] == 30.0
        assert span_paths.count("test-worker/unit") == 3
        assert sorted(e["item"] for e in events) == [10, 20, 30]
        # merged events stay ordered by wall time
        walls = [e["wall_time"] for e in session.events]
        assert walls == sorted(walls)

    def test_no_telemetry_capture_when_disabled(self):
        # no session installed: results still correct, nothing recorded
        assert parallel_map(_square, [2, 3], workers=2) == [4, 9]


class TestMergePrimitives:
    def test_counter_and_gauge_merge(self):
        from repro.obs.metrics import MetricsRegistry

        parent = MetricsRegistry()
        parent.counter("c").inc(2)
        parent.gauge("g").set(5.0)
        donor = MetricsRegistry()
        donor.counter("c").inc(3)
        donor.gauge("g").set(1.0)
        donor.gauge("g").set(9.0)
        donor.gauge("g").set(4.0)
        parent.merge_snapshot(donor.snapshot())
        assert parent.counter("c").value == 5
        assert parent.gauge("g").value == 4.0
        assert parent.gauge("g").max_value == 9.0

    def test_histogram_merge_exact_summary(self):
        from repro.obs.metrics import MetricsRegistry

        parent = MetricsRegistry()
        for v in (1.0, 2.0):
            parent.histogram("h").observe(v)
        donor = MetricsRegistry()
        for v in (0.5, 10.0, 3.0):
            donor.histogram("h").observe(v)
        parent.merge_snapshot(donor.snapshot())
        h = parent.histogram("h")
        assert h.count == 5
        assert h.total == 16.5
        assert h.min == 0.5 and h.max == 10.0

    def test_unknown_metric_type_rejected(self):
        from repro.obs.metrics import MetricsRegistry

        with pytest.raises(ValidationError):
            MetricsRegistry().merge_snapshot({"x": {"type": "mystery"}})

    def test_span_ingest_rebases_and_prefixes(self):
        from repro.obs.spans import SpanCollector

        donor = SpanCollector()
        with donor.span("outer"):
            with donor.span("inner", k=1):
                pass
        parent = SpanCollector()
        n = parent.ingest(donor.to_list(), prefix="w0")
        assert n == 2
        recs = parent.records
        assert [r.path for r in recs] == ["w0/outer", "w0/outer/inner"]
        assert [r.depth for r in recs] == [1, 2]
        assert recs[1].attrs == {"k": 1}
        for donor_rec, rec in zip(donor.records, recs):
            assert rec.duration == pytest.approx(donor_rec.duration)
        # imported spans land in the parent's past, not its future
        now = __import__("time").perf_counter() - parent.epoch
        assert all(r.end <= now for r in recs)

    def test_span_ingest_noop_when_disabled_or_empty(self):
        from repro.obs.spans import SpanCollector

        assert SpanCollector().ingest([]) == 0
        off = SpanCollector(enabled=False)
        assert off.ingest([{"name": "x", "path": "x", "depth": 0,
                            "start": 0.0, "end": 1.0}]) == 0


@pytest.fixture(scope="module")
def determinism_specs():
    return [
        ExperimentSpec(name="aging", scenario="stress", n_runs=2,
                       base_seed=21, max_run_seconds=25_000.0),
        ExperimentSpec(name="healthy", scenario="stress", n_runs=2,
                       base_seed=21, fault_factor=0.0,
                       max_run_seconds=8_000.0),
    ]


class TestCampaignDeterminism:
    def test_workers4_bit_identical_to_workers1(self, determinism_specs):
        sequential = run_campaign(determinism_specs, workers=1)
        parallel = run_campaign(determinism_specs, workers=4)
        assert list(sequential) == list(parallel)
        for name in sequential:
            assert sequential[name] == parallel[name]
        assert cells_payload(sequential) == cells_payload(parallel)

    def test_parallel_campaign_merges_worker_telemetry(self, determinism_specs):
        with _obs.telemetry_session() as session:
            run_campaign(determinism_specs, workers=2)
            snapshot = session.metrics.snapshot()
            records = list(session.spans.records)
        assert snapshot["campaign.runs_completed"]["value"] == 4
        assert snapshot["perf.pool.units"]["value"] == 4
        # Worker spans stitch under the parent's open campaign-pool span.
        paths = [r.path for r in records]
        worker_spans = [r for r in records
                        if r.path.startswith("campaign-pool/campaign-worker/")]
        assert worker_spans
        assert not any(p.startswith("campaign-worker/") for p in paths)
        # Every stitched span is tagged with its worker's identity and
        # the campaign trace (one trace id across all workers).
        pool_span = next(r for r in records if r.path == "campaign-pool")
        trace_id = pool_span.attrs["trace_id"]
        assert session.trace_id == trace_id
        for r in worker_spans:
            assert r.attrs["trace_id"] == trace_id
            assert isinstance(r.attrs["worker_pid"], int)
            assert r.attrs["worker_ordinal"] >= 0
            assert r.attrs["span_id"]
        # Per-worker counters stay distinguishable after the merge and
        # sum to the aggregate (no double count).
        per_worker = [
            value["value"] for name, value in snapshot.items()
            if name.startswith("campaign-worker.w")
            and name.endswith(".campaign.runs_completed")
        ]
        assert sum(per_worker) == 4


class TestFleetWorkers:
    def test_fleet_workers_bit_identical(self):
        config = MachineConfig.nt4(seed=5, max_run_seconds=4_000.0)
        seq = run_fleet(config, 2, workers=1)
        par = run_fleet(config, 2, workers=2)
        assert len(seq) == len(par) == 2
        for a, b in zip(seq, par):
            assert a.crashed == b.crashed
            assert a.crash_time == b.crash_time
            assert a.duration == b.duration
            assert a.bundle.names == b.bundle.names
            for name in a.bundle.names:
                np.testing.assert_array_equal(
                    a.bundle[name].values, b.bundle[name].values)


class TestBackoffDelay:
    def test_deterministic_for_same_key_and_attempt(self):
        a = backoff_delay(2, key="campaign:3")
        b = backoff_delay(2, key="campaign:3")
        assert a == b

    def test_jitter_decorrelates_units(self):
        delays = {backoff_delay(1, key=f"unit:{i}") for i in range(8)}
        assert len(delays) > 1

    def test_exponential_growth_and_cap(self):
        base = [backoff_delay(n, base=1.0, cap=8.0, key="k") for n in (1, 2, 3, 4, 5, 6)]
        # raw schedule 1, 2, 4, 8, 8, 8 scaled by jitter in [0.5, 1.0)
        for n, delay in zip((1, 2, 3, 4, 5, 6), base):
            raw = min(8.0, 2.0 ** (n - 1))
            assert 0.5 * raw <= delay < raw

    def test_bad_attempt_rejected(self):
        with pytest.raises(ValidationError):
            backoff_delay(0)


class TestResilientMap:
    def test_all_ok_outcomes(self):
        outcomes = resilient_map(_square, [2, 3, 4], workers=1)
        assert [o.result for o in outcomes] == [4, 9, 16]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_transient_exception_retried_to_success(self):
        # every unit raises ChaosError on attempt 1, runs clean on attempt 2
        chaos = ChaosSpec(raise_rate=1.0, seed=1)
        with _obs.telemetry_session() as session:
            outcomes = resilient_map(
                _square, [2, 3], workers=1, retries=1, backoff_base=0.01,
                retry_exceptions=(ChaosError,),
                pre_unit=partial(chaos_pre_unit, chaos))
            retries = session.metrics.counter("perf.pool.retries").value
        assert [o.result for o in outcomes] == [4, 9]
        assert all(o.ok and o.attempts == 2 for o in outcomes)
        assert retries == 2

    def test_budget_exhausted_reports_failure(self):
        chaos = ChaosSpec(raise_rate=1.0, seed=1, max_failures_per_unit=99)
        outcomes = resilient_map(
            _square, [2, 3], workers=1, retries=1, backoff_base=0.01,
            retry_exceptions=(ChaosError,),
            pre_unit=partial(chaos_pre_unit, chaos))
        assert all(not o.ok for o in outcomes)
        assert all(o.error_kind == "exception" for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)
        assert all("injected" in o.error for o in outcomes)

    def test_non_retryable_exception_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            resilient_map(_explode, [1, 2], workers=1,
                          retry_exceptions=(ChaosError,))

    def test_killed_workers_retried_bit_identical(self):
        # kill_rate=1: every worker dies mid-unit on attempt 1 (os._exit,
        # like the OOM killer); with a retry budget the fresh attempts
        # must produce exactly what a calm run produces.
        chaos = ChaosSpec(kill_rate=1.0, seed=3)
        with _obs.telemetry_session() as session:
            outcomes = resilient_map(
                _square, [2, 3, 4], workers=2, retries=2, backoff_base=0.01,
                pre_unit=partial(chaos_pre_unit, chaos))
            retries = session.metrics.counter("perf.pool.retries").value
        assert [o.result for o in outcomes] == [4, 9, 16]
        assert all(o.ok for o in outcomes)
        assert all(o.attempts >= 2 for o in outcomes)
        assert retries >= 3

    def test_hung_unit_times_out_and_fails_permanently(self):
        with _obs.telemetry_session() as session:
            outcomes = resilient_map(
                _sleep_for, [30.0, 0.01], workers=2, timeout=1.0,
                retries=1, backoff_base=0.01)
            timeouts = session.metrics.counter("perf.pool.timeouts").value
        hung, quick = outcomes
        assert not hung.ok
        assert hung.error_kind == "timeout"
        assert hung.attempts == 2
        assert "wall-clock timeout" in hung.error
        assert timeouts == 2
        assert quick.ok and quick.result == 0.01

    def test_on_result_checkpoints_successes(self):
        seen = []
        resilient_map(_square, [5, 6], workers=1,
                      on_result=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == [(0, 25), (1, 36)]

    def test_validation(self):
        with pytest.raises(ValidationError):
            resilient_map(_square, [1], timeout=0.0)
        with pytest.raises(ValidationError):
            resilient_map(_square, [1], retries=-1)

    def test_parallel_map_raises_execution_error_when_budget_spent(self):
        chaos = ChaosSpec(raise_rate=1.0, seed=2, max_failures_per_unit=99)
        with pytest.raises(ExecutionError, match="failed permanently"):
            parallel_map(_square, [1, 2], workers=1,
                         retry_exceptions=(ChaosError,),
                         pre_unit=partial(chaos_pre_unit, chaos))

    def test_parallel_map_worker_death_fallback_still_works(self):
        # Historical behavior: no retry budget + mid-run worker death
        # falls back to computing in-process (attempt 2 runs clean).
        chaos = ChaosSpec(kill_rate=1.0, seed=5)
        with _obs.telemetry_session() as session:
            out = parallel_map(_square, [2, 3, 4], workers=2,
                               pre_unit=partial(chaos_pre_unit, chaos))
            fallbacks = session.metrics.counter("perf.pool.fallbacks").value
        assert out == [4, 9, 16]
        assert fallbacks >= 1


_ORPHAN_SCRIPT = """
import os, signal, sys, threading, time
from repro.perf.pool import parallel_map

piddir = sys.argv[1]

def unit(i):
    with open(os.path.join(piddir, f"{os.getpid()}.pid"), "w"):
        pass
    time.sleep(120)
    return i

def kill_self_once_both_run():
    while len(os.listdir(piddir)) < 2:
        time.sleep(0.05)
    os.kill(os.getpid(), signal.SIGKILL)

threading.Thread(target=kill_self_once_both_run, daemon=True).start()
parallel_map(unit, [0, 1], workers=2)
"""


def _alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_workers_exit_when_parent_is_sigkilled(tmp_path):
    piddir = tmp_path / "pids"
    piddir.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _ORPHAN_SCRIPT,
                           str(piddir)], env=env, timeout=120)
    assert proc.returncode == -signal.SIGKILL
    pids = [int(name.split(".")[0]) for name in os.listdir(piddir)]
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 5.0
        while any(_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, (
                f"workers {[p for p in pids if _alive(p)]} outlived "
                f"their SIGKILLed parent")
            time.sleep(0.1)
    finally:
        for pid in pids:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
