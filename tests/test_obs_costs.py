"""Tests for cross-worker cost attribution (repro.obs.costs): span/
hot-path phase classification, self-time folding over merged span
trees, per-worker splits, share normalisation, the CPU view and the
CLI table — plus an end-to-end profile from a real telemetry session."""

import math

import pytest

from repro import obs
from repro.exceptions import ValidationError
from repro.obs.costs import (
    COSTS_SCHEMA,
    PHASES,
    build_cost_profile,
    classify_hotpath,
    classify_span,
    cost_table,
)


def span(path, duration, *, worker=None, count=1):
    attrs = {} if worker is None else {"worker_ordinal": worker}
    return [{"path": path, "duration": duration, "attrs": attrs}
            for _ in range(count)]


class TestClassification:
    @pytest.mark.parametrize("path, phase", [
        ("machine-run", "simulate"),
        ("cell-run/machine-setup", "simulate"),
        ("presimulate-worker/cell-presimulate", "simulate"),
        ("presimulate-worker/cell-presimulate/fleet-vec-run", "simulate"),
        ("analyze-counter/holder", "cwt-holder"),
        ("analyze-counter/preprocess", "analysis"),
        ("analyze-counter/detector", "analysis"),
        ("machine-collect", "trace-io"),
        ("cell-run/trace-write", "trace-io"),
        ("trace-read", "trace-io"),
        ("campaign-pool", "pool-overhead"),
        ("campaign-pool/campaign-worker/cell-run", "pool-overhead"),
        ("cell-run/evaluate-detector", "analysis"),
        ("cell-run/evaluate-detector/analyze-counter/holder", "cwt-holder"),
        # Unlisted leaf inherits its nearest classified ancestor.
        ("analyze-counter/custom-step", "analysis"),
        ("mystery", "other"),
    ])
    def test_classify_span(self, path, phase):
        assert classify_span(path) == phase

    @pytest.mark.parametrize("name, phase", [
        ("fractal.cwt", "cwt-holder"),
        ("core.holder_tail", "cwt-holder"),
        ("core.holder_trajectory", "cwt-holder"),
        ("core.analyze_counter", "analysis"),
        ("memsim.machine_step", "simulate"),
        ("simkernel.drain", "simulate"),
        ("perf.pool_dispatch", "pool-overhead"),
        ("who.knows", "other"),
    ])
    def test_classify_hotpath(self, name, phase):
        assert classify_hotpath(name) == phase


class TestBuildCostProfile:
    def test_no_completed_spans_rejected(self):
        with pytest.raises(ValidationError, match="no completed spans"):
            build_cost_profile([])
        with pytest.raises(ValidationError, match="no completed spans"):
            build_cost_profile([{"path": "open-span", "duration": None,
                                 "attrs": {}}])

    def test_self_time_subtracts_children(self):
        spans = (span("analyze-counter", 10.0)
                 + span("analyze-counter/holder", 6.0)
                 + span("analyze-counter/holder/inner", 2.0)
                 + span("analyze-counter/detector", 1.0))
        costs = build_cost_profile(spans)
        by_path = {c["path"]: c for c in costs["top_cost_centers"]}
        assert by_path["analyze-counter"]["self_seconds"] == pytest.approx(3.0)
        assert by_path["analyze-counter/holder"]["self_seconds"] == (
            pytest.approx(4.0))
        assert by_path["analyze-counter/holder/inner"]["self_seconds"] == (
            pytest.approx(2.0))
        assert costs["wall_seconds"] == pytest.approx(10.0)  # single root
        assert costs["attributed_seconds"] == pytest.approx(10.0)
        assert costs["n_spans"] == 4

    def test_self_time_clamped_for_concurrent_children(self):
        # A pool span's workers run concurrently: their summed duration
        # exceeds the parent's wall time.  Self time clamps at zero.
        spans = (span("campaign-pool", 4.0)
                 + span("campaign-pool/campaign-worker/cell-run", 3.5,
                        worker=0)
                 + span("campaign-pool/campaign-worker/cell-run", 3.5,
                        worker=1))
        costs = build_cost_profile(spans)
        by_path = {c["path"]: c for c in costs["top_cost_centers"]}
        assert by_path["campaign-pool"]["self_seconds"] == 0.0

    def test_phantom_worker_level_rolls_up(self):
        # campaign-worker has no span record of its own; the cell-run
        # still rolls up to campaign-pool (longest *recorded* prefix).
        spans = (span("campaign-pool", 10.0)
                 + span("campaign-pool/campaign-worker/cell-run", 4.0,
                        worker=0)
                 + span("campaign-pool/campaign-worker/cell-run/machine-run",
                        3.0, worker=0))
        costs = build_cost_profile(spans)
        by_path = {c["path"]: c for c in costs["top_cost_centers"]}
        assert by_path["campaign-pool"]["self_seconds"] == pytest.approx(6.0)
        assert by_path[
            "campaign-pool/campaign-worker/cell-run"
        ]["self_seconds"] == pytest.approx(1.0)

    def test_phase_shares_sum_to_one(self):
        spans = (span("campaign-pool", 10.0)
                 + span("campaign-pool/campaign-worker/cell-run/machine-run",
                        5.0, worker=0)
                 + span("campaign-pool/campaign-worker/cell-run/holder",
                        3.0, worker=0))
        costs = build_cost_profile(spans)
        shares = [stats["share"] for stats in costs["phases"].values()
                  if stats["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)
        assert set(costs["phases"]) == set(PHASES)
        assert costs["phases"]["simulate"]["self_seconds"] == (
            pytest.approx(5.0))
        assert costs["phases"]["cwt-holder"]["self_seconds"] == (
            pytest.approx(3.0))
        assert costs["phases"]["pool-overhead"]["self_seconds"] == (
            pytest.approx(2.0))
        for stats in costs["phases"].values():
            if stats["share"] is not None:
                assert not math.isnan(stats["share"])

    def test_per_worker_split(self):
        spans = (span("campaign-pool", 10.0)
                 + span("campaign-pool/campaign-worker/machine-run", 4.0,
                        worker=0)
                 + span("campaign-pool/campaign-worker/machine-run", 2.0,
                        worker=1))
        costs = build_cost_profile(spans)
        assert sorted(costs["workers"]) == ["parent", "w0", "w1"]
        assert costs["workers"]["w0"]["simulate"]["self_seconds"] == (
            pytest.approx(4.0))
        assert costs["workers"]["w1"]["simulate"]["self_seconds"] == (
            pytest.approx(2.0))
        # Parent self time is the pool minus its children's rollup.
        assert costs["workers"]["parent"]["pool-overhead"][
            "self_seconds"] == pytest.approx(10.0)
        w0 = costs["workers"]["w0"]
        assert sum(s["share"] for s in w0.values()
                   if s["share"] is not None) == pytest.approx(1.0)

    def test_top_list_ordered_and_bounded(self):
        spans = []
        for i in range(20):
            spans += span(f"path-{i:02d}", float(i + 1))
        costs = build_cost_profile(spans, top=5)
        tops = costs["top_cost_centers"]
        assert len(tops) == 5
        selfs = [c["self_seconds"] for c in tops]
        assert selfs == sorted(selfs, reverse=True)
        assert tops[0]["path"] == "path-19"

    def test_wall_is_max_root_duration(self):
        spans = span("root-a", 4.0) + span("root-b", 9.0)
        costs = build_cost_profile(spans)
        assert costs["wall_seconds"] == pytest.approx(9.0)

    def test_call_counts_aggregate(self):
        costs = build_cost_profile(span("machine-run", 1.0, count=3))
        center = costs["top_cost_centers"][0]
        assert center["calls"] == 3
        assert center["total_seconds"] == pytest.approx(3.0)

    def test_cpu_view_from_profiler_hotpaths(self):
        profile = {"hotpaths": {
            "fractal.cwt": {"cpu_total": 6.0, "calls": 3},
            "memsim.machine_step": {"cpu_total": 3.0, "calls": 9},
            "unknown.thing": {"cpu_total": 1.0, "calls": 1},
            "no.cpu.recorded": {"calls": 2},
        }}
        costs = build_cost_profile(span("machine-run", 1.0), profile=profile)
        cpu = costs["cpu"]
        assert cpu["cpu_seconds"] == pytest.approx(10.0)
        assert cpu["phases"]["cwt-holder"]["share"] == pytest.approx(0.6)
        assert cpu["phases"]["simulate"]["share"] == pytest.approx(0.3)
        assert cpu["phases"]["other"]["share"] == pytest.approx(0.1)

    def test_no_profiler_no_cpu_view(self):
        costs = build_cost_profile(span("machine-run", 1.0))
        assert "cpu" not in costs
        assert costs["schema"] == COSTS_SCHEMA


class TestCostTable:
    def test_rows(self):
        spans = span("machine-run", 3.0) + span("holder", 1.0)
        rows = cost_table(build_cost_profile(spans))
        assert rows[0] == ["machine-run", "simulate", "1", "3.0000", "75.0%"]
        assert rows[1] == ["holder", "cwt-holder", "1", "1.0000", "25.0%"]

    def test_none_share_renders_dash(self):
        rows = cost_table({"top_cost_centers": [
            {"path": "p", "phase": "other", "calls": 1,
             "self_seconds": 0.0, "share": None}]})
        assert rows[0][-1] == "—"


class TestSessionIntegration:
    def test_profile_from_live_session(self):
        session = obs.enable_telemetry()
        try:
            with obs.span("analyze-counter"):
                with obs.span("holder"):
                    pass
                with obs.span("detector"):
                    pass
            costs = build_cost_profile(session.spans.to_list())
        finally:
            obs.disable_telemetry()
        assert costs["n_spans"] == 3
        paths = {c["path"] for c in costs["top_cost_centers"]}
        assert paths == {"analyze-counter", "analyze-counter/holder",
                         "analyze-counter/detector"}
        shares = [s["share"] for s in costs["phases"].values()
                  if s["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)

    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_campaign_spans_all_classified(self, engine):
        from repro.analysis.campaign import ExperimentSpec, execute_campaign
        from repro.obs import session as _obs

        specs = [ExperimentSpec(name="aging", n_runs=2, base_seed=3,
                                fault_factor=4.0, max_run_seconds=3_000.0,
                                engine=engine),
                 ExperimentSpec(name="healthy", n_runs=1, base_seed=9,
                                fault_factor=0.0, max_run_seconds=2_000.0,
                                engine=engine)]
        with _obs.telemetry_session() as session:
            execute_campaign(specs, workers=1)
            paths = {r["path"] for r in session.spans.to_list()}
        phases = {path: classify_span(path) for path in paths}
        assert "simulate" in phases.values()
        assert [path for path, phase in phases.items() if phase == "other"] == []

    def test_baseline_detector_time_booked_as_analysis(self):
        from repro.analysis.campaign import ExperimentSpec, execute_campaign
        from repro.obs import session as _obs

        specs = [ExperimentSpec(name="aging", n_runs=1, base_seed=3,
                                fault_factor=4.0, max_run_seconds=6_000.0,
                                detector_name="trend")]
        with _obs.telemetry_session() as session:
            execute_campaign(specs, workers=1)
            costs = build_cost_profile(session.spans.to_list())
        [center] = [c for c in costs["top_cost_centers"]
                    if c["path"].endswith("cell-run/evaluate-detector")]
        assert center["phase"] == "analysis"
        assert center["self_seconds"] > 0
        assert costs["phases"]["analysis"]["self_seconds"] > 0

    @pytest.mark.parametrize("name", ["run.csv", "run-store"])
    def test_trace_store_round_trip_classified(self, tmp_path, name):
        from repro.obs import session as _obs
        from repro.trace import TimeSeries, TraceBundle
        from repro.trace.store import read_bundle, write_bundle

        bundle = TraceBundle(metadata={"seed": 1})
        bundle.add(TimeSeries.from_values([1.0, 2.0, 3.0], name="avail"))
        with _obs.telemetry_session() as session:
            read_bundle(write_bundle(bundle, tmp_path / name))
            paths = [r["path"] for r in session.spans.to_list()]
        assert sorted(paths) == ["trace-read", "trace-write"]
        assert {classify_span(path) for path in paths} == {"trace-io"}
