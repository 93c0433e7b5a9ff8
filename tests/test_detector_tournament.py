"""Detector tournament: registry, scoreboard, and its surfaces.

Covers the scenario × detector grid machinery end to end: the named
detector registry, peak-score splitting, grid campaign execution, the
``repro.scoreboard/1`` artifact (build/save/load/table/publish), results
schema v2 round trips with v1 compatibility, the dashboard scoreboard
section, the OpenMetrics exporter, the live status tallies — and the
observation-only guarantee that collecting scores never changes a
single alarm.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis import (
    ExperimentSpec,
    build_scoreboard,
    cells_payload,
    detector_grid,
    detector_names,
    evaluate_detector,
    load_results,
    load_scoreboard,
    publish_scoreboard,
    run_campaign,
    save_results,
    save_scoreboard,
    scoreboard_from_results,
    scoreboard_table,
)
from repro.analysis.detector_registry import (
    PRECRASH_FRACTION,
    DetectorEvaluation,
    split_peak_scores,
)
from repro.baselines import RollingEntropyDetector, rolling_entropy
from repro.exceptions import AnalysisError, TraceError, ValidationError
from repro.obs import session as _obs


GRID_DETECTORS = ("holder", "trend", "entropy")


@pytest.fixture(scope="module")
def grid_results():
    """One tiny grid campaign: 3 detector families × 2 scenario cells."""
    specs = [
        ExperimentSpec(name="aging", scenario="stress", n_runs=2,
                       base_seed=5, max_run_seconds=30_000.0),
        ExperimentSpec(name="healthy", scenario="stress", n_runs=2,
                       base_seed=1005, fault_factor=0.0,
                       max_run_seconds=8_000.0),
    ]
    return run_campaign(detector_grid(specs, GRID_DETECTORS))


@pytest.fixture(scope="module")
def scoreboard(grid_results):
    return scoreboard_from_results(grid_results)


class TestRegistry:
    def test_all_families_registered(self):
        names = detector_names()
        for expected in ("holder", "holder-threshold", "holder-cusum",
                         "holder-ewma", "trend", "naive", "entropy"):
            assert expected in names

    def test_unknown_detector_rejected(self, nt4_run):
        spec = ExperimentSpec(name="x", n_runs=1)
        with pytest.raises(ValidationError):
            evaluate_detector("nope", nt4_run.bundle, spec)

    def test_spec_validates_detector_name(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(name="x", n_runs=1, detector_name="nope")

    @pytest.mark.parametrize("name", ["holder", "trend", "naive", "entropy"])
    def test_scores_are_observation_only(self, nt4_run, name):
        # The acceptance criterion at the single-run level: evaluating
        # with and without score collection yields the same alarm.
        spec = ExperimentSpec(name="x", n_runs=1)
        with_scores = evaluate_detector(name, nt4_run.bundle, spec,
                                        collect_scores=True)
        without = evaluate_detector(name, nt4_run.bundle, spec,
                                    collect_scores=False)
        assert with_scores.alarm_time == without.alarm_time
        assert without.peak_healthy is None
        assert without.peak_precrash is None

    def test_holder_matches_direct_analysis(self, nt4_run):
        from repro.core import analyze_counter

        spec = ExperimentSpec(name="x", n_runs=1)
        evaluation = evaluate_detector("holder", nt4_run.bundle, spec)
        direct = analyze_counter(nt4_run.bundle[spec.counter],
                                 indicator=spec.indicator,
                                 detector_config=spec.detector)
        assert evaluation.alarm_time == direct.alarm.alarm_time
        assert evaluation.detector == "holder"

    def test_crashed_run_carries_precrash_peak(self, nt4_run):
        spec = ExperimentSpec(name="x", n_runs=1)
        evaluation = evaluate_detector("holder", nt4_run.bundle, spec)
        assert evaluation.peak_precrash is not None
        assert np.isfinite(evaluation.peak_precrash)

    def test_scheme_variant_forces_scheme(self, nt4_run):
        spec = ExperimentSpec(name="x", n_runs=1)
        threshold = evaluate_detector("holder-threshold", nt4_run.bundle, spec)
        assert isinstance(threshold, DetectorEvaluation)
        assert threshold.detector == "holder-threshold"


class TestSplitPeakScores:
    def test_healthy_run_is_all_healthy(self):
        times = np.array([10.0, 20.0, 30.0])
        scores = np.array([1.0, 5.0, 2.0])
        healthy, precrash = split_peak_scores(times, scores, crash_time=None)
        assert healthy == 5.0
        assert precrash is None

    def test_crashed_run_splits_at_fraction(self):
        times = np.linspace(0.0, 1000.0, 101)
        scores = times / 100.0  # rises to 10 at the crash
        healthy, precrash = split_peak_scores(times, scores,
                                              crash_time=1000.0)
        cutoff = 1000.0 * (1.0 - PRECRASH_FRACTION)
        assert healthy == pytest.approx(max(scores[times < cutoff]))
        assert precrash == pytest.approx(10.0)

    def test_empty_series(self):
        assert split_peak_scores(np.array([]), np.array([]),
                                 crash_time=None) == (None, None)

    def test_all_scores_inside_precrash_window(self):
        # Monitoring that only starts late: no healthy evidence.
        times = np.array([900.0, 950.0])
        scores = np.array([3.0, 4.0])
        healthy, precrash = split_peak_scores(times, scores,
                                              crash_time=1000.0)
        assert healthy is None
        assert precrash == 4.0


class TestDetectorGrid:
    def test_grid_names_and_sizes(self):
        specs = [ExperimentSpec(name="a", n_runs=1),
                 ExperimentSpec(name="b", n_runs=1)]
        grid = detector_grid(specs, ["holder", "trend"])
        assert [s.name for s in grid] == [
            "a@holder", "a@trend", "b@holder", "b@trend"]
        assert all(s.detector_name == s.name.split("@")[1] for s in grid)

    def test_grid_preserves_seeds_per_detector(self):
        spec = ExperimentSpec(name="a", n_runs=2, base_seed=42)
        grid = detector_grid([spec], ["holder", "naive"])
        assert {s.base_seed for s in grid} == {42}

    def test_duplicate_detectors_rejected(self):
        with pytest.raises(ValidationError):
            detector_grid([ExperimentSpec(name="a", n_runs=1)],
                          ["holder", "holder"])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            detector_grid([], ["holder"])
        with pytest.raises(ValidationError):
            detector_grid([ExperimentSpec(name="a", n_runs=1)], [])

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValidationError):
            detector_grid([ExperimentSpec(name="a", n_runs=1)], ["nope"])


class TestObservationOnlyCampaign:
    def test_alarms_bit_identical_with_and_without_scores(self):
        # The PR's hard guarantee: the scoreboard pass is pure
        # observation.  Same campaign, scores on vs off, alarm times
        # (and crash times) must match bit for bit.
        base = [ExperimentSpec(name="aging", scenario="stress", n_runs=1,
                               base_seed=5, max_run_seconds=30_000.0)]
        grid = detector_grid(base, ["holder", "naive"])
        scored = run_campaign(grid)
        plain = run_campaign([dataclasses.replace(s, collect_scores=False)
                              for s in grid])
        for name in scored:
            for a, b in zip(scored[name].runs, plain[name].runs):
                assert a.alarm_time == b.alarm_time
                assert a.crash_time == b.crash_time
                assert b.peak_healthy is None
                assert b.peak_precrash is None


class TestGridCampaignRecords:
    def test_records_tag_detector(self, grid_results):
        for name, cell in grid_results.items():
            detector = name.split("@")[1]
            assert cell.spec.detector_name == detector
            assert all(r.detector == detector for r in cell.runs)

    def test_crashed_runs_have_precrash_peaks(self, grid_results):
        cell = grid_results["aging@holder"]
        for run in cell.runs:
            if run.crashed:
                assert run.peak_precrash is not None

    def test_healthy_runs_have_healthy_peaks_only(self, grid_results):
        cell = grid_results["healthy@holder"]
        for run in cell.runs:
            assert not run.crashed
            assert run.peak_precrash is None
            assert run.peak_healthy is not None

    def test_cells_payload_carries_peaks_and_detector(self, grid_results):
        payload = cells_payload(grid_results)
        cell = payload["aging@trend"]
        assert cell["detector"] == "trend"
        assert "premature" in cell
        assert all("peak_healthy" in r and "peak_precrash" in r
                   for r in cell["runs"])
        json.dumps(payload)  # manifest-safe


class TestScoreboard:
    def test_schema_and_shape(self, scoreboard):
        assert scoreboard["schema"] == "repro.scoreboard/1"
        assert scoreboard["n_cells"] == 2 * len(GRID_DETECTORS)
        assert set(scoreboard["detectors"]) == set(GRID_DETECTORS)

    def test_roc_and_auc_present_and_sane(self, scoreboard):
        for name, det in scoreboard["detectors"].items():
            assert det["n_pos"] > 0 and det["n_neg"] > 0, name
            assert det["roc"] is not None
            fpr = det["roc"]["fpr"]
            tpr = det["roc"]["tpr"]
            assert len(fpr) == len(tpr)
            assert fpr[0] == 0.0 and fpr[-1] == 1.0
            assert 0.0 <= det["auc"] <= 1.0

    def test_lead_quantiles_ordered(self, scoreboard):
        for det in scoreboard["detectors"].values():
            if det["lead_p50"] is not None:
                assert det["lead_p90"] >= det["lead_p50"]

    def test_false_alarm_rate_uses_healthy_time(self, scoreboard):
        for det in scoreboard["detectors"].values():
            assert det["healthy_seconds"] > 0
            expected = det["false_alarms"] / det["healthy_seconds"] * 3600.0
            assert det["false_alarms_per_hour"] == pytest.approx(expected)

    def test_empty_cells_rejected(self):
        with pytest.raises(TraceError):
            build_scoreboard({})

    def test_legacy_cells_without_peaks_still_score(self, grid_results):
        payload = cells_payload(grid_results)
        legacy = {}
        for name, cell in payload.items():
            cell = dict(cell)
            cell.pop("detector", None)
            cell["runs"] = [
                {k: v for k, v in r.items()
                 if k not in ("peak_healthy", "peak_precrash", "detector")}
                for r in cell["runs"]]
            legacy[name] = cell
        board = build_scoreboard(legacy)
        # all runs map to the default family; no ROC without peaks
        assert set(board["detectors"]) == {"holder"}
        assert board["detectors"]["holder"]["roc"] is None
        assert board["detectors"]["holder"]["auc"] is None

    def test_save_load_round_trip(self, scoreboard, tmp_path):
        path = tmp_path / "scoreboard.json"
        save_scoreboard(scoreboard, path)
        assert load_scoreboard(path) == json.loads(json.dumps(scoreboard))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.status/1"}))
        with pytest.raises(TraceError):
            load_scoreboard(path)

    def test_save_rejects_non_scoreboard(self, tmp_path):
        with pytest.raises(TraceError):
            save_scoreboard({"schema": "nope"}, tmp_path / "x.json")

    def test_table_renders_dash_for_undefined(self):
        board = build_scoreboard({
            "healthy": {"runs": [{"seed": 1, "crashed": False,
                                  "duration": 100.0, "alarm_time": None}],
                        "detector": "naive", "crashed": 0, "detected": 0,
                        "missed": 0, "false_alarms": 0, "lead_times": []},
        })
        rows = scoreboard_table(board)
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "naive"
        assert "—" in row  # detection rate over 0 crashes is undefined
        from repro.report import render_table

        text = render_table(
            ["detector", "cells", "runs", "crashed", "detected", "rate",
             "premature", "missed", "lead_p50_s", "lead_p90_s", "fa_per_h",
             "auc"], rows)
        assert "—" in text
        assert "nan" not in text

    def test_publish_sets_gauges(self, scoreboard):
        with _obs.telemetry_session() as session:
            publish_scoreboard(scoreboard)
            snap = session.metrics.snapshot()
        for name in GRID_DETECTORS:
            assert f"scoreboard.{name}.auc" in snap
        assert snap["scoreboard.holder.auc"]["value"] == (
            scoreboard["detectors"]["holder"]["auc"])

    def test_publish_noop_without_session(self, scoreboard):
        publish_scoreboard(scoreboard)  # must not raise


class TestResultsSchemaV2:
    def test_round_trip_preserves_detector_and_peaks(self, grid_results,
                                                     tmp_path):
        path = tmp_path / "results.json"
        save_results(grid_results, path)
        loaded = load_results(path)
        assert set(loaded) == set(grid_results)
        for name in grid_results:
            assert loaded[name].spec == grid_results[name].spec
            assert loaded[name].runs == grid_results[name].runs

    def test_v1_files_still_load(self, grid_results, tmp_path):
        # Rewrite a saved file as schema v1 with the pre-tournament field
        # set: loading must map runs to the default Hölder detector.
        path = tmp_path / "v1.json"
        save_results({"aging@holder": grid_results["aging@holder"]}, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 1
        for cell in payload["cells"].values():
            for key in ("detector_name", "collect_scores"):
                cell["spec"].pop(key)
            for run in cell["runs"]:
                for key in ("detector", "peak_healthy", "peak_precrash"):
                    run.pop(key)
        path.write_text(json.dumps(payload))
        loaded = load_results(path)
        cell = loaded["aging@holder"]
        assert cell.spec.detector_name == "holder"
        assert all(r.detector == "holder" for r in cell.runs)
        assert all(r.peak_healthy is None for r in cell.runs)

    def test_legacy_holder_engine_key_dropped(self, grid_results, tmp_path):
        # v2 files written while specs carried a Hölder engine name still
        # load, even under the since-deleted "online" name.
        path = tmp_path / "legacy.json"
        save_results(grid_results, path)
        payload = json.loads(path.read_text())
        for cell in payload["cells"].values():
            cell["spec"]["holder_engine"] = "online"
        path.write_text(json.dumps(payload))
        loaded = load_results(path)
        for name in grid_results:
            assert loaded[name].spec == grid_results[name].spec
            assert loaded[name].runs == grid_results[name].runs

    def test_unknown_version_rejected(self, grid_results, tmp_path):
        path = tmp_path / "future.json"
        save_results(grid_results, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceError):
            load_results(path)

    def test_scoreboard_rebuilds_from_saved_results(self, grid_results,
                                                    scoreboard, tmp_path):
        # The `repro scoreboard` contract: artifacts alone suffice.
        path = tmp_path / "results.json"
        save_results(grid_results, path)
        rebuilt = build_scoreboard(cells_payload(load_results(path)))
        assert rebuilt == json.loads(json.dumps(scoreboard))


class TestDashboardScoreboard:
    def test_tournament_section_rendered(self, grid_results):
        from repro.obs.dashboard import render_campaign_dashboard

        html = render_campaign_dashboard(cells=cells_payload(grid_results))
        assert "Detector tournament" in html
        assert "ROC" in html
        assert "league table" in html.lower()
        for name in GRID_DETECTORS:
            assert name in html
        assert html.count("<polyline") >= len(GRID_DETECTORS)

    def test_explicit_scoreboard_bypasses_rebuild(self, grid_results,
                                                  scoreboard):
        from repro.obs.dashboard import render_campaign_dashboard

        payload = cells_payload(grid_results)
        assert (render_campaign_dashboard(cells=payload)
                == render_campaign_dashboard(cells=payload,
                                             scoreboard=scoreboard))

    def test_no_section_without_peaks(self):
        from repro.obs.dashboard import render_campaign_dashboard

        cells = {"aging": {
            "runs": [{"seed": 1, "crashed": True, "duration": 900.0,
                      "alarm_time": 700.0, "crash_time": 900.0}],
            "crashed": 1, "detected": 1, "missed": 0, "false_alarms": 0,
            "lead_times": [200.0], "median_lead": 200.0,
        }}
        html = render_campaign_dashboard(cells=cells)
        assert "Detector tournament" not in html


class TestScoreboardPrometheus:
    def test_renders_families_with_labels(self, scoreboard):
        from repro.obs.export import scoreboard_to_prometheus

        text = scoreboard_to_prometheus(scoreboard)
        assert text.endswith("# EOF\n")
        assert "# TYPE repro_scoreboard_auc gauge" in text
        assert 'detector="holder"' in text
        assert 'cell="aging@trend"' in text
        assert "repro_scoreboard_runs_total" in text

    def test_empty_scoreboard_rejected(self):
        from repro.obs.export import scoreboard_to_prometheus

        with pytest.raises(ValidationError):
            scoreboard_to_prometheus({"detectors": {}, "cells": {}})


class TestStatusBoardDetectorTallies:
    def test_tallies_accumulate(self):
        from repro.obs.statusd import StatusBoard

        board = StatusBoard()
        board.begin(total_units=4, cells={"a": 4})
        board.unit_finished(cell="a", detector="holder", alarmed=True)
        board.unit_finished(cell="a", detector="holder", alarmed=False)
        board.unit_finished(cell="a", detector="trend", alarmed=True)
        board.unit_finished(cell="a")  # legacy call shape still works
        snap = board.snapshot()
        assert snap["detectors"] == {
            "holder": {"done": 2, "alarms": 1},
            "trend": {"done": 1, "alarms": 1},
        }
        assert snap["units_done"] == 4

    def test_begin_resets_tallies(self):
        from repro.obs.statusd import StatusBoard

        board = StatusBoard()
        board.begin(total_units=1)
        board.unit_finished(detector="holder", alarmed=True)
        board.begin(total_units=1)
        assert board.snapshot()["detectors"] == {}


class TestEntropyDetector:
    def test_rolling_entropy_bounds(self, rng):
        values = np.cumsum(rng.standard_normal(2000))
        idx, ent = rolling_entropy(values, window=128, step=16, bins=16)
        assert idx.size == ent.size > 0
        assert np.all((ent >= 0.0) & (ent <= 1.0))

    def test_constant_window_has_zero_entropy(self):
        values = np.full(300, 7.0)
        _, ent = rolling_entropy(values, window=128, step=16, bins=16)
        assert np.all(ent == 0.0)

    def test_noise_has_higher_entropy_than_ramp(self, rng):
        noisy = np.cumsum(rng.standard_normal(1000))
        ramp = np.linspace(0.0, 100.0, 1000)
        _, ent_noise = rolling_entropy(noisy, window=128, step=64, bins=16)
        _, ent_ramp = rolling_entropy(ramp, window=128, step=64, bins=16)
        assert ent_noise.mean() > ent_ramp.mean()

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            rolling_entropy(np.arange(50.0), window=128, step=16, bins=16)

    def test_alarms_on_entropy_collapse(self, rng):
        from repro.trace import TimeSeries

        # Healthy: diverse random-walk increments.  Aged: the counter
        # locks onto a deterministic ramp (entropy collapses).
        healthy = np.cumsum(rng.standard_normal(4000)) + 1000.0
        aged = healthy[-1] - 0.5 * np.arange(4000.0)
        ts = TimeSeries(times=np.arange(8000.0),
                        values=np.concatenate([healthy, aged]),
                        name="AvailableBytes")
        det = RollingEntropyDetector(threshold_sigma=6.0)
        alarm = det.run(ts)
        assert alarm is not None
        assert alarm > 4000.0

    def test_quiet_on_stationary_noise(self, rng):
        from repro.trace import TimeSeries

        values = np.cumsum(rng.standard_normal(8000)) + 1000.0
        ts = TimeSeries(times=np.arange(8000.0), values=values,
                        name="AvailableBytes")
        assert RollingEntropyDetector().run(ts) is None

    def test_decision_scores_match_run_threshold(self, rng):
        from repro.trace import TimeSeries

        healthy = np.cumsum(rng.standard_normal(4000)) + 1000.0
        aged = healthy[-1] - 0.5 * np.arange(4000.0)
        ts = TimeSeries(times=np.arange(8000.0),
                        values=np.concatenate([healthy, aged]),
                        name="AvailableBytes")
        det = RollingEntropyDetector(threshold_sigma=6.0)
        times, scores = det.decision_scores(ts)
        alarm = det.run(ts)
        assert times.size == scores.size
        # the alarm sample is one of the >threshold scores
        above = times[scores > det.threshold_sigma]
        assert alarm in above
