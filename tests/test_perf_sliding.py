"""Tests for the sliding Hölder tail and the monitor's fast paths."""

import numpy as np
import pytest

from repro.core.holder import holder_tail, wavelet_holder
from repro.core.online import OnlineAgingMonitor
from repro.exceptions import AnalysisError, ValidationError
from repro.generators import fgn
from repro.obs import session as _obs


@pytest.fixture(scope="module")
def crashing_counter():
    """AvailableBytes trace of a crashing stress host (fixed seed)."""
    from repro.memsim.scenarios import build_scenario

    machine = build_scenario("stress", seed=3, max_run_seconds=20_000.0)
    result = machine.run()
    assert result.crashed, "fixture scenario must crash"
    return result.bundle["AvailableBytes"].values


def _segments(x, tail, **kwargs):
    """``holder_tail`` plus how many truncated segments it transformed."""
    with _obs.telemetry_session() as session:
        h = holder_tail(x, tail, **kwargs)
        return h, session.metrics.counter("perf.sliding.segments").value


class TestSlidingHolderEstimator:
    def test_tail_matches_batch_on_crashing_trace(self, crashing_counter):
        window = crashing_counter[-4096:]
        tail = holder_tail(window, 512)
        batch = wavelet_holder(window)[-512:]
        assert tail.shape == (512,)
        np.testing.assert_allclose(tail, batch, rtol=1e-9, atol=1e-8)

    def test_tail_matches_batch_on_fbm(self):
        # (length, tail, wavelet_holder kwargs): long and short windows,
        # narrow and wide tails, default and custom scale bands.
        for n, tail, kwargs in ((6_000, 256, dict(max_scale=24.0, n_scales=10)),
                                (2_048, 64, {}),
                                (2_048, 256, {}),
                                (1_024, 128, dict(max_scale=16.0, n_scales=8))):
            x = np.cumsum(np.random.default_rng(17).normal(size=n))
            h, segments = _segments(x, tail, **kwargs)
            assert segments == 1
            np.testing.assert_allclose(
                h, wavelet_holder(x, **kwargs)[-tail:], rtol=1e-9, atol=1e-8)

    def test_short_window_falls_back_to_batch_exactly(self):
        # A window no longer than the segment, and a tail as long as the
        # window (the full trajectory), both take the batch path.
        for n, tail in ((700, 512), (2_048, 2_048)):
            x = np.cumsum(np.random.default_rng(5).normal(size=n))
            h, segments = _segments(x, tail)
            assert segments == 0
            np.testing.assert_array_equal(h, wavelet_holder(x)[-tail:])

    def test_segment_length_accounts_for_support_and_cone(self):
        # tail + round(max_scale) cone reach + 10 * max_scale support.
        segment = 512 + 32 + 320
        x = np.cumsum(np.random.default_rng(9).normal(size=segment + 1))
        assert _segments(x[1:], 512, max_scale=32.0)[1] == 0
        assert _segments(x, 512, max_scale=32.0)[1] == 1

    def test_validation(self):
        x = np.cumsum(np.random.default_rng(1).normal(size=1_024))
        with pytest.raises(ValidationError):
            holder_tail(x, 0)
        with pytest.raises(ValidationError):
            holder_tail(x, 64, max_scale=2.0, min_scale=4.0)
        with pytest.raises(ValidationError):
            holder_tail(x, 64, n_scales=2)


def _drifting_signal(n, seed=7):
    rng = np.random.default_rng(seed)
    drift = np.linspace(0.0, 2.0, n) ** 2
    values = np.cumsum(rng.normal(size=n) * (1.0 + drift))
    return np.arange(n, dtype=float), values


def _engine_stream(kind, n_drift):
    """A ``(times, values)`` stream for the batch-vs-sliding checks.

    ``"drift"`` is the ``n_drift``-sample drifting signal; ``"fgn-walk"``
    is a fixed 12,288-sample cumulated fGn (H = 0.75, seed 21).
    """
    if kind == "drift":
        return _drifting_signal(n_drift)
    values = np.cumsum(fgn(12_288, 0.75, rng=np.random.default_rng(21)))
    return np.arange(values.size, dtype=float), values


class TestMonitorEngines:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError):
            OnlineAgingMonitor(holder_engine="warp")

    def test_bad_holder_kwargs_rejected_at_construction(self):
        for name in ("batch", "sliding"):
            with pytest.raises(AnalysisError, match="holder_kwargs"):
                OnlineAgingMonitor(holder_engine=name,
                                   holder_kwargs={"no_such_kwarg": 1})

    @pytest.mark.parametrize("stream", ["drift", "fgn-walk"])
    def test_sliding_engine_matches_batch_indicators_and_alarm(self, stream):
        t, v = _engine_stream(stream, 12_288)
        batch = OnlineAgingMonitor(holder_engine="batch")
        sliding = OnlineAgingMonitor(holder_engine="sliding")
        batch.update_many(t, v)
        sliding.update_many(t, v)
        assert len(batch.indicator_history) == len(sliding.indicator_history)
        np.testing.assert_allclose(batch.indicator_history,
                                   sliding.indicator_history,
                                   rtol=1e-9, atol=1e-8)
        np.testing.assert_array_equal(batch.indicator_times,
                                      sliding.indicator_times)
        assert batch.alarm_time == sliding.alarm_time

    @pytest.mark.parametrize("stream", ["drift", "fgn-walk"])
    def test_sliding_engine_cuts_cwt_flops_5x(self, stream):
        t, v = _engine_stream(stream, 8_192)

        def flops(engine):
            monitor = OnlineAgingMonitor(holder_engine=engine)
            with _obs.telemetry_session() as session:
                monitor.update_many(t, v)
                return session.metrics.counter("fractal.cwt_flops").value

        ratio = flops("batch") / flops("sliding")
        assert ratio >= 5.0


class TestVectorisedUpdateMany:
    def _monitor(self, **overrides):
        kwargs = dict(chunk_size=128, history=512, indicator_window=256,
                      n_warmup=1, n_calibration=10)
        kwargs.update(overrides)
        return OnlineAgingMonitor(**kwargs)

    def test_matches_per_sample_loop(self):
        t, v = _drifting_signal(3_000, seed=11)
        looped = self._monitor()
        for ti, vi in zip(t, v):
            looped.update(ti, vi)
        batched = self._monitor()
        batched.update_many(t, v)
        np.testing.assert_array_equal(looped.indicator_history,
                                      batched.indicator_history)
        np.testing.assert_array_equal(looped.indicator_times,
                                      batched.indicator_times)
        assert looped.state == batched.state
        assert looped.alarm_time == batched.alarm_time
        assert looped.n_samples == batched.n_samples

    def test_matches_across_odd_split_points(self):
        t, v = _drifting_signal(2_000, seed=13)
        whole = self._monitor()
        whole.update_many(t, v)
        pieces = self._monitor()
        for start, stop in ((0, 7), (7, 300), (300, 901), (901, 2_000)):
            pieces.update_many(t[start:stop], v[start:stop])
        np.testing.assert_array_equal(whole.indicator_history,
                                      pieces.indicator_history)
        assert whole.state == pieces.state

    def test_state_change_callbacks_fire_at_same_times(self):
        t, v = _drifting_signal(3_000, seed=19)
        seen_loop, seen_batch = [], []
        looped = self._monitor(
            on_state_change=lambda *a: seen_loop.append(a))
        for ti, vi in zip(t, v):
            looped.update(ti, vi)
        batched = self._monitor(
            on_state_change=lambda *a: seen_batch.append(a))
        batched.update_many(t, v)
        assert seen_loop == seen_batch
        assert seen_loop  # the run must actually transition

    def test_empty_batch_is_noop(self):
        monitor = self._monitor()
        assert monitor.update_many([], []) is False
        assert monitor.n_samples == 0

    def test_invalid_batch_rejected_whole(self):
        monitor = self._monitor()
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 1.0, float("nan")], [1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError):
            monitor.update_many([0.0, 1.0], [1.0])
        assert monitor.n_samples == 0
        monitor.update(5.0, 1.0)
        with pytest.raises(AnalysisError):
            monitor.update_many([5.0, 6.0], [1.0, 2.0])
        assert monitor.n_samples == 1

    def test_accepts_generators(self):
        monitor = self._monitor()
        monitor.update_many((float(i) for i in range(40)),
                            (float(i % 7) + i * 0.01 for i in range(40)))
        assert monitor.n_samples == 40
