"""The online monitor's two Hölder engines: ``"batch"`` (the tail of
``wavelet_holder``) and ``"sliding"`` (``holder_tail``), checked against
the batch oracle, over a stream, and at construction."""

import numpy as np
import pytest

from repro.core.holder import wavelet_holder
from repro.core.online import HOLDER_ENGINES, OnlineAgingMonitor
from repro.exceptions import AnalysisError, ValidationError


def _signal(n, seed=7):
    rng = np.random.default_rng(seed)
    drift = np.linspace(0.0, 2.0, n) ** 2
    values = np.cumsum(rng.normal(size=n) * (1.0 + drift))
    return np.arange(n, dtype=float), values


def _one_point(engine, values, tail, **holder_kwargs):
    """The single indicator point (mean h of the newest ``tail``) a
    monitor whose history is the whole of ``values`` emits."""
    monitor = OnlineAgingMonitor(
        chunk_size=16, history=values.size, indicator_window=tail,
        holder_engine=engine, holder_kwargs=holder_kwargs)
    monitor.update_many(np.arange(values.size, dtype=float), values)
    assert monitor.indicator_history.size == 1
    return monitor.indicator_history[0]


class TestRegistry:
    """The engine names the monitor and ``watch --engine`` accept."""

    def test_canonical_engines_registered(self):
        from repro.cli import build_parser

        assert HOLDER_ENGINES == ("batch", "sliding")
        parser = build_parser()
        for name in HOLDER_ENGINES:
            assert parser.parse_args(["watch", "--engine", name]).engine == name
        with pytest.raises(SystemExit):
            parser.parse_args(["watch", "--engine", "online"])

    def test_unknown_name_rejected(self):
        for name in ("warp", "online"):
            with pytest.raises(ValidationError, match="holder_engine"):
                OnlineAgingMonitor(holder_engine=name)


class TestConformance:
    """Both engines reproduce the batch oracle's indicator points."""

    @pytest.mark.parametrize("name", HOLDER_ENGINES)
    def test_estimate_identical_to_batch_oracle(self, name):
        # A tail spanning the whole window is the full trajectory.
        _, v = _signal(2_048)
        assert _one_point(name, v, v.size) == np.mean(wavelet_holder(v))

    @pytest.mark.parametrize("name", HOLDER_ENGINES)
    @pytest.mark.parametrize("tail", (64, 256))
    def test_tail_matches_full_trajectory(self, name, tail):
        _, v = _signal(2_048)
        np.testing.assert_allclose(
            _one_point(name, v, tail), np.mean(wavelet_holder(v)[-tail:]),
            rtol=1e-9, atol=1e-8)

    @pytest.mark.parametrize("name", HOLDER_ENGINES)
    def test_holder_kwargs_plumbed_through(self, name):
        _, v = _signal(1_024)
        expected = wavelet_holder(v, n_scales=8, max_scale=16.0)
        np.testing.assert_allclose(
            _one_point(name, v, 128, n_scales=8, max_scale=16.0),
            np.mean(expected[-128:]), rtol=1e-9, atol=1e-8)


class TestStreaming:
    @staticmethod
    def _monitor(name="batch"):
        return OnlineAgingMonitor(chunk_size=128, history=512,
                                  indicator_window=128, holder_engine=name)

    @pytest.mark.parametrize("name", HOLDER_ENGINES)
    def test_none_until_history_fills_then_tail(self, name):
        monitor = self._monitor(name)
        t, v = _signal(700, seed=3)
        monitor.update_many(t[:400], v[:400])
        assert monitor.state == "buffering"
        assert monitor.indicator_history.size == 0
        monitor.update_many(t[400:], v[400:])
        # Emits at samples 512 and 640.
        np.testing.assert_array_equal(monitor.indicator_times, [511.0, 639.0])
        np.testing.assert_allclose(
            monitor.indicator_history[0],
            np.mean(wavelet_holder(v[:512])[-128:]), rtol=1e-9, atol=1e-8)

    @pytest.mark.parametrize("name", ("sliding",))
    def test_stream_tail_matches_batch_stream(self, name):
        t, v = _signal(900, seed=5)
        batch = self._monitor("batch")
        other = self._monitor(name)
        for start, stop in ((0, 300), (300, 601), (601, 900)):
            batch.update_many(t[start:stop], v[start:stop])
            other.update_many(t[start:stop], v[start:stop])
            np.testing.assert_array_equal(other.indicator_times,
                                          batch.indicator_times)
            np.testing.assert_allclose(other.indicator_history,
                                       batch.indicator_history,
                                       rtol=1e-9, atol=1e-8)

    def test_empty_batch_is_noop(self):
        monitor = self._monitor()
        assert monitor.update_many([], []) is False
        assert monitor.n_samples == 0

    @pytest.mark.parametrize("times,values", [
        ([0.0, 1.0], [1.0]),                        # length mismatch
        ([[0.0, 1.0]], [[1.0, 2.0]]),               # not 1-D
        ([0.0, float("nan")], [1.0, 2.0]),          # non-finite time
        ([0.0, 1.0], [1.0, float("inf")]),          # non-finite value
        ([1.0, 1.0], [1.0, 2.0]),                   # not strictly ordered
    ])
    def test_bad_batches_rejected(self, times, values):
        monitor = self._monitor()
        with pytest.raises(AnalysisError):
            monitor.update_many(times, values)
        assert monitor.n_samples == 0

    def test_time_must_advance_across_calls(self):
        monitor = self._monitor()
        monitor.update_many([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(AnalysisError, match="strict time order"):
            monitor.update_many([1.0, 2.0], [3.0, 4.0])


class TestConstructionValidation:
    def test_tail_cannot_exceed_history(self):
        with pytest.raises(AnalysisError, match="cannot exceed history"):
            OnlineAgingMonitor(history=256, indicator_window=512)

    def test_history_floor(self):
        with pytest.raises(ValidationError):
            OnlineAgingMonitor(history=16, indicator_window=16)

    @pytest.mark.parametrize("name", HOLDER_ENGINES)
    def test_bad_holder_kwargs_fail_eagerly(self, name):
        with pytest.raises(AnalysisError, match="holder_kwargs"):
            OnlineAgingMonitor(holder_engine=name,
                               holder_kwargs={"no_such_kwarg": 1})
