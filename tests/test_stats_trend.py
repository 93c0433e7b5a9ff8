"""Unit tests for Mann-Kendall and Sen slope."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import AnalysisError
from repro.stats import mann_kendall, sen_slope
from repro.stats import trend


def dense_s(x):
    """Reference S: sum over i<j of sign(x_j - x_i), one pair at a time."""
    return sum(np.sign(x[j] - x[i])
               for i in range(x.size) for j in range(i + 1, x.size))


def reference_sen_slope(t, x, max_pairs):
    """Sen slope over the pair lattice drawn afresh, without the memo."""
    n = t.size
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(12345)
        i = rng.integers(0, n - 1, size=max_pairs)
        j = rng.integers(1, n, size=max_pairs)
        keep = i < j
        i, j = i[keep], j[keep]
    dt = t[j] - t[i]
    valid = dt != 0
    return float(np.median((x[j][valid] - x[i][valid]) / dt[valid]))


# Tie-heavy series: normal draws quantised to a step, so most values
# repeat; at least two distinct values keep the variance nonzero.
_tied_series = st.builds(
    lambda seed, n, step: np.round(
        np.random.default_rng(seed).standard_normal(n) / step) * step,
    st.integers(0, 2**32 - 1), st.integers(4, 400),
    st.sampled_from([0.01, 0.25, 1.0, 3.0]),
).filter(lambda x: np.unique(x).size > 1)


class TestMannKendall:
    def test_strong_increase_detected(self):
        rng = np.random.default_rng(0)
        x = np.arange(200.0) + rng.standard_normal(200)
        res = mann_kendall(x)
        assert res.trend == "increasing"
        assert res.p_value < 1e-6
        assert res.s > 0

    def test_strong_decrease_detected(self):
        rng = np.random.default_rng(1)
        x = -0.5 * np.arange(200.0) + rng.standard_normal(200)
        res = mann_kendall(x)
        assert res.trend == "decreasing"
        assert res.z < 0

    def test_white_noise_no_trend(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(300)
        res = mann_kendall(x)
        assert res.trend == "none"
        assert res.p_value > 0.05

    def test_ties_handled(self):
        x = np.repeat(np.arange(20.0), 5)  # many ties, still increasing
        res = mann_kendall(x)
        assert res.trend == "increasing"

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            mann_kendall(np.ones(50))

    def test_long_series_subsampled(self):
        x = np.arange(10_000.0)
        res = mann_kendall(x)  # tested on an evenly spaced 3000-subsample
        assert res.trend == "increasing"
        assert res.s == 3000 * 2999 / 2

    def test_alpha_controls_decision(self):
        rng = np.random.default_rng(3)
        x = 0.002 * np.arange(100.0) + rng.standard_normal(100)
        strict = mann_kendall(x, alpha=1e-9)
        assert strict.trend == "none"

    @settings(max_examples=60, deadline=None)
    @given(x=_tied_series)
    def test_s_matches_dense_reference(self, x):
        assert mann_kendall(x).s == dense_s(x)

    def test_s_matches_dense_form_at_subsample_length(self):
        rng = np.random.default_rng(6)
        x = np.round(np.cumsum(rng.standard_normal(trend._MAX_EXACT_N)))
        dense = float(np.sum(np.triu(np.sign(x[None, :] - x[:, None]), 1)))
        assert mann_kendall(x).s == dense

    def test_memory_stays_linear(self):
        # The dense sign matrix at n = 3000 needs >200 MB of temporaries.
        x = np.round(np.random.default_rng(7).standard_normal(3000), 1)
        tracemalloc.start()
        try:
            mann_kendall(x)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestSenSlope:
    def test_exact_line(self):
        t = np.arange(50.0)
        assert sen_slope(t, 3.0 * t + 2) == pytest.approx(3.0)

    def test_robust_to_outliers(self):
        t = np.arange(100.0)
        y = 2.0 * t.copy()
        y[::10] += 500.0  # gross outliers
        assert sen_slope(t, y) == pytest.approx(2.0, abs=0.3)

    def test_noisy_slope(self):
        rng = np.random.default_rng(4)
        t = np.arange(500.0)
        y = -0.75 * t + 20 * rng.standard_normal(500)
        assert sen_slope(t, y) == pytest.approx(-0.75, abs=0.05)

    def test_long_series_subsampling_path(self):
        rng = np.random.default_rng(5)
        t = np.arange(3000.0)
        y = 1.5 * t + rng.standard_normal(3000)
        assert sen_slope(t, y, max_pairs=10_000) == pytest.approx(1.5, abs=0.05)

    def test_identical_times_rejected(self):
        with pytest.raises(AnalysisError):
            sen_slope([1.0, 1.0], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(AnalysisError):
            sen_slope([1.0, 2.0, 3.0], [0.0, 1.0])

    @pytest.mark.parametrize("n, max_pairs", [(300, 250_000),
                                              (2000, 250_000),
                                              (2000, 5_000)])
    def test_memoised_lattice_matches_fresh_draw(self, n, max_pairs):
        rng = np.random.default_rng(8)
        t = np.sort(rng.uniform(0.0, 1e4, n))
        y = 0.5 * t + rng.standard_normal(n)
        trend._pair_lattice.cache_clear()
        fresh = sen_slope(t, y, max_pairs=max_pairs)
        assert sen_slope(t, y, max_pairs=max_pairs) == fresh
        assert trend._pair_lattice.cache_info().hits == 1
        assert fresh == reference_sen_slope(t, y, max_pairs)

    @pytest.mark.parametrize("n, max_pairs", [(50, 250_000), (2000, 5_000)])
    def test_lattice_is_read_only(self, n, max_pairs):
        i, j = trend._pair_lattice(n, max_pairs)
        assert np.all(i < j)
        for arr in (i, j):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_max_pairs_values_do_not_collide(self):
        small = trend._pair_lattice(2000, 5_000)
        large = trend._pair_lattice(2000, 50_000)
        assert small[0].size < large[0].size
        assert trend._pair_lattice(2000, 5_000) is small

    def test_no_valid_pairs_rejected(self):
        with pytest.raises(AnalysisError, match="no valid pairs"):
            sen_slope(np.arange(3.0), np.arange(3.0), max_pairs=1)
