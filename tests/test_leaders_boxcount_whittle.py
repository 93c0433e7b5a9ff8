"""Tests for wavelet leaders, box-counting dimensions and local Whittle."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.exceptions import AnalysisError, ValidationError
from repro.fractal import (
    boxcount_dimension,
    generalized_dimensions,
    wavelet_leader_analysis,
    wavelet_leaders,
)
from repro.generators import binomial_cascade, fbm, fgn, mrw, weierstrass
from repro.stats import local_whittle

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


class TestWaveletLeaders:
    def test_leader_structure(self, rng):
        x = rng.standard_normal(1024)
        leaders = wavelet_leaders(x, wavelet=2, level=5)
        assert sorted(leaders) == [1, 2, 3, 4, 5]
        # Reflect-extension doubles the effective length.
        assert leaders[1].size == 1024
        assert leaders[5].size == 64
        for lead in leaders.values():
            assert np.all(lead >= 0)

    def test_leaders_dominate_own_coefficients(self, rng):
        # A leader is a supremum including the level's own coefficient.
        from repro.fractal.wavelets import dwt

        x = rng.standard_normal(512)
        leaders = wavelet_leaders(x, wavelet=1, level=3)
        coeffs = dwt(np.concatenate([x, x[::-1]]), wavelet=1, level=3)
        own_finest = np.abs(coeffs[-1]) * 2.0 ** (-1 / 2.0)
        assert np.all(leaders[1] >= own_finest - 1e-12)

    @pytest.mark.parametrize("hurst", [0.4, 0.6, 0.8])
    def test_fbm_c1_matches_h(self, hurst):
        x = fbm(2**14, hurst, rng=np.random.default_rng(int(10 * hurst)))
        res = wavelet_leader_analysis(x, q=np.linspace(-2, 3, 11))
        assert res.c1 == pytest.approx(hurst, abs=0.1)

    def test_fbm_c2_near_zero(self):
        x = fbm(2**15, 0.6, rng=np.random.default_rng(3))
        res = wavelet_leader_analysis(x)
        assert abs(res.c2) < 0.05

    def test_mrw_c2_negative(self):
        x = mrw(2**15, 0.4, rng=np.random.default_rng(4))
        res = wavelet_leader_analysis(x)
        assert res.c2 < -0.05
        # Order of magnitude of -lam^2 = -0.16.
        assert res.c2 == pytest.approx(-0.16, abs=0.08)

    def test_weierstrass_uniform(self):
        w = weierstrass(2**13, 0.5)
        res = wavelet_leader_analysis(w, q=np.linspace(0, 3, 7))
        assert res.c1 == pytest.approx(0.5, abs=0.07)
        assert abs(res.c2) < 0.03

    def test_zeta_linear_for_monofractal(self):
        x = fbm(2**14, 0.5, rng=np.random.default_rng(5))
        res = wavelet_leader_analysis(x, q=np.linspace(0.5, 3, 6))
        np.testing.assert_allclose(res.zeta, 0.5 * res.q, atol=0.15)

    def test_too_short_rejected(self, rng):
        with pytest.raises((AnalysisError, ValidationError)):
            wavelet_leader_analysis(rng.standard_normal(64))

    def test_levels_reported(self):
        x = fbm(2**12, 0.5, rng=np.random.default_rng(6))
        res = wavelet_leader_analysis(x)
        assert np.all(np.diff(res.levels) == 1)


class TestBoxcount:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
    def test_fbm_graph_dimension(self, hurst):
        x = fbm(2**14, hurst, rng=np.random.default_rng(int(hurst * 10)))
        dim, err, fit = boxcount_dimension(x)
        assert dim == pytest.approx(2.0 - hurst, abs=0.2)
        assert fit.r_squared > 0.95

    def test_smooth_curve_dimension_one(self):
        t = np.linspace(0, 1, 4096)
        dim, __, __ = boxcount_dimension(np.sin(2 * np.pi * t))
        assert dim == pytest.approx(1.0, abs=0.1)

    def test_rougher_means_higher_dimension(self):
        smooth = fbm(2**13, 0.8, rng=np.random.default_rng(1))
        rough = fbm(2**13, 0.2, rng=np.random.default_rng(1))
        d_smooth, __, __ = boxcount_dimension(smooth)
        d_rough, __, __ = boxcount_dimension(rough)
        assert d_rough > d_smooth + 0.3

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            boxcount_dimension(np.ones(1024))

    def test_bad_exponent_range(self, rng):
        with pytest.raises(ValidationError):
            boxcount_dimension(rng.standard_normal(256), min_exponent=5,
                               max_exponent=3)


class TestGeneralizedDimensions:
    def test_uniform_measure_flat(self):
        q, dims = generalized_dimensions(np.full(1024, 1.0 / 1024))
        np.testing.assert_allclose(dims, 1.0, atol=1e-6)

    def test_cascade_decreasing(self, rng):
        mu = binomial_cascade(14, 0.7, rng=rng)
        q, dims = generalized_dimensions(mu, q=np.array([-2.0, 0.0, 2.0]))
        assert dims[0] > dims[1] > dims[2]
        # D0 (capacity dimension of the support) is 1 for a cascade.
        assert dims[1] == pytest.approx(1.0, abs=0.05)

    def test_information_dimension_at_q1(self, rng):
        mu = binomial_cascade(12, 0.6, rng=rng)
        q, dims = generalized_dimensions(mu, q=np.array([1.0]))
        p = 0.6
        # D1 = -(p log2 p + (1-p) log2 (1-p)) for the binomial measure.
        d1_theory = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        assert dims[0] == pytest.approx(d1_theory, abs=0.05)


class TestLocalWhittle:
    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7, 0.9])
    def test_recovers_fgn(self, hurst):
        x = fgn(2**14, hurst, rng=np.random.default_rng(int(hurst * 100)))
        assert local_whittle(x) == pytest.approx(hurst, abs=0.08)

    def test_short_series_rejected(self, rng):
        with pytest.raises((AnalysisError, ValidationError)):
            local_whittle(rng.standard_normal(64))

    def test_constant_rejected(self):
        with pytest.raises(AnalysisError):
            local_whittle(np.ones(1024))

    def test_bandwidth_effect(self):
        x = fgn(2**14, 0.7, rng=np.random.default_rng(9))
        wide = local_whittle(x, bandwidth_exponent=0.8)
        narrow = local_whittle(x, bandwidth_exponent=0.5)
        assert abs(wide - 0.7) < 0.15 and abs(narrow - 0.7) < 0.15

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # local_whittle imports scipy.optimize on first call, so every
        # CLI process skips that import's cost.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print('scipy.optimize' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
