"""Local Whittle (Gaussian semiparametric) estimator of long memory.

Robinson's (1995) estimator: for the lowest ``m`` Fourier frequencies,
minimise

``R(d) = log( mean_j [ lambda_j^{2d} I(lambda_j) ] ) - 2 d mean_j log lambda_j``

over the memory parameter ``d``; then ``H = d + 1/2``.  More efficient
than the GPH log-periodogram regression under the same assumptions, and
a useful fifth opinion in the Hurst table.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_1d_float_array, check_in_range
from ..exceptions import AnalysisError


def local_whittle(values, *, bandwidth_exponent: float = 0.65) -> float:
    """Local Whittle estimate of the Hurst exponent of a noise-like series.

    Parameters
    ----------
    values:
        Stationary (noise-like) series.
    bandwidth_exponent:
        ``m = n ** bandwidth_exponent`` low frequencies are used.

    Returns
    -------
    The Hurst exponent estimate ``d_hat + 1/2``, clipped to (0, 1).
    """
    # Imported on first call: scipy.optimize is a slow import that
    # nothing else in the package needs, so importing ``repro`` skips it.
    from scipy.optimize import minimize_scalar

    x = as_1d_float_array(values, name="values", min_length=128)
    check_in_range(bandwidth_exponent, name="bandwidth_exponent", low=0.3, high=0.9)
    n = x.size
    m = int(n**bandwidth_exponent)
    if m < 8:
        raise AnalysisError("too few frequencies for local Whittle")

    centered = x - np.mean(x)
    spec = np.abs(np.fft.rfft(centered)) ** 2 / (2.0 * np.pi * n)
    freqs = 2.0 * np.pi * np.arange(len(spec)) / n
    I = spec[1: m + 1]
    lam = freqs[1: m + 1]
    if np.any(I <= 0):
        raise AnalysisError("zero periodogram ordinates (constant input?)")
    log_lam = np.log(lam)
    mean_log_lam = float(np.mean(log_lam))

    def objective(d: float) -> float:
        weighted = np.exp(2.0 * d * log_lam) * I
        return float(np.log(np.mean(weighted)) - 2.0 * d * mean_log_lam)

    result = minimize_scalar(objective, bounds=(-0.49, 0.99), method="bounded")
    if not result.success:
        raise AnalysisError(f"local Whittle optimisation failed: {result.message}")
    h = float(result.x) + 0.5
    return float(np.clip(h, 1e-3, 1.0 - 1e-3))
