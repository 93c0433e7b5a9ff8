"""Local (pointwise) Hölder exponent estimation.

The Hölder exponent ``h(t0)`` measures the regularity of a signal at one
point: the largest h such that ``|X(t) - P(t)| <= C |t - t0|^h`` near t0
for some polynomial P.  Two estimators are provided, following the
methodology of the DSN'03 paper (which used wavelet-based pointwise
estimates in the FracLab tradition):

* :func:`wavelet_holder` — regress ``log |W(a, t)|`` on ``log a`` over a
  band of fine scales, where W is the CWT with a derivative-of-Gaussian
  wavelet.  Inside the cone of influence of a singularity the modulus
  scales as ``a^{h + 1/2}`` (unit-energy normalisation), so
  ``h(t) = slope - 1/2``.  The modulus is stabilised by taking the
  supremum over the cone ``|t' - t| <= a`` at each scale.
* :func:`oscillation_holder` — the direct definition: the oscillation
  ``osc_r(t) = max - min`` of the signal over balls of radius r scales
  as ``r^{h(t)}``.

Both return one exponent per sample.  :func:`holder_trajectory` applies
an estimator over a sliding window and summarises each window, producing
the (mean h, variance h) trajectories that the aging indicators consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._validation import (
    as_1d_float_array,
    check_choice,
    check_positive_int,
)
from ..exceptions import AnalysisError, ValidationError
from ..obs import session as _obs
from ..obs.profile import profile
from ..trace.series import TimeSeries
from ..fractal.wavelets import cwt


def wavelet_holder(
    values,
    *,
    min_scale: float = 2.0,
    max_scale: float = 32.0,
    n_scales: int = 12,
    dog_order: int = 2,
    cone_supremum: bool = True,
) -> np.ndarray:
    """Pointwise Hölder exponents via wavelet-modulus regression.

    Parameters
    ----------
    values:
        The signal (a path; pass a cumulated counter, or the raw counter
        when it is already path-like, e.g. AvailableBytes).
    min_scale, max_scale, n_scales:
        The fine-scale band regressed over (log-spaced).
    dog_order:
        Vanishing moments of the analysing wavelet; must exceed the
        local polynomial trend order.
    cone_supremum:
        Replace ``|W(a, t)|`` by its supremum over the cone
        ``|t' - t| <= a`` (more faithful to the Hölder definition and
        markedly less noisy; on by default).

    Returns
    -------
    Array of h estimates, one per sample (edge samples use the shrunken
    cone that fits).
    """
    x = as_1d_float_array(values, name="values", min_length=64)
    if max_scale <= min_scale:
        raise ValidationError(f"max_scale ({max_scale}) must exceed min_scale ({min_scale})")
    check_positive_int(n_scales, name="n_scales", minimum=3)
    if max_scale > x.size / 4:
        raise ValidationError(
            f"max_scale ({max_scale}) too coarse for series of length {x.size}"
        )
    return _modulus_regression(x, min_scale, max_scale, n_scales,
                               dog_order, cone_supremum)


def _modulus_regression(x, min_scale, max_scale, n_scales, dog_order,
                        cone_supremum, tail=None) -> np.ndarray:
    """Wavelet-modulus Hölder estimates of every sample of ``x``, or of
    its newest ``tail`` samples when given."""
    scales = np.geomspace(min_scale, max_scale, n_scales)
    modulus = np.abs(cwt(x, scales, wavelet="dog", dog_order=dog_order))

    if cone_supremum:
        for j, a in enumerate(scales):
            half = max(int(round(a)), 1)
            modulus[j] = _rolling_max(modulus[j], half)
    if tail is not None:
        modulus = modulus[:, -tail:]

    # Floor the modulus: exact zeros happen on locally polynomial stretches.
    tiny = np.finfo(float).tiny
    log_mod = np.log2(np.maximum(modulus, tiny))
    log_a = np.log2(scales)

    # Per-sample regression of log|W| on log a, vectorised:
    # slope_t = cov(log_a, log_mod[:, t]) / var(log_a).
    la = log_a - log_a.mean()
    denom = np.sum(la**2)
    slopes = (la @ log_mod) / denom
    return slopes - 0.5


#: Margin between a tail segment's left edge and its first returned
#: position, in units of ``max_scale`` (Gaussian standard deviations).
SUPPORT_MULT = 10


@profile("core.holder_tail")
def holder_tail(
    values,
    tail: int,
    *,
    min_scale: float = 2.0,
    max_scale: float = 32.0,
    n_scales: int = 12,
    dog_order: int = 2,
    cone_supremum: bool = True,
) -> np.ndarray:
    """The newest ``tail`` exponents of :func:`wavelet_holder`, computed
    from a short trailing segment.

    The online monitor only reads the newest ``indicator_window``
    exponents of each recomputation, so instead of transforming the whole
    window this exploits the wavelet's compact effective support and
    transforms only a trailing segment of
    ``tail + round(max_scale) + ceil(SUPPORT_MULT * max_scale)`` samples
    — ``O(segment log segment)`` CWT work instead of
    ``O(window log window)``.  Keyword arguments are those of
    :func:`wavelet_holder`.

    Why the truncation is safe (to machine precision):

    * The DOG wavelet at scale ``a`` decays like ``exp(-t^2 / (2 a^2))``;
      beyond ``SUPPORT_MULT * max_scale`` samples (10 standard
      deviations) its amplitude is ~``e^-50`` ≈ 2e-22, below
      double-precision resolution relative to the modulus values it
      would perturb.
    * The CWT reflect-pads ``[x, reversed x]``; the segment and the full
      window share their final samples, so the *right* boundary
      extension is literally identical.  Only the segment's left edge
      differs, and every returned position sits at least
      ``SUPPORT_MULT * max_scale`` samples away from it.
    * The cone-supremum rolling max reads at most ``max_scale``
      neighbours, which the segment margin also covers.

    Equality with the batch path is therefore floating-point-exact up to
    FFT-size rounding (different transform lengths round differently at
    the 1e-15 level).  When the window is no longer than the segment
    (early in a run, or tiny configurations) the batch estimator runs
    directly — there is nothing to truncate, and the result is exact.
    """
    check_positive_int(tail, name="tail", minimum=1)
    check_positive_int(n_scales, name="n_scales", minimum=3)
    if max_scale <= min_scale:
        raise ValidationError(f"max_scale ({max_scale}) must exceed min_scale ({min_scale})")
    x = as_1d_float_array(values, name="values", min_length=64)
    # Segment = returned tail + cone-supremum reach + wavelet support
    # margin, floored at the estimator's own minimum input length.
    half_max = max(int(round(max_scale)), 1)
    reach = int(math.ceil(SUPPORT_MULT * max_scale))
    segment_length = max(tail + half_max + reach, 64)
    if x.size <= segment_length:
        h = wavelet_holder(x, min_scale=min_scale, max_scale=max_scale,
                           n_scales=n_scales, dog_order=dog_order,
                           cone_supremum=cone_supremum)
        return h[-min(tail, x.size):]

    _obs.counter("perf.sliding.segments").inc()
    return _modulus_regression(x[-segment_length:], min_scale, max_scale,
                               n_scales, dog_order, cone_supremum, tail=tail)


def oscillation_holder(
    values,
    *,
    radii=(4, 8, 16, 32, 64),
) -> np.ndarray:
    """Pointwise Hölder exponents from the oscillation scaling.

    ``osc_r(t) = max_{|u-t|<=r} X - min_{|u-t|<=r} X ~ r^{h(t)}``; the
    slope of ``log osc`` on ``log r`` across the given radii estimates
    h(t).  Simple and assumption-light, but carries a known finite-scale
    upward bias of order +0.1 to +0.2 (the oscillation converges to its
    scaling regime slowly), so it serves as the qualitative cross-check
    while :func:`wavelet_holder` is the quantitative estimator.
    """
    x = as_1d_float_array(values, name="values", min_length=64)
    radii_arr = np.asarray(radii, dtype=int)
    if radii_arr.ndim != 1 or radii_arr.size < 3:
        raise ValidationError("need at least 3 radii")
    if np.any(radii_arr < 1) or np.any(np.diff(radii_arr) <= 0):
        raise ValidationError("radii must be positive and strictly increasing")
    if radii_arr[-1] >= x.size // 2:
        raise ValidationError(f"largest radius {radii_arr[-1]} too big for length {x.size}")

    tiny = np.finfo(float).tiny
    log_osc = np.empty((radii_arr.size, x.size))
    for i, r in enumerate(radii_arr):
        osc = _rolling_max(x, int(r)) - _rolling_min(x, int(r))
        log_osc[i] = np.log2(np.maximum(osc, tiny))
    log_r = np.log2(radii_arr.astype(float))
    lr = log_r - log_r.mean()
    denom = np.sum(lr**2)
    return (lr @ log_osc) / denom


def local_holder(values, *, method: str = "wavelet", **kwargs) -> np.ndarray:
    """Dispatch to :func:`wavelet_holder` or :func:`oscillation_holder`."""
    check_choice(method, name="method", choices=("wavelet", "oscillation"))
    if method == "wavelet":
        return wavelet_holder(values, **kwargs)
    return oscillation_holder(values, **kwargs)


@dataclass(frozen=True)
class HolderTrajectory:
    """Pointwise Hölder exponents of a series plus its sampling times.

    Attributes
    ----------
    times:
        Sample times carried over from the source series.
    h:
        Pointwise Hölder estimates, one per sample.
    method:
        Which estimator produced them.
    source_name:
        Name of the analysed counter.
    """

    times: np.ndarray
    h: np.ndarray
    method: str
    source_name: str

    def as_series(self) -> TimeSeries:
        """View the trajectory as a :class:`TimeSeries` named ``<src>.holder``."""
        return TimeSeries(
            times=self.times, values=self.h,
            name=f"{self.source_name}.holder", units="exponent",
        )

    def __len__(self) -> int:
        return int(self.times.size)


@profile("core.holder_trajectory")
def holder_trajectory(
    ts: TimeSeries,
    *,
    method: str = "wavelet",
    **kwargs,
) -> HolderTrajectory:
    """Compute the pointwise Hölder trajectory of a (gap-free) series.

    The series must be gap-free and uniformly sampled — run it through
    :func:`repro.trace.fill_gaps` / :func:`repro.trace.resample_uniform`
    first if needed.
    """
    if ts.has_gaps:
        raise AnalysisError(
            f"series {ts.name!r} has gaps; fill them before Hölder estimation"
        )
    h = local_holder(ts.values, method=method, **kwargs)
    return HolderTrajectory(
        times=ts.times.copy(), h=h, method=method, source_name=ts.name,
    )


# ---------------------------------------------------------------------------
# Rolling extrema (O(n) monotonic-deque implementations)
# ---------------------------------------------------------------------------


def _rolling_max(x: np.ndarray, half_window: int) -> np.ndarray:
    """Centered rolling maximum with window ``[i - half, i + half]``."""
    return _rolling_extremum(x, half_window, np.maximum)


def _rolling_min(x: np.ndarray, half_window: int) -> np.ndarray:
    """Centered rolling minimum with window ``[i - half, i + half]``."""
    return _rolling_extremum(x, half_window, np.minimum)


def _rolling_extremum(x: np.ndarray, half_window: int, op) -> np.ndarray:
    """Centered rolling max/min via the two-pass block-scan trick.

    Runs in O(n log w) using repeated shifted reductions — plenty fast in
    numpy, and branch-free.
    """
    if half_window < 1:
        return x.copy()
    out = x.copy()
    shift = 1
    remaining = half_window
    # Doubling trick: combine with shifts 1, 2, 4, ... both directions.
    while remaining > 0:
        step = min(shift, remaining)
        left = np.empty_like(out)
        left[step:] = out[:-step]
        left[:step] = out[0]
        right = np.empty_like(out)
        right[:-step] = out[step:]
        right[-step:] = out[-1]
        out = op(op(out, left), right)
        remaining -= step
        shift *= 2
    return out
