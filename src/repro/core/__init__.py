"""The paper's primary contribution: multifractality-based aging detection.

Pipeline stages, each its own module:

:mod:`.holder`
    Pointwise (local) Hölder exponent estimation — the wavelet-modulus
    estimator (regression of ``log |W(a, t)|`` across fine scales), its
    truncated-support tail (:func:`~repro.core.holder.holder_tail`, the
    online monitor's sliding path) and the direct oscillation estimator,
    plus windowed Hölder *trajectories*.
:mod:`.indicators`
    Aging indicators derived from the Hölder trajectory: the windowed
    second moment (the paper's headline statistic), windowed mean, and
    fractal-dimension-flavoured summaries.
:mod:`.detectors`
    Turning an indicator series into crash warnings: threshold, CUSUM
    and EWMA detectors with a calibration window, alarm latching and
    warning-time extraction ("fractal collapse" detection).
:mod:`.pipeline`
    End-to-end: trace bundle -> preprocessing -> h(t) -> indicator ->
    alarms -> per-run report; multi-run evaluation drivers.
"""

from .holder import (
    local_holder,
    holder_trajectory,
    HolderTrajectory,
    holder_tail,
    oscillation_holder,
    wavelet_holder,
)
from .indicators import (
    windowed_moments,
    holder_variance_series,
    holder_mean_series,
    IndicatorSeries,
)
from .detectors import (
    AgingAlarm,
    HolderVarianceDetector,
    DetectorConfig,
    detect_fractal_collapse,
)
from .pipeline import (
    AgingAnalysis,
    AgingReport,
    analyze_counter,
    analyze_run,
)
from .online import OnlineAgingMonitor
from .forecasting import LifeModel, fit_life_model, predict_remaining_life

__all__ = [
    "local_holder",
    "holder_trajectory",
    "HolderTrajectory",
    "oscillation_holder",
    "wavelet_holder",
    "holder_tail",
    "windowed_moments",
    "holder_variance_series",
    "holder_mean_series",
    "IndicatorSeries",
    "AgingAlarm",
    "HolderVarianceDetector",
    "DetectorConfig",
    "detect_fractal_collapse",
    "AgingAnalysis",
    "AgingReport",
    "analyze_counter",
    "analyze_run",
    "OnlineAgingMonitor",
    "LifeModel",
    "fit_life_model",
    "predict_remaining_life",
]
