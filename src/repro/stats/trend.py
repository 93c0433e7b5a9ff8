"""Nonparametric trend estimation: Mann–Kendall test and Sen's slope.

These are the workhorses of the *measurement-based* software-aging
literature (Garg et al. 1998; Vaidyanathan & Trivedi 1998): detect a
monotone trend in a resource counter with Mann–Kendall, quantify its rate
with Sen's robust slope, then extrapolate to exhaustion.  They serve here
as the classical baseline against which the paper's multifractal detector
is compared (experiment T4).

Both kernels are exact.  Mann–Kendall S is counted in O(n log n) from
dense ranks by a bottom-up merge count instead of the O(n^2) sign
matrix, and Sen's subsampled pair lattice depends only on
``(n, max_pairs)``, so it is drawn once per shape and memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .._validation import as_1d_float_array
from ..exceptions import AnalysisError

# Series longer than this are evenly subsampled before the MK test.  A
# results contract, not a speed guard: changing it moves alarm times.
_MAX_EXACT_N = 3000


@dataclass(frozen=True)
class MannKendallResult:
    """Outcome of the Mann–Kendall trend test.

    Attributes
    ----------
    s:
        The MK S statistic (sum of pairwise sign concordances).
    z:
        Normal-approximation z score with tie correction and the
        continuity correction.
    p_value:
        Two-sided p value.
    trend:
        ``"increasing"``, ``"decreasing"`` or ``"none"`` at the supplied
        significance level.
    """

    s: float
    z: float
    p_value: float
    trend: str


def mann_kendall(values, alpha: float = 0.05) -> MannKendallResult:
    """Two-sided Mann–Kendall test for monotone trend.

    S is computed exactly in O(n log n) time and O(n) memory.  Series
    longer than ``_MAX_EXACT_N`` samples are first evenly subsampled to
    that length (the test is then approximate but remains consistent for
    monotone alternatives).
    """
    x = as_1d_float_array(values, name="values", min_length=4)
    if x.size > _MAX_EXACT_N:
        idx = np.linspace(0, x.size - 1, _MAX_EXACT_N).astype(int)
        x = x[idx]
    n = x.size

    __, ranks, counts = np.unique(x, return_inverse=True, return_counts=True)
    s = float(_mk_s(ranks, counts.size))

    # Variance with tie correction.
    tie_term = float(np.sum(counts * (counts - 1) * (2 * counts + 5)))
    var_s = (n * (n - 1) * (2 * n + 5) - tie_term) / 18.0
    if var_s <= 0:
        raise AnalysisError("Mann-Kendall variance is zero (constant series?)")

    if s > 0:
        z = (s - 1) / np.sqrt(var_s)
    elif s < 0:
        z = (s + 1) / np.sqrt(var_s)
    else:
        z = 0.0
    p_value = float(2.0 * (1.0 - ndtr(abs(z))))

    if p_value < alpha:
        trend = "increasing" if z > 0 else "decreasing"
    else:
        trend = "none"
    return MannKendallResult(s=s, z=float(z), p_value=p_value, trend=trend)


def _mk_s(ranks: np.ndarray, n_levels: int) -> int:
    """Mann–Kendall S = sum over i<j of sign(r_j - r_i), exactly.

    ``ranks`` are dense ranks in ``[0, n_levels)``.  Every pair i<j
    falls in exactly one (left half, right half) split of a 2w-aligned
    index block for w = 1, 2, 4, ...; at each w the left halves are
    sorted once by ``block * n_levels + rank`` and each right-half
    element counts the smaller and larger ranks in its own block's left
    half by binary search.  Equal ranks count for neither, as
    ``sign(0) = 0``.
    """
    n = ranks.size
    pos = np.arange(n, dtype=np.int64)
    s = 0
    w = 1
    while w < n:
        block = pos // (2 * w)
        left = pos % (2 * w) < w
        keys = block * n_levels + ranks
        lhs = np.sort(keys[left])
        rkeys, rbase = keys[~left], block[~left] * n_levels
        below = np.searchsorted(lhs, rkeys, "left") - np.searchsorted(
            lhs, rbase, "left")
        above = np.searchsorted(lhs, rbase + n_levels, "left") - (
            np.searchsorted(lhs, rkeys, "right"))
        s += int(np.sum(below - above))
        w *= 2
    return s


def sen_slope(times, values, max_pairs: int = 250_000) -> float:
    """Sen's (Theil–Sen) slope: the median of all pairwise slopes.

    Robust to outliers and to the bursty noise that dominates memory
    counters.  For long series the full O(n^2) pair set is subsampled
    deterministically down to at most ``max_pairs`` pairs; that pair
    set depends only on ``(n, max_pairs)`` and is memoised.
    """
    t = as_1d_float_array(times, name="times", min_length=2)
    x = as_1d_float_array(values, name="values", min_length=2)
    if t.size != x.size:
        raise AnalysisError("times and values must have equal length")
    i, j = _pair_lattice(t.size, max_pairs)
    dt = t[j] - t[i]
    valid = dt != 0
    if not valid.any():
        raise AnalysisError("all sampled pairs have identical times")
    slopes = (x[j][valid] - x[i][valid]) / dt[valid]
    return float(np.median(slopes))


@lru_cache(maxsize=8)
def _pair_lattice(n: int, max_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i<j that :func:`sen_slope` takes slopes over.

    All pairs when there are at most ``max_pairs``, else a fixed-seed
    subsample of ``max_pairs`` draws.  The arrays are int32 and
    read-only, as every caller with the same shape shares them; at the
    default ``max_pairs`` one entry holds at most 2 MB.
    """
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        # Deterministic low-discrepancy subsample of the pair lattice.
        rng = np.random.default_rng(12345)
        i = rng.integers(0, n - 1, size=max_pairs)
        j = rng.integers(1, n, size=max_pairs)
        keep = i < j
        i, j = i[keep], j[keep]
        if i.size == 0:
            raise AnalysisError("pair subsampling produced no valid pairs")
    i, j = i.astype(np.int32), j.astype(np.int32)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j
