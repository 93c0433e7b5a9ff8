"""Arithmetic behind the benchmark's figures.

Pure functions over plain numbers and span tuples, with no import of the
program under test, so they can be unit-tested in milliseconds:

* :func:`summarise` - a timing sample as median plus the highest
  percentile that still has at least ten samples beyond it;
* :func:`self_times` / :func:`merge_spans` - per-span self time over
  nested spans, and one span list out of the per-process lists;
* :func:`peak_rss_mb` - peak resident memory as the maximum over the
  measuring process and every pool worker it reaped;
* :func:`canonical_json` / :func:`canonical_hash` - the byte form the
  correctness hashes are taken over.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles considered when reporting a timing's tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10
#: Significant digits floats keep in the canonical form: enough to catch
#: any real change of a payload, few enough that a last-bit difference
#: in a float reduction (another CPU, another summation order) does not
#: count as a wrong answer.
FLOAT_DIGITS = 9


# ---------------------------------------------------------------------------
# Timing samples
# ---------------------------------------------------------------------------

def nearest_rank(sorted_values: Sequence[float], p: float) -> Tuple[int, float]:
    """The nearest-rank ``p``-th percentile: ``(rank, value)``, rank 1-based."""
    n = len(sorted_values)
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    rank = max(1, math.ceil(round(p / 100.0 * n, 9)))
    return rank, sorted_values[rank - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """Highest percentile with at least :data:`MIN_BEYOND` samples above
    its rank, as ``(p, value)``; None when the sample is too small (fewer
    than 20 values cannot support even the median)."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        rank, value = nearest_rank(ordered, p)
        if len(ordered) - rank >= MIN_BEYOND:
            return p, value
    return None


def summarise(values: Sequence[float]) -> Dict[str, object]:
    """Median, supported tail percentile and sample count of a timing."""
    if not values:
        raise ValueError("cannot summarise an empty sample")
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail_p": None if tail is None else tail[0],
        "tail": None if tail is None else tail[1],
        "n": len(values),
    }


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median
    (quartiles as ``statistics.quantiles(values, n=4)`` gives them)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
#
# A span is a tuple (sid, parent, name, layer, t0, t1, iteration, attrs).
# ``sid`` is "<pid>:<seq>", unique across every process of a run; a span
# opened in a forked worker under a span of its parent process names
# that span as its parent.  Times are time.perf_counter() seconds, which
# on Linux is CLOCK_MONOTONIC and therefore shared by all processes.

SID, PARENT, NAME, LAYER, T0, T1, ITERATION, ATTRS = range(8)


def span_pid(sid: str) -> str:
    """The process part of a span id."""
    return sid.split(":", 1)[0]


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: Sequence[tuple]) -> Dict[str, float]:
    """Self time of every span: its duration minus the part of that
    interval its child spans cover.

    Only children in the span's own process are subtracted: a worker's
    unit runs beside its parent's pool call, not inside its time.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and span_pid(parent) == span_pid(span[SID]):
            children.setdefault(parent, []).append((span[T0], span[T1]))
    out: Dict[str, float] = {}
    for span in spans:
        t0, t1 = span[T0], span[T1]
        inner = [(max(a, t0), min(b, t1))
                 for a, b in children.get(span[SID], ()) if min(b, t1) > max(a, t0)]
        out[span[SID]] = (t1 - t0) - covered(inner)
    return out


def merge_spans(parts: Iterable[Sequence[Sequence]]) -> Tuple[List[tuple], int]:
    """One time-ordered span list out of per-process lists.

    Returns ``(spans, orphans)``: a span whose parent is in none of the
    lists (its process's file was lost) keeps its data but gets parent
    None, and is counted.  Duplicate span ids are an error: every
    process numbers its own spans under its own pid.
    """
    spans: Dict[str, tuple] = {}
    for part in parts:
        for raw in part:
            span = tuple(raw)
            if span[SID] in spans:
                raise ValueError(f"duplicate span id {span[SID]}")
            spans[span[SID]] = span
    orphans = 0
    merged = []
    for span in spans.values():
        if span[PARENT] is not None and span[PARENT] not in spans:
            span = span[:PARENT] + (None,) + span[PARENT + 1:]
            orphans += 1
        merged.append(span)
    merged.sort(key=lambda s: (s[T0], s[SID]))
    return merged, orphans


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def peak_rss_mb(parent_kb: float, children_kb: float) -> float:
    """Peak resident set over the measuring process and its reaped
    workers, in MB, from ``ru_maxrss`` readings (KiB on Linux) of
    ``RUSAGE_SELF`` and ``RUSAGE_CHILDREN``.  ``RUSAGE_CHILDREN`` already
    reports the largest single descendant, so the peak is a maximum,
    never a sum."""
    return max(parent_kb, children_kb) / 1024.0


# ---------------------------------------------------------------------------
# Correctness hashes
# ---------------------------------------------------------------------------

def canonical(value):
    """``value`` with floats rounded to :data:`FLOAT_DIGITS` significant
    digits, non-finite floats spelled out, tuples as lists and mapping
    keys as strings."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        rounded = float(f"{value:.{FLOAT_DIGITS}g}")
        return 0.0 if rounded == 0 else rounded
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return canonical(value.item())
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def canonical_json(value) -> str:
    """Key-sorted, whitespace-free JSON of :func:`canonical` ``value``."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def canonical_hash(value) -> str:
    """SHA-256 of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()
