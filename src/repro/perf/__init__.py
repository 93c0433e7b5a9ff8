"""Performance execution layer: process-parallel fan-out.

:func:`parallel_map` fans deterministic work units across a
``ProcessPoolExecutor``, merges per-worker telemetry back into the
parent session, and degrades gracefully to the sequential path when
parallelism is unavailable or not worth it.  It is an *execution
strategy*, never a new algorithm: results are bit-identical to the
sequential path, and the equivalence is guarded by tests.
"""

from .pool import parallel_map, resolve_workers

__all__ = [
    "parallel_map",
    "resolve_workers",
]
