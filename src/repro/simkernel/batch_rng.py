"""Batched, counter-based random streams for vectorised fleet simulation.

The object-model :class:`~repro.simkernel.rng.RngRegistry` hands each machine
a family of sequential ``numpy.random.Generator`` streams.  That design is
exactly right for a discrete-event loop but wrong for a struct-of-arrays
fleet engine, where every tick wants *one* draw per host as a contiguous
array and where a host's trajectory must not depend on which other hosts
happen to share the process (otherwise sharding a fleet across workers, or
comparing a batch against a singleton run, would change the numbers).

:class:`FleetRng` therefore derives every variate from a *counter-based*
construction: a splitmix64-style mixing function applied to

    ``mix(key(host_seed, stream)  ^  mix(counter))``

so the draw for host ``i`` on stream ``s`` at counter ``c`` is a pure
function of ``(base_seed + i, s, c)``.  Two consequences the fleet engine
relies on:

* **batch decomposition** — simulating host ``i`` alone yields bit-identical
  draws to simulating it inside any fleet, which is what makes the
  batch-vs-singleton equivalence oracle exact;
* **shard invariance** — splitting a fleet across worker processes cannot
  perturb results, so ``run_fleet(..., engine="vector", workers=k)`` is
  bit-identical for every ``k``.

Counters are managed by the caller (the fleet engine uses
``tick * stride + lane`` per stream).  Because a draw depends on nothing
but its counter, each stream prefetches: one hash call fills a block of
uniforms over a window of counters starting at the requested one, and
later calls inside the window are served as read-only slices of it.  The
block holds about ``_WINDOW_BYTES`` per stream (never less than one
request), so small fleets hash once per few hundred ticks instead of
several times per tick, and large fleets fall back to one hash per call
with bounded memory.  The hash and the 53-bit conversion are the same
elementwise operations either way, so prefetching cannot change a bit.

The derived samplers (exponential, Pareto, lognormal, geometric, Poisson,
binomial) are deliberately the inverse-CDF / moment-matched forms documented
in ``docs/PERFORMANCE.md``: they match the object model's distributions, not
its bit patterns — cross-engine equivalence is statistical by design.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = [
    "FleetRng",
    "host_seeds",
    "exponential",
    "pareto_duration",
    "lognormal",
    "geometric",
    "poisson",
    "binomial",
    "stochastic_round",
]

# splitmix64 constants (Steele, Lea & Flood 2014), as uint64 scalars.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53 = np.float64(1.0 / (1 << 53))

# Prefetch budget per stream: a stream's cached block of uniforms spans
# about this many bytes (n_hosts * window * 8).
_WINDOW_BYTES = 64 * 1024
# Counters are int64; a window never serves a counter at or past this.
_COUNTER_END = 1 << 63


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array."""
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64, copy=False)
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        return z ^ (z >> np.uint64(31))


def _stream_tag(name: str) -> np.uint64:
    """Stable 64-bit tag for a stream name (FNV-1a, no hash randomisation)."""
    h = np.uint64(0xCBF29CE484222325)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for byte in name.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * prime
    return h


def host_seeds(base_seed: float, n_hosts: int) -> np.ndarray:
    """Per-host seeds using the same ``base_seed + i`` derivation as
    :func:`repro.memsim.machine.run_fleet`."""
    return (np.int64(int(base_seed)) + np.arange(n_hosts, dtype=np.int64)).view(
        np.uint64
    )


class FleetRng:
    """Counter-based uniform source for a fleet of hosts.

    Parameters
    ----------
    seeds:
        Per-host integer seeds (``host_seeds(base_seed, n)`` for the standard
        derivation).  May be any integer array; values are mixed, so adjacent
        seeds yield decorrelated streams.
    """

    def __init__(self, seeds: np.ndarray) -> None:
        seeds = np.asarray(seeds)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("seeds must be a non-empty 1-d array")
        self._seeds = seeds.astype(np.int64, copy=True).view(np.uint64)
        self._keys: Dict[str, np.ndarray] = {}
        self._window = max(1, _WINDOW_BYTES // (8 * self._seeds.size))
        # stream -> (first counter, end counter, (n_hosts, width) block)
        self._blocks: Dict[str, Tuple[int, int, np.ndarray]] = {}

    @property
    def n_hosts(self) -> int:
        return int(self._seeds.size)

    def _key(self, stream: str) -> np.ndarray:
        key = self._keys.get(stream)
        if key is None:
            key = _mix64(self._seeds ^ _mix64(np.full_like(self._seeds, _stream_tag(stream))))
            self._keys[stream] = key
        return key

    def _refill(self, stream: str, counter: int, need: int) -> np.ndarray:
        """Hash the window of counters starting at ``counter`` into the
        stream's cached block and return it."""
        width = max(need, self._window)
        # uint64 arithmetic wraps exactly like the int64 counters it views.
        ctr = np.arange(width, dtype=np.uint64)
        ctr += np.int64(counter).view(np.uint64)
        bits = _mix64(self._key(stream)[:, None] ^ _mix64(ctr)[None, :])
        block = (bits >> np.uint64(11)).astype(np.float64) * _U53
        block.flags.writeable = False
        self._blocks[stream] = (counter, min(counter + width, _COUNTER_END), block)
        return block

    def uniforms(self, stream: str, counter: int, lanes: int = 0) -> np.ndarray:
        """Uniform(0, 1) draws on ``stream`` at ``counter``.

        With ``lanes == 0`` returns shape ``(n_hosts,)`` using the single
        counter value; with ``lanes == k`` returns ``(n_hosts, k)`` using
        counters ``counter + 0 .. counter + k - 1``.  Values lie in
        ``[0, 1)`` with 53-bit resolution.  The result is a read-only view
        of the stream's prefetched block.
        """
        need = lanes or 1
        cached = self._blocks.get(stream)
        if cached is not None and cached[0] <= counter and counter + need <= cached[1]:
            start, _, block = cached
        else:
            start, block = counter, self._refill(stream, counter, need)
        j = counter - start
        return block[:, j:j + lanes] if lanes else block[:, j]

    def normals(self, stream: str, counter: int, lanes: int = 0) -> np.ndarray:
        """Standard-normal draws via Box–Muller (two uniforms per normal)."""
        if lanes:
            u = self.uniforms(stream, counter, lanes=2 * lanes)
            u1, u2 = u[:, :lanes], u[:, lanes:]
        else:
            u1 = self.uniforms(stream, counter)
            u2 = self.uniforms(stream, counter + 1)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        return r * np.cos(2.0 * np.pi * u2)


# -- derived samplers (inverse CDF / moment matched) ------------------------


def exponential(u: np.ndarray, mean) -> np.ndarray:
    """Exponential with the given mean via inverse CDF."""
    return -np.log1p(-u) * mean


def pareto_duration(u: np.ndarray, shape: float, mean: float) -> np.ndarray:
    """Pareto phase duration matching ``repro.memsim.workloads._pareto``.

    The object model draws ``xm * (1 + rng.pareto(shape))`` with
    ``xm = mean * (shape - 1) / shape``; the Lomax ``1 + pareto`` form has
    CDF ``1 - x**-shape`` for ``x >= 1``, inverted here.
    """
    xm = mean * (shape - 1.0) / shape
    return xm * np.power(1.0 - u, -1.0 / shape)


def lognormal(z: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    """Lognormal from standard normals."""
    return np.exp(mu + sigma * z)


def geometric(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Geometric (support 1, 2, ...) matching ``rng.geometric(p)``."""
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.floor(np.log1p(-u) / np.log1p(-p)).astype(np.int64) + 1


def poisson(lam: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Poisson counts: exact inverse-CDF for small means, normal
    approximation above ``lam >= 32`` (fleet engine draws both a uniform and
    a normal per sample so the branch is vectorised, not per-host)."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros(np.broadcast(lam, u).shape, dtype=np.int64)
    big = lam >= 32.0
    if np.any(big):
        approx = np.rint(lam + np.sqrt(np.maximum(lam, 0.0)) * z)
        out = np.where(big, np.maximum(approx, 0.0).astype(np.int64), out)
    small = ~big & (lam > 0)
    if np.any(small):
        # Vectorised inverse-CDF walk; bounded by mean + 12*sd + 12 terms.
        lam_s = np.where(small, lam, 0.0)
        pmf = np.exp(-lam_s)
        cdf = pmf.copy()
        k = np.zeros_like(out)
        kmax = int(np.ceil(np.max(lam_s) + 12.0 * np.sqrt(np.max(lam_s)) + 12.0))
        uu = np.broadcast_to(u, cdf.shape)
        for step in range(1, kmax + 1):
            undecided = small & (uu > cdf)
            if not np.any(undecided):
                break
            k = k + undecided.astype(np.int64)
            pmf = pmf * lam_s / step
            cdf = cdf + pmf
        out = np.where(small, k, out)
    return out


def binomial(n: np.ndarray, p: float, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Binomial(n, p) counts, moment-matched.

    Small-mean cells (the common case: leak fractions of a few pages per
    tick) use the Poisson limit with exact inverse CDF; larger means use the
    normal approximation.  Always clipped to ``[0, n]``.
    """
    n = np.asarray(n, dtype=np.int64)
    mean = n * p
    out = poisson(np.where(mean < 32.0, mean, 0.0), u, z)
    big = mean >= 32.0
    if np.any(big):
        sd = np.sqrt(np.maximum(n * p * (1.0 - p), 0.0))
        approx = np.maximum(np.rint(mean + sd * z), 0.0).astype(np.int64)
        out = np.where(big, approx, out)
    return np.clip(out, 0, n)


def stochastic_round(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Round ``x`` to an integer, up with probability ``frac(x)``."""
    lo = np.floor(x)
    return (lo + (u < (x - lo))).astype(np.int64)
