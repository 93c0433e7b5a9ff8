"""Bit-pinning tests for the counter-based fleet RNG.

:class:`~repro.simkernel.batch_rng.FleetRng` prefetches a block of
uniforms per stream and serves later calls as slices of it.  Every draw
must still equal the direct (unprefetched) formula — the splitmix64 hash
of ``(host seed, stream, counter)`` — whatever order the counters are
asked for in.  The golden digest below was computed with that formula.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import batch_rng
from repro.simkernel.batch_rng import FleetRng, _mix64, _stream_tag, host_seeds

_U53 = 1.0 / (1 << 53)


class DirectRng:
    """The unprefetched formula: one hash per call, nothing cached."""

    def __init__(self, seeds):
        self._seeds = np.asarray(seeds).astype(np.int64).view(np.uint64)

    def _key(self, stream):
        tag = np.full_like(self._seeds, _stream_tag(stream))
        return _mix64(self._seeds ^ _mix64(tag))

    def uniforms(self, stream, counter, lanes=0):
        key = self._key(stream)
        if lanes:
            ctr = np.arange(counter, counter + lanes, dtype=np.int64).view(np.uint64)
            bits = _mix64(key[:, None] ^ _mix64(ctr)[None, :])
        else:
            ctr = np.uint64(np.int64(counter).view(np.uint64))
            bits = _mix64(key ^ _mix64(np.full(1, ctr, dtype=np.uint64))[0])
        return (bits >> np.uint64(11)).astype(np.float64) * _U53

    def normals(self, stream, counter, lanes=0):
        if lanes:
            u = self.uniforms(stream, counter, lanes=2 * lanes)
            u1, u2 = u[:, :lanes], u[:, lanes:]
        else:
            u1 = self.uniforms(stream, counter)
            u2 = self.uniforms(stream, counter + 1)
        return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


GOLDEN_CASES = [
    (host_seeds(7, 5), "onoff"),
    (host_seeds(7, 5), "sampler"),
    (host_seeds(-3, 1), "leak"),
    (np.array([0, 1, 2**62, -(2**62)], dtype=np.int64), "burst"),
]
GOLDEN_COUNTERS = [0, 1, 63, 64, 4095, 1_000_003, 2**40 + 7, 2**63 - 300, -5]
GOLDEN_LANES = [0, 1, 3, 64]
GOLDEN_SHA256 = "a26a9b6c17b1d5f99295367e9c8437e0c5c0e28848ec294fc980201036c37414"


def golden_digest(make):
    h = hashlib.sha256()
    for seeds, stream in GOLDEN_CASES:
        rng = make(seeds)
        for counter in GOLDEN_COUNTERS:
            for lanes in GOLDEN_LANES:
                for draw in (rng.uniforms, rng.normals):
                    h.update(np.ascontiguousarray(draw(stream, counter, lanes)).tobytes())
    return h.hexdigest()


def assert_same_draws(rng, direct, stream, counter, lanes):
    np.testing.assert_array_equal(rng.uniforms(stream, counter, lanes),
                                  direct.uniforms(stream, counter, lanes))
    np.testing.assert_array_equal(rng.normals(stream, counter, lanes),
                                  direct.normals(stream, counter, lanes))


class TestGolden:
    def test_direct_formula_matches_golden(self):
        assert golden_digest(DirectRng) == GOLDEN_SHA256

    def test_fleet_rng_matches_golden(self):
        assert golden_digest(FleetRng) == GOLDEN_SHA256


class TestAccessOrder:
    # 64 hosts -> a 128-counter window, so these walks cross many edges.
    SEEDS = host_seeds(11, 64)

    def walk(self, accesses):
        rng, direct = FleetRng(self.SEEDS), DirectRng(self.SEEDS)
        for counter, lanes in accesses:
            assert_same_draws(rng, direct, "s", counter, lanes)

    def test_forward(self):
        self.walk([(k * 24 + off, lanes) for k in range(40)
                   for off, lanes in ((0, 8), (8, 8), (20, 0))])

    def test_backward(self):
        self.walk([(c, lanes) for c in range(600, -1, -37) for lanes in (0, 5)])

    def test_random_order(self):
        order = np.random.default_rng(3).permutation(500)
        self.walk([(int(c), int(c) % 4) for c in order])

    def test_lanes_straddle_window_edge(self):
        rng, direct = FleetRng(self.SEEDS), DirectRng(self.SEEDS)
        window = rng._window
        assert_same_draws(rng, direct, "s", 0, 0)
        assert_same_draws(rng, direct, "s", window - 3, 6)
        assert_same_draws(rng, direct, "s", 2 * window - 1, window + 5)
        assert_same_draws(rng, direct, "s", window - 1, 0)

    def test_counters_near_int64_end(self):
        end = 2**63
        self.walk([(end - 400, 0), (end - 10, 4), (end - 2, 0), (end - 300, 64),
                   (end - 2, 4)])
        rng, direct = FleetRng(self.SEEDS), DirectRng(self.SEEDS)
        for counter in (end - 3, end - 1, end - 2):
            np.testing.assert_array_equal(rng.uniforms("s", counter),
                                          direct.uniforms("s", counter))

    def test_counter_past_int64_raises_like_direct(self):
        rng = FleetRng(self.SEEDS)
        rng.uniforms("s", 2**63 - 50)  # window now ends at 2**63
        with pytest.raises(OverflowError):
            DirectRng(self.SEEDS).uniforms("s", 2**63)
        with pytest.raises(OverflowError):
            rng.uniforms("s", 2**63)

    def test_streams_do_not_share_windows(self):
        rng, direct = FleetRng(self.SEEDS), DirectRng(self.SEEDS)
        for c in range(0, 300, 7):
            assert_same_draws(rng, direct, "a", c, 2)
            assert_same_draws(rng, direct, "b", c, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        n_hosts=st.sampled_from([1, 3, 64, 3000]),
        accesses=st.lists(
            st.tuples(st.sampled_from([0, 2**40, 2**63 - 5_000, -3_000]),
                      st.integers(0, 4_000),
                      st.sampled_from([0, 1, 2, 7, 64, 300])),
            min_size=1, max_size=25),
    )
    def test_any_order_matches_direct(self, n_hosts, accesses):
        seeds = host_seeds(5, n_hosts)
        rng, direct = FleetRng(seeds), DirectRng(seeds)
        for base, offset, lanes in accesses:
            assert_same_draws(rng, direct, "p", base + offset, lanes)


class TestReturnedArrays:
    def test_uniforms_are_read_only(self):
        rng = FleetRng(host_seeds(1, 4))
        single = rng.uniforms("s", 5)
        lanes = rng.uniforms("s", 9, lanes=3)
        with pytest.raises(ValueError):
            single[0] = 0.5
        with pytest.raises(ValueError):
            lanes[:, 1] = 0.5
        np.testing.assert_array_equal(single, DirectRng(host_seeds(1, 4)).uniforms("s", 5))

    def test_block_memory_capped(self):
        for n_hosts in (1, 4, 64, 20_000):
            rng = FleetRng(host_seeds(0, n_hosts))
            rng.uniforms("s", 0)
            rng.uniforms("t", 0, lanes=3)
            for _, _, block in rng._blocks.values():
                assert block.nbytes <= max(batch_rng._WINDOW_BYTES,
                                           8 * n_hosts * 3)
