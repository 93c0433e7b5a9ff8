"""Tests of the benchmark's own arithmetic (no simulation, well under a
second).  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from perfbench import measure
from perfbench.layers import PER_LAYER, layer_metrics
from perfbench.measure import (
    canonical_hash, canonical_json, merge_spans, peak_rss_mb, self_times,
    summarise, tail_percentile,
)
from perfbench.tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(sid, parent, t0, t1, name="x", layer="l", attrs=None):
    return (sid, parent, name, layer, t0, t1, 0, attrs)


# -- percentiles --------------------------------------------------------------

def test_no_percentile_below_twenty_samples():
    assert tail_percentile(list(range(19))) is None
    assert summarise([3.0])["tail_p"] is None


def test_median_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(1, 21))) == (50.0, 10)


def test_highest_supported_percentile():
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990)
    assert tail_percentile(list(range(1, 10_001)))[0] == 99.9


def test_summary_reports_median_and_count():
    s = summarise([5.0, 1.0, 3.0])
    assert (s["median"], s["n"]) == (3.0, 3)


def test_relative_iqr_matches_statistics_quantiles():
    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # Exclusive method: q1 at position 2.75, q3 at 8.25 (1-based).
    assert measure.relative_iqr(values) == pytest.approx((17.25 - 11.75) / 14.5)


# -- self time ----------------------------------------------------------------

def test_self_time_subtracts_union_of_nested_children():
    spans = [
        span("1:1", None, 0.0, 10.0),
        span("1:2", "1:1", 1.0, 3.0),
        span("1:3", "1:1", 2.0, 5.0),     # overlaps its sibling
        span("1:4", "1:2", 1.5, 2.0),     # grandchild
        span("1:5", "1:1", 9.0, 12.0),    # runs past its parent's end
    ]
    st = self_times(spans)
    assert st["1:1"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st["1:2"] == pytest.approx(1.5)
    assert st["1:3"] == pytest.approx(3.0)
    assert st["1:5"] == pytest.approx(3.0)
    # Self times of one process's tree add up to its root's duration
    # when siblings are sequential and children stay inside parents.
    tree = [span("1:1", None, 0.0, 10.0), span("1:2", "1:1", 1.0, 3.0),
            span("1:3", "1:1", 4.0, 9.0), span("1:4", "1:3", 5.0, 6.0)]
    assert sum(self_times(tree).values()) == pytest.approx(10.0)


def test_children_in_another_process_are_not_subtracted():
    spans = [span("1:1", None, 0.0, 10.0), span("2:1", "1:1", 0.0, 8.0)]
    assert self_times(spans)["1:1"] == pytest.approx(10.0)


# -- merging ------------------------------------------------------------------

def test_merge_orders_spans_and_links_workers_to_parent():
    parent = [span("1:1", None, 0.0, 10.0), span("1:2", "1:1", 1.0, 9.0)]
    worker = [span("2:1", "1:2", 2.0, 4.0), span("2:2", "1:2", 4.5, 8.0)]
    merged, orphans = merge_spans([parent, worker])
    assert orphans == 0
    assert [s[0] for s in merged] == ["1:1", "1:2", "2:1", "2:2"]


def test_merge_counts_orphans_and_rejects_duplicates():
    merged, orphans = merge_spans([[span("2:1", "1:9", 0.0, 1.0)]])
    assert orphans == 1 and merged[0][1] is None
    with pytest.raises(ValueError):
        merge_spans([[span("1:1", None, 0, 1)], [span("1:1", None, 0, 1)]])


def _traced_square(x):
    return sys.modules["pb_fake"].square(x)


@pytest.mark.skipif(sys.platform != "linux", reason="needs fork")
def test_tracer_records_nested_spans_in_forked_workers(tmp_path):
    fake = types.ModuleType("pb_fake")
    fake.square = lambda x: x * x

    def fan_out(fn, items):
        with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
            return list(pool.map(fn, items))
    fake.fan_out = fan_out
    sys.modules["pb_fake"] = fake
    tracer = Tracer(str(tmp_path))
    try:
        tracer.install([("pb_fake", "fan_out", "pool.map", "perf.pool"),
                        ("pb_fake", "square", "sq", "maths")])
        tracer.iteration = 7
        assert fake.fan_out(_traced_square, [1, 2, 3]) == [1, 4, 9]
    finally:
        tracer.uninstall()
        del sys.modules["pb_fake"]
    spans, orphans = tracer.collect()
    assert orphans == 0
    (pool_map,) = [s for s in spans if s[2] == "pool.map"]
    units = [s for s in spans if s[2] == "pool.unit"]
    squares = [s for s in spans if s[2] == "sq"]
    assert len(units) == 3 and len(squares) == 3
    assert all(u[1] == pool_map[0] for u in units)
    assert {s[1] for s in squares} == {u[0] for u in units}
    assert all(s[6] == 7 for s in spans)
    assert all(measure.span_pid(u[0]) != str(os.getpid()) for u in units)


def test_uninstall_restores_originals(tmp_path):
    fake = types.ModuleType("pb_fake2")
    original = fake.f = lambda: 1
    sys.modules["pb_fake2"] = fake
    tracer = Tracer(str(tmp_path))
    try:
        tracer.install([("pb_fake2", "f", "f", "l")])
        assert fake.f is not original and fake.f() == 1
    finally:
        tracer.uninstall()
        del sys.modules["pb_fake2"]
    assert fake.f is original
    assert [s[2] for s in tracer.spans] == ["f"]


# -- memory -------------------------------------------------------------------

def test_peak_rss_is_the_maximum_not_the_sum():
    assert peak_rss_mb(100 * 1024, 150 * 1024) == 150.0
    assert peak_rss_mb(200 * 1024, 0) == 200.0


# -- hashes -------------------------------------------------------------------

def test_canonical_form_ignores_key_order_and_container_type():
    a = {"b": [1, 2.5, None], "a": {"x": True}}
    b = {"a": {"x": True}, "b": (1, 2.5, None)}
    assert canonical_json(a) == canonical_json(b)
    assert canonical_json(a) == '{"a":{"x":true},"b":[1,2.5,null]}'


def test_canonical_form_absorbs_last_bit_float_noise_only():
    x = 0.1 + 0.2
    assert canonical_hash({"v": x}) == canonical_hash({"v": 0.3})
    assert canonical_hash({"v": 1234.5678}) != canonical_hash({"v": 1234.5679})
    assert canonical_hash({"v": -0.0}) == canonical_hash({"v": 0.0})


def test_canonical_form_spells_out_special_values():
    assert json.loads(canonical_json([math.nan, math.inf])) == ["nan", "inf"]
    assert canonical_json({"v": np.float64(2.0), 3: np.int64(4)}) == \
        '{"3":4,"v":2.0}'
    with pytest.raises(TypeError):
        canonical_json({"v": object()})


# -- per-layer arithmetic and the catalogue ----------------------------------

def test_pool_utilisation_and_imbalance():
    spans = [
        span("1:1", None, 0.0, 10.0, "campaign.execute", "analysis.campaign"),
        span("1:2", "1:1", 0.0, 8.0, "pool.map", "perf.pool"),
        span("2:1", "1:2", 1.0, 7.0, "pool.unit", "perf.pool"),
        span("3:1", "1:2", 1.0, 3.0, "pool.unit", "perf.pool"),
    ]
    m = layer_metrics(spans, {}, parent_pid=1, wall_s=10.0,
                      untraced_wall_s=8.0, bytes_written=0,
                      parent_rss_mb=1.0, worker_rss_mb=2.0, orphans=0,
                      mk_exact_n=3000)
    assert m["pool.worker_busy_s"] == pytest.approx(8.0)
    assert m["pool.utilisation"] == pytest.approx(8.0 / 16.0)
    assert m["pool.imbalance"] == pytest.approx(6.0 / 4.0)
    assert m["pool.spawn_s"] == pytest.approx(1.0)
    assert m["pool.queue_wait_s"] == pytest.approx(2.0)
    assert m["campaign.aggregate_s"] == pytest.approx(2.0)
    assert m["campaign.units_attempted"] == 2
    assert m["obs.trace_overhead_frac"] == pytest.approx(0.25)
    assert m["obs.unattributed_frac"] == pytest.approx(0.0)
    assert set(m) == {name for name, *_ in PER_LAYER}


def test_benchmark_json_matches_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == {name: (unit, better)
                        for name, unit, better, _ in PER_LAYER}
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
