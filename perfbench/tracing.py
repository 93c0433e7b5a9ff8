"""Span recording around the program's public calls, from outside it.

:class:`Tracer` replaces each named function or method with a wrapper
that records one span per call (name, start, end, parent span, iteration
id) in memory.  Nothing in the program changes: the wrapper is bound
wherever the original was, in the defining module and in every
module that imported it by name, and :meth:`Tracer.uninstall`
puts the originals back.

Pool workers are forked while a span of the parent is open, so they
inherit the wrappers, the iteration id and the open span (which becomes
the parent of their first span).  Each worker keeps its spans in memory
and writes them to ``spans-<pid>.json`` in the tracer's directory when
it exits; :meth:`Tracer.collect` merges those
files with the parent's spans at the end of the run.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from typing import Callable, List, Optional, Sequence, Tuple

from .measure import merge_spans

#: (module, attribute path, span name, layer).  A ``{detector}`` span
#: name is filled from the call's first argument.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.analysis.campaign", "execute_campaign",
     "campaign.execute", "analysis.campaign"),
    ("repro.perf.pool", "resilient_map", "pool.map", "perf.pool"),
    ("repro.memsim.scenarios", "build_scenario",
     "memsim.machine.build", "memsim.machine"),
    ("repro.memsim.machine", "Machine.run", "memsim.machine.run",
     "memsim.machine"),
    ("repro.simkernel.engine", "Simulator.run_until",
     "simkernel.engine.run_until", "simkernel.engine"),
    ("repro.memsim.fleet_vec", "VectorFleet.__init__",
     "memsim.fleet_vec.init", "memsim.fleet_vec"),
    ("repro.memsim.fleet_vec", "VectorFleet.run", "memsim.fleet_vec.run",
     "memsim.fleet_vec"),
    ("repro.simkernel.batch_rng", "FleetRng.uniforms",
     "simkernel.batch_rng.uniforms", "simkernel.batch_rng"),
    ("repro.simkernel.batch_rng", "FleetRng.normals",
     "simkernel.batch_rng.normals", "simkernel.batch_rng"),
    ("repro.analysis.detector_registry", "evaluate_detector",
     "detect.{detector}", "analysis.detector_registry"),
    ("repro.stats.trend", "mann_kendall", "stats.trend.mann_kendall",
     "stats.trend"),
    ("repro.stats.trend", "sen_slope", "stats.trend.sen_slope",
     "stats.trend"),
    ("repro.core.holder", "wavelet_holder", "core.holder.wavelet_holder",
     "core.holder"),
    ("repro.fractal.wavelets", "cwt", "fractal.cwt", "fractal.wavelets"),
    ("repro.obs.live", "LiveWatcher.replay", "watch.replay", "obs.live"),
    ("repro.core.online", "OnlineAgingMonitor.update", "online.update",
     "core.online"),
    ("repro.core.online", "OnlineAgingMonitor.update_many",
     "online.update_many", "core.online"),
    ("repro.trace.store", "write_bundle", "trace.store.write",
     "trace.store"),
    ("repro.trace.store", "read_bundle", "trace.store.read", "trace.store"),
    ("repro.analysis.campaign", "cells_payload", "artifacts.cells_payload",
     "analysis.results"),
    ("repro.analysis.results", "save_results", "artifacts.save_results",
     "analysis.results"),
    ("repro.analysis.results", "load_results", "artifacts.load_results",
     "analysis.results"),
    ("repro.analysis.scoreboard", "build_scoreboard",
     "artifacts.build_scoreboard", "analysis.scoreboard"),
)

#: Span name of one pool work unit, recorded in the worker around the
#: function the pool was asked to map.
UNIT_SPAN = "pool.unit"

# The installed tracer, reachable from :func:`run_unit` in a forked
# worker: the pool pickles its work function by reference, so the
# tracer itself cannot travel with it.
_installed: Optional["Tracer"] = None


def _call_attrs(name: str, fn: Callable, args: tuple,
                kwargs: dict) -> Optional[dict]:
    """Per-call attributes the layer metrics need from the arguments."""
    if name == "stats.trend.mann_kendall":
        return {"n": len(args[0] if args else kwargs["values"])}
    if name == "stats.trend.sen_slope":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return {"n": len(bound.arguments["times"]),
                "max_pairs": bound.arguments["max_pairs"]}
    return None


def _result_attrs(name: str, result) -> Optional[dict]:
    """Per-call attributes the layer metrics need from the result."""
    if name == "memsim.machine.run":
        return {"sim_s": float(result.duration)}
    if name == "watch.replay":
        return {"samples": int(result["n_samples"])}
    return None


class Tracer:
    """In-memory span recorder for one process tree.

    ``out_dir`` receives one ``spans-<pid>.json`` per forked worker.
    """

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.iteration: Optional[int] = None
        self._stack: List[str] = []
        self._seq = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._fork_hook = False

    # -- recording ------------------------------------------------------------

    def _open(self) -> Tuple[str, Optional[str]]:
        self._seq += 1
        sid = f"{self.pid}:{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: str, parent: Optional[str], name: str, layer: str,
               t0: float, attrs: Optional[dict]) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, layer, t0, t1, self.iteration,
                           attrs))

    def record(self, fn: Callable, name: str, layer: str, args: tuple,
               kwargs: dict):
        """Call ``fn(*args, **kwargs)`` inside one span."""
        attrs = _call_attrs(name, fn, args, kwargs)
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, parent, name, layer, t0,
                        dict(attrs or {}, error=True))
            raise
        extra = _result_attrs(name, result)
        if extra:
            attrs = dict(attrs or {}, **extra)
        self._close(sid, parent, name, layer, t0, attrs)
        return result

    # -- installation ---------------------------------------------------------

    def _wrapper(self, original: Callable, name: str, layer: str,
                 method: bool) -> Callable:
        tracer = self
        if name == "pool.map":
            @functools.wraps(original)
            def pool_map(fn, items, *args, **kwargs):
                unit = functools.partial(run_unit, fn)
                return tracer.record(original, name, layer,
                                     (unit, items) + args, kwargs)
            return pool_map
        if "{detector}" in name:
            @functools.wraps(original)
            def named(detector, *args, **kwargs):
                return tracer.record(original, name.format(detector=detector),
                                     layer, (detector,) + args, kwargs)
            return named
        if method:
            @functools.wraps(original)
            def bound(self_, *args, **kwargs):
                return tracer.record(original, name, layer,
                                     (self_,) + args, kwargs)
            return bound

        @functools.wraps(original)
        def plain(*args, **kwargs):
            return tracer.record(original, name, layer, args, kwargs)
        return plain

    def install(self, targets: Sequence[Tuple[str, str, str, str]] = TARGETS
                ) -> None:
        """Wrap every target; functions are rebound in every loaded
        module that holds them by name."""
        global _installed
        if _installed is not None and _installed is not self:
            raise RuntimeError("another tracer is installed")
        _installed = self
        for module_name, path, name, layer in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrapper(original, name, layer,
                                                       method=True))
                continue
            original = getattr(module, path)
            wrapper = self._wrapper(original, name, layer, method=False)
            for loaded in list(sys.modules.values()):
                for attr, value in list(getattr(loaded, "__dict__",
                                                {}).items()):
                    if value is original:
                        self._patch(loaded, attr, wrapper)
        if not self._fork_hook:
            mp_util.register_after_fork(self, Tracer._after_fork)
            self._fork_hook = True

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every original back."""
        global _installed
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if _installed is self:
            _installed = None

    # -- processes ------------------------------------------------------------

    def _after_fork(self) -> None:
        """In a new worker: own spans only, flushed when it exits."""
        self.pid = os.getpid()
        self.spans = []
        self._seq = 0
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this worker's spans to the tracer directory."""
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as handle:
            json.dump(self.spans, handle)

    def collect(self) -> Tuple[List[tuple], int]:
        """This process's spans merged with every worker file written, as
        :func:`~perfbench.measure.merge_spans` returns them."""
        parts = [self.spans]
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "spans-*.json"))):
            with open(path) as handle:
                parts.append(json.load(handle))
        return merge_spans(parts)


def run_unit(fn: Callable, item):
    """Pool entry point while tracing: ``fn(item)`` inside a unit span of
    the installed tracer (plainly ``fn(item)`` when there is none).

    Module-level so the pool can pickle it by reference; a forked worker
    already holds this module and the tracer.
    """
    if _installed is None:
        return fn(item)
    return _installed.record(fn, UNIT_SPAN, "perf.pool", (item,), {})
