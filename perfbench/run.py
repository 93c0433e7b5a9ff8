#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` user paths.

Run from the repository root::

    python3 perfbench/run.py --workload campaign-object --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``campaign-object``, ``campaign-vector``, ``replay-tournament``
(see ``perfbench/WORKLOADS.md``).  One run

1. sets the workload up ``SETUPS`` times, each in a fresh interpreter
   (``import repro`` up to ready-to-time, trace simulation included),
   and reports the median as ``setup_s``;
2. lets the last of those processes go on to time iterations until
   ``--seconds`` have passed (at least one), and reports their median as
   ``wall_s``, plus ``peak_rss_mb`` over it and its pool workers;
   with ``--trace 1`` it times one iteration untraced and one with spans
   and the program's telemetry on, and reports the per-layer metrics;
3. checks every iteration's output hash against the run's first and,
   for seeds in ``goldens.json``, against the committed golden.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.measure import canonical_hash, peak_rss_mb, summarise  # noqa: E402

WORKLOADS = ("campaign-object", "campaign-vector", "replay-tournament")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run must end within this many seconds of its start.
DEADLINE_S = 175.0
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_child(args, deadline: float) -> float:
    """Run this script in a fresh interpreter with ``args``, wait for it
    to exit, and return the time from its start to its ``ready`` line
    (the end of set-up).  The child leads its own process group, so a
    timeout kills its pool workers too."""
    cmd = [sys.executable, os.path.abspath(__file__)] + list(args)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        readable, _, _ = select.select(
            [proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if readable else b""
        setup = time.perf_counter() - t0
        if not readable:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        proc.stdout.close()
        # Nothing the child started may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise BenchmarkError(f"child {args[:2]} passed the run deadline")
    if code != 0 or line.strip() != b"ready":
        raise BenchmarkError(f"child {args[:2]} exited with code {code}")
    return setup


def _git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one (no search upward)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workers: int) -> dict:
    """Environment the result was measured in."""
    import numpy

    try:
        import scipy  # noqa: F401
        has_scipy = True
    except ImportError:
        has_scipy = False
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy_importable": has_scipy,
            "git_sha": _git_sha(), "workers": workers,
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Roles run in child processes
# ---------------------------------------------------------------------------

def role_setup(workload: str, seed: int):
    """Set the workload up, then tell the parent on standard output that
    set-up is over; returns the iteration to time, ``iterate(scratch)``."""
    from perfbench import workloads as wl

    if workload == "replay-tournament":
        traces = wl.replay_inputs(seed)

        def iterate(scratch):
            return wl.replay_iteration(traces, scratch)
    else:
        specs = wl.campaign_specs(seed, workload.split("-", 1)[1])

        def iterate(scratch):
            return wl.campaign_iteration(specs, scratch)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    # Standard output was the signal channel; from here on it joins
    # standard error, so nothing later can block on the closed pipe.
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    return iterate


def role_measure(workload: str, seed: int, seconds: float, trace: bool,
                 out: str) -> None:
    """Set up, then time iterations in this process and write the result."""
    import gc

    run_dir = os.path.dirname(out)
    scratch = os.path.join(run_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    iterate = role_setup(workload, seed)
    from perfbench import workloads as wl
    from repro.fractal.wavelets import clear_wavelet_plan_cache

    def timed(traced: bool) -> dict:
        # Every iteration starts as cold as a fresh command would.
        clear_wavelet_plan_cache()
        gc.collect()
        t0 = time.perf_counter()
        result = iterate(scratch)
        wall = time.perf_counter() - t0
        return {"wall": wall, "hash": canonical_hash(result.digest),
                "attempted": result.attempted, "failed": result.failed,
                "notes": result.notes, "watch_samples": result.watch_samples,
                "watch_s": result.watch_s,
                "bytes_written": result.bytes_written, "traced": traced}

    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(timed(False))
        if trace or time.perf_counter() - start >= seconds:
            break
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    per_layer = None
    if trace:
        per_layer = _traced_iteration(
            timed, iterations, run_dir, workload, seed,
            parent_rss_mb=usage_self / 1024.0,
            worker_rss_mb=usage_children / 1024.0)

    with open(out, "w") as handle:
        json.dump({"iterations": iterations, "maxrss_self_kb": usage_self,
                   "maxrss_children_kb": usage_children,
                   "per_layer": per_layer,
                   "fingerprint": fingerprint(wl.WORKERS)}, handle)


def _traced_iteration(timed, iterations, run_dir, workload, seed, *,
                      parent_rss_mb, worker_rss_mb) -> dict:
    """One iteration with spans and program telemetry on; returns the
    per-layer metrics and writes the merged spans out."""
    from perfbench.layers import layer_metrics
    from perfbench.tracing import Tracer
    from repro.obs.session import telemetry_session
    from repro.stats import trend

    span_dir = os.path.join(run_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    tracer = Tracer(span_dir)
    tracer.iteration = len(iterations)
    tracer.install()
    try:
        with telemetry_session() as session:
            iterations.append(timed(True))
            snapshot = session.metrics.snapshot()
    finally:
        tracer.uninstall()
    spans, orphans = tracer.collect()
    counters = {name: float(state.get("value") or 0.0)
                for name, state in snapshot.items()
                if state.get("type") == "counter"}
    traced, untraced = iterations[-1], iterations[0]
    metrics = layer_metrics(
        spans, counters, parent_pid=os.getpid(),
        wall_s=traced["wall"], untraced_wall_s=untraced["wall"],
        bytes_written=traced["bytes_written"], parent_rss_mb=parent_rss_mb,
        worker_rss_mb=worker_rss_mb, orphans=orphans,
        mk_exact_n=getattr(trend, "_MAX_EXACT_N", 10**9))
    spans_out = os.path.join(OUT_ROOT, f"spans-{workload}-s{seed}.jsonl")
    with open(spans_out, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    return metrics


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def _load_goldens() -> dict:
    try:
        with open(GOLDENS) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def check(workload: str, seed: int, iterations) -> tuple:
    """``(correct, attempted, failed, lines)`` of a run's iterations.

    An iteration whose hash differs from the run's first, or a first
    hash that differs from the committed golden, counts every operation
    it attempted as failed.
    """
    attempted = sum(it["attempted"] for it in iterations)
    failed = 0
    lines = []
    first = iterations[0]["hash"]
    golden = _load_goldens().get(workload, {}).get(str(seed))
    for i, it in enumerate(iterations):
        lines += [f"  iteration {i}: {note}" for note in it["notes"]]
        wrong = it["hash"] != first or (golden is not None and it["hash"] != golden)
        if wrong:
            failed += it["attempted"]
            lines.append(f"  iteration {i}: output hash {it['hash'][:16]} "
                         f"differs from {(golden or first)[:16]}")
        else:
            failed += it["failed"]
    if golden is None:
        lines.append(f"  output hash {first[:16]} (no golden for seed {seed}; "
                     f"checked across {len(iterations)} iteration(s))")
    elif golden == first:
        lines.append(f"  output hash {first[:16]} matches the golden")
    return failed == 0, attempted, failed, lines


def _fmt_timing(name: str, values, unit: str) -> str:
    s = summarise(values)
    tail = ("no percentile has 10 samples beyond it" if s["tail_p"] is None
            else f"p{s['tail_p']:g} {s['tail']:.4f} {unit}")
    return (f"  {name:<20s} {s['median']:.4f} {unit}  "
            f"(median of n={s['n']}; {tail})")


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(
        OUT_ROOT, f"run-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        setups = [_run_child(["--role", "setup", *common], deadline)
                  for _ in range(SETUPS - 1)]
        result_path = os.path.join(run_dir, "result.json")
        setups.append(_run_child(
            ["--role", "measure", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", result_path], deadline))
        with open(result_path) as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    iterations = result["iterations"]
    untraced = [it for it in iterations if not it["traced"]]
    correct, attempted, failed, check_lines = check(args.workload, args.seed,
                                                    iterations)
    walls = [it["wall"] for it in untraced]
    peak = peak_rss_mb(result["maxrss_self_kb"], result["maxrss_children_kb"])
    samples = sum(it["watch_samples"] for it in untraced)
    watch_s = sum(it["watch_s"] for it in untraced)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(_fmt_timing("wall_s", walls, "s"))
    print(_fmt_timing("setup_s", setups, "s"))
    print(f"  {'peak_rss_mb':<20s} {peak:.1f} MB  "
          f"(max over the measuring process and its pool workers)")
    if samples:
        print(f"  {'watch_samples_per_s':<20s} {samples / watch_s:.1f} "
              f"samples/s  ({samples} samples in {watch_s:.3f} s of replay)")
    else:
        print(f"  {'watch_samples_per_s':<20s} n/a  (no watch replay here)")
    print(f"  {'ops_failed_frac':<20s} {failed / attempted:.4g} ratio  "
          f"({failed} of {attempted} failed or incorrect)")
    for line in check_lines:
        print(line)
    print(f"  fingerprint {json.dumps(result['fingerprint'], sort_keys=True)}")

    if args.trace:
        per_layer = result["per_layer"]
        for name in sorted(per_layer):
            print(f"  {name:<44s} {per_layer[name]:.6g}")
        metrics = per_layer
        units = _per_layer_units()
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": peak}
        units = END_TO_END_UNITS
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "hash": iterations[0]["hash"],
              "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "fingerprint": result["fingerprint"]}
    with open(os.path.join(OUT_ROOT, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


def _per_layer_units() -> dict:
    from perfbench.layers import PER_LAYER

    return {name: unit for name, unit, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "measure"),
                        default="run", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role == "setup":
        role_setup(args.workload, args.seed)
        return 0
    if args.role == "measure":
        role_measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.out)
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
