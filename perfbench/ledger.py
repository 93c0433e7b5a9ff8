#!/usr/bin/env python3
"""Summaries over the run records in ``.perfbench_out/results.jsonl``.

Run from the repository root after some ``perfbench/run.py`` runs::

    python3 perfbench/ledger.py spread    # per workload: median and
                                          # quartile spread of each
                                          # end-to-end metric over seeds
    python3 perfbench/ledger.py exact     # do exact counts repeat between
                                          # traced runs of one seed?
    python3 perfbench/ledger.py goldens   # write goldens.json from runs
                                          # whose seeds all agreed

``spread`` and ``exact`` exit 1 when a bound is broken or a count
differs; ``goldens`` refuses a seed whose runs disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.layers import EXACT_COUNTS  # noqa: E402
from perfbench.measure import relative_iqr  # noqa: E402

RESULTS = os.path.join(ROOT, ".perfbench_out", "results.jsonl")
GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load(trace: int):
    with open(RESULTS) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if r["trace"] == trace]


def spread() -> int:
    with open(SPEC) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    latest = {}
    for r in load(0):  # the newest run of each (workload, seed) counts
        latest[(r["workload"], r["seed"])] = r
    ok = True
    for workload in sorted({w for w, _ in latest}):
        runs = [r for (w, _), r in latest.items() if w == workload]
        print(f"{workload}: {len(runs)} seed(s), "
              f"{sum(not r['correct'] for r in runs)} incorrect")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            rel = relative_iqr(values)
            flag = "" if name == "setup_s" or rel <= bound else "  OVER BOUND"
            ok &= not flag
            print(f"  {name:<12s} median {statistics.median(values):10.4f}  "
                  f"spread {rel:6.3f}  bound {bound:.2f} "
                  f"(a third: {bound / 3:.3f}){flag}")
    return 0 if ok else 1


def exact() -> int:
    groups = {}
    for r in load(1):
        groups.setdefault((r["workload"], r["seed"]), []).append(r)
    ok = True
    for (workload, seed), runs in sorted(groups.items()):
        if len(runs) < 2:
            continue
        differ = [name for name in EXACT_COUNTS
                  if len({r["metrics"][name]["value"] for r in runs}) > 1]
        ok &= not differ
        print(f"{workload} seed {seed}: {len(runs)} traced runs, "
              f"{len(EXACT_COUNTS) - len(differ)}/{len(EXACT_COUNTS)} exact "
              f"counts identical" + (f"; differ: {differ}" if differ else ""))
    return 0 if ok else 1


def goldens() -> int:
    hashes = {}
    for r in load(0) + load(1):
        if r["correct"]:
            hashes.setdefault(r["workload"], {}).setdefault(
                str(r["seed"]), set()).add(r["hash"])
    out = {}
    for workload, seeds in sorted(hashes.items()):
        for seed, found in seeds.items():
            if len(found) != 1:
                print(f"{workload} seed {seed}: runs disagree, not recorded")
                continue
            out.setdefault(workload, {})[seed] = found.pop()
    with open(GOLDENS, "w") as handle:
        json.dump({w: dict(sorted(s.items(), key=lambda kv: int(kv[0])))
                   for w, s in sorted(out.items())}, handle, indent=2)
        handle.write("\n")
    print(f"goldens -> {GOLDENS}: "
          + ", ".join(f"{w} {len(s)} seed(s)" for w, s in out.items()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("spread", "exact", "goldens"))
    args = parser.parse_args(argv)
    return {"spread": spread, "exact": exact, "goldens": goldens}[args.what]()


if __name__ == "__main__":
    sys.exit(main())
