"""Chaos smoke: prove campaign execution survives SIGKILL, end to end.

Three phases, each compared against an uninterrupted reference run:

1. **Reference** — a calm ``python -m repro campaign`` producing the
   payload every other phase must reproduce byte-for-byte.
2. **Worker kill** — the same campaign with ``--chaos kill=1`` (every
   worker process ``os._exit``s mid-unit on its first attempt) and a
   retry budget: the pool must absorb the deaths and converge to the
   reference payload.
3. **Parent kill** — the campaign runs with a checkpoint journal and
   the *parent* process is SIGKILLed as soon as the journal shows
   completed units.  Its pool workers must exit on their own within
   10 s.  A torn fragment is then appended to the journal, as a kill
   mid-append would leave; ``--resume`` must trim it, execute only the
   missing units, journal every unit and produce the reference payload.

Run from the repo root::

    PYTHONPATH=src python scripts/chaos_smoke.py [--max-seconds N]

Exit code 0 means every payload matched.  Used by the CI ``chaos-smoke``
job and handy locally after touching the resilience layer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis.checkpoint import CampaignJournal  # noqa: E402


def campaign_cmd(out: str, *extra: str, max_seconds: float) -> list:
    return [
        sys.executable, "-m", "repro", "campaign",
        "--runs", "2", "--max-seconds", str(max_seconds),
        "--base-seed", "42", "--out", out, *extra,
    ]


def run(cmd: list) -> None:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    subprocess.run(cmd, check=True, cwd=REPO_ROOT, env=env)


def journal_units(path: str) -> int:
    """Distinct units journaled so far (0 for a missing or empty file)."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return 0
    return len(CampaignJournal.load(path))


def child_pids(pid: int) -> list:
    """Pids whose parent is ``pid``, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def assert_payloads_match(reference: str, candidate: str, label: str) -> None:
    with open(reference) as a, open(candidate) as b:
        ref, got = json.load(a), json.load(b)
    if ref != got:
        raise SystemExit(f"FAIL [{label}]: {candidate} differs from "
                         f"reference {reference}")
    print(f"ok [{label}]: payload bit-identical to uninterrupted reference")


def phase_parent_kill(workdir: str, reference: str,
                      *, max_seconds: float) -> None:
    journal = os.path.join(workdir, "journal.jsonl")
    resumed = os.path.join(workdir, "resumed.json")
    doomed = os.path.join(workdir, "doomed.json")

    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        campaign_cmd(doomed, "--workers", "2", "--journal", journal,
                     max_seconds=max_seconds),
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 300
        while journal_units(journal) < 1:
            if proc.poll() is not None:
                raise SystemExit(
                    "FAIL [parent-kill]: campaign finished before any "
                    "journal unit was observed — cannot exercise the kill")
            if time.monotonic() > deadline:
                raise SystemExit(
                    "FAIL [parent-kill]: no journal unit appeared in time")
            time.sleep(0.05)
        workers = child_pids(proc.pid)
        if not workers:
            raise SystemExit("FAIL [parent-kill]: the campaign has no "
                             "worker processes to watch")
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    finally:
        if proc.poll() is None:  # pragma: no cover - belt and braces
            proc.kill()
            proc.wait()

    deadline = time.monotonic() + 10
    while any(alive(pid) for pid in workers):
        if time.monotonic() > deadline:
            stragglers = [pid for pid in workers if alive(pid)]
            for pid in stragglers:
                os.kill(pid, signal.SIGKILL)
            raise SystemExit(
                f"FAIL [parent-kill]: worker(s) {stragglers} outlived the "
                f"SIGKILLed parent by more than 10 s")
        time.sleep(0.1)
    print(f"parent's {len(workers)} worker(s) exited after the kill")

    completed = journal_units(journal)
    total = 4  # 2 cells x 2 runs
    print(f"parent SIGKILLed mid-campaign with {completed}/{total} "
          f"unit(s) journaled")
    if completed >= total:
        raise SystemExit(
            "FAIL [parent-kill]: every unit was already journaled before "
            "the kill landed; raise --max-seconds so units take longer")

    # A kill mid-append leaves a torn line; resume must trim it, not
    # glue the next unit onto it.
    with open(journal, "a") as handle:
        handle.write('{"kind": "unit", "key": "torn#0", "payl')
    run(campaign_cmd(resumed, "--journal", journal, "--resume",
                     max_seconds=max_seconds))
    if journal_units(journal) < total:
        raise SystemExit("FAIL [parent-kill]: resume did not journal the "
                         "missing units")
    assert_payloads_match(reference, resumed, "parent-kill + resume")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=20_000.0,
                        help="simulated seconds per run "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as workdir:
        reference = os.path.join(workdir, "reference.json")
        print("phase 1/3: uninterrupted reference campaign")
        run(campaign_cmd(reference, max_seconds=args.max_seconds))

        print("phase 2/3: worker kills (--chaos kill=1) + retries")
        worker_kill = os.path.join(workdir, "worker-kill.json")
        run(campaign_cmd(worker_kill, "--workers", "2", "--retries", "2",
                         "--chaos", "kill=1,seed=5",
                         max_seconds=args.max_seconds))
        assert_payloads_match(reference, worker_kill, "worker-kill")

        print("phase 3/3: parent SIGKILL mid-campaign + --resume")
        phase_parent_kill(workdir, reference, max_seconds=args.max_seconds)

    print("chaos smoke passed: kills survived, resume bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
