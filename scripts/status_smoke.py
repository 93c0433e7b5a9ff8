"""Status smoke: prove the campaign control plane works end to end.

Two phases against real ``python -m repro campaign`` subprocesses:

1. **Live scrape** — a 2-worker campaign with ``--status-port 0``; the
   bound URL is parsed from stdout and ``/healthz``, ``/status`` and
   ``/metrics`` are scraped while units run.  The status documents must
   be valid ``repro.status/1`` JSON with monotone progress, and the
   metrics pages valid OpenMetrics text.
2. **Flight record** — the same campaign with every worker chaos-killed
   on the first attempt and ``--flight-record``; after the run the
   artifact must parse as ``repro.flight-record/1`` with the failed
   units recorded.

Run from the repo root::

    PYTHONPATH=src python scripts/status_smoke.py [--max-seconds N]

Exit code 0 means every check passed.  Used by the CI ``status-smoke``
job and handy locally after touching the control plane.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

URL_PATTERN = re.compile(r"http://127\.0\.0\.1:(\d+)/status")

# A campaign closes its status server just before it exits, so a scrape
# can be refused in between; one that exits within this many seconds of
# a refused scrape has finished, not failed.
EXIT_GRACE_S = 10.0


def campaign_cmd(out: str, *extra: str, max_seconds: float) -> list:
    return [
        sys.executable, "-u", "-m", "repro", "campaign",
        "--runs", "2", "--workers", "2", "--max-seconds", str(max_seconds),
        "--base-seed", "42", "--out", out, *extra,
    ]


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def scrape_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return json.loads(resp.read())


def scrape_text(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.read().decode()


def phase_live_scrape(workdir: str, *, max_seconds: float) -> None:
    out = os.path.join(workdir, "scraped.json")
    proc = subprocess.Popen(
        campaign_cmd(out, "--status-port", "0", "--self-watch",
                     max_seconds=max_seconds),
        cwd=REPO_ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    port = None
    try:
        deadline = time.monotonic() + 120
        for line in proc.stdout:
            match = URL_PATTERN.search(line)
            if match:
                port = int(match.group(1))
                break
            if time.monotonic() > deadline:  # pragma: no cover
                raise SystemExit(
                    "FAIL [live-scrape]: no status URL announced in time")
        if port is None:
            raise SystemExit("FAIL [live-scrape]: campaign exited before "
                             "announcing its status URL")
        base = f"http://127.0.0.1:{port}"

        health = scrape_json(base, "/healthz")
        if health != {"status": "ok"}:
            raise SystemExit(f"FAIL [live-scrape]: /healthz said {health}")

        statuses = []
        while proc.poll() is None:
            try:
                status = scrape_json(base, "/status")
                metrics = scrape_text(base, "/metrics")
            except (urllib.error.URLError, ConnectionError) as exc:
                try:
                    proc.wait(timeout=EXIT_GRACE_S)
                except subprocess.TimeoutExpired:
                    raise exc from None
                break
            statuses.append(status)
            if not metrics.endswith("# EOF\n"):
                raise SystemExit(
                    "FAIL [live-scrape]: /metrics is not OpenMetrics text")
            time.sleep(0.2)
    finally:
        proc.stdout.read()
        if proc.poll() is None:  # pragma: no cover - belt and braces
            proc.kill()
        proc.wait()

    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL [live-scrape]: campaign exited {proc.returncode}")
    if not statuses:
        raise SystemExit("FAIL [live-scrape]: campaign finished before any "
                         "/status scrape; raise --max-seconds")
    for payload in statuses:
        if payload.get("schema") != "repro.status/1":
            raise SystemExit(f"FAIL [live-scrape]: bad schema in {payload}")
    dones = [p["units_done"] for p in statuses]
    if dones != sorted(dones):
        raise SystemExit(f"FAIL [live-scrape]: progress not monotone: {dones}")
    if not os.path.exists(out):
        raise SystemExit("FAIL [live-scrape]: campaign wrote no results")
    print(f"ok [live-scrape]: {len(statuses)} scrape(s), progress "
          f"{dones[0]} -> {dones[-1]} of {statuses[-1]['total_units']}")


def phase_flight_record(workdir: str, *, max_seconds: float) -> None:
    out = os.path.join(workdir, "chaos.json")
    artifact = os.path.join(workdir, "flight.json")
    subprocess.run(
        campaign_cmd(out, "--retries", "2", "--chaos", "kill=1,seed=5",
                     "--flight-record", artifact, "--status-port", "0",
                     max_seconds=max_seconds),
        check=True, cwd=REPO_ROOT, env=child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if not os.path.exists(artifact):
        raise SystemExit("FAIL [flight-record]: chaos kills left no "
                         "flight-record artifact")
    with open(artifact) as handle:
        record = json.load(handle)
    if record.get("schema") != "repro.flight-record/1":
        raise SystemExit(
            f"FAIL [flight-record]: bad schema {record.get('schema')!r}")
    if record.get("reason") not in {"worker-death", "timeout-kill"}:
        raise SystemExit(
            f"FAIL [flight-record]: unexpected reason {record.get('reason')!r}")
    if not record.get("records"):
        raise SystemExit("FAIL [flight-record]: artifact has no records")
    if not record.get("trace_id"):
        raise SystemExit("FAIL [flight-record]: artifact missing trace id")
    print(f"ok [flight-record]: {record['reason']} dump with "
          f"{len(record['records'])} record(s), trace {record['trace_id']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-seconds", type=float, default=20_000.0,
                        help="simulated seconds per run "
                             "(default: %(default)s)")
    parser.add_argument("--keep-artifacts", metavar="DIR", default=None,
                        help="copy the flight-record artifact here")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="status-smoke-") as workdir:
        print("phase 1/2: live /status + /metrics scrape of a running "
              "campaign")
        phase_live_scrape(workdir, max_seconds=args.max_seconds)

        print("phase 2/2: chaos-killed workers leave a flight record")
        phase_flight_record(workdir, max_seconds=args.max_seconds)

        if args.keep_artifacts:
            os.makedirs(args.keep_artifacts, exist_ok=True)
            source = os.path.join(workdir, "flight.json")
            with open(source) as src, open(
                    os.path.join(args.keep_artifacts, "flight.json"),
                    "w") as dst:
                dst.write(src.read())

    print("status smoke passed: live surface served, flight record written")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
