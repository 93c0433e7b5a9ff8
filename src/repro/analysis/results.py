"""Persistence and tabulation of campaign results.

Results round-trip through plain JSON so campaigns can run once
(expensively) and be re-tabulated or compared later.  The schema is
versioned; loading an unknown version fails loudly rather than guessing.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, List

from ..core.detectors import DetectorConfig
from ..exceptions import TraceError
from ..obs.atomic import atomic_write_json
from .campaign import CellResult, ExperimentSpec, RunRecord
from ..stats.roc import DetectionOutcome

# v2 added per-run detector names and peak decision statistics (the
# scoreboard's ROC inputs); v1 files predate the detector tournament and
# load with every run mapped to the default Hölder detector, no peaks.
_SCHEMA_VERSION = 2
_READABLE_VERSIONS = (1, 2)


def save_results(results: Dict[str, CellResult], path: str | os.PathLike) -> None:
    """Write campaign results to a JSON file (atomically)."""
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "cells": {
            name: {
                "spec": _spec_to_dict(cell.spec),
                "runs": [asdict(r) for r in cell.runs],
                "outcome": _outcome_to_dict(cell.outcome),
                "false_alarms": cell.false_alarms,
            }
            for name, cell in results.items()
        },
    }
    atomic_write_json(path, payload)


def load_results(path: str | os.PathLike) -> Dict[str, CellResult]:
    """Read campaign results previously written by :func:`save_results`."""
    with open(path, "r") as handle:
        payload = json.load(handle)
    version = payload.get("schema_version")
    if version not in _READABLE_VERSIONS:
        raise TraceError(
            f"unsupported results schema version {version!r} "
            f"(readable: {_READABLE_VERSIONS})"
        )
    out: Dict[str, CellResult] = {}
    for name, cell in payload["cells"].items():
        spec = _spec_from_dict(cell["spec"])
        runs = [RunRecord(**r) for r in cell["runs"]]
        outcome = _outcome_from_dict(cell["outcome"])
        out[name] = CellResult(
            spec=spec, runs=runs, outcome=outcome,
            false_alarms=int(cell["false_alarms"]),
        )
    return out


def results_table(results: Dict[str, CellResult]) -> List[List[object]]:
    """Flatten results into rows for :func:`repro.report.render_table`.

    Columns: cell, runs, crashed, detected, missed, median lead,
    false alarms.
    """
    rows: List[List[object]] = []
    for name, cell in results.items():
        detected = cell.outcome.n_detected if cell.outcome else 0
        missed = cell.outcome.n_missed if cell.outcome else 0
        rows.append([
            name,
            len(cell.runs),
            cell.n_crashed,
            detected,
            missed,
            cell.median_lead,
            cell.false_alarms,
        ])
    return rows


def _spec_to_dict(spec: ExperimentSpec) -> dict:
    data = asdict(spec)
    data["detector"] = asdict(spec.detector)
    return data


def _spec_from_dict(data: dict) -> ExperimentSpec:
    data = dict(data)
    # Files written before the Hölder engine registry was folded away
    # carry a ``holder_engine`` name; it never changed results, so any
    # value (batch/sliding/online) is dropped.
    data.pop("holder_engine", None)
    data["detector"] = DetectorConfig(**data["detector"])
    return ExperimentSpec(**data)


def _outcome_to_dict(outcome: DetectionOutcome | None) -> dict | None:
    if outcome is None:
        return None
    return {
        "n_runs": outcome.n_runs,
        "n_detected": outcome.n_detected,
        "n_premature": outcome.n_premature,
        "n_missed": outcome.n_missed,
        "lead_times": list(outcome.lead_times),
    }


def _outcome_from_dict(data: dict | None) -> DetectionOutcome | None:
    if data is None:
        return None
    return DetectionOutcome(
        n_runs=int(data["n_runs"]),
        n_detected=int(data["n_detected"]),
        n_premature=int(data["n_premature"]),
        n_missed=int(data["n_missed"]),
        lead_times=tuple(data["lead_times"]),
    )
