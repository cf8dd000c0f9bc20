"""What one measured iteration did, and the paper CLI's output checks.

Standard library only, so ``run.py`` can check a CLI artifact without
importing the program into its own process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from layers import PAPER_IDS

#: Where runs write their records, spans, CLI artifacts and logs.
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    """What one iteration did and whether its outputs were correct.

    ``attempted``/``failed`` count operations (replicas, spectral
    solves, experiments); ``checks`` maps each named check to how many
    operations it failed. ``findings`` are results reported as found
    but not counted as failures (a statistical FAIL verdict).
    ``fingerprint`` holds the outputs two runs at one seed must share.
    """

    attempted: int
    failed: int = 0
    checks: dict[str, int] = field(default_factory=dict)
    replica_rounds: int = 0
    task_events: int = 0
    findings: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def merge(self, other: "Outcome") -> None:
        """Add ``other``'s operations, checks, work and findings."""
        self.attempted += other.attempted
        self.failed += other.failed
        for name, count in other.checks.items():
            self.checks[name] = self.checks.get(name, 0) + count
        self.replica_rounds += other.replica_rounds
        self.task_events += other.task_events
        self.findings += [f for f in other.findings if f not in self.findings]


def check_paper_artifact(path: Path, returncode: int) -> Outcome:
    """Checks on the CLI's result: exit status 0 or 1 (never 2) and a JSON
    artifact holding every requested id with a boolean verdict.

    A broken run fails every experiment it did not deliver. A FAIL
    verdict is a statistical finding about the reproduction (it depends
    on the seed), reported by id and never hidden, but not a failed
    operation. The fingerprint is every entry without its invocation
    record (``run_meta``: workers, timings), which must repeat at one
    seed.
    """
    checks = {"exit_status_0_or_1": 0, "experiment_in_json": 0}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    if not isinstance(data, dict):
        data = {}
    findings = []
    for experiment_id in PAPER_IDS:
        entry = data.get(experiment_id)
        if not isinstance(entry, dict) or not isinstance(entry.get("passed"), bool):
            checks["experiment_in_json"] += 1
        elif not entry["passed"]:
            findings.append(f"{experiment_id}: verdict FAIL")
    if returncode not in (0, 1):
        checks["exit_status_0_or_1"] = len(PAPER_IDS)
    timings = {
        experiment_id: entry["run_meta"]["cell_timings"]
        for experiment_id, entry in data.items()
        if isinstance(entry, dict)
        and (entry.get("run_meta") or {}).get("cell_timings")
    }
    return Outcome(
        attempted=len(PAPER_IDS),
        failed=max(checks.values()),
        checks=checks,
        findings=findings,
        fingerprint={
            experiment_id: json.dumps(
                {k: v for k, v in entry.items() if k != "run_meta"}, sort_keys=True
            )
            for experiment_id, entry in data.items()
            if isinstance(entry, dict)
        },
        extra={
            "cell_busy_s": sum(
                cell["seconds"] for cells in timings.values() for cell in cells
            ),
            "cells": sum(len(cells) for cells in timings.values()),
            "sweep_ids": sorted(timings),
        },
    )
