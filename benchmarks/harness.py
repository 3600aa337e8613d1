"""Perf-trajectory records shared by the ``bench_*.py`` sweep scripts.

Each sweep appends one record per run to a ``BENCH_<name>.json`` list at
the repo root, stamped with the short git commit and the UTC time, so
successive commits build a trajectory.  Record keys, in order:
``timestamp``, ``commit``, ``workload``, ``results``.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def default_output(name: str) -> str:
    """``BENCH_<name>.json`` at the repo root."""
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def git_commit(cwd: str) -> str:
    """Short commit hash of the checkout at ``cwd``, or ``"unknown"``."""
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"], cwd=cwd, text=True,
            stderr=subprocess.DEVNULL,
        ).strip()
    except Exception:
        return "unknown"


def append_record(output: str, workload: dict, results) -> int:
    """Stamp ``workload`` and ``results`` into a record, append it to the
    JSON list at ``output`` (created if missing) and report where it went.
    Returns the run number, 1-based."""
    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "commit": git_commit(os.path.dirname(os.path.abspath(output))),
        "workload": workload,
        "results": results,
    }
    history = []
    if os.path.exists(output):
        with open(output) as f:
            history = json.load(f)
    history.append(record)
    with open(output, "w") as f:
        json.dump(history, f, indent=2)
        f.write("\n")
    print(f"appended run #{len(history)} → {output}")
    return len(history)
