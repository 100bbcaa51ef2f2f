"""The frontier: for each check, the largest size that passes within a time
budget.

``climb`` steps a check up one size at a time from its default size.
Each step runs ``python -m pqeuler verify ID --n N --json`` in one child
process at a time, and reads three things: the check's own elapsed time
from the report, the child's peak RSS from ``os.wait4``, and the exit
status.  A child still running ``STARTUP`` seconds past the budget is
killed, not waited for; a killed run counts as over the budget.  A size
runs at most ``repeat`` times and stops as soon as more than half of its
runs fall on one side of the budget.  It passes when the median time is
within the budget.  The climb ends at the first size that does not pass:
over the budget, refused (exit 2), failed, or an error.

Only the command line imports this module.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

from .harness import CHECKS

BUDGET = 10.0
# what a child may run past the budget, for the interpreter and the import
STARTUP = 2.0
POLL = 0.01
# the directory that holds the package, put first on the child's path
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _command(check_id: str, n: int) -> list[str]:
    return [sys.executable, "-m", "pqeuler", "verify", check_id,
            "--n", str(n), "--json"]


def run_once(check_id: str, n: int, limit: float) -> dict:
    """One child ``verify`` of the check at n, killed after ``limit``
    seconds of wall-clock time."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(_command(check_id, n), stdout=out,
                                stderr=err, env=env)
        killed = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start >= limit:
                    proc.kill()
                    killed = True
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL)
        except BaseException:
            # an interrupt leaves no child running
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    run = {"status": "killed", "exit": code, "seconds": round(wall, 3),
           "wall": round(wall, 3),
           "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    if killed:
        return run
    try:
        report = json.loads(stdout)
    except ValueError:
        report = None
    if code in (0, 1) and isinstance(report, dict):
        run["status"] = report["status"]
        run["seconds"] = report["elapsed"]
        if "witness" in report:
            run["message"] = report["witness"]
    else:
        run["status"] = "refused" if code == 2 else "error"
        run["message"] = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    return run


def measure(check_id: str, n: int, budget: float, repeat: int) -> dict:
    """The step at n: up to ``repeat`` runs, and their median time."""
    runs = []
    while len(runs) < repeat:
        run = run_once(check_id, n, budget + STARTUP)
        runs.append(run)
        if run["status"] not in ("pass", "killed"):
            return _step(n, run["status"], run["seconds"], runs)
        over = sum(r["seconds"] > budget for r in runs)
        if max(over, len(runs) - over) > repeat // 2:
            break
    seconds = statistics.median(r["seconds"] for r in runs)
    return _step(n, "pass" if seconds <= budget else "over", seconds, runs)


def _step(n: int, status: str, seconds: float, runs: list) -> dict:
    return {"n": n, "status": status, "seconds": round(seconds, 3),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs), "runs": runs}


def climb(check_id: str, budget: float = BUDGET, repeat: int = 1,
          report=None, start: int | None = None) -> dict:
    """Step the check up from ``start`` (by default, its default size)
    until a size does not pass; ``report`` is called with each step as it
    is measured."""
    first = n = CHECKS[check_id][1] if start is None else start
    steps, reach = [], None
    while True:
        step = measure(check_id, n, budget, repeat)
        steps.append(step)
        if report is not None:
            report(check_id, step)
        if step["status"] != "pass":
            break
        reach, n = n, n + 1
    return {"check": check_id, "start": first, "reach": reach,
            "stop": step["status"], "steps": steps}


def frontier(check_ids, budget: float = BUDGET, repeat: int = 1,
             report=None) -> dict:
    if not 0 < budget < math.inf:
        raise ValueError(f"the budget must be positive and finite, got {budget}")
    if repeat < 1:
        raise ValueError(f"the repeat count must be at least 1, got {repeat}")
    return {"budget": budget, "repeat": repeat, "startup": STARTUP,
            "checks": [climb(cid, budget, repeat, report)
                       for cid in check_ids]}
