"""``python -m pqeuler`` and the frontier command, on tiny budgets: each
climb here runs children of a fraction of a second."""

import json
import os
import subprocess
import sys
import time

import pytest

from pqeuler import frontier, harness
from pqeuler.cli import main


def _python_m(*args):
    # the bare PYTHONPATH=src setting, nothing installed
    env = dict(os.environ, PYTHONPATH=frontier._SRC)
    return subprocess.run([sys.executable, "-m", "pqeuler", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_m_pqeuler_runs_the_cli():
    ok = _python_m("verify", "contra", "--order", "2")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("contra(param=2): pass")
    for bad in (("verify", "contra", "--order", "-2"), ("nonsense",),
                ("frontier", "--repeat", "0")):
        proc = _python_m(*bad)
        assert proc.returncode == 2, bad
        assert proc.stdout == ""


def _from_zero(monkeypatch):
    # the CLI's climbs start at 0, not at the default size
    climb = frontier.climb
    monkeypatch.setattr(frontier, "climb",
                        lambda *args: climb(*args, start=0))


# the CLI in a child whose state bound is 60: C(8, 4) = 70 states outgrow
# it, so every n from 8 on is refused before any work
_BOUNDED = ("import sys; from pqeuler import cli, permstat; "
            "permstat.DP_MAX_STATES = 60; sys.exit(cli.main(sys.argv[1:]))")


def test_a_climb_stops_at_a_refusal(monkeypatch):
    monkeypatch.setattr(frontier, "_command", lambda cid, n: [
        sys.executable, "-c", _BOUNDED, "verify", cid, "--n", str(n), "--json"])
    result = frontier.climb("euler_roselle", budget=30, start=5)
    assert [step["n"] for step in result["steps"]] == [5, 6, 7, 8]
    assert (result["reach"], result["stop"]) == (7, "refused")
    (run,) = result["steps"][-1]["runs"]
    assert run["exit"] == 2
    assert "layer 4 " in run["message"]
    assert "DP_MAX_STATES = 60 states" in run["message"]


def test_a_climb_stops_at_the_budget(monkeypatch):
    # euler_roselle's small sizes take well under a millisecond and its
    # time grows with n, so a 20 ms budget stops the climb within a few
    # steps; a size runs until two of its three runs agree
    budget = 0.02
    result = frontier.climb("euler_roselle", budget=budget, repeat=3,
                            start=1)
    *passed, last = result["steps"]
    assert result["stop"] == last["status"] == "over"
    assert last["seconds"] > budget
    assert result["reach"] == last["n"] - 1 >= 1
    for step in passed:
        assert step["status"] == "pass" and step["seconds"] <= budget
    for step in result["steps"]:
        times = [run["seconds"] for run in step["runs"]]
        assert 2 <= len(times) <= 3
        assert len(times) == 3 or (times[0] > budget) == (times[1] > budget)
        assert all(run["status"] == "pass" for run in step["runs"])
        assert step["peak_rss_mb"] == max(run["peak_rss_mb"]
                                          for run in step["runs"])


def test_an_overshoot_is_killed_not_waited_for(monkeypatch):
    # contra at 60 runs for about a minute in under 30 MB; a child still
    # running STARTUP seconds past the budget is killed
    monkeypatch.setattr(frontier, "STARTUP", 1.0)
    start = time.perf_counter()
    result = frontier.climb("contra", budget=0.01, start=60)
    assert time.perf_counter() - start < 10
    (step,) = result["steps"]
    (run,) = step["runs"]
    assert run["status"] == "killed" and run["exit"] < 0
    assert run["wall"] >= 1.01
    assert (result["reach"], result["stop"]) == (None, "over")


def test_a_climb_starts_at_the_default_size(monkeypatch):
    sizes = []

    def measured(check_id, n, budget, repeat):
        sizes.append(n)
        return frontier._step(n, "over", budget, [{"peak_rss_mb": 1.0}])

    monkeypatch.setattr(frontier, "measure", measured)
    for cid in ("contra", "thm2_1", "jv"):
        assert frontier.climb(cid)["start"] == harness.CHECKS[cid][1]
    assert sizes == [12, harness.SERIES_DEFAULT, harness.PERM_DEFAULT]


def test_the_json_shape(monkeypatch, capsys):
    _from_zero(monkeypatch)
    assert main(["frontier", "sec7", "--budget", "0.005", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["budget"] == 0.005 and out["repeat"] == 1
    assert out["startup"] == frontier.STARTUP
    (climb,) = out["checks"]
    assert set(climb) == {"check", "start", "reach", "stop", "steps"}
    assert (climb["check"], climb["start"]) == ("sec7", 0)
    assert [step["n"] for step in climb["steps"]] == list(
        range(len(climb["steps"])))
    for step in climb["steps"]:
        assert set(step) == {"n", "status", "seconds", "peak_rss_mb", "runs"}
        (run,) = step["runs"]
        assert set(run) == {"status", "exit", "seconds", "wall", "peak_rss_mb"}
        assert run["exit"] == 0 and run["wall"] >= run["seconds"]
        assert run["peak_rss_mb"] > 0


def test_the_text_lists_each_step_and_the_reach(monkeypatch, capsys):
    _from_zero(monkeypatch)
    assert main(["frontier", "sec7", "--budget", "0.002"]) == 0
    *steps, summary = capsys.readouterr().out.splitlines()
    assert steps[0].startswith("sec7@0: pass [")
    assert " over [" in steps[-1]
    assert summary == (f"sec7: reach {len(steps) - 2} "
                       f"(from 0; {len(steps) - 1} over)")


def test_a_failed_check_or_a_crash_ends_the_climb_with_exit_1(monkeypatch,
                                                              capsys):
    report = {"check": "contra", "param": 0, "status": "fail",
              "elapsed": 0.001, "witness": "planted"}
    for code, status in (
            f"import json, sys; print(json.dumps({report!r})); sys.exit(1)",
            "fail"), ("raise SystemExit('crash')", "error"):
        monkeypatch.setattr(frontier, "_command", lambda cid, n, _code=code:
                            [sys.executable, "-c", _code])
        (run,) = frontier.climb("contra")["steps"][0]["runs"]
        assert run["status"] == status
        assert run["message"] == ("planted" if status == "fail" else "crash")
        assert main(["frontier", "contra", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["checks"][0]["stop"] == status


@pytest.mark.parametrize("args", [["--budget", "0"], ["--budget", "-1"],
                                  ["--budget", "inf"], ["--budget", "x"],
                                  ["--repeat", "0"], ["nope"]])
def test_a_bad_argument_exits_2_before_any_child(args, monkeypatch, capsys):
    monkeypatch.setattr(frontier, "run_once", None)
    assert main(["frontier", *args]) == 2
    assert capsys.readouterr().out == ""
