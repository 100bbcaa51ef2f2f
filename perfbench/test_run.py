"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q`` from the
repository root.  They run every workload end to end at the quick sizes, so a
broken benchmark shows before a full run."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import workloads  # noqa: E402
from pqeuler import LaurentPoly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_end_to_end_metric(workload):
    out = run("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", "0", "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_traced_run_reports_every_layer_metric_with_repeating_counts():
    results = []
    for seed in ("1", "2"):
        out = run("--workload", "series", "--seed", seed, "--seconds", "1",
                  "--trace", "1", "--quick")
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in results:
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    counts = [name for name, unit in want.items() if unit == "count"]
    assert counts
    for name in counts:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run("--workload", "series", "--seconds", "1", "--quick", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_oracles_match_brute_force():
    for n in range(7):
        words = list(itertools.permutations(range(1, n + 1)))
        wex = [0] * (n + 1)
        inv = [0] * (n * (n - 1) // 2 + 1)
        for w in words:
            wex[sum(1 for i, v in enumerate(w, 1) if v >= i)] += 1
            inv[sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])] += 1
        assert oracles.eulerian_by_wex(n) == wex
        assert oracles.mahonian(n) == inv
        assert oracles.derangements(n) == sum(
            1 for w in words if all(v != i for i, v in enumerate(w, 1)))
    # alternating permutations s1 > s2 < s3 > ... are counted by E_n
    for n in range(8):
        count = sum(1 for w in itertools.permutations(range(n))
                    if all((w[i] > w[i + 1]) == (i % 2 == 0) for i in range(n - 1)))
        assert oracles.euler_numbers(n)[n] == count


def _results(name):
    sizes = workloads.SIZES["quick"]
    work = workloads.WORKLOADS[name]
    return work, sizes, {op.name: op.call() for op in work.ops(sizes)}


@pytest.mark.parametrize("name,key", [
    ("series", "expand:tangent-pq"),
    ("series", "expand:thm4.1"),
    ("enumeration", "stat_polynomial:S"),
    ("enumeration", "stat_polynomial:D"),
    ("objects", "enumerate:laguerre"),
    ("objects", "fz:S"),
])
def test_checks_catch_a_wrong_result(name, key):
    work, sizes, results = _results(name)
    assert work.verify(results, sizes) == []
    value = results[key]
    if isinstance(value, list):
        results[key] = value[:-1] + value[:1]  # one image twice, one missing
    elif hasattr(value, "coeffs"):
        results[key] = value + value.one(value.order, value.ring).shift(3)
    else:
        results[key] = value + LaurentPoly.const(1)
    assert work.verify(results, sizes) != []


def test_harness_failures_are_reported():
    work, sizes, results = _results("enumeration")
    report = results["check:jv"]
    results["check:jv"] = type(report)(report.check, report.param, "fail",
                                       report.elapsed, "planted")
    assert any("check:jv" in p for p in work.verify(results, sizes))
