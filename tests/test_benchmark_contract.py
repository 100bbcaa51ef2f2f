"""The names and operations the benchmark under ``perfbench/`` reads from the
package.  A rename or a changed signature fails here, in the test suite,
rather than in a benchmark run.  ``perfbench/`` is read, never edited."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "owner,attr", [(owner, attr) for owner, attr, *_ in spans.PATCHES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}"
         for owner, attr, *_ in spans.PATCHES])
def test_every_traced_name_resolves(owner, attr):
    assert callable(vars(owner)[attr])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_quick_workload_runs_and_verifies(name):
    sizes = workloads.SIZES["quick"]
    workload = workloads.WORKLOADS[name]
    results = {op.name: op.call() for op in workload.ops(sizes)}
    assert workload.verify(results, sizes) == []
