"""The names and operations the benchmark under ``perfbench/`` reads from the
package.  A rename or a changed signature fails here, in the test suite,
rather than in a benchmark run.  ``perfbench/`` is read, never edited."""

import sys
from pathlib import Path

import pytest

from pqeuler import permstat

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


def test_the_printed_worker_count_is_one():
    # run.main prints it in the header of every run; every sum runs in one
    # process
    assert permstat.default_workers() == 1


@pytest.mark.parametrize("workers", [1, None])
def test_pool_keywords_are_accepted_and_ignored(workers):
    # as run.pool_speedup passes them
    n = 6
    weight = permstat.QUINTUPLE_WEIGHT
    assert permstat.stat_polynomial("S", n, weight, workers=workers,
                                    parallel_threshold=n) == (
        permstat.stat_polynomial("S", n, weight))
