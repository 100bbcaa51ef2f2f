"""Time the statistics kernels and the path ``stat_polynomial`` takes.

Usage: python benchmarks/bench_stats.py [n]

Scans all of S_n (default n=8) with the pure-Python and, when built, the
compiled ``stat_tuple`` kernel, then times ``stat_polynomial`` on S_n with the
quintuple weight in one process (the prefix walk) against the scan oracle
``permstat._accumulate_scan`` (every word through ``stat_tuple``), and checks
that the two agree.
"""

import itertools
import sys
import time

from pqeuler import permstat
from pqeuler._statpure import stat_tuple as pure_stat

try:
    from pqeuler._statcore import stat_tuple as compiled_stat
except ImportError:
    compiled_stat = None


def scan(fn, n):
    start = time.perf_counter()
    count = 0
    for word in itertools.permutations(range(1, n + 1)):
        fn(word)
        count += 1
    elapsed = time.perf_counter() - start
    return count, elapsed


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    count, t_pure = scan(pure_stat, n)
    print(f"pure:     {count} words in {t_pure:.3f}s "
          f"({count / t_pure:,.0f}/s)")
    if compiled_stat is None:
        print("compiled: extension not available")
    else:
        count, t_comp = scan(compiled_stat, n)
        print(f"compiled: {count} words in {t_comp:.3f}s "
              f"({count / t_comp:,.0f}/s)")
        print(f"speedup:  {t_pure / t_comp:.1f}x")

    weight = permstat.QUINTUPLE_WEIGHT
    plan = permstat._weight_plan(weight)
    walk, t_walk = timed(
        lambda: permstat.stat_polynomial("S", n, weight, workers=1))
    oracle, t_scan = timed(lambda: permstat._accumulate_scan("S", n, plan))
    if walk.terms != oracle:
        raise SystemExit("stat_polynomial disagrees with the scan oracle")
    print(f"stat_polynomial S_{n} quintuple, 1 process: walk {t_walk:.3f}s, "
          f"scan oracle ({permstat.BACKEND} kernel) {t_scan:.3f}s, "
          f"{t_scan / t_walk:.1f}x")


if __name__ == "__main__":
    main()
