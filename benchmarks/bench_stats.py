"""Time the statistics kernel, the path ``stat_polynomial`` takes, and the
algebra layer.

Usage: python benchmarks/bench_stats.py [n] [order]

Scans all of S_n (default n=8) with the per-word ``stat_tuple`` kernel, then
times ``stat_polynomial`` on S_n with the quintuple weight in one process (the
prefix walk) against the scan oracle ``permstat._accumulate_scan`` (every word
through ``stat_tuple``), and checks that the two agree.  Last, for the algebra layer, it times three computations
at the given order (default 12) that are nearly all ``LaurentPoly``
products: ``preset("thm4.1").expand``, ``q_parity_formula`` and the Laguerre
transfer pass, and reports their term products (pairs of terms multiplied in
a product of two polynomials, counted in a second, untimed run) per second.
"""

import itertools
import sys
import time

from pqeuler import contfrac, lattice, permstat, qeuler
from pqeuler.algebra import LaurentPoly


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


def term_products(fn) -> int:
    """Pairs of terms multiplied by ``LaurentPoly`` products during fn()."""
    original = LaurentPoly.__mul__
    count = 0

    def counting(a, b):
        nonlocal count
        if isinstance(b, LaurentPoly):
            count += len(a.terms) * len(b.terms)
        return original(a, b)

    LaurentPoly.__mul__ = counting
    try:
        fn()
    finally:
        LaurentPoly.__mul__ = original
    return count


def algebra_layer(order):
    jobs = [
        (f'preset("thm4.1").expand({order})',
         lambda: contfrac.preset("thm4.1").expand(order)),
        (f"q_parity_formula({order})", lambda: qeuler.q_parity_formula(order)),
        (f"Laguerre transfer pass at {order}",
         lambda: lattice.weighted_sum("laguerre", order,
                                      lattice.laguerre_quintuple_weights())),
    ]
    for label, job in jobs:
        _, seconds = timed(job)
        products = term_products(job)
        print(f"algebra {label}: {seconds:.3f}s, {products:,} term products, "
              f"{products / seconds:,.0f}/s")


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    order = int(sys.argv[2]) if len(sys.argv) > 2 else 12
    count, t_kernel = scan(permstat.stat_tuple, n)
    print(f"kernel: {count} words in {t_kernel:.3f}s "
          f"({count / t_kernel:,.0f}/s)")

    weight = permstat.QUINTUPLE_WEIGHT
    plan = permstat._weight_plan(weight)
    walk, t_walk = timed(
        lambda: permstat.stat_polynomial("S", n, weight, workers=1))
    oracle, t_scan = timed(lambda: permstat._accumulate_scan("S", n, plan))
    if walk != LaurentPoly(oracle):
        raise SystemExit("stat_polynomial disagrees with the scan oracle")
    print(f"stat_polynomial S_{n} quintuple, 1 process: walk {t_walk:.3f}s, "
          f"scan oracle {t_scan:.3f}s, "
          f"{t_scan / t_walk:.1f}x")
    algebra_layer(order)


if __name__ == "__main__":
    main()
