"""The ten acceptance criteria, one test each, all at exact equality, and
the enumerating checks and ``contra`` at sizes past them.

Each criterion prints a single pass/fail line (visible with -s; the -v test
line mirrors it) and asserts its wall-clock budget.
"""

import math
import time

import pytest

from pqeuler import harness
from pqeuler.algebra import LaurentPoly
from pqeuler.contfrac import preset
from pqeuler.lattice import (
    WeightSpec,
    diagramme_pq_weights,
    enumerate_objects,
    laguerre_quintuple_weights,
    restricted_diagramme_pq_weights,
    weighted_sum,
)
from pqeuler.maps import csz, fv, fv_star, fz
from pqeuler.permstat import family_iter, parse_word, stat_polynomial, word_str
from pqeuler.qeuler import AT_ONE, e_int, e_pq, e_pq_upto, egf_exc_fix

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385]


def _run(num, desc, budget, body):
    start = time.perf_counter()
    try:
        body()
    except AssertionError:
        print(f"criterion {num:2d} ({desc}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d} ({desc}): pass [{elapsed:.2f}s / {budget}s]")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_integer_euler_numbers():
    def body():
        for n in range(9):
            assert e_int(n) == EULER[n]
            assert e_pq(n).substitute(AT_ONE).as_int() == EULER[n]
    _run(1, "integer Euler numbers both ways", 5, body)


def test_criterion_02_pq_euler_cf_vs_enumeration():
    def body():
        report = harness.check("thm2_1", 9)
        assert report.passed, report.witness
        by_cf = e_pq_upto(5)
        assert str(by_cf[3]) == "p + q"
        assert str(by_cf[4]) == "p^2 + 2*p*q + q^2 + 1"
        assert str(by_cf[5]) == ("p^4 + 3*p^3*q + 4*p^2*q^2 + p^2 "
                                 "+ 3*p*q^3 + 2*p*q + q^4 + q^2")
    _run(2, "(p,q)-Euler continued fractions", 30, body)


def test_criterion_03_quintuple_continued_fraction():
    def body():
        report = harness.check("thm4_1", 8)
        assert report.passed, report.witness
    _run(3, "quintuple statistic continued fraction", 120, body)


def test_criterion_04_signed_identities():
    def body():
        for cid in ("foata_han", "jv", "shin_zeng"):
            report = harness.check(cid, 8)
            assert report.passed, (cid, report.witness)
    _run(4, "three signed q-identities", 120, body)


def test_criterion_05_biword_bijection():
    def body():
        report = harness.check("thm3_2", 9)
        assert report.passed, report.witness
        assert word_str(csz(parse_word("412796583"))) == "249385716"
    _run(5, "biword bijection transport", 120, body)


def test_criterion_06_contraction_pipeline():
    def body():
        report = harness.check("contra", 12)
        assert report.passed, report.witness
    _run(6, "contraction pipeline and specializations", 60, body)


def test_criterion_07_involutions():
    def body():
        report = harness.check("sz_linear", 9)
        assert report.passed, report.witness
    _run(7, "sign-reversing involutions", 60, body)


def test_criterion_08_closed_formulas():
    def body():
        report = harness.check("sec7", 12)
        assert report.passed, report.witness
    _run(8, "closed summation formulas", 60, body)


def test_criterion_09_egf():
    def body():
        egf = egf_exc_fix(7)
        for n in range(8):
            coeff = egf[n]
            assert coeff == stat_polynomial(
                "S", n, {"x": {"exc": 1}, "y": {"fix": 1}})
            if n >= 1:
                full = coeff.substitute({"x": -1, "y": 1}).as_int()
                assert full == (0 if n % 2 == 0
                                else (-1) ** ((n - 1) // 2) * EULER[n])
                der = coeff.substitute({"x": -1, "y": 0}).as_int()
                assert der == ((-1) ** (n // 2) * EULER[n] if n % 2 == 0
                               else 0)
    _run(9, "exponential generating function", 30, body)


def test_criterion_10_oracle_coherence():
    def body():
        one = LaurentPoly.const(1)
        specs = [
            ("motzkin", WeightSpec(up=lambda h: one, level=lambda h: one,
                                   down=lambda h: one), 1),
            ("dyck", WeightSpec(up=lambda h: one, down=lambda h: one), 2),
            ("diagramme", diagramme_pq_weights(), 2),
            ("restricted_diagramme", restricted_diagramme_pq_weights(), 2),
            ("laguerre", laguerre_quintuple_weights(), 1),
        ]
        for kind, spec, step in specs:
            for length in range(0, 11, step):
                dp = weighted_sum(kind, length, spec, method="dp")
                brute = weighted_sum(kind, length, spec, method="enumerate")
                assert dp == brute, (kind, length)
        for n in (1, 3, 5, 7):
            assert len({fv(s) for s in family_iter("A", n)}) == EULER[n]
        for n in (0, 2, 4, 6):
            assert len({fv_star(s) for s in family_iter("A", n)}) == EULER[n]
        for n in range(7):
            assert len({fz(s) for s in family_iter("S", n)}) == math.factorial(n)
    _run(10, "enumeration oracles agree with fast paths", 60, body)


# The checks that enumerate a family through stat_polynomial, at sizes past
# the criteria above, and two one-variable sums at the reach of the int store.
FRONTIER = [(cid, 10) for cid in ("thm4_1", "cor_cf_A", "cor_cf_SZ")] + [
    (cid, 12) for cid in ("thm2_1", "cor2_2", "cor2_3")] + [
    (cid, 10) for cid in ("euler_roselle", "foata_han", "jv", "shin_zeng")] + [
    (cid, 13) for cid in ("jv", "shin_zeng", "euler_roselle")] + [
    (cid, 12) for cid in ("foata_han", "mad_remark", "equidist_remark")] + [
    ("shin_zeng", 16), ("cor2_3", 15)]


@pytest.mark.parametrize("cid,param", FRONTIER)
def test_enumerating_checks_at_the_frontier(cid, param):
    report = harness.check(cid, param)
    assert report.passed, report.witness
    assert report.elapsed < 30, f"{cid}@{param} took {report.elapsed:.2f}s"


def test_contra_at_16():
    report = harness.check("contra", 16)
    assert report.passed, report.witness
    assert report.elapsed < 30, f"contra@16 took {report.elapsed:.2f}s"


def test_sec7_at_24():
    report = harness.check("sec7", 24)
    assert report.passed, report.witness
    assert report.elapsed < 30, f"sec7@24 took {report.elapsed:.2f}s"


def test_thm4_1_at_12_in_one_process():
    # every sum runs in the calling process (test_permstat checks that no
    # process module is loaded)
    report = harness.check("thm4_1", 12)
    assert report.passed, report.witness
    assert report.elapsed < 60, f"thm4_1@12 took {report.elapsed:.2f}s"
