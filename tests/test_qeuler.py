import pytest

from pqeuler import permstat, qeuler
from pqeuler.algebra import LaurentPoly
from pqeuler.permstat import EnumerationCapError, stat_polynomial
from pqeuler.qeuler import (
    e_int,
    e_pq,
    e_pq_upto,
    e_q,
    e_star_q,
    egf_exc_fix,
    euler_table,
    hrz_series,
    parity_formula,
    q_parity_formula,
    rz_series,
)

EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765]


def test_integer_sequence():
    for n in range(9):
        assert e_int(n) == EULER[n]
        assert e_pq(n).substitute(qeuler.AT_ONE).as_int() == EULER[n]


def test_printed_polynomials():
    assert str(e_pq(3)) == "p + q"
    assert str(e_pq(4)) == "p^2 + 2*p*q + q^2 + 1"
    assert str(e_q(5)) == "q^4 + 3*q^3 + 5*q^2 + 5*q + 2"
    assert str(e_star_q(4)) == "q^4 + 2*q^3 + q^2 + 1"


def test_cf_and_enumeration_agree():
    by_cf = e_pq_upto(8)
    for n in range(9):
        assert e_pq(n) == by_cf[n]


def test_e_pq_upto_matches_enumeration():
    table = e_pq_upto(8)
    assert len(table) == 9
    for n, poly in enumerate(table):
        assert poly == e_pq(n)
    assert e_pq_upto(0) == [LaurentPoly.const(1)]
    with pytest.raises(ValueError):
        e_pq_upto(-1)


def test_specializations_consistent():
    for n, full in enumerate(e_pq_upto(7)):
        assert e_q(n) == full.substitute({"p": 1})
        assert e_star_q(n) == full.substitute({"p": LaurentPoly.var("q", 2)})
        assert e_q(n).substitute({"q": 1}).as_int() == EULER[n]


def test_enumeration_cap():
    # no cap on n: A_40's fourth layer outgrows the dynamic program's bound
    with pytest.raises(EnumerationCapError, match="DP_MAX_STATES"):
        e_pq(40)


def test_egf_low_coefficients():
    egf = egf_exc_fix(4)
    assert len(egf) == 5
    assert str(egf[2]) == "x + y^2"
    assert str(egf[3]) == "x^2 + 3*x*y + x + y^3"
    assert egf_exc_fix(0) == [LaurentPoly.const(1)]
    with pytest.raises(ValueError):
        egf_exc_fix(-1)


@pytest.mark.parametrize("n", range(9))
def test_egf_matches_enumeration(n):
    egf = egf_exc_fix(8)
    assert egf[n] == stat_polynomial("S", n, {"x": {"exc": 1}, "y": {"fix": 1}})


def test_rz_series():
    series = rz_series(12)
    for n in range(13):
        assert series.coeff(n) == EULER[n]


def test_parity_formula():
    for n in range(13):
        assert parity_formula(n) == EULER[n]


def test_hrz_series():
    series = hrz_series(8)
    for n, full in enumerate(e_pq_upto(8)):
        assert series.coeff(n) == full.substitute(qeuler.AT_Q)


def test_q_parity_formula():
    for n, full in enumerate(e_pq_upto(8)):
        got = q_parity_formula(n)
        assert got == full.substitute(qeuler.AT_Q)
        assert got.substitute({"q": 1}).as_int() == parity_formula(n)


def test_q_parity_formula_must_clear(monkeypatch):
    # the summed terms of each m must divide out to a polynomial
    monkeypatch.setattr(qeuler, "q_div_exact", lambda num, den: None)
    with pytest.raises(ArithmeticError):
        q_parity_formula(4)


def test_euler_table():
    rows = euler_table(6)
    assert [row.e for row in rows] == EULER[:7]
    assert rows[5].e_q == e_pq_upto(5)[5].substitute(qeuler.AT_Q)
    assert "enumeration" in rows[6].methods and "cf" in rows[6].methods
    payload = rows[4].to_json()
    assert payload["n"] == 4 and payload["E"] == "5"


def test_euler_table_enumerates_one_program_per_parity(monkeypatch):
    real = permstat._accumulate
    programs = []

    def recording(family, n, *args, **kwargs):
        programs.append((family, n))
        return real(family, n, *args, **kwargs)

    monkeypatch.setattr(permstat, "_accumulate", recording)
    euler_table(12)
    assert programs == [("A", qeuler.TABLE_ENUM_MAX),
                        ("A", qeuler.TABLE_ENUM_MAX - 1)]


def test_euler_table_passes_its_cap_to_enumeration(monkeypatch):
    assert [row.methods for row in euler_table(10)][9:] == [
        ("enumeration", "cf"), ("cf",)]
    # a row the dynamic program cannot hold fails the table, and is never
    # passed off as checked by the continued fraction alone
    monkeypatch.setattr(permstat, "DP_MAX_STATES", 20)
    with pytest.raises(EnumerationCapError, match="DP_MAX_STATES = 20 "):
        euler_table(qeuler.TABLE_ENUM_MAX)
