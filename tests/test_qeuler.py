import hashlib
import math
import random

import pytest

from pqeuler import permstat, qeuler
from pqeuler.algebra import (
    LaurentPoly,
    NotInvertibleError,
    TruncSeries,
    _from_q_dict,
    q_bracket,
    q_factorial,
)
from pqeuler.contfrac import expand_by_convergents, preset
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


@pytest.mark.parametrize("at", ["AT_Q", "AT_QSTAR", "AT_ONE"])
def test_e_pq_upto_at_is_the_substituted_rows(at):
    values = getattr(qeuler, at)
    rows = e_pq_upto(16, values)
    assert rows == [e.substitute(values) for e in e_pq_upto(16)]
    assert rows[:9] == qeuler._e_pq_sums(8, values)


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


# sha256 prefixes of str(hrz_series(n)) as it printed when the series was
# summed over LaurentPoly: the coefficient lists must leave it unchanged
HRZ_TEXT = {12: "aa6b4414f892aecf", 24: "d5fd1a4d4c6cce0b",
            33: "38de618c4dbe716b"}


def test_hrz_series_prints_as_before():
    for n, digest in HRZ_TEXT.items():
        text = str(hrz_series(n)).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest, n


def _by_reciprocal_and_product(order, lead, factor):
    """The reference for ``_rational_series``: each factor a + b t^2 inverted
    as a whole truncated series, and the term multiplied by that inverse."""
    total = TruncSeries(order)
    for m in range(order + 1):
        term = TruncSeries.const(lead(m), order).shift(m)
        for k in range(m // 2 + 1):
            a, b = factor(m - 2 * k + 1)
            term = term * TruncSeries(order, [a, LaurentPoly(), b]).recip()
        total = total + term
    return total


def test_rational_series_match_reciprocal_and_product():
    rz = (lambda m: LaurentPoly.const(math.factorial(m)),
          lambda j: (LaurentPoly.const(1), LaurentPoly.const(j * j)))
    hrz = (lambda m: LaurentPoly.var("q", m + 1) * q_factorial(m),
           lambda j: (LaurentPoly.var("q", j), q_bracket(j) ** 2))
    for order in range(15):
        assert rz_series(order) == _by_reciprocal_and_product(order, *rz)
        assert hrz_series(order) == _by_reciprocal_and_product(order, *hrz)


def _q_list(poly):
    """A polynomial in q alone as the q-list ``_rational_series`` takes:
    (low, its coefficients from q^low up)."""
    coeffs = {e[3]: c for e, c in poly.sorted_terms()}
    low = min(coeffs, default=0)
    return low, [coeffs.get(e, 0) for e in range(low, max(coeffs, default=-1) + 1)]


def _times_q_list(b):
    """q-list -> b times it, by the schoolbook product."""
    bl, bc = _q_list(b)

    def times(g):
        gl, gc = g
        out = [0] * (len(gc) + len(bc))
        for i, x in enumerate(gc):
            for j, y in enumerate(bc):
                out[i + j] += x * y
        return gl + bl, out
    return times


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_division_matches_reciprocal_and_product(seed):
    # a is +-q^e, e possibly negative; b is a signed q-polynomial or 0
    rng = random.Random(seed)
    order = rng.randint(4, 10)

    def poly():
        return sum((LaurentPoly.var("q", e, coeff=rng.randint(-3, 3))
                    for e in range(-2, 4)), LaurentPoly())

    leads = [poly() for _ in range(order + 1)]
    factors = {j: (LaurentPoly.var("q", rng.randint(-3, 3),
                                   coeff=rng.choice((1, -1))),
                   poly() if rng.random() < 0.7 else LaurentPoly())
               for j in range(1, order + 2)}
    lead, factor = leads.__getitem__, factors.__getitem__
    assert (qeuler._rational_series(
        order, lambda m: _q_list(lead(m)),
        lambda j: (_q_list(factor(j)[0]), _times_q_list(factor(j)[1])))
        == _by_reciprocal_and_product(order, lead, factor))


def test_rational_series_refuses_a_factor_without_a_unit_constant_term():
    with pytest.raises(NotInvertibleError):
        qeuler._rational_series(3, lambda m: (0, [1]),
                                lambda j: ((0, [2]), lambda g: (g[0], [])))


def test_a_negative_order_is_refused():
    for call in (lambda: rz_series(-1), lambda: hrz_series(-2),
                 lambda: TruncSeries(-3),
                 lambda: expand_by_convergents(preset("cf-A").fraction, -1)):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            call()


def test_q_parity_formula():
    for n, full in enumerate(e_pq_upto(16)):
        got = q_parity_formula(n)
        assert got == full.substitute(qeuler.AT_Q)
        assert got.substitute({"q": 1}).as_int() == parity_formula(n)


def test_q_parity_formula_must_clear(monkeypatch):
    # one coefficient off in one term leaves a sum of the terms of m = 4
    # that does not divide out to a polynomial
    real = qeuler._q_parity_term

    def planted(n, m, k):
        a, num, den = real(n, m, k)
        if (m, k) == (4, 1):
            num[0] += 1
        return a, num, den

    monkeypatch.setattr(qeuler, "_q_parity_term", planted)
    with pytest.raises(ArithmeticError, match="m=4 does not clear"):
        q_parity_formula(4)


def _q_poly(g):
    return _from_q_dict(dict(enumerate(g)))


@pytest.mark.parametrize("seed", range(4))
def test_times_and_over_multiply_and_divide_by_one_binomial(seed):
    rng = random.Random(seed)
    for _ in range(25):
        g = [rng.randint(-4, 4) for _ in range(rng.randint(0, 12))]
        i = rng.randint(1, 7)
        prod = qeuler._times(g, i)
        assert _q_poly(prod) == _q_poly(g) * _from_q_dict({0: 1, i: -1})
        assert qeuler._over(prod, i) == g
        # plus a constant, it is no longer a multiple of 1 - q^i
        assert qeuler._over([prod[0] + 1] + prod[1:], i) is None


def test_over_refuses_a_non_multiple():
    assert qeuler._over([1, 0, 1], 1) is None
    assert qeuler._over([1, 2, 3], 4) is None      # shorter than i
    assert qeuler._over([1, 0, -1], 2) == [1]
    # zero, empty or not, is a multiple of everything
    assert qeuler._over([], 3) == []
    assert qeuler._over([0, 0], 3) == []


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
