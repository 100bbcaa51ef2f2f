import json
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pqeuler import lattice
from pqeuler.algebra import (
    EXP_BITS,
    EXP_LIMIT,
    LaurentPoly,
    NotInvertibleError,
    TruncSeries,
    VARS,
    bracket,
    pq_bracket,
    q_bracket,
    q_factorial,
    rising_factorial,
    unpack,
)
from pqeuler.qeuler import e_pq_upto

exponents = st.integers(min_value=-3, max_value=4)
coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def laurent_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(exponents) for _ in range(5))
        c = draw(coeffs)
        if c:
            terms[e] = c
    return LaurentPoly(terms)


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly.const(1) == a
    assert a - a == LaurentPoly()
    assert LaurentPoly.dot([a, b, c], [b, c, a]) == a * b + b * c + c * a
    assert LaurentPoly.dot([a, -a], [b, b]).terms == {}


@st.composite
def sized_polys(draw, min_size, max_size):
    # exponents in -1..1, so the products of two such polynomials collide
    terms = draw(st.dictionaries(st.tuples(*[st.integers(-1, 1)] * 5),
                                 coeffs.filter(bool), min_size=min_size,
                                 max_size=max_size))
    return LaurentPoly(terms)


def _dot_reference(pairs):
    """Reference for ``dot`` on exponent tuples: every term product of every
    pair, exponents added entrywise, zero counts dropped, in lex order."""
    out = {}
    for a, b in pairs:
        for e1, c1 in a.sorted_terms():
            for e2, c2 in b.sorted_terms():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return sorted((e, c) for e, c in out.items() if c)


@given(sized_polys(1, 4), sized_polys(0, 40))
def test_products_match_the_reference_on_exponent_tuples(small, big):
    want = _dot_reference([(small, big)])
    for got in (small * big, big * small,
                LaurentPoly.dot([small], [big]), LaurentPoly.dot([big], [small])):
        assert got.sorted_terms() == want
    # the second product lands on every key the first one filled ...
    for xs, ys in (([small, big], [big, small]), ([big, small], [small, big])):
        assert LaurentPoly.dot(xs, ys).sorted_terms() == _dot_reference(
            zip(xs, ys))
    # ... and cancels every one of them
    assert LaurentPoly.dot([small, big], [big, -small]).terms == {}
    assert LaurentPoly.dot([big, small], [-small, big]).terms == {}


@pytest.mark.parametrize("other", [0.5, Fraction(1, 2), "q"])
def test_an_operand_neither_int_nor_laurent_poly_is_a_type_error(other):
    q = LaurentPoly.var("q")
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(q, other)
        with pytest.raises(TypeError):
            op(other, q)


@given(laurent_polys())
def test_json_round_trip(p):
    data = json.loads(json.dumps(p.to_json()))
    assert LaurentPoly.from_json(data) == p


wide_exponents = st.one_of(exponents, st.integers(-EXP_LIMIT + 1, EXP_LIMIT - 1))


@given(st.dictionaries(st.tuples(*[wide_exponents] * 5), coeffs, max_size=8))
def test_sorted_terms_match_tuple_order(terms):
    # packed-key order is lex order on the exponent vectors, negatives too
    want = sorted((e, c) for e, c in terms.items() if c)
    poly = LaurentPoly(terms)
    assert poly.sorted_terms() == want
    assert len(poly.terms) == len(want)
    assert [unpack(k) for k in sorted(poly.terms)] == [e for e, _ in want]


def test_exponent_range_boundary_on_construction():
    top = EXP_LIMIT - 1
    assert EXP_LIMIT == 2 ** (EXP_BITS - 1)
    for e in [(top, 0, 0, 0, 0), (0, 0, 0, 0, -top), (top, -top, top, -top, top)]:
        assert LaurentPoly({e: 3}).sorted_terms() == [(e, 3)]
    for e in [(EXP_LIMIT, 0, 0, 0, 0), (0, 0, -EXP_LIMIT, 0, 0)]:
        with pytest.raises(OverflowError):
            LaurentPoly({e: 1})
    with pytest.raises(OverflowError):
        LaurentPoly.var("q", EXP_LIMIT)
    with pytest.raises(OverflowError):
        LaurentPoly.monomial(1, s=-EXP_LIMIT)


def test_products_never_carry_between_digits():
    half = EXP_LIMIT // 2
    a = LaurentPoly.monomial(1, y=half, p=-half)
    b = LaurentPoly.monomial(2, y=half - 1, p=-(half - 1), s=-1)
    assert (a * b).sorted_terms() == [((0, EXP_LIMIT - 1, -(EXP_LIMIT - 1), 0, -1), 2)]
    with pytest.raises(OverflowError):
        a * a
    with pytest.raises(OverflowError):
        LaurentPoly.dot([b, a], [b, a])
    with pytest.raises(OverflowError):
        a * LaurentPoly.var("p", -half)
    quarter = LaurentPoly.var("s", EXP_LIMIT // 4)
    assert (quarter ** 3).sorted_terms() == [((0, 0, 0, 0, 3 * EXP_LIMIT // 4), 1)]
    with pytest.raises(OverflowError):
        quarter ** 4
    with pytest.raises(OverflowError):
        LaurentPoly.var("x", -(EXP_LIMIT // 4)) ** 4
    with pytest.raises(OverflowError):
        LaurentPoly.var("q", half).substitute({"q": LaurentPoly.var("q", 2)})
    top = LaurentPoly.monomial(1, x=EXP_LIMIT - 1, q=1)
    assert top.substitute({"q": 5}).sorted_terms() == [((EXP_LIMIT - 1, 0, 0, 0, 0), 5)]
    with pytest.raises(OverflowError):
        top.substitute({"q": LaurentPoly.var("x")})
    # the lattice enumeration oracle adds packed keys; it checks its bound
    # before the walk
    spec = lattice.WeightSpec(up=lambda h: LaurentPoly.var("x", half),
                              down=lambda h: LaurentPoly.var("x", half))
    with pytest.raises(OverflowError):
        lattice.weighted_sum("dyck", 2, spec, method="enumerate")


def test_json_and_str_output_fixed():
    poly = e_pq_upto(5)[5]
    assert str(poly) == ("p^4 + 3*p^3*q + 4*p^2*q^2 + p^2 "
                         "+ 3*p*q^3 + 2*p*q + q^4 + q^2")
    assert e_pq_upto(3)[3].to_json() == [{"e": [0, 0, 0, 1, 0], "c": "1"},
                                         {"e": [0, 0, 1, 0, 0], "c": "1"}]
    assert LaurentPoly.from_json(json.loads(json.dumps(poly.to_json()))) == poly
    neg = LaurentPoly.monomial(-2, x=-1, s=3) + LaurentPoly.var("q", -4)
    assert neg.to_json() == [{"e": [-1, 0, 0, 0, 3], "c": "-2"},
                             {"e": [0, 0, 0, -4, 0], "c": "1"}]
    assert str(neg) == "q^-4 - 2*x^-1*s^3"


def test_sorted_terms_ascending_lex():
    p = LaurentPoly.var("q") + LaurentPoly.var("p") + LaurentPoly.const(3)
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == sorted(exps)


def test_unit_monomial_inverse():
    m = LaurentPoly.monomial(-1, q=2, s=-1)
    assert m * m.unit_inverse() == LaurentPoly.const(1)
    with pytest.raises(NotInvertibleError):
        (LaurentPoly.var("q") + 1).unit_inverse()


def test_negative_power_substitution_guard():
    p = LaurentPoly.var("q", -1)
    assert p.substitute({"q": LaurentPoly.var("s")}) == LaurentPoly.var("s", -1)
    with pytest.raises(NotInvertibleError):
        p.substitute({"q": 2})
    with pytest.raises(NotInvertibleError):
        p.substitute({"q": LaurentPoly.var("s", coeff=3)})
    # a value is an int or a monomial: a polynomial is refused outright
    with pytest.raises(ValueError, match="cannot substitute s \\+ 1 for q"):
        p.substitute({"q": LaurentPoly.var("s") + 1})


def _substituted(poly, assignment):
    """Reference for ``substitute`` on exponent tuples: each term's
    substituted exponents k are read before any is replaced, and the term
    gains k times each value's exponents and its coefficient to the k.  None
    where a negative power of a non-unit is asked for."""
    values = {}
    for name, val in assignment.items():
        if isinstance(val, int):
            values[VARS.index(name)] = (val, (0,) * 5)
        else:
            ((exps, c),) = val.sorted_terms()
            values[VARS.index(name)] = (c, exps)
    out = {}
    for e, c in poly.sorted_terms():
        coeff = Fraction(c)
        new = [0 if i in values else k for i, k in enumerate(e)]
        for i, (vc, vexps) in values.items():
            k = e[i]
            if k < 0 and vc not in (1, -1):
                return None
            coeff *= Fraction(vc) ** k
            new = [a + k * b for a, b in zip(new, vexps)]
        assert coeff.denominator == 1
        out[tuple(new)] = out.get(tuple(new), 0) + int(coeff)
    return LaurentPoly(out)


_Q_INV = LaurentPoly.var("q", -1, coeff=-1)
substituted_values = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([0, -1, _Q_INV, LaurentPoly.var("q", 2)]),
    st.builds(lambda c, e: LaurentPoly({e: c}),
              st.sampled_from([1, -1, 2, -3]),
              st.tuples(*[st.integers(-2, 2)] * 5)))


@given(laurent_polys(),
       st.dictionaries(st.sampled_from(VARS), substituted_values, max_size=3))
def test_substitute_matches_the_reference_on_exponent_tuples(poly, assignment):
    want = _substituted(poly, assignment)
    if want is None:
        with pytest.raises(NotInvertibleError):
            poly.substitute(assignment)
        return
    got = poly.substitute(assignment)
    assert got == want
    assert all(abs(k) <= got.bound for e, _ in got.sorted_terms() for k in e)


@pytest.mark.parametrize("assignment", [
    {"p": LaurentPoly.var("q", 2), "q": 2},        # a value names q, also mapped
    {"q": LaurentPoly.var("p"), "p": LaurentPoly.var("q")},   # a swap
    {"q": _Q_INV, "s": -1},
    {"p": 0, "q": 1}])
def test_substitute_is_simultaneous(assignment):
    poly = LaurentPoly({(1, 0, 2, 1, 0): 5, (0, 0, 0, 3, 1): -2,
                        (0, 0, 1, 1, 0): 1, (0, 1, 0, 0, -1): 7})
    want = _substituted(poly, assignment)
    assert want is not None
    assert poly.substitute(assignment) == want


def test_substitute_keeps_its_overflow_bound():
    # the bound is the polynomial's plus, over its terms, the substituted
    # exponents times their values' bounds; not the polynomial's times them
    wide = LaurentPoly.monomial(1, x=EXP_LIMIT - 2) + LaurentPoly.var("q")
    assert wide.substitute({"q": LaurentPoly.var("s")}) == (
        LaurentPoly.monomial(1, x=EXP_LIMIT - 2) + LaurentPoly.var("s"))
    with pytest.raises(OverflowError):
        wide.substitute({"q": LaurentPoly.var("s", 2)})
    with pytest.raises(OverflowError):
        LaurentPoly.var("q", -(EXP_LIMIT // 2)).substitute(
            {"q": LaurentPoly.var("q", -2)})


def test_substitute_numeric():
    p = pq_bracket(4)  # p^3 + p^2 q + p q^2 + q^3
    assert p.substitute({"p": 1, "q": 1}).as_int() == 4
    assert p.substitute({"p": 1}) == q_bracket(4)


def test_str_format():
    p = pq_bracket(2) * pq_bracket(2) + 1
    assert str(p) == "p^2 + 2*p*q + q^2 + 1"
    assert str(LaurentPoly()) == "0"
    assert str(LaurentPoly.var("q", -1, coeff=-1)) == "-q^-1"


def test_brackets():
    assert q_bracket(1) == LaurentPoly.const(1)
    assert pq_bracket(0) == LaurentPoly()
    # [n] in (q^2, q) equals q^(n-1) [n]_q
    for n in range(1, 7):
        lhs = bracket(LaurentPoly.var("q", 2), LaurentPoly.var("q"), n)
        assert lhs == LaurentPoly.var("q", n - 1) * q_bracket(n)
    assert q_factorial(3) == q_bracket(1) * q_bracket(2) * q_bracket(3)


def test_rising_factorial():
    assert rising_factorial(3, 4) == Fraction(3 * 4 * 5 * 6)
    assert rising_factorial(3, 0) == 1


def test_series_recip_is_inverse():
    order = 8
    f = TruncSeries(order, [LaurentPoly.const(1), q_bracket(2), pq_bracket(3)])
    one = TruncSeries.one(order)
    assert f * f.recip() == one


def test_series_product_is_the_truncated_cauchy_product():
    order = 5
    a = [LaurentPoly(), q_bracket(2), LaurentPoly.var("x", -1), pq_bracket(3)]
    b = [LaurentPoly.const(2), LaurentPoly(), q_bracket(3) * LaurentPoly.var("y")]
    want = [sum((a[i] * b[k - i] for i in range(k + 1)
                 if i < len(a) and k - i < len(b)), LaurentPoly())
            for k in range(order + 1)]
    assert (TruncSeries(order, a) * TruncSeries(order, b)).coeffs == want
    with pytest.raises(ValueError):
        TruncSeries(order, a) * TruncSeries(order + 1, b)


def test_series_recip_needs_unit_constant():
    # a bare monomial is a Laurent unit, so its reciprocal exists
    f = TruncSeries(4, [LaurentPoly.var("q")])
    assert f * f.recip() == TruncSeries.one(4)
    g = TruncSeries(4, [LaurentPoly.var("q") + 1])
    with pytest.raises(NotInvertibleError):
        g.recip()
    with pytest.raises(NotInvertibleError):
        TruncSeries(4, []).recip()


def test_series_shift_and_coeff():
    f = TruncSeries.const(LaurentPoly.const(3), 5).shift(2)
    assert f.coeff(2) == 3
    assert f.coeff(0) == 0
    assert f.coeff(9) == 0


def test_series_json():
    f = TruncSeries(2, [LaurentPoly.const(1), q_bracket(2)])
    data = f.to_json()
    assert data["order"] == 2
    assert len(data["coeffs"]) == 3


def test_a_negative_shift_or_factorial_is_refused():
    # like q_bracket(-1) and pq_bracket(-1), rather than a silent wrong answer
    with pytest.raises(ValueError, match="^k must be nonnegative$"):
        TruncSeries.one(3).shift(-1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        q_factorial(-1)
