import random

import pytest

from pqeuler.algebra import LaurentPoly, TruncSeries, q_bracket
from pqeuler.contfrac import (
    JFraction,
    PRESET_NAMES,
    SFraction,
    contract_even,
    contract_odd,
    convergents_at,
    expand_by_convergents,
    expand_j,
    expand_odd_contraction,
    expand_s,
    preset,
)
from pqeuler.lattice import WeightSpec, weighted_sum
from pqeuler.permstat import QUINTUPLE_WEIGHT, stat_polynomial


def test_secant_pq_expansion_text():
    series = preset("secant-pq").expand(4)
    assert str(series) == "1 + t^2 + (p^2 + 2*p*q + q^2 + 1)*t^4"


def test_tangent_pq_low_coefficients():
    series = preset("tangent-pq").expand(5)
    assert series.coeff(0).as_int() == 0
    assert series.coeff(1).as_int() == 1
    assert str(series.coeff(3)) == "p + q"
    assert str(series.coeff(5)) == ("p^4 + 3*p^3*q + 4*p^2*q^2 + p^2 "
                                    "+ 3*p*q^3 + 2*p*q + q^4 + q^2")


def test_j_fraction_matches_path_dp():
    # oracles: enumeration of Motzkin paths with the same weights, and the
    # evaluation by convergents
    jf = preset("thm4.1").fraction
    spec = WeightSpec(up=jf.ac, level=jf.b, down=lambda h: LaurentPoly.const(1))
    for n in range(7):
        want = weighted_sum("motzkin", n, spec, method="enumerate")
        assert preset("thm4.1").expand(n).coeff(n) == want
        assert expand_by_convergents(jf, n).coeff(n) == want


def test_s_fraction_matches_dyck_dp():
    sf = preset("secant-pq").fraction
    spec = WeightSpec(up=sf.ac, down=lambda h: LaurentPoly.const(1))
    for n in range(5):
        want = weighted_sum("dyck", 2 * n, spec, method="enumerate")
        assert preset("secant-pq").expand(2 * n).coeff(2 * n) == want
        assert expand_by_convergents(sf, 2 * n).coeff(2 * n) == want


def test_depth_is_sufficient():
    jf = preset("cf-A").fraction
    order = 8
    default = expand_j(jf, order)
    deeper = expand_by_convergents(jf, order, depth=12)
    assert default == deeper


MAX_ORDER = 10
CUT_DEPTHS = (1, 2, 3)
_ZERO = LaurentPoly()


def _cut(fraction, depth):
    """The fraction ended by zeros at the depth: ac_h = b_h = 0 for h >= depth
    in a J-fraction, c_k = 0 for k > depth in an S-fraction."""
    if isinstance(fraction, JFraction):
        return JFraction(b=lambda h: fraction.b(h) if h < depth else _ZERO,
                         ac=lambda h: fraction.ac(h) if h < depth else _ZERO)
    return SFraction(c=lambda k: fraction.c(k) if k <= depth else _ZERO)


def _fast(fraction, order, depth):
    expand = expand_j if isinstance(fraction, JFraction) else expand_s
    return expand(fraction if depth is None else _cut(fraction, depth), order)


def _default_depth(fraction, order):
    """A depth the paths of length ``order`` never reach."""
    if isinstance(fraction, JFraction):
        return (order + 1) // 2 + 1
    return order + 1


def _assert_matches_convergents(fraction):
    """The transfer pass equals the convergents at every order 0..MAX_ORDER,
    on the fraction cut by zeros at the cut depths and on the fraction
    itself, against the oracle at the cut depth or the default depth.

    Cutting a series at a lower order is a ring map, so the oracle at depth d
    runs once, at the largest order that needs d, and is cut down from there.
    """
    needs = {d: MAX_ORDER for d in CUT_DEPTHS}
    for order in range(MAX_ORDER + 1):
        d = _default_depth(fraction, order)
        needs[d] = max(needs.get(d, 0), order)
    oracle = {d: expand_by_convergents(fraction, top, depth=d)
              for d, top in needs.items()}
    for order in range(MAX_ORDER + 1):
        for depth in CUT_DEPTHS + (None,):
            d = _default_depth(fraction, order) if depth is None else depth
            want = oracle[d].coeffs[:order + 1]
            assert _fast(fraction, order, depth).coeffs == want, (order, depth)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_transfer_matches_convergents_on_presets(name):
    pr = preset(name)
    _assert_matches_convergents(pr.fraction)
    if pr.s_form is not None:
        _assert_matches_convergents(pr.s_form)


def _random_s_fractions():
    """Twelve S-fractions with c_k = a_0 + a_1 q + a_2 q^2, each a_i drawn
    from -2..2 (zeros allowed)."""
    rng = random.Random(2009)
    fractions = []
    for _ in range(12):
        polys = tuple(sum((LaurentPoly.var("q", d, coeff=rng.randint(-2, 2))
                           for d in range(3)), LaurentPoly())
                      for _ in range(MAX_ORDER + 2))
        fractions.append(SFraction(c=lambda k, _p=polys: _p[k - 1]))
    return fractions


def test_transfer_matches_convergents_on_random_s_fractions():
    # the S-fraction route: even contraction of the fraction
    for sf in _random_s_fractions():
        _assert_matches_convergents(sf)


# integer points, negative ones among them
ORACLE_POINTS = (-3, -2, -1, 0, 1, 2, 3, 7)


@pytest.mark.parametrize("name", ["random", "jv-tangent", "sz-tangent"])
def test_evaluated_oracle_is_the_convergents_at_each_point(name):
    fractions = (_random_s_fractions() if name == "random"
                 else [preset(name).s_form])
    for sf in fractions:
        for order in range(MAX_ORDER + 1):
            series = expand_by_convergents(sf, order)
            for q in ORACLE_POINTS:
                want = [c.substitute({"q": q}).as_int() for c in series.coeffs]
                assert convergents_at(sf, order, q) == want, (order, q)


def test_evaluated_oracle_refuses_what_is_not_in_z_q():
    for c in (LaurentPoly.var("q", -1), LaurentPoly.var("x")):
        sf = SFraction(c=lambda k, _c=c: _c)
        with pytest.raises(ValueError):
            convergents_at(sf, 2, 1)


def test_negative_order_is_rejected():
    for name in ("thm4.1", "secant-pq", "jv-tangent"):
        with pytest.raises(ValueError):
            preset(name).expand(-1)
    with pytest.raises(ValueError):
        expand_s(preset("jv-tangent").s_form, -1)


def test_contractions_on_simple_fraction():
    sf = SFraction(c=lambda k: LaurentPoly.const(k))
    order = 9
    direct = expand_by_convergents(sf, order)
    assert direct == expand_j(contract_even(sf), order)
    c1, jf = contract_odd(sf)
    assert direct == expand_odd_contraction(c1, jf, order)


def test_contract_dispatch():
    sf = SFraction(c=lambda k: q_bracket(k))
    assert isinstance(contract_even(sf), JFraction)
    c1, jf = contract_odd(sf)
    assert c1 == q_bracket(1)
    assert isinstance(jf, JFraction)


def test_every_preset_expands():
    for name in PRESET_NAMES:
        assert isinstance(preset(name).fraction, JFraction)
        series = preset(name).expand(4)
        assert isinstance(series, TruncSeries)


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("nope")


def test_cf_a_is_specialized_quintuple():
    # coefficient of t^n must be the (wex, fix, cros) polynomial
    series = preset("cf-A").expand(5)
    for n in range(6):
        want = stat_polynomial(
            "S", n, {"x": {"wex": 1}, "y": {"fix": 1}, "q": {"cros": 1}})
        assert series.coeff(n) == want


def test_thm41_t2_coefficient():
    got = preset("thm4.1").expand(2).coeff(2)
    assert got == stat_polynomial("S", 2, QUINTUPLE_WEIGHT)
    assert str(got) == "x^2*y^2 + x*s"


def test_tangent_q_is_p1_specialization():
    tan_pq = preset("tangent-pq").expand(7)
    tan_q = preset("tangent-q").expand(7)
    for n in range(8):
        assert tan_pq.coeff(n).substitute({"p": 1}) == tan_q.coeff(n)


def test_qstar_is_p_q2_specialization():
    sec_pq = preset("secant-pq").expand(6)
    sec_star = preset("secant-qstar").expand(6)
    q2 = LaurentPoly.var("q", 2)
    for n in range(7):
        assert sec_pq.coeff(n).substitute({"p": q2}) == sec_star.coeff(n)
