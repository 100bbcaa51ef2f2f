import hashlib
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
from pqeuler.lattice import WeightSpec, transfer, weighted_sum
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


# integer points, negative ones among them, and one past a machine word
ORACLE_POINTS = (-3, -2, -1, 0, 1, 2, 3, 7, 2 ** 64)


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


@pytest.mark.parametrize("name", ["random", "jv-tangent", "sz-tangent"])
def test_absolute_fraction_at_one_bounds_every_coefficient(name):
    # each q coefficient of t^n is a signed sum of products along paths, so
    # it is at most the t^n of the fraction with every c_k replaced by the
    # sum of its absolute coefficients, at q = 1: what contra's one-point
    # check rests on
    fractions = (_random_s_fractions() if name == "random"
                 else [preset(name).s_form])
    for sf in fractions:
        absolute = SFraction(c=lambda k, _sf=sf: LaurentPoly.const(
            sum(abs(c) for _, c in _sf.c(k).sorted_terms())))
        series = expand_by_convergents(sf, MAX_ORDER)
        bound = convergents_at(absolute, MAX_ORDER, 1)
        for n in range(MAX_ORDER + 1):
            assert all(abs(c) <= bound[n]
                       for _, c in series.coeff(n).sorted_terms()), n


def _sizes(sf, levels):
    """The fraction with each of c_1..c_levels replaced by the sum of its
    absolute coefficients, an int."""
    sizes = [sum(abs(c) for _, c in sf.c(k).sorted_terms())
             for k in range(1, levels + 1)]
    return SFraction(c=lambda k: sizes[k - 1])


@pytest.mark.parametrize("name", ["random", "jv-tangent", "sz-tangent"])
def test_absolute_passes_at_one_bound_each_contraction(name):
    # the same lemma for each contraction's own transfer pass: each q
    # coefficient of its t^n is a signed sum of products along its paths,
    # so its int pass at q = 1 on the absolute values bounds it
    fractions = (_random_s_fractions() if name == "random"
                 else [preset(name).s_form])
    for sf in fractions:
        absolute = _sizes(sf, MAX_ORDER + 2)
        even = contract_even(absolute)
        c1, odd = contract_odd(absolute)
        bounds = (transfer(even.ac, even.b, None, MAX_ORDER),
                  [1] + [c1 * v for v in transfer(odd.ac, odd.b, None,
                                                   MAX_ORDER)[:MAX_ORDER]])
        c1, odd = contract_odd(sf)
        sides = (expand_s(sf, MAX_ORDER),
                 expand_odd_contraction(c1, odd, MAX_ORDER))
        for series, bound in zip(sides, bounds):
            for n in range(MAX_ORDER + 1):
                assert all(abs(c) <= bound[n]
                           for _, c in series.coeff(n).sorted_terms()), n


# the presets whose weights are in q alone; jv-secant's have q^-1, which is
# an int only at q = +-1
Q_PRESETS = ("tangent-q", "secant-q", "tangent-qstar", "secant-qstar",
             "jv-tangent", "jv-secant", "sz-tangent", "sz-secant")
HOMOMORPHISM_POINTS = (-2, -1, 0, 1, 2, 2 ** 64)


def _passes(fraction, value):
    """The transfer passes to MAX_ORDER of a fraction's J-forms, with each
    weight of a J-fraction, or each c_k of an S-fraction before its even
    and odd contractions, replaced by ``value`` of it."""
    if isinstance(fraction, JFraction):
        forms = [JFraction(b=lambda h: value(fraction.b(h)),
                           ac=lambda h: value(fraction.ac(h)))]
    else:
        at = SFraction(c=lambda k: value(fraction.c(k)))
        forms = [contract_even(at), contract_odd(at)[1]]
    return [transfer(jf.ac, jf.b, None, MAX_ORDER) for jf in forms]


@pytest.mark.parametrize("name", ("random",) + Q_PRESETS)
def test_the_int_pass_is_the_laurent_pass_at_each_point(name):
    # the contractions and the pass only add and multiply, so running them
    # over ints at q commutes with evaluating their Laurent series at q
    if name == "random":
        fractions = _random_s_fractions()
    else:
        pr = preset(name)
        fractions = [f for f in (pr.fraction, pr.s_form) if f is not None]
    points = (-1, 1) if name == "jv-secant" else HOMOMORPHISM_POINTS
    for fraction in fractions:
        laurent = _passes(fraction, lambda w: w)
        for q in points:
            def at_q(w):
                return w.substitute({"q": q}).as_int()

            ints = _passes(fraction, at_q)
            assert ints == [[at_q(c) for c in p] for p in laurent], q
            assert all(type(v) is int for p in ints for v in p)


# sha256 prefixes of str(preset(name).expand(12)): the pass's 0 and 1, now
# read off the weights, must leave every Laurent series printing as it did
PRESET_TEXT_AT_12 = {
    "tangent-pq": "7b08f0ae49884321", "secant-pq": "eda909e7133017d0",
    "tangent-q": "f8a5d11d57a4bf3a", "secant-q": "aeee0dcca7b2c179",
    "tangent-qstar": "cef350bde78b39d8", "secant-qstar": "38a04f3c48f7c55a",
    "thm4.1": "2756400f275ff16f", "cf-A": "2e1a24d7485a2a11",
    "cf-SZ": "29740b31f2214e56", "jv-tangent": "2f01b00274eeac63",
    "jv-secant": "ccd9df9b2816ca62", "sz-tangent": "e08587c2c647fed6",
    "sz-secant": "ef0f020a0e9859c6",
}


def test_preset_expansions_print_as_before():
    assert set(PRESET_TEXT_AT_12) == set(PRESET_NAMES)
    for name, digest in PRESET_TEXT_AT_12.items():
        series = preset(name).expand(12)
        assert all(isinstance(c, LaurentPoly) for c in series.coeffs), name
        text = str(series).encode()
        assert hashlib.sha256(text).hexdigest()[:16] == digest, name


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


def _qpow(k):
    return LaurentPoly.var("q", k)


_ONE = LaurentPoly.const(1)


def _no_level(h):
    return _ZERO


# The displayed weights (b_h, ac_h) of Cor 2.2 and 2.3 and of the jv and sz
# level forms.  Each of these presets is stated as a substitution into
# tangent-pq, secant-pq, cf-A or cf-SZ, which must give them exactly.
DISPLAYED = {
    # Cor 2.2, p = 1
    "tangent-q": (_no_level, lambda h: q_bracket(h + 1) * q_bracket(h + 2)),
    "secant-q": (_no_level, lambda h: q_bracket(h + 1) ** 2),
    # Cor 2.3, p = q^2
    "tangent-qstar": (_no_level, lambda h: (
        _qpow(2 * h + 1) * q_bracket(h + 1) * q_bracket(h + 2))),
    "secant-qstar": (_no_level, lambda h: _qpow(2 * h) * q_bracket(h + 1) ** 2),
    # cf-A at x = -1, y = 1 and at x = -1/q, y = 0
    "jv-tangent": (lambda h: (_ONE - _qpow(1)) * q_bracket(h) - _ONE,
                   lambda h: -(q_bracket(h + 1) ** 2)),
    "jv-secant": (_no_level, lambda h: -(_qpow(-1) * q_bracket(h + 1) ** 2)),
    # cf-SZ at x = -1/q, y = 1 and at x = -1, y = 0
    "sz-tangent": (lambda h: _qpow(2 * h) + (_qpow(h) - _qpow(h - 1)) * q_bracket(h),
                   lambda h: -(_qpow(2 * h) * q_bracket(h + 1) ** 2)),
    "sz-secant": (_no_level, lambda h: -(_qpow(2 * h + 1) * q_bracket(h + 1) ** 2)),
}


@pytest.mark.parametrize("name", DISPLAYED)
def test_substituted_presets_have_the_displayed_weights(name):
    jf = preset(name).fraction
    b, ac = DISPLAYED[name]
    for h in range(40):
        assert jf.b(h) == b(h), h
        assert jf.ac(h) == ac(h), h


@pytest.mark.parametrize("name,values", [
    ("cf-A", {"x": -1, "y": 1}),
    ("cf-SZ", {"x": LaurentPoly.var("q", -1, coeff=-1), "y": 0}),
    ("thm4.1", {"p": LaurentPoly.var("q", 2), "s": 1}),
])
def test_a_substituted_fraction_expands_to_the_substituted_series(name, values):
    # substitution is a ring homomorphism, and the pass only adds and
    # multiplies
    pr = preset(name)
    assert pr.at(values).expand(8).coeffs == [
        c.substitute(values) for c in pr.expand(8).coeffs]
    assert pr.fraction.at(None) is pr.fraction
