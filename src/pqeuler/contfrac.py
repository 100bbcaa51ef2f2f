"""J- and S-fraction expansion, the two contraction transforms, and named
presets for every continued fraction used by the library.

Three fractions are stated: the (p,q) tangent and secant, and Thm 4.1's.
The other presets substitute into their weights (``JFraction.at``):
``*-q`` and ``*-qstar`` are the (p,q) pair at ``AT_Q`` and ``AT_QSTAR``
(Cor 2.2 and 2.3); cf-A is Thm 4.1 at p = s = 1, and cf-SZ is Thm 4.1 at
q = p = 1, s = q, y = y/x (wex = exc + fix); ``jv-*`` and ``sz-*`` are
cf-A and cf-SZ at the x of the signed sides, y = 1 for the tangent and 0
for the secant.  The two tangents carry the displayed S-form that
``contra`` checks.

The fast path reads a fraction as weighted lattice paths (Flajolet) and gets
every coefficient up to the order from one forward pass of
``lattice.transfer``: ``expand_j`` is the one expansion routine.  A fraction
in t^2 alone is a J-fraction whose level weights are 0, and an S-fraction in
t is expanded through its even contraction.  A path of length at most N
never climbs above N/2, so no depth is needed: a fraction ends only where
its own coefficients vanish.

Two oracles read the fraction as displayed, at a depth; neither runs on
the fast path, and they hold the only depths.  ``expand_by_convergents``
evaluates it bottom-up from the tail 1 with series reciprocals over the
Laurent polynomials and is the definition the tests check against.
``convergents_at`` gives the same coefficients for an S-fraction over Z[q]
at one integer q, over plain ints, as the convergent A_order / B_order:
its numerator and denominator by the Euler-Wallis recurrence for
continuants, then one series division.  ``contra`` compares both
contractions, and a preset's level form, with it at one point q = 2^B:
each c_k is valued there once, and the contractions of that int-valued
fraction are expanded by the same transfer pass over ints.  The
contractions and the pass only add and multiply, so each int pass is its
Laurent polynomial series at 2^B; with 2^(B-1) above every |coefficient|
of every side, balanced base-2^B digits make agreement there equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Callable

from .algebra import (LaurentPoly, TruncSeries, _q_only, bracket, pq_bracket,
                      q_bracket)
from .lattice import transfer


@dataclass(frozen=True)
class JFraction:
    """1 / (1 - b_0 t - ac_0 t^2 / (1 - b_1 t - ac_1 t^2 / ...)).

    ``ac`` gives the level products a_h * c_(h+1); individual a and c never
    matter for the expansion.
    """

    b: Callable[[int], LaurentPoly]
    ac: Callable[[int], LaurentPoly]

    def expand(self, order: int) -> TruncSeries:
        return expand_j(self, order)

    def at(self, values: dict | None) -> "JFraction":
        """Every b_h and ac_h substituted by ``values``, a map as
        ``LaurentPoly.substitute`` takes; a ring homomorphism commutes with
        the pass, so this expands to the substituted expansion."""
        if not values:
            return self
        b, ac = self.b, self.ac
        return JFraction(b=lambda h: b(h).substitute(values),
                         ac=lambda h: ac(h).substitute(values))


@dataclass(frozen=True)
class SFraction:
    """1 / (1 - c_1 t / (1 - c_2 t / ...))."""

    c: Callable[[int], LaurentPoly]

    def expand(self, order: int) -> TruncSeries:
        return expand_s(self, order)


def expand_j(jf: JFraction, order: int) -> TruncSeries:
    """Paths with up weight ac_h, level weight b_h and down weight 1, summed
    per length by the transfer pass."""
    return TruncSeries(order, transfer(jf.ac, jf.b, None, order))


def expand_s(sf: SFraction, order: int) -> TruncSeries:
    """The even contraction; up to order N its paths read only c_1..c_N."""
    return expand_j(contract_even(sf), order)


def expand_by_convergents(fraction: JFraction | SFraction, order: int,
                          depth: int | None = None) -> TruncSeries:
    """The oracle for checks and tests: evaluate the fraction bottom-up with
    series reciprocals, exactly as displayed, from the tail 1 at the given
    depth (by default one that the paths of length ``order`` never reach)."""
    one = TruncSeries.one(order)
    f = one
    if isinstance(fraction, JFraction):
        depth = depth if depth is not None else (order + 1) // 2 + 1
        for h in range(depth - 1, -1, -1):
            f = (one - TruncSeries.const(fraction.b(h), order).shift(1)
                 - f.scale(fraction.ac(h)).shift(2)).recip()
        return f
    for k in range(depth if depth is not None else order + 1, 0, -1):
        f = (one - f.scale(fraction.c(k)).shift(1)).recip()
    return f


def convergents_at(sf: SFraction, order: int, q: int) -> list[int]:
    """The oracle for ``contra`` and tests: the coefficients of t^0..t^order
    of ``expand_by_convergents(sf, order)`` at the integer q, over plain
    ints.  Each of c_1..c_order must be in Z[q] (an int is a constant).

    That series is the convergent A_order / B_order, cut at t^order.  Its
    numerator and denominator are continuants (the Euler-Wallis recurrence;
    H. S. Wall, *Analytic Theory of Continued Fractions*, 1948; P. Flajolet,
    Discrete Math. 32, 1980): A_0 = A_1 = 1, B_0 = 1, B_1 = 1 - c_1 t, and
    A_k = A_(k-1) - c_k t A_(k-2), likewise for B.  Each is a polynomial in
    t of degree at most (k + 1) // 2, so none reaches past t^order.  One
    series division then reads h_n = A_n - (B_1 h_(n-1) + ... + B_n h_0),
    as B_0 = 1: O(order^2) products in all."""
    # A_(-1) = 0 and B_(-1) = 1 start both recurrences at k = 1
    a_prev, a, b_prev, b = [0], [1], [1], [1]
    for k in range(1, order + 1):
        c = value_at(q_coeffs(sf.c(k)), q)
        a_prev, a = a, _continue(a, a_prev, c)
        b_prev, b = b, _continue(b, b_prev, c)
    h = []
    for n in range(order + 1):
        h.append((a[n] if n < len(a) else 0)
                 - sum(map(mul, b[1:], reversed(h))))
    return h


def _continue(p: list, p_prev: list, c: int) -> list:
    """p - c t p_prev, as coefficient lists in t."""
    out = p + [0] * (len(p_prev) + 1 - len(p))
    for i, v in enumerate(p_prev, 1):
        out[i] -= c * v
    return out


def q_coeffs(poly: LaurentPoly | int) -> list[int]:
    """A polynomial in Z[q] as its coefficient list, constant term first;
    an int is a constant, and anything else is a ValueError."""
    if type(poly) is int:
        return [poly]
    terms = _q_only(poly)
    if any(e < 0 for e in terms):
        raise ValueError(f"{poly} is not in Z[q]")
    coeffs = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        coeffs[e] = c
    return coeffs


def value_at(coeffs: list[int], q: int) -> int:
    """The polynomial in q with the coefficient list ``coeffs``, constant
    term first, at the integer q, by Horner's rule."""
    value = 0
    for c in reversed(coeffs):
        value = value * q + c
    return value


def contract_even(sf: SFraction) -> JFraction:
    """Even contraction of an S-fraction:
    b_0 = c_1, b_h = c_2h + c_(2h+1), ac_h = c_(2h+1) c_(2h+2)."""
    c = sf.c

    def b(h):
        return c(1) if h == 0 else c(2 * h) + c(2 * h + 1)

    def ac(h):
        return c(2 * h + 1) * c(2 * h + 2)

    return JFraction(b=b, ac=ac)


def contract_odd(sf: SFraction):
    """Odd contraction: the whole fraction equals 1 + c_1 t J where J has
    b_h = c_(2h+1) + c_(2h+2) and ac_h = c_(2h+2) c_(2h+3).  Returns the
    affine prefix coefficient c_1 together with J."""
    c = sf.c

    def b(h):
        return c(2 * h + 1) + c(2 * h + 2)

    def ac(h):
        return c(2 * h + 2) * c(2 * h + 3)

    return c(1), JFraction(b=b, ac=ac)


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    fraction: JFraction
    t_prefix: int = 0          # multiply the expansion by t^t_prefix
    s_form: SFraction | None = None  # the displayed S-form, where contra checks one

    def expand(self, order: int) -> TruncSeries:
        series = self.fraction.expand(order)
        return series.shift(self.t_prefix) if self.t_prefix else series

    def at(self, values: dict | None,
           s_form: SFraction | None = None) -> "Preset":
        """This preset's fraction at ``values``, with the S-form ``s_form``."""
        return Preset(self.fraction.at(values), self.t_prefix, s_form)


_ONE = LaurentPoly.const(1)
_ZERO = LaurentPoly()
_Q = LaurentPoly.var("q")
_PS = LaurentPoly.monomial(1, p=1, s=1)


def _zero(h: int) -> LaurentPoly:
    return _ZERO


# The tangent and secant fractions are in t^2 alone (Thm 2.1):
# 1 / (1 - c_1 t^2 / (1 - c_2 t^2 / ...)) is the J-fraction with every level
# weight 0 and ac_h = c_(h+1).


def _tangent_pq() -> Preset:
    return Preset(JFraction(
        b=_zero, ac=lambda h: pq_bracket(h + 1) * pq_bracket(h + 2)), t_prefix=1)


def _secant_pq() -> Preset:
    return Preset(JFraction(
        b=_zero, ac=lambda h: pq_bracket(h + 1) * pq_bracket(h + 1)))


# E_n(p,q) at these is E_n(q) (Cor 2.2), E*_n(q) (Cor 2.3) and E_n
AT_Q = {"p": 1}
AT_QSTAR = {"p": LaurentPoly.var("q", 2)}
AT_ONE = {"p": 1, "q": 1}


def _thm41() -> Preset:
    def b(h):
        return (LaurentPoly.monomial(1, x=1, y=1, p=h, s=2 * h)
                + (_ONE + LaurentPoly.monomial(1, x=1, q=1))
                * LaurentPoly.var("s", h) * bracket(_Q, _PS, h))

    def ac(h):
        # a_h c_(h+1) = x s^(2h+1) [h+1]^2 in (q, ps)
        br = bracket(_Q, _PS, h + 1)
        return LaurentPoly.monomial(1, x=1, s=2 * h + 1) * br * br

    return Preset(JFraction(b=b, ac=ac))


def _cf_a() -> Preset:
    # x^wex y^fix q^cros: Thm 4.1 at p = s = 1
    return _thm41().at({"p": 1, "s": 1})


def _cf_sz() -> Preset:
    # x^exc y^fix q^inv: Thm 4.1 at q = p = 1 and s = q, with y/x for y
    # since wex = exc + fix
    return _thm41().at({"q": 1, "p": 1, "s": _Q,
                        "y": LaurentPoly.monomial(1, x=-1, y=1)})


_MINUS_INV_Q = LaurentPoly.var("q", -1, coeff=-1)


def _jv_tangent() -> Preset:
    # the displayed alternating level sequence: c_(2i-1) = -[i], c_2i = [i]
    def c(k):
        i = (k + 1) // 2
        return -q_bracket(i) if k % 2 else q_bracket(i)

    return _cf_a().at({"x": -1, "y": 1}, SFraction(c=c))


def _jv_secant() -> Preset:
    return _cf_a().at({"x": _MINUS_INV_Q, "y": 0})


def _sz_tangent() -> Preset:
    # c_(2i-1) = q^(i-1) [i], c_2i = -q^(i-1) [i]
    def c(k):
        i = (k + 1) // 2
        mono = LaurentPoly.var("q", i - 1) * q_bracket(i)
        return mono if k % 2 else -mono

    return _cf_sz().at({"x": _MINUS_INV_Q, "y": 1}, SFraction(c=c))


def _sz_secant() -> Preset:
    return _cf_sz().at({"x": -1, "y": 0})


_PRESET_BUILDERS = {
    "tangent-pq": _tangent_pq,
    "secant-pq": _secant_pq,
    "tangent-q": lambda: _tangent_pq().at(AT_Q),
    "secant-q": lambda: _secant_pq().at(AT_Q),
    "tangent-qstar": lambda: _tangent_pq().at(AT_QSTAR),
    "secant-qstar": lambda: _secant_pq().at(AT_QSTAR),
    "thm4.1": _thm41,
    "cf-A": _cf_a,
    "cf-SZ": _cf_sz,
    "jv-tangent": _jv_tangent,
    "jv-secant": _jv_secant,
    "sz-tangent": _sz_tangent,
    "sz-secant": _sz_secant,
}

PRESET_NAMES = tuple(_PRESET_BUILDERS)


def preset(name: str) -> Preset:
    try:
        builder = _PRESET_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return builder()
