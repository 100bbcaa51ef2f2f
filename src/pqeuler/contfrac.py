"""J- and S-fraction expansion, the two contraction transforms, and named
presets for every continued fraction used by the library.

Five fractions are stated: the (p,q) tangent and secant, Thm 4.1's, cf-A
and cf-SZ.  The other presets substitute into their weights
(``JFraction.at``): ``*-q`` and ``*-qstar`` are the (p,q) pair at ``AT_Q``
and ``AT_QSTAR`` (Cor 2.2 and 2.3), and ``jv-*`` and ``sz-*`` are cf-A and
cf-SZ at the x of the signed sides, y = 1 for the tangent and 0 for the
secant, each with the displayed S-form that ``contra`` checks.

The fast path reads a fraction as weighted lattice paths (Flajolet) and gets
every coefficient up to the order from one forward pass of
``lattice.transfer``: ``expand_j`` is the one expansion routine.  A fraction
in t^2 alone is a J-fraction whose level weights are 0, and an S-fraction in
t is expanded through its even contraction.  A path of length at most N
never climbs above N/2, so no depth is needed: a fraction ends only where
its own coefficients vanish.

Two oracles evaluate the fraction bottom-up, as displayed, from the tail 1
at a depth; neither runs on the fast path, and they hold the only depths.
``expand_by_convergents`` does it with series reciprocals over the Laurent
polynomials and is the definition the tests check against.
``convergents_at`` does it for an S-fraction over Z[q] at one integer q,
over plain ints.  ``contra`` compares both contractions with it at one
point q = 2^B: c_1..c_(order+4) are evaluated there once (``value_at``),
and the contractions of that int-valued fraction are expanded by the same
transfer pass over ints.  The contractions and the pass only add and
multiply, so each int pass is its Laurent polynomial series at 2^B; with
2^(B-1) above every |coefficient| of every side, balanced base-2^B digits
make agreement there equality.
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
    ints.  Each of c_1..c_order must be in Z[q].

    From the tail 1 at depth ``order``, f <- 1 / (1 - c_k t f) for k down to
    1, with the reciprocal read as h_n = c_k (f_0 h_(n-1) + ... + f_(n-1)
    h_0).  The level-k series is needed only to t^(order - k + 1)."""
    f = [1]
    for k in range(order, 0, -1):
        c = value_at(sf.c(k), q)
        h = [1]
        for _ in range(order - k + 1):
            h.append(c * sum(map(mul, f, reversed(h))))
        f = h
    return f


def value_at(poly: LaurentPoly, q: int) -> int:
    """A polynomial in Z[q] at the integer q."""
    value = 0
    for e, coeff in _q_only(poly).items():
        if e < 0:
            raise ValueError(f"{poly} is not in Z[q]")
        value += coeff * q ** e
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


def expand_odd_contraction(c1: LaurentPoly, jf: JFraction, order: int) -> TruncSeries:
    return TruncSeries.one(order) + expand_j(jf, order).scale(c1).shift(1)


# ---------------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Preset:
    fraction: JFraction
    t_prefix: int = 0          # multiply the expansion by t^t_prefix
    s_form: JFraction | SFraction | None = None  # an equivalent form, when one exists

    def expand(self, order: int) -> TruncSeries:
        series = self.fraction.expand(order)
        return series.shift(self.t_prefix) if self.t_prefix else series

    def at(self, values: dict | None,
           s_form: JFraction | SFraction | None = None) -> "Preset":
        """This preset's fraction at ``values``, with the form ``s_form``."""
        return Preset(self.fraction.at(values), self.t_prefix, s_form)


_ONE = LaurentPoly.const(1)
_ZERO = LaurentPoly()
_Q = LaurentPoly.var("q")
_PS = LaurentPoly.monomial(1, p=1, s=1)


def _qpow(k: int) -> LaurentPoly:
    return LaurentPoly.var("q", k)


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
    xm, ym = LaurentPoly.var("x"), LaurentPoly.var("y")

    def b(h):
        return xm * ym + (_ONE + xm * _Q) * q_bracket(h)

    def ac(h):
        return xm * q_bracket(h + 1) ** 2

    return Preset(JFraction(b=b, ac=ac))


def _cf_sz() -> Preset:
    xm, ym = LaurentPoly.var("x"), LaurentPoly.var("y")

    def b(h):
        return ym * _qpow(2 * h) + (_ONE + xm) * _qpow(h) * q_bracket(h)

    def ac(h):
        return xm * _qpow(2 * h + 1) * q_bracket(h + 1) ** 2

    return Preset(JFraction(b=b, ac=ac))


_MINUS_INV_Q = LaurentPoly.var("q", -1, coeff=-1)


def _jv_tangent() -> Preset:
    # the displayed alternating level sequence: c_(2i-1) = -[i], c_2i = [i]
    def c(k):
        i = (k + 1) // 2
        return -q_bracket(i) if k % 2 else q_bracket(i)

    return _cf_a().at({"x": -1, "y": 1}, SFraction(c=c))


def _jv_secant() -> Preset:
    # all b_h vanish, so this is already a fraction in t^2
    def ac(h):
        return _qpow(-1) * q_bracket(h + 1) ** 2 * (-1)

    return _cf_a().at({"x": _MINUS_INV_Q, "y": 0}, JFraction(b=_zero, ac=ac))


def _sz_tangent() -> Preset:
    # c_(2i-1) = q^(i-1) [i], c_2i = -q^(i-1) [i]
    def c(k):
        i = (k + 1) // 2
        mono = _qpow(i - 1) * q_bracket(i)
        return mono if k % 2 else -mono

    return _cf_sz().at({"x": _MINUS_INV_Q, "y": 1}, SFraction(c=c))


def _sz_secant() -> Preset:
    def ac(h):
        return -(_qpow(2 * h + 1) * q_bracket(h + 1) ** 2)

    return _cf_sz().at({"x": -1, "y": 0}, JFraction(b=_zero, ac=ac))


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
