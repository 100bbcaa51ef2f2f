"""J- and S-fraction expansion, the two contraction transforms, and named
presets for every continued fraction used by the library.

The fast path reads a fraction as weighted lattice paths (Flajolet) and gets
every coefficient up to the order from one forward pass of
``lattice.transfer``: a J-fraction directly, an S-fraction in t^2 as Dyck
paths, an S-fraction in t through its even contraction.
``expand_by_convergents`` evaluates the fraction bottom-up with series
reciprocals, as displayed; it is the independent oracle for checks and tests
and never runs on the fast path.  A path of length N never climbs above
ceil(N/2), so depth ceil(N/2)+1 suffices (tested, not assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import LaurentPoly, TruncSeries, bracket, pq_bracket, q_bracket
from .lattice import transfer


def _depth_for(order: int) -> int:
    return (order + 1) // 2 + 1


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


@dataclass(frozen=True)
class SFraction:
    """1 / (1 - c_1 u / (1 - c_2 u / ...)) with u = t^power (power 1 or 2)."""

    c: Callable[[int], LaurentPoly]
    power: int = 1

    def expand(self, order: int) -> TruncSeries:
        return expand_s(self, order)


def _s_levels(sf: SFraction, order: int, depth: int | None) -> int:
    return depth if depth is not None else order // sf.power + 1


def expand_j(jf: JFraction, order: int, depth: int | None = None) -> TruncSeries:
    """Paths with up weight ac_h, level weight b_h and down weight 1, summed
    per length by the transfer pass."""
    depth = depth if depth is not None else _depth_for(order)
    return TruncSeries(order, transfer(jf.ac, jf.b, None, depth, order))


def expand_s(sf: SFraction, order: int, depth: int | None = None) -> TruncSeries:
    """Power 2: Dyck paths with up weight c_(h+1).  Power 1: the even
    contraction of the fraction cut to its first ``levels`` terms."""
    levels = _s_levels(sf, order, depth)
    if sf.power == 2:
        return TruncSeries(order, transfer(lambda h: sf.c(h + 1), None, None,
                                           levels, order))
    if sf.power != 1:
        raise ValueError("S-fractions have power 1 or 2")
    cut = SFraction(c=lambda k: sf.c(k) if k <= levels else _ZERO)
    return expand_j(contract_even(cut), order)


def expand_by_convergents(fraction: JFraction | SFraction, order: int,
                          depth: int | None = None) -> TruncSeries:
    """The oracle for checks and tests: evaluate the fraction bottom-up with
    series reciprocals, exactly as displayed, from the tail 1 at the given
    depth."""
    one = TruncSeries.one(order)
    f = one
    if isinstance(fraction, JFraction):
        depth = depth if depth is not None else _depth_for(order)
        for h in range(depth - 1, -1, -1):
            f = (one - TruncSeries.const(fraction.b(h), order).shift(1)
                 - f.scale(fraction.ac(h)).shift(2)).recip()
        return f
    for k in range(_s_levels(fraction, order, depth), 0, -1):
        f = (one - f.scale(fraction.c(k)).shift(fraction.power)).recip()
    return f


def contract_even(sf: SFraction) -> JFraction:
    """Even contraction of a power-1 S-fraction:
    b_0 = c_1, b_h = c_2h + c_(2h+1), ac_h = c_(2h+1) c_(2h+2)."""
    if sf.power != 1:
        raise ValueError("contraction applies to power-1 S-fractions")
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
    if sf.power != 1:
        raise ValueError("contraction applies to power-1 S-fractions")
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
    name: str
    fraction: JFraction | SFraction
    t_prefix: int = 0          # multiply the expansion by t^t_prefix
    s_form: SFraction | None = None  # equivalent S-fraction form, when one exists

    def expand(self, order: int) -> TruncSeries:
        series = self.fraction.expand(order)
        return series.shift(self.t_prefix) if self.t_prefix else series


_ONE = LaurentPoly.const(1)
_ZERO = LaurentPoly()
_Q = LaurentPoly.var("q")
_PS = LaurentPoly.monomial(1, p=1, s=1)


def _qpow(k: int) -> LaurentPoly:
    return LaurentPoly.var("q", k)


def _tangent_pq() -> Preset:
    return Preset("tangent-pq",
                  SFraction(c=lambda k: pq_bracket(k) * pq_bracket(k + 1), power=2),
                  t_prefix=1)


def _secant_pq() -> Preset:
    return Preset("secant-pq",
                  SFraction(c=lambda k: pq_bracket(k) * pq_bracket(k), power=2))


def _tangent_q() -> Preset:
    return Preset("tangent-q",
                  SFraction(c=lambda k: q_bracket(k) * q_bracket(k + 1), power=2),
                  t_prefix=1)


def _secant_q() -> Preset:
    return Preset("secant-q",
                  SFraction(c=lambda k: q_bracket(k) * q_bracket(k), power=2))


def _tangent_qstar() -> Preset:
    return Preset("tangent-qstar",
                  SFraction(c=lambda k: _qpow(2 * k - 1) * q_bracket(k) * q_bracket(k + 1),
                            power=2),
                  t_prefix=1)


def _secant_qstar() -> Preset:
    return Preset("secant-qstar",
                  SFraction(c=lambda k: _qpow(2 * (k - 1)) * q_bracket(k) ** 2,
                            power=2))


def _thm41() -> Preset:
    def b(h):
        return (LaurentPoly.monomial(1, x=1, y=1, p=h, s=2 * h)
                + (_ONE + LaurentPoly.monomial(1, x=1, q=1))
                * LaurentPoly.var("s", h) * bracket(_Q, _PS, h))

    def ac(h):
        # a_h c_(h+1) = x s^(2h+1) [h+1]^2 in (q, ps)
        br = bracket(_Q, _PS, h + 1)
        return LaurentPoly.monomial(1, x=1, s=2 * h + 1) * br * br

    return Preset("thm4.1", JFraction(b=b, ac=ac))


def _cf_a(x_val: LaurentPoly | None = None, y_val: LaurentPoly | None = None,
          name: str = "cf-A") -> Preset:
    xm = LaurentPoly.var("x") if x_val is None else x_val
    ym = LaurentPoly.var("y") if y_val is None else y_val

    def b(h):
        return xm * ym + (_ONE + xm * _Q) * q_bracket(h)

    def ac(h):
        return xm * q_bracket(h + 1) ** 2

    return Preset(name, JFraction(b=b, ac=ac))


def _cf_sz(x_val: LaurentPoly | None = None, y_val: LaurentPoly | None = None,
           name: str = "cf-SZ") -> Preset:
    xm = LaurentPoly.var("x") if x_val is None else x_val
    ym = LaurentPoly.var("y") if y_val is None else y_val

    def b(h):
        return ym * _qpow(2 * h) + (_ONE + xm) * _qpow(h) * q_bracket(h)

    def ac(h):
        return xm * _qpow(2 * h + 1) * q_bracket(h + 1) ** 2

    return Preset(name, JFraction(b=b, ac=ac))


_MINUS_ONE = LaurentPoly.const(-1)
_MINUS_INV_Q = LaurentPoly.var("q", -1, coeff=-1)


def _jv_tangent() -> Preset:
    base = _cf_a(x_val=_MINUS_ONE, y_val=LaurentPoly.const(1), name="jv-tangent")

    # the displayed alternating level sequence: c_(2i-1) = -[i], c_2i = [i]
    def c(k):
        i = (k + 1) // 2
        return -q_bracket(i) if k % 2 else q_bracket(i)

    return Preset(base.name, base.fraction, s_form=SFraction(c=c, power=1))


def _jv_secant() -> Preset:
    base = _cf_a(x_val=_MINUS_INV_Q, y_val=LaurentPoly(), name="jv-secant")

    # all b_h vanish, so this is already an S-fraction in t^2
    def c(h):
        return _qpow(-1) * q_bracket(h) ** 2 * (-1)

    return Preset(base.name, base.fraction, s_form=SFraction(c=c, power=2))


def _sz_tangent() -> Preset:
    base = _cf_sz(x_val=_MINUS_INV_Q, y_val=LaurentPoly.const(1), name="sz-tangent")

    # c_(2i-1) = q^(i-1) [i], c_2i = -q^(i-1) [i]
    def c(k):
        i = (k + 1) // 2
        mono = _qpow(i - 1) * q_bracket(i)
        return mono if k % 2 else -mono

    return Preset(base.name, base.fraction, s_form=SFraction(c=c, power=1))


def _sz_secant() -> Preset:
    base = _cf_sz(x_val=_MINUS_ONE, y_val=LaurentPoly(), name="sz-secant")

    def c(h):
        return -(_qpow(2 * h - 1) * q_bracket(h) ** 2)

    return Preset(base.name, base.fraction, s_form=SFraction(c=c, power=2))


_PRESET_BUILDERS = {
    "tangent-pq": _tangent_pq,
    "secant-pq": _secant_pq,
    "tangent-q": _tangent_q,
    "secant-q": _secant_q,
    "tangent-qstar": _tangent_qstar,
    "secant-qstar": _secant_qstar,
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
