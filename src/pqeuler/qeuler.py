"""Euler numbers and all their q- and (p,q)-refinements.

Integer E_n, the polynomials E_n(p,q), E_n(q), E*_n(q) (``e_pq``, ``e_q`` and
``e_star_q`` by enumeration; ``e_pq_upto(nmax, at)`` by continued fraction at
every n up to nmax, substituted at ``AT_Q``, ``AT_QSTAR`` or ``AT_ONE`` in the
weights, and ``e_int`` from it), the (exc, fix) exponential
generating function as n!-scaled integer polynomials, and the closed formulas:
the parity-independent double sum and the rational series, each with its
q-analogue; one routine sums both series, dividing out each factor in one pass,
and the q double sum multiplies and divides coefficient lists by one binomial
1 - q^i at a time.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .algebra import (
    LaurentPoly,
    TruncSeries,
    _from_q_dict,
    q_bracket,
    q_factorial,
    rising_factorial,
)
from .contfrac import AT_ONE, AT_Q, AT_QSTAR, preset
from .permstat import stat_polynomial, stat_polynomials

# euler_table cross-checks its rows by enumeration up to this n; the rows
# above it rest on the continued fraction alone
TABLE_ENUM_MAX = 9


def _e_pq_weight(n: int) -> dict:
    # q marks 31-2 and p its companion pattern: 2-13 at odd n, 2-31 at even
    return {"p": {"thot" if n % 2 else "thto": 1}, "q": {"toht": 1}}


def _e_pq_sums(order: int, at: dict | None = None) -> list:
    """E_n(p,q) by enumeration, as ``e_pq`` sums it, or its value ``at``,
    for n = 0..order: one program over A for each parity, at its largest
    size, the order's own first."""
    sums = [LaurentPoly()] * (order + 1)
    for top in (order, order - 1)[:order + 1]:
        sums[top % 2::2] = stat_polynomials(
            "A", top, _e_pq_weight(top), at)[top % 2::2]
    return sums


def e_pq(n: int) -> LaurentPoly:
    """(p,q)-Euler number by enumeration: the (31-2, companion-pattern)
    enumerator of falling alternating permutations.  ``e_pq_upto`` gives the
    same by continued fraction."""
    return stat_polynomial("A", n, _e_pq_weight(n))


def e_pq_upto(nmax: int, at: dict | None = None) -> list[LaurentPoly]:
    """E_n(p,q) for n = 0..nmax by continued fraction, or its value ``at``
    (``AT_Q``, ``AT_QSTAR``, ``AT_ONE``, or any map as ``stat_polynomials``
    takes), from one expansion of the tangent and one of the secant preset,
    each substituted before its pass (``Preset.at``)."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    tan, sec = (preset(name).at(at).expand(nmax)
                for name in ("tangent-pq", "secant-pq"))
    return [tan.coeff(n) if n % 2 else sec.coeff(n) for n in range(nmax + 1)]


def e_q(n: int) -> LaurentPoly:
    return stat_polynomial("A", n, _e_pq_weight(n), at=AT_Q)


def e_star_q(n: int) -> LaurentPoly:
    return stat_polynomial("A", n, _e_pq_weight(n), at=AT_QSTAR)


def e_int(n: int) -> int:
    """E_n by continued fraction."""
    return e_pq_upto(n, AT_ONE)[n].as_int()


# ---------------------------------------------------------------------------
# the exponential generating function of (exc, fix)


def egf_exc_fix(order: int) -> list[LaurentPoly]:
    """n! [t^n] of (1-x) exp(yt) / (exp(xt) - x exp(t)) for n = 0..order: the
    (exc, fix) polynomials of S_n, with x marking exc and y marking fix.

    The denominator's common factor (1-x) cancels:
    exp(xt) - x exp(t) = (1-x) D with D = 1 - sum over m>=2 of
    (x + ... + x^(m-1)) t^m / m!.  A product of exponential generating
    functions is a binomial convolution, so F D = exp(yt) reads
    F_n = y^n + sum over k <= n-2 of C(n,k) F_k (x + ... + x^(n-k-1)).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    y = LaurentPoly.var("y")
    geom = [LaurentPoly({(i, 0, 0, 0, 0): 1 for i in range(1, m)})
            for m in range(order + 1)]
    out: list[LaurentPoly] = []
    for n in range(order + 1):
        ks = range(n - 1)
        out.append(y ** n + LaurentPoly.dot([math.comb(n, k) * out[k] for k in ks],
                                            [geom[n - k] for k in ks]))
    return out


# ---------------------------------------------------------------------------
# closed formulas for E_n


def _rational_series(order: int, lead, factor) -> TruncSeries:
    """Sum over m of lead(m) t^m / prod over k <= m/2 of (a + b t^2), with
    (a, b) = factor(m - 2k + 1) and a a unit monomial, each factor divided out
    in one pass: g_n <- (g_n - b g_(n-2)) / a for n = m, m+2, ..., order."""
    total = TruncSeries(order)
    for m in range(order + 1):
        # g_(-2) and g_(-1) read the two spare zeros at the end
        g = [LaurentPoly()] * m + [lead(m)] + [LaurentPoly()] * (order - m + 2)
        for k in range(m // 2 + 1):
            a, b = factor(m - 2 * k + 1)
            inv = a.unit_inverse()
            for n in range(m, order + 1, 2):
                g[n] = inv * (g[n] - b * g[n - 2])
        total = total + TruncSeries(order, g)
    return total


def rz_series(order: int) -> TruncSeries:
    """Sum over m of m! t^m / prod_k (1 + (m-2k+1)^2 t^2), truncated."""
    return _rational_series(order, lambda m: LaurentPoly.const(math.factorial(m)),
                            lambda j: (LaurentPoly.const(1), LaurentPoly.const(j * j)))


def parity_formula(n: int) -> int:
    """The parity-independent double sum for E_n, evaluated exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    total = Fraction(0)
    for m in range(n + 1):
        if (n - m) % 2:
            continue
        outer = Fraction(math.factorial(m), 4 ** (m // 2))
        inner = Fraction(0)
        for k in range(m // 2 + 1):
            sign = (-1) ** ((n - m) // 2 + k)
            num = Fraction((m - 2 * k + 1) ** (2 * (n // 2)))
            den = (math.factorial(k) * math.factorial(m // 2 - k)
                   * rising_factorial(m - 2 * k + 2, k)
                   * rising_factorial((m + 1) // 2 - k + 1, m // 2 - k))
            inner += sign * num / den
        total += outer * inner
    if total.denominator != 1:
        raise ArithmeticError(f"parity formula did not clear: {total}")
    return total.numerator


def hrz_series(order: int) -> TruncSeries:
    """q-analogue of the rational series: sum over m of
    q^(m+1) [m]! t^m / prod_k (q^(m-2k+1) + [m-2k+1]^2 t^2),
    expanded exactly over Laurent polynomials in q."""
    return _rational_series(
        order, lambda m: LaurentPoly.var("q", m + 1) * q_factorial(m),
        lambda j: (LaurentPoly.var("q", j), q_bracket(j) ** 2))


def _times(g: list, i: int) -> list:
    """g (1 - q^i), g a coefficient list from q^0 up."""
    return [a - b for a, b in zip(g + [0] * i, [0] * i + g)]


def _over(g: list, i: int) -> list | None:
    """g / (1 - q^i) from the low end, f_r = g_r + f_(r-i); None unless the
    top i coefficients vanish, i.e. unless the quotient is a polynomial."""
    f = list(g)
    for r in range(i, len(f)):
        f[r] += f[r - i]
    cut = max(len(f) - i, 0)
    return None if any(f[cut:]) else f[:cut]


def _q_parity_term(n: int, m: int, k: int):
    """One term of the q double sum as (a, numerator, denominator): the term
    is q^a times the coefficient list numerator over the product of the
    factors 1 - q^i, with i counted in the Counter denominator.

    With j = m - 2k + 1, its numerator (1-q)^(2h) [j]^(2N), h = m/2 and
    N = n/2 rounded down, is (1 - q^j)^(2N) / (1 - q)^(2(N - h))."""
    half, top, big = m // 2, (m + 1) // 2, n // 2
    a = k * k + k * (n - m + 1) - (n - m) // 2 + half * half - m * big
    j = m - 2 * k + 1
    sign = (-1) ** ((n - m) // 2 + k)
    num = [0] * (2 * big * j + 1)
    for r in range(2 * big + 1):
        num[r * j] = sign * (-1) ** r * math.comb(2 * big, r)
    # (q^2;q^2)_k (q^2;q^2)_(m/2-k) (q^(2(m-2k+2));q^2)_k
    # (q^(2((m+1)/2-k+1));q^2)_(m/2-k), each factor 1 - q^(2i)
    den = Counter(2 * i for i in range(1, k + 1))
    den.update(2 * i for i in range(1, half - k + 1))
    den.update(2 * i for i in range(m - 2 * k + 2, m - k + 2))
    den.update(2 * i for i in range(top - k + 1, top + half - 2 * k + 1))
    den[1] = 2 * (big - half)
    return a, num, den


def q_parity_formula(n: int) -> LaurentPoly:
    """The parity-independent double sum for E_n(q), on coefficient lists.
    Every factor in it is a binomial 1 - q^i, as [j] = (1 - q^j) / (1 - q),
    and multiplying or exactly dividing by one takes one pass.  The terms of
    each m are brought to their least common denominator and summed; each
    factor of that denominator is divided out, which must leave a
    polynomial, and [m]! is multiplied in one factor at a time."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = Counter()
    for m in range(n % 2, n + 1, 2):
        terms = [_q_parity_term(n, m, k) for k in range(m // 2 + 1)]
        common = Counter()
        for _, _, den in terms:
            common |= den
        low = min(a for a, _, _ in terms)
        g = []
        for a, part, den in terms:
            for i in (common - den).elements():
                part = _times(part, i)
            part = [0] * (a - low) + part
            g = [x + y for x, y in zip_longest(g, part, fillvalue=0)]
        for i in common.elements():
            g = _over(g, i)
            if g is None:
                raise ArithmeticError(
                    f"q double sum at n={n}, m={m} does not clear to a polynomial")
        for i in range(1, m + 1):
            g = _over(_times(g, i), 1)
        total.update(dict(enumerate(g, low)))
    return _from_q_dict(total)


# ---------------------------------------------------------------------------
# the consolidated table


@dataclass
class EulerTableRow:
    n: int
    e: int
    e_pq: LaurentPoly
    e_q: LaurentPoly
    e_star_q: LaurentPoly
    methods: tuple = ("enumeration", "cf")

    def to_json(self) -> dict:
        return {"n": self.n, "E": str(self.e),
                "E_pq": self.e_pq.to_json(),
                "E_q": self.e_q.to_json(),
                "E_star_q": self.e_star_q.to_json(),
                "methods": list(self.methods)}


def euler_table(nmax: int) -> list[EulerTableRow]:
    """Rows 0..nmax; every value cross-checked between the methods available
    at that n (enumeration up to TABLE_ENUM_MAX, one program per parity,
    and continued fraction everywhere)."""
    if nmax < 0:
        raise ValueError("nmax must be nonnegative")
    by_enum = _e_pq_sums(min(nmax, TABLE_ENUM_MAX))
    rows = []
    for n, by_cf in enumerate(e_pq_upto(nmax)):
        methods = ["cf"]
        if n < len(by_enum):
            if by_enum[n] != by_cf:
                raise AssertionError(f"method disagreement at n={n}")
            methods.insert(0, "enumeration")
        row = EulerTableRow(
            n=n,
            e=by_cf.substitute(AT_ONE).as_int(),
            e_pq=by_cf,
            e_q=by_cf.substitute(AT_Q),
            e_star_q=by_cf.substitute(AT_QSTAR),
            methods=tuple(methods),
        )
        rows.append(row)
    return rows
