"""Exact arithmetic kernel.

Multivariate Laurent polynomials over the fixed variable universe
``(x, y, p, q, s)`` with big-integer coefficients, rational-coefficient
polynomials in ``(x, y)``, truncated power series in ``t`` over either ring,
single-variable rational functions in ``q``, and the small q-calculus toolbox
(brackets, factorials, Pochhammer symbols).

A LaurentPoly stores each exponent vector as one packed int (Kronecker
substitution): the five exponents are balanced digits base 2**EXP_BITS
(EXP_BITS = 80), x the most significant, so multiplying two monomials is one
integer add and integer order on the keys is ascending lex order on the
vectors.  Every exponent must satisfy |e| < 2**(EXP_BITS - 1).  Packing an
exponent outside that range raises OverflowError, and so does any product,
power or substitution whose result could leave it: each polynomial carries an
upper bound on its |exponents|, and the bounds are added and checked before
any key is, so a digit never carries silently into the next.  ``pack`` and
``unpack`` convert between the two forms; the exponent-tuple form is what
LaurentPoly(dict), ``sorted_terms``, JSON and printing use.

Everything here is immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

VARS = ("x", "y", "p", "q", "s")
NVARS = len(VARS)
VAR_INDEX = {v: i for i, v in enumerate(VARS)}

# Width in bits of one packed exponent digit.  Every exponent must satisfy
# |e| < EXP_LIMIT = 2**(EXP_BITS - 1).
EXP_BITS = 80
EXP_LIMIT = 1 << (EXP_BITS - 1)
_DIGIT_MASK = (1 << EXP_BITS) - 1
# the packed key of the monomial VARS[i]; x is the most significant digit
_PLACE = tuple(1 << (EXP_BITS * (NVARS - 1 - i)) for i in range(NVARS))


class NotInvertibleError(ArithmeticError):
    """Raised when a series reciprocal or substitution needs a unit that isn't one."""


def _check_bound(bound: int) -> None:
    if bound >= EXP_LIMIT:
        raise OverflowError(
            f"an exponent may reach {bound}, past the packed digit range "
            f"|e| < 2**{EXP_BITS - 1}")


def pack(e) -> int:
    """The packed key of an exponent vector (Kronecker substitution)."""
    if len(e) != NVARS:
        raise ValueError(f"exponent vector needs {NVARS} entries, got {e!r}")
    key = 0
    for k in e:
        _check_bound(abs(k))
        key = (key << EXP_BITS) + k
    return key


def unpack(key: int) -> tuple:
    """The exponent vector of a packed key; inverse of ``pack``."""
    digits = []
    for _ in range(NVARS):
        digit = key & _DIGIT_MASK
        if digit >= EXP_LIMIT:
            digit -= 1 << EXP_BITS
        digits.append(digit)
        key = (key - digit) >> EXP_BITS
    return tuple(reversed(digits))


def _mul_into(out: dict, a: dict, b: dict) -> dict:
    """Add the product of the packed term maps a and b into out."""
    get = out.get
    inner = b.items()
    for e1, c1 in a.items():
        for e2, c2 in inner:
            e = e1 + e2
            v = get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                del out[e]
    return out


class LaurentPoly:
    """Laurent polynomial in x, y, p, q, s with arbitrary-precision integer
    coefficients.

    ``terms`` maps the packed key of an exponent vector (see ``pack``) to a
    nonzero coefficient; the zero polynomial has an empty map.  A key holds
    the five exponents as balanced digits base 2**EXP_BITS, x most
    significant, so a monomial product is the sum of the keys and integer
    order is ascending lex order on the vectors.  ``bound`` is an upper bound
    on every |exponent|; a product or power whose bound could reach
    EXP_LIMIT raises ``OverflowError`` before any digit can carry.
    """

    __slots__ = ("terms", "bound")

    def __init__(self, terms: dict | None = None):
        """From a map of exponent tuples to coefficients."""
        terms = {e: c for e, c in terms.items() if c} if terms else {}
        self.terms = {pack(e): c for e, c in terms.items()}
        self.bound = max((abs(k) for e in terms for k in e), default=0)

    @classmethod
    def _packed(cls, terms: dict, bound: int) -> "LaurentPoly":
        """From a map of packed keys to nonzero coefficients whose exponents
        are all at most ``bound`` in absolute value."""
        res = cls.__new__(cls)
        res.terms = terms
        res.bound = bound
        return res

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._packed({0: c} if c else {}, 0)

    @classmethod
    def var(cls, name: str, exp: int = 1, coeff: int = 1) -> "LaurentPoly":
        _check_bound(abs(exp))
        return cls._packed({exp * _PLACE[VAR_INDEX[name]]: coeff} if coeff else {},
                           abs(exp))

    @classmethod
    def monomial(cls, coeff: int = 1, **exps: int) -> "LaurentPoly":
        e = [0] * NVARS
        for name, k in exps.items():
            e[VAR_INDEX[name]] = k
        return cls({tuple(e): coeff})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        """True for +/- a single monomial (invertible in the Laurent ring)."""
        if len(self.terms) != 1:
            return False
        (c,) = self.terms.values()
        return c in (1, -1)

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit_monomial():
            raise NotInvertibleError(f"not invertible: {self}")
        ((e, c),) = self.terms.items()
        return LaurentPoly._packed({-e: c}, self.bound)

    def as_int(self) -> int:
        """Value of a constant polynomial; raises if any variable remains."""
        if not self.terms:
            return 0
        if set(self.terms) != {0}:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms[0]

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        big, small = self.terms, other.terms
        if len(small) > len(big):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                del out[e]
        return LaurentPoly._packed(out, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._packed({e: -c for e, c in self.terms.items()},
                                   self.bound)

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return LaurentPoly._packed(
                {e: c * other for e, c in self.terms.items()}, self.bound)
        bound = self.bound + other.bound
        _check_bound(bound)
        return LaurentPoly._packed(_mul_into({}, self.terms, other.terms), bound)

    __rmul__ = __mul__

    @classmethod
    def dot(cls, xs, ys) -> "LaurentPoly":
        """sum(x * y for x, y in zip(xs, ys)), with every product added
        straight into one map rather than built and then added."""
        out: dict = {}
        bound = 0
        for x, y in zip(xs, ys):
            b = x.bound + y.bound
            _check_bound(b)
            bound = max(bound, b)
            _mul_into(out, x.terms, y.terms)
        return cls._packed(out, bound)

    def __pow__(self, k: int):
        if k < 0:
            return self.unit_inverse() ** (-k)
        if k == 0:
            return LaurentPoly.const(1)
        # square only while bits remain: a last, unused square could
        # overflow where the result does not
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- substitution ------------------------------------------------------

    def substitute(self, assignment: dict) -> "LaurentPoly":
        """Simultaneous substitution of variables by polynomials.

        Values may be ints or LaurentPoly.  A variable occurring with a
        negative exponent may only receive a +/- monomial (so the negative
        power stays representable).
        """
        if not assignment:
            return self
        subs = []
        for name, val in assignment.items():
            idx = VAR_INDEX[name]
            subs.append((idx, LaurentPoly.const(val) if isinstance(val, int) else val))
        powers: dict = {}
        out: dict = {}
        bound = 0
        for key, c in self.terms.items():
            e = unpack(key)
            term = LaurentPoly.const(c)
            for idx, val in subs:
                k = e[idx]
                if k == 0:
                    continue
                key -= k * _PLACE[idx]
                power = powers.get((idx, k))
                if power is None:
                    if k < 0 and not val.is_unit_monomial():
                        raise NotInvertibleError(
                            f"non-invertible substitution {VARS[idx]} -> {val} "
                            f"at exponent {k}")
                    power = powers[idx, k] = val ** k
                term = term * power
            term = term * LaurentPoly._packed({key: 1}, self.bound)
            bound = max(bound, term.bound)
            for e2, c2 in term.terms.items():
                v = out.get(e2, 0) + c2
                if v:
                    out[e2] = v
                else:
                    del out[e2]
        return LaurentPoly._packed(out, bound)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs in ascending lex order."""
        return [(unpack(e), c) for e, c in sorted(self.terms.items())]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # display in descending lex order, matching conventional print order
        for key, c in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, k in zip(VARS, unpack(key)):
                if k == 1:
                    factors.append(name)
                elif k:
                    factors.append(f"{name}^{k}")
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + parts[1:])

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json(self) -> list:
        return [{"e": list(e), "c": str(c)} for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: Iterable[dict]) -> "LaurentPoly":
        return cls({tuple(item["e"]): int(item["c"]) for item in data})


class RatPoly:
    """Polynomial in x and y with rational coefficients (nonnegative exponents).

    Used for the exponential generating function coefficients; same canonical
    form rules as LaurentPoly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[e] = c

    @classmethod
    def const(cls, c) -> "RatPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def monomial(cls, coeff, ex: int = 0, ey: int = 0) -> "RatPoly":
        return cls({(ex, ey): Fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        res = RatPoly.__new__(RatPoly)
        res.terms = out
        return res

    def __neg__(self):
        res = RatPoly.__new__(RatPoly)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RatPoly()
            res = RatPoly.__new__(RatPoly)
            res.terms = {e: c * other for e, c in self.terms.items()}
            return res
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        res = RatPoly.__new__(RatPoly)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, xv, yv) -> Fraction:
        xv, yv = Fraction(xv), Fraction(yv)
        return sum((c * xv**a * yv**b for (a, b), c in self.terms.items()),
                   Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in sorted(self.terms.items(), reverse=True):
            factors = []
            if a:
                factors.append("x" if a == 1 else f"x^{a}")
            if b:
                factors.append("y" if b == 1 else f"y^{b}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0]
        head = "-" + head[2:] if head.startswith("- ") else head[2:]
        return " ".join([head] + parts[1:])

    __repr__ = __str__

    def to_json(self) -> list:
        out = []
        for (a, b), c in sorted(self.terms.items()):
            cs = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            out.append({"e": [a, b, 0, 0, 0], "c": cs})
        return out


# ---------------------------------------------------------------------------
# coefficient-ring adapters for truncated series


class CoeffRing:
    """``dot(xs, ys)`` is the sum of the products x * y of paired elements;
    by default it adds them one at a time from ``zero``."""

    __slots__ = ("name", "zero", "one", "is_unit", "unit_inv", "dot")

    def __init__(self, name, zero, one, is_unit, unit_inv, dot=None):
        self.name = name
        self.zero = zero
        self.one = one
        self.is_unit = is_unit
        self.unit_inv = unit_inv
        self.dot = dot or (
            lambda xs, ys: sum((x * y for x, y in zip(xs, ys)), zero))


LAURENT_RING = CoeffRing(
    "laurent",
    LaurentPoly(),
    LaurentPoly.const(1),
    lambda c: c.is_unit_monomial(),
    lambda c: c.unit_inverse(),
    LaurentPoly.dot,
)


def _ratpoly_is_unit(c: RatPoly) -> bool:
    return len(c.terms) == 1 and (0, 0) in c.terms


def _ratpoly_inv(c: RatPoly) -> RatPoly:
    if not _ratpoly_is_unit(c):
        raise NotInvertibleError(f"not invertible: {c}")
    return RatPoly.const(1 / c.terms[(0, 0)])


RATPOLY_RING = CoeffRing("ratpoly", RatPoly(), RatPoly.const(1),
                         _ratpoly_is_unit, _ratpoly_inv)

FRACTION_RING = CoeffRing("fraction", Fraction(0), Fraction(1),
                          lambda c: c != 0, lambda c: 1 / c)


class TruncSeries:
    """Power series in t truncated at a fixed order N (coefficients 0..N)."""

    __slots__ = ("order", "coeffs", "ring")

    def __init__(self, order: int, coeffs, ring: CoeffRing):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [ring.zero] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs
        self.ring = ring

    @classmethod
    def const(cls, c, order: int, ring: CoeffRing) -> "TruncSeries":
        return cls(order, [c], ring)

    @classmethod
    def one(cls, order: int, ring: CoeffRing) -> "TruncSeries":
        return cls(order, [ring.one], ring)

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k <= self.order else self.ring.zero

    def _check(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)],
                           self.ring)

    def __sub__(self, other):
        self._check(other)
        return TruncSeries(self.order,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)],
                           self.ring)

    def __neg__(self):
        return TruncSeries(self.order, [-a for a in self.coeffs], self.ring)

    def __mul__(self, other):
        self._check(other)
        n = self.order
        out = [self.ring.zero] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if isinstance(a, (LaurentPoly, RatPoly)) and a.is_zero():
                continue
            if a == self.ring.zero:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                out[i + j] = out[i + j] + a * b
        return TruncSeries(n, out, self.ring)

    def scale(self, c):
        return TruncSeries(self.order, [c * a for a in self.coeffs], self.ring)

    def shift(self, k: int):
        """Multiply by t^k; coefficients beyond the order are dropped."""
        return TruncSeries(self.order, [self.ring.zero] * k + self.coeffs,
                           self.ring)

    def recip(self) -> "TruncSeries":
        c0 = self.coeffs[0]
        if not self.ring.is_unit(c0):
            raise NotInvertibleError(f"not invertible: constant term {c0}")
        inv0 = self.ring.unit_inv(c0)
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = self.ring.dot(self.coeffs[1:k + 1], out[k - 1::-1])
            out.append(-(inv0 * acc))
        return TruncSeries(self.order, out, self.ring)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if isinstance(c, (LaurentPoly, RatPoly)):
                if c.is_zero():
                    continue
                cs = str(c)
                multi = len(c.terms) > 1
            else:
                if c == 0:
                    continue
                cs = str(c)
                multi = False
            if k == 0:
                parts.append(cs)
                continue
            tpart = "t" if k == 1 else f"t^{k}"
            if cs == "1":
                parts.append(tpart)
            elif cs == "-1":
                parts.append(f"-{tpart}")
            elif multi:
                parts.append(f"({cs})*{tpart}")
            else:
                parts.append(f"{cs}*{tpart}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [c.to_json() if hasattr(c, "to_json") else str(c)
                           for c in self.coeffs]}


# ---------------------------------------------------------------------------
# q-calculus

P = LaurentPoly.var("p")
Q = LaurentPoly.var("q")


def bracket(u: LaurentPoly, v: LaurentPoly, n: int) -> LaurentPoly:
    """[n] with respect to the pair (u, v): sum of u^(n-1-i) v^i."""
    acc = LaurentPoly()
    for i in range(n):
        acc = acc + u ** (n - 1 - i) * v**i
    return acc


def pq_bracket(n: int) -> LaurentPoly:
    """(p,q)-integer [n] = p^(n-1) + p^(n-2) q + ... + q^(n-1); 0 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return bracket(P, Q, n)


def q_bracket(n: int) -> LaurentPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _from_q_dict(dict.fromkeys(range(n), 1))


def q_factorial(n: int) -> LaurentPoly:
    acc = LaurentPoly.const(1)
    for i in range(1, n + 1):
        acc = acc * q_bracket(i)
    return acc


def q_pochhammer(base_exponent: int, step_exponent: int, k: int) -> LaurentPoly:
    """Product over i < k of (1 - q^(base + i*step)); e.g. (q^2;q^2)_k = (2,2,k)."""
    acc = LaurentPoly.const(1)
    for i in range(k):
        acc = acc * (LaurentPoly.const(1)
                     - LaurentPoly.var("q", base_exponent + i * step_exponent))
    return acc


def rising_factorial(a, k: int) -> Fraction:
    """(a)_k = a (a+1) ... (a+k-1); 1 when k = 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a = Fraction(a)
    acc = Fraction(1)
    for i in range(k):
        acc *= a + i
    return acc


# ---------------------------------------------------------------------------
# rational functions in q

_Q_IDX = VAR_INDEX["q"]
_Q_PLACE = _PLACE[_Q_IDX]


def _q_only(poly: LaurentPoly) -> dict:
    """View a q-only LaurentPoly as {exponent: coeff}; raises otherwise."""
    out = {}
    for key, c in poly.terms.items():
        e = unpack(key)
        if any(e[i] for i in range(NVARS) if i != _Q_IDX):
            raise ValueError(f"not a q-only polynomial: {poly}")
        out[e[_Q_IDX]] = c
    return out


def _from_q_dict(d: dict) -> LaurentPoly:
    bound = max(map(abs, d), default=0)
    _check_bound(bound)
    return LaurentPoly._packed({k * _Q_PLACE: c for k, c in d.items() if c}, bound)


def q_div_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly | None:
    """Exact quotient of q-only Laurent polynomials, or None if the quotient
    is not a Laurent polynomial with integer coefficients."""
    nd, dd = _q_only(num), _q_only(den)
    if not dd:
        raise ZeroDivisionError("division by zero polynomial")
    if not nd:
        return LaurentPoly()
    nmin, nmax = min(nd), max(nd)
    dmin, dmax = min(dd), max(dd)
    rem = [nd.get(k, 0) for k in range(nmin, nmax + 1)]
    b = [dd.get(k, 0) for k in range(dmin, dmax + 1)]
    qlen = len(rem) - len(b) + 1
    if qlen < 1:
        return None
    # long division from the top; each quotient coefficient is final once
    # computed, so a fractional one means no integer quotient exists
    quot = [0] * qlen
    lead = b[-1]
    for i in range(qlen - 1, -1, -1):
        coef, r = divmod(rem[i + len(b) - 1], lead)
        if r:
            return None
        quot[i] = coef
        if coef:
            for j, bc in enumerate(b):
                rem[i + j] -= coef * bc
    if any(rem):
        return None
    shift = nmin - dmin
    return _from_q_dict({i + shift: c for i, c in enumerate(quot)})


class RationalFunctionQ:
    """Quotient of two q-only Laurent polynomials; equality by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        den = LaurentPoly.const(1) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def __sub__(self, other):
        return RationalFunctionQ(self.num * other.den - other.num * self.den,
                                 self.den * other.den)

    def __mul__(self, other):
        return RationalFunctionQ(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return RationalFunctionQ(-self.num, self.den)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunctionQ(other)
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def normalize(self) -> LaurentPoly:
        """Clear the denominator; raises if the value is not a Laurent polynomial."""
        quot = q_div_exact(self.num, self.den)
        if quot is None:
            raise ArithmeticError("rational function does not reduce to a polynomial")
        return quot

    def __str__(self):
        return f"({self.num}) / ({self.den})"
