"""Exact arithmetic kernel.

Multivariate Laurent polynomials over the fixed variable universe
``(x, y, p, q, s)`` with big-integer coefficients, truncated power series in
``t`` over them, exact division of q-only polynomials, and the small
q-calculus toolbox (brackets, factorials, rising factorials).

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
from typing import Iterable

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


_ZERO = LaurentPoly()
_ONE = LaurentPoly.const(1)


class TruncSeries:
    """Power series in t truncated at a fixed order N (coefficients 0..N),
    with LaurentPoly coefficients.

    ``ring`` and the second argument of ``one`` are kept only for callers
    written against the former pluggable-ring API (perfbench's planted-fault
    test passes ``series.ring`` back to ``one``); every series is over
    LaurentPoly and both are ignored.
    """

    __slots__ = ("order", "coeffs")

    ring = LaurentPoly

    def __init__(self, order: int, coeffs=()):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [_ZERO] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def const(cls, c: LaurentPoly, order: int) -> "TruncSeries":
        return cls(order, [c])

    @classmethod
    def one(cls, order: int, ring=None) -> "TruncSeries":
        return cls(order, [_ONE])

    def coeff(self, k: int) -> LaurentPoly:
        return self.coeffs[k] if 0 <= k <= self.order else _ZERO

    def _check(self, other):
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        return TruncSeries(self.order,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return TruncSeries(self.order,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        return TruncSeries(self.order, [LaurentPoly.dot(a[:k + 1], b[k::-1])
                                        for k in range(self.order + 1)])

    def scale(self, c: LaurentPoly):
        return TruncSeries(self.order, [c * a for a in self.coeffs])

    def shift(self, k: int):
        """Multiply by t^k; coefficients beyond the order are dropped."""
        return TruncSeries(self.order, [_ZERO] * k + self.coeffs)

    def recip(self) -> "TruncSeries":
        inv0 = self.coeffs[0].unit_inverse()
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = LaurentPoly.dot(self.coeffs[1:k + 1], out[k - 1::-1])
            out.append(-(inv0 * acc))
        return TruncSeries(self.order, out)

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if k == 0:
                parts.append(cs)
                continue
            tpart = "t" if k == 1 else f"t^{k}"
            if cs == "1":
                parts.append(tpart)
            elif cs == "-1":
                parts.append(f"-{tpart}")
            elif len(c.terms) > 1:
                parts.append(f"({cs})*{tpart}")
            else:
                parts.append(f"{cs}*{tpart}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"order": self.order,
                "coeffs": [c.to_json() for c in self.coeffs]}


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
# exact division in q

_Q_IDX = VAR_INDEX["q"]
_Q_PLACE = _PLACE[_Q_IDX]


def _q_only(poly: LaurentPoly) -> dict:
    """View a q-only LaurentPoly as {exponent: coeff}; raises otherwise.

    A q-only key is e times the q place: no remainder below it (the s digit
    is 0), and a quotient inside one digit (x, y and p are 0)."""
    out = {}
    for key, c in poly.terms.items():
        e, rest = divmod(key, _Q_PLACE)
        if rest or not -EXP_LIMIT < e < EXP_LIMIT:
            raise ValueError(f"not a q-only polynomial: {poly}")
        out[e] = c
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

