"""Named verification checks, one per identity the library implements.

Every check compares two independently computed sides at exact equality and
reports the lexicographically first witness on failure.  A check with
parameter n verifies every size up to n, so the zero cases of the wrong
parity are always exercised: 0..n where n is a series order (the rows of
``SERIES``, ``contra`` and ``sec7``), 1..n for the others, which refuse
n = 0 rather than pass with nothing checked.  Every check that
sums over a family by the dynamic program (the rows of ``SIGNED`` and
``SERIES``, and ``equidist_remark``) reads every size from one program at n
(``stat_polynomials``) and compares from the smallest size up, so a size
too large for the program is refused before any work, and a witness is
still the smallest failing size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial

from .algebra import LaurentPoly, TruncSeries, _from_q_dict, _q_only
from .contfrac import (
    SFraction,
    contract_even,
    contract_odd,
    convergents_at,
    expand_j,
    expand_odd_contraction,
    expand_s,
    preset,
    value_at,
)
from .lattice import enumerate_objects, transfer
from .maps import csz, fv, fv_star, fz, invol_phi, invol_psi
# stat_polynomial and e_pq are not called here, but perfbench/spans.py wraps
# them under this module's names
from .permstat import (
    LINEAR_QUINTUPLE_WEIGHT,
    QUINTUPLE_WEIGHT,
    _check_family_size,
    family_contains,
    family_iter,
    lex_index,
    stat_polynomial,
    stat_polynomials,
    stat_table,
    word_str,
)
from .qeuler import (
    AT_ONE,
    AT_Q,
    AT_QSTAR,
    _e_pq_sums,
    e_pq,
    e_pq_upto,
    hrz_series,
    parity_formula,
    q_parity_formula,
    rz_series,
)

MINUS_ONE = LaurentPoly.const(-1)
MINUS_Q = LaurentPoly.var("q", 1, coeff=-1)
MINUS_INV_Q = LaurentPoly.var("q", -1, coeff=-1)


@dataclass
class CheckReport:
    check: str
    param: int
    status: str
    elapsed: float
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {"check": self.check, "param": self.param,
               "status": self.status, "elapsed": round(self.elapsed, 3)}
        if self.witness is not None:
            out["witness"] = self.witness
        return out

    def __str__(self):
        line = f"{self.check}(param={self.param}): {self.status} [{self.elapsed:.2f}s]"
        if self.witness is not None:
            line += f"  witness: {self.witness}"
        return line


ODD, EVEN = 1, 0


@dataclass(frozen=True)
class Side:
    """One side of a signed identity: the sum over ``family`` of
    x^sign_stat q^q_stat, which at n of the side's parity equals
    lead * unit^(n//2) * base_n and at the other parity 0.  Where ``fixed``
    names a family (the fixed points of a sign-reversing involution), the
    sum over it is the same."""

    family: str
    sign_stat: str
    q_stat: str | None
    x: LaurentPoly
    parity: int
    unit: LaurentPoly
    lead: int = 1
    fixed: str | None = None

    def sums(self, nmax: int, family: str | None = None) -> list:
        """The sums at n = 0..nmax, from one program at nmax."""
        weight = {"x": {self.sign_stat: 1},
                  "q": {self.q_stat: 1} if self.q_stat else {}}
        return stat_polynomials(family or self.family, nmax, weight,
                                {"x": self.x})

    def value(self, n: int, base: LaurentPoly) -> LaurentPoly:
        if n % 2 != self.parity:
            return LaurentPoly()
        return self.lead * self.unit ** (n // 2) * base

    def __str__(self):
        q_part = f" q^{self.q_stat}" if self.q_stat else ""
        return f"sum over {self.family} of ({self.x})^{self.sign_stat}{q_part}"


# check id -> (base, *sides).  base_n is E_n(p,q) by continued fraction
# under the given substitution, or, for None, the sum of q^inv over Astar_n
# by enumeration.
SIGNED = {
    "euler_roselle": (AT_ONE, Side("S", "exc", None, MINUS_ONE, ODD, MINUS_ONE),
                      Side("D", "exc", None, MINUS_ONE, EVEN, MINUS_ONE)),
    "foata_han": (None, Side("S", "exc", "maj", MINUS_INV_Q, ODD, MINUS_ONE),
                  Side("D", "exc", "maj", MINUS_INV_Q, EVEN, MINUS_ONE)),
    "jv": (AT_Q, Side("S", "wex", "cros", MINUS_ONE, ODD, MINUS_ONE, -1),
           Side("D", "exc", "cros", MINUS_INV_Q, EVEN, MINUS_INV_Q)),
    "shin_zeng": (AT_QSTAR, Side("S", "exc", "inv", MINUS_INV_Q, ODD, MINUS_ONE),
                  Side("D", "exc", "inv", MINUS_ONE, EVEN, MINUS_Q)),
    "sz_linear": (AT_Q, Side("S", "ndes", "toht", MINUS_ONE, ODD, MINUS_ONE, -1,
                             "Aprime"),
                  Side("Dstar", "ndes", "toht", MINUS_INV_Q, EVEN, MINUS_INV_Q,
                       fixed="Adoubleprime")),
    # the linear model's coderangement sum, and shin_zeng's secant side
    "mad_remark": (AT_QSTAR, Side("Dstar", "ndes", "mad", MINUS_ONE, EVEN,
                                  MINUS_Q, fixed="Adoubleprime"),
                   Side("D", "exc", "inv", MINUS_ONE, EVEN, MINUS_Q)),
}


# ---------------------------------------------------------------------------
# individual checks: each returns None on success or a witness string


def _check_signed(check_id: str, nmax: int):
    at, *sides = SIGNED[check_id]
    # each sum is one program at nmax, so an oversize nmax is refused first
    sums = [(side.sums(nmax), side.fixed and side.sums(nmax, side.fixed))
            for side in sides]
    bases = (stat_polynomials("Astar", nmax, {"q": {"inv": 1}}) if at is None
             else e_pq_upto(nmax, at))
    for n in range(1, nmax + 1):
        for side, (got, fixed) in zip(sides, sums):
            want = side.value(n, bases[n])
            if got[n] != want:
                return f"n={n} {side}: {got[n]} != {want}"
            if side.fixed and fixed[n] != got[n]:
                return f"n={n} {side} differs from the sum over {side.fixed}"
    return None


def _sums_over_s(weight: dict):
    return lambda order: stat_polynomials("S", order, weight)


# check id -> (preset giving t^n at odd n, preset giving it at even n, the
# enumerated side as a call on the order giving t^0..t^order)
SERIES = {
    "thm2_1": ("tangent-pq", "secant-pq", _e_pq_sums),
    "cor2_2": ("tangent-q", "secant-q", partial(_e_pq_sums, at=AT_Q)),
    "cor2_3": ("tangent-qstar", "secant-qstar",
               partial(_e_pq_sums, at=AT_QSTAR)),
    "thm4_1": ("thm4.1", "thm4.1", _sums_over_s(QUINTUPLE_WEIGHT)),
    "cor_cf_A": ("cf-A", "cf-A", _sums_over_s(
        {"x": {"wex": 1}, "y": {"fix": 1}, "q": {"cros": 1}})),
    "cor_cf_SZ": ("cf-SZ", "cf-SZ", _sums_over_s(
        {"x": {"exc": 1}, "y": {"fix": 1}, "q": {"inv": 1}})),
}


def _check_series(check_id: str, order: int):
    odd, even, enumerated = SERIES[check_id]
    # one program at the order, as in _check_signed
    wants = enumerated(order)
    series = {name: preset(name).expand(order)
              for name in dict.fromkeys((odd, even))}
    for n in range(order + 1):
        name = odd if n % 2 else even
        got = series[name].coeff(n)
        want = wants[n]
        if got != want:
            return f"t^{n} of {name}: {got} != {want}"
    return None


def _certify_onto(bijection, family: str, n: int, kind: str, length: int):
    """Witness that ``bijection`` does not map the family's words of length n
    one-to-one onto the lattice objects of the kind and length, or None if
    it does."""
    preimage = {}
    for sigma in family_iter(family, n):
        image = bijection(sigma)
        if image in preimage:
            return (f"sigma={word_str(sigma)}: image {image} is also that of "
                    f"{word_str(preimage[image])}")
        preimage[image] = sigma
    codomain = set(enumerate_objects(kind, length))
    for image, sigma in preimage.items():
        if image not in codomain:
            return (f"sigma={word_str(sigma)}: image {image} is not a {kind} "
                    f"of length {length}")
    if len(preimage) != len(codomain):
        return f"n={n}: {len(codomain) - len(preimage)} {kind} objects are not hit"
    return None


def certify_fv(n: int):
    if n % 2 == 0:
        raise ValueError("fv verification needs odd n")
    return _certify_onto(fv, "A", n, "diagramme", n - 1)


def certify_fv_star(n: int):
    if n % 2:
        raise ValueError("fv-star verification needs even n")
    return _certify_onto(fv_star, "A", n, "restricted_diagramme", n)


def certify_fz(n: int):
    return _certify_onto(fz, "S", n, "laguerre", n)


def certify_csz(n: int):
    """Witness that csz is not a bijection of S_n carrying (ndes, fmax, toht,
    thto, mad) to (wex, fix, cros, nest, inv), or None if it is.

    Both sides read their statistics from one ``stat_table`` each, as
    exponent vectors (x, y, p, q, s) of the two quintuple weights.  The
    words are the raw tuples of ``lex_index``, so a word's rank is its loop
    index and an image's rank one lookup; an image without one is not in
    S_n.
    """
    linear = stat_table(n, LINEAR_QUINTUPLE_WEIGHT)
    quintuple = stat_table(n, QUINTUPLE_WEIGHT)
    index = lex_index(n)
    seen = bytearray(len(index))
    for rank, sigma in enumerate(index):
        tau = csz(sigma)
        image = index.get(tau)
        if image is None:
            return f"sigma={word_str(sigma)}: image {word_str(tau)} is not in S_{n}"
        if seen[image]:
            return f"n={n}: biword map is not injective (tau={word_str(tau)})"
        seen[image] = 1
        if linear[rank] != quintuple[image]:
            return (f"sigma={word_str(sigma)}: {linear[rank]} != "
                    f"{quintuple[image]} (tau={word_str(tau)})")
    return None


def _check_thm3_2(nmax: int):
    _check_family_size("S", nmax)
    for n in range(1, nmax + 1):
        why = certify_csz(n)
        if why:
            return why
    return None


def _random_s_fraction(rng: random.Random, levels: int) -> SFraction:
    """c_1..c_levels, each a nonzero a_0 + a_1 q + a_2 q^2 with a_0, a_1,
    a_2 drawn from -3..3 in that order."""
    polys = []
    for _ in range(levels):
        poly = LaurentPoly()
        while poly.is_zero():
            poly = _from_q_dict({d: rng.randint(-3, 3) for d in range(3)})
        polys.append(poly)
    return SFraction(c=lambda k, _p=tuple(polys): _p[k - 1])


def _contraction_agrees(sf: SFraction, order: int):
    """Witness that the even or the odd contraction of an S-fraction over
    Z[q] does not expand to its convergents up to t^order, or None if both
    do.

    Both are compared with the oracle at one point, q = 2^B
    (``_point_bits``), over plain ints: c_1..c_(order+4) are evaluated there
    once, both contractions of that int-valued fraction are expanded by the
    transfer pass (``_contractions_at``), and each is compared with
    ``convergents_at``.  Evaluation at an integer is a ring homomorphism and
    the contractions and the pass only add and multiply, so each int pass
    is its Laurent polynomial series at 2^B, and the oracle's values are the
    fraction's.  Two polynomials in q whose coefficients are all below
    2^(B-1) in absolute value are equal exactly when they agree at 2^B,
    since balanced base-2^B digits are unique."""
    point = 1 << _point_bits(sf, order)
    even, odd = _contractions_at(sf, order, partial(value_at, q=point))
    oracle = convergents_at(sf, order, point)
    if even != oracle:
        return "even contraction mismatch"
    if odd != oracle:
        return "odd contraction mismatch"
    return None


def _contractions_at(sf: SFraction, order: int, value):
    """The even and the odd contraction of the S-fraction, as lists of the
    ints at t^0..t^order, with each of c_1..c_(order+4) replaced once by the
    int ``value(c_k)``.  Both are expanded by the transfer pass over ints,
    the odd one as 1 + c_1 t J."""
    cs = [value(sf.c(k)) for k in range(1, order + 5)]
    at = SFraction(c=lambda k: cs[k - 1])
    jf = contract_even(at)
    even = transfer(jf.ac, jf.b, None, order)
    c1, jf = contract_odd(at)
    odd = [1] + [c1 * v for v in transfer(jf.ac, jf.b, None, order)[:order]]
    return even, odd


def _matches_convergents(sf: SFraction, series: TruncSeries, order: int) -> bool:
    """Whether ``series``, a Laurent polynomial series, is the S-fraction's
    expansion up to t^order.

    Each t^n coefficient of ``series`` must be a polynomial in q, and B is
    taken above its own coefficients too (``_point_bits``); its rows are
    then compared at q = 2^B with the oracle ``convergents_at``, by the
    argument of ``_contraction_agrees``."""
    rows = []
    for n in range(order + 1):
        try:
            coeffs = _q_only(series.coeff(n))
        except ValueError:
            return False
        if any(e < 0 for e in coeffs):
            return False
        rows.append(coeffs)
    bits = _point_bits(sf, order, rows)
    return [sum(c << bits * e for e, c in row.items()) for row in rows] == (
        convergents_at(sf, order, 1 << bits))


def _point_bits(sf: SFraction, order: int, rows=()) -> int:
    """B with 2^(B-1) above every |coefficient| in ``rows`` (maps of q
    exponents to coefficients) and in the t^0..t^order of the fraction and
    of its even and odd contractions.

    Each coefficient of a t^n is a signed sum of products of coefficients
    of the c_k, one per path, so it is at most in absolute value the t^n of
    the same expansion with each c_k replaced by the sum of its absolute
    coefficients, at q = 1.  That takes three int passes: the fraction's
    convergents and each contraction's transfer pass.  The contractions'
    bounds come from their own passes, not from the contraction identity
    that ``contra`` tests."""
    absolute = SFraction(c=lambda k: LaurentPoly.const(_size(sf.c(k))))
    even, odd = _contractions_at(sf, order, _size)
    top = max(convergents_at(absolute, order, 1) + even + odd
              + [abs(c) for row in rows for c in row.values()])
    return top.bit_length() + 1


def _size(poly: LaurentPoly) -> int:
    """The sum of the absolute values of the coefficients."""
    return sum(map(abs, poly.terms.values()))


# contra's specialized presets, by the signed identity whose tangent and
# secant sides (with 1 at t^0) their expansions must equal
SPECIALIZED = {"jv": ("jv-tangent", "jv-secant"),
               "shin_zeng": ("sz-tangent", "sz-secant")}
CONTRA_TRIALS = 100
CONTRA_SEED = 0
CONTRA_SERIES_ORDER = 10


def _check_contra(order: int):
    # the specialised presets are compared with the signed Euler series up
    # to the order, and never below CONTRA_SERIES_ORDER
    series_order = max(order, CONTRA_SERIES_ORDER)
    for check_id, names in SPECIALIZED.items():
        at, *sides = SIGNED[check_id]
        bases = e_pq_upto(series_order, at)
        for name, side in zip(names, sides):
            pr = preset(name)
            big = pr.expand(series_order)
            j_series = TruncSeries(order, big.coeffs)
            is_s = isinstance(pr.s_form, SFraction)
            s_series = (expand_s if is_s else expand_j)(pr.s_form, order)
            if j_series != s_series:
                return f"{name}: level form disagrees with contracted form"
            if is_s:
                c1, jf = contract_odd(pr.s_form)
                if s_series != expand_odd_contraction(c1, jf, order):
                    return f"{name}: odd contraction mismatch"
                if not _matches_convergents(pr.s_form, s_series, order):
                    return f"{name}: even contraction mismatch"
            target = TruncSeries(series_order, [LaurentPoly.const(1)] + [
                side.value(n, bases[n]) for n in range(1, series_order + 1)])
            if big != target:
                return f"{name}: expansion differs from signed Euler series"
    rng = random.Random(CONTRA_SEED)
    levels = order + 4
    for t in range(CONTRA_TRIALS):
        why = _contraction_agrees(_random_s_fraction(rng, levels), order)
        if why:
            return f"random trial {t}: {why}"
    return None


def _check_sz_linear(nmax: int):
    _check_family_size("S", nmax)
    why = _check_signed("sz_linear", nmax)
    for n in range(1, nmax + 1):
        if why:
            break
        stats = stat_table(n, _INVOLUTION_WEIGHT)
        index = lex_index(n)
        why = certify_phi(n, stats, index) or certify_psi(n, stats, index)
    return why


# (ndes, toht, mad, fmax) as the first four digits of a stat_table vector
_INVOLUTION_WEIGHT = {"x": {"ndes": 1}, "y": {"toht": 1}, "p": {"mad": 1},
                      "q": {"fmax": 1}}


def _certify_involution(invol, name: str, domain, fixed_set: str, n: int,
                        stats, index, deltas_ok):
    """Witness that ``invol`` is not an involution of the words of length n
    in its domain fixing exactly the words of ``fixed_set`` and moving every
    other word's (ndes, toht, mad) as ``deltas_ok`` allows, or None if it
    is.  ``stats`` is stat_table(n, _INVOLUTION_WEIGHT) and ``index`` is
    lex_index(n), each built here if None.  ``domain`` tells the words of
    the domain by their ``stats`` vectors, or is None for all of S_n, so the
    involution is the only code that tests a word for it.

    The involution runs once per word of the domain: a first pass ranks
    every image through the index, and the second reads self-inverse from
    the ranks, so an image outside the domain shows as a word that is not
    self-inverse, and one outside S_n as a word whose image has no rank."""
    if n < 1:
        raise ValueError(f"the {name} is stated for n >= 1, got n={n}")
    if stats is None:
        stats = stat_table(n, _INVOLUTION_WEIGHT)
    if index is None:
        index = lex_index(n)
    # the rank of each word's image; -1 for a word outside the domain
    image = [index.get(invol(w)) if domain is None or domain(st) else -1
             for w, st in zip(index, stats)]
    for rank, sigma in enumerate(index):
        partner = image[rank]
        if partner == -1:
            continue
        if partner is None:
            return (f"sigma={word_str(sigma)}: image {word_str(invol(sigma))} "
                    f"is not in S_{n}")
        if image[partner] != rank:
            return f"n={n} sigma={word_str(sigma)}: {name} not self-inverse"
        fixed = family_contains(fixed_set, sigma)
        if fixed != (partner == rank):
            return f"n={n} sigma={word_str(sigma)}: wrong fixed set for {name}"
        if not fixed and not deltas_ok(stats[rank], stats[partner]):
            return f"n={n} sigma={word_str(sigma)}: {name} statistic deltas"
    return None


def certify_phi(n: int, stats=None, index=None):
    """invol_phi on S_n: fixed set Aprime_n; ndes changes by 1, toht stays."""
    return _certify_involution(
        invol_phi, "first involution", None, "Aprime", n, stats, index,
        lambda a, b: a[1] == b[1] and abs(a[0] - b[0]) == 1)


def certify_psi(n: int, stats=None, index=None):
    """invol_psi on Dstar_n, the words without a foremaximum (fmax 0):
    fixed set Adoubleprime_n; ndes changes by 1, toht by as much, and mad
    stays."""
    return _certify_involution(
        invol_psi, "second involution", lambda st: st[3] == 0, "Adoubleprime",
        n, stats, index,
        lambda a, b: (a[1] - b[1] == a[0] - b[0] and abs(a[0] - b[0]) == 1
                      and a[2] == b[2]))


def _check_sec7(nmax: int):
    rz = rz_series(nmax)
    euler = e_pq_upto(nmax, AT_ONE)
    euler_q = e_pq_upto(nmax, AT_Q)
    at_one = [parity_formula(n) for n in range(nmax + 1)]
    for n in range(nmax + 1):
        want = euler[n].as_int()
        if rz.coeff(n) != want:
            return f"t^{n} of rational series: {rz.coeff(n)} != {want}"
        if at_one[n] != want:
            return f"double sum at n={n}: {at_one[n]} != {want}"
    hrz = hrz_series(nmax)
    for n in range(nmax + 1):
        want = euler_q[n]
        if hrz.coeff(n) != want:
            return f"t^{n} of q-rational series: {hrz.coeff(n)} != {want}"
        qp = q_parity_formula(n)
        if qp != want:
            return f"q double sum at n={n}: {qp} != {want}"
        if qp.substitute({"q": 1}).as_int() != at_one[n]:
            return f"q double sum at q=1, n={n}, disagrees with integer double sum"
    return None


# pairs of statistics with one joint distribution over S_n
_EQUIDIST_PAIRS = (("suc", "ndes"), ("fmax", "ndes"), ("fix", "wex"))


def _check_equidist_remark(nmax: int):
    # one program at nmax per pair, as in _check_signed
    first, *rest = (stat_polynomials("S", nmax, {"x": {a: 1}, "y": {b: 1}})
                    for a, b in _EQUIDIST_PAIRS)
    for n in range(1, nmax + 1):
        for pair, dists in zip(_EQUIDIST_PAIRS[1:], rest):
            if dists[n] != first[n]:
                return (f"n={n}: {pair} distribution {dists[n]} != "
                        f"{_EQUIDIST_PAIRS[0]} distribution {first[n]}")
    return None


# ---------------------------------------------------------------------------
# registry

PERM_DEFAULT = 7
SERIES_DEFAULT = 8

# check id -> (check, default size, least size)
CHECKS = {
    "euler_roselle": (partial(_check_signed, "euler_roselle"), PERM_DEFAULT, 1),
    "foata_han": (partial(_check_signed, "foata_han"), PERM_DEFAULT, 1),
    "jv": (partial(_check_signed, "jv"), PERM_DEFAULT, 1),
    "shin_zeng": (partial(_check_signed, "shin_zeng"), PERM_DEFAULT, 1),
    "thm2_1": (partial(_check_series, "thm2_1"), SERIES_DEFAULT, 0),
    "cor2_2": (partial(_check_series, "cor2_2"), SERIES_DEFAULT, 0),
    "cor2_3": (partial(_check_series, "cor2_3"), SERIES_DEFAULT, 0),
    "thm3_2": (_check_thm3_2, PERM_DEFAULT, 1),
    "thm4_1": (partial(_check_series, "thm4_1"), SERIES_DEFAULT, 0),
    "cor_cf_A": (partial(_check_series, "cor_cf_A"), SERIES_DEFAULT, 0),
    "cor_cf_SZ": (partial(_check_series, "cor_cf_SZ"), SERIES_DEFAULT, 0),
    "contra": (_check_contra, 12, 0),
    "sz_linear": (_check_sz_linear, PERM_DEFAULT, 1),
    "mad_remark": (partial(_check_signed, "mad_remark"), PERM_DEFAULT, 1),
    "sec7": (_check_sec7, 12, 0),
    "equidist_remark": (_check_equidist_remark, PERM_DEFAULT, 1),
}

CHECK_IDS = tuple(CHECKS)


def check(check_id: str, param: int | None = None) -> CheckReport:
    try:
        fn, default, least = CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    param = default if param is None else param
    if param < 0:
        raise ValueError(f"check {check_id}: size must be nonnegative, got {param}")
    if param < least:
        raise ValueError(f"check {check_id}: size must be at least {least}, got {param}")
    start = time.perf_counter()
    witness = fn(param)
    elapsed = time.perf_counter() - start
    status = "pass" if witness is None else "fail"
    return CheckReport(check_id, param, status, elapsed, witness)
