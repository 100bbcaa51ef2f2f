"""Named verification checks, one per identity the library implements.

Every check compares two independently computed sides at exact equality and
reports the lexicographically first witness on failure.  A check with
parameter n verifies all sizes 1..n (so the zero cases of the wrong parity
are always exercised).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .algebra import LaurentPoly, TruncSeries
from .contfrac import (
    JFraction,
    SFraction,
    contract_even,
    contract_odd,
    expand_by_convergents,
    expand_j,
    expand_odd_contraction,
    expand_s,
    preset,
)
from .maps import csz, invol_phi, invol_psi
from .permstat import (
    LINEAR_QUINTUPLE_WEIGHT,
    QUINTUPLE_WEIGHT,
    family_contains,
    family_iter,
    lex_rank,
    stat_polynomial,
    stat_table,
)
from .qeuler import (
    AT_ONE,
    AT_Q,
    AT_QSTAR,
    e_pq,
    e_pq_upto,
    e_q,
    e_star_q,
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


def _signed(family: str, n: int, sign_stat: str, q_stat: str | None,
            sign: LaurentPoly) -> LaurentPoly:
    """Sum of sign^sign_stat * q^q_stat over the family."""
    weight = {"x": {sign_stat: 1}}
    if q_stat:
        weight["q"] = {q_stat: 1}
    return stat_polynomial(family, n, weight).substitute({"x": sign})


# ---------------------------------------------------------------------------
# individual checks: each returns None on success or a witness string


def _euler_cf(nmax: int, at: dict) -> list:
    """E_n(p,q) for n = 0..nmax by continued fraction, specialized by ``at``."""
    return [e.substitute(at) for e in e_pq_upto(nmax)]


def _check_euler_roselle(nmax: int):
    euler = [e.as_int() for e in _euler_cf(nmax, AT_ONE)]
    for n in range(1, nmax + 1):
        lhs_s = _signed("S", n, "exc", None, MINUS_ONE).as_int()
        want_s = 0 if n % 2 == 0 else (-1) ** ((n - 1) // 2) * euler[n]
        if lhs_s != want_s:
            return f"n={n} full sum {lhs_s} != {want_s}"
        lhs_d = _signed("D", n, "exc", None, MINUS_ONE).as_int()
        want_d = (-1) ** (n // 2) * euler[n] if n % 2 == 0 else 0
        if lhs_d != want_d:
            return f"n={n} derangement sum {lhs_d} != {want_d}"
    return None


def _check_foata_han(nmax: int):
    for n in range(1, nmax + 1):
        rhs_base = stat_polynomial("Astar", n, {"q": {"inv": 1}})
        lhs_s = _signed("S", n, "exc", "maj", MINUS_INV_Q)
        want_s = (LaurentPoly() if n % 2 == 0
                  else MINUS_ONE ** ((n - 1) // 2) * rhs_base)
        if lhs_s != want_s:
            return f"n={n} maj identity: {lhs_s} != {want_s}"
        lhs_d = _signed("D", n, "exc", "maj", MINUS_INV_Q)
        want_d = (MINUS_ONE ** (n // 2) * rhs_base if n % 2 == 0
                  else LaurentPoly())
        if lhs_d != want_d:
            return f"n={n} derangement maj identity: {lhs_d} != {want_d}"
    return None


def _check_jv(nmax: int):
    e_q_cf = _euler_cf(nmax, AT_Q)
    for n in range(1, nmax + 1):
        rhs_base = e_q_cf[n]
        lhs_s = _signed("S", n, "wex", "cros", MINUS_ONE)
        want_s = (LaurentPoly() if n % 2 == 0
                  else MINUS_ONE ** ((n + 1) // 2) * rhs_base)
        if lhs_s != want_s:
            return f"n={n} wex/cros identity: {lhs_s} != {want_s}"
        lhs_d = _signed("D", n, "exc", "cros", MINUS_INV_Q)
        want_d = (MINUS_INV_Q ** (n // 2) * rhs_base if n % 2 == 0
                  else LaurentPoly())
        if lhs_d != want_d:
            return f"n={n} derangement cros identity: {lhs_d} != {want_d}"
    return None


def _check_shin_zeng(nmax: int):
    e_star_q_cf = _euler_cf(nmax, AT_QSTAR)
    for n in range(1, nmax + 1):
        rhs_base = e_star_q_cf[n]
        lhs_s = _signed("S", n, "exc", "inv", MINUS_INV_Q)
        want_s = (LaurentPoly() if n % 2 == 0
                  else MINUS_ONE ** ((n - 1) // 2) * rhs_base)
        if lhs_s != want_s:
            return f"n={n} exc/inv identity: {lhs_s} != {want_s}"
        lhs_d = _signed("D", n, "exc", "inv", MINUS_ONE)
        want_d = (MINUS_Q ** (n // 2) * rhs_base if n % 2 == 0
                  else LaurentPoly())
        if lhs_d != want_d:
            return f"n={n} derangement inv identity: {lhs_d} != {want_d}"
    return None


def _cf_vs_enum(order: int, tangent: str, secant: str, enum_fn):
    tan = preset(tangent).expand(order)
    sec = preset(secant).expand(order)
    for n in range(order + 1):
        got = tan.coeff(n) if n % 2 else sec.coeff(n)
        want = enum_fn(n)
        if got != want:
            return f"t^{n} of {tangent if n % 2 else secant}: {got} != {want}"
    return None


def _check_thm2_1(order: int):
    return _cf_vs_enum(order, "tangent-pq", "secant-pq",
                       lambda n: e_pq(n, cap=order))


def _check_cor2_2(order: int):
    return _cf_vs_enum(order, "tangent-q", "secant-q",
                       lambda n: e_q(n, cap=order))


def _check_cor2_3(order: int):
    return _cf_vs_enum(order, "tangent-qstar", "secant-qstar",
                       lambda n: e_star_q(n, cap=order))


def certify_csz(n: int):
    """Witness that csz is not a bijection of S_n carrying (ndes, fmax, toht,
    thto, mad) to (wex, fix, cros, nest, inv), or None if it is.

    Both sides read their statistics from one ``stat_table`` each, as
    exponent vectors (x, y, p, q, s) of the two quintuple weights.
    """
    linear = stat_table(n, LINEAR_QUINTUPLE_WEIGHT)
    quintuple = stat_table(n, QUINTUPLE_WEIGHT)
    seen = bytearray(len(quintuple))
    for rank, sigma in enumerate(family_iter("S", n)):
        tau = csz(sigma)
        if len(tau) != n:
            return f"sigma={sigma}: image {tau} is not in S_{n}"
        image = lex_rank(tau.word)
        if seen[image]:
            return f"n={n}: biword map is not injective (tau={tau})"
        seen[image] = 1
        if linear[rank] != quintuple[image]:
            return (f"sigma={sigma}: {linear[rank]} != {quintuple[image]} "
                    f"(tau={tau})")
    return None


def _check_thm3_2(nmax: int):
    for n in range(1, nmax + 1):
        why = certify_csz(n)
        if why:
            return why
    return None


def _cf_vs_stat(order: int, preset_name: str, weight: dict):
    series = preset(preset_name).expand(order)
    for n in range(order + 1):
        want = stat_polynomial("S", n, weight, cap=order)
        got = series.coeff(n)
        if got != want:
            return f"t^{n} of {preset_name}: {got} != {want}"
    return None


def _check_thm4_1(order: int):
    return _cf_vs_stat(order, "thm4.1", QUINTUPLE_WEIGHT)


def _check_cor_cf_a(order: int):
    return _cf_vs_stat(order, "cf-A",
                       {"x": {"wex": 1}, "y": {"fix": 1}, "q": {"cros": 1}})


def _check_cor_cf_sz(order: int):
    return _cf_vs_stat(order, "cf-SZ",
                       {"x": {"exc": 1}, "y": {"fix": 1}, "q": {"inv": 1}})


def _random_s_fraction(rng: random.Random, levels: int) -> SFraction:
    polys = []
    for _ in range(levels):
        poly = LaurentPoly()
        while poly.is_zero():
            poly = sum((LaurentPoly.var("q", d, coeff=rng.randint(-3, 3))
                        for d in range(3)), LaurentPoly())
        polys.append(poly)
    return SFraction(c=lambda k, _p=tuple(polys): _p[k - 1], power=1)


def _contraction_agrees(sf: SFraction, order: int):
    # the direct side is the convergent oracle: both contractions below are
    # expanded by the transfer pass, so they must not be compared with it
    direct = expand_by_convergents(sf, order)
    even = expand_j(contract_even(sf), order)
    if direct != even:
        return "even contraction mismatch"
    c1, jf = contract_odd(sf)
    odd = expand_odd_contraction(c1, jf, order)
    if direct != odd:
        return "odd contraction mismatch"
    return None


def _specialized_series_target(name: str, e_q_cf: list, e_star_q_cf: list):
    """The signed Euler-number series each specialized fraction must equal,
    to the order of the given E_n(q) and E*_n(q) lists (n = 0..order)."""
    order = len(e_q_cf) - 1
    coeffs = [LaurentPoly.const(1)]
    for n in range(1, order + 1):
        if name == "jv-tangent":
            c = (MINUS_ONE ** ((n + 1) // 2) * e_q_cf[n] if n % 2
                 else LaurentPoly())
        elif name == "jv-secant":
            c = (LaurentPoly() if n % 2
                 else MINUS_INV_Q ** (n // 2) * e_q_cf[n])
        elif name == "sz-tangent":
            c = (MINUS_ONE ** ((n - 1) // 2) * e_star_q_cf[n] if n % 2
                 else LaurentPoly())
        else:  # sz-secant
            c = (LaurentPoly() if n % 2
                 else MINUS_Q ** (n // 2) * e_star_q_cf[n])
        coeffs.append(c)
    return TruncSeries(order, coeffs)


SPECIALIZED = ("jv-tangent", "jv-secant", "sz-tangent", "sz-secant")


def _check_contra(order: int, trials: int = 100, seed: int = 0,
                  series_order: int = 10):
    euler_pq = e_pq_upto(series_order)
    e_q_cf = [e.substitute(AT_Q) for e in euler_pq]
    e_star_q_cf = [e.substitute(AT_QSTAR) for e in euler_pq]
    for name in SPECIALIZED:
        pr = preset(name)
        j_series = pr.expand(order)
        s_series = expand_s(pr.s_form, order)
        if j_series != s_series:
            return f"{name}: level form disagrees with contracted form"
        if pr.s_form.power == 1:
            why = _contraction_agrees(pr.s_form, order)
            if why:
                return f"{name}: {why}"
        target = _specialized_series_target(name, e_q_cf, e_star_q_cf)
        got = pr.expand(series_order)
        if got != target:
            return f"{name}: expansion differs from signed Euler series"
    rng = random.Random(seed)
    levels = order + 4
    for t in range(trials):
        sf = _random_s_fraction(rng, levels)
        why = _contraction_agrees(sf, order)
        if why:
            return f"random trial {t}: {why}"
    return None


def _check_sz_linear(nmax: int):
    e_q_cf = _euler_cf(nmax, AT_Q)
    for n in range(1, nmax + 1):
        rhs_base = e_q_cf[n]
        lhs_s = _signed("S", n, "ndes", "toht", MINUS_ONE)
        want_s = (LaurentPoly() if n % 2 == 0
                  else MINUS_ONE ** ((n + 1) // 2) * rhs_base)
        if lhs_s != want_s:
            return f"n={n} ndes/toht sum over S: {lhs_s} != {want_s}"
        lhs_d = _signed("Dstar", n, "ndes", "toht", MINUS_INV_Q)
        want_d = (MINUS_INV_Q ** (n // 2) * rhs_base if n % 2 == 0
                  else LaurentPoly())
        if lhs_d != want_d:
            return f"n={n} ndes/toht sum over coderangements: {lhs_d} != {want_d}"
        if lhs_s != _signed("Aprime", n, "ndes", "toht", MINUS_ONE):
            return f"n={n} sum over S differs from its fixed-set sum"
        if lhs_d != _signed("Adoubleprime", n, "ndes", "toht", MINUS_INV_Q):
            return f"n={n} coderangement sum differs from its fixed-set sum"
        why = _involution_certificates(n)
        if why:
            return why
    return None


# (ndes, toht, mad) as the first three digits of a stat_table vector
_INVOLUTION_WEIGHT = {"x": {"ndes": 1}, "y": {"toht": 1}, "p": {"mad": 1}}


def _involution_certificates(n: int):
    stats = stat_table(n, _INVOLUTION_WEIGHT)
    for rank, sigma in enumerate(family_iter("S", n)):
        tau = invol_phi(sigma)
        if len(tau) != n:
            return f"sigma={sigma}: image {tau} is not in S_{n}"
        if invol_phi(tau) != sigma:
            return f"n={n} sigma={sigma}: first involution not self-inverse"
        fixed = family_contains("Aprime", sigma.word)
        if fixed != (tau == sigma):
            return f"n={n} sigma={sigma}: wrong fixed set for first involution"
        if not fixed:
            a_ndes, a_toht, _, _, _ = stats[rank]
            b_ndes, b_toht, _, _, _ = stats[lex_rank(tau.word)]
            if a_toht != b_toht or abs(a_ndes - b_ndes) != 1:
                return f"n={n} sigma={sigma}: first involution statistic deltas"
    for sigma in family_iter("Dstar", n):
        tau = invol_psi(sigma)
        if len(tau) != n:
            return f"sigma={sigma}: image {tau} is not in S_{n}"
        if invol_psi(tau) != sigma:
            return f"n={n} sigma={sigma}: second involution not self-inverse"
        fixed = family_contains("Adoubleprime", sigma.word)
        if fixed != (tau == sigma):
            return f"n={n} sigma={sigma}: wrong fixed set for second involution"
        if not fixed:
            a_ndes, a_toht, a_mad, _, _ = stats[lex_rank(sigma.word)]
            b_ndes, b_toht, b_mad, _, _ = stats[lex_rank(tau.word)]
            if (a_toht - b_toht != a_ndes - b_ndes
                    or abs(a_ndes - b_ndes) != 1 or a_mad != b_mad):
                return f"n={n} sigma={sigma}: second involution statistic deltas"
    return None


def _check_mad_remark(nmax: int):
    for n in range(1, nmax + 1):
        dstar = _signed("Dstar", n, "ndes", "mad", MINUS_ONE)
        fixed = _signed("Adoubleprime", n, "ndes", "mad", MINUS_ONE)
        if dstar != fixed:
            return f"n={n}: MAD sum over coderangements {dstar} != {fixed}"
        via_inv = _signed("D", n, "exc", "inv", MINUS_ONE)
        if dstar != via_inv:
            return f"n={n}: MAD sum {dstar} != derangement inv sum {via_inv}"
    return None


def _check_sec7(nmax: int):
    q_cap = min(nmax, 10)
    q1_cap = min(nmax, 8)
    rz = rz_series(nmax)
    euler_pq = e_pq_upto(nmax)
    for n in range(nmax + 1):
        want = euler_pq[n].substitute(AT_ONE).as_int()
        if rz.coeff(n) != want:
            return f"t^{n} of rational series: {rz.coeff(n)} != {want}"
        if parity_formula(n) != want:
            return f"double sum at n={n}: {parity_formula(n)} != {want}"
    hrz = hrz_series(q_cap)
    for n in range(q_cap + 1):
        want = euler_pq[n].substitute(AT_Q)
        if hrz.coeff(n) != want:
            return f"t^{n} of q-rational series: {hrz.coeff(n)} != {want}"
        qp = q_parity_formula(n)
        if qp != want:
            return f"q double sum at n={n}: {qp} != {want}"
        if n <= q1_cap and qp.substitute({"q": 1}).as_int() != parity_formula(n):
            return f"q double sum at q=1, n={n}, disagrees with integer double sum"
    return None


# pairs of statistics with one joint distribution over S_n
_EQUIDIST_PAIRS = (("suc", "ndes"), ("fmax", "ndes"), ("fix", "wex"))


def _check_equidist_remark(nmax: int):
    for n in range(1, nmax + 1):
        first, *rest = (stat_polynomial("S", n, {"x": {a: 1}, "y": {b: 1}})
                        for a, b in _EQUIDIST_PAIRS)
        for pair, dist in zip(_EQUIDIST_PAIRS[1:], rest):
            if dist != first:
                return (f"n={n}: {pair} distribution {dist} != "
                        f"{_EQUIDIST_PAIRS[0]} distribution {first}")
    return None


# ---------------------------------------------------------------------------
# registry

PERM_DEFAULT = 7
SERIES_DEFAULT = 8

CHECKS = {
    "euler_roselle": (_check_euler_roselle, PERM_DEFAULT),
    "foata_han": (_check_foata_han, PERM_DEFAULT),
    "jv": (_check_jv, PERM_DEFAULT),
    "shin_zeng": (_check_shin_zeng, PERM_DEFAULT),
    "thm2_1": (_check_thm2_1, SERIES_DEFAULT),
    "cor2_2": (_check_cor2_2, SERIES_DEFAULT),
    "cor2_3": (_check_cor2_3, SERIES_DEFAULT),
    "thm3_2": (_check_thm3_2, PERM_DEFAULT),
    "thm4_1": (_check_thm4_1, SERIES_DEFAULT),
    "cor_cf_A": (_check_cor_cf_a, SERIES_DEFAULT),
    "cor_cf_SZ": (_check_cor_cf_sz, SERIES_DEFAULT),
    "contra": (_check_contra, 12),
    "sz_linear": (_check_sz_linear, PERM_DEFAULT),
    "mad_remark": (_check_mad_remark, PERM_DEFAULT),
    "sec7": (_check_sec7, 12),
    "equidist_remark": (_check_equidist_remark, PERM_DEFAULT),
}

CHECK_IDS = tuple(CHECKS)


def check(check_id: str, param: int | None = None) -> CheckReport:
    try:
        fn, default = CHECKS[check_id]
    except KeyError:
        raise ValueError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    param = default if param is None else param
    if param < 0:
        raise ValueError(f"check {check_id}: size must be nonnegative, got {param}")
    start = time.perf_counter()
    witness = fn(param)
    elapsed = time.perf_counter() - start
    status = "pass" if witness is None else "fail"
    return CheckReport(check_id, param, status, elapsed, witness)


def check_all(params: dict | None = None) -> list[CheckReport]:
    params = params or {}
    return [check(cid, params.get(cid)) for cid in CHECK_IDS]
