"""Permutations, their statistics, and the permutation families.

Words are in one-line notation on 1..n.  ``stat_polynomial`` sums a weight
over a family by an exact dynamic program over prefix states
(``_accumulate``): prefixes whose futures are identical are merged, layer by
layer, and every word is still counted once.  A state keeps only what the
family and the weighted statistics read: the used-value mask (whose top bit
is the running maximum), the last letter, the mask of values placed right of
their own position (for nest) and one packed crossing count per free value
below the position (for cros).  ``stat_table`` lists the weight's exponent
vector of every word of S_n from a depth-first walk over prefixes, the only
per-word path.  The per-word kernel ``stat_tuple`` computes every statistic
of one word in one pass; it serves only ``basic_stats`` (``pqeuler stats``),
the bijection tests and the scan oracle ``_accumulate_scan``.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, make_dataclass

from .algebra import LaurentPoly, VARS

BACKEND = "pure"

STAT_FIELDS = (
    "n", "exc", "wex", "fix", "des", "ndes", "maj", "inv", "cros", "nest",
    "toht", "thto", "thot", "fmax", "mad", "suc", "adj",
)
STAT_INDEX = {name: i for i, name in enumerate(STAT_FIELDS)}

WORKERS_ENV = "PQEULER_WORKERS"
DEFAULT_CAP = 11


class EnumerationCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed the configured cap."""


StatRecord = make_dataclass(
    "StatRecord", [(name, int) for name in STAT_FIELDS], frozen=True,
    namespace={"__module__": __name__, "to_json": asdict})


class Permutation:
    """A word on [n] in one-line notation (1-based values and positions)."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {word}")
        self.word = word

    @classmethod
    def _trusted(cls, word: tuple) -> "Permutation":
        """The permutation of a tuple the package has just built as one,
        without the check."""
        sigma = object.__new__(cls)
        sigma.word = word
        return sigma

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        return self.word[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation._trusted(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __len__(self):
        return len(self.word)

    def __iter__(self):
        return iter(self.word)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        text = text.strip()
        if "," in text:
            return cls(int(tok) for tok in text.split(","))
        return cls(int(ch) for ch in text)

    def __str__(self):
        return word_str(self.word)

    def __repr__(self):
        return f"Permutation({self})"


def word_str(word) -> str:
    """One-line notation: the letters run together while all are digits,
    else comma-separated."""
    if all(0 <= v <= 9 for v in word):
        return "".join(map(str, word))
    return ",".join(map(str, word))


def stat_tuple(word):
    """All statistics of ``word`` as a tuple ordered like STAT_FIELDS."""
    n = len(word)
    exc = wex = fix = 0
    for i in range(n):
        v = word[i]
        pos = i + 1
        if v > pos:
            exc += 1
        if v >= pos:
            wex += 1
        if v == pos:
            fix += 1

    des = maj = 0
    for i in range(n - 1):
        if word[i] > word[i + 1]:
            des += 1
            maj += i + 1
    ndes = n - des

    inv = 0
    for i in range(n):
        wi = word[i]
        for j in range(i + 1, n):
            if wi > word[j]:
                inv += 1

    cros = nest = 0
    for i in range(1, n + 1):
        si = word[i - 1]
        for j in range(i + 1, n + 1):
            sj = word[j - 1]
            if j <= si < sj:          # i < j <= s_i < s_j
                cros += 1
            elif si < sj < i:         # s_i < s_j < i < j
                cros += 1
            if j <= sj < si:          # i < j <= s_j < s_i
                nest += 1
            elif sj < si < i:         # s_j < s_i < i < j
                nest += 1

    # vincular patterns anchored at the adjacent pair (t, t+1)
    toht = thto = thot = 0
    for t in range(n - 1):
        a = word[t]
        b = word[t + 1]
        for j in range(t + 2, n):     # 31-2: the 2 strictly right of the pair
            v = word[j]
            if a > v > b:
                toht += 1
        for j in range(t):            # 2-31 / 2-13: the 2 strictly left
            v = word[j]
            if a > v > b:
                thto += 1
            elif a < v < b:
                thot += 1

    fmax = 0
    running_max = 0
    for i in range(n):
        v = word[i]
        if v > running_max:
            running_max = v
            if i == n - 1 or v < word[i + 1]:
                fmax += 1

    suc = adj = 0
    for i in range(n):
        nxt = word[i + 1] if i + 1 < n else n + 1
        if nxt == word[i] + 1:
            suc += 1
        nxt = word[i + 1] if i + 1 < n else 0
        if nxt == word[i] - 1:
            adj += 1

    mad = des + toht + 2 * thto
    return (n, exc, wex, fix, des, ndes, maj, inv, cros, nest,
            toht, thto, thot, fmax, mad, suc, adj)


def basic_stats(sigma) -> StatRecord:
    word = sigma.word if isinstance(sigma, Permutation) else tuple(sigma)
    return StatRecord(*stat_tuple(word))


# ---------------------------------------------------------------------------
# per-index statistics (k is a 1-based position or a value, per each
# statistic's own definition)


def _word(sigma):
    return sigma.word if isinstance(sigma, Permutation) else tuple(sigma)


def cros_k(sigma, k: int) -> int:
    """Crossing index anchored at k: l < k <= s_l < s_k or s_k < s_l < k < l."""
    w = _word(sigma)
    n = len(w)
    sk = w[k - 1]
    count = 0
    for l in range(1, n + 1):
        sl = w[l - 1]
        if l < k <= sl < sk:
            count += 1
        elif sk < sl < k < l:
            count += 1
    return count


def nest_k(sigma, k: int) -> int:
    """Nesting index anchored at k: l < k <= s_k < s_l or s_l < s_k < k < l."""
    w = _word(sigma)
    n = len(w)
    sk = w[k - 1]
    count = 0
    for l in range(1, n + 1):
        sl = w[l - 1]
        if l < k <= sk < sl:
            count += 1
        elif sl < sk < k < l:
            count += 1
    return count


def pattern_k(sigma, k: int, which: str) -> int:
    """Embracing number of the value k: occurrences of the given vincular
    pattern whose middle (dashed) letter is k.

    which is one of "31-2" (left embracing), "2-31" (right embracing) or
    "2-13".
    """
    w = _word(sigma)
    n = len(w)
    pos = w.index(k) + 1
    count = 0
    for l in range(1, n):
        a, b = w[l - 1], w[l]
        if which == "31-2":
            if l + 1 < pos and a > k > b:
                count += 1
        elif which == "2-31":
            if pos < l and a > k > b:
                count += 1
        elif which == "2-13":
            if pos < l and a < k < b:
                count += 1
        else:
            raise ValueError(f"unknown pattern {which!r}")
    return count


def inv_parts(sigma, k: int):
    """Sizes of the four inversion classes anchored at k (positions for the
    first three, value for the fourth)."""
    w = _word(sigma)
    n = len(w)
    parts = [0, 0, 0, 0]
    for i in range(1, n + 1):
        si = w[i - 1]
        for j in range(i + 1, n + 1):
            sj = w[j - 1]
            if si <= sj:
                continue
            if j <= sj:
                if k == j:
                    parts[0] += 1
            elif sj <= i:
                if k == i:
                    if si < i:
                        parts[1] += 1
                    else:
                        parts[2] += 1
            elif i < sj:  # i < s_j < j
                if k == sj:
                    parts[3] += 1
    return tuple(parts)


def inv_k(sigma, k: int) -> int:
    return sum(inv_parts(sigma, k))


def cyclic_type(sigma, k: int) -> str:
    w = _word(sigma)
    sk = w[k - 1]
    if sk == k:
        return "fixed"
    ik = w.index(k) + 1
    if ik > k < sk:
        return "cyclic-valley"
    if ik < k > sk:
        return "cyclic-peak"
    if ik < k < sk:
        return "cyclic-double-ascent"
    return "cyclic-double-descent"


# ---------------------------------------------------------------------------
# permutation families

FAMILIES = ("S", "D", "Dstar", "A", "Astar", "Aprime", "Adoubleprime")


def is_falling_alternating(word) -> bool:
    """s1 > s2 < s3 > s4 ..."""
    for i in range(len(word) - 1):
        if i % 2 == 0:
            if word[i] < word[i + 1]:
                return False
        elif word[i] > word[i + 1]:
            return False
    return True


def is_alternating(word) -> bool:
    """s1 < s2 > s3 < s4 ..."""
    for i in range(len(word) - 1):
        if i % 2 == 0:
            if word[i] > word[i + 1]:
                return False
        elif word[i] < word[i + 1]:
            return False
    return True


def is_derangement(word) -> bool:
    return all(v != i for i, v in enumerate(word, start=1))


def is_coderangement(word) -> bool:
    """No foremaximum: every left-to-right maximum is a descent."""
    n = len(word)
    running_max = 0
    for i in range(n):
        v = word[i]
        if v > running_max:
            running_max = v
            if i == n - 1 or v < word[i + 1]:
                return False
    return True


def family_contains(family: str, word) -> bool:
    n = len(word)
    if family == "S":
        return True
    if family == "D":
        return is_derangement(word)
    if family == "Dstar":
        return is_coderangement(word)
    if family == "A":
        return is_falling_alternating(word)
    if family == "Astar":
        return is_alternating(word)
    if family == "Aprime":
        return n % 2 == 1 and is_falling_alternating(word)
    if family == "Adoubleprime":
        return n % 2 == 0 and is_falling_alternating(word)
    raise ValueError(f"unknown family {family!r}")


def _check_size(family: str, n: int, cap: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise EnumerationCapError(
            f"enumeration too large: n={n} exceeds cap {cap}")


def iter_family_words(family: str, n: int, cap: int = DEFAULT_CAP):
    """Words of the family in lexicographic order (raw tuples)."""
    _check_size(family, n, cap)
    if n == 0:
        if family in ("S", "A", "Astar"):
            yield ()
        return
    for word in itertools.permutations(range(1, n + 1)):
        if family_contains(family, word):
            yield word


def family_iter(family: str, n: int, cap: int = DEFAULT_CAP):
    for word in iter_family_words(family, n, cap):
        yield Permutation._trusted(word)


# ---------------------------------------------------------------------------
# statistic-generating polynomials

# weight: {variable: {statistic: integer exponent coefficient}}, e.g. the
# quintuple weight x^wex y^fix q^cros p^nest s^inv is
#   {"x": {"wex": 1}, "y": {"fix": 1}, "q": {"cros": 1},
#    "p": {"nest": 1}, "s": {"inv": 1}}

QUINTUPLE_WEIGHT = {"x": {"wex": 1}, "y": {"fix": 1}, "q": {"cros": 1},
                    "p": {"nest": 1}, "s": {"inv": 1}}
LINEAR_QUINTUPLE_WEIGHT = {"x": {"ndes": 1}, "y": {"fmax": 1},
                           "q": {"toht": 1}, "p": {"thto": 1}, "s": {"mad": 1}}


def _weight_plan(weight: dict):
    for var in weight:
        if var not in VARS:
            raise ValueError(f"unknown weight variable {var!r}; "
                             f"known: {', '.join(VARS)}")
    plan = []
    for var in VARS:
        stats = weight.get(var, {})
        for stat, coeff in stats.items():
            if stat not in STAT_INDEX:
                raise ValueError(f"unknown statistic {stat!r}")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficient of {stat!r} in {var!r} must be "
                                 f"an integer, got {coeff!r}")
        plan.append(tuple((STAT_INDEX[stat], coeff)
                          for stat, coeff in stats.items()))
    return tuple(plan)


# The statistics the prefix walk updates.  The other three are linear in
# them: n is a constant, ndes = n - des and mad = des + toht + 2 thto.
_WALK_STATS = ("exc", "wex", "fix", "des", "maj", "inv", "cros", "nest",
               "toht", "thto", "thot", "fmax", "suc", "adj")
_DERIVED = {"n": ({}, 1), "ndes": ({"des": -1}, 1),
            "mad": ({"des": 1, "toht": 1, "thto": 2}, 0)}


def _packed_plan(plan, n: int):
    """The plan over words of size n as (start key, {walk statistic: key
    increment}, digit width).

    A key packs the exponent vector into one int: the exponent of VARS[i] is
    digit i in balanced base 2**width.  No statistic exceeds n*n, so the width
    is chosen to hold every exponent a word of size n can reach, and no digit
    ever carries into the next.
    """
    coeffs = [dict.fromkeys(_WALK_STATS, 0) for _ in VARS]
    consts = [0] * len(VARS)
    for i, entries in enumerate(plan):
        for si, c in entries:
            name = STAT_FIELDS[si]
            terms, per_n = _DERIVED.get(name, ({name: 1}, 0))
            consts[i] += c * per_n * n
            for stat, mult in terms.items():
                coeffs[i][stat] += c * mult
    bound = max(abs(k) + n * n * sum(abs(c) for c in cs.values())
                for k, cs in zip(consts, coeffs))
    width = (2 * bound + 1).bit_length()
    start = sum(k << (width * i) for i, k in enumerate(consts))
    incs = {stat: sum(cs[stat] << (width * i) for i, cs in enumerate(coeffs))
            for stat in _WALK_STATS}
    return start, incs, width


def _unpack(key: int, width: int) -> tuple:
    mask, half = (1 << width) - 1, 1 << (width - 1)
    exps = []
    for _ in VARS:
        digit = key & mask
        if digit >= half:
            digit -= 1 << width
        exps.append(digit)
        key = (key - digit) >> width
    return tuple(exps)


def _accumulate(family: str, n: int, plan, firsts=None) -> dict:
    """{exponent vector: count} over the family's words of size n whose first
    letter is in ``firsts`` (default: any).

    An exact dynamic program over prefix states, layer by layer: the
    transfer-matrix method (Stanley, EC1 4.7) run over subsets, as in the
    subset DPs of Bellman and of Held and Karp (1962).  Layer p maps the state
    of each length-p prefix to {packed key: count}.  A state holds only what
    the family and the weighted statistics still read, so prefixes with the
    same future merge, and every word is still counted once:

    * the used-value mask (its top bit is the running maximum, which fmax and
      Dstar read);
    * the last letter, for des, maj, toht, thto, thot, suc, adj and fmax and
      for the alternating families and Dstar;
    * the values u placed at a position > u, for nest;
    * for cros, one count per free value v < p of the used values below v at
      positions v+1..p, packed into one int.  Appending w at position p adds
      1 to the count of every free v with w < v < p and clears that of w.

    Appending value v at position p adds to every key of the state what the
    new letter gives the weighted statistics, from O(1) bit counts over the
    state; fmax, suc and adj resolve at the next letter or the last one.
    Each layer is released as soon as the next one is built.
    """
    if n == 0:
        return {(0,) * len(VARS): 1} if family in ("S", "A", "Astar") else {}
    if family == "Aprime" and n % 2 == 0 or family == "Adoubleprime" and n % 2:
        return {}
    start, inc, width = _packed_plan(plan, n)
    w_des, w_maj, w_inv, w_cros, w_nest = (
        inc["des"], inc["maj"], inc["inv"], inc["cros"], inc["nest"])
    w_toht, w_thto, w_thot = inc["toht"], inc["thto"], inc["thot"]
    w_fmax, w_suc, w_adj = inc["fmax"], inc["suc"], inc["adj"]
    w_exc_wex = inc["exc"] + inc["wex"]
    w_fix_wex = inc["fix"] + inc["wex"]
    need_above = bool(w_inv or w_nest)
    need_between = bool(w_toht or w_thto)
    falling = family in ("A", "Aprime", "Adoubleprime")
    alternating = falling or family == "Astar"
    derangement = family == "D"
    coderangement = family == "Dstar"
    keep_last = bool(w_des or w_maj or need_between or w_thot or w_fmax
                     or w_suc or w_adj or alternating or coderangement)

    full = (2 << n) - 2                  # bit v stands for the value v
    first_mask = full
    if firsts is not None:
        first_mask = 0
        for first in firsts:
            first_mask |= 1 << first
    # crossing counts: the count of value v is digit v in base 2**cw; no
    # count exceeds n - 1.  spread[mask] has a 1 in the digit of each value
    # in the mask.
    cw = n.bit_length()
    digit = (1 << cw) - 1
    spread = [0] * (1 << n if w_cros else 1)
    for mask in range(1, len(spread)):
        low = mask & -mask
        spread[mask] = spread[mask ^ low] + (1 << cw * (low.bit_length() - 1))

    counts: dict = {}
    # state: (used values, last letter, values u placed at a position > u,
    # crossing counts); fields the plan and family never read stay 0
    layer = {(0, 0, 0, 0): {start: 1}}
    for p in range(1, n + 1):
        nxt: dict = {}
        for (used, a, below, cros), keys in layer.items():
            m = used.bit_length() - 1
            free = full & ~used
            if p == 1:
                free &= first_mask
            elif alternating:
                # letter p falls below a in A at even p, in Astar at odd p
                free &= (1 << a) - 1 if (p % 2 == 0) == falling else -(2 << a)
            elif coderangement and a == m:
                free &= (1 << a) - 1         # a left-to-right maximum must fall
            if derangement:
                free &= ~(1 << p)
            elif coderangement and p == n:
                free &= ~(1 << n)            # nor may the word end on its maximum
            down = w_des + w_maj * (p - 1)
            after_max = p > 1 and a == m
            while free:
                bv = free & -free
                free ^= bv
                v = bv.bit_length() - 1
                k = 0
                if v > p:
                    k += w_exc_wex
                elif v == p:
                    k += w_fix_wex
                if p > 1:
                    if a > v:
                        k += down
                        if need_between:
                            # values between v and a: 2-31 if already used,
                            # 31-2 if still to come
                            left = (used & ((1 << a) - (bv << 1))).bit_count()
                            k += w_thto * left + w_toht * (a - v - 1 - left)
                        if v == a - 1:
                            k += w_adj
                    else:
                        if w_thot:
                            k += w_thot * (used & (bv - (2 << a))).bit_count()
                        if v == a + 1:
                            k += w_suc
                if v > m and after_max:
                    k += w_fmax
                if need_above:
                    above = (used >> v).bit_count()
                    k += w_inv * above
                    if v >= p:
                        k += w_nest * above
                next_cros = cros
                if w_cros:
                    if v < p:
                        shift = cw * v
                        k += w_cros * ((cros >> shift) & digit)
                        next_cros = (cros & ~(digit << shift)) + spread[
                            ~used & ((1 << p) - (bv << 1))]
                    elif v > p:
                        k += w_cros * (used & (bv - (1 << p))).bit_count()
                if w_nest:
                    k += w_nest * (below >> v).bit_count()
                if p == n:
                    if v == n:
                        k += w_fmax + w_suc
                    if v == 1:
                        k += w_adj
                    target = counts
                else:
                    state = (used | bv, v if keep_last else 0,
                             below | bv if w_nest and v < p else below,
                             next_cros)
                    target = nxt.get(state)
                    if target is None:
                        nxt[state] = {key + k: c for key, c in keys.items()}
                        continue
                get = target.get
                for key, c in keys.items():
                    key += k
                    target[key] = get(key, 0) + c
        layer = nxt
    return {_unpack(key, width): count for key, count in counts.items()}


def _walk_keys(n: int, plan) -> list:
    """The packed key of every word of S_n (n >= 1) in lexicographic order.

    A depth-first walk over prefixes, in the manner of lexicographic
    generation (Knuth, TAOCP 4A 7.2.1.2).  Appending value v at position p
    adds to the key only what the new letter gives the weighted statistics,
    by the same increments as ``_accumulate``; cros reads the used values of
    the prefix of length v where ``_accumulate`` keeps a count.
    """
    start, inc, _ = _packed_plan(plan, n)
    w_des, w_maj, w_inv, w_cros, w_nest = (
        inc["des"], inc["maj"], inc["inv"], inc["cros"], inc["nest"])
    w_toht, w_thto, w_thot = inc["toht"], inc["thto"], inc["thot"]
    w_fmax, w_suc, w_adj = inc["fmax"], inc["suc"], inc["adj"]
    w_exc_wex = inc["exc"] + inc["wex"]
    w_fix_wex = inc["fix"] + inc["wex"]
    need_above = bool(w_inv or w_nest)
    need_between = bool(w_toht or w_thto)

    full = (2 << n) - 2                  # bit v stands for the value v
    prefix = [0] * (n + 1)               # values of the first k letters
    keys: list = []

    # used: values of the first p-1 letters; a: letter p-1 (0 at p = 1);
    # m: their maximum; below: values u placed at a position > u.
    def walk(p, used, a, m, key, below):
        free = full & ~used
        down = w_des + w_maj * (p - 1)
        after_max = p > 1 and a == m
        while free:
            bv = free & -free
            free ^= bv
            v = bv.bit_length() - 1
            k = key
            if v > p:
                k += w_exc_wex
            elif v == p:
                k += w_fix_wex
            if p > 1:
                if a > v:
                    k += down
                    if need_between:
                        left = (used & ((1 << a) - (bv << 1))).bit_count()
                        k += w_thto * left + w_toht * (a - v - 1 - left)
                    if v == a - 1:
                        k += w_adj
                else:
                    if w_thot:
                        k += w_thot * (used & (bv - (2 << a))).bit_count()
                    if v == a + 1:
                        k += w_suc
            if v > m:
                if after_max:
                    k += w_fmax
                new_max = v
            else:
                new_max = m
            if need_above:
                above = (used >> v).bit_count()
                k += w_inv * above
                if v >= p:
                    k += w_nest * above
            if w_cros:
                if v > p:
                    k += w_cros * (used & (bv - (1 << p))).bit_count()
                elif v < p - 1:
                    # values below v at positions v+1..p-1
                    low = bv - 1
                    k += w_cros * ((used & low).bit_count()
                                   - (prefix[v] & low).bit_count())
            if w_nest:
                k += w_nest * (below >> v).bit_count()
            if p == n:
                if v == n:
                    k += w_fmax + w_suc
                if v == 1:
                    k += w_adj
                keys.append(k)
            else:
                prefix[p] = used | bv
                walk(p + 1, used | bv, v, new_max, k,
                     below | bv if v < p else below)

    walk(1, 0, 0, 0, start, 0)
    return keys


def stat_table(n: int, weight: dict) -> list:
    """The weight's exponent vector of every word of S_n, indexed by the
    word's lexicographic rank (as in ``lex_index``), from one prefix walk.

    The walk visits S_n in lexicographic order, so the i-th key it leaves is
    that of the word of rank i.  Equal keys share one unpacked vector.
    """
    _check_size("S", n, DEFAULT_CAP)
    plan = _weight_plan(weight)
    if n == 0:
        return [(0,) * len(VARS)]
    keys = _walk_keys(n, plan)
    width = _packed_plan(plan, n)[2]
    vectors = {key: _unpack(key, width) for key in set(keys)}
    return [vectors[key] for key in keys]


def lex_index(n: int) -> dict:
    """{word: rank} over S_n, in lexicographic order, as raw tuples.

    Iterating over it gives the words in rank order, and the rank of any
    tuple is one lookup; a tuple that is not a word of S_n has none.
    """
    _check_size("S", n, DEFAULT_CAP)
    return {word: rank for rank, word in
            enumerate(itertools.permutations(range(1, n + 1)))}


def _accumulate_scan(family: str, n: int, plan, firsts=None) -> dict:
    """Oracle for ``_accumulate``, used only by tests: the family's words from
    ``iter_family_words`` whose first letter is in ``firsts`` (default: any;
    the empty word has none and always counts), each weighed through
    ``stat_tuple``."""
    acc: dict = {}
    for word in iter_family_words(family, n, cap=n):
        if n and firsts is not None and word[0] not in firsts:
            continue
        st = stat_tuple(word)
        e = tuple(sum(c * st[si] for si, c in entries) for entries in plan)
        acc[e] = acc.get(e, 0) + 1
    return acc


def _accumulate_task(args):
    family, n, plan, firsts = args
    return _accumulate(family, n, plan, firsts)


def default_workers() -> int:
    """PQEULER_WORKERS when set (a positive integer), else the CPU count."""
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    workers = int(env) if env.strip().isdecimal() else 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {env!r}")
    return workers


def stat_polynomial(family: str, n: int, weight: dict,
                    cap: int = DEFAULT_CAP, workers: int | None = None,
                    parallel_threshold: int = DEFAULT_CAP + 1) -> LaurentPoly:
    """Sum of the weight monomial over the family, by ``_accumulate``.

    The sum is split by first letter across processes when ``workers`` > 1
    and n >= parallel_threshold; the result is independent of the split.
    Each part repeats most of the dynamic program's shared layers, so on two
    workers the split is slower than one process at every n up to
    DEFAULT_CAP, and by default it is taken only above the cap.
    """
    _check_size(family, n, cap)
    plan = _weight_plan(weight)
    workers = default_workers() if workers is None else workers
    if workers > 1 and n >= parallel_threshold:
        chunks = [(family, n, plan, [first]) for first in range(1, n + 1)]
        acc: dict = {}
        with ProcessPoolExecutor(max_workers=min(workers, n)) as pool:
            for part in pool.map(_accumulate_task, chunks):
                for e, c in part.items():
                    acc[e] = acc.get(e, 0) + c
    else:
        acc = _accumulate(family, n, plan)
    return LaurentPoly(acc)


def family_size(family: str, n: int, cap: int = DEFAULT_CAP) -> int:
    if family == "S":
        return math.factorial(n)
    return stat_polynomial(family, n, {}, cap).as_int()
