"""Permutations, their statistics, and the permutation families.

A permutation is its word: a raw tuple in one-line notation on 1..n.
``parse_word`` reads one from text, ``word_str`` writes one, and
``family_iter`` iterates over a family's words in lexicographic order.
Every routine that visits objects one at a time counts them first, and
``_check_count`` refuses more than ``MAX_OBJECTS``.

``stat_polynomials`` sums a weight over a family at every size up to n, in
the calling process, from one exact dynamic program over prefix states at n
(``_accumulate``): prefixes whose futures are identical merge, layer by
layer, every word is still counted once, and each smaller size is read off
its layer.  ``stat_polynomial`` is its sum at n.  Monomials are substituted
(``at``) in the same program, letter by letter.  The program alone judges its
size: a layer may hold at most ``DP_MAX_STATES`` states and
``DP_MAX_ENTRIES`` (state, key) entries, and a larger call raises
``EnumerationCapError``.  ``stat_table`` lists the weight's exponent vector
of every word of S_n from the same program: the word's lexicographic rank is
one more digit of its key, so no two words merge.  The per-word kernel
``stat_tuple`` computes every statistic of one word in one pass; it serves
only ``basic_stats`` (``pqeuler stats``), the bijection tests and the scan
oracle ``_accumulate_scan``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, make_dataclass

from .algebra import _PLACE, VAR_INDEX, VARS, LaurentPoly, _check_bound

BACKEND = "pure"

STAT_FIELDS = (
    "n", "exc", "wex", "fix", "des", "ndes", "maj", "inv", "cros", "nest",
    "toht", "thto", "thot", "fmax", "mad", "suc", "adj",
)
STAT_INDEX = {name: i for i, name in enumerate(STAT_FIELDS)}

# The most objects a routine may visit one at a time: 10!, every Laguerre
# history of length 10 and every word of S_10.
MAX_OBJECTS = math.factorial(10)
# What one layer of ``_accumulate`` may hold.  The widest layer of S_12 with
# the quintuple weight holds 48,182 states and 4,247,842 entries (683 MB in
# all).  Entries alone are not enough: where each state holds one key, the
# states are the cost.
DP_MAX_STATES = 200_000
DP_MAX_ENTRIES = 5_000_000


class EnumerationCapError(ValueError):
    """Raised when an exhaustive enumeration would exceed a size bound:
    ``MAX_OBJECTS`` for a routine that visits every object, or what one
    layer of the prefix-state dynamic program may hold."""


StatRecord = make_dataclass(
    "StatRecord", [(name, int) for name in STAT_FIELDS], frozen=True,
    namespace={"__module__": __name__, "to_json": asdict})


def parse_word(text: str) -> tuple:
    """The word of a permutation in one-line notation, such as 3142 or
    3,1,4,2."""
    stripped = text.strip()
    tokens = stripped.split(",") if "," in stripped else stripped
    try:
        word = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"bad permutation {text!r}: want one-line notation "
                         f"such as 3142 or 3,1,4,2") from None
    n = len(word)
    if sorted(word) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {word}")
    return word


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


def basic_stats(word: tuple) -> StatRecord:
    return StatRecord(*stat_tuple(word))


# ---------------------------------------------------------------------------
# the embracing numbers of a value, which ``fv`` reads


def pattern_k(w: tuple, k: int, which: str) -> int:
    """Embracing number of the value k: occurrences of the given vincular
    pattern whose middle (dashed) letter is k.

    which is one of "31-2" (left embracing), "2-31" (right embracing) or
    "2-13".
    """
    if which not in ("31-2", "2-31", "2-13"):
        raise ValueError(f"unknown pattern {which!r}")
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
        elif pos < l and a < k < b:   # 2-13
            count += 1
    return count


# ---------------------------------------------------------------------------
# permutation families

FAMILIES = ("S", "D", "Dstar", "A", "Astar", "Aprime", "Adoubleprime")


def is_alternating(word, falling: bool = False) -> bool:
    """s1 < s2 > s3 < s4 ..., or s1 > s2 < s3 > s4 ... when falling."""
    rises = not falling
    for i in range(len(word) - 1):
        if (word[i] < word[i + 1]) is not rises:
            return False
        rises = not rises
    return True


def is_falling_alternating(word) -> bool:
    """s1 > s2 < s3 > s4 ..."""
    return is_alternating(word, True)


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
        return is_alternating(word, True)
    if family == "Astar":
        return is_alternating(word)
    if family == "Aprime":
        return n % 2 == 1 and is_alternating(word, True)
    if family == "Adoubleprime":
        return n % 2 == 0 and is_alternating(word, True)
    raise ValueError(f"unknown family {family!r}")


def _check_family(family: str, n: int) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")


def _check_count(what: str, n: int, count) -> None:
    """Raise ``EnumerationCapError`` if ``what.format(n)`` has more than
    ``MAX_OBJECTS`` objects.  The number at size m grows with m over the
    sizes of n's parity: those are counted upward by ``count(m)``, and the
    first one past the bound refuses n uncounted.  ``count(m)`` is exact,
    or any number within the bound where the exact one cannot pass it."""
    for m in range(n % 2, n + 1, 2):
        found = count(m)
        if found > MAX_OBJECTS:
            raise EnumerationCapError(
                f"enumeration too large: {what.format(n)} has more than "
                f"MAX_OBJECTS = {MAX_OBJECTS} objects ({what.format(m)} "
                f"has {found})")


def _check_family_size(family: str, n: int) -> None:
    """Refuse a family of size n with more than ``MAX_OBJECTS`` words: S_m
    has m! words, and any other family has at most m!, so it is counted by
    ``stat_polynomial`` only at the sizes where m! passes the bound."""
    _check_family(family, n)
    _check_count(family + "_{}", n, lambda m: (
        math.factorial(m) if family == "S" or math.factorial(m) <= MAX_OBJECTS
        else stat_polynomial(family, m, {}).as_int()))


# each parity family is A at the sizes of its parity, and empty at the others
_PARITY = {"Aprime": 1, "Adoubleprime": 0}


def _letter_rule(family: str, n: int):
    """``rule(p, used, a)``: the mask (bit v for the value v) of the letters
    a word of the family of size n may take at position p after a prefix
    with used-value mask ``used`` and last letter ``a`` (0 for none).  A
    parity family has A's rule; ``_PARITY`` says at which sizes it holds."""
    full = (2 << n) - 2                  # bit v stands for the value v
    if family == "S":
        return lambda p, used, a: full & ~used
    if family == "D":
        return lambda p, used, a: full & ~used & ~(1 << p)
    if family == "Dstar":
        def rule(p, used, a):
            free = full & ~used
            if a == used.bit_length() - 1:
                free &= (1 << a) - 1     # a left-to-right maximum must fall
            if p == n:
                free &= ~(1 << n)        # nor may the word end on its maximum
            return free
        return rule
    # letter p falls below a in A at even p, in Astar at odd p
    falls = 1 if family == "Astar" else 0

    def rule(p, used, a):
        if p == 1:
            return full & ~used
        return full & ~used & ((1 << a) - 1 if p % 2 == falls else -(2 << a))
    return rule


def _walk(rule, n: int, p: int = 1, used: int = 0, prefix: tuple = ()):
    """The words of size n that extend ``prefix`` (of length p - 1, with
    used-value mask ``used``) by letters ``rule`` allows, in lexicographic
    order."""
    if p > n:
        yield prefix
        return
    free = rule(p, used, prefix[-1] if prefix else 0)
    while free:
        bv = free & -free
        free ^= bv
        yield from _walk(rule, n, p + 1, used | bv,
                         prefix + (bv.bit_length() - 1,))


def family_iter(family: str, n: int):
    """An iterator over the family's words of size n in lexicographic order,
    as raw tuples, once their number is within ``MAX_OBJECTS``.  S_n comes
    from ``itertools.permutations``; any other family is walked by the
    letter rule that ``_accumulate`` sums by, and a parity family has no
    word at a size of the other parity."""
    _check_family_size(family, n)
    if family == "S":
        return itertools.permutations(range(1, n + 1))
    if n % 2 != _PARITY.get(family, n % 2):
        return iter(())
    return _walk(_letter_rule(family, n), n)


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


# The statistics ``_accumulate`` updates letter by letter; n grows by one at
# each.  The other two are linear in them: ndes = n - des and
# mad = des + toht + 2 thto.
_LETTER_STATS = ("n", "exc", "wex", "fix", "des", "maj", "inv", "cros",
                 "nest", "toht", "thto", "thot", "fmax", "suc", "adj")
_DERIVED = {"ndes": {"n": 1, "des": -1},
            "mad": {"des": 1, "toht": 1, "thto": 2}}


def _packed_plan(plan, n: int):
    """The plan over words of size n as ({letter statistic: key increment},
    digit width, exponent bound).

    A key packs the exponent vector into one int: the exponent of VARS[i] is
    digit i in balanced base 2**width.  A letter statistic counts letters,
    pairs of positions, or (maj) the positions up to each descent, so on a
    word of size n and its prefixes none exceeds max(n, n(n-1)/2); that
    times a variable's absolute coefficients bounds its exponent.  The width
    holds the bound, so no digit ever carries into the next.  A bound past
    the algebra's digit range raises ``OverflowError`` before any layer.
    """
    coeffs = [dict.fromkeys(_LETTER_STATS, 0) for _ in VARS]
    for i, entries in enumerate(plan):
        for si, c in entries:
            name = STAT_FIELDS[si]
            for stat, mult in _DERIVED.get(name, {name: 1}).items():
                coeffs[i][stat] += c * mult
    bound = max(n, n * (n - 1) // 2) * max(
        sum(abs(c) for c in cs.values()) for cs in coeffs)
    _check_bound(bound)
    width = (2 * bound + 1).bit_length()
    incs = {stat: sum(cs[stat] << (width * i) for i, cs in enumerate(coeffs))
            for stat in _LETTER_STATS}
    return incs, width, bound


def _unpack(key: int, width: int) -> tuple:
    """The exponent vector of a key: half a unit added to every balanced
    digit makes each one nonnegative, so a shift and a mask read it."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    key += sum(half << (width * i) for i in range(len(VARS)))
    return tuple((key >> (width * i) & mask) - half for i in range(len(VARS)))


def _laurent(acc: dict, width: int, bound: int) -> LaurentPoly:
    """The LaurentPoly of {key: count}: each digit of a key, read as in
    ``_unpack``, moves to its ``algebra._PLACE`` place."""
    half = sum(1 << (width * i + width - 1) for i in range(len(VARS)))
    mask = (1 << width) - 1
    s1, s2, s3, s4 = width, 2 * width, 3 * width, 4 * width
    x, y, p, q, s = (place.bit_length() - 1 for place in _PLACE)
    offset = sum(_PLACE) << (width - 1)
    return LaurentPoly._packed({
        ((key & mask) << x | (key >> s1 & mask) << y | (key >> s2 & mask) << p
         | (key >> s3 & mask) << q | (key >> s4) << s) - offset: count
        for key, count in ((key + half, count) for key, count in acc.items()
                           if count)}, bound)


def _too_large(family: str, n: int, p: int, name: str, bound: int,
               what: str) -> EnumerationCapError:
    return EnumerationCapError(
        f"enumeration too large: layer {p} of the dynamic program over "
        f"{family}_{n} would hold more than {name} = {bound} {what}")


def _size_readout(layer: dict, m: int, width: int, bound: int, w_max: int,
                  w_one: int, sign: int | None, drop: int) -> LaurentPoly:
    """The sum over the words of size m, read from layer m of the program
    over a larger size: its states whose used set is exactly 1..m.  Each
    such prefix is a word of size m, whose keys lack only what the larger
    program adds at its own last letter: ``w_max`` where the last letter is
    m and ``w_one`` where it is 1, with x folded in as at every letter: its
    digit cleared, and the count's sign changed where it is odd and ``sign``
    is -1.  Words ending on ``drop`` are left out."""
    full = (2 << m) - 2
    half = 1 << (width - 1)
    corrections = {}                     # last letter -> (key, count sign)
    for a in {0, 1, m}:
        k = (w_max if a == m else 0) + (w_one if a == 1 else 0)
        x_digit = ((k + half) & (2 * half - 1)) - half if sign else 0
        corrections[a] = k - x_digit, -1 if x_digit & 1 and sign == -1 else 1
    other = corrections[0]
    acc: dict = {}
    get = acc.get
    for state in layer:
        if state[0] != full or state[1] == drop:
            continue
        k, c0 = corrections.get(state[1], other)
        for key, c in layer[state].items():
            key += k
            acc[key] = get(key, 0) + c0 * c
    return _laurent(acc, width, bound)


def _accumulate(family: str, n: int, plan, ranked: bool = False,
                sign: int | None = None):
    """The list of the sums over the family's words at the sizes 0..n, as
    LaurentPoly; with ``ranked``, the list of the exponent vectors of the
    words of S_n by lexicographic rank instead (None for a word left out).
    With ``sign`` (1 or -1), x is evaluated at it: the sums have no x and
    each count is signed.

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

    The letters a state may take next are those of the family's
    ``_letter_rule``, bound once per call; ``family_iter`` walks by the same
    rule.  Appending value v at position p adds to every key of the state
    what the new letter gives the weighted statistics, from O(1) bit counts
    over the state; fmax, suc and adj resolve at the next letter or the last
    one.
    Each layer is released as soon as the next one is built.  The sum is
    never split: the words of every first letter share the later layers, so
    parts summed apart would each rebuild most of them.

    The program bounds what it holds.  A layer that would hold more than
    ``DP_MAX_STATES`` states or ``DP_MAX_ENTRIES`` (state, key) entries
    raises ``EnumerationCapError`` while it is being built: states are
    counted as they are made, and entries after each source state, by the
    size of each target before and after the merge.  In every family, for
    2 <= p < n, the prefixes of length p take every set of p values, so
    layer p holds at least C(n, p) states, one per used set.  An n with
    C(n, n // 2) > ``DP_MAX_STATES`` is therefore refused before any work,
    and no n the program could hold is.  The cros table ``spread`` grows by
    one doubling per layer, so that it never outgrows the layers.

    With ``sign``, x is evaluated at each letter (see ``_fold``): the x
    digit of a key increment (the lowest) is cleared, and when it is odd and
    ``sign`` is -1 the counts change sign.  Keys then never differ in x
    alone, so fewer of them stay apart.

    A word's rank adds up letter by letter as well: appending v at position
    p adds (n - p)! for each unused value below v.  With ``ranked``, that
    sum is one more digit of the key, above the exponent digits, so every
    word keeps a key of its own, and the result is read back by rank.
    Ranked keys never merge, so a ranked state holds the list of its
    prefixes' keys rather than a map of counts, and each state is released
    as soon as it is read.

    The sum at each size m < n is read off layer m by ``_size_readout``,
    the transfer-matrix method read at every layer.  The family's words of
    size m are the prefixes of length m whose used set is exactly 1..m, but
    that a coderangement may not end on its maximum (the rule checks it only
    at letter n).  Every statistic, n among them, is what the letters so far
    add, so their keys lack only what the program adds at its last letter
    alone: fmax, suc and adj.  The readout is a function of its own: a
    closure here would make the hot loop's locals cell variables.
    ``_laurent`` makes each sum from the keys as they are.
    """
    if n == 0:
        return [(0,) * len(VARS) if ranked else LaurentPoly.const(1)]
    # the least size from 4 on (so 2 <= size // 2 < size) whose layer
    # size // 2 outgrows the state bound; C(n, n // 2) grows with n, so
    # every n from it on is refused without computing its binomial
    least = 4
    while math.comb(least, least // 2) <= DP_MAX_STATES:
        least += 1
    if n >= least:
        raise _too_large(family, n, n // 2, "DP_MAX_STATES", DP_MAX_STATES,
                         "states")
    inc, width, bound = _packed_plan(plan, n)
    rule = _letter_rule(family, n)
    top = width * len(VARS)              # the rank digit starts here
    # the x digit: its balanced value is ((k + x_half) & x_mask) - x_half
    x_half = 1 << (width - 1)
    x_mask = (1 << width) - 1
    odd = 1 if sign == -1 else 0         # what an odd x digit flips
    w_n, w_des, w_maj, w_inv, w_cros, w_nest = (
        inc["n"], inc["des"], inc["maj"], inc["inv"], inc["cros"], inc["nest"])
    w_toht, w_thto, w_thot = inc["toht"], inc["thto"], inc["thot"]
    w_fmax, w_suc, w_adj = inc["fmax"], inc["suc"], inc["adj"]
    w_exc_wex = inc["exc"] + inc["wex"]
    w_fix_wex = inc["fix"] + inc["wex"]
    need_above = bool(w_inv or w_nest)
    need_between = bool(w_toht or w_thto)
    # every family but S and D reads the last letter in its rule
    keep_last = bool(w_des or w_maj or need_between or w_thot or w_fmax
                     or w_suc or w_adj or family not in ("S", "D"))

    # crossing counts: the count of value v is digit v in base 2**cw; no
    # count exceeds n - 1.  spread[mask] has a 1 in the digit of each value
    # in the mask; layer p reads it for masks of the values below p.
    cw = n.bit_length()
    digit = (1 << cw) - 1
    spread = [0]

    sizes = [LaurentPoly.const(1)]       # the sums at the sizes below n
    final = [] if ranked else {}         # the keys of the words of size n
    # state: (used values, last letter, values u placed at a position > u,
    # crossing counts); fields the plan and family never read stay 0
    layer = {(0, 0, 0, 0): [0] if ranked else {0: 1}}
    for p in range(1, n + 1):
        nxt: dict = {}
        held = 0                         # the (state, key) entries of nxt
        if w_cros:
            unit = 1 << cw * (p - 1)
            spread += [s + unit for s in spread]
        w_rank = math.factorial(n - p) << top
        # a ranked layer holds one key per prefix: free it state by state
        states = ((layer.popitem() for _ in range(len(layer))) if ranked
                  else layer.items())
        for (used, a, below, cros), keys in states:
            m = used.bit_length() - 1
            free = rule(p, used, a)
            down = w_des + w_maj * (p - 1)
            after_max = p > 1 and a == m
            while free:
                bv = free & -free
                free ^= bv
                v = bv.bit_length() - 1
                k = w_n
                if ranked:
                    # the unused values below v
                    k += w_rank * (~used & (bv - 2)).bit_count()
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
                flip = False
                if sign is not None:
                    x_digit = ((k + x_half) & x_mask) - x_half
                    k -= x_digit
                    flip = x_digit & odd
                if p == n:
                    target = final
                else:
                    state = (used | bv, v if keep_last else 0,
                             below | bv if w_nest and v < p else below,
                             next_cros)
                    target = nxt.get(state)
                    if target is None:
                        nxt[state] = (
                            [key + k for key in keys] if ranked else
                            {key + k: -c for key, c in keys.items()} if flip
                            else {key + k: c for key, c in keys.items()})
                        held += len(keys)
                        if len(nxt) > DP_MAX_STATES:
                            raise _too_large(family, n, p, "DP_MAX_STATES",
                                             DP_MAX_STATES, "states")
                        continue
                if ranked:
                    target.extend([key + k for key in keys])
                    held += len(keys)
                    continue
                before = len(target)
                get = target.get
                if flip:
                    for key, c in keys.items():
                        key += k
                        target[key] = get(key, 0) - c
                else:
                    for key, c in keys.items():
                        key += k
                        target[key] = get(key, 0) + c
                held += len(target) - before
            if held > DP_MAX_ENTRIES:
                raise _too_large(family, n, p, "DP_MAX_ENTRIES",
                                 DP_MAX_ENTRIES, "(state, key) entries")
        if p < n and not ranked:
            sizes.append(_size_readout(nxt, p, width, bound, w_fmax + w_suc,
                                       w_adj, sign,
                                       p if family == "Dstar" else -1))
        layer = nxt
    if not ranked:
        return sizes + [_laurent(final, width, bound)]
    # the exponent digits are balanced and sum to less than half the rank
    # digit's unit in size, so rounding off below ``top`` leaves the rank
    half = 1 << (top - 1)
    table = [None] * math.factorial(n)
    vectors: dict = {}
    for key in final:
        rank = (key + half) >> top
        low = key - (rank << top)
        vector = vectors.get(low)
        if vector is None:
            vector = vectors[low] = _unpack(low, width)
        table[rank] = vector
    return table


def stat_table(n: int, weight: dict) -> list:
    """The weight's exponent vector of every word of S_n, indexed by the
    word's lexicographic rank (as in ``lex_index``).

    ``_accumulate`` over S_n with the rank digit gives every word a key of
    its own, which is read back by rank.  Equal vectors share one tuple.
    """
    _check_family_size("S", n)
    return _accumulate("S", n, _weight_plan(weight), ranked=True)


def lex_index(n: int) -> dict:
    """{word: rank} over S_n, in lexicographic order, as raw tuples.

    Iterating over it gives the words in rank order, and the rank of any
    tuple is one lookup; a tuple that is not a word of S_n has none.
    """
    _check_family_size("S", n)
    return {word: rank for rank, word in
            enumerate(itertools.permutations(range(1, n + 1)))}


def _accumulate_scan(family: str, n: int, plan) -> dict:
    """Oracle for ``_accumulate``, used only by tests: every word of S_n,
    kept by ``family_contains`` and weighed through ``stat_tuple``."""
    acc: dict = {}
    for word in itertools.permutations(range(1, n + 1)):
        if not family_contains(family, word):
            continue
        st = stat_tuple(word)
        e = tuple(sum(c * st[si] for si, c in entries) for entries in plan)
        acc[e] = acc.get(e, 0) + 1
    return acc


def _fold(plan, at):
    """(plan, sign) for the sum with each variable of ``at`` evaluated at its
    value, 1 or a monomial in the variables not substituted, times -1 only
    for x: a ring homomorphism, so each variable's weight gains its exponent
    in every value times the substituted variable's weight, and a substituted
    variable other than x loses its own.  ``_accumulate`` clears x's digit
    and folds in its sign at each letter."""
    plan, sign = list(plan), None
    for var, value in (at or {}).items():
        value = LaurentPoly.const(value) if isinstance(value, int) else value
        terms = value.sorted_terms() if isinstance(value, LaurentPoly) else ()
        exps, c = terms[0] if len(terms) == 1 else ((), 0)
        if (var not in VAR_INDEX or c not in ((1, -1) if var == "x" else (1,))
                or any(exps[VAR_INDEX[u]] for u in at if u in VAR_INDEX)):
            raise ValueError(f"cannot substitute {value!r} for {var!r}: want "
                             f"one of {', '.join(VARS)} and 1 or a monomial in "
                             f"the others, times -1 only for x")
        i = VAR_INDEX[var]
        for j, e in enumerate(exps):
            if e:
                plan[j] += tuple((si, coeff * e) for si, coeff in plan[i])
        if var == "x":
            sign = c
        else:
            plan[i] = ()
    return tuple(plan), sign


def default_workers() -> int:
    """1, the process count of every sum.  Kept only because the benchmark
    under ``perfbench/`` prints it on every run."""
    return 1


def stat_polynomials(family: str, nmax: int, weight: dict,
                     at: dict | None = None) -> list:
    """Sums of the weight monomial over the family at the sizes 0..nmax,
    from one ``_accumulate`` at nmax, so a size too large for the program is
    refused before any work.  A parity family is A's sums at its parity (one
    program at the largest such size <= nmax, none if there is no such size)
    and 0 at the other.  With ``at``, a map as ``LaurentPoly.substitute``
    takes, they are ``.substitute(at)`` of the plain sums, evaluated inside
    the program (see ``_fold``)."""
    _check_family(family, nmax)
    plan, sign = _fold(_weight_plan(weight), at)
    if family not in _PARITY:
        return _accumulate(family, nmax, plan, sign=sign)
    parity = _PARITY[family]
    sums = [LaurentPoly()] * (nmax + 1)
    top = nmax - (nmax - parity) % 2
    if top >= 0:
        sums[parity::2] = _accumulate("A", top, plan, sign=sign)[parity::2]
    return sums


def stat_polynomial(family: str, n: int, weight: dict,
                    workers: int | None = None,
                    parallel_threshold: int | None = None,
                    at: dict | None = None) -> LaurentPoly:
    """The sum at size n of ``stat_polynomials``; a parity family's sum at a
    size of the other parity is 0, once the arguments are checked, with no
    program.  ``workers`` and ``parallel_threshold`` are accepted and
    ignored: the benchmark under ``perfbench/`` still passes them."""
    if n % 2 == _PARITY.get(family, n % 2):
        return stat_polynomials(family, n, weight, at)[n]
    _check_family(family, n)
    _fold(_weight_plan(weight), at)
    return LaurentPoly()
