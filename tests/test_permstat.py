import itertools
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from pqeuler import harness, permstat, qeuler
from pqeuler.algebra import EXP_LIMIT, VARS, LaurentPoly
from pqeuler.lattice import (
    enumerate_objects,
    laguerre_quintuple_weights,
    weighted_sum,
)
from pqeuler.qeuler import AT_Q, AT_QSTAR, e_pq
from pqeuler.permstat import (
    BACKEND,
    EnumerationCapError,
    FAMILIES,
    LINEAR_QUINTUPLE_WEIGHT,
    MAX_OBJECTS,
    QUINTUPLE_WEIGHT,
    STAT_FIELDS,
    basic_stats,
    family_contains,
    family_iter,
    is_coderangement,
    lex_index,
    parse_word,
    pattern_k,
    stat_polynomial,
    stat_polynomials,
    stat_table,
    stat_tuple,
    word_str,
)

from per_index import cros_k, cyclic_type, inv_k, inv_parts, nest_k

MINUS_INV_Q = LaurentPoly.var("q", -1, coeff=-1)

# ---------------------------------------------------------------------------
# independent oracles, written directly from the definitions


def naive_exc(w):
    return sum(1 for i, v in enumerate(w, 1) if v > i)


def naive_wex(w):
    return sum(1 for i, v in enumerate(w, 1) if v >= i)


def naive_maj(w):
    return sum(i for i in range(1, len(w)) if w[i - 1] > w[i])


def naive_inv(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
               if w[i] > w[j])


def naive_cros(w):
    n = len(w)
    return sum(1 for i in range(1, n + 1) for j in range(1, n + 1)
               if (i < j <= w[i - 1] < w[j - 1])
               or (w[i - 1] < w[j - 1] < i < j))


def naive_nest(w):
    n = len(w)
    return sum(1 for i in range(1, n + 1) for j in range(1, n + 1)
               if (i < j <= w[j - 1] < w[i - 1])
               or (w[j - 1] < w[i - 1] < i < j))


def naive_toht(w):
    # 31-2: positions i < j with w[i] > w[i+1] and w[i] > w[j] > w[i+1]
    n = len(w)
    return sum(1 for i in range(n - 1) for j in range(i + 2, n)
               if w[i] > w[j] > w[i + 1])


def naive_thto(w):
    # 2-31: positions j < i with w[i] > w[i+1] and w[i] > w[j] > w[i+1]
    n = len(w)
    return sum(1 for i in range(n - 1) for j in range(i)
               if w[i] > w[j] > w[i + 1])


def naive_thot(w):
    # 2-13: positions j < i with w[i] < w[i+1] and w[i] < w[j] < w[i+1]
    n = len(w)
    return sum(1 for i in range(n - 1) for j in range(i)
               if w[i] < w[j] < w[i + 1])


def naive_fmax(w):
    count = 0
    for i, v in enumerate(w):
        if v == max(w[:i + 1]) and (i == len(w) - 1 or v < w[i + 1]):
            count += 1
    return count


def naive_suc(w):
    ext = list(w) + [len(w) + 1]
    return sum(1 for i in range(len(w)) if ext[i + 1] == ext[i] + 1)


def naive_adj(w):
    # occurrences of w[i+1] = w[i] - 1, with w[n+1] = 0
    ext = list(w) + [0]
    return sum(1 for i in range(len(w)) if ext[i + 1] == ext[i] - 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_stats_against_naive(n):
    for w in itertools.permutations(range(1, n + 1)):
        st_rec = basic_stats(w)
        assert st_rec.exc == naive_exc(w)
        assert st_rec.wex == naive_wex(w)
        assert st_rec.fix == sum(1 for i, v in enumerate(w, 1) if v == i)
        assert st_rec.des == sum(1 for i in range(n - 1) if w[i] > w[i + 1])
        assert st_rec.ndes == n - st_rec.des
        assert st_rec.maj == naive_maj(w)
        assert st_rec.inv == naive_inv(w)
        assert st_rec.cros == naive_cros(w)
        assert st_rec.nest == naive_nest(w)
        assert st_rec.toht == naive_toht(w)
        assert st_rec.thto == naive_thto(w)
        assert st_rec.thot == naive_thot(w)
        assert st_rec.fmax == naive_fmax(w)
        assert st_rec.mad == st_rec.des + st_rec.toht + 2 * st_rec.thto
        assert st_rec.suc == naive_suc(w)
        assert st_rec.adj == naive_adj(w)


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_decomposition(n):
    for w in itertools.permutations(range(1, n + 1)):
        rec = basic_stats(w)
        assert rec.inv == rec.n - rec.wex + rec.cros + 2 * rec.nest
        assert sum(inv_k(w, k) for k in range(1, n + 1)) == rec.inv
        assert sum(cros_k(w, k) for k in range(1, n + 1)) == rec.cros
        assert sum(nest_k(w, k) for k in range(1, n + 1)) == rec.nest
        assert sum(pattern_k(w, k, "31-2") for k in range(1, n + 1)) == rec.toht
        assert sum(pattern_k(w, k, "2-31") for k in range(1, n + 1)) == rec.thto
        assert sum(pattern_k(w, k, "2-13") for k in range(1, n + 1)) == rec.thot


def test_inv_parts_example():
    # parts anchored at every k sum to the inversion number
    for w in itertools.permutations(range(1, 6)):
        total = sum(sum(inv_parts(w, k)) for k in range(1, 6))
        assert total == naive_inv(w)


def test_cyclic_type_small():
    assert cyclic_type((2, 1), 1) == "cyclic-valley"
    assert cyclic_type((2, 1), 2) == "cyclic-peak"
    assert cyclic_type((1, 2), 1) == "fixed"
    assert cyclic_type((2, 3, 1), 2) == "cyclic-double-ascent"
    assert cyclic_type((3, 1, 2), 2) == "cyclic-double-descent"


def test_pattern_k_checks_the_pattern_at_every_size():
    assert pattern_k((1,), 1, "31-2") == 0
    for word in ((), (1,), (2, 1)):
        with pytest.raises(ValueError, match="^unknown pattern 'bogus'$"):
            pattern_k(word, 1, "bogus")


def test_foremaximum_example():
    # 4157368: left-to-right maxima 4, 5, 7, 8; nondescents among them 5, 8
    assert basic_stats((4, 1, 5, 7, 3, 6, 8)).fmax == 2
    assert not is_coderangement((4, 1, 5, 7, 3, 6, 8))


def test_coderangements_n4():
    got = {"".join(map(str, w)) for w in family_iter("Dstar", 4)}
    assert got == {"2143", "3142", "3241", "4123", "4132",
                   "4213", "4231", "4312", "4321"}


def _size(family, n):
    return stat_polynomial(family, n, {}).as_int()


def test_family_sizes():
    assert _size("S", 5) == 120
    assert _size("D", 4) == 9
    assert [_size("A", n) for n in range(7)] == [1, 1, 1, 2, 5, 16, 61]
    assert _size("Aprime", 4) == 0
    assert _size("Adoubleprime", 4) == 5
    assert _size("Astar", 4) == 5


def test_empty_word_families():
    # the empty word is a derangement, a coderangement and a falling
    # alternating word of even length: D_0 = E_0 = E*_0 = 1
    for family in FAMILIES:
        want = [] if family == "Aprime" else [()]
        assert list(family_iter(family, 0)) == want, family
        assert stat_polynomial(family, 0, {}).as_int() == len(want), family


@pytest.mark.parametrize("family", FAMILIES)
def test_families_agree_with_family_contains(family):
    for n in range(9):
        words = [w for w in itertools.permutations(range(1, n + 1))
                 if family_contains(family, w)]
        assert list(family_iter(family, n)) == words, n
        assert stat_polynomial(family, n, {}).as_int() == len(words), n


def test_cap_errors():
    with pytest.raises(EnumerationCapError):
        list(family_iter("S", 12))
    # the dynamic program has no cap on n, only on what a layer holds:
    # S_n's layer n // 2 holds C(n, n // 2) states
    with pytest.raises(EnumerationCapError, match="layer 350 .* DP_MAX_STATES"):
        stat_polynomial("S", 700, {})
    with pytest.raises(EnumerationCapError):
        stat_table(12, QUINTUPLE_WEIGHT)


def test_unknown_family():
    with pytest.raises(ValueError):
        list(family_iter("bogus", 3))


def test_permutation_parse_and_str():
    assert parse_word("231") == (2, 3, 1)
    assert word_str((2, 3, 1)) == "231"
    assert parse_word(" 3,1,4,2 ") == (3, 1, 4, 2)
    long = parse_word("10,1,2,3,4,5,6,7,8,9")
    assert long == (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert word_str(long) == "10,1,2,3,4,5,6,7,8,9"
    assert parse_word("") == () and word_str(()) == ""
    with pytest.raises(ValueError,
                       match=r"^not a permutation of 1\.\.3: \(2, 2, 1\)$"):
        parse_word("221")            # a repeated letter
    with pytest.raises(ValueError,
                       match=r"^not a permutation of 1\.\.3: \(1, 2, 4\)$"):
        parse_word("1,2,4")          # 3 is missing
    for text in ("abc", "3,1,x"):    # a token that is not an integer
        with pytest.raises(ValueError) as err:
            parse_word(text)
        assert str(err.value) == (f"bad permutation {text!r}: want one-line "
                                  f"notation such as 3142 or 3,1,4,2")


def test_quintuple_polynomial_s2():
    poly = stat_polynomial("S", 2, QUINTUPLE_WEIGHT)
    assert str(poly) == "x^2*y^2 + x*s"


def test_stat_polynomial_parallel_matches_serial():
    # workers and parallel_threshold are accepted and ignored: asking for a
    # pool of any size gives the one-process sum, with x folded or not
    for family in FAMILIES:
        for n in range(0, 8):
            serial = stat_polynomial(family, n, QUINTUPLE_WEIGHT, workers=1)
            for workers in (2, 3, 5):
                pooled = stat_polynomial(family, n, QUINTUPLE_WEIGHT,
                                         workers=workers, parallel_threshold=0)
                assert pooled == serial, (family, n, workers)
    at = {"x": MINUS_INV_Q}
    folded = stat_polynomial("D", 7, QUINTUPLE_WEIGHT, workers=1, at=at)
    assert stat_polynomial("D", 7, QUINTUPLE_WEIGHT, workers=3,
                           parallel_threshold=7, at=at) == folded


@pytest.mark.parametrize("n", [0, 1])
def test_pool_at_the_smallest_sizes(n):
    # the ignored pool keywords at the sizes with fewer than two first letters
    assert stat_polynomial("S", n, {}, workers=2, parallel_threshold=0) == 1


# (a call, the states and the (state, key) entries or (state, digit) slots
# of its widest layer).  S_n with no weight has one state per used set, each
# one int of one digit; with inv, the prefixes on a used set of size p take
# every inv from 0 to p(p-1)/2, so each state holds that many keys of a map
# (p^n makes a second digit) or digits of an int; a ranked layer holds one
# key per prefix
LAYER_SIZES = [
    (lambda: stat_polynomial("S", 8, {}), math.comb(8, 4), math.comb(8, 4)),
    (lambda: stat_polynomial("S", 6, {"s": {"inv": 1}}),
     math.comb(6, 3), math.comb(6, 4) * 7),
    (lambda: stat_polynomial("S", 5, {"s": {"inv": 1}, "p": {"n": 1}}),
     math.comb(5, 2), math.comb(5, 3) * 4),
    (lambda: stat_table(5, {}), math.comb(5, 2), math.factorial(5)),
]


def test_dp_refuses_the_first_n_past_the_state_bound_before_any_work(
        monkeypatch):
    # C(8, 4) = 70 states fit; C(9, 4) = 126 do not
    monkeypatch.setattr(permstat, "DP_MAX_STATES", math.comb(8, 4))
    assert stat_polynomial("S", 8, {}).as_int() == math.factorial(8)

    def no_work(*args):
        raise AssertionError("the dynamic program started on S_9")

    monkeypatch.setattr(permstat, "_packed_plan", no_work)
    with pytest.raises(EnumerationCapError, match="layer 4 .* DP_MAX_STATES = 70 "):
        stat_polynomial("S", 9, {})


@pytest.mark.parametrize("family", FAMILIES)
def test_the_state_guard_refuses_nothing_the_dp_would_hold(family, monkeypatch):
    # with no weight a state holds one int of one digit, so a layer's slots
    # are its states: an entry bound one below C(n, n // 2) must trip in
    # the program itself, with the state guard out of the way
    sizes = [n for n in range(4, 11) if _size(family, n)]
    monkeypatch.setattr(permstat, "DP_MAX_STATES", 10**9)
    for n in sizes:
        monkeypatch.setattr(permstat, "DP_MAX_ENTRIES", math.comb(n, n // 2) - 1)
        with pytest.raises(EnumerationCapError, match="DP_MAX_ENTRIES"):
            stat_polynomial(family, n, {})


@pytest.mark.parametrize("call,states,entries", LAYER_SIZES)
def test_dp_holds_a_layer_at_its_bounds_and_not_past_them(
        monkeypatch, call, states, entries):
    monkeypatch.setattr(permstat, "DP_MAX_STATES", states)
    monkeypatch.setattr(permstat, "DP_MAX_ENTRIES", entries)
    call()
    for name, bound in (("DP_MAX_STATES", states), ("DP_MAX_ENTRIES", entries)):
        with monkeypatch.context() as m:
            m.setattr(permstat, name, bound - 1)
            with pytest.raises(EnumerationCapError,
                               match=f"{name} = {bound - 1} "):
                call()


# Each oversize call runs in a child process, so that one which neither
# fails nor stops is killed rather than waited for.
OVERSIZE_SECONDS = 10
_SRC = os.path.dirname(os.path.dirname(permstat.__file__))
_OVERSIZE_CALL = """
import sys
from pqeuler import permstat
if {before_any_layer}:
    # the first thing _accumulate computes for a size
    permstat._packed_plan = lambda *args: sys.exit(4)
try:
    permstat.stat_polynomial({family!r}, {n!r}, {weight!r})
except permstat.EnumerationCapError as exc:
    print(exc)
    sys.exit(3)
"""


def _child(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, timeout=3 * OVERSIZE_SECONDS)
    return proc, time.perf_counter() - start


def _refused_before_any_layer(n):
    """C(n, n // 2) > DP_MAX_STATES, read from C(m, m // 2) at m <= 64: it
    grows with m, and C(64, 32) is far past the bound, so the binomial of a
    huge n is never computed."""
    m = min(n, 64)
    return n >= 4 and math.comb(m, m // 2) > permstat.DP_MAX_STATES


@pytest.mark.parametrize("family,n,weight", [
    ("S", 60, {}),
    ("A", 40, {"p": {"thto": 1}, "q": {"toht": 1}}),
    ("S", 26, {"q": {"cros": 1}}),
    ("S", 10**6, {}),
    ("D", 20000, {}),
    ("S", 632, {"q": {"cros": 1}}),
    ("S", 21, {}),
])
def test_oversize_dp_fails_fast(family, n, weight):
    proc, elapsed = _child("-c", _OVERSIZE_CALL.format(
        family=family, n=n, weight=weight,
        before_any_layer=_refused_before_any_layer(n)))
    assert proc.returncode == 3, proc.stderr
    assert "enumeration too large" in proc.stdout
    assert elapsed < OVERSIZE_SECONDS, f"{family}_{n} took {elapsed:.2f}s"


def test_cli_oversize_table_exits_2_naming_the_bound():
    proc, elapsed = _child("-m", "pqeuler.cli", "table", "--family", "S",
                           "--n", "60", "--weight", "q=cros")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"DP_MAX_STATES = {permstat.DP_MAX_STATES} states" in proc.stderr
    assert elapsed < OVERSIZE_SECONDS, f"took {elapsed:.2f}s"


_ONE_PROCESS_CALL = """
import sys
import pqeuler
from pqeuler.permstat import QUINTUPLE_WEIGHT, stat_polynomial
asked = stat_polynomial("S", 8, QUINTUPLE_WEIGHT, workers=2,
                        parallel_threshold=8)
assert asked == stat_polynomial("S", 8, QUINTUPLE_WEIGHT)
loaded = {"multiprocessing", "concurrent.futures"} & set(sys.modules)
assert not loaded, loaded
"""


def test_every_sum_runs_in_the_calling_process():
    # workers and parallel_threshold are accepted and ignored, and no
    # process module is ever loaded
    proc, _ = _child("-c", _ONE_PROCESS_CALL)
    assert proc.returncode == 0, proc.stderr


@given(st.permutations(list(range(1, 8))))
def test_record_fields_are_nonnegative(w):
    rec = basic_stats(tuple(w))
    assert all(v >= 0 for v in rec.to_json().values())


def test_negative_n_is_rejected():
    with pytest.raises(ValueError):
        stat_polynomial("S", -2, {"x": {"wex": 1}})
    with pytest.raises(ValueError):
        stat_table(-1, {"x": {"wex": 1}})


def test_backend_identifier():
    assert BACKEND == "pure"


def test_field_count():
    assert len(stat_tuple((2, 1, 3))) == len(STAT_FIELDS)


# ---------------------------------------------------------------------------
# the summing path, the dynamic program over prefix states of _accumulate,
# against the scan oracle (the test names date from when that path was a
# depth-first walk over prefixes)


def _dp_and_scan(family, n, weight):
    """The program's sum at n and the scan's, each as a LaurentPoly."""
    scan = permstat._accumulate_scan(family, n, permstat._weight_plan(weight))
    return stat_polynomial(family, n, weight), LaurentPoly(scan)


def _stat_weights():
    """Weights that together give every statistic a variable of its own
    (coefficient 1 and -2) and pair it with another one in a variable."""
    groups = [STAT_FIELDS[i:i + len(VARS)]
              for i in range(0, len(STAT_FIELDS), len(VARS))]
    weights = []
    for coeff in (1, -2):
        weights += [{var: {stat: coeff} for var, stat in zip(VARS, group)}
                    for group in groups]
    partner = {stat: STAT_FIELDS[(i + 7) % len(STAT_FIELDS)]
               for i, stat in enumerate(STAT_FIELDS)}
    weights += [{var: {stat: 1, partner[stat]: -1}
                 for var, stat in zip(VARS, group)} for group in groups]
    return weights


@pytest.mark.parametrize("n", range(0, 8))
@pytest.mark.parametrize("family", FAMILIES)
def test_walk_matches_scan_on_every_statistic(family, n):
    weights = _stat_weights() + [QUINTUPLE_WEIGHT, LINEAR_QUINTUPLE_WEIGHT]
    for weight in weights:
        dp, scan = _dp_and_scan(family, n, weight)
        assert dp == scan, weight


_VAR_WEIGHTS = st.dictionaries(
    st.sampled_from(VARS),
    st.dictionaries(st.sampled_from(STAT_FIELDS), st.integers(-3, 3),
                    max_size=4),
    max_size=len(VARS))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 6), _VAR_WEIGHTS)
def test_walk_matches_scan_on_random_weights(family, n, weight):
    dp, scan = _dp_and_scan(family, n, weight)
    assert dp == scan


def test_dp_matches_laguerre_transfer_above_the_scan():
    # Foata-Zeilberger: the quintuple polynomial of S_9 is the weighted sum
    # of Laguerre histories of length 9, which the transfer pass reaches
    # without enumerating a word
    assert stat_polynomial("S", 9, QUINTUPLE_WEIGHT) == (
        weighted_sum("laguerre", 9, laguerre_quintuple_weights(), method="dp"))


def test_stat_polynomial_never_scans(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the fast path called the per-word scan")

    monkeypatch.setattr(permstat, "stat_tuple", forbidden)
    monkeypatch.setattr(permstat, "_accumulate_scan", forbidden)
    for family in FAMILIES:
        for weight in (QUINTUPLE_WEIGHT, LINEAR_QUINTUPLE_WEIGHT):
            stat_polynomial(family, 6, weight)
            stat_polynomials(family, 6, weight)
        _size(family, 6)
    e_pq(6)


# x evaluated inside the dynamic program, against the scan substituted after
FOLDED_X = [LaurentPoly.const(-1), MINUS_INV_Q, LaurentPoly.var("q"),
            LaurentPoly.monomial(-1, p=1, q=2), LaurentPoly.var("y")]


@st.composite
def _at_maps(draw):
    """A map ``at`` takes: a few variables, each to 1 or a monomial in the
    variables left alone, times -1 only for x."""
    named = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=3))
    free = [var for var in VARS if var not in named]
    at = {}
    for var in named:
        exps = {u: draw(st.integers(-2, 2)) for u in free}
        sign = draw(st.sampled_from([1, -1])) if var == "x" else 1
        at[var] = LaurentPoly.monomial(sign, **exps)
    return at


@settings(max_examples=80, deadline=None)
@given(_at_maps(), st.sampled_from(["S", "D", "Dstar", "A"]),
       st.integers(0, 6), _VAR_WEIGHTS)
def test_folded_x_matches_the_substituted_scan(at, family, n, weight):
    scan = permstat._accumulate_scan(family, n, permstat._weight_plan(weight))
    folded = stat_polynomial(family, n, weight, at=at)
    assert folded == LaurentPoly(scan).substitute(at)


def test_folded_x_at_every_statistic():
    for x in FOLDED_X:
        for weight in _stat_weights():
            plain = stat_polynomial("S", 6, weight)
            assert stat_polynomial("S", 6, weight, at={"x": x}) == (
                plain.substitute({"x": x})), (x, weight)


# every letter statistic, n, ndes and mad between them, and a negative
# coefficient
READOUT_WEIGHTS = [
    QUINTUPLE_WEIGHT, LINEAR_QUINTUPLE_WEIGHT,
    {"x": {"exc": 1, "suc": 2}, "y": {"des": 1, "adj": 1},
     "q": {"maj": -1, "thot": 1}, "p": {"n": 2}},
    {"x": {"n": -1, "fmax": 1}, "y": {"suc": 1}, "p": {"adj": 1, "ndes": -2},
     "s": {"cros": 1, "nest": -1}},
]
# x at -1 and at -1/q as in the signed identities, E_n(q) and E*_n(q), q and
# p at 1, and x and p together
READOUT_AT = [{}, {"x": -1}, {"x": MINUS_INV_Q},
              {"x": LaurentPoly.monomial(-1, q=2, s=-1)}, AT_Q, AT_QSTAR,
              {"p": 1, "q": 1}, {"x": MINUS_INV_Q, "p": LaurentPoly.var("q", 2)}]


@pytest.mark.parametrize("family", FAMILIES)
def test_every_size_readout_matches_each_size_and_the_scan(family):
    # each size m <= nmax read off one program at nmax, against the program
    # at m and, up to 6, against the scan substituted after
    covered = set()
    for weight in READOUT_WEIGHTS:
        covered.update(*weight.values())
        plan = permstat._weight_plan(weight)
        scans = [LaurentPoly(permstat._accumulate_scan(family, m, plan))
                 for m in range(7)]
        for at in READOUT_AT:
            own = []                 # the program at m's own sum at m
            for nmax in range(8):
                sums = stat_polynomials(family, nmax, weight, at)
                assert len(sums) == nmax + 1
                own.append(stat_polynomial(family, nmax, weight, at=at))
                for m, got in enumerate(sums):
                    case = (weight, at, nmax, m)
                    assert got == own[m], case
                    if m < len(scans):
                        assert got == scans[m].substitute(at), case
    assert covered == set(STAT_FIELDS)


# the int store: sums with at most one live exponent digit.  The signed
# sides (the sign fold; x = -1/q makes a letter's q digit -1 at least, a
# negative offset), E_n(q) and E*_n(q), no digit at all, a live s or x
# digit, a gcd of 2, Dstar's drop with mad, the last letter's fmax, suc and
# adj with negative coefficients, and maj at -1 (an offset of 1 - n)
ONE_DIGIT = [
    ({"x": {"exc": 1}, "q": {"inv": 1}}, {"x": MINUS_INV_Q}),
    ({"x": {"exc": 1}, "q": {"maj": 1}}, {"x": MINUS_INV_Q}),
    ({"x": {"wex": 1}, "q": {"cros": 1}}, {"x": -1}),
    ({"x": {"ndes": 1}, "q": {"toht": 1}}, {"x": MINUS_INV_Q}),
    ({"x": {"ndes": 1}, "q": {"mad": 1}}, {"x": -1}),
    ({"p": {"thot": 1}, "q": {"toht": 1}}, AT_Q),
    ({"p": {"thto": 1}, "q": {"toht": 1}}, AT_QSTAR),
    ({"x": {"exc": 1}}, {"x": -1}),
    ({}, None),
    ({"s": {"inv": 1}}, None),
    ({"q": {"cros": 2, "nest": 2, "n": -4}}, None),
    ({"x": {"fmax": -1, "suc": 2, "adj": -3, "wex": 1}}, None),
    ({"x": {"fix": 1}, "y": {"maj": -1, "des": 2}}, {"x": -1}),
]


def _dict_store(monkeypatch):
    monkeypatch.setattr(permstat, "_dense_plan", lambda *args: None)


def _stores_taken(monkeypatch):
    """The list that records, for each program from now on, whether it took
    the int store."""
    taken = []
    real = permstat._dense_plan

    def spy(*args):
        dense = real(*args)
        taken.append(dense is not None)
        return dense

    monkeypatch.setattr(permstat, "_dense_plan", spy)
    return taken


@pytest.mark.parametrize("family", FAMILIES)
def test_the_int_store_matches_the_dict_store_and_the_scan(family, monkeypatch):
    # every size m <= nmax of one program at nmax, against the same program
    # with a map per state and, up to 6, against the scan substituted after
    taken = _stores_taken(monkeypatch)
    ints = {(i, nmax): stat_polynomials(family, nmax, weight, at)
            for i, (weight, at) in enumerate(ONE_DIGIT) for nmax in range(8)}
    assert taken and all(taken)
    _dict_store(monkeypatch)
    for i, (weight, at) in enumerate(ONE_DIGIT):
        plan = permstat._weight_plan(weight)
        scans = [LaurentPoly(permstat._accumulate_scan(family, m, plan))
                 for m in range(7)]
        for nmax in range(8):
            case = (weight, at, nmax)
            assert ints[i, nmax] == stat_polynomials(family, nmax, weight, at), case
            for m, got in enumerate(ints[i, nmax][:len(scans)]):
                assert got == scans[m].substitute(at or {}), (case, m)


def _dense(weight, n, at=None):
    plan, sign = permstat._fold(permstat._weight_plan(weight), at)
    width = permstat._packed_plan(plan, n)[1]
    return permstat._dense_plan(plan, n, sign, width)


def test_two_live_digits_keep_the_dict_store():
    # x is a live digit unless its value is folded in
    weight = {"x": {"exc": 1}, "q": {"inv": 1}}
    assert _dense(weight, 6) is None
    assert _dense(weight, 6, {"x": MINUS_INV_Q}) is not None
    assert _dense({"q": {"inv": 1}, "s": {"des": 1}}, 6) is None


def test_a_span_its_statistics_cannot_fill_keeps_the_dict_store():
    # q^(c inv + des) spans (c + 1) R + 1 exponents, R = 15 on S_6, and at
    # most (R + 1)^2 of them are reached: the span fits up to c = R + 1
    assert _dense({"q": {"inv": 10**6, "des": 1}}, 6) is None
    assert _dense({"q": {"inv": 16, "des": 1}}, 6) is not None
    assert _dense({"q": {"inv": 17, "des": 1}}, 6) is None
    assert _dense({"q": {"inv": -17, "des": 1}}, 6) is None


def test_the_digit_is_taken_in_units_of_its_gcd():
    # inv <= 15 on S_6: 16 digits, however large the common coefficient
    big = EXP_LIMIT >> 4
    dense = _dense({"q": {"inv": big}}, 6)
    assert dense.g == big
    dp, scan = _dp_and_scan("S", 6, {"q": {"inv": big}})
    assert dp == scan and len(dp.sorted_terms()) == 16
    assert _dense({"q": {"cros": 6, "nest": -4}}, 6).g == 2


def test_a_sum_with_no_live_digit_takes_the_int_store():
    for weight, at in (({}, None), ({"x": {"exc": 1}}, {"x": -1}),
                       ({"q": {"inv": 1}}, {"q": 1})):
        dense = _dense(weight, 6, at)
        assert (dense.place, dense.low) == (0, 0)


def test_a_ranked_table_never_takes_the_int_store(monkeypatch):
    taken = _stores_taken(monkeypatch)
    stat_table(5, {})
    stat_table(5, {"x": {"inv": 1}})
    assert taken == []


_INT_STORE_CHECKS = [*harness.SIGNED, "cor2_2", "cor2_3"]


@pytest.mark.parametrize("cid", _INT_STORE_CHECKS)
def test_the_one_variable_checks_take_the_int_store(cid, monkeypatch):
    # every sum of each signed identity, E_n(q) and E*_n(q) takes it: a
    # silent fall-back to a map per state fails here
    taken = _stores_taken(monkeypatch)
    assert harness.check(cid, 7).passed
    assert taken and all(taken), taken


@pytest.mark.parametrize("x", [LaurentPoly(), LaurentPoly.const(2),
                               LaurentPoly.var("q") + LaurentPoly.const(1),
                               LaurentPoly.var("x", 2),
                               LaurentPoly.monomial(-1, x=1, q=1), "-1"])
def test_folding_a_non_unit_x_is_rejected(x):
    with pytest.raises(ValueError, match="cannot substitute .* for 'x'"):
        stat_polynomial("S", 3, QUINTUPLE_WEIGHT, at={"x": x})


_Q = LaurentPoly.var("q")


@pytest.mark.parametrize("at,bad", [
    ({"p": -1}, "p"),                                    # a sign on p
    ({"p": LaurentPoly.monomial(-1, q=2)}, "p"),
    ({"q": LaurentPoly.const(-1)}, "q"),
    ({"p": _Q, "q": 1}, "p"),                            # q is substituted
    ({"x": _Q ** -1, "q": LaurentPoly.var("s")}, "x"),
    ({"p": LaurentPoly.var("p", 2)}, "p"),
    ({"p": _Q + LaurentPoly.const(1)}, "p"),             # not a monomial
    ({"q": 2}, "q"),
    ({"q": LaurentPoly()}, "q"),
    ({"p": 1, "z": 1}, "z"),                             # no such variable
    ({"t": _Q}, "t"),
])
def test_a_bad_substitution_is_rejected(at, bad):
    for call in (lambda: stat_polynomial("S", 3, QUINTUPLE_WEIGHT, at=at),
                 lambda: stat_polynomials("A", 4, {"q": {"toht": 1}}, at)):
        with pytest.raises(ValueError, match=f"for {bad!r}: want one of "):
            call()


def _no_layer(family, n):
    def rule(p, used, a):
        raise AssertionError(f"layer {p} of {family}_{n} was built")
    return rule


def test_an_exponent_past_the_packed_range_is_refused_before_any_layer(
        monkeypatch):
    monkeypatch.setattr(permstat, "_letter_rule", _no_layer)
    weight = dict(QUINTUPLE_WEIGHT, s={"inv": 10**24})
    with pytest.raises(OverflowError, match="past the packed digit range"):
        stat_polynomial("S", 11, weight)
    with pytest.raises(OverflowError, match="past the packed digit range"):
        stat_table(5, weight)


def test_the_bound_is_what_a_letter_statistic_reaches(monkeypatch):
    # inv <= 15 on S_6: 15 * (EXP_LIMIT >> 4) is inside the packed range,
    # 15 * (EXP_LIMIT >> 3) is not
    dp, scan = _dp_and_scan("S", 6, {"q": {"inv": EXP_LIMIT >> 4}})
    assert dp == scan and len(dp.sorted_terms()) == 16
    monkeypatch.setattr(permstat, "_letter_rule", _no_layer)
    with pytest.raises(OverflowError, match="past the packed digit range"):
        stat_polynomial("S", 6, {"q": {"inv": EXP_LIMIT >> 3}})


def test_every_shipped_weight_fits_the_packed_range_at_the_largest_size(
        monkeypatch):
    # 20 is the largest size the program admits
    assert math.comb(20, 10) <= permstat.DP_MAX_STATES
    with pytest.raises(EnumerationCapError):
        stat_polynomial("S", 21, {})
    # the signed sides and E_n(p,q) record their weights and values, no
    # program runs
    calls = []

    def record(family, nmax, weight, at=None):
        calls.append((weight, at))
        return [LaurentPoly()] * (nmax + 1)

    monkeypatch.setattr(harness, "stat_polynomials", record)
    monkeypatch.setattr(qeuler, "stat_polynomials", record)
    for _, *sides in harness.SIGNED.values():
        for side in sides:
            side.sums(20)
    for at in (None, AT_Q, AT_QSTAR):
        qeuler._e_pq_sums(20, at)
    weights = [(QUINTUPLE_WEIGHT, None), (LINEAR_QUINTUPLE_WEIGHT, None),
               (harness._INVOLUTION_WEIGHT, None), *calls]
    assert len(weights) == 3 + 2 * len(harness.SIGNED) + 6
    for weight, at in weights:
        plan, _ = permstat._fold(permstat._weight_plan(weight), at)
        assert permstat._packed_plan(plan, 20)[2] < EXP_LIMIT, (weight, at)


def test_no_program_runs_for_a_parity_family_without_words(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a program ran for a size with no word")

    monkeypatch.setattr(permstat, "_accumulate", forbidden)
    assert stat_polynomial("Aprime", 12, QUINTUPLE_WEIGHT) == LaurentPoly()
    assert stat_polynomials("Aprime", 0, {}) == [LaurentPoly()]
    assert list(family_iter("Adoubleprime", 11)) == []
    # the arguments are still checked
    with pytest.raises(ValueError, match="nonnegative"):
        stat_polynomial("Adoubleprime", -1, {})
    with pytest.raises(ValueError, match="'inv'"):
        stat_polynomial("Aprime", 12, {"x": {"inv": 0.5}})
    with pytest.raises(ValueError, match="for 'p': want one of "):
        stat_polynomial("Adoubleprime", 11, {}, at={"p": -1})


@pytest.mark.parametrize("family", ["Aprime", "Adoubleprime"])
def test_parity_families_are_a_at_their_parity(family):
    parity = permstat._PARITY[family]
    for weight in (QUINTUPLE_WEIGHT, LINEAR_QUINTUPLE_WEIGHT):
        a_sums = stat_polynomials("A", 9, weight)
        for nmax in range(10):
            got = stat_polynomials(family, nmax, weight)
            assert got == [e if m % 2 == parity else LaurentPoly()
                           for m, e in enumerate(a_sums[:nmax + 1])], nmax


@pytest.mark.parametrize("family", FAMILIES)
def test_walk_and_scan_ignore_the_first_letter_at_n0(family):
    # the empty word has no first letter, and counts once where the family
    # holds it
    dp, scan = _dp_and_scan(family, 0, QUINTUPLE_WEIGHT)
    empty = LaurentPoly.const(1 if family_contains(family, ()) else 0)
    assert dp == scan == empty


def test_packed_keys_hold_large_coefficients():
    # far past the digit width that the exponents of S_6 alone would need,
    # yet inside the packed range: 15 * sum |c| < EXP_LIMIT for each variable
    weight = {"x": {"inv": EXP_LIMIT >> 6, "n": -(EXP_LIMIT >> 6)},
              "y": {"fix": -7}, "s": {"cros": 3, "nest": -(EXP_LIMIT >> 5)}}
    dp, scan = _dp_and_scan("S", 6, weight)
    assert dp == scan
    poly = stat_polynomial("S", 6, weight)
    assert poly == scan
    assert LaurentPoly.from_json(poly.to_json()) == poly


@pytest.mark.parametrize("coeff", [0.5, 2.0, "1"])
def test_non_integer_coefficient_is_rejected(coeff):
    with pytest.raises(ValueError, match="integer"):
        stat_polynomial("S", 3, {"x": {"inv": coeff}})


@pytest.mark.parametrize("weight", [{"z": {"inv": 1}},
                                    {"x": {"wex": 1}, "t": {"fix": 1}}])
def test_unknown_weight_variable_is_rejected(weight):
    bad = next(var for var in weight if var not in VARS)
    with pytest.raises(ValueError, match=repr(bad)):
        stat_polynomial("S", 3, weight)


# ---------------------------------------------------------------------------
# the per-word table, from _accumulate with the rank digit, against the
# per-word kernel


@pytest.mark.parametrize("n", range(0, 8))
def test_stat_table_matches_stat_tuple(n):
    words = list(itertools.permutations(range(1, n + 1)))
    kernel = [stat_tuple(w) for w in words]
    # _stat_weights has coefficients -2 and -1, so exponent digits below the
    # rank digit go negative
    weights = [{"x": {stat: 1}} for stat in STAT_FIELDS] + _stat_weights()
    for weight in weights + [QUINTUPLE_WEIGHT, LINEAR_QUINTUPLE_WEIGHT]:
        table = stat_table(n, weight)
        assert len(table) == len(words)
        for w, st_w, got in zip(words, kernel, table):
            want = tuple(sum(c * st_w[STAT_FIELDS.index(stat)]
                             for stat, c in weight.get(var, {}).items())
                         for var in VARS)
            assert got == want, (w, weight)


@pytest.mark.parametrize("n", range(0, 8))
def test_lex_rank_is_the_index_in_permutations(n):
    index = lex_index(n)
    assert list(index) == list(itertools.permutations(range(1, n + 1)))
    for i, w in enumerate(itertools.permutations(range(1, n + 1))):
        assert index[w] == i
    assert (0,) + tuple(range(2, n + 1)) not in index   # 1 replaced by 0


@pytest.mark.parametrize("build", [lex_index,
                                   lambda n: stat_table(n, QUINTUPLE_WEIGHT)])
def test_word_tables_stop_at_the_word_cap(build):
    # S_10 is the largest S_n within MAX_OBJECTS = 10!
    assert len(build(3)) == 6
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError, match=(
            r"^enumeration too large: S_11 has more than MAX_OBJECTS = "
            r"3628800 objects \(S_11 has 39916800\)$")):
        build(11)
    assert time.perf_counter() - start < 1


# (routine, what it counts, the exact number of its objects)
ONE_AT_A_TIME = [
    (lambda: list(family_iter("S", 5)), "S_5", 120),
    (lambda: list(family_iter("D", 6)), "D_6", 265),
    (lambda: list(family_iter("Dstar", 5)), "Dstar_5", 44),
    (lambda: list(family_iter("A", 7)), "A_7", 272),
    (lambda: list(family_iter("Adoubleprime", 6)), "Adoubleprime_6", 61),
    (lambda: lex_index(5), "S_5", 120),
    (lambda: stat_table(5, QUINTUPLE_WEIGHT), "S_5", 120),
    (lambda: list(enumerate_objects("laguerre", 5)), "laguerre of length 5",
     120),
    (lambda: list(enumerate_objects("diagramme", 6)), "diagramme of length 6",
     272),
    (lambda: list(enumerate_objects("motzkin", 7)), "motzkin of length 7",
     127),
    (lambda: weighted_sum("laguerre", 5, laguerre_quintuple_weights(),
                          method="enumerate"), "laguerre of length 5", 120),
]


@pytest.mark.parametrize("call,what,count", ONE_AT_A_TIME)
def test_one_object_bound_admits_its_count_and_not_one_more(
        monkeypatch, call, what, count):
    monkeypatch.setattr(permstat, "MAX_OBJECTS", count)
    result = call()
    if isinstance(result, list):
        assert len(result) == count
    monkeypatch.setattr(permstat, "MAX_OBJECTS", count - 1)
    with pytest.raises(EnumerationCapError, match=(
            rf"^enumeration too large: {what} has more than MAX_OBJECTS = "
            rf"{count - 1} objects \({what} has {count}\)$")):
        call()


_REFUSED_CALL = """
import sys, time
from pqeuler import lattice, permstat
start = time.perf_counter()
try:
    {call}
except permstat.EnumerationCapError as exc:
    print(f"{{time.perf_counter() - start}} {{exc}}")
    sys.exit(3)
"""


@pytest.mark.parametrize("call,counted", [
    ('permstat.family_iter("D", 20)', "D_12 has 176214841"),
    ('permstat.family_iter("A", 700)', "A_14 has 199360981"),
    ('list(lattice.enumerate_objects("laguerre", 14))',
     "laguerre of length 12 has 479001600"),
    ('lattice.weighted_sum("dyck", 10**6, lattice.WeightSpec(), '
     'method="enumerate")', "dyck of length 30 has 9694845"),
], ids=["D_20", "A_700", "laguerre-14", "dyck-1000000"])
def test_oversize_enumeration_is_refused_within_a_second(call, counted):
    # counted from the least size of n's parity up, the first size past
    # the bound refuses n, however large, without counting it
    proc, _ = _child("-c", _REFUSED_CALL.format(call=call))
    assert proc.returncode == 3, proc.stderr
    elapsed, message = proc.stdout.split(" ", 1)
    assert counted in message
    assert float(elapsed) < 1, message


@pytest.mark.parametrize("family,n,programs", [
    ("D", 9, []), ("Adoubleprime", 12, [("A", 12)])])
def test_no_size_within_the_bound_by_its_factorial_is_counted(
        monkeypatch, family, n, programs):
    # a family of size m has at most m! words, and 9! <= MAX_OBJECTS < 11!
    real = permstat._accumulate
    called = []

    def recording(*args, **kwargs):
        called.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(permstat, "_accumulate", recording)
    family_iter(family, n)
    assert called == programs


def test_cli_oversize_verify_is_refused_within_a_second():
    # fv at 13 would walk A_13, 22,368,256 words
    proc, elapsed = _child("-m", "pqeuler.cli", "bij", "fv", "--verify",
                           "--n", "13")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert (f"A_13 has more than MAX_OBJECTS = {MAX_OBJECTS} objects "
            f"(A_13 has 22368256)") in proc.stderr
    assert elapsed < 1, f"took {elapsed:.2f}s"
