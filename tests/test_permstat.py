import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pqeuler import permstat
from pqeuler.algebra import VARS, LaurentPoly
from pqeuler.lattice import laguerre_quintuple_weights, weighted_sum
from pqeuler.qeuler import e_pq
from pqeuler.permstat import (
    BACKEND,
    EnumerationCapError,
    FAMILIES,
    LINEAR_QUINTUPLE_WEIGHT,
    Permutation,
    QUINTUPLE_WEIGHT,
    STAT_FIELDS,
    basic_stats,
    cros_k,
    cyclic_type,
    default_workers,
    family_iter,
    family_size,
    inv_k,
    inv_parts,
    is_coderangement,
    iter_family_words,
    lex_index,
    nest_k,
    pattern_k,
    stat_polynomial,
    stat_table,
    stat_tuple,
)

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


def test_foremaximum_example():
    # 4157368: left-to-right maxima 4, 5, 7, 8; nondescents among them 5, 8
    assert basic_stats((4, 1, 5, 7, 3, 6, 8)).fmax == 2
    assert not is_coderangement((4, 1, 5, 7, 3, 6, 8))


def test_coderangements_n4():
    got = {"".join(map(str, w)) for w in iter_family_words("Dstar", 4)}
    assert got == {"2143", "3142", "3241", "4123", "4132",
                   "4213", "4231", "4312", "4321"}


def test_family_sizes():
    assert family_size("S", 5) == 120
    assert family_size("D", 4) == 9
    assert [family_size("A", n) for n in range(7)] == [1, 1, 1, 2, 5, 16, 61]
    assert family_size("Aprime", 4) == 0
    assert family_size("Adoubleprime", 4) == 5
    assert family_size("Astar", 4) == 5


def test_empty_word_families():
    assert list(iter_family_words("S", 0)) == [()]
    assert list(iter_family_words("D", 0)) == []


def test_cap_errors():
    with pytest.raises(EnumerationCapError):
        list(iter_family_words("S", 12))
    with pytest.raises(EnumerationCapError):
        stat_polynomial("S", 12, QUINTUPLE_WEIGHT)
    with pytest.raises(EnumerationCapError):
        stat_table(12, QUINTUPLE_WEIGHT)


def test_unknown_family():
    with pytest.raises(ValueError):
        list(iter_family_words("bogus", 3))


def test_permutation_parse_and_str():
    p = Permutation.parse("231")
    assert p.word == (2, 3, 1)
    assert str(p) == "231"
    long = Permutation.parse("10,1,2,3,4,5,6,7,8,9")
    assert long.n == 10
    assert str(long) == "10,1,2,3,4,5,6,7,8,9"
    with pytest.raises(ValueError):
        Permutation.parse("221")
    with pytest.raises(ValueError):
        Permutation((1, 2, 2))


def test_inverse():
    p = Permutation.parse("3142")
    assert p.inverse().word == (2, 4, 1, 3)
    assert p.inverse().inverse() == p


def test_quintuple_polynomial_s2():
    poly = stat_polynomial("S", 2, QUINTUPLE_WEIGHT)
    assert str(poly) == "x^2*y^2 + x*s"


def test_stat_polynomial_parallel_matches_serial():
    poly1 = stat_polynomial("S", 5, QUINTUPLE_WEIGHT, workers=1)
    poly4 = stat_polynomial("S", 5, QUINTUPLE_WEIGHT, workers=4,
                            parallel_threshold=4)
    assert poly1 == poly4
    for family in FAMILIES:
        serial = stat_polynomial(family, 7, QUINTUPLE_WEIGHT, workers=1)
        pooled = stat_polynomial(family, 7, QUINTUPLE_WEIGHT, workers=2,
                                 parallel_threshold=7)
        assert pooled == serial, family


@given(st.permutations(list(range(1, 8))))
def test_record_fields_are_nonnegative(w):
    rec = basic_stats(tuple(w))
    assert all(v >= 0 for v in rec.to_json().values())


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_bad_worker_count_is_rejected(monkeypatch, value):
    monkeypatch.setenv("PQEULER_WORKERS", value)
    with pytest.raises(ValueError, match=f"PQEULER_WORKERS.*{value!r}"):
        default_workers()


def test_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv("PQEULER_WORKERS", "3")
    assert default_workers() == 3
    monkeypatch.setenv("PQEULER_WORKERS", "")
    assert default_workers() >= 1


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
# against the scan oracle (the test names date from when that path was the
# prefix walk, which now serves only stat_table)


def _dp_and_scan(family, n, weight, firsts=None):
    plan = permstat._weight_plan(weight)
    return (permstat._accumulate(family, n, plan, firsts),
            permstat._accumulate_scan(family, n, plan, firsts))


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


@pytest.mark.parametrize("family", FAMILIES)
def test_walk_split_by_first_letter_sums_to_whole(family):
    plan = permstat._weight_plan(QUINTUPLE_WEIGHT)
    for n in range(1, 8):
        total: dict = {}
        for first in range(1, n + 1):
            part, scan = _dp_and_scan(family, n, QUINTUPLE_WEIGHT, [first])
            assert part == scan
            for e, c in part.items():
                total[e] = total.get(e, 0) + c
        assert total == permstat._accumulate(family, n, plan)


def test_dp_matches_laguerre_transfer_above_the_scan():
    # Foata-Zeilberger: the quintuple polynomial of S_9 is the weighted sum
    # of Laguerre histories of length 9, which the transfer pass reaches
    # without enumerating a word
    assert stat_polynomial("S", 9, QUINTUPLE_WEIGHT, workers=1) == (
        weighted_sum("laguerre", 9, laguerre_quintuple_weights(), method="dp"))


def test_stat_polynomial_never_scans(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the fast path called the per-word scan")

    monkeypatch.setattr(permstat, "stat_tuple", forbidden)
    monkeypatch.setattr(permstat, "_accumulate_scan", forbidden)
    for family in FAMILIES:
        for weight in (QUINTUPLE_WEIGHT, LINEAR_QUINTUPLE_WEIGHT):
            stat_polynomial(family, 6, weight, workers=1)
        family_size(family, 6)
    e_pq(6)


@pytest.mark.parametrize("family", FAMILIES)
def test_walk_and_scan_ignore_the_first_letter_at_n0(family):
    dp, scan = _dp_and_scan(family, 0, QUINTUPLE_WEIGHT, [1])
    assert dp == scan == _dp_and_scan(family, 0, QUINTUPLE_WEIGHT)[0]


def test_packed_keys_hold_large_coefficients():
    # far past the digit width that the exponents of S_6 alone would need
    weight = {"x": {"inv": 10**12, "n": -10**12}, "y": {"fix": -7},
              "s": {"cros": 3, "nest": -(2**70)}}
    dp, scan = _dp_and_scan("S", 6, weight)
    assert dp == scan
    poly = stat_polynomial("S", 6, weight, workers=1)
    assert poly == LaurentPoly(scan)
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
# the per-word table from the walk against the per-word kernel


@pytest.mark.parametrize("n", range(0, 8))
def test_stat_table_matches_stat_tuple(n):
    words = list(itertools.permutations(range(1, n + 1)))
    kernel = [stat_tuple(w) for w in words]
    weights = [{"x": {stat: 1}} for stat in STAT_FIELDS]
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
