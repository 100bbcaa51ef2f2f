import math

import pytest

from pqeuler.algebra import LaurentPoly
from pqeuler.lattice import enumerate_objects, laguerre_quintuple_weights
from pqeuler.lattice import DOWN, LEVEL, UP
from pqeuler.maps import (
    csz,
    csz_biwords,
    csz_word,
    fv,
    fv_star,
    fz,
    invol_phi,
    invol_phi_word,
    invol_psi,
    invol_psi_word,
)
from pqeuler.permstat import (
    Permutation,
    basic_stats,
    cros_k,
    cyclic_type,
    family_contains,
    family_iter,
    is_coderangement,
    iter_family_words,
    pattern_k,
)


def test_csz_worked_example():
    sigma = Permutation.parse("412796583")
    fw, gw = csz_biwords(sigma)
    assert fw.top == (1, 3, 5, 6)
    assert fw.bottom == (8, 4, 6, 9)
    assert gw.top == (2, 4, 7, 8, 9)
    assert gw.bottom == (1, 2, 7, 5, 3)
    assert str(csz(sigma)) == "249385716"


@pytest.mark.parametrize("n", range(1, 8))
def test_csz_transports_quintuple(n):
    images = set()
    for sigma in family_iter("S", n):
        tau = csz(sigma)
        images.add(tau.word)
        a, b = basic_stats(sigma), basic_stats(tau)
        assert (a.ndes, a.fmax, a.toht, a.thto, a.mad) == \
            (b.wex, b.fix, b.cros, b.nest, b.inv)
    assert len(images) == math.factorial(n)


@pytest.mark.parametrize("n", (1, 3, 5))
def test_fv_is_bijective(n):
    images = {fv(s) for s in family_iter("A", n)}
    codomain = set(enumerate_objects("diagramme", n - 1))
    assert images == codomain


@pytest.mark.parametrize("n", (0, 2, 4, 6))
def test_fv_star_is_bijective(n):
    images = {fv_star(s) for s in family_iter("A", n)}
    codomain = set(enumerate_objects("restricted_diagramme", n))
    assert images == codomain


def test_fv_xi_records_left_embracings():
    sigma = Permutation.parse("32415")
    d = fv(sigma)
    # value k goes up iff its position in sigma is even
    ups = [k for k, s in enumerate(d.path.steps, 1) if s == "U"]
    assert ups == [1, 2]  # values 1 (position 4) and 2 (position 2)
    rec = basic_stats(sigma)
    assert sum(d.xi) <= rec.toht


@pytest.mark.parametrize("n", range(0, 7))
def test_fz_is_bijective(n):
    images = {fz(s) for s in family_iter("S", n)}
    codomain = set(enumerate_objects("laguerre", n))
    assert images == codomain


@pytest.mark.parametrize("n", range(1, 7))
def test_fz_valuation_gives_quintuple_monomial(n):
    spec = laguerre_quintuple_weights()
    for sigma in family_iter("S", n):
        h = fz(sigma)
        weight = LaurentPoly.const(1)
        for step, ht, xi in zip(h.path.steps, h.path.heights(), h.xi):
            weight = weight * spec.valuation(step, ht, xi)
        rec = basic_stats(sigma)
        want = LaurentPoly.monomial(1, x=rec.wex, y=rec.fix, q=rec.cros,
                                    p=rec.nest, s=rec.inv)
        assert weight == want, str(sigma)


def test_phi_examples():
    assert str(invol_phi(Permutation.parse("123"))) == "132"


def test_psi_examples():
    assert str(invol_psi(Permutation.parse("4321"))) == "4213"
    with pytest.raises(ValueError):
        invol_psi(Permutation.parse("123"))  # has a foremaximum


@pytest.mark.parametrize("n", range(1, 7))
def test_phi_involution_certificates(n):
    for sigma in family_iter("S", n):
        tau = invol_phi(sigma)
        assert invol_phi(tau) == sigma
        fixed = family_contains("Aprime", sigma.word)
        assert fixed == (tau == sigma)
        if not fixed:
            a, b = basic_stats(sigma), basic_stats(tau)
            assert a.toht == b.toht
            assert abs(a.ndes - b.ndes) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_psi_involution_certificates(n):
    for sigma in family_iter("Dstar", n):
        tau = invol_psi(sigma)
        assert invol_psi(tau) == sigma
        fixed = family_contains("Adoubleprime", sigma.word)
        assert fixed == (tau == sigma)
        if not fixed:
            a, b = basic_stats(sigma), basic_stats(tau)
            assert a.toht - b.toht == a.ndes - b.ndes
            assert abs(a.ndes - b.ndes) == 1
            assert a.mad == b.mad


def test_fv_rejects_wrong_parity():
    with pytest.raises(ValueError):
        fv(Permutation.parse("21"))
    with pytest.raises(ValueError):
        fv_star(Permutation.parse("213"))
    with pytest.raises(ValueError):
        fv(Permutation.parse("123"))  # not falling alternating


# ---------------------------------------------------------------------------
# the tuple cores against their wrappers and against the definitions


def _csz_by_definition(w):
    """csz with each right embracing number from pattern_k and each biword
    row by sorting."""
    n = len(w)
    tops = {w[i] for i in range(n - 1) if w[i] > w[i + 1]}
    bottoms = {w[i + 1] for i in range(n - 1) if w[i] > w[i + 1]}
    fprime, gprime = [], []
    for a in sorted(tops, reverse=True):
        fprime.insert(pattern_k(w, a, "2-31"), a)
    for b in sorted(set(w) - tops):
        gprime.insert(len(gprime) - pattern_k(w, b, "2-31"), b)
    tau = [0] * n
    for top, bottom in zip(sorted(bottoms) + sorted(set(w) - bottoms),
                           fprime + gprime):
        tau[bottom - 1] = top
    return tuple(tau)


def _involution_by_definition(w, right, past_smaller):
    """The largest letter v that is a double ascent or a double descent
    between the boundaries 0 and ``right`` moves.  phi (past_smaller) sends
    a double ascent forward past the next smaller letter and a double
    descent back behind the previous smaller one; psi sends a double descent
    forward past the next larger letter and a double ascent back behind the
    previous larger one."""
    x = (0,) + w + (right,)
    movable = [v for i, v in enumerate(w, 1)
               if x[i - 1] < v < x[i + 1] or x[i - 1] > v > x[i + 1]]
    if not movable:
        return w
    v = max(movable)
    m = w.index(v)
    rest = w[:m] + w[m + 1:]
    blocks = [u < v if past_smaller else u > v for u in rest]
    if (x[m] < v) == past_smaller:      # forward
        j = next((j for j in range(m, len(rest)) if blocks[j]), len(rest))
    else:
        j = next((j + 1 for j in range(m - 1, -1, -1) if blocks[j]), 0)
    return rest[:j] + (v,) + rest[j:]


@pytest.mark.parametrize("n", range(0, 9))
def test_tuple_cores_match_their_wrappers_and_the_definitions(n):
    for w in iter_family_words("S", n):
        sigma = Permutation(w)
        tau, phi = csz_word(w), invol_phi_word(w)
        assert csz(sigma).word == tau
        assert invol_phi(sigma).word == phi
        fw, gw = csz_biwords(sigma)
        assert all(tau[b - 1] == t for t, b in zip(fw.top + gw.top,
                                                   fw.bottom + gw.bottom))
        if n <= 7:
            assert tau == _csz_by_definition(w)
            assert phi == _involution_by_definition(w, 0, True)
        if is_coderangement(w):
            psi = invol_psi_word(w)
            assert invol_psi(sigma).word == psi
            if n <= 7:
                assert psi == _involution_by_definition(w, n + 1, False)


def _fz_by_definition(sigma):
    steps, xi = [], []
    for k in range(1, sigma.n + 1):
        kind, ck = cyclic_type(sigma, k), cros_k(sigma, k)
        step, x = {"cyclic-valley": (UP, ck), "cyclic-peak": (DOWN, ck),
                   "fixed": (LEVEL, 0), "cyclic-double-ascent": (LEVEL, ck),
                   "cyclic-double-descent": (LEVEL, -(ck + 1))}[kind]
        steps.append(step)
        xi.append(x)
    return tuple(steps), tuple(xi)


@pytest.mark.parametrize("n", range(0, 8))
def test_fz_matches_the_definition(n):
    for sigma in family_iter("S", n):
        h = fz(sigma)
        assert (h.path.steps, h.xi) == _fz_by_definition(sigma), str(sigma)
