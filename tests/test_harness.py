import dataclasses
import json
import random
import time
from functools import partial

import pytest

from pqeuler import contfrac, harness, permstat, qeuler
from pqeuler.algebra import LaurentPoly, TruncSeries
from pqeuler.cli import BIJ_NAMES, main, parse_weight
from pqeuler.contfrac import (SFraction, contract_odd, expand_by_convergents,
                              expand_j, expand_s, value_at)
from pqeuler.permstat import basic_stats, family_iter, word_str


@pytest.mark.parametrize("cid", harness.CHECK_IDS)
def test_every_check_passes_small(cid):
    param = {"contra": 8, "sec7": 8}.get(cid, 5)
    report = harness.check(cid, param)
    assert report.passed, report.witness


PER_WORD_CHECKS = ("thm3_2", "sz_linear", "equidist_remark")


@pytest.mark.parametrize("cid", PER_WORD_CHECKS)
def test_per_word_checks_pass_through_8(cid):
    for param in (1, 8):
        report = harness.check(cid, param)
        assert report.passed, report.witness


# the checks stated for n >= 1; the others check t^0
FROM_ONE = ("euler_roselle", "foata_han", "jv", "shin_zeng", "thm3_2",
            "sz_linear", "mad_remark", "equidist_remark")


@pytest.mark.parametrize("cid", harness.CHECK_IDS)
def test_size_0_is_refused_where_it_would_check_nothing(cid, capsys):
    if cid in FROM_ONE:
        with pytest.raises(ValueError, match="at least 1"):
            harness.check(cid, 0)
        assert main(["verify", cid, "--n", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 1" in captured.err
    else:
        assert harness.check(cid, 0).passed
        assert main(["verify", cid, "--n", "0"]) == 0


@pytest.mark.parametrize("run", [
    lambda n: harness.check("thm3_2", n),
    lambda n: harness.check("sz_linear", n),
    harness.certify_fz,
], ids=["thm3_2", "sz_linear", "certify_fz"])
def test_per_word_checks_stop_at_the_word_cap_before_any_size(
        run, monkeypatch):
    # S_11 has more than MAX_OBJECTS = 10! words: a check that ran
    # n = 1..10 first would take minutes
    start = time.perf_counter()
    with pytest.raises(permstat.EnumerationCapError, match=(
            r"^enumeration too large: S_11 has more than MAX_OBJECTS = "
            r"3628800 objects \(S_11 has 39916800\)$")):
        run(11)
    assert time.perf_counter() - start < 1
    # S_5 has 120 words: at the bound the check runs, one below it refuses
    monkeypatch.setattr(permstat, "MAX_OBJECTS", 120)
    run(5)
    monkeypatch.setattr(permstat, "MAX_OBJECTS", 119)
    with pytest.raises(permstat.EnumerationCapError,
                       match=r"\(S_5 has 120\)$"):
        run(5)


@pytest.mark.parametrize("argv", [
    ["verify", "thm3_2", "--n"],
    ["verify", "sz_linear", "--n"],
    ["bij", "fz", "--verify", "--n"],
], ids=" ".join)
def test_cli_per_word_check_above_the_word_cap_exits_2(argv, capsys):
    assert main(argv + ["11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration too large: S_11 has more than MAX_OBJECTS = "
        "3628800 objects (S_11 has 39916800)\n")


def test_per_word_checks_never_call_the_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a check called the per-word kernel")

    monkeypatch.setattr(permstat, "stat_tuple", forbidden)
    monkeypatch.setattr(permstat, "basic_stats", forbidden)
    monkeypatch.setattr(harness, "basic_stats", forbidden, raising=False)
    for cid in PER_WORD_CHECKS:
        report = harness.check(cid, 6)
        assert report.passed, report.witness


def test_thm3_2_fails_when_two_csz_images_are_swapped(monkeypatch):
    real = harness.csz
    a, b = (1, 2, 3, 4), (1, 2, 4, 3)
    swapped = {a: real(b), b: real(a)}
    monkeypatch.setattr(harness, "csz",
                        lambda w: swapped.get(w) or real(w))
    report = harness.check("thm3_2", 5)
    assert not report.passed
    assert report.witness.startswith("sigma=1234:")


def _plant_phi_partner_swap(monkeypatch):
    # swap the partners of two moved words of equal ndes: still an
    # involution with the same fixed set, but ndes no longer changes by 1
    real = harness.invol_phi
    moved = [w for w in family_iter("S", 4) if real(w) != w]
    a, b = next((s, t) for s in moved for t in moved
                if t not in (s, real(s))
                and basic_stats(s).ndes == basic_stats(t).ndes)
    fake = {a: b, b: a, real(a): real(b), real(b): real(a)}
    monkeypatch.setattr(harness, "invol_phi",
                        lambda w: fake.get(w) or real(w))


def test_sz_linear_fails_when_invol_phi_breaks_the_ndes_change(monkeypatch):
    _plant_phi_partner_swap(monkeypatch)
    report = harness.check("sz_linear", 5)
    assert not report.passed
    assert "first involution statistic deltas" in report.witness


def test_sz_linear_fails_when_invol_psi_leaves_the_coderangements(monkeypatch):
    # the first moved coderangement of length 4 goes to 1234, which is not
    # one: its image has no image, so psi is not self-inverse there
    real = harness.invol_psi
    first = next(w for w in family_iter("Dstar", 4) if real(w) != w)
    monkeypatch.setattr(harness, "invol_psi",
                        lambda w: (1, 2, 3, 4) if w == first else real(w))
    report = harness.check("sz_linear", 4)
    assert report.witness == (f"n=4 sigma={word_str(first)}: "
                              "second involution not self-inverse")


def test_certify_psi_tests_each_word_for_a_coderangement_once(monkeypatch):
    # invol_psi tests its word; the certificate reads the domain off fmax
    from pqeuler import maps
    tested = []

    def counting(real):
        def wrapped(word):
            tested.append(word)
            return real(word)
        return wrapped

    for owner in (maps, permstat):
        monkeypatch.setattr(owner, "is_coderangement",
                            counting(owner.is_coderangement))
    n = 6
    assert harness.certify_psi(n) is None
    assert sorted(tested) == list(family_iter("Dstar", n))


# certificate, the map it calls, the domain its size-4 run walks
NOT_A_PERMUTATION = [(harness.certify_csz, "csz", "S"),
                     (harness.certify_phi, "invol_phi", "S"),
                     (harness.certify_psi, "invol_psi", "Dstar")]


@pytest.mark.parametrize("certify,name,domain", NOT_A_PERMUTATION,
                         ids=[name for _, name, _ in NOT_A_PERMUTATION])
def test_certificate_reports_an_image_outside_s_n(certify, name, domain,
                                                  monkeypatch):
    # the third word of the domain goes to 1224, which no word of S_4 is
    real = getattr(harness, name)
    planted = list(family_iter(domain, 4))[2]
    monkeypatch.setattr(harness, name,
                        lambda w: (1, 2, 2, 4) if w == planted else real(w))
    assert certify(4) == (f"sigma={word_str(planted)}: image 1224 "
                          "is not in S_4")


def test_certify_fz_fails_when_two_images_collide(monkeypatch):
    real = harness.fz
    a, b = (1, 2, 3), (1, 3, 2)
    monkeypatch.setattr(harness, "fz",
                        lambda sigma: real(a) if sigma == b else real(sigma))
    assert harness.certify_fz(3) == f"sigma=132: image {real(a)} is also that of 123"
    assert harness.certify_fz(2) is None


SIDES = [(cid, half) for cid in harness.SIGNED for half in (1, 2)]


def _side_id(side):
    # by parity (tangent odd, secant even) where a row's sides differ in it,
    # else by family: both sides of mad_remark are even
    cid, half = side
    sides = harness.SIGNED[cid][1:]
    if len({s.parity for s in sides}) < len(sides):
        return f"{cid}-{sides[half - 1].family}"
    return f"{cid}-{('secant', 'tangent')[sides[half - 1].parity]}"


def _flip_lead(monkeypatch, cid, half):
    """Plant a fault: the side's lead sign flipped in SIGNED.  Returns the
    side as it was."""
    row = list(harness.SIGNED[cid])
    side = row[half]
    row[half] = dataclasses.replace(side, lead=-side.lead)
    monkeypatch.setitem(harness.SIGNED, cid, tuple(row))
    return side


@pytest.mark.parametrize("cid,half", SIDES, ids=map(_side_id, SIDES))
def test_signed_check_fails_when_a_side_flips_its_lead(cid, half, monkeypatch):
    side = _flip_lead(monkeypatch, cid, half)
    report = harness.check(cid, 5)
    assert not report.passed
    assert str(side) in report.witness


@pytest.mark.parametrize("cid,half", SIDES, ids=map(_side_id, SIDES))
def test_signed_sums_fold_the_sign_into_the_dp(cid, half):
    # the folded sum against the sum with an x digit, substituted after
    side = harness.SIGNED[cid][half]
    weight = {"x": {side.sign_stat: 1}}
    if side.q_stat:
        weight["q"] = {side.q_stat: 1}
    for family in filter(None, (side.family, side.fixed)):
        sums = side.sums(9, family)
        for n in range(0, 10):
            plain = permstat.stat_polynomial(family, n, weight)
            assert sums[n] == plain.substitute({"x": side.x}), (family, n)


CONTRA_SIDES = [side for side in SIDES if side[0] in ("jv", "shin_zeng")]


@pytest.mark.parametrize("cid,half", CONTRA_SIDES, ids=map(_side_id, CONTRA_SIDES))
def test_contra_targets_follow_the_signed_table(cid, half, monkeypatch):
    _flip_lead(monkeypatch, cid, half)
    name = harness.SPECIALIZED[cid][half - 1]
    report = harness.check("contra", 2)
    assert report.witness == f"{name}: expansion differs from signed Euler series"


def test_contra_compares_the_presets_past_order_ten(monkeypatch):
    # E_11(p,q) off by 1: only jv-tangent's comparison up to the order sees it
    real = harness.e_pq_upto

    def planted(nmax, at=None):
        values = real(nmax, at)
        values[11] = values[11] + LaurentPoly.const(1)
        return values

    monkeypatch.setattr(harness, "e_pq_upto", planted)
    report = harness.check("contra", 12)
    assert report.witness == "jv-tangent: expansion differs from signed Euler series"


CONTRA_ORDER = 4
# t^3 of a contraction, the only coefficient a planted fault touches
FAULT_AT = 3


def _contra_fraction():
    """The first random trial of contra at CONTRA_ORDER, and its d: the
    largest q-degree among c_1..c_order."""
    rng = random.Random(harness.CONTRA_SEED)
    sf = harness._random_s_fraction(rng, CONTRA_ORDER + 4)
    d = max(e[3] for k in range(1, CONTRA_ORDER + 1)
            for e, _ in sf.c(k).sorted_terms())
    return sf, d


def _vanishing_at_the_points(d):
    # prod (q - x) over the points 0..order d, of degree order d + 1: it
    # vanishes wherever a check by as many points as the degree bound would
    # look, but not at q = 2^B
    out = LaurentPoly.const(1)
    for x in range(CONTRA_ORDER * d + 1):
        out = out * (LaurentPoly.var("q") - x)
    return out


FAULTS = {
    "plus_one": lambda d: LaurentPoly.const(1),
    "vanishing": _vanishing_at_the_points,
    "q_inverse": lambda d: LaurentPoly.var("q", -1),
    "x_term": lambda d: LaurentPoly.var("x"),
}


def _planted(series, fault):
    coeffs = list(series.coeffs)
    coeffs[FAULT_AT] = coeffs[FAULT_AT] + fault
    return TruncSeries(series.order, coeffs)


EVEN, ODD = 0, 1


def _plant_in_the_passes(monkeypatch, fault, sides):
    """Add the fault at t^FAULT_AT to the given sides of every int pass of
    contra's random trials, as the pass would carry it: by its image under
    the map the pass applies to each c_k, its size in the bound passes at
    q = 1 and its value in the passes at q = 2^B.  A fault outside Z[q]
    has no value there, so it is added as it is and the pass leaves the
    ints."""
    real = harness._contractions_at

    def planted(sf, order, value):
        passes = real(sf, order, value)
        try:
            image = value(fault)
        except ValueError:
            image = fault
        for side in sides:
            passes[side][FAULT_AT] += image
        return passes

    monkeypatch.setattr(harness, "_contractions_at", planted)


LEVEL_MISMATCH = "level form disagrees with contracted form"


def test_oracle_comparison_passes_the_even_contraction():
    sf, d = _contra_fraction()
    assert d == 2
    even = expand_s(sf, CONTRA_ORDER)
    assert harness._contraction_agrees(sf, CONTRA_ORDER, even) is None
    assert harness._contraction_agrees(sf, CONTRA_ORDER) is None
    # each int pass is the Laurent polynomial series at the point
    point = 1 << harness._point_bits(sf, CONTRA_ORDER)
    passes = harness._contractions_at(sf, CONTRA_ORDER,
                                      partial(value_at, q=point))
    want = [c.substitute({"q": point}).as_int() for c in even.coeffs]
    assert passes == (want, want)


@pytest.mark.parametrize("name", FAULTS)
def test_oracle_comparison_catches_a_planted_fault(name, monkeypatch):
    sf, d = _contra_fraction()
    fault = FAULTS[name](d)
    # in a level form, the Laurent polynomial series of an S-form preset
    level = _planted(expand_s(sf, CONTRA_ORDER), fault)
    assert harness._contraction_agrees(sf, CONTRA_ORDER, level) == LEVEL_MISMATCH
    # the same fault in both contractions' int passes keeps them equal to
    # each other, so only the oracle can catch it
    _plant_in_the_passes(monkeypatch, fault, (EVEN, ODD))
    assert (harness._contraction_agrees(sf, CONTRA_ORDER)
            == "even contraction mismatch")


def _collision_bits(sf, series):
    """B as the one-point check should pick it: 2^(B-1) above every
    |coefficient| of ``series`` and of the fraction and its even and odd
    contractions with each c_k replaced by the sum of its absolute
    coefficients, at q = 1, each expanded here as a Laurent series (the odd
    one as 1 + c_1 t J, with J expanded by ``expand_j``)."""
    absolute = SFraction(c=lambda k: LaurentPoly.const(
        sum(abs(c) for _, c in sf.c(k).sorted_terms())))
    c1, jf = contract_odd(absolute)
    sides = (expand_by_convergents(absolute, CONTRA_ORDER),
             expand_s(absolute, CONTRA_ORDER),
             TruncSeries.one(CONTRA_ORDER)
             + expand_j(jf, CONTRA_ORDER).scale(c1).shift(1))
    top = max([coeff.as_int() for side in sides for coeff in side.coeffs]
              + [abs(c) for coeff in series.coeffs
                 for _, c in coeff.sorted_terms()])
    return top.bit_length() + 1


@pytest.mark.parametrize("k", (0, 2))
def test_oracle_comparison_rejects_a_collision_at_the_point(k, monkeypatch):
    # P + (q - 2^B) q^k equals P at q = 2^B for the B that the unperturbed
    # sides pick; its own coefficient -2^B raises B, so it must fail, in
    # a level form and in either contraction's int passes
    sf, _ = _contra_fraction()
    even = expand_s(sf, CONTRA_ORDER)
    bits = _collision_bits(sf, even)
    rows = [dict((e[3], c) for e, c in coeff.sorted_terms())
            for coeff in even.coeffs]
    assert harness._point_bits(sf, CONTRA_ORDER, rows) == bits
    assert harness._point_bits(sf, CONTRA_ORDER) == bits
    fault = (LaurentPoly.var("q") - (1 << bits)) * LaurentPoly.var("q", k)
    assert fault.substitute({"q": 1 << bits}).is_zero()
    assert (harness._contraction_agrees(sf, CONTRA_ORDER, _planted(even, fault))
            == LEVEL_MISMATCH)
    for side, witness in ((EVEN, "even contraction mismatch"),
                          (ODD, "odd contraction mismatch")):
        with monkeypatch.context() as m:
            _plant_in_the_passes(m, fault, (side,))
            assert harness._point_bits(sf, CONTRA_ORDER) > bits
            assert harness._contraction_agrees(sf, CONTRA_ORDER) == witness


def test_the_vanishing_fault_hides_from_every_point():
    sf, d = _contra_fraction()
    fault = _vanishing_at_the_points(d)
    assert fault.sorted_terms()[-1][0][3] == CONTRA_ORDER * d + 1
    for q in range(CONTRA_ORDER * d + 1):
        assert fault.substitute({"q": q}).is_zero()


def test_an_odd_only_fault_is_an_odd_contraction_mismatch(monkeypatch):
    sf, _ = _contra_fraction()
    _plant_in_the_passes(monkeypatch, LaurentPoly.const(1), (ODD,))
    assert (harness._contraction_agrees(sf, CONTRA_ORDER)
            == "odd contraction mismatch")


def test_contra_names_the_preset_whose_even_contraction_fails(monkeypatch):
    # a fault in the even int pass of sz-tangent's S-form alone, the second
    # S-form that contra checks
    s_forms = []
    real_preset, real_passes = harness.preset, harness._contractions_at

    def recording(name):
        pr = real_preset(name)
        if name == "sz-tangent":
            s_forms.append(pr.s_form)
        return pr

    def planted(sf, order, value):
        even, odd = real_passes(sf, order, value)
        if any(sf is f for f in s_forms):
            even[FAULT_AT] += 1
        return even, odd

    monkeypatch.setattr(harness, "preset", recording)
    monkeypatch.setattr(harness, "_contractions_at", planted)
    report = harness.check("contra", CONTRA_ORDER)
    assert report.witness == "sz-tangent: even contraction mismatch"


def test_contra_expands_each_even_contraction_once(monkeypatch):
    # no Laurent series for an S-form: expand_s never runs, and every
    # contraction contra builds is of an int-valued fraction.  The int
    # passes of each random trial and of each S-form preset run once at
    # q = 1 for B and once at q = 2^B
    laurent, passes = [], []
    for owner in (contfrac, harness):
        monkeypatch.setattr(owner, "expand_s",
                            lambda sf, order: laurent.append(sf))
    for attr in ("contract_even", "contract_odd"):
        real = getattr(harness, attr)

        def checked(sf, _real=real):
            if type(sf.c(1)) is not int:
                laurent.append(sf)
            return _real(sf)

        monkeypatch.setattr(harness, attr, checked)
    real_passes = harness._contractions_at
    monkeypatch.setattr(harness, "_contractions_at", lambda sf, order, value:
                        passes.append(1) or real_passes(sf, order, value))
    assert harness.check("contra", CONTRA_ORDER).passed
    s_forms = [name for names in harness.SPECIALIZED.values() for name in names
               if harness.preset(name).s_form is not None]
    assert s_forms == ["jv-tangent", "sz-tangent"]
    assert laurent == []
    assert len(passes) == 2 * harness.CONTRA_TRIALS + 2 * len(s_forms)


@pytest.mark.parametrize("cid", harness.CHECK_IDS)
def test_no_check_takes_a_series_reciprocal_or_product(monkeypatch, cid):
    # TruncSeries.recip and * serve the oracle expand_by_convergents and the
    # tests only
    def forbidden(*args):
        raise AssertionError(f"{cid} did series arithmetic")

    monkeypatch.setattr(TruncSeries, "recip", forbidden)
    monkeypatch.setattr(TruncSeries, "__mul__", forbidden)
    report = harness.check(cid, 6 if cid == "contra" else 5)
    assert report.passed, report.witness


@pytest.mark.parametrize("levels", (8, 16, 20))
def test_random_s_fractions_are_the_sums_of_their_drawn_monomials(levels):
    # each level was once built as the sum of three LaurentPoly.var terms
    new, old = (random.Random(harness.CONTRA_SEED) for _ in range(2))
    for _ in range(harness.CONTRA_TRIALS):
        sf = harness._random_s_fraction(new, levels)
        for k in range(1, levels + 1):
            want = LaurentPoly()
            while want.is_zero():
                want = sum((LaurentPoly.var("q", d, coeff=old.randint(-3, 3))
                            for d in range(3)), LaurentPoly())
            assert (sf.c(k).terms, sf.c(k).bound) == (want.terms, want.bound)


def test_sec7_checks_the_q_double_sum_past_ten(monkeypatch):
    real = harness.q_parity_formula
    monkeypatch.setattr(harness, "q_parity_formula",
                        lambda n: real(n) + LaurentPoly.const(1) if n == 12
                        else real(n))
    report = harness.check("sec7", 12)
    assert not report.passed
    assert report.witness.startswith("q double sum at n=12: ")


SERIES_IDS = list(harness.SERIES)


@pytest.mark.parametrize("cid", SERIES_IDS)
def test_series_check_fails_on_a_planted_preset(cid, monkeypatch):
    # the odd-n preset of the next row, wrong at some odd n <= 5 in each row
    odd, even, enumerated = harness.SERIES[cid]
    planted = harness.SERIES[SERIES_IDS[(SERIES_IDS.index(cid) + 1) % 6]][0]
    monkeypatch.setitem(harness.SERIES, cid, (planted, even, enumerated))
    report = harness.check(cid, 5)
    assert not report.passed
    assert report.witness.startswith("t^")
    assert f" of {planted}: " in report.witness


def _record_calls(monkeypatch, owner, name):
    """The (family, size, keywords) of every later call of ``owner.name``."""
    real = getattr(owner, name)
    calls = []

    def recording(family, n, *args, **kwargs):
        calls.append((family, n, kwargs))
        return real(family, n, *args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _wrong_at_3_and_5(sums):
    return [e + LaurentPoly.const(1) if n in (3, 5) else e
            for n, e in enumerate(sums)]


# the rows whose enumerated side is E_n(p,q): one program over A per parity
E_PQ_ROWS = ("thm2_1", "cor2_2", "cor2_3")


@pytest.mark.parametrize("cid", SERIES_IDS)
def test_series_check_enumerates_from_the_order_down(cid, monkeypatch):
    # one call at the order gives every order below it, and its programs
    # run at the order and, for E_n(p,q)'s other parity, one below it
    odd, even, enumerated = harness.SERIES[cid]
    orders = []

    def recording(order):
        orders.append(order)
        return enumerated(order)

    monkeypatch.setitem(harness.SERIES, cid, (odd, even, recording))
    programs = _record_calls(monkeypatch, permstat, "_accumulate")
    assert harness.check(cid, 5).passed
    assert orders == [5]
    assert [n for _, n, _ in programs] == ([5, 4] if cid in E_PQ_ROWS else [5])


def test_series_check_names_the_smallest_failing_order(monkeypatch):
    odd, even, enumerated = harness.SERIES["thm2_1"]

    def planted(order):
        return _wrong_at_3_and_5(enumerated(order))

    monkeypatch.setitem(harness.SERIES, "thm2_1", (odd, even, planted))
    report = harness.check("thm2_1", 6)
    assert report.witness.startswith("t^3 of tangent-pq: ")


@pytest.mark.parametrize("cid", list(harness.SIGNED))
def test_signed_check_sums_from_the_largest_n_down(cid, monkeypatch):
    # every sum is taken at 5 and read at every size below; only
    # Adoubleprime, which has no word of 5's parity, runs as A one below
    calls = _record_calls(monkeypatch, harness, "stat_polynomials")
    programs = _record_calls(monkeypatch, permstat, "_accumulate")
    assert harness.check(cid, 5).passed
    assert calls and {n for _, n, _ in calls} == {5}
    sums = [(family, n) for family, n, kw in programs if not kw.get("ranked")]
    assert len(sums) == len(calls)
    for (called, _, _), (family, n) in zip(calls, sums):
        assert (family, n) == (("A", 4) if called == "Adoubleprime" else
                               ("A", 5) if called == "Aprime" else
                               (called, 5)), called


def test_signed_check_names_the_smallest_failing_n(monkeypatch):
    real = harness.stat_polynomials

    def planted(family, nmax, *args, **kwargs):
        sums = real(family, nmax, *args, **kwargs)
        return _wrong_at_3_and_5(sums) if family == "S" else sums

    monkeypatch.setattr(harness, "stat_polynomials", planted)
    report = harness.check("euler_roselle", 6)
    assert report.witness.startswith("n=3 sum over S ")


def test_cli_oversize_order_exits_2_before_the_sizes_below(monkeypatch, capsys):
    # S_8 with the quintuple weight outgrows a lowered entry bound; the
    # check must not sum S_0..S_7 first
    calls = _record_calls(monkeypatch, harness, "stat_polynomials")
    programs = _record_calls(monkeypatch, permstat, "_accumulate")
    monkeypatch.setattr(permstat, "DP_MAX_ENTRIES", 1000)
    assert main(["verify", "thm4_1", "--order", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DP_MAX_ENTRIES" in captured.err
    assert [n for _, n, _ in calls] == [8]
    assert [n for _, n, _ in programs] == [8]


# the hand-written sign of each side before the table, as a factor of base_n
# at n of the side's parity
_M1, _MQ, _MIQ = harness.MINUS_ONE, harness.MINUS_Q, harness.MINUS_INV_Q
HAND_WRITTEN = {
    ("euler_roselle", 1): lambda n: _M1 ** ((n - 1) // 2),
    ("euler_roselle", 2): lambda n: _M1 ** (n // 2),
    ("foata_han", 1): lambda n: _M1 ** ((n - 1) // 2),
    ("foata_han", 2): lambda n: _M1 ** (n // 2),
    ("jv", 1): lambda n: _M1 ** ((n + 1) // 2),
    ("jv", 2): lambda n: _MIQ ** (n // 2),
    ("shin_zeng", 1): lambda n: _M1 ** ((n - 1) // 2),
    ("shin_zeng", 2): lambda n: _MQ ** (n // 2),
    ("sz_linear", 1): lambda n: _M1 ** ((n + 1) // 2),
    ("sz_linear", 2): lambda n: _MIQ ** (n // 2),
    ("mad_remark", 1): lambda n: _MQ ** (n // 2),
    ("mad_remark", 2): lambda n: _MQ ** (n // 2),
}


def test_signed_sides_match_the_hand_written_formulas():
    from pqeuler.algebra import LaurentPoly
    base = LaurentPoly.monomial(2, p=3, q=-1) + LaurentPoly.const(5)
    assert sorted(HAND_WRITTEN) == sorted(SIDES)
    for (cid, half), sign in HAND_WRITTEN.items():
        side = harness.SIGNED[cid][half]
        for n in range(1, 13):
            want = sign(n) * base if n % 2 == side.parity else LaurentPoly()
            assert side.value(n, base) == want, (cid, half, n)


def test_equidist_remark_fails_on_a_pair_of_another_distribution(monkeypatch):
    monkeypatch.setattr(harness, "_EQUIDIST_PAIRS",
                        (("suc", "ndes"), ("des", "fix"), ("fix", "wex")))
    report = harness.check("equidist_remark", 5)
    assert not report.passed
    assert "('des', 'fix') distribution" in report.witness


def test_equidist_remark_names_the_smallest_failing_n(monkeypatch):
    real = harness.stat_polynomials

    def planted(family, nmax, weight, *args, **kwargs):
        sums = real(family, nmax, weight, *args, **kwargs)
        return _wrong_at_3_and_5(sums) if "fmax" in weight["x"] else sums

    monkeypatch.setattr(harness, "stat_polynomials", planted)
    report = harness.check("equidist_remark", 6)
    assert report.witness.startswith("n=3: ('fmax', 'ndes') distribution ")


@pytest.mark.parametrize("cid", ["mad_remark", "equidist_remark"])
def test_oversize_check_is_refused_before_the_sizes_below(cid, monkeypatch):
    # with 60 states a layer, S_8 and up are refused at once (C(8, 4) = 70)
    calls = _record_calls(monkeypatch, harness, "stat_polynomials")
    programs = _record_calls(monkeypatch, permstat, "_accumulate")
    monkeypatch.setattr(permstat, "DP_MAX_STATES", 60)
    with pytest.raises(permstat.EnumerationCapError, match="DP_MAX_STATES = 60 "):
        harness.check(cid, 9)
    assert [n for _, n, _ in calls] == [9]
    assert [n for _, n, _ in programs] == [9]


@pytest.mark.parametrize("at,single", [(None, qeuler.e_pq),
                                       (qeuler.AT_Q, qeuler.e_q),
                                       (qeuler.AT_QSTAR, qeuler.e_star_q)])
def test_enumerated_e_pq_is_never_substituted_after_its_sum(
        at, single, monkeypatch):
    # E_n(q) and E*_n(q) are evaluated inside the program, by the SERIES
    # rows and by qeuler alike
    want = [e if at is None else e.substitute(at)
            for e in qeuler.e_pq_upto(7)]

    def forbidden(self, assignment):
        raise AssertionError("an enumerated sum was substituted after")

    monkeypatch.setattr(LaurentPoly, "substitute", forbidden)
    assert harness._e_pq_sums(7, at) == want
    assert [single(n) for n in range(8)] == want


# the programs each check runs at size 5: one per side, per fixed family and
# per enumerated base (foata_han's Astar), one per parity for E_n(p,q), and
# one per pair in equidist_remark
PROGRAMS_AT_5 = {"euler_roselle": 2, "foata_han": 3, "jv": 2, "shin_zeng": 2,
                 "sz_linear": 4, "mad_remark": 3, "thm2_1": 2, "cor2_2": 2,
                 "cor2_3": 2, "thm4_1": 1, "cor_cf_A": 1, "cor_cf_SZ": 1,
                 "equidist_remark": 3}


@pytest.mark.parametrize("cid", list(PROGRAMS_AT_5))
def test_each_sum_is_one_program_for_every_size(cid, monkeypatch):
    # sz_linear's signed sums alone: its certificates run a stat_table a size
    programs = _record_calls(monkeypatch, permstat, "_accumulate")
    if cid in harness.SIGNED:
        assert harness._check_signed(cid, 5) is None
    else:
        assert harness.check(cid, 5).passed
    assert len(programs) == PROGRAMS_AT_5[cid]


def test_check_report_shape():
    report = harness.check("euler_roselle", 4)
    data = report.to_json()
    assert data["check"] == "euler_roselle"
    assert data["param"] == 4
    assert data["status"] == "pass"
    assert "witness" not in data


def test_jv_example_values():
    # the odd case at n=5 equals -(2 + 5q + 5q^2 + 3q^3 + q^4)
    from pqeuler.algebra import LaurentPoly
    from pqeuler.harness import MINUS_ONE
    side = harness.SIGNED["jv"][1]  # sum over S of (-1)^wex q^cros
    sums = side.sums(5)
    from pqeuler.qeuler import AT_Q, e_pq_upto
    assert sums[5] == MINUS_ONE ** 3 * e_pq_upto(5)[5].substitute(AT_Q)
    assert sums[4] == LaurentPoly()


def test_euler_roselle_single_derangement():
    # sum over D of (-1)^exc
    assert harness.SIGNED["euler_roselle"][2].sums(2)[2].as_int() == -1


def test_unknown_check():
    with pytest.raises(ValueError):
        harness.check("nope")


# ---------------------------------------------------------------------------
# CLI


def test_cli_stats(capsys):
    assert main(["stats", "231"]) == 0
    out = capsys.readouterr().out
    assert "ndes=2" in out and "fmax=1" in out and "toht=0" in out
    assert "thto=1" in out and "mad=3" in out


def test_cli_stats_json(capsys):
    assert main(["stats", "231", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mad"] == 3


def test_cli_verify_pass_and_json(capsys):
    assert main(["verify", "jv", "--n", "5"]) == 0
    capsys.readouterr()
    assert main(["verify", "jv", "--n", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "pass"


def test_cli_cf_text(capsys):
    assert main(["cf", "secant-pq", "--order", "4"]) == 0
    assert capsys.readouterr().out.strip() == \
        "1 + t^2 + (p^2 + 2*p*q + q^2 + 1)*t^4"


def test_cli_table(capsys):
    assert main(["table", "--family", "S", "--n", "2",
                 "--weight", "x=wex,y=fix,q=cros,p=nest,s=inv"]) == 0
    assert capsys.readouterr().out.strip() == "x^2*y^2 + x*s"


def test_cli_table_euler(capsys):
    assert main(["table", "--what", "euler", "--n", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["E"] for r in rows] == ["1", "1", "1", "2"]


def test_cli_bij(capsys):
    assert main(["bij", "csz", "412796583"]) == 0
    out = capsys.readouterr().out
    assert "249385716" in out and "biword" in out
    assert main(["bij", "phi", "123"]) == 0
    assert capsys.readouterr().out.strip() == "132"


@pytest.mark.parametrize("name,perm,want", [
    ("fv", "5472613", "UUDUDD xi=[0, 0, 2, 0, 0, 1]"),
    ("fv-star", "524163", "UUUDDD xi=[0, 0, 2, 1, 0, 0]"),
    ("fz", "412796583", "ULLLULDLD xi=[0, -1, -1, 1, 1, 0, 0, 0, 0]"),
], ids=["fv", "fv-star", "fz"])
def test_cli_bij_prints_the_history(name, perm, want, capsys):
    assert main(["bij", name, perm]) == 0
    assert capsys.readouterr().out == want + "\n"


def test_cli_bij_verify(capsys):
    sizes = {"fv": 5, "fv-star": 6}
    for name in BIJ_NAMES:
        n = sizes.get(name, 5)
        assert main(["bij", name, "--verify", "--n", str(n)]) == 0, name
        assert capsys.readouterr().out == f"{name} verified at n={n}\n"


def test_cli_bij_verify_fails_on_a_planted_phi_fault(monkeypatch, capsys):
    _plant_phi_partner_swap(monkeypatch)  # the swapped words have length 4
    assert main(["bij", "phi", "--verify", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "first involution statistic deltas" in captured.err


def test_cli_export(tmp_path, capsys):
    out_file = tmp_path / "table.json"
    assert main(["export", "--n", "4", "--out", str(out_file)]) == 0
    rows = json.loads(out_file.read_text())
    assert rows[4]["E"] == "5"


@pytest.mark.parametrize("where", ["missing dir", "a dir"])
def test_cli_export_to_an_unwritable_path_is_a_usage_error(where, tmp_path, capsys):
    # exit 1 would say a verification failed
    out = tmp_path / "missing" / "t.json" if where == "missing dir" else tmp_path
    assert main(["export", "--n", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


def test_cli_usage_errors(capsys):
    assert main(["bogus"]) == 2
    assert main(["verify", "not-a-check"]) == 2
    assert main(["cf", "secant-pq"]) == 2  # missing --order
    assert main(["table", "--n", "3"]) == 2  # no family/weight
    assert main(["bij", "fv"]) == 2  # no perm, no --verify
    assert main(["bij", "fv", "--verify"]) == 2  # missing --n
    assert main(["bij", "fv", "--verify", "--n", "4"]) == 2  # fv needs odd n
    assert main(["bij", "fv-star", "--verify", "--n", "3"]) == 2  # even n
    assert main(["bij", "phi", "--verify", "--n", "0"]) == 2  # n >= 1
    assert main(["verify", "jv", "--n", "3", "--order", "5"]) == 2


# flags that a subcommand would otherwise drop without a word
IGNORED_FLAGS = [
    (["table", "--what", "euler", "--n", "2", "--family", "S", "--weight",
      "x=wex"], "--what euler takes no --family or --weight"),
    (["bij", "fz", "2,1", "--verify", "--n", "3"],
     "bij --verify takes no permutation"),
    (["bij", "fz", "2,1", "--n", "5"], "bij --n needs --verify"),
]


@pytest.mark.parametrize("argv,message", IGNORED_FLAGS,
                         ids=[" ".join(argv) for argv, _ in IGNORED_FLAGS])
def test_cli_flags_it_would_ignore_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("perm", ["abc", "1,,2"])
def test_cli_bad_permutation_names_itself(perm, capsys):
    assert main(["stats", perm]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(perm) in captured.err


@pytest.mark.parametrize("argv", [
    ["cf", "secant-pq", "--order", "-1"],
    ["verify", "thm4_1", "--order", "-1"],
    ["verify", "cor_cf_A", "--order", "-1"],
    ["verify", "thm2_1", "--order", "-1"],
    ["verify", "jv", "--n", "-3"],
    ["verify", "contra", "--order", "-2"],
    ["verify", "sec7", "--n", "-1"],
    ["verify", "euler_roselle", "--n", "-1"],
    ["table", "--family", "S", "--n", "-2", "--weight", "x=wex"],
    ["table", "--what", "euler", "--n", "-1"],
    ["export", "--n", "-1", "--out", "-"],
], ids=" ".join)
def test_cli_negative_size_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


@pytest.mark.parametrize("weight", ["z=inv", "x=wex,t=fix"])
def test_cli_unknown_weight_variable_is_a_usage_error(weight, capsys):
    assert main(["table", "--family", "S", "--n", "3", "--weight", weight]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown weight variable" in captured.err


def test_cli_bad_weight_coefficient_names_its_clause(capsys):
    argv = ["table", "--family", "S", "--n", "3", "--weight", "y=fix,x=a*wex"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'a*wex'" in captured.err and "'x=a*wex'" in captured.err


def test_cli_exponent_past_the_packed_range_is_a_usage_error(capsys):
    argv = ["table", "--family", "S", "--n", "5", "--weight",
            "q=1000000000000000000000000*inv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: an exponent may reach ")
    assert "past the packed digit range" in captured.err


def test_cli_repeated_weight_variable_is_a_usage_error(capsys):
    argv = ["table", "--family", "S", "--n", "3", "--weight", "x=wex,x=fix"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'x'" in captured.err and "twice" in captured.err


def test_parse_weight():
    w = parse_weight("q=toht+2*thto,x=ndes")
    assert w == {"q": {"toht": 1, "thto": 2}, "x": {"ndes": 1}}
    with pytest.raises(Exception):
        parse_weight("q=nosuchstat")
