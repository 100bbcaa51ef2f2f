import dataclasses
import json

import pytest

from pqeuler import harness, permstat
from pqeuler.algebra import LaurentPoly
from pqeuler.cli import BIJ_NAMES, main, parse_weight
from pqeuler.permstat import (
    Permutation,
    basic_stats,
    iter_family_words,
    word_str,
)


@pytest.mark.parametrize("cid", harness.CHECK_IDS)
def test_every_check_passes_small(cid):
    param = {"contra": 8, "sec7": 8}.get(cid, 5)
    report = harness.check(cid, param)
    assert report.passed, report.witness


PER_WORD_CHECKS = ("thm3_2", "sz_linear", "equidist_remark")


@pytest.mark.parametrize("cid", PER_WORD_CHECKS)
def test_per_word_checks_pass_through_8(cid):
    for param in (0, 8):
        report = harness.check(cid, param)
        assert report.passed, report.witness


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
    real = harness.csz_word
    a, b = (1, 2, 3, 4), (1, 2, 4, 3)
    swapped = {a: real(b), b: real(a)}
    monkeypatch.setattr(harness, "csz_word",
                        lambda w: swapped.get(w) or real(w))
    report = harness.check("thm3_2", 5)
    assert not report.passed
    assert report.witness.startswith("sigma=1234:")


def _plant_phi_partner_swap(monkeypatch):
    # swap the partners of two moved words of equal ndes: still an
    # involution with the same fixed set, but ndes no longer changes by 1
    real = harness.invol_phi_word
    moved = [w for w in iter_family_words("S", 4) if real(w) != w]
    a, b = next((s, t) for s in moved for t in moved
                if t not in (s, real(s))
                and basic_stats(s).ndes == basic_stats(t).ndes)
    fake = {a: b, b: a, real(a): real(b), real(b): real(a)}
    monkeypatch.setattr(harness, "invol_phi_word",
                        lambda w: fake.get(w) or real(w))


def test_sz_linear_fails_when_invol_phi_breaks_the_ndes_change(monkeypatch):
    _plant_phi_partner_swap(monkeypatch)
    report = harness.check("sz_linear", 5)
    assert not report.passed
    assert "first involution statistic deltas" in report.witness


def test_sz_linear_fails_when_invol_psi_leaves_the_coderangements(monkeypatch):
    # the first moved coderangement of length 4 goes to 1234, which is not
    # one: its image has no image, so psi is not self-inverse there
    real = harness.invol_psi_word
    first = next(w for w in iter_family_words("Dstar", 4) if real(w) != w)
    monkeypatch.setattr(harness, "invol_psi_word",
                        lambda w: (1, 2, 3, 4) if w == first else real(w))
    report = harness.check("sz_linear", 4)
    assert report.witness == (f"n=4 sigma={word_str(first)}: "
                              "second involution not self-inverse")


# certificate, the core it calls, the domain its size-4 run walks
NOT_A_PERMUTATION = [(harness.certify_csz, "csz_word", "S"),
                     (harness.certify_phi, "invol_phi_word", "S"),
                     (harness.certify_psi, "invol_psi_word", "Dstar")]


@pytest.mark.parametrize("certify,core,domain", NOT_A_PERMUTATION,
                         ids=[core for _, core, _ in NOT_A_PERMUTATION])
def test_certificate_reports_an_image_outside_s_n(certify, core, domain,
                                                  monkeypatch):
    # the third word of the domain goes to 1224, which no word of S_4 is
    real = getattr(harness, core)
    planted = list(iter_family_words(domain, 4))[2]
    monkeypatch.setattr(harness, core,
                        lambda w: (1, 2, 2, 4) if w == planted else real(w))
    assert certify(4) == (f"sigma={word_str(planted)}: image 1224 "
                          "is not in S_4")


def test_certify_fz_fails_when_two_images_collide(monkeypatch):
    real = harness.fz
    a, b = Permutation((1, 2, 3)), Permutation((1, 3, 2))
    monkeypatch.setattr(harness, "fz",
                        lambda sigma: real(a) if sigma == b else real(sigma))
    assert harness.certify_fz(3) == f"sigma=132: image {real(a)} is also that of 123"
    assert harness.certify_fz(2) is None


SIDES = [(cid, half) for cid in harness.SIGNED for half in (1, 2)]


def _side_id(side):
    cid, half = side
    return f"{cid}-{('tangent', 'secant')[half - 1]}"


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

    def planted(nmax):
        values = real(nmax)
        values[11] = values[11] + LaurentPoly.const(1)
        return values

    monkeypatch.setattr(harness, "e_pq_upto", planted)
    report = harness.check("contra", 12)
    assert report.witness == "jv-tangent: expansion differs from signed Euler series"


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
}


def test_signed_sides_match_the_hand_written_formulas():
    from pqeuler.algebra import LaurentPoly
    base = LaurentPoly.monomial(2, p=3, q=-1) + LaurentPoly.const(5)
    assert sorted(HAND_WRITTEN) == sorted(SIDES)
    for (cid, half), sign in HAND_WRITTEN.items():
        side = harness.SIGNED[cid][half]
        parity = 1 if half == 1 else 0
        for n in range(1, 13):
            want = sign(n) * base if n % 2 == parity else LaurentPoly()
            assert side.value(n, base) == want, (cid, half, n)


def test_equidist_remark_fails_on_a_pair_of_another_distribution(monkeypatch):
    monkeypatch.setattr(harness, "_EQUIDIST_PAIRS",
                        (("suc", "ndes"), ("des", "fix"), ("fix", "wex")))
    report = harness.check("equidist_remark", 5)
    assert not report.passed
    assert "('des', 'fix') distribution" in report.witness


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
    from pqeuler.harness import MINUS_ONE, _signed
    lhs = _signed("S", 5, "wex", "cros", MINUS_ONE)
    from pqeuler.qeuler import e_q
    assert lhs == MINUS_ONE ** 3 * e_q(5, "cf")
    assert _signed("S", 4, "wex", "cros", MINUS_ONE) == LaurentPoly()


def test_euler_roselle_single_derangement():
    from pqeuler.harness import MINUS_ONE, _signed
    assert _signed("D", 2, "exc", None, MINUS_ONE).as_int() == -1


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


def test_cli_repeated_weight_variable_is_a_usage_error(capsys):
    argv = ["table", "--family", "S", "--n", "3", "--weight", "x=wex,x=fix"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'x'" in captured.err and "twice" in captured.err


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_bad_worker_count_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setenv("PQEULER_WORKERS", value)
    assert main(["table", "--family", "S", "--n", "3", "--weight", "x=wex"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PQEULER_WORKERS" in captured.err and repr(value) in captured.err


def test_parse_weight():
    w = parse_weight("q=toht+2*thto,x=ndes")
    assert w == {"q": {"toht": 1, "thto": 2}, "x": {"ndes": 1}}
    with pytest.raises(Exception):
        parse_weight("q=nosuchstat")
