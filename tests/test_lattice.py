import pytest

from pqeuler.algebra import LaurentPoly
from pqeuler.lattice import (
    DOWN,
    LEVEL,
    DyckDiagramme,
    LaguerreHistory,
    MotzkinPath,
    UP,
    abc_weights,
    diagramme_pq_weights,
    dyck_path,
    enumerate_objects,
    laguerre_quintuple_weights,
    restricted_diagramme_pq_weights,
    transfer,
    weighted_sum,
)
from pqeuler.qeuler import e_pq

MOTZKIN = [1, 1, 2, 4, 9, 21, 51]
CATALAN = [1, 1, 2, 5, 14, 42]
FACT = [1, 1, 2, 6, 24, 120, 720]


def test_path_validation():
    MotzkinPath("ULD")
    with pytest.raises(ValueError):
        MotzkinPath("DU")
    with pytest.raises(ValueError):
        MotzkinPath("UU")
    with pytest.raises(ValueError):
        MotzkinPath("UX")
    with pytest.raises(ValueError):
        dyck_path("ULD")


def test_heights_are_starting_ordinates():
    assert MotzkinPath("UULDD").heights() == [0, 1, 2, 2, 1]


def test_object_counts():
    for n, want in enumerate(MOTZKIN):
        assert sum(1 for _ in enumerate_objects("motzkin", n)) == want
    for n, want in enumerate(CATALAN):
        assert sum(1 for _ in enumerate_objects("dyck", 2 * n)) == want
    for n in range(6):
        assert sum(1 for _ in enumerate_objects("laguerre", n)) == FACT[n]


def test_diagramme_counts_are_euler_numbers():
    for n in range(5):
        count = sum(1 for _ in enumerate_objects("diagramme", 2 * n))
        assert count == e_pq(2 * n + 1, "cf").substitute({"p": 1, "q": 1}).as_int()
        rcount = sum(1 for _ in enumerate_objects("restricted_diagramme", 2 * n))
        assert rcount == e_pq(2 * n, "cf").substitute({"p": 1, "q": 1}).as_int()


# the xi range of every (kind, step) as (lowest, highest) at height h
XI_BOUNDS = {
    ("diagramme", UP): lambda h: (0, h),
    ("diagramme", DOWN): lambda h: (0, h),
    ("restricted_diagramme", UP): lambda h: (0, h),
    ("restricted_diagramme", DOWN): lambda h: (0, h - 1),
    ("laguerre", UP): lambda h: (0, h),
    ("laguerre", LEVEL): lambda h: (-h, h),
    ("laguerre", DOWN): lambda h: (0, h - 1),
}


def _object(kind, path, xi):
    if kind == "laguerre":
        return LaguerreHistory(path, xi)
    return DyckDiagramme(path, xi, restricted=(kind == "restricted_diagramme"))


def test_xi_validation():
    path = dyck_path("UD")
    DyckDiagramme(path, [0, 0])
    DyckDiagramme(path, [0, 1])  # down step at height 1 allows xi <= 1
    with pytest.raises(ValueError):
        DyckDiagramme(path, [1, 0])  # up step at height 0 forces xi = 0
    with pytest.raises(ValueError):
        DyckDiagramme(path, [0, 1], restricted=True)  # down needs xi < h
    with pytest.raises(ValueError):
        LaguerreHistory(MotzkinPath("L"), [1])
    LaguerreHistory(MotzkinPath("ULD"), [0, -1, 0])
    # both ends of every (kind, step) range, at heights 0 to 2
    seen = set()
    for kind, steps in (("diagramme", "UUDD"), ("restricted_diagramme", "UUDD"),
                        ("laguerre", "UULDD")):
        path = MotzkinPath(steps)
        for i, (step, h) in enumerate(zip(path.steps, path.heights())):
            seen.add((kind, step))
            lo, hi = XI_BOUNDS[kind, step](h)
            for x, ok in ((lo, True), (hi, True), (lo - 1, False), (hi + 1, False)):
                xi = [0] * len(path)
                xi[i] = x
                if ok:
                    _object(kind, path, xi)
                else:
                    with pytest.raises(ValueError, match="xi out of range"):
                        _object(kind, path, xi)
    assert seen == set(XI_BOUNDS)


def test_dp_equals_enumeration_small():
    specs = {
        "diagramme": diagramme_pq_weights(),
        "restricted_diagramme": restricted_diagramme_pq_weights(),
        "laguerre": laguerre_quintuple_weights(),
    }
    for kind, spec in specs.items():
        step = 2 if "diagramme" in kind else 1
        for length in range(0, 7, step):
            dp = weighted_sum(kind, length, spec, method="dp")
            brute = weighted_sum(kind, length, spec, method="enumerate")
            assert dp == brute, (kind, length)


def test_dp_equals_enumeration_with_integer_coefficients():
    # every step weight, the last step's included, has terms with
    # coefficients other than 1
    three, five = LaurentPoly.const(3), LaurentPoly.const(5)
    spec = abc_weights(a=lambda h: LaurentPoly.const(h + 2),
                       b=lambda h: LaurentPoly.var("q") + three,
                       c=lambda h: LaurentPoly.var("q", 1, coeff=-h) + five)
    for kind, step in (("motzkin", 1), ("dyck", 2)):
        for length in range(0, 9, step):
            dp = weighted_sum(kind, length, spec, method="dp")
            brute = weighted_sum(kind, length, spec, method="enumerate")
            assert dp == brute, (kind, length)


def test_abc_weights_count_paths():
    one = LaurentPoly.const(1)
    spec = abc_weights(a=lambda h: one, b=lambda h: one, c=lambda h: one)
    for n, want in enumerate(MOTZKIN):
        assert weighted_sum("motzkin", n, spec).as_int() == want
    for n, want in enumerate(CATALAN):
        assert weighted_sum("dyck", 2 * n, spec).as_int() == want


def test_diagramme_weights_give_pq_euler():
    for n in range(5):
        total = weighted_sum("diagramme", 2 * n, diagramme_pq_weights())
        assert total == e_pq(2 * n + 1, "cf")
        rtotal = weighted_sum("restricted_diagramme", 2 * n,
                              restricted_diagramme_pq_weights())
        assert rtotal == e_pq(2 * n, "cf")


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_objects("motzkin", 15))


def test_transfer_gives_every_length_in_one_pass():
    one = LaurentPoly.const(1)
    sums = transfer(lambda h: one, lambda h: one, None, 6, 6)
    assert [s.as_int() for s in sums] == MOTZKIN
    spec = laguerre_quintuple_weights()
    sums = transfer(spec.up, spec.level, spec.down, 6, 6)
    for n, got in enumerate(sums):
        assert got == weighted_sum("laguerre", n, spec, method="enumerate")


def test_transfer_max_height_cuts_the_fraction():
    # at the maximum height only down steps remain: with max height 1 the
    # Dyck paths are (UD)^k, and the Motzkin paths never take a level step
    # at height 1
    one = LaurentPoly.const(1)
    dyck = transfer(lambda h: one, None, None, 1, 8)
    assert [s.as_int() for s in dyck] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert [s.as_int() for s in transfer(lambda h: one, None, None, 0, 4)] == \
        [1, 0, 0, 0, 0]
    motzkin = transfer(lambda h: one, lambda h: one, None, 1, 4)
    # 1/(1 - t - t^2) : Fibonacci
    assert [s.as_int() for s in motzkin] == [1, 1, 2, 3, 5]


def test_transfer_rejects_negative_sizes():
    one = LaurentPoly.const(1)
    with pytest.raises(ValueError, match="order"):
        transfer(lambda h: one, None, None, 3, -1)
    with pytest.raises(ValueError, match="max_height"):
        transfer(lambda h: one, None, None, -1, 3)
    spec = abc_weights(lambda h: one, lambda h: one, lambda h: one)
    for method in ("dp", "enumerate"):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_sum("motzkin", -1, spec, method=method)


def test_dp_rejects_missing_weight():
    one = LaurentPoly.const(1)
    with pytest.raises(ValueError, match="L weight"):
        weighted_sum("motzkin", 3, abc_weights(a=lambda h: one, c=lambda h: one))
    assert weighted_sum("dyck", 4, abc_weights(a=lambda h: one,
                                               c=lambda h: one)).as_int() == 2
