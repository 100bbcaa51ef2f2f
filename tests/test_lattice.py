import pytest

from pqeuler.algebra import LaurentPoly
from pqeuler.contfrac import preset
from pqeuler.lattice import (
    DOWN,
    LEVEL,
    History,
    UP,
    WeightSpec,
    diagramme_pq_weights,
    enumerate_objects,
    heights,
    laguerre_quintuple_weights,
    restricted_diagramme_pq_weights,
    transfer,
    weighted_sum,
)
from pqeuler.permstat import EnumerationCapError
from pqeuler.qeuler import e_pq_upto

MOTZKIN = [1, 1, 2, 4, 9, 21, 51]
CATALAN = [1, 1, 2, 5, 14, 42]
FACT = [1, 1, 2, 6, 24, 120, 720]


def test_path_validation():
    History("laguerre", "ULD", [0, 0, 0])
    with pytest.raises(ValueError, match="dips below zero"):
        History("laguerre", "DU", [0, 0])
    with pytest.raises(ValueError, match="does not return to zero"):
        History("laguerre", "UU", [0, 0])
    with pytest.raises(ValueError, match="bad step"):
        History("laguerre", "UX", [0, 0])


def test_heights_are_starting_ordinates():
    assert heights("UULDD") == [0, 1, 2, 2, 1]
    assert heights("") == []


def test_object_counts():
    for n, want in enumerate(MOTZKIN):
        assert sum(1 for _ in enumerate_objects("motzkin", n)) == want
    for n, want in enumerate(CATALAN):
        assert sum(1 for _ in enumerate_objects("dyck", 2 * n)) == want
    for n in range(6):
        assert sum(1 for _ in enumerate_objects("laguerre", n)) == FACT[n]


def test_diagramme_counts_are_euler_numbers():
    euler = [e.substitute({"p": 1, "q": 1}).as_int() for e in e_pq_upto(9)]
    for n in range(5):
        count = sum(1 for _ in enumerate_objects("diagramme", 2 * n))
        assert count == euler[2 * n + 1]
        rcount = sum(1 for _ in enumerate_objects("restricted_diagramme", 2 * n))
        assert rcount == euler[2 * n]


@pytest.mark.parametrize("kind", ["diagramme", "restricted_diagramme",
                                  "laguerre"])
def test_enumerated_objects_pass_the_constructor_check(kind):
    # enumerate_objects builds its objects without the check
    for length in range(0, 7, 1 if kind == "laguerre" else 2):
        for obj in enumerate_objects(kind, length):
            assert type(obj.steps) is str and len(obj.steps) == length
            assert obj == History(kind, obj.steps, obj.xi)


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


def test_xi_validation():
    History("diagramme", "UD", [0, 0])
    History("diagramme", "UD", [0, 1])  # down step at height 1 allows xi <= 1
    with pytest.raises(ValueError):
        History("diagramme", "UD", [1, 0])  # up step at height 0 forces xi = 0
    with pytest.raises(ValueError):
        History("restricted_diagramme", "UD", [0, 1])  # down needs xi < h
    with pytest.raises(ValueError):
        History("laguerre", "L", [1])
    History("laguerre", "ULD", [0, -1, 0])
    with pytest.raises(ValueError, match="Dyck path"):
        History("diagramme", "ULD", [0, 0, 0])
    with pytest.raises(ValueError, match="xi length must match"):
        History("diagramme", "UD", [0])
    # paths without xi, and unknown kinds, are not histories
    for kind in ("motzkin", "dyck", "histoire"):
        with pytest.raises(ValueError, match="not a kind of history"):
            History(kind, "UD", [0, 0])
    # both ends of every (kind, step) range, at heights 0 to 2
    seen = set()
    for kind, steps in (("diagramme", "UUDD"), ("restricted_diagramme", "UUDD"),
                        ("laguerre", "UULDD")):
        for i, (step, h) in enumerate(zip(steps, heights(steps))):
            seen.add((kind, step))
            lo, hi = XI_BOUNDS[kind, step](h)
            for x, ok in ((lo, True), (hi, True), (lo - 1, False), (hi + 1, False)):
                xi = [0] * len(steps)
                xi[i] = x
                if ok:
                    History(kind, steps, xi)
                else:
                    with pytest.raises(ValueError, match="xi out of range"):
                        History(kind, steps, xi)
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


def _integer_spec():
    # every step weight, the last step's included, has terms with
    # coefficients other than 1, some of them negative
    three, five = LaurentPoly.const(3), LaurentPoly.const(5)
    return WeightSpec(up=lambda h: LaurentPoly.const(h + 2),
                      level=lambda h: LaurentPoly.var("q") + three,
                      down=lambda h: LaurentPoly.var("q", 1, coeff=-h) + five)


def test_dp_equals_enumeration_with_integer_coefficients():
    spec = _integer_spec()
    for kind, step in (("motzkin", 1), ("dyck", 2)):
        for length in range(0, 9, step):
            dp = weighted_sum(kind, length, spec, method="dp")
            brute = weighted_sum(kind, length, spec, method="enumerate")
            assert dp == brute, (kind, length)


@pytest.mark.parametrize("kind,spec", [
    ("motzkin", _integer_spec()),
    ("dyck", _integer_spec()),
    ("diagramme", diagramme_pq_weights()),
    ("restricted_diagramme", restricted_diagramme_pq_weights()),
    ("laguerre", laguerre_quintuple_weights()),
])
def test_enumeration_is_the_sum_over_the_listed_objects(kind, spec):
    # the enumerating weighted_sum against a product of step weights per
    # object of enumerate_objects; lengths 0..7 put 0 to 4 steps in the
    # first half and 0 to 3 in the second
    step_weight = {UP: spec.up, LEVEL: spec.level, DOWN: spec.down}
    for length in range(0, 8, 1 if kind in ("motzkin", "laguerre") else 2):
        want = LaurentPoly()
        for obj in enumerate_objects(kind, length):
            weight = LaurentPoly.const(1)
            if isinstance(obj, History):
                for step, h, xi in zip(obj.steps, heights(obj.steps), obj.xi):
                    weight = weight * spec.valuation(step, h, xi)
            else:
                for step, h in zip(obj, heights(obj)):
                    weight = weight * step_weight[step](h)
            want = want + weight
        assert weighted_sum(kind, length, spec, method="enumerate") == want, \
            length


def test_oversize_enumeration_calls_no_valuation():
    # 11! Laguerre histories are past MAX_OBJECTS = 10!: the call is refused
    # before a single step weight is built
    def boom(*args):
        raise AssertionError("valuation called")

    spec = WeightSpec(up=boom, level=boom, down=boom, valuation=boom)
    with pytest.raises(EnumerationCapError, match="laguerre of length 11"):
        weighted_sum("laguerre", 11, spec, method="enumerate")


def test_unit_weights_count_paths():
    one = LaurentPoly.const(1)
    spec = WeightSpec(up=lambda h: one, level=lambda h: one, down=lambda h: one)
    for n, want in enumerate(MOTZKIN):
        assert weighted_sum("motzkin", n, spec).as_int() == want
    for n, want in enumerate(CATALAN):
        assert weighted_sum("dyck", 2 * n, spec).as_int() == want


def test_diagramme_weights_give_pq_euler():
    euler_pq = e_pq_upto(9)
    for n in range(5):
        total = weighted_sum("diagramme", 2 * n, diagramme_pq_weights())
        assert total == euler_pq[2 * n + 1]
        rtotal = weighted_sum("restricted_diagramme", 2 * n,
                              restricted_diagramme_pq_weights())
        assert rtotal == euler_pq[2 * n]


def test_summed_valuations_give_the_fraction_weights():
    # Flajolet's reading of the paper's step from valuations to fractions:
    # b_h is the summed level weight and ac_h = a_h c_(h+1) the summed up
    # weight at h times the summed down weight at h + 1
    laguerre = laguerre_quintuple_weights()
    thm41 = preset("thm4.1").fraction
    tangent = preset("tangent-pq").fraction
    secant = preset("secant-pq").fraction
    for h in range(13):
        assert thm41.b(h) == laguerre.level(h), h
        assert thm41.ac(h) == laguerre.up(h) * laguerre.down(h + 1), h
        for spec, fraction in ((diagramme_pq_weights(), tangent),
                               (restricted_diagramme_pq_weights(), secant)):
            assert fraction.b(h).is_zero() and spec.level is None
            assert fraction.ac(h) == spec.up(h) * spec.down(h + 1), h


def test_enumeration_cap():
    # the Motzkin paths fit in MAX_OBJECTS = 10! up to length 17
    assert sum(1 for _ in enumerate_objects("motzkin", 15)) == 310572
    assert next(enumerate_objects("motzkin", 17)) == "U" * 8 + "L" + "D" * 8
    with pytest.raises(EnumerationCapError, match=(
            r"^enumeration too large: motzkin of length 18 has more than "
            r"MAX_OBJECTS = 3628800 objects \(motzkin of length 18 has "
            r"6536382\)$")):
        list(enumerate_objects("motzkin", 18))


def test_transfer_gives_every_length_in_one_pass():
    one = LaurentPoly.const(1)
    sums = transfer(lambda h: one, lambda h: one, None, 6)
    assert [s.as_int() for s in sums] == MOTZKIN
    spec = laguerre_quintuple_weights()
    sums = transfer(spec.up, spec.level, spec.down, 6)
    for n, got in enumerate(sums):
        assert got == weighted_sum("laguerre", n, spec, method="enumerate")


def test_transfer_zero_weights_cut_the_fraction():
    # zero weights from height 1 on leave only down steps there: the Dyck
    # paths are (UD)^k, and the Motzkin paths never take a level step at
    # height 1
    one, zero = LaurentPoly.const(1), LaurentPoly()

    def below_1(h):
        return one if h < 1 else zero

    dyck = transfer(below_1, None, None, 8)
    assert [s.as_int() for s in dyck] == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert [s.as_int() for s in transfer(lambda h: zero, None, None, 4)] == \
        [1, 0, 0, 0, 0]
    motzkin = transfer(below_1, below_1, None, 4)
    # 1/(1 - t - t^2) : Fibonacci
    assert [s.as_int() for s in motzkin] == [1, 1, 2, 3, 5]
    for sums in (dyck, motzkin, transfer(lambda h: zero, None, None, 0)):
        assert all(isinstance(s, LaurentPoly) for s in sums)

    # the same pass over plain ints gives plain ints
    def int_below_1(h):
        return 1 if h < 1 else 0

    for sums, want in ((transfer(int_below_1, None, None, 8),
                        [1, 0, 1, 0, 1, 0, 1, 0, 1]),
                       (transfer(lambda h: 0, None, None, 4), [1, 0, 0, 0, 0]),
                       (transfer(lambda h: 0, None, None, 0), [1]),
                       (transfer(int_below_1, int_below_1, None, 4),
                        [1, 1, 2, 3, 5])):
        assert sums == want
        assert all(type(s) is int for s in sums)


def test_transfer_rejects_negative_sizes():
    one = LaurentPoly.const(1)
    with pytest.raises(ValueError, match="order"):
        transfer(lambda h: one, None, None, -1)
    spec = WeightSpec(lambda h: one, lambda h: one, lambda h: one)
    for method in ("dp", "enumerate"):
        with pytest.raises(ValueError, match="nonnegative"):
            weighted_sum("motzkin", -1, spec, method=method)


def test_dp_rejects_missing_weight():
    one = LaurentPoly.const(1)
    with pytest.raises(ValueError, match="L weight"):
        weighted_sum("motzkin", 3, WeightSpec(up=lambda h: one,
                                              down=lambda h: one))
    assert weighted_sum("dyck", 4, WeightSpec(up=lambda h: one,
                                              down=lambda h: one)).as_int() == 2
