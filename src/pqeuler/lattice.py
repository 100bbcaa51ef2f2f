"""Motzkin and Dyck paths, and the histories built on them.

A path is a string of steps U, L, D that never dips below 0 and ends at 0;
a history is one with a choice sequence xi: a Dyck path diagramme (plain or
restricted) or a Laguerre history.  One class, ``History``, holds all
three; its kind decides the path and the range of each xi, and ``KINDS``
says for every kind whether it allows level steps and whether it carries xi.

Weighted sums come in two independent flavours: direct enumeration of the
objects (the oracle), which joins listed prefixes and suffixes without ever
merging them and so makes one update per object, and a transfer computation
over (position, height) with ring-valued state (the fast path).
``transfer`` is that computation; it gives the sums for every length up to
an order in one pass, over Laurent polynomials or plain ints, and also
expands every continued fraction in ``contfrac``.  The height of a step is
always its starting ordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .algebra import LaurentPoly, _check_bound
from .permstat import _check_count

UP, LEVEL, DOWN = "U", "L", "D"
_DELTA = {UP: 1, LEVEL: 0, DOWN: -1}


# kind -> (level steps allowed, carries a choice sequence xi); a kind with
# no level steps has objects of even length only
KINDS = {
    "motzkin": (True, False),
    "dyck": (False, False),
    "diagramme": (False, True),
    "restricted_diagramme": (False, True),
    "laguerre": (True, True),
}


def heights(steps: str) -> list[int]:
    """Starting ordinate of each step (h_1 .. h_len)."""
    out = []
    h = 0
    for s in steps:
        out.append(h)
        h += _DELTA[s]
    return out


class History:
    """A path with a choice sequence xi: a Dyck path diagramme or a Laguerre
    history, as its kind says.  xi_k ranges over, for a step at height h:

    * "diagramme" (a Dyck path): 0..h;
    * "restricted_diagramme" (a Dyck path): 0..h, and 0..h-1 on down steps;
    * "laguerre" (a Motzkin path): 0..h up, -h..h level, 0..h-1 down.
    """

    __slots__ = ("kind", "steps", "xi")

    def __init__(self, kind: str, steps: str, xi):
        if kind not in KINDS or not KINDS[kind][1]:
            raise ValueError(f"{kind!r} is not a kind of history")
        xi = tuple(xi)
        if len(xi) != len(steps):
            raise ValueError("xi length must match path length")
        h = 0
        for step, x in zip(steps, xi):
            if step not in _DELTA:
                raise ValueError(f"bad step {step!r}")
            if step == LEVEL and not KINDS[kind][0]:
                raise ValueError(f"a {kind} needs a Dyck path")
            if h + _DELTA[step] < 0:
                raise ValueError(f"path dips below zero: {steps}")
            if x not in _xi_range(kind, step, h):
                raise ValueError(
                    f"xi out of range: step {step} at height {h} has xi={x}")
            h += _DELTA[step]
        if h != 0:
            raise ValueError(f"path does not return to zero: {steps}")
        self.kind = kind
        self.steps = steps
        self.xi = xi

    @classmethod
    def _trusted(cls, kind: str, steps: str, xi: tuple) -> "History":
        """The history of a step string and xi tuple the package has just
        built as one of the kind, without the check."""
        history = object.__new__(cls)
        history.kind = kind
        history.steps = steps
        history.xi = xi
        return history

    def __eq__(self, other):
        return (isinstance(other, History) and self.kind == other.kind
                and self.steps == other.steps and self.xi == other.xi)

    def __hash__(self):
        return hash((self.kind, self.steps, self.xi))

    def __str__(self):
        return f"{self.steps} xi={list(self.xi)}"

    __repr__ = __str__


@dataclass(frozen=True)
class WeightSpec:
    """Height-indexed step weights plus an optional per-step valuation.

    ``up``/``level``/``down`` give the summed weight of a step at height h
    (in the standard weightings, the valuation summed over xi) and drive the
    transfer computation.  ``valuation(step, h, xi)`` gives the weight of a
    single choice and drives enumeration of diagrammes and histories; for
    plain path kinds it is ignored.
    """

    up: Callable[[int], LaurentPoly] | None = None
    level: Callable[[int], LaurentPoly] | None = None
    down: Callable[[int], LaurentPoly] | None = None
    valuation: Callable[[str, int, int], LaurentPoly] | None = None


def _xi_range(kind: str, step: str, h: int) -> range:
    """The choices of xi for a step at height h in an object of the kind."""
    if kind == "laguerre" and step == LEVEL:
        return range(-h, h + 1)
    if kind in ("laguerre", "restricted_diagramme") and step == DOWN:
        return range(0, h)
    return range(0, h + 1)


def _check_kind_length(kind: str, length: int) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if not KINDS[kind][0] and length % 2:
        raise ValueError(f"{kind} objects have even length")


def _check_kind_size(kind: str, length: int) -> None:
    """Refuse a kind and length with more than ``MAX_OBJECTS`` objects,
    counted by ``transfer`` with each step weighted by its number of xi
    choices (one for a plain path)."""
    _check_kind_length(kind, length)
    allow_level, has_xi = KINDS[kind]

    def choices(step):
        return lambda h: LaurentPoly.const(
            len(_xi_range(kind, step, h)) if has_xi else 1)

    _check_count(f"{kind} of length {{}}", length, lambda m: transfer(
        choices(UP), choices(LEVEL) if allow_level else None, choices(DOWN),
        m)[m].as_int())


def _iter_paths(length: int, allow_level: bool):
    """All nonnegative step strings of the given length ending at 0,
    lexicographic in the step order U < L < D."""

    def rec(prefix, h, remaining):
        if remaining == 0:
            yield prefix
            return
        if h + 1 <= remaining - 1:
            yield from rec(prefix + UP, h + 1, remaining - 1)
        if allow_level and h <= remaining - 1:
            yield from rec(prefix + LEVEL, h, remaining - 1)
        if h >= 1:
            yield from rec(prefix + DOWN, h - 1, remaining - 1)

    yield from rec("", 0, length)


def enumerate_objects(kind: str, length: int):
    """Stream every object of the kind exactly once, deterministic order: a
    step string for "motzkin" and "dyck", a ``History`` for the others.
    Their number is checked against ``MAX_OBJECTS`` first."""
    _check_kind_size(kind, length)
    allow_level, has_xi = KINDS[kind]
    for steps in _iter_paths(length, allow_level):
        if not has_xi:
            yield steps
            continue
        # each xi is drawn from its ranges, so the histories skip the check
        ranges = [_xi_range(kind, s, h) for s, h in zip(steps, heights(steps))]
        for xi in itertools.product(*ranges):
            yield History._trusted(kind, steps, xi)


def weighted_sum(kind: str, length: int, spec: WeightSpec,
                 method: str = "dp") -> LaurentPoly:
    """Sum of object weights over all objects of the kind and length.

    method "enumerate" weighs every object on its own (by the valuation for
    xi-kinds): it lists each prefix of length - length // 2 steps from
    height 0 and each suffix of length // 2 steps back to 0 as one entry,
    never merged with another, and joins every prefix to every suffix that
    meets it at the same height: one update per object (per term, where a
    step weight has several).  method "dp" runs the height-indexed transfer
    computation and never touches individual objects.  The two agree
    exactly.
    """
    if method not in ("dp", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    _check_kind_length(kind, length)
    allow_level, has_xi = KINDS[kind]
    if method == "dp":
        level = _required(spec.level, LEVEL) if allow_level else None
        return transfer(_required(spec.up, UP), level,
                        _required(spec.down, DOWN), length)[length]
    _check_kind_size(kind, length)
    if has_xi and spec.valuation is None:
        raise ValueError("xi-kind enumeration needs a valuation")

    # the branches of every step an object of this length can take, built
    # up front so that the bound on a whole object's exponents is known
    # before any packed key is added: up at h needs 2h + 2 <= length, level
    # 2h + 1 <= length, down h >= 1 and 2h <= length
    reach = {UP: (length - 2) // 2, DOWN: length // 2,
             LEVEL: (length - 1) // 2 if allow_level else -1}
    step_fns = {UP: _required(spec.up, UP), LEVEL: _required(spec.level, LEVEL),
                DOWN: _required(spec.down, DOWN)}
    choices: dict = {}
    step_bound = 0
    for step, top in reach.items():
        for h in range(1 if step == DOWN else 0, top + 1):
            polys = ([spec.valuation(step, h, xi)
                      for xi in _xi_range(kind, step, h)] if has_xi
                     else [step_fns[step](h)])
            branches = []
            for poly in polys:
                step_bound = max(step_bound, poly.bound)
                branches.extend(poly.terms.items())
            choices[step, h] = tuple(branches)
    bound = step_bound * length
    _check_bound(bound)

    def half(positions, backward):
        """Every walk over the step positions from height 0 at their outer
        end that some object completes, listed one (key, coefficient) entry
        per walk and branch, never merged, by the height at the inner end;
        a step at pos must be reachable from 0 and able to return to it."""
        walks = {0: [(0, 1)]}
        for pos in positions:
            nxt: dict = {}
            for h, entries in walks.items():
                for step, delta in _DELTA.items():
                    start, end = (h - delta, h) if backward else (h, h + delta)
                    branches = choices.get((step, start))
                    if branches is None or start > pos or end >= length - pos:
                        continue
                    nxt.setdefault(start if backward else end, []).extend(
                        (k + e, c * d) for k, c in entries for e, d in branches)
            walks = nxt
        return walks

    first = length - length // 2
    prefixes = half(range(first), False)
    suffixes = half(range(length - 1, first - 1, -1), True)
    acc: dict = {}
    get = acc.get
    for h, tails in suffixes.items():
        heads = prefixes[h]
        for k2, c2 in tails:
            for k1, c1 in heads:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    return LaurentPoly._packed({e: c for e, c in acc.items() if c}, bound)


def _required(fn, step: str):
    """The weight function of a step, or one that rejects the first use of a
    step the spec leaves out."""
    if fn is not None:
        return fn

    def missing(h):
        raise ValueError(f"weight spec has no {step} weight")
    return missing


_UNIT = object()   # a unit weight: the step costs no product


def _prepared(w):
    """None for a zero weight (the step is skipped), _UNIT for a unit weight
    (the step costs no product), else the weight itself.  An int and a
    LaurentPoly both compare with the ints 0 and 1."""
    if w == 0:
        return None
    return _UNIT if w == 1 else w


def transfer(up: Callable[[int], LaurentPoly],
             level: Callable[[int], LaurentPoly] | None,
             down: Callable[[int], LaurentPoly] | None,
             order: int) -> list[LaurentPoly]:
    """Weighted sums of the paths of every length 0..order, in one forward pass.

    ``up(h)``, ``level(h)`` and ``down(h)`` weight a step starting at height
    h; ``level=None`` allows no level steps and ``down=None`` gives every down
    step weight 1.  Element n is the t^n coefficient of the J-fraction
    1 / (1 - level(0) t - up(0) down(1) t^2 / (1 - ...)) (Flajolet's
    reading).  A path of length at most the order never climbs above
    order // 2, so the pass needs no depth: a fraction ends only where its
    weights vanish, and a zero weight is a step never taken.  Prefixes
    that cannot return to 0 within the order are pruned, every weight is
    built once per height, and each pass step costs one product of a path
    sum with a (small) weight.

    The pass only adds and multiplies, so it runs over any ring whose
    elements compare with the ints 0 and 1: ``LaurentPoly`` weights give
    ``LaurentPoly`` sums, and int weights int sums.  Its 1 and 0 are read
    off up(0), which is built even where no up step fits; each int pass is
    then the ``LaurentPoly`` pass at the point its weights were evaluated
    at.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    top = order // 2
    # a step starting at h is used only if the path can still come back:
    # up needs 2h + 2 <= order, level 2h + 1 <= order, down h <= order / 2
    ups = [up(h) for h in range(max(top, 1))]
    one = ups[0] ** 0
    zero = one - one
    ups = [_prepared(w) for w in ups[:top]]
    levels = ([_prepared(level(h)) for h in range((order + 1) // 2)]
              if level is not None else [])
    downs = [None] + [_UNIT if down is None else _prepared(down(h))
                      for h in range(1, top + 1)]
    moves = [((1, ups[h] if h < len(ups) else None),
              (0, levels[h] if h < len(levels) else None),
              (-1, downs[h]))
             for h in range(top + 1)]
    sums = [one]
    state = {0: one}
    for pos in range(order):
        remaining = order - pos - 1   # steps left after this one
        nxt: dict = {}
        for h, val in state.items():
            for delta, w in moves[h]:
                target = h + delta
                if w is None or target > remaining:
                    continue
                term = val if w is _UNIT else val * w
                prev = nxt.get(target)
                nxt[target] = term if prev is None else prev + term
        state = nxt
        sums.append(state.get(0, zero))
    return sums


# ---------------------------------------------------------------------------
# the standard weightings


def _from_valuation(kind: str, valuation) -> WeightSpec:
    """The spec of a valuation on the objects of the kind: a step's summed
    weight at height h is the sum of the valuation over every xi it may
    take there.  Read as a J-fraction (see ``transfer``), level(h) is b_h
    and up(h) down(h+1) is a_h c_(h+1)."""

    def summed(step):
        return lambda h: sum((valuation(step, h, xi)
                              for xi in _xi_range(kind, step, h)), LaurentPoly())

    return WeightSpec(up=summed(UP),
                      level=summed(LEVEL) if KINDS[kind][0] else None,
                      down=summed(DOWN), valuation=valuation)


def diagramme_pq_weights() -> WeightSpec:
    """Valuation p^(h-xi) q^xi on every step; summed weight [h+1] in (p, q)."""

    def val(step, h, xi):
        return LaurentPoly.monomial(1, p=h - xi, q=xi)

    return _from_valuation("diagramme", val)


def restricted_diagramme_pq_weights() -> WeightSpec:
    """Down steps lose one p (xi < h there); summed weights [h+1] up, [h] down."""

    def val(step, h, xi):
        if step == DOWN:
            return LaurentPoly.monomial(1, p=h - 1 - xi, q=xi)
        return LaurentPoly.monomial(1, p=h - xi, q=xi)

    return _from_valuation("restricted_diagramme", val)


def laguerre_quintuple_weights() -> WeightSpec:
    """The five-case valuation carrying x^wex y^fix q^cros p^nest s^inv."""
    ps = LaurentPoly.monomial(1, p=1, s=1)

    def val(step, h, xi):
        if step == UP:
            return LaurentPoly.monomial(1, x=1, q=xi, s=2 * h + 1) * ps ** (h - xi)
        if step == DOWN:
            return LaurentPoly.var("q", xi) * ps ** (h - 1 - xi)
        # a level step: a fixed point, a cyclic double ascent or descent
        if xi == 0:
            return LaurentPoly.monomial(1, x=1, y=1, s=h) * ps**h
        if xi > 0:
            return LaurentPoly.monomial(1, x=1, q=xi, s=h) * ps ** (h - xi)
        return LaurentPoly.monomial(1, q=-xi - 1, s=h) * ps ** (h + xi)

    return _from_valuation("laguerre", val)
