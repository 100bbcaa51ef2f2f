"""Motzkin and Dyck paths, Dyck path diagrammes, Laguerre histories.

Weighted sums come in two independent flavours: direct enumeration of the
objects (the oracle) and a transfer computation over (position, height) with
polynomial-valued state (the fast path).  ``transfer`` is that computation;
it gives the sums for every length up to an order in one pass and also
expands every continued fraction in ``contfrac``.  The height of a step is
always its starting ordinate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .algebra import LaurentPoly, _check_bound

UP, LEVEL, DOWN = "U", "L", "D"
_DELTA = {UP: 1, LEVEL: 0, DOWN: -1}


KINDS = ("motzkin", "dyck", "diagramme", "restricted_diagramme", "laguerre")

DEFAULT_LENGTH_CAP = 14


class MotzkinPath:
    """Step sequence over U, L, D staying nonnegative and ending at 0."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        steps = tuple(steps)
        h = 0
        for s in steps:
            if s not in _DELTA:
                raise ValueError(f"bad step {s!r}")
            h += _DELTA[s]
            if h < 0:
                raise ValueError(f"path dips below zero: {''.join(steps)}")
        if h != 0:
            raise ValueError(f"path does not return to zero: {''.join(steps)}")
        self.steps = steps

    def __len__(self):
        return len(self.steps)

    def heights(self):
        """Starting ordinate of each step (h_1 .. h_len)."""
        out = []
        h = 0
        for s in self.steps:
            out.append(h)
            h += _DELTA[s]
        return out

    def is_dyck(self) -> bool:
        return LEVEL not in self.steps

    def __eq__(self, other):
        return isinstance(other, MotzkinPath) and self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __str__(self):
        return "".join(self.steps)

    def __repr__(self):
        return f"MotzkinPath({self})"


def dyck_path(steps) -> MotzkinPath:
    path = MotzkinPath(steps)
    if not path.is_dyck():
        raise ValueError("Dyck path may not contain level steps")
    return path


class DyckDiagramme:
    """Dyck path of length 2n with a choice sequence xi, 0 <= xi_k <= h_k.

    In the restricted form every down step additionally has xi_k < h_k.
    """

    __slots__ = ("path", "xi", "restricted")

    def __init__(self, path: MotzkinPath, xi, restricted: bool = False):
        if not path.is_dyck():
            raise ValueError("diagramme needs a Dyck path")
        xi = tuple(xi)
        _check_xi("restricted_diagramme" if restricted else "diagramme", path, xi)
        self.path = path
        self.xi = xi
        self.restricted = restricted

    def __eq__(self, other):
        return (isinstance(other, DyckDiagramme)
                and self.path == other.path and self.xi == other.xi
                and self.restricted == other.restricted)

    def __hash__(self):
        return hash((self.path, self.xi, self.restricted))

    def __str__(self):
        return f"{self.path} xi={list(self.xi)}"

    __repr__ = __str__


class LaguerreHistory:
    """Motzkin path with a choice sequence xi; the ranges per step are
    0..h (up), -h..h (level), 0..h-1 (down)."""

    __slots__ = ("path", "xi")

    def __init__(self, path: MotzkinPath, xi):
        xi = tuple(xi)
        _check_xi("laguerre", path, xi)
        self.path = path
        self.xi = xi

    def __eq__(self, other):
        return (isinstance(other, LaguerreHistory)
                and self.path == other.path and self.xi == other.xi)

    def __hash__(self):
        return hash((self.path, self.xi))

    def __str__(self):
        return f"{self.path} xi={list(self.xi)}"

    __repr__ = __str__


@dataclass(frozen=True)
class WeightSpec:
    """Height-indexed step weights plus an optional per-step valuation.

    ``up``/``level``/``down`` give the summed weight of a step at height h and
    drive the transfer computation.  ``valuation(step, h, xi)`` gives the
    weight of a single choice and drives enumeration of diagrammes and
    histories; for plain path kinds it is ignored.
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


def _check_xi(kind: str, path: MotzkinPath, xi: tuple) -> None:
    if len(xi) != len(path):
        raise ValueError("xi length must match path length")
    for step, h, x in zip(path.steps, path.heights(), xi):
        if x not in _xi_range(kind, step, h):
            raise ValueError(
                f"xi out of range: step {step} at height {h} has xi={x}")


def _check_kind_length(kind: str, length: int) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if kind in ("dyck", "diagramme", "restricted_diagramme") and length % 2:
        raise ValueError(f"{kind} objects have even length")


def _iter_paths(length: int, allow_level: bool):
    """All nonnegative paths of the given length ending at 0, lexicographic in
    the step order U < L < D."""

    def rec(prefix, h, remaining):
        if remaining == 0:
            yield tuple(prefix)
            return
        if h + 1 <= remaining - 1:
            prefix.append(UP)
            yield from rec(prefix, h + 1, remaining - 1)
            prefix.pop()
        if allow_level and h <= remaining - 1:
            prefix.append(LEVEL)
            yield from rec(prefix, h, remaining - 1)
            prefix.pop()
        if h >= 1:
            prefix.append(DOWN)
            yield from rec(prefix, h - 1, remaining - 1)
            prefix.pop()

    yield from rec([], 0, length)


def enumerate_objects(kind: str, length: int, cap: int = DEFAULT_LENGTH_CAP):
    """Stream every object of the kind exactly once, deterministic order."""
    _check_kind_length(kind, length)
    if length > cap:
        raise ValueError(f"length {length} exceeds cap {cap}")
    allow_level = kind in ("motzkin", "laguerre")
    for steps in _iter_paths(length, allow_level):
        path = MotzkinPath(steps)
        if kind == "motzkin":
            yield path
        elif kind == "dyck":
            yield path
        else:
            heights = path.heights()
            ranges = [_xi_range(kind, s, h) for s, h in zip(steps, heights)]
            for xi in itertools.product(*ranges):
                if kind == "laguerre":
                    yield LaguerreHistory(path, xi)
                else:
                    yield DyckDiagramme(path, xi,
                                        restricted=(kind == "restricted_diagramme"))


def weighted_sum(kind: str, length: int, spec: WeightSpec,
                 method: str = "dp", cap: int = DEFAULT_LENGTH_CAP) -> LaurentPoly:
    """Sum of object weights over all objects of the kind and length.

    method "enumerate" walks every object (using the valuation for xi-kinds);
    method "dp" runs the height-indexed transfer computation and never touches
    individual objects.  The two agree exactly.
    """
    if method not in ("dp", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    _check_kind_length(kind, length)
    allow_level = kind in ("motzkin", "laguerre")
    if method == "dp":
        level = _required(spec.level, LEVEL) if allow_level else None
        return transfer(_required(spec.up, UP), level,
                        _required(spec.down, DOWN), length, length)[length]
    if length > cap:
        raise ValueError(f"length {length} exceeds cap {cap}")
    xi_kind = kind in ("diagramme", "restricted_diagramme", "laguerre")
    if xi_kind and spec.valuation is None:
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
                      for xi in _xi_range(kind, step, h)] if xi_kind
                     else [step_fns[step](h)])
            branches = []
            for poly in polys:
                step_bound = max(step_bound, poly.bound)
                branches.extend(poly.terms.items())
            choices[step, h] = tuple(branches)
    bound = step_bound * length
    _check_bound(bound)

    acc: dict = {}

    def rec(pos, h, key, coeff):
        remaining = length - pos
        if remaining == 1:
            # the last step, taken here rather than by one more call per
            # object: a down step from height 1, or a level step at 0
            for e, c in choices[DOWN, 1] if h else choices[LEVEL, 0]:
                e += key
                acc[e] = acc.get(e, 0) + coeff * c
            return
        if h + 1 <= remaining - 1:
            for e, c in choices[UP, h]:
                rec(pos + 1, h + 1, key + e, coeff * c)
        if allow_level and h <= remaining - 1:
            for e, c in choices[LEVEL, h]:
                rec(pos + 1, h, key + e, coeff * c)
        if h >= 1:
            for e, c in choices[DOWN, h]:
                rec(pos + 1, h - 1, key + e, coeff * c)

    if length:
        rec(0, 0, 0, 1)
    else:
        acc[0] = 1
    return LaurentPoly._packed({e: c for e, c in acc.items() if c}, bound)


def _required(fn, step: str):
    """The weight function of a step, or one that rejects the first use of a
    step the spec leaves out."""
    if fn is not None:
        return fn

    def missing(h):
        raise ValueError(f"weight spec has no {step} weight")
    return missing


_ONE = LaurentPoly.const(1)


def _prepared(w: LaurentPoly):
    """None for a zero weight (the step is skipped), _ONE for a unit weight
    (the step costs no product), else the weight itself."""
    if w.is_zero():
        return None
    return _ONE if w == _ONE else w


def transfer(up: Callable[[int], LaurentPoly],
             level: Callable[[int], LaurentPoly] | None,
             down: Callable[[int], LaurentPoly] | None,
             max_height: int, order: int) -> list[LaurentPoly]:
    """Weighted sums of the paths of every length 0..order, in one forward pass.

    ``up(h)``, ``level(h)`` and ``down(h)`` weight a step starting at height
    h; ``level=None`` allows no level steps and ``down=None`` gives every down
    step weight 1.  Heights stay within 0..max_height, and at max_height only
    down steps are allowed, so element n is the t^n coefficient of the
    J-fraction 1 / (1 - level(0) t - up(0) down(1) t^2 / (1 - ...)) cut at
    depth max_height with the tail 1 (Flajolet's reading).  Prefixes
    that cannot return to 0 within the order are pruned, every weight is
    built once per height, and each pass step costs one product of a path
    sum with a (small) weight.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if max_height < 0:
        raise ValueError("max_height must be nonnegative")
    top = min(max_height, order // 2)
    # a step starting at h is used only if the path can still come back:
    # up needs 2h + 2 <= order, level 2h + 1 <= order, down h <= order / 2
    ups = [_prepared(up(h)) for h in range(top)]
    levels = ([_prepared(level(h))
               for h in range(min(max_height, (order + 1) // 2))]
              if level is not None else [])
    downs = [None] + [_ONE if down is None else _prepared(down(h))
                      for h in range(1, top + 1)]
    moves = [((1, ups[h] if h < len(ups) else None),
              (0, levels[h] if h < len(levels) else None),
              (-1, downs[h]))
             for h in range(top + 1)]
    sums = [_ONE]
    state = {0: _ONE}
    for pos in range(order):
        remaining = order - pos - 1   # steps left after this one
        nxt: dict = {}
        for h, val in state.items():
            for delta, w in moves[h]:
                target = h + delta
                if w is None or target > remaining:
                    continue
                term = val if w is _ONE else val * w
                prev = nxt.get(target)
                nxt[target] = term if prev is None else prev + term
        state = nxt
        sums.append(state.get(0, LaurentPoly()))
    return sums


# ---------------------------------------------------------------------------
# the standard weightings


def abc_weights(a=None, b=None, c=None) -> WeightSpec:
    """Plain Motzkin/Dyck weighting from height-indexed coefficients."""
    return WeightSpec(up=a, level=b, down=c)


def diagramme_pq_weights() -> WeightSpec:
    """Valuation p^(h-xi) q^xi on every step; summed weight [h+1] in (p, q)."""
    from .algebra import pq_bracket

    def val(step, h, xi):
        return LaurentPoly.monomial(1, p=h - xi, q=xi)

    return WeightSpec(up=lambda h: pq_bracket(h + 1),
                      down=lambda h: pq_bracket(h + 1),
                      valuation=val)


def restricted_diagramme_pq_weights() -> WeightSpec:
    """Down steps lose one p (xi < h there); summed weights [h+1] up, [h] down."""
    from .algebra import pq_bracket

    def val(step, h, xi):
        if step == DOWN:
            return LaurentPoly.monomial(1, p=h - 1 - xi, q=xi)
        return LaurentPoly.monomial(1, p=h - xi, q=xi)

    return WeightSpec(up=lambda h: pq_bracket(h + 1),
                      down=lambda h: pq_bracket(h),
                      valuation=val)


def laguerre_quintuple_weights() -> WeightSpec:
    """The five-case valuation carrying x^wex y^fix q^cros p^nest s^inv."""
    from .algebra import LaurentPoly as LP, bracket

    q = LP.var("q")
    ps = LP.monomial(1, p=1, s=1)

    def val(step, h, xi):
        if step == UP:
            return LP.monomial(1, x=1, q=xi) * ps ** (h - xi) * LP.var("s", 2 * h + 1)
        if step == LEVEL:
            if xi == 0:
                return LP.monomial(1, x=1, y=1) * ps**h * LP.var("s", h)
            if xi > 0:
                return LP.monomial(1, x=1, q=xi) * ps ** (h - xi) * LP.var("s", h)
            return LP.var("q", -xi - 1) * ps ** (h + xi) * LP.var("s", h)
        return LP.var("q", xi) * ps ** (h - 1 - xi)

    def up(h):
        return LP.monomial(1, x=1, s=2 * h + 1) * bracket(q, ps, h + 1)

    def level(h):
        return (LP.monomial(1, x=1, y=1, p=h, s=2 * h)
                + (LP.const(1) + LP.monomial(1, x=1, q=1))
                * LP.var("s", h) * bracket(q, ps, h))

    def down(h):
        return bracket(q, ps, h)

    return WeightSpec(up=up, level=level, down=down, valuation=val)
