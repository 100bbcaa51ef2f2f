"""The constructive correspondences and the two sign-reversing involutions.

* fv / fv_star: falling alternating permutations to Dyck path diagrammes
  (plain / restricted), with xi recording left embracing numbers.
* fz: any permutation to a Laguerre history, with xi from crossing indices.
* csz: the biword bijection carrying (ndes, fmax, 31-2, 2-31, MAD) to
  (wex, fix, cros, nest, inv).
* invol_phi / invol_psi: the value-moving involutions whose fixed sets are
  the odd / even falling alternating permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import DOWN, LEVEL, UP, DyckDiagramme, LaguerreHistory, MotzkinPath
from .permstat import (
    Permutation,
    cros_k,
    cyclic_type,
    is_coderangement,
    is_falling_alternating,
    pattern_k,
)


@dataclass(frozen=True)
class Biword:
    """Intermediate data of the csz construction (columns top over bottom)."""

    top: tuple
    bottom: tuple

    def __str__(self):
        t = " ".join(str(v) for v in self.top)
        b = " ".join(str(v) for v in self.bottom)
        return f"({t} / {b})"


def fv(sigma: Permutation) -> DyckDiagramme:
    """Dyck path diagramme of a falling alternating permutation of odd length:
    value k steps up iff its position is even, with xi_k its left embracing
    number."""
    w = sigma.word
    n = len(w)
    if n % 2 == 0 or not is_falling_alternating(w):
        raise ValueError(f"{sigma} is not falling alternating of odd length")
    steps = []
    xi = []
    for k in range(1, n):
        pos = w.index(k) + 1
        steps.append(UP if pos % 2 == 0 else DOWN)
        xi.append(pattern_k(sigma, k, "31-2"))
    return DyckDiagramme(MotzkinPath(steps), xi, restricted=False)


def fv_star(sigma: Permutation) -> DyckDiagramme:
    """Restricted diagramme of an even falling alternating permutation,
    via appending the new maximum and applying fv."""
    w = sigma.word
    n = len(w)
    if n % 2 == 1 or not is_falling_alternating(w):
        raise ValueError(f"{sigma} is not falling alternating of even length")
    star = Permutation(w + (n + 1,))
    d = fv(star)
    return DyckDiagramme(d.path, d.xi, restricted=True)


def fz(sigma: Permutation) -> LaguerreHistory:
    """Laguerre history of a permutation: step type from the cyclic type of
    each value, xi from the crossing index (negated and shifted on cyclic
    double descents)."""
    w = sigma.word
    n = len(w)
    steps = []
    xi = []
    for k in range(1, n + 1):
        kind = cyclic_type(sigma, k)
        ck = cros_k(sigma, k)
        if kind == "cyclic-valley":
            steps.append(UP)
            xi.append(ck)
        elif kind == "cyclic-peak":
            steps.append(DOWN)
            xi.append(ck)
        elif kind == "fixed":
            steps.append(LEVEL)
            xi.append(0)
        elif kind == "cyclic-double-ascent":
            steps.append(LEVEL)
            xi.append(ck)
        else:  # cyclic double descent
            steps.append(LEVEL)
            xi.append(-(ck + 1))
    return LaguerreHistory(MotzkinPath(steps), xi)


# ---------------------------------------------------------------------------
# the biword bijection


def csz_biwords(sigma: Permutation):
    """The two biwords (f / f') and (g / g') of the construction.

    f' places descent tops from largest to smallest, inserting each letter
    with its right embracing number of larger letters to the left; g' places
    nondescent tops from smallest to largest, inserting each letter with its
    right embracing number of smaller letters to the right.
    """
    w = sigma.word
    n = len(w)
    pos = [0] * (n + 1)
    for i, v in enumerate(w):
        pos[v] = i
    # emb[k] counts the descents a > k > b wholly right of k (pattern 2-31)
    emb = [0] * (n + 1)
    descent_tops = set()
    descent_bottoms = set()
    for i in range(n - 1):
        a, b = w[i], w[i + 1]
        if a > b:
            descent_tops.add(a)
            descent_bottoms.add(b)
            for k in range(b + 1, a):
                if pos[k] < i:
                    emb[k] += 1

    f = sorted(descent_bottoms)
    g = sorted(v for v in w if v not in descent_bottoms)

    fprime: list = []
    for a in sorted(descent_tops, reverse=True):
        fprime.insert(emb[a], a)

    gprime: list = []
    for b in sorted(v for v in w if v not in descent_tops):
        gprime.insert(len(gprime) - emb[b], b)

    return Biword(tuple(f), tuple(fprime)), Biword(tuple(g), tuple(gprime))


def csz(sigma: Permutation) -> Permutation:
    """Read the concatenated biword as a function bottom -> top."""
    fw, gw = csz_biwords(sigma)
    n = sigma.n
    tau = [0] * n
    for top, bottom in zip(fw.top + gw.top, fw.bottom + gw.bottom):
        tau[bottom - 1] = top
    return Permutation(tau)


# ---------------------------------------------------------------------------
# involutions


def _largest_movable(w, left, right):
    """(0-based index, "da" or "dd") of the largest double ascent or double
    descent of w with the given boundary values, or None."""
    best, top = None, 0
    prev = left
    for i, v in enumerate(w):
        nxt = w[i + 1] if i + 1 < len(w) else right
        if v > top and (prev < v < nxt or prev > v > nxt):
            best, top = (i, "da" if prev < v else "dd"), v
        prev = v
    return best


def invol_phi(sigma: Permutation) -> Permutation:
    """Involution on all permutations (boundaries 0 ... 0): move the largest
    double ascent forward past the next smaller letter, or the largest double
    descent back behind the previous smaller letter.  Fixed points are the
    falling alternating permutations of odd length."""
    w = list(sigma.word)
    n = len(w)
    found = _largest_movable(w, 0, 0)
    if found is None:
        return sigma
    m, kind = found
    v = w[m]
    if kind == "da":
        j = next((j for j in range(m + 1, n) if w[j] < v), n)
        new = w[:m] + w[m + 1:j] + [v] + w[j:]
    else:
        j = next((j for j in range(m - 1, -1, -1) if w[j] < v), -1)
        new = w[:j + 1] + [v] + w[j + 1:m] + w[m + 1:]
    return Permutation(new)


def invol_psi(sigma: Permutation) -> Permutation:
    """Involution on coderangements (boundaries 0 ... n+1): the largest double
    ascent moves back behind the previous LARGER letter, the largest double
    descent forward past the next larger letter.  Fixed points are the falling
    alternating permutations of even length."""
    w = list(sigma.word)
    n = len(w)
    if not is_coderangement(w):
        raise ValueError(f"{sigma} is not a coderangement")
    found = _largest_movable(w, 0, n + 1)
    if found is None:
        return sigma
    m, kind = found
    v = w[m]
    if kind == "da":
        j = next(j for j in range(m - 1, -1, -1) if w[j] > v)
        new = w[:j + 1] + [v] + w[j + 1:m] + w[m + 1:]
    else:
        j = next((j for j in range(m + 1, n) if w[j] > v), n)
        new = w[:m] + w[m + 1:j] + [v] + w[j:]
    return Permutation(new)
