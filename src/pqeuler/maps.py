"""The constructive correspondences and the two sign-reversing involutions.

* fv / fv_star: falling alternating permutations to Dyck path diagrammes
  (plain / restricted), with xi recording left embracing numbers.
* fz: any permutation to a Laguerre history, with xi from crossing indices.
* csz: the biword bijection carrying (ndes, fmax, 31-2, 2-31, MAD) to
  (wex, fix, cros, nest, inv).
* invol_phi / invol_psi: the value-moving involutions whose fixed sets are
  the odd / even falling alternating permutations.

csz, invol_phi and invol_psi each run on a core that maps a raw tuple to a
raw tuple (csz_word, invol_phi_word, invol_psi_word); the Permutation-level
functions wrap them.  The certificates of these three maps in ``harness``
walk the raw words of S_n and call the cores, so they build no Permutation;
a witness is printed from the raw word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import DOWN, LEVEL, UP, DyckDiagramme, LaguerreHistory, MotzkinPath
from .permstat import (
    Permutation,
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
    star = Permutation._trusted(w + (n + 1,))
    d = fv(star)
    return DyckDiagramme(d.path, d.xi, restricted=True)


def fz(sigma: Permutation) -> LaguerreHistory:
    """Laguerre history of a permutation: step type from the cyclic type of
    each value, xi from the crossing index (negated and shifted on cyclic
    double descents).

    One loop over the values k reads the cyclic type from k's preimage and
    image, and the crossing index from a mask of the values left of
    position k: it counts the l < k with k <= s_l < s_k when s_k > k, and
    the l > k with s_k < s_l < k when s_k < k.
    """
    w = sigma.word
    n = len(w)
    inv = [0] * (n + 1)
    for i, v in enumerate(w, 1):
        inv[v] = i
    full = (2 << n) - 2               # bit v stands for the value v
    left = 0                          # the values at positions 1..k-1
    steps = []
    xi = []
    for k, sk in enumerate(w, 1):
        if sk == k:
            steps.append(LEVEL)
            xi.append(0)
        elif sk > k:
            ck = (left & ((1 << sk) - (1 << k))).bit_count()
            steps.append(UP if inv[k] > k else LEVEL)   # valley / double ascent
            xi.append(ck)
        else:
            right = full & ~left & ~(1 << sk)
            ck = (right & ((1 << k) - (2 << sk))).bit_count()
            if inv[k] < k:                              # cyclic peak
                steps.append(DOWN)
                xi.append(ck)
            else:                                       # double descent
                steps.append(LEVEL)
                xi.append(-(ck + 1))
        left |= 1 << sk
    return LaguerreHistory(MotzkinPath(steps), xi)


# ---------------------------------------------------------------------------
# the biword bijection


def _csz_rows(w):
    """(descent bottoms as flags by value, f', g') of the construction on
    the word w; f lists the flagged values in increasing order, g the
    others.

    f' places descent tops from largest to smallest, inserting each letter
    with its right embracing number of larger letters to the left; g' places
    nondescent tops from smallest to largest, inserting each letter with its
    right embracing number of smaller letters to the right.
    """
    n = len(w)
    # emb[k] counts the descents a > k > b wholly right of k (pattern 2-31)
    emb = [0] * (n + 1)
    top = [False] * (n + 1)
    bottom = [False] * (n + 1)
    left = 0                      # the values left of the letter a
    a = w[0] if n else 0
    for b in w[1:]:
        if a > b:
            top[a] = bottom[b] = True
            for k in range(b + 1, a):
                if left >> k & 1:
                    emb[k] += 1
        left |= 1 << a
        a = b
    fprime: list = []
    for v in range(n, 0, -1):
        if top[v]:
            fprime.insert(emb[v], v)
    gprime: list = []
    for v in range(1, n + 1):
        if not top[v]:
            gprime.insert(len(gprime) - emb[v], v)
    return bottom, fprime, gprime


def csz_word(w: tuple) -> tuple:
    """csz on a raw word: the concatenated biword read as a function
    bottom -> top."""
    bottom, fprime, gprime = _csz_rows(w)
    tau = [0] * len(w)
    f_bottoms, g_bottoms = iter(fprime), iter(gprime)
    for v in range(1, len(w) + 1):
        tau[(next(f_bottoms) if bottom[v] else next(g_bottoms)) - 1] = v
    return tuple(tau)


def csz_biwords(sigma: Permutation):
    """The two biwords (f / f') and (g / g') of the construction."""
    bottom, fprime, gprime = _csz_rows(sigma.word)
    values = range(1, sigma.n + 1)
    return (Biword(tuple(v for v in values if bottom[v]), tuple(fprime)),
            Biword(tuple(v for v in values if not bottom[v]), tuple(gprime)))


def csz(sigma: Permutation) -> Permutation:
    """Read the concatenated biword as a function bottom -> top."""
    return Permutation._trusted(csz_word(sigma.word))


# ---------------------------------------------------------------------------
# involutions


def _largest_movable(w, right):
    """0-based index of the largest double ascent or double descent of w
    between the boundary values 0 and ``right``, or -1."""
    best, top = -1, 0
    prev = 0
    for i, (v, nxt) in enumerate(zip(w, w[1:] + (right,))):
        if v > top and (prev < v < nxt or prev > v > nxt):
            best, top = i, v
        prev = v
    return best


def invol_phi_word(w: tuple) -> tuple:
    """invol_phi on a raw word of S_n."""
    m = _largest_movable(w, 0)
    if m < 0:
        return w
    v = w[m]
    n = len(w)
    if m == 0 or w[m - 1] < v:        # double ascent
        j = m + 1
        while j < n and w[j] > v:
            j += 1
        return w[:m] + w[m + 1:j] + (v,) + w[j:]
    j = m - 1
    while j >= 0 and w[j] > v:
        j -= 1
    return w[:j + 1] + (v,) + w[j + 1:m] + w[m + 1:]


def invol_psi_word(w: tuple) -> tuple:
    """invol_psi on a raw word, which must be a coderangement."""
    n = len(w)
    m = _largest_movable(w, n + 1)
    if m < 0:
        return w
    v = w[m]
    if m == 0 or w[m - 1] < v:        # double ascent
        j = m - 1
        while j >= 0 and w[j] < v:
            j -= 1
        return w[:j + 1] + (v,) + w[j + 1:m] + w[m + 1:]
    j = m + 1
    while j < n and w[j] < v:
        j += 1
    return w[:m] + w[m + 1:j] + (v,) + w[j:]


def invol_phi(sigma: Permutation) -> Permutation:
    """Involution on all permutations (boundaries 0 ... 0): move the largest
    double ascent forward past the next smaller letter, or the largest double
    descent back behind the previous smaller letter.  Fixed points are the
    falling alternating permutations of odd length."""
    return Permutation._trusted(invol_phi_word(sigma.word))


def invol_psi(sigma: Permutation) -> Permutation:
    """Involution on coderangements (boundaries 0 ... n+1): the largest double
    ascent moves back behind the previous LARGER letter, the largest double
    descent forward past the next larger letter.  Fixed points are the falling
    alternating permutations of even length."""
    if not is_coderangement(sigma.word):
        raise ValueError(f"{sigma} is not a coderangement")
    return Permutation._trusted(invol_psi_word(sigma.word))
