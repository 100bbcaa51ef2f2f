"""Reference numbers computed with plain integer lists, apart from pqeuler.

Each function here is a textbook recurrence; none of them calls the package,
so a check against them cannot share a fault with the code it checks.
"""

from __future__ import annotations


def euler_numbers(nmax: int) -> list[int]:
    """E_0..E_nmax (1, 1, 1, 2, 5, 16, 61, ...) from the Seidel
    boustrophedon: each row is the running sum of the previous row read
    backwards, and E_n is the last entry of row n."""
    out = [1]
    row = [1]
    for _ in range(nmax):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        out.append(row[-1])
    return out


def eulerian_by_wex(n: int) -> list[int]:
    """out[k] = number of permutations of [n] with k weak excedances.

    wex is equidistributed with des + 1, so this is the descent row
    A(n, d) = (d + 1) A(n-1, d) + (n - d) A(n-1, d-1) shifted by one.
    """
    row = [1]  # n = 0: the empty word, no descents
    for m in range(1, n + 1):
        row = [(d + 1) * (row[d] if d < len(row) else 0)
               + (m - d) * (row[d - 1] if 0 < d <= len(row) else 0)
               for d in range(m)]
    return [0] + row if n else [1]


def mahonian(n: int) -> list[int]:
    """Coefficients of prod_(k <= n) (1 + s + ... + s^(k-1)): out[i] is the
    number of permutations of [n] with i inversions."""
    out = [1]
    for k in range(1, n + 1):
        new = [0] * (len(out) + k - 1)
        for i, c in enumerate(out):
            for j in range(k):
                new[i + j] += c
        out = new
    return out


def derangements(n: int) -> int:
    """D_n from D_n = (n - 1)(D_(n-1) + D_(n-2)), D_0 = 1, D_1 = 0."""
    prev, cur = 1, 0
    if n == 0:
        return prev
    for m in range(2, n + 1):
        prev, cur = cur, (m - 1) * (cur + prev)
    return cur
