"""Pure-Python per-word statistics kernel.

Computes every global permutation statistic of the library in one pass over a
word in one-line notation (values 1..n).  It serves only
``permstat.basic_stats`` (``pqeuler stats``), the bijection tests and the scan
oracle ``permstat._accumulate_scan``; ``stat_polynomial``, ``stat_table`` and
the checks do not call it.
"""

STAT_FIELDS = (
    "n", "exc", "wex", "fix", "des", "ndes", "maj", "inv", "cros", "nest",
    "toht", "thto", "thot", "fmax", "mad", "suc", "adj",
)


def stat_tuple(word):
    """All statistics of ``word`` as a tuple ordered like STAT_FIELDS."""
    n = len(word)
    exc = wex = fix = 0
    for i in range(n):
        v = word[i]
        pos = i + 1
        if v > pos:
            exc += 1
        if v >= pos:
            wex += 1
        if v == pos:
            fix += 1

    des = maj = 0
    for i in range(n - 1):
        if word[i] > word[i + 1]:
            des += 1
            maj += i + 1
    ndes = n - des

    inv = 0
    for i in range(n):
        wi = word[i]
        for j in range(i + 1, n):
            if wi > word[j]:
                inv += 1

    cros = nest = 0
    for i in range(1, n + 1):
        si = word[i - 1]
        for j in range(i + 1, n + 1):
            sj = word[j - 1]
            if j <= si < sj:          # i < j <= s_i < s_j
                cros += 1
            elif si < sj < i:         # s_i < s_j < i < j
                cros += 1
            if j <= sj < si:          # i < j <= s_j < s_i
                nest += 1
            elif sj < si < i:         # s_j < s_i < i < j
                nest += 1

    # vincular patterns anchored at the adjacent pair (t, t+1)
    toht = thto = thot = 0
    for t in range(n - 1):
        a = word[t]
        b = word[t + 1]
        for j in range(t + 2, n):     # 31-2: the 2 strictly right of the pair
            v = word[j]
            if a > v > b:
                toht += 1
        for j in range(t):            # 2-31 / 2-13: the 2 strictly left
            v = word[j]
            if a > v > b:
                thto += 1
            elif a < v < b:
                thot += 1

    fmax = 0
    running_max = 0
    for i in range(n):
        v = word[i]
        if v > running_max:
            running_max = v
            if i == n - 1 or v < word[i + 1]:
                fmax += 1

    suc = adj = 0
    for i in range(n):
        nxt = word[i + 1] if i + 1 < n else n + 1
        if nxt == word[i] + 1:
            suc += 1
        nxt = word[i + 1] if i + 1 < n else 0
        if nxt == word[i] - 1:
            adj += 1

    mad = des + toht + 2 * thto
    return (n, exc, wex, fix, des, ndes, maj, inv, cros, nest,
            toht, thto, thot, fmax, mad, suc, adj)
