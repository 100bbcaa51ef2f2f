"""Per-index statistics, written from their definitions (k is a 1-based
position or a value, per each statistic's own definition).

Only tests read them: their sums over k are oracles for the whole-word
statistics, and ``cyclic_type`` with ``cros_k`` gives ``fz`` by definition.
``pattern_k`` stays in ``pqeuler.permstat``, where ``fv`` reads it.
"""


def cros_k(w: tuple, k: int) -> int:
    """Crossing index anchored at k: l < k <= s_l < s_k or s_k < s_l < k < l."""
    n = len(w)
    sk = w[k - 1]
    count = 0
    for l in range(1, n + 1):
        sl = w[l - 1]
        if l < k <= sl < sk:
            count += 1
        elif sk < sl < k < l:
            count += 1
    return count


def nest_k(w: tuple, k: int) -> int:
    """Nesting index anchored at k: l < k <= s_k < s_l or s_l < s_k < k < l."""
    n = len(w)
    sk = w[k - 1]
    count = 0
    for l in range(1, n + 1):
        sl = w[l - 1]
        if l < k <= sk < sl:
            count += 1
        elif sl < sk < k < l:
            count += 1
    return count


def inv_parts(w: tuple, k: int):
    """Sizes of the four inversion classes anchored at k (positions for the
    first three, value for the fourth)."""
    n = len(w)
    parts = [0, 0, 0, 0]
    for i in range(1, n + 1):
        si = w[i - 1]
        for j in range(i + 1, n + 1):
            sj = w[j - 1]
            if si <= sj:
                continue
            if j <= sj:
                if k == j:
                    parts[0] += 1
            elif sj <= i:
                if k == i:
                    if si < i:
                        parts[1] += 1
                    else:
                        parts[2] += 1
            elif i < sj:  # i < s_j < j
                if k == sj:
                    parts[3] += 1
    return tuple(parts)


def inv_k(w: tuple, k: int) -> int:
    return sum(inv_parts(w, k))


def cyclic_type(w: tuple, k: int) -> str:
    sk = w[k - 1]
    if sk == k:
        return "fixed"
    ik = w.index(k) + 1
    if ik > k < sk:
        return "cyclic-valley"
    if ik < k > sk:
        return "cyclic-peak"
    if ik < k < sk:
        return "cyclic-double-ascent"
    return "cyclic-double-descent"
