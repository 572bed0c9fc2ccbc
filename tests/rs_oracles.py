"""Reference oracle for the root tables of `RootSystem`.

`reflection_closure_tables` builds them the long way.  It closes the
simple roots under the simple reflections beta -> beta - <beta, alpha_i^v>
alpha_i, with one dot product per (root, simple root), and sorts the
positive roots by height, then by -coordinates.  Per positive root it
takes the pairings <a, alpha_j^v> by dot products again, the height parent
a - alpha_j (the first j with <a, alpha_j^v> > 0) by a search of the
roots, 2D (a, a) as one more sum, and the coroot; the negatives mirror the
positives.  The cocharacter Gram is summed over the positive roots of each
factor, a root's factor read off its support.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from chevalley.rootsystem import SIMPLY_CONNECTED, _dynkin_data, exact_div


def close_under_reflections(cartan):
    """All roots, by closing the simple roots under the simple reflections."""
    n = len(cartan)
    roots = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = list(roots)
    while frontier:
        beta = frontier.pop()
        for i, row in enumerate(cartan):
            p = sum(map(mul, beta, row))
            if p:
                img = beta[:i] + (beta[i] - p,) + beta[i + 1:]
                if img not in roots:
                    roots.add(img)
                    frontier.append(img)
    return roots


def reflection_closure_tables(cartan_type, isogeny, scale=None):
    """The tables `RootSystem` builds, by name, for a list of (letter, rank)
    factors; the Cartan matrix is the one every build starts from."""
    factor, lengths, cartan = [], [], []
    for f, ((series, rank), s) in enumerate(zip(cartan_type, scale or [1] * len(cartan_type))):
        factor += [f] * rank
        lengths += [length * s for length in _dynkin_data(series, rank)[1]]
    n = len(lengths)
    den = lcm(*(length.denominator for length in lengths))
    ell = [length.numerator * (den // length.denominator) for length in lengths]
    # <alpha_j, alpha_i^v> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i), from
    # the Dynkin edges of each factor, shifted to its place
    cartan = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    start = 0
    for series, rank in cartan_type:
        for i, j in _dynkin_data(series, rank)[0]:
            i, j = start + i, start + j
            cartan[i][j] = -max(ell[i], ell[j]) // ell[i]
            cartan[j][i] = -max(ell[i], ell[j]) // ell[j]
        start += rank

    positives = sorted((a for a in close_under_reflections(cartan) if sum(a) > 0),
                       key=lambda a: (sum(a), tuple(-c for c in a)))
    roots = positives + [tuple(-c for c in a) for a in positives]
    root_index = {a: i for i, a in enumerate(roots)}
    len_num, pairing_rows, coroots, height_parents = [], [], [], []
    for a in positives:
        on_coroots = tuple(sum(map(mul, a, row)) for row in cartan)
        j = next(j for j, c in enumerate(on_coroots) if c > 0)
        parent = a[:j] + (a[j] - 1,) + a[j + 1:]
        height_parents.append((root_index[parent] if any(parent) else None, j))
        two_d_la = sum(x * c * l for x, c, l in zip(a, on_coroots, ell))
        row, src = (on_coroots, a) if isogeny == SIMPLY_CONNECTED else (a, on_coroots)
        len_num.append(two_d_la)
        pairing_rows.append(row)
        coroots.append(tuple(exact_div(2 * x * l, two_d_la, "coroot coordinate")
                             for x, l in zip(src, ell)))
    len_den = 2 * den

    # B(x, y) = sum_{a>0} <a, x><a, y> on each factor f, over its trace
    # sum_{a>0} (a, a) / rank_f
    trace = [0] * len(cartan_type)
    for a, num in zip(positives, len_num):
        trace[factor[next(k for k, x in enumerate(a) if x)]] += num
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i, j in ((i, j) for i in range(n) for j in range(n) if factor[i] == factor[j]):
        f = factor[i]
        gram[i][j] = Fraction(cartan_type[f][1] * len_den
                              * sum(row[i] * row[j] for row in pairing_rows), trace[f])
    gram_den = lcm(*(g.denominator for row in gram for g in row))

    return {
        "roots": roots,
        "root_index": root_index,
        "height_parents": height_parents,
        "len_num": len_num + len_num,
        "len_den": len_den,
        "pairing_rows": pairing_rows + [tuple(-c for c in row) for row in pairing_rows],
        "coroots": coroots + [tuple(-c for c in h) for h in coroots],
        "cartan": cartan,
        "gram_num": [[g.numerator * (gram_den // g.denominator) for g in row] for row in gram],
        "gram_den": gram_den,
    }
