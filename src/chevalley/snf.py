"""Smith normal form over Z, and elementary divisor valuations over a DVR.

Two flavours are needed: the honest integer SNF (cokernels of pairing
matrices, graded blocks of an integer Y), and, over a discrete
valuation ring (Z localized at p inside Q_p, GF(q)[t] localized at t),
just the valuations of the elementary divisors: the one factorization
behind phi, `block_report` and the GF(q)(t) lattice divisors.
"""

from __future__ import annotations

from math import gcd


def integer_elementary_divisors(A) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) nonnegative integers; trailing zeros mean
    rank deficiency.  Entries are ints or integral Fractions; a
    non-integral entry raises ValueError.  Diagonalize, then normalize
    (Cohen, GTM 138, section 2.4): a pivot clears its row and column,
    restarting on a surviving remainder, and (gcd, lcm) steps over the
    non-unit diagonal give the chain.  The pivot search stops at the first
    +-1; updates touch only the pivot row's and column's nonzero entries.
    """
    if any(x.denominator != 1 for row in A for x in row):
        raise ValueError("non-integral matrix entry")
    M = [[x.numerator for x in row] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    size = min(rows, cols)
    divisors = []
    top = 0
    while top < size:
        # locate a nonzero entry of least absolute value, stopping at a unit
        best, least = None, 0
        for i in range(top, rows):
            row = M[i]
            for j in range(top, cols):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        if bj != top:
            for row in M[top:]:
                row[top], row[bj] = row[bj], row[top]
        prow = M[top]
        p = prow[top]
        # reduce row and column by the pivot; restart if a remainder survives
        support = [j for j in range(top + 1, cols) if prow[j]]
        dirty = False
        for i in range(top + 1, rows):
            row = M[i]
            if row[top]:
                q, row[top] = divmod(row[top], p)
                if q:
                    for j in support:
                        row[j] -= q * prow[j]
                if row[top]:
                    dirty = True
        column = [row for row in M[top:] if row[top]]
        for j in support:
            q = prow[j] // p
            if q:
                for row in column:
                    row[j] -= q * row[top]
            if prow[j]:
                dirty = True
        if dirty:
            continue
        divisors.append(least)
        top += 1
    # the block is now diagonal; (gcd, lcm) steps make the non-units a chain
    rest = [d for d in divisors if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(divisors) - len(rest)) + rest + [0] * (size - len(divisors))


INF = None  # marker for an infinite valuation (zero elementary divisor)


def dvr_divisor_valuations(field, A):
    """Valuations of the elementary divisors of A over the valuation ring.

    `field` must expose valuation(); entries of A are field elements.
    Returns a list of length min(rows, cols), nondecreasing, with INF
    (None) entries for the rank deficiency over the fraction field.  The
    pivot is the first entry of least valuation.  Multipliers are
    integral, so the previous pivot's valuation bounds the rest of the
    block and the search stops at the first entry that meets it; row
    updates touch only the pivot row's nonzero columns.
    """
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    size = min(rows, cols)
    vals: list[int | None] = []
    top = 0
    while top < size:
        floor = vals[-1] if vals else None
        best = least = None
        for i in range(top, rows):
            row = M[i]
            for j in range(top, cols):
                if row[j]:
                    v = field.valuation(row[j])
                    if best is None or v < least:
                        best, least = (i, j), v
                        if v == floor:
                            break
            if best and least == floor:
                break
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        if bj != top:
            for row in M[top:]:
                row[top], row[bj] = row[bj], row[top]
        vals.append(least)
        prow = M[top]
        pivot = prow[top]
        support = [j for j in range(top + 1, cols) if prow[j]]
        # column top is never read again, so it is left as it is
        for row in M[top + 1:]:
            if row[top]:
                f = row[top] / pivot
                for j in support:
                    row[j] = row[j] - f * prow[j]
        top += 1
    vals += [INF] * (size - len(vals))
    return vals
