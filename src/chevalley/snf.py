"""Smith normal form over Z, and elementary divisor valuations over a DVR.

Two flavours are needed: the honest integer SNF (cokernels of pairing
matrices, graded blocks of an integer Y), and, for lattice computations
over GF(q)[t] localized at t, just the t-adic valuations of the
elementary divisors.  The latter also works verbatim for Q with the
p-adic valuation, a cheap cross-check of determinant valuations.
"""

from __future__ import annotations


def integer_elementary_divisors(A) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) nonnegative integers; trailing zeros mean
    rank deficiency.  A non-integral entry raises ValueError.
    """
    M = [[int(x) for x in row] for row in A]
    if any(m != x for mrow, row in zip(M, A) for m, x in zip(mrow, row)):
        raise ValueError("non-integral matrix entry")
    rows = len(M)
    cols = len(M[0]) if rows else 0
    size = min(rows, cols)
    divisors = []
    top = 0
    while top < size:
        # locate the nonzero entry of least absolute value
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if M[i][j] and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        for row in M:
            row[top], row[bj] = row[bj], row[top]
        p = M[top][top]
        # reduce row and column by the pivot; restart if a remainder survives
        dirty = False
        for i in range(top + 1, rows):
            q, r = divmod(M[i][top], p)
            if q:
                for j in range(top, cols):
                    M[i][j] -= q * M[top][j]
            if M[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = M[top][j] // p
            if q:
                for i in range(top, rows):
                    M[i][j] -= q * M[i][top]
            if M[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must also divide the remaining block
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if M[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                M[top][j] += M[offender][j]
            continue
        divisors.append(abs(p))
        top += 1
    divisors += [0] * (size - len(divisors))
    return divisors


INF = None  # marker for an infinite valuation (zero elementary divisor)


def dvr_divisor_valuations(field, A, m_cap: int | None = None):
    """Valuations of the elementary divisors of A over the valuation ring.

    `field` must expose valuation(); entries of A are field elements.
    Returns a list of length min(rows, cols), nondecreasing, with INF
    (None) entries for the rank deficiency over the fraction field.
    With m_cap given, finite valuations are capped at m_cap (the image
    of the lattice computation truncated at uniformizer**m_cap); INF
    stays INF since the computation is exact.
    """
    M = [list(row) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    size = min(rows, cols)
    vals: list[int | None] = []
    top = 0
    while top < size:
        best = None
        best_v = None
        for i in range(top, rows):
            for j in range(top, cols):
                if M[i][j]:
                    v = field.valuation(M[i][j])
                    if best_v is None or v < best_v:
                        best, best_v = (i, j), v
        if best is None:
            break
        bi, bj = best
        M[top], M[bi] = M[bi], M[top]
        for row in M:
            row[top], row[bj] = row[bj], row[top]
        vals.append(best_v)
        pivot = M[top][top]
        # multipliers have valuation >= 0, so the operations are integral
        for i in range(top + 1, rows):
            if M[i][top]:
                f = M[i][top] / pivot
                for j in range(top, cols):
                    if M[top][j]:
                        M[i][j] = M[i][j] - f * M[top][j]
        top += 1
    vals += [INF] * (size - len(vals))
    if m_cap is not None:
        vals = [v if v is None else min(v, m_cap) for v in vals]
    return vals

