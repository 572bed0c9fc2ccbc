"""Smith normal form over Z, and elementary divisor valuations over a DVR.

Two flavours are needed: the honest integer SNF (cokernels of pairing
matrices, graded blocks of an integer Y), and, over a discrete
valuation ring (Z localized at p inside Q_p, GF(q)[t] localized at t),
just the valuations of the elementary divisors: the one factorization
behind phi, `block_report` and the GF(q)(t) lattice divisors.

Both eliminations run on sparse rows, one {column: entry} dict per row
holding the nonzero entries only, which is how `graded_ad` stores its
blocks; a dense matrix enters through `sparse_rows`.  Every update
deletes the entries it zeroes and every emptied row is dropped, so a
pivot search only ever meets nonzero entries.
"""

from __future__ import annotations

from math import gcd


def sparse_rows(A) -> list[dict]:
    """The nonzero entries of a dense matrix, one {column: entry} dict per row."""
    return [{j: x for j, x in enumerate(row) if x} for row in A]


def _subtract(row: dict, f, entries) -> None:
    """row -= f * entries, in place; an entry that becomes 0 is deleted."""
    for j, y in entries:
        z = row.get(j)
        if z is None:
            row[j] = -(f * y)
        else:
            z = z - f * y
            if z:
                row[j] = z
            else:
                del row[j]


def integer_elementary_divisors(A, cols: int | None = None) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    A is a dense matrix, or, with `cols` given, sparse rows over that many
    columns.  Returns min(rows, cols) nonnegative integers; trailing zeros
    mean rank deficiency.  Entries are ints or integral Fractions; a
    non-integral entry raises ValueError.  Diagonalize, then normalize
    (Cohen, GTM 138, section 2.4): a pivot clears its row and column,
    restarting on a surviving remainder, and (gcd, lcm) steps over the
    non-unit diagonal give the chain.  The pivot search stops at the first
    +-1; updates touch only the pivot row's and column's nonzero entries.
    """
    if cols is None:
        A, cols = sparse_rows(A), len(A[0]) if A else 0
    if any(x.denominator != 1 for row in A for x in row.values()):
        raise ValueError("non-integral matrix entry")
    size = min(len(A), cols)
    rows = [{j: x.numerator for j, x in row.items()} for row in A if row]
    divisors = []
    while rows:
        # locate a nonzero entry of least absolute value, stopping at a unit
        least = None
        for row in rows:
            for j, x in row.items():
                if least is None or abs(x) < least:
                    prow, pj, least = row, j, abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        # row operations leave remainders in column pj, then column operations
        # leave remainders in the pivot row; a surviving remainder restarts
        p = prow[pj]
        pivot_row = list(prow.items())
        for row in rows:
            if row is not prow and pj in row:
                _subtract(row, row[pj] // p, pivot_row)
        column = [row for row in rows if pj in row]
        quotients = [(j, x // p) for j, x in pivot_row if j != pj]
        for row in column:
            _subtract(row, row[pj], quotients)
        if len(column) == 1 and len(prow) == 1:
            divisors.append(least)
            prow.clear()
        rows = [row for row in rows if row]
    # the block is now diagonal; (gcd, lcm) steps make the non-units a chain
    rest = [d for d in divisors if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(divisors) - len(rest)) + rest + [0] * (size - len(divisors))


INF = None  # marker for an infinite valuation (zero elementary divisor)


def dvr_divisor_valuations(field, A, cols: int | None = None):
    """Valuations of the elementary divisors of A over the valuation ring.

    `field` must expose valuation(); A is a dense matrix of field
    elements, or, with `cols` given, sparse rows over that many columns.
    Returns a list of length min(rows, cols), nondecreasing, with INF
    (None) entries for the rank deficiency over the fraction field.  The
    pivot is the first entry of least valuation.  Multipliers are
    integral, so the previous pivot's valuation bounds the rest of the
    block and the search stops at the first entry that meets it; row
    updates touch only the pivot row's nonzero entries.
    """
    if cols is None:
        A, cols = sparse_rows(A), len(A[0]) if A else 0
    size = min(len(A), cols)
    rows = [dict(row) for row in A if row]
    valuation = field.valuation
    vals: list[int | None] = []
    while rows:
        floor = vals[-1] if vals else None
        least = None
        for row in rows:
            for j, x in row.items():
                v = valuation(x)
                if least is None or v < least:
                    prow, pj, least = row, j, v
                    if v == floor:
                        break
            if least == floor:
                break
        vals.append(least)
        # the pivot row and column are never read again, so they are dropped
        pivot = prow.pop(pj)
        pivot_row = list(prow.items())
        kept = []
        for row in rows:
            if row is not prow:
                x = row.pop(pj, None)
                if x is not None:
                    _subtract(row, x / pivot, pivot_row)
                if row:
                    kept.append(row)
        rows = kept
    vals += [INF] * (size - len(vals))
    return vals
