"""Smith normal form over Z, and elementary divisor valuations over a DVR.

Two flavours are needed: the honest integer SNF (cokernels of pairing
matrices, graded blocks of an integer Y), and, over a discrete
valuation ring (Z localized at p inside Q_p, GF(q)[t] localized at t),
just the valuations of the elementary divisors: the one factorization
behind phi, `block_report` and the GF(q)(t) lattice divisors.

Both take sparse rows, one {column: entry} dict per row holding the
nonzero entries only (how `graded_ad` stores its blocks; a dense matrix
enters through `sparse_rows`), and the number of columns.  Both run one
pivot search (`_pivot`) and one sweep (`_sweep`) per pivot; over Z the
sweep's remainders supply the next, smaller pivot.  Updates delete the
entries they zero and emptied rows are dropped, so a pivot search only
ever meets nonzero entries.
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


def _pivot(rows: list[dict], key, stop):
    """(row, column, key) of the first entry of least key(entry); the
    search returns at once on an entry whose key is `stop`."""
    least = None
    for row in rows:
        for j, x in row.items():
            k = key(x)
            if least is None or k < least:
                if k == stop:
                    return row, j, k
                prow, pj, least = row, j, k
    return prow, pj, least


def _sweep(rows: list[dict], prow: dict, pj, pivot, divide):
    """One pass over the rows but prow, whose pj entry the caller popped
    as `pivot`: each row's pj entry x is popped, divide(x, pivot) gives a
    multiplier f and a remainder r, row -= f * prow, and a nonzero r stays
    in column pj.  Returns the nonempty rows and whether column pj is clear.
    """
    pivot_row = list(prow.items())
    kept, clear = [], True
    for row in rows:
        if row is not prow:
            x = row.pop(pj, None)
            if x is not None:
                f, r = divide(x, pivot)
                _subtract(row, f, pivot_row)
                if r:
                    row[pj] = r
                    clear = False
            if row:
                kept.append(row)
    return kept, clear


def integer_elementary_divisors(A: list[dict], cols: int) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, given as
    sparse rows over `cols` columns.

    Returns min(rows, cols) nonnegative integers; trailing zeros mean rank
    deficiency.  Entries are ints or integral Fractions; a non-integral
    entry raises ValueError.  Diagonalize, then normalize (Cohen, GTM 138,
    section 2.4): the pivot is the first entry of least absolute value,
    stopping at a unit.  Once the sweep leaves its column clear, the pivot
    row is reduced mod the pivot (column operations) and the pivot splits
    off when that row is empty; any remainder is the next, smaller pivot.
    (gcd, lcm) steps over the non-unit diagonal give the chain.
    """
    if any(x.denominator != 1 for row in A for x in row.values()):
        raise ValueError("non-integral matrix entry")
    size = min(len(A), cols)
    rows = [{j: x.numerator for j, x in row.items()} for row in A if row]
    divisors = []
    while rows:
        prow, pj, least = _pivot(rows, abs, 1)
        p = prow.pop(pj)
        rows, clear = _sweep(rows, prow, pj, p, divmod)
        if clear:
            prow = {j: r for j, x in prow.items() if (r := x % p)}
            if not prow:
                divisors.append(least)
                continue
        prow[pj] = p
        rows.append(prow)
    # the block is now diagonal; (gcd, lcm) steps make the non-units a chain
    rest = [d for d in divisors if d != 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return [1] * (len(divisors) - len(rest)) + rest + [0] * (size - len(divisors))


INF = None  # marker for an infinite valuation (zero elementary divisor)


def dvr_divisor_valuations(field, A: list[dict], cols: int):
    """Valuations of the elementary divisors over the valuation ring of a
    matrix of field elements, given as sparse rows over `cols` columns.

    `field` must expose valuation().  Returns a list of length
    min(rows, cols), nondecreasing, with INF (None) entries for the rank
    deficiency over the fraction field.  The pivot is the first entry of
    least valuation, so every multiplier is integral and no remainder is
    left; the previous pivot's valuation bounds the rest of the block and
    the search stops at the first entry that meets it.  The pivot row and
    column are never read again, so they are dropped.
    """
    size = min(len(A), cols)
    rows = [dict(row) for row in A if row]
    vals: list[int | None] = []
    while rows:
        prow, pj, least = _pivot(rows, field.valuation, vals[-1] if vals else None)
        vals.append(least)
        rows, _ = _sweep(rows, prow, pj, prow.pop(pj), lambda x, p: (x / p, None))
    return vals + [INF] * (size - len(vals))
