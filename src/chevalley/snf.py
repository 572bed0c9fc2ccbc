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

Over Z the block is first split into the connected pieces of its
row-column graph (`_pieces`, a union-find over the columns), and each
piece is eliminated alone: a graded block is mostly 1 x 1 pieces, so
no pivot sweeps the rows of the whole block.  The diagonal then becomes
the chain in one fold per distinct non-unit value.  The DVR pass does
not split: its blocks are small and dense enough that the pieces cost
more than they save, and `phi` settles a zero row or column first.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, inf, lcm


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


def _pieces(A: list[dict]) -> list[list[dict]]:
    """The nonempty rows of A as {column: int} dicts, grouped into the
    connected pieces of its row-column graph (a row meets the columns of
    its entries).  One pass checks the entries are integral (else
    ValueError) and links each row's columns to its first column's root in
    a union-find over the columns; the rows are grouped by the final roots."""
    parent: dict = {}  # column -> a column of its piece; a root is its own parent

    def root(j):  # a new column is its own root
        while (k := parent.setdefault(j, j)) != j:
            parent[j] = j = parent[k]  # path halving
        return j

    rows = []
    for row in A:
        if row:
            ints = {}
            for j, x in row.items():
                if x.denominator != 1:
                    raise ValueError("non-integral matrix entry")
                ints[j] = x.numerator
                if len(ints) == 1:
                    first = root(j)
                else:
                    parent[root(j)] = first
            rows.append((first, ints))
    pieces: dict = {}
    for first, ints in rows:
        pieces.setdefault(root(first), []).append(ints)
    return list(pieces.values())


def integer_elementary_divisors(A: list[dict], cols: int) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, given as
    sparse rows over `cols` columns.

    Returns min(rows, cols) nonnegative integers; trailing zeros mean rank
    deficiency.  Entries are ints or integral Fractions; a non-integral
    entry raises ValueError.  Diagonalize, then normalize (Cohen, GTM 138,
    section 2.4).  Row and column operations never cross the connected
    pieces of the block (`_pieces`), so each piece is diagonalized alone,
    and a piece of one entry is its own divisor.  The pivot is the first
    entry of least absolute value in the piece, stopping at a unit.  Once
    the sweep leaves its column clear, the pivot row is reduced mod the
    pivot (column operations) and the pivot splits off when that row is
    empty; any remainder is the next, smaller pivot, and a step that
    splits off nothing yet leaves no smaller entry raises RuntimeError.
    The diagonal becomes the chain in one fold per distinct non-unit
    value v of multiplicity c: per prime, the fold merges c copies of
    v_p(v) into the chain's sorted valuations.
    """
    size = min(len(A), cols)
    diagonal = []
    for rows in _pieces(A):
        if len(rows) == 1 and len(rows[0]) == 1:  # most pieces of a graded block
            diagonal.append(abs(*rows[0].values()))
            continue
        above = inf  # the least |entry| a step that splits off nothing must go below
        while rows:
            prow, pj, least = _pivot(rows, abs, 1)
            if least >= above:
                raise RuntimeError("integer elimination made no progress")
            p = prow.pop(pj)
            rows, clear = _sweep(rows, prow, pj, p, divmod)
            if clear:
                prow = {j: r for j, x in prow.items() if (r := x % p)}
                if not prow:
                    diagonal.append(least)
                    above = inf
                    continue
            prow[pj] = p
            rows.append(prow)
            above = least
    chain: list[int] = []
    for v, c in Counter(d for d in diagonal if d != 1).items():
        n = len(chain)
        chain = [lcm(chain[k - c] if k >= c else 1, gcd(chain[k] if k < n else 0, v))
                 for k in range(n + c)]
    return [1] * (len(diagonal) - len(chain)) + chain + [0] * (size - len(diagonal))


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
    column are never read again, so they are dropped; as every step drops
    a row, the loop ends on its own after at most min(rows, cols) steps.
    """
    size = min(len(A), cols)
    rows = [dict(row) for row in A if row]
    vals: list[int | None] = []
    while rows:
        prow, pj, least = _pivot(rows, field.valuation, vals[-1] if vals else None)
        vals.append(least)
        rows, _ = _sweep(rows, prow, pj, prow.pop(pj), lambda x, p: (x / p, None))
    return vals + [INF] * (size - len(vals))
