"""Generic exact linear algebra over any of the coefficient fields.

Matrices are lists of row lists whose entries support +, -, *, / and
truthiness for the zero test (Fraction, FFElement and RatFunc all do).
Plain Gaussian elimination is exact over a field, so nothing fancier
is needed at desk scale.
"""

from __future__ import annotations


def _gauss_jordan(field, A):
    """One Gauss-Jordan pass: (R, pivot columns, +- the product of the pivots)."""
    R = [list(row) for row in A]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    d = field.one
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if R[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            R[r], R[pivot] = R[pivot], R[r]
            d = -d
        d = d * R[r][c]
        inv = field.one / R[r][c]
        R[r] = [x * inv for x in R[r]]
        for i in range(rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots, d


def rref(field, A):
    """Reduced row echelon form; returns (R, pivot column list)."""
    return _gauss_jordan(field, A)[:2]


def rank(field, A):
    if not A or not A[0]:
        return 0
    return len(rref(field, A)[1])


def det(field, A):
    """Determinant of a square matrix: +- the product of the Gauss-Jordan
    pivots, or 0 below full rank."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    _, pivots, d = _gauss_jordan(field, A)
    return d if len(pivots) == n else field.zero


def kernel_basis(field, A):
    """Basis of the right null space of A."""
    if not A or not A[0]:
        return []
    cols = len(A[0])
    R, pivots = rref(field, A)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * cols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis
